//! Cycle-level tracing demo: the same packet-paced Figure 1 program runs
//! under both memory organizations with a trace sink attached, making the
//! paper's §3.1-vs-§3.2 claim visible event by event — the arbitrated
//! organization jitters (ArbStall events, spread grant-wait percentiles)
//! while the event-driven organization delivers with zero variance.
//!
//! Run with: `cargo run --example trace_demo`

use memsync::core::{Compiler, OrganizationKind};
use memsync::sim::traffic::BernoulliSource;
use memsync::sim::System;
use memsync::trace::{SharedSink, VecSink};

const FIGURE1_PACED: &str = r#"
    thread t1 () {
        message pkt;
        int x1, x2;
        recv pkt;
        #consumer{mt1,[t2,y1],[t3,z1]}
        x1 = f(pkt, x2);
    }
    thread t2 () {
        int y1, y2;
        #producer{mt1,[t1,x1]}
        y1 = g(x1, y2);
    }
    thread t3 () {
        int z1, z2;
        #producer{mt1,[t1,x1]}
        z1 = h(x1, z2);
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        let mut compiler = Compiler::new(FIGURE1_PACED);
        compiler.organization(kind).skip_validation();
        let compiled = compiler.compile()?;

        let shared = SharedSink::new(VecSink::new());
        let mut sys = System::new(&compiled);
        sys.set_sink(Box::new(shared.clone()));
        sys.attach_source("t1", Box::new(BernoulliSource::new(11, 0.05)));
        for _ in 0..5_000 {
            sys.step();
        }

        println!("--- {kind} organization, 5000 cycles ---");
        let events = shared.with(|s| s.events.clone());
        println!("events emitted: {}", events.len());
        println!("first five (JSONL schema):");
        for ev in events.iter().take(5) {
            println!("  {}", ev.to_jsonl());
        }

        // Figure 1's one bank serves two consumers, t2 (c0) and t3 (c1).
        let both = |kind: &str| {
            let count = |c: u32| sys.metrics.counter(&format!("bank0.{kind}.c{c}"));
            count(0) + count(1)
        };
        let (stalls, dep_waits) = (both("arb_stall"), both("dep_wait"));
        println!("arbitration stalls: {stalls}, dependency waits: {dep_waits}");
        if let Some(h) = sys.metrics.histogram("bank0.grant_wait.consumers") {
            if let Some(s) = h.summary() {
                println!(
                    "consumer grant-wait: p50 {} p90 {} p99 {} max {}",
                    s.p50, s.p90, s.p99, s.max
                );
            }
        }
        let pooled = sys.metrics.pooled_stats().expect("deliveries recorded");
        // The paper's determinism claim is per consumer: pooled numbers mix
        // the schedule slots, so judge each (addr, consumer) stream alone.
        let per_consumer_exact = sys.metrics.streams().iter().all(|&(addr, c)| {
            sys.metrics
                .stats(addr, c)
                .is_none_or(|s| s.is_deterministic())
        });
        println!(
            "produce-to-consume latency: min {} max {} pooled variance {:.3} ({})",
            pooled.min,
            pooled.max,
            pooled.variance,
            if per_consumer_exact {
                "exact per consumer, as §3.2 promises"
            } else {
                "jitters under contention, as §3.1 warns"
            }
        );
        for (bank, util) in sys.metrics.utilization() {
            println!("{bank} utilization: {:.2}%", util * 100.0);
        }
        println!();
    }
    Ok(())
}
