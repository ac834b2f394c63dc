//! Timing harness: cycle throughput of the behavioral wrapper models and
//! the full-system simulator (E6 substrate), plus the cost of turning the
//! metrics registry on. The uninstrumented baseline steps the wrapper
//! models with a `NullSink`; the models are generic over the sink, so its
//! `enabled()` gate is resolved at compile time and no event is built.
//! The overhead printed is not the cost of events alone: with metrics on,
//! the engine steps every bank every cycle, while the baseline skips the
//! settled ones, and the mostly idle 1000-cycle run below is where that
//! skip saves most.
//!
//! Criterion is unavailable offline; plain `main()` timing loops instead.
//! Run with `cargo bench --bench sim`.

use memsync_bench::latency_experiment;
use memsync_core::{Compiler, OrganizationKind};
use memsync_sim::System;
use std::time::Instant;

fn main() {
    println!("latency_experiment (15 iterations each)");
    for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        let start = Instant::now();
        for _ in 0..15 {
            std::hint::black_box(latency_experiment(kind, 8, 50, 1));
        }
        let per = start.elapsed() / 15;
        println!("  {kind}: {per:?} per run");
    }

    let src = memsync_netapp::forwarding::app_source(4);
    let mut compiler = Compiler::new(&src);
    compiler.skip_validation();
    let compiled = compiler.compile().expect("app compiles");

    let run = |instrument: bool| {
        let start = Instant::now();
        for _ in 0..15 {
            let mut sys = System::new(&compiled);
            if instrument {
                sys.enable_metrics();
            }
            sys.push_message("rx", 0x0a0a_0a40);
            for _ in 0..1000 {
                sys.step();
            }
            std::hint::black_box(sys.cycle());
        }
        start.elapsed() / 15
    };
    let baseline = run(false);
    let instrumented = run(true);
    println!("full_system_1000_cycles: {baseline:?} per run");
    println!("full_system_1000_cycles (metrics on): {instrumented:?} per run");
    let overhead = instrumented.as_secs_f64() / baseline.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0;
    println!("metrics-registry overhead: {:.1}%", overhead * 100.0);
}
