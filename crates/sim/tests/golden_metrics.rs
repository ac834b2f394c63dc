//! Golden-value equivalence: the engine must reproduce — exactly — the
//! metrics earlier engines produced on fixed-seed workloads; any divergence
//! means a refactor changed simulated behavior, not just its speed.
//!
//! The figure 1 constants were captured from the pre-interning engine
//! (BTreeMap-keyed banks/queues/sources) on the same program, seed, and
//! cycle count. The forwarding-app and stray-serve constants were captured
//! from the polling engine, which ticked every thread and stepped every
//! bank on every cycle, before stepping became activity-driven.

use memsync_core::{CompiledSystem, Compiler, OptLevel, OrganizationKind};
use memsync_netapp::Workload;
use memsync_sim::traffic::{BernoulliSource, PeriodicSource};
use memsync_sim::System;
use memsync_synth::eval::name_seed;
use memsync_trace::{SharedSink, TraceEvent, VecSink};

/// Figure 1's three-thread dependency with Bernoulli-paced arrivals on the
/// consumer's rx port (t1 consumes x1; t2/t3 produce it).
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

fn run(kind: OrganizationKind, instrumented: bool) -> System {
    let mut c = Compiler::new(FIGURE1_PACED);
    c.organization(kind).skip_validation();
    let compiled = c.compile().expect("figure 1 compiles");
    let mut sys = System::new(&compiled);
    sys.attach_source("t1", Box::new(BernoulliSource::new(11, 0.05)));
    if instrumented {
        sys.enable_metrics();
    }
    for _ in 0..20_000 {
        sys.step();
    }
    sys
}

#[test]
fn arbitrated_uninstrumented_matches_seed_engine() {
    let sys = run(OrganizationKind::Arbitrated, false);
    let pooled = sys.metrics.pooled_stats().expect("samples recorded");
    assert_eq!(pooled.count, 1792);
    assert_eq!(pooled.min, 2);
    assert_eq!(pooled.max, 5);
    assert!(
        (pooled.mean - 3.863281).abs() < 1e-6,
        "mean {}",
        pooled.mean
    );
    assert!(
        (pooled.variance - 1.028741).abs() < 1e-6,
        "variance {}",
        pooled.variance
    );
    let s0 = sys.metrics.stats(0, 0).expect("stream (0,0)");
    assert_eq!(s0.count, 896);
    assert!((s0.mean - 3.983259).abs() < 1e-6);
    let s1 = sys.metrics.stats(0, 1).expect("stream (0,1)");
    assert_eq!(s1.count, 896);
    assert!((s1.mean - 3.743304).abs() < 1e-6);
    assert_eq!(sys.thread("t2").unwrap().var("y1"), Some(1529321783));
    assert_eq!(sys.thread("t3").unwrap().var("z1"), Some(1525503287));
    assert_eq!(sys.cycle(), 20_000);
}

#[test]
fn arbitrated_instrumented_matches_seed_engine() {
    let sys = run(OrganizationKind::Arbitrated, true);
    for (name, want) in [
        ("bank0.writes", 985),
        ("bank0.reads", 1792),
        ("bank0.grant.c0", 896),
        ("bank0.grant.c1", 896),
        ("bank0.grant.p0", 985),
        ("bank0.grant.p1", 0),
        ("bank0.deplist_hit", 985),
        ("bank0.deplist_miss", 0),
        ("queue0.push", 985),
        ("queue0.pop", 985),
    ] {
        assert_eq!(sys.metrics.counter(name), want, "{name}");
    }
    // The instrumented latency path (trace events through the registry)
    // agrees with the uninstrumented direct-recording path.
    let pooled = sys.metrics.pooled_stats().expect("samples recorded");
    assert_eq!((pooled.count, pooled.min, pooled.max), (1792, 2, 5));
    assert!((pooled.mean - 3.863281).abs() < 1e-6);
}

#[test]
fn event_driven_uninstrumented_matches_seed_engine() {
    let sys = run(OrganizationKind::EventDriven, false);
    let pooled = sys.metrics.pooled_stats().expect("samples recorded");
    assert_eq!((pooled.count, pooled.min, pooled.max), (1970, 2, 3));
    assert!((pooled.mean - 2.5).abs() < 1e-9);
    assert!((pooled.variance - 0.25).abs() < 1e-9);
    // §3.2 determinism: each consumer's latency is exact.
    let s0 = sys.metrics.stats(0, 0).expect("stream (0,0)");
    assert_eq!((s0.count, s0.min, s0.max), (985, 2, 2));
    let s1 = sys.metrics.stats(0, 1).expect("stream (0,1)");
    assert_eq!((s1.count, s1.min, s1.max), (985, 3, 3));
    assert_eq!(sys.thread("t2").unwrap().var("y1"), Some(1529321783));
    assert_eq!(sys.thread("t3").unwrap().var("z1"), Some(1525503287));
}

#[test]
fn event_driven_instrumented_matches_seed_engine() {
    let sys = run(OrganizationKind::EventDriven, true);
    for (name, want) in [
        ("bank0.writes", 985),
        ("bank0.reads", 1970),
        ("bank0.grant.c0", 985),
        ("bank0.grant.c1", 985),
        ("bank0.grant.p0", 985),
        ("bank0.deplist_hit", 0),
    ] {
        assert_eq!(sys.metrics.counter(name), want, "{name}");
    }
    let pooled = sys.metrics.pooled_stats().expect("samples recorded");
    assert_eq!((pooled.count, pooled.min, pooled.max), (1970, 2, 3));
}

#[test]
fn instrumented_and_uninstrumented_latency_paths_agree() {
    for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        let a = run(kind, false);
        let b = run(kind, true);
        let pa = a.metrics.pooled_stats().expect("uninstrumented samples");
        let pb = b.metrics.pooled_stats().expect("instrumented samples");
        assert_eq!(pa, pb, "{kind}: the two recording paths must agree");
    }
}

// Forwarding-app pins: per-thread counters, sent frames, lost updates, trace
// bytes and registry JSON, paced and unpaced, with a sink attached from the
// start and mid-run.

const FORWARDING_THREADS: [&str; 7] = ["rx", "lkp", "fwd", "e0", "e1", "e2", "e3"];

fn forwarding(kind: OrganizationKind, opt: OptLevel) -> CompiledSystem {
    let src = memsync_netapp::forwarding::app_source(4);
    let mut c = Compiler::new(&src);
    c.organization(kind).opt(opt).skip_validation();
    c.compile().expect("forwarding app compiles")
}

/// FNV-1a over `lines` joined by newlines.
fn hash_lines(lines: impl Iterator<Item = String>) -> u64 {
    name_seed(&lines.collect::<Vec<_>>().join("\n"))
}

/// FNV-1a over the trace's JSONL.
fn trace_hash(events: &[TraceEvent]) -> u64 {
    hash_lines(events.iter().map(TraceEvent::to_jsonl))
}

/// `(iterations, cycles, blocked_cycles, sent)` per named thread.
fn thread_counters(sys: &System, threads: &[&str]) -> Vec<(u64, u64, u64, usize)> {
    threads
        .iter()
        .map(|name| {
            let t = sys.thread(name).expect("forwarding thread");
            (t.iterations, t.cycles, t.blocked_cycles, t.sent.len())
        })
        .collect()
}

/// Bernoulli arrivals (seed 5, p = 0.1) on `rx` for 20,000 cycles. Nothing
/// paces them, so the run reaches every stall path and loses updates.
fn forwarding_bernoulli(kind: OrganizationKind, sink: Option<&SharedSink<VecSink>>) -> System {
    let mut sys = System::new(&forwarding(kind, OptLevel::O0));
    if let Some(sink) = sink {
        sys.set_sink(Box::new(sink.clone()));
    }
    sys.attach_source("rx", Box::new(BernoulliSource::new(5, 0.1)));
    for _ in 0..20_000 {
        sys.step();
    }
    sys
}

/// 256 seeded descriptors submitted paced; with `late_sink`, a sink is
/// attached after descriptor 128. Returns the system and the FNV-1a hash of
/// every egress thread's frames.
fn forwarding_paced(
    kind: OrganizationKind,
    opt: OptLevel,
    late_sink: Option<&SharedSink<VecSink>>,
) -> (System, u64) {
    let mut sys = System::new(&forwarding(kind, opt));
    let egress: Vec<_> = (0..4)
        .map(|i| sys.thread_id(&format!("e{i}")).expect("egress thread"))
        .collect();
    let descs = Workload::generate(0x5EED, 256, 64).descriptors();
    let (first, second) = descs.split_at(128);
    assert!(sys.submit_paced("rx", &egress, first, 0, 2_000));
    if let Some(sink) = late_sink {
        sys.set_sink(Box::new(sink.clone()));
    }
    assert!(sys.submit_paced("rx", &egress, second, 128, 2_000));
    let frames = egress
        .iter()
        .map(|&id| format!("{:?}", sys.drain_sent(id)))
        .collect::<Vec<_>>();
    (sys, hash_lines(frames.into_iter()))
}

/// Per-organization pins, in `FORWARDING_THREADS` order.
struct ForwardingPins {
    kind: OrganizationKind,
    bernoulli_lost: u64,
    bernoulli_threads: [(u64, u64, u64, usize); 7],
    bernoulli_events: usize,
    bernoulli_trace: u64,
    bernoulli_registry: u64,
    paced_cycles: u64,
    paced_threads: [(u64, u64, u64, usize); 7],
    late_events: usize,
    late_trace: u64,
    late_registry: u64,
}

/// The four egress threads send the same frames under both organizations.
const PACED_FRAMES: u64 = 0x1cb6_8378_a385_5b19;

const FORWARDING_PINS: [ForwardingPins; 2] = [
    ForwardingPins {
        kind: OrganizationKind::Arbitrated,
        bernoulli_lost: 1145,
        bernoulli_threads: [
            (2071, 20000, 11714, 0),
            (1033, 20000, 14835, 0),
            (1031, 20000, 12777, 0),
            (1031, 20000, 17938, 1031),
            (1031, 20000, 17938, 1031),
            (963, 20000, 18074, 963),
            (935, 20000, 18130, 935),
        ],
        bernoulli_events: 117_196,
        bernoulli_trace: 0x3b84_62b4_679e_4ba2,
        bernoulli_registry: 0x4127_b4cd_e8e4_aa3c,
        paced_cycles: 8961,
        paced_threads: [
            (256, 8961, 7937, 0),
            (256, 8961, 7681, 0),
            (256, 8961, 7169, 0),
            (256, 8961, 8449, 0),
            (256, 8961, 8449, 0),
            (256, 8961, 8449, 0),
            (256, 8961, 8449, 0),
        ],
        late_events: 25_600,
        late_trace: 0x298d_07a1_c6f1_d1fe,
        late_registry: 0xd573_7c5e_1973_c9ee,
    },
    ForwardingPins {
        kind: OrganizationKind::EventDriven,
        bernoulli_lost: 0,
        bernoulli_threads: [
            (870, 20000, 16518, 0),
            (869, 20000, 15651, 0),
            (869, 20000, 13917, 0),
            (869, 20000, 18262, 869),
            (869, 20000, 18262, 869),
            (869, 20000, 18262, 869),
            (869, 20000, 18262, 869),
        ],
        bernoulli_events: 130_762,
        bernoulli_trace: 0x532b_1f0f_2c1a_be16,
        bernoulli_registry: 0xfc25_754a_d943_91cc,
        paced_cycles: 7425,
        paced_threads: [
            (256, 7425, 6401, 0),
            (256, 7425, 6145, 0),
            (256, 7425, 5633, 0),
            (256, 7425, 6913, 0),
            (256, 7425, 6913, 0),
            (256, 7425, 6913, 0),
            (256, 7425, 6913, 0),
        ],
        late_events: 21_376,
        late_trace: 0x7e35_67f1_8239_b491,
        late_registry: 0xe71e_c594_6575_01f0,
    },
];

#[test]
fn forwarding_bernoulli_counters_match_the_polling_engine() {
    for pin in &FORWARDING_PINS {
        let sys = forwarding_bernoulli(pin.kind, None);
        assert_eq!(sys.cycle(), 20_000);
        assert_eq!(sys.lost_updates(), pin.bernoulli_lost, "{}", pin.kind);
        assert_eq!(
            thread_counters(&sys, &FORWARDING_THREADS),
            pin.bernoulli_threads,
            "{}",
            pin.kind
        );
    }
}

#[test]
fn forwarding_bernoulli_trace_matches_the_polling_engine() {
    for pin in &FORWARDING_PINS {
        let sink = SharedSink::new(VecSink::new());
        let sys = forwarding_bernoulli(pin.kind, Some(&sink));
        // Tracing observes the simulation without changing it.
        assert_eq!(
            thread_counters(&sys, &FORWARDING_THREADS),
            pin.bernoulli_threads,
            "{}",
            pin.kind
        );
        let (events, trace) = sink.with(|s| (s.events.len(), trace_hash(&s.events)));
        assert_eq!(events, pin.bernoulli_events, "{}", pin.kind);
        assert_eq!(trace, pin.bernoulli_trace, "{}", pin.kind);
        let registry = name_seed(&sys.metrics.to_json().render());
        assert_eq!(registry, pin.bernoulli_registry, "{}", pin.kind);
    }
}

#[test]
fn forwarding_paced_run_matches_the_polling_engine() {
    for pin in &FORWARDING_PINS {
        let (sys, frames) = forwarding_paced(pin.kind, OptLevel::O0, None);
        // 35 cycles per packet arbitrated and 29 event-driven, plus one.
        assert_eq!(sys.cycle(), pin.paced_cycles, "{}", pin.kind);
        assert_eq!(sys.lost_updates(), 0, "{}", pin.kind);
        assert_eq!(
            thread_counters(&sys, &FORWARDING_THREADS),
            pin.paced_threads,
            "{}",
            pin.kind
        );
        assert_eq!(frames, PACED_FRAMES, "{}", pin.kind);
    }
}

/// The O1 middle-end shrinks the thread FSMs but not the paced run: the
/// same cycle count (8,961 arbitrated, 7,425 event-driven) and the same
/// frames as O0.
#[test]
fn forwarding_paced_run_at_o1_takes_the_o0_cycles() {
    for pin in &FORWARDING_PINS {
        let (sys, frames) = forwarding_paced(pin.kind, OptLevel::O1, None);
        assert_eq!(sys.cycle(), pin.paced_cycles, "{} at O1", pin.kind);
        assert_eq!(sys.lost_updates(), 0, "{} at O1", pin.kind);
        assert_eq!(frames, PACED_FRAMES, "{} at O1", pin.kind);
    }
}

#[test]
fn forwarding_paced_trace_with_a_late_sink_matches_the_polling_engine() {
    for pin in &FORWARDING_PINS {
        let sink = SharedSink::new(VecSink::new());
        let (sys, frames) = forwarding_paced(pin.kind, OptLevel::O0, Some(&sink));
        assert_eq!(sys.cycle(), pin.paced_cycles, "{}", pin.kind);
        assert_eq!(frames, PACED_FRAMES, "{}", pin.kind);
        let (events, trace) = sink.with(|s| (s.events.len(), trace_hash(&s.events)));
        assert_eq!(events, pin.late_events, "{}", pin.kind);
        assert_eq!(trace, pin.late_trace, "{}", pin.kind);
        let registry = name_seed(&sys.metrics.to_json().render());
        assert_eq!(registry, pin.late_registry, "{}", pin.kind);
    }
}

/// A thread that produces before it consumes, behind a third producer's
/// window. Under the event-driven organization, `a`'s window serves `t`'s
/// read while `t` still holds its write of `tv` (see the slot comment in
/// `EventDrivenModel::step_traced_into`). The delivered grant completes
/// that write without writing it; `c`'s slot is then served at the address
/// it waits on, not `bv`'s; and `t`'s window waits for a write that never
/// comes, so every thread stalls for good. The held write must leave its
/// slot with the stray grant: left until its own window, it would be
/// accepted there and the program would run on.
const STRAY_SERVE: &str = r#"
    thread a () {
        message m;
        int av;
        recv m;
        #consumer{ma,[t,x]}
        av = m + 1;
    }
    thread b () {
        message n;
        int bv;
        recv n;
        #consumer{mb,[c,q]}
        bv = n + 2;
    }
    thread t () {
        int x, tv, y;
        #consumer{mt,[c,z]}
        tv = y + 3;
        #producer{ma,[a,av]}
        x = av;
        y = x;
    }
    thread c () {
        int z, q;
        #producer{mt,[t,tv]}
        z = tv;
        #producer{mb,[b,bv]}
        q = bv;
    }
"#;

#[test]
fn event_driven_stray_serve_matches_the_polling_engine() {
    let mut c = Compiler::new(STRAY_SERVE);
    c.organization(OrganizationKind::EventDriven)
        .skip_validation();
    let compiled = c.compile().expect("stray-serve program compiles");
    for traced in [false, true] {
        let sink = SharedSink::new(VecSink::new());
        let mut sys = System::new(&compiled);
        if traced {
            sys.set_sink(Box::new(sink.clone()));
        }
        sys.attach_source("a", Box::new(BernoulliSource::new(11, 0.05)));
        sys.attach_source("b", Box::new(PeriodicSource::new(8, 1)));
        for _ in 0..2_000 {
            sys.step();
        }
        assert_eq!(
            thread_counters(&sys, &["a", "b", "t", "c"]),
            [
                (1, 2000, 1999, 0),
                (1, 2000, 1999, 0),
                (0, 2000, 1999, 0),
                (0, 2000, 1999, 0),
            ],
            "traced: {traced}"
        );
        assert_eq!(sys.lost_updates(), 0);
        if traced {
            let (events, trace) = sink.with(|s| (s.events.len(), trace_hash(&s.events)));
            assert_eq!((events, trace), (8313, 0x2aa3_9b32_c509_645a));
        }
    }
}
