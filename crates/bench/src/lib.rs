//! # memsync-bench — experiment harness
//!
//! One function per table/figure of the paper (see DESIGN.md §4); the
//! binaries in `src/bin/` print the same rows the paper reports, and the
//! integration tests assert the shape criteria. Everything here is driven
//! by the same generators/models the library ships — nothing is hard-coded
//! except the paper's published anchors.

#![warn(missing_docs)]

pub mod sweep;

use memsync_core::{arbitrated, event_driven, spec::WrapperSpec, OptLevel, OrganizationKind};
use memsync_fpga::calibration::PAPER_ANCHORS;
use memsync_fpga::report::{implement, ImplReport};
use memsync_sim::arb_model::{ArbInputs, ArbitratedModel};
use memsync_sim::event_model::{EventDrivenModel, EvtInputs};
use memsync_sim::metrics::LatencyStats;
use memsync_trace::{JsonlSink, MetricsRegistry, NullSink, Pcg32, RecordingSink, TraceSink};

/// The paper's three scenarios: one producer with 2, 4, 8 consumers.
pub const SCENARIOS: [usize; 3] = [2, 4, 8];

/// Looks up the value following `flag` in argv (`--trace out.jsonl`).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the `--opt {0,1}` flag (default [`OptLevel::O0`]).
///
/// # Panics
///
/// Panics on an unparseable level, mirroring the other flag helpers.
pub fn opt_arg(args: &[String]) -> OptLevel {
    arg_value(args, "--opt")
        .map(|v| {
            v.parse::<OptLevel>()
                .unwrap_or_else(|e| panic!("--opt: {e}"))
        })
        .unwrap_or(OptLevel::O0)
}

/// One row of Table 1 / Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaRow {
    /// Producer/consumer label, e.g. "1/4".
    pub pc: String,
    /// LUT count.
    pub luts: u32,
    /// Flip-flop count.
    pub ffs: u32,
    /// Occupied slices.
    pub slices: u32,
    /// Achieved Fmax in MHz.
    pub fmax_mhz: f64,
}

/// Generates and implements the wrapper for one scenario.
///
/// # Panics
///
/// Panics if generation fails (the scenarios are within spec limits).
pub fn implement_wrapper(kind: OrganizationKind, consumers: usize) -> ImplReport {
    let spec = WrapperSpec::single_producer(consumers);
    let module = match kind {
        OrganizationKind::Arbitrated => arbitrated::generate(&spec),
        OrganizationKind::EventDriven => event_driven::generate(&spec),
    }
    .expect("paper scenarios are valid specs");
    implement(&module).expect("wrappers are loop-free")
}

/// Regenerates Table 1 (arbitrated) or Table 2 (event-driven).
pub fn table_area(kind: OrganizationKind) -> Vec<AreaRow> {
    SCENARIOS
        .iter()
        .map(|&n| {
            let r = implement_wrapper(kind, n);
            AreaRow {
                pc: format!("1/{n}"),
                luts: r.luts,
                ffs: r.ffs,
                slices: r.slices,
                fmax_mhz: r.timing.fmax_mhz,
            }
        })
        .collect()
}

/// The published Fmax anchors for a given organization (MHz, for 2/4/8).
pub fn fmax_anchors(kind: OrganizationKind) -> [f64; 3] {
    match kind {
        OrganizationKind::Arbitrated => PAPER_ANCHORS.arbitrated_fmax_mhz,
        OrganizationKind::EventDriven => PAPER_ANCHORS.event_driven_fmax_mhz,
    }
}

/// Result of the overhead experiment (E5).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadResult {
    /// Egress consumer count of the application build.
    pub egress: usize,
    /// Core (thread logic) slices.
    pub core_slices: u32,
    /// Synchronization wrapper slices.
    pub sync_slices: u32,
    /// Total slices.
    pub total_slices: u32,
    /// sync / core.
    pub overhead_fraction: f64,
    /// System Fmax in MHz.
    pub fmax_mhz: f64,
}

/// Builds the forwarding application and measures the synchronization
/// overhead relative to the core (paper band: 5–20 %).
///
/// # Panics
///
/// Panics if the generated application fails to compile (a harness bug).
pub fn overhead_experiment(kind: OrganizationKind, egress: usize) -> OverheadResult {
    overhead_experiment_at(kind, egress, OptLevel::O0)
}

/// [`overhead_experiment`] with an explicit middle-end optimization level.
///
/// # Panics
///
/// Panics if the generated application fails to compile (a harness bug).
pub fn overhead_experiment_at(
    kind: OrganizationKind,
    egress: usize,
    opt: OptLevel,
) -> OverheadResult {
    let src = memsync_netapp::forwarding::app_source(egress);
    let mut compiler = memsync_core::Compiler::new(&src);
    compiler.organization(kind).opt(opt).skip_validation();
    let system = compiler.compile().expect("generated app compiles");
    let report = system.implement().expect("implementable");
    OverheadResult {
        egress,
        core_slices: report.core_slices(),
        sync_slices: report.sync_slices(),
        total_slices: report.total_slices(),
        overhead_fraction: report.overhead_fraction(),
        fmax_mhz: report.fmax_mhz(),
    }
}

/// Result of the latency experiment (E6) for one organization/scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyResult {
    /// Consumer count.
    pub consumers: usize,
    /// Pooled statistics over all consumers.
    pub pooled: LatencyStats,
    /// Per-consumer statistics.
    pub per_consumer: Vec<LatencyStats>,
    /// Whether every per-consumer stream was exact (zero variance).
    pub all_deterministic: bool,
}

/// Drives the behavioral wrapper models directly with a Bernoulli-paced
/// producer and `consumers` consumers whose read requests arrive with a
/// small random jitter after each write (consumer threads reach their read
/// states at slightly different times), measuring write-to-data latency.
pub fn latency_experiment(
    kind: OrganizationKind,
    consumers: usize,
    writes: usize,
    seed: u64,
) -> LatencyResult {
    let mut registry = MetricsRegistry::new();
    latency_experiment_traced(kind, consumers, writes, seed, &mut NullSink, &mut registry)
}

/// [`latency_experiment`] with full observability: every grant, stall, and
/// delivery the wrapper model emits goes to `sink`, and `registry`
/// accumulates the counters, grant-wait histograms, and latency streams
/// (use a fresh registry per run — latency streams are keyed by address).
pub fn latency_experiment_traced(
    kind: OrganizationKind,
    consumers: usize,
    writes: usize,
    seed: u64,
    sink: &mut dyn TraceSink,
    registry: &mut MetricsRegistry,
) -> LatencyResult {
    const ADDR: u32 = 4;
    let mut rng = Pcg32::seed_from_u64(seed);
    let max_cycles = (writes as u64 + 16) * 300;

    match kind {
        OrganizationKind::Arbitrated => {
            let mut m = ArbitratedModel::new(1, consumers, 4);
            m.configure(ADDR, consumers as u8).expect("fits the list");
            // want_at[i]: cycle from which consumer i holds its read.
            let mut want_at: Vec<Option<u64>> = vec![None; consumers];
            let mut done_writes = 0usize;
            let mut served = 0usize;
            let mut cycle: u64 = 0;
            while served < writes * consumers && cycle < max_cycles {
                let round_complete = served == done_writes * consumers;
                let fire = done_writes < writes && round_complete && rng.gen_bool(0.25);
                let inp = ArbInputs {
                    c_req: want_at
                        .iter()
                        .map(|w| match w {
                            Some(at) if *at <= cycle => Some(ADDR),
                            _ => None,
                        })
                        .collect(),
                    d_req: vec![if fire {
                        Some((ADDR, done_writes as u32, consumers as u8))
                    } else {
                        None
                    }],
                    a_req: None,
                };
                let out = {
                    let mut tee = RecordingSink {
                        sink: &mut *sink,
                        registry: &mut *registry,
                    };
                    m.step_traced(&inp, 0, &mut tee)
                };
                registry.observe_gauge("bank0.deplist_occupancy", m.deplist().occupancy() as u64);
                if out.d_grant[0] {
                    done_writes += 1;
                    for w in want_at.iter_mut() {
                        // Arrival jitter: each consumer reaches its read
                        // state 0..4 cycles after the write lands.
                        *w = Some(cycle + 1 + rng.gen_range(0..4));
                    }
                }
                for (i, g) in out.c_grant.iter().enumerate() {
                    if *g {
                        want_at[i] = None;
                    }
                }
                if out.c_data.is_some() {
                    served += 1;
                }
                cycle += 1;
            }
        }
        OrganizationKind::EventDriven => {
            let schedule =
                memsync_core::modulo::ModuloSchedule::new(vec![(0..consumers).collect()])
                    .expect("valid schedule");
            let mut m = EventDrivenModel::new(1, consumers, schedule);
            let mut done_writes = 0usize;
            let mut served = 0usize;
            let mut cycle: u64 = 0;
            while served < writes * consumers && cycle < max_cycles {
                let round_complete = served == done_writes * consumers;
                let fire = done_writes < writes && round_complete && rng.gen_bool(0.25);
                let inp = EvtInputs {
                    p_req: vec![if fire {
                        Some((ADDR, done_writes as u32))
                    } else {
                        None
                    }],
                    c_addr: vec![Some(ADDR); consumers],
                    a_req: None,
                };
                let out = {
                    let mut tee = RecordingSink {
                        sink: &mut *sink,
                        registry: &mut *registry,
                    };
                    m.step_traced(&inp, 0, &mut tee)
                };
                if out.p_grant[0] {
                    done_writes += 1;
                }
                if out.c_data.is_some() {
                    served += 1;
                }
                cycle += 1;
            }
        }
    }

    let per_consumer: Vec<LatencyStats> = (0..consumers)
        .filter_map(|c| registry.stats(ADDR, c))
        .collect();
    let pooled = registry.pooled_stats().expect("samples recorded");
    let all_deterministic = per_consumer.iter().all(LatencyStats::is_deterministic);
    LatencyResult {
        consumers,
        pooled,
        per_consumer,
        all_deterministic,
    }
}

/// Builds the uninstrumented reference workload the zero-allocation
/// test steps: the egress-4 forwarding application compiled (at
/// [`OptLevel::O0`]) for the arbitrated organization, under Bernoulli rx
/// traffic — the same full-system configuration the overhead experiment
/// simulates, so hot-path regressions in the thread executor, wrapper
/// models, and engine all show up.
///
/// # Panics
///
/// Panics if the generated application fails to compile (a harness bug).
pub fn reference_system() -> memsync_sim::System {
    let src = memsync_netapp::forwarding::app_source(4);
    let mut compiler = memsync_core::Compiler::new(&src);
    compiler
        .organization(OrganizationKind::Arbitrated)
        .skip_validation();
    let compiled = compiler.compile().expect("forwarding app compiles");
    let mut sys = memsync_sim::System::new(&compiled);
    sys.attach_source(
        "rx",
        Box::new(memsync_sim::traffic::BernoulliSource::new(7, 0.1)),
    );
    sys
}

/// One cell of the middle-end comparison (the EXPERIMENTS.md "Optimizing
/// middle-end" table): the forwarding application compiled at one
/// [`OptLevel`] under the arbitrated organization, with its aggregate FSM
/// shape and simulated per-packet cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MiddleEndRow {
    /// Egress consumer count of the application build.
    pub egress: usize,
    /// Middle-end level the build ran at.
    pub level: OptLevel,
    /// Total FSM states across all threads.
    pub fsm_states: usize,
    /// Total memory-access states across all threads.
    pub memory_ops: usize,
    /// Total guarded (synchronization) memory states across all threads.
    pub guarded_ops: usize,
    /// Summed per-thread shared-datapath FU count (peak ALU per state).
    pub alu_units: usize,
    /// Memory reads the middle-end replaced with register reuse.
    pub reads_forwarded: usize,
    /// Simulated cycles per packet over a paced 64-packet batch.
    pub cycles_per_packet: f64,
    /// Per-thread middle-end reports, in thread order.
    pub pass_reports: Vec<memsync_core::PassReport>,
}

/// Compiles and simulates the forwarding application for one middle-end
/// comparison cell.
///
/// # Panics
///
/// Panics if the generated application fails to compile or the paced
/// simulation stalls (harness bugs).
pub fn middle_end_row(egress: usize, level: OptLevel) -> MiddleEndRow {
    let src = memsync_netapp::forwarding::app_source(egress);
    let mut compiler = memsync_core::Compiler::new(&src);
    compiler
        .organization(OrganizationKind::Arbitrated)
        .opt(level)
        .skip_validation();
    let compiled = compiler.compile().expect("forwarding app compiles");
    let fsm_states = compiled.fsms.iter().map(|f| f.states.len()).sum();
    let memory_ops = compiled
        .fsms
        .iter()
        .map(memsync_synth::fsm::Fsm::memory_state_count)
        .sum();
    let guarded_ops = compiled
        .fsms
        .iter()
        .map(memsync_synth::fsm::Fsm::guarded_state_count)
        .sum();
    let alu_units = compiled
        .fsms
        .iter()
        .map(|f| memsync_synth::binding::bind(f).alu_units)
        .sum();
    let reads_forwarded = compiled
        .pass_reports
        .iter()
        .map(|r| r.reads_forwarded)
        .sum();

    const PACKETS: usize = 64;
    let mut sys = memsync_sim::System::new(&compiled);
    let ids: Vec<_> = (0..egress)
        .map(|i| sys.thread_id(&format!("e{i}")).expect("egress thread"))
        .collect();
    let descs: Vec<i64> = memsync_netapp::Workload::generate(0xD15C, PACKETS, 64)
        .packets
        .iter()
        .map(|p| i64::from(p.descriptor()))
        .collect();
    assert!(
        sys.submit_paced("rx", &ids, &descs, 0, 2_000),
        "paced simulation stalled at {level}"
    );
    let cycles_per_packet = sys.cycle() as f64 / PACKETS as f64;

    MiddleEndRow {
        egress,
        level,
        fsm_states,
        memory_ops,
        guarded_ops,
        alu_units,
        reads_forwarded,
        cycles_per_packet,
        pass_reports: compiled.pass_reports,
    }
}

/// The (egress × level) grid of the middle-end comparison: forwarding_2
/// and forwarding_4 shapes at both levels.
pub fn middle_end_grid() -> Vec<(usize, OptLevel)> {
    [2usize, 4]
        .iter()
        .flat_map(|&e| [OptLevel::O0, OptLevel::O1].iter().map(move |&l| (e, l)))
        .collect()
}

/// One (organization × consumer-count) cell of the latency sweep, run as
/// an independent unit of work so [`sweep::parallel_map`] can fan the
/// cells across threads.
#[derive(Debug)]
pub struct LatencyRun {
    /// Organization simulated.
    pub kind: OrganizationKind,
    /// Consumer count.
    pub consumers: usize,
    /// Experiment result.
    pub result: LatencyResult,
    /// The run's private metrics registry.
    pub registry: MetricsRegistry,
    /// When trace capture was requested: the run's JSONL bytes (meta
    /// header + every cycle event) and line count, buffered so the caller
    /// can concatenate runs in deterministic config order.
    pub trace: Option<(Vec<u8>, u64)>,
}

/// Runs one latency cell with a private registry and (optionally) a
/// private in-memory trace buffer. Buffering the JSONL bytes per run —
/// instead of streaming into a shared file sink — is what lets the sweep
/// run cells on worker threads while keeping the merged trace file
/// byte-identical to a serial run.
pub fn latency_run(
    kind: OrganizationKind,
    consumers: usize,
    writes: usize,
    seed: u64,
    capture_trace: bool,
) -> LatencyRun {
    let mut registry = MetricsRegistry::new();
    let (result, trace) = if capture_trace {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        sink.write_meta(&format!(
            "{{\"meta\":\"run\",\"org\":\"{kind}\",\"consumers\":{consumers}}}"
        ));
        let result =
            latency_experiment_traced(kind, consumers, writes, seed, &mut sink, &mut registry);
        let lines = sink.lines;
        (result, Some((sink.into_inner(), lines)))
    } else {
        let result =
            latency_experiment_traced(kind, consumers, writes, seed, &mut NullSink, &mut registry);
        (result, None)
    };
    LatencyRun {
        kind,
        consumers,
        result,
        registry,
        trace,
    }
}

/// The (organization × consumer-count) grid both latency bins sweep.
pub fn latency_grid() -> Vec<(OrganizationKind, usize)> {
    [OrganizationKind::Arbitrated, OrganizationKind::EventDriven]
        .iter()
        .flat_map(|&k| SCENARIOS.iter().map(move |&n| (k, n)))
        .collect()
}

/// Scalability ablation (E9): the netlist delta of adding one consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Organization measured.
    pub organization: String,
    /// LUT delta going from n to n+1 consumers.
    pub lut_delta: i64,
    /// FF delta.
    pub ff_delta: i64,
    /// Whether the sequential state changed — the paper's criterion for
    /// "no changes need to be made to the thread related state machine(s)".
    pub state_changed: bool,
}

/// Measures what adding a consumer costs for both organizations.
pub fn ablation_scalability(base_consumers: usize) -> Vec<AblationResult> {
    [OrganizationKind::Arbitrated, OrganizationKind::EventDriven]
        .iter()
        .map(|&kind| {
            let a = implement_wrapper(kind, base_consumers);
            let b = implement_wrapper(kind, base_consumers + 1);
            AblationResult {
                organization: kind.to_string(),
                lut_delta: i64::from(b.luts) - i64::from(a.luts),
                ff_delta: i64::from(b.ffs) - i64::from(a.ffs),
                state_changed: a.ffs != b.ffs,
            }
        })
        .collect()
}

/// Renders an area table as markdown.
pub fn render_area_table(kind: OrganizationKind, rows: &[AreaRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {kind} memory organization\n\n"));
    out.push_str("| P/C | LUT | FF | Slices | Fmax (MHz) | paper Fmax (MHz) |\n");
    out.push_str("|-----|-----|----|--------|------------|------------------|\n");
    let anchors = fmax_anchors(kind);
    for (row, anchor) in rows.iter().zip(anchors.iter()) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {:.0} |\n",
            row.pc, row.luts, row.ffs, row.slices, row.fmax_mhz, anchor
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table_area(OrganizationKind::Arbitrated);
        assert_eq!(rows.len(), 3);
        // FF constant at 66.
        assert!(rows.iter().all(|r| r.ffs == PAPER_ANCHORS.arbitrated_ffs));
        // LUTs and slices strictly increase.
        assert!(rows[0].luts < rows[1].luts && rows[1].luts < rows[2].luts);
        assert!(rows[0].slices < rows[1].slices && rows[1].slices < rows[2].slices);
        // Fmax strictly decreases.
        assert!(rows[0].fmax_mhz > rows[1].fmax_mhz && rows[1].fmax_mhz > rows[2].fmax_mhz);
    }

    #[test]
    fn table2_shape_matches_paper() {
        let rows = table_area(OrganizationKind::EventDriven);
        assert!(rows[0].luts < rows[1].luts && rows[1].luts < rows[2].luts);
        assert!(rows[0].fmax_mhz > rows[1].fmax_mhz && rows[1].fmax_mhz >= rows[2].fmax_mhz);
    }

    #[test]
    fn event_driven_beats_arbitrated_fmax_everywhere() {
        for &n in &SCENARIOS {
            let a = implement_wrapper(OrganizationKind::Arbitrated, n);
            let e = implement_wrapper(OrganizationKind::EventDriven, n);
            assert!(e.timing.fmax_mhz > a.timing.fmax_mhz, "n={n}");
        }
    }

    #[test]
    fn fmax_within_twelve_percent_of_anchors() {
        for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
            let anchors = fmax_anchors(kind);
            for (i, &n) in SCENARIOS.iter().enumerate() {
                let f = implement_wrapper(kind, n).timing.fmax_mhz;
                let dev = (f - anchors[i]).abs() / anchors[i];
                assert!(
                    dev < 0.12,
                    "{kind} n={n}: {f:.1} vs {} ({:.1}%)",
                    anchors[i],
                    dev * 100.0
                );
            }
        }
    }

    #[test]
    fn overhead_in_paper_band() {
        for &n in &SCENARIOS {
            let r = overhead_experiment(OrganizationKind::Arbitrated, n);
            let (lo, hi) = PAPER_ANCHORS.overhead_band;
            assert!(
                r.overhead_fraction >= lo && r.overhead_fraction <= hi,
                "egress={n}: {:.3} outside [{lo}, {hi}]",
                r.overhead_fraction
            );
        }
    }

    #[test]
    fn latency_event_driven_is_deterministic() {
        for &n in &SCENARIOS {
            let r = latency_experiment(OrganizationKind::EventDriven, n, 50, 42);
            assert!(r.all_deterministic, "n={n}: {r:?}");
            assert_eq!(r.per_consumer.len(), n);
        }
    }

    #[test]
    fn latency_arbitrated_varies_and_grows_with_consumers() {
        let r2 = latency_experiment(OrganizationKind::Arbitrated, 2, 60, 7);
        let r8 = latency_experiment(OrganizationKind::Arbitrated, 8, 60, 7);
        assert!(
            r2.pooled.max > r2.pooled.min,
            "spread expected: {:?}",
            r2.pooled
        );
        assert!(
            r8.pooled.max > r2.pooled.max,
            "worst case grows with consumers: {:?} vs {:?}",
            r8.pooled,
            r2.pooled
        );
    }

    #[test]
    fn ablation_arbitrated_keeps_state_constant() {
        let results = ablation_scalability(4);
        let arb = &results[0];
        assert_eq!(arb.organization, "arbitrated");
        assert!(!arb.state_changed, "adding a consumer must not change FFs");
        assert!(arb.lut_delta > 0);
    }

    #[test]
    fn middle_end_o1_shrinks_forwarding_4() {
        let o0 = middle_end_row(4, OptLevel::O0);
        let o1 = middle_end_row(4, OptLevel::O1);
        assert!(
            o1.fsm_states < o0.fsm_states,
            "O1 states {} !< O0 states {}",
            o1.fsm_states,
            o0.fsm_states
        );
        assert!(
            o1.guarded_ops < o0.guarded_ops,
            "O1 guarded {} !< O0 guarded {}",
            o1.guarded_ops,
            o0.guarded_ops
        );
        assert!(
            o1.cycles_per_packet <= o0.cycles_per_packet,
            "O1 {} cycles/pkt !<= O0 {}",
            o1.cycles_per_packet,
            o0.cycles_per_packet
        );
    }

    #[test]
    fn render_table_includes_anchors() {
        let rows = table_area(OrganizationKind::Arbitrated);
        let md = render_area_table(OrganizationKind::Arbitrated, &rows);
        assert!(md.contains("| 1/4 |"));
        assert!(md.contains("158"));
    }
}
