//! Static timing analysis over the mapped netlist.
//!
//! Computes the worst register-to-register (or port-to-port) path using the
//! calibrated [`DelayModel`]: every primitive contributes its mapped LUT
//! levels, carry chains contribute per-bit delay, and every traversed net
//! contributes a fanout-dependent routing delay — the same decomposition
//! vendor timing reports use. One arrival pass serves both the period
//! ([`analyze_with`]) and the path that sets it ([`critical_path`]).

use crate::calibration::DelayModel;
use crate::cluster::clusters;
use crate::techmap::{gate_tree_levels, mux_levels};
use memsync_rtl::netlist::{Instance, Module, NetId, PortDir, PrimOp};
use std::fmt;

/// Result of timing analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Worst path delay in nanoseconds (including launch and setup).
    pub critical_path_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ns ({:.1} MHz)",
            self.critical_path_ns, self.fmax_mhz
        )
    }
}

/// Timing analysis failure (combinational loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingError {
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timing analysis failed: {}", self.message)
    }
}

impl std::error::Error for TimingError {}

/// Analyzes a module with the default calibrated model.
///
/// # Errors
///
/// Returns [`TimingError`] if the netlist contains a combinational loop.
pub fn analyze(module: &Module) -> Result<TimingReport, TimingError> {
    analyze_with(module, DelayModel::default())
}

/// Analyzes a module with an explicit delay model.
///
/// # Errors
///
/// Returns [`TimingError`] if the netlist contains a combinational loop.
pub fn analyze_with(module: &Module, model: DelayModel) -> Result<TimingReport, TimingError> {
    Ok(Timing::of(module, model)?.report)
}

/// Like [`analyze_with`], but also returns the instance names along the
/// critical path (endpoint last), for debugging and reports. The endpoint
/// is the one whose setup check sets the period.
///
/// # Errors
///
/// Returns [`TimingError`] if the netlist contains a combinational loop.
pub fn critical_path(
    module: &Module,
    model: DelayModel,
) -> Result<(TimingReport, Vec<String>), TimingError> {
    let timing = Timing::of(module, model)?;
    let drivers = module.drivers();
    let mut path = Vec::new();
    let mut cur = timing.worst;
    while let Some(n) = cur {
        let at = timing.arrival[n.0];
        let Some(d) = drivers[n.0] else {
            path.push(format!("port net {} @ {at:.2}ns", module.nets[n.0].name));
            break;
        };
        let inst = &module.instances[d];
        path.push(format!(
            "{} ({}) @ {at:.2}ns",
            inst.name,
            inst.op.mnemonic()
        ));
        if matches!(inst.op, PrimOp::Register { .. } | PrimOp::Bram { .. }) {
            break;
        }
        cur = timing.from[n.0];
    }
    path.reverse();
    Ok((timing.report, path))
}

/// The one arrival pass and the setup checks over it.
struct Timing {
    /// Arrival time per net, in nanoseconds.
    arrival: Vec<f64>,
    /// Per net, the input net that set its arrival (`None` where a path
    /// launches).
    from: Vec<Option<NetId>>,
    /// The endpoint net whose setup check sets the period.
    worst: Option<NetId>,
    /// The period that endpoint sets, and its Fmax.
    report: TimingReport,
}

impl Timing {
    fn of(module: &Module, model: DelayModel) -> Result<Self, TimingError> {
        let order = module.comb_order().ok_or_else(|| TimingError {
            message: "combinational loop detected".into(),
        })?;
        let drivers = module.drivers();
        let fanout = module.fanout();
        let clustering = clusters(module);
        let route = |net: NetId| -> f64 {
            model.t_net_base + model.t_net_fanout * f64::from(1 + fanout[net.0]).log2()
        };

        // Input ports launch at t=0; register and BRAM outputs launch at
        // clock-to-out and depend on nothing, so they are set before the
        // pass (the combinational order does not place them ahead of their
        // readers).
        let mut arrival = vec![0.0f64; module.nets.len()];
        let mut from: Vec<Option<NetId>> = vec![None; module.nets.len()];
        for inst in &module.instances {
            let launch = match inst.op {
                PrimOp::Register { .. } => model.t_cko,
                PrimOp::Bram { .. } => model.t_bram_cko,
                _ => continue,
            };
            for &o in &inst.outputs {
                arrival[o.0] = launch;
            }
        }
        for idx in order {
            let inst = &module.instances[idx];
            let (at, pred) = match &inst.op {
                PrimOp::Register { .. } | PrimOp::Bram { .. } => continue,
                PrimOp::Cam {
                    entries, key_width, ..
                } => {
                    // Search side is combinational through the compare
                    // array, the priority chain, and the output select
                    // network.
                    let key = inst.inputs[0];
                    let cmp_levels = 1 + gate_tree_levels(key_width.div_ceil(2));
                    let delay = f64::from(cmp_levels) * model.t_lut
                        + f64::from(*entries) * model.t_cam_prio
                        + f64::from(mux_levels(*entries)) * model.t_lut;
                    // Entry storage is registered, so the search also
                    // launches from the stored keys at t_cko.
                    let at = (arrival[key.0] + route(key) + delay).max(model.t_cko + delay);
                    (at, Some(key))
                }
                _ => {
                    // A member of a packed LUT tree pays one routing hop
                    // per external input, none for nets inside the tree,
                    // and the whole tree's LUT levels are charged at its
                    // root. Outside a tree, wiring is a net alias: no
                    // logic delay and no hop.
                    let cluster = clustering.cluster_of[idx];
                    let (delay, wiring) = match cluster {
                        Some(cid) if clustering.is_root(idx) => {
                            let levels =
                                gate_tree_levels(clustering.clusters[cid].input_count().max(2));
                            let delay = f64::from(levels) * model.t_lut
                                + f64::from(levels.saturating_sub(1)) * model.t_net_base;
                            (delay, false)
                        }
                        Some(_) => (0.0, false),
                        None => match logic_delay(module, inst, model) {
                            Some(delay) => (delay, false),
                            None => (0.0, true),
                        },
                    };
                    let mut max_in: f64 = 0.0;
                    let mut pred = None;
                    for &i in &inst.inputs {
                        let internal = cluster.is_some()
                            && drivers[i.0].is_some_and(|d| clustering.cluster_of[d] == cluster);
                        let hop = if wiring || internal { 0.0 } else { route(i) };
                        if arrival[i.0] + hop >= max_in {
                            max_in = arrival[i.0] + hop;
                            pred = Some(i);
                        }
                    }
                    (max_in + delay, pred)
                }
            };
            for &o in &inst.outputs {
                arrival[o.0] = at;
                from[o.0] = pred;
            }
        }

        // Setup checks at every sequential endpoint and output port; the
        // first endpoint with the largest requirement sets the period.
        let mut worst: Option<(NetId, f64)> = None;
        let mut check = |net: NetId, setup: f64| {
            let need = arrival[net.0] + route(net) + setup;
            if worst.is_none_or(|(_, w)| need > w) {
                worst = Some((net, need));
            }
        };
        for inst in &module.instances {
            let (inputs, setup) = match inst.op {
                PrimOp::Register { .. } => (&inst.inputs[..], model.t_su),
                PrimOp::Bram { .. } => (&inst.inputs[..], model.t_bram_su),
                // Write side is clocked (endpoint); the search key flows
                // through combinationally and is checked wherever the CAM
                // outputs terminate.
                PrimOp::Cam { .. } => (&inst.inputs[1..], model.t_su),
                _ => continue,
            };
            for &i in inputs {
                check(i, setup);
            }
        }
        for p in module.ports_in(PortDir::Output) {
            check(p.net, 0.0);
        }
        // A purely wired module still needs one routing hop.
        let critical = worst
            .map_or(0.0, |(_, need)| need)
            .max(model.t_cko + model.t_su);
        Ok(Timing {
            arrival,
            from,
            worst: worst.map(|(net, _)| net),
            report: TimingReport {
                critical_path_ns: critical,
                fmax_mhz: 1000.0 / critical,
            },
        })
    }
}

/// Logic delay of a combinational instance outside any LUT tree; `None`
/// for the wiring pseudo-ops (constants, slices, concatenations, fixed
/// shifts, lone inverters absorbed into LUT inputs).
fn logic_delay(module: &Module, inst: &Instance, model: DelayModel) -> Option<f64> {
    let width = || f64::from(module.width(inst.inputs[0]));
    Some(match inst.op {
        PrimOp::Const { .. }
        | PrimOp::Not
        | PrimOp::Shl { .. }
        | PrimOp::Shr { .. }
        | PrimOp::Concat
        | PrimOp::Slice { .. } => return None,
        PrimOp::And | PrimOp::Or | PrimOp::Xor => {
            f64::from(gate_tree_levels(inst.inputs.len() as u32)) * model.t_lut
        }
        PrimOp::Mux => {
            let n = (inst.inputs.len() - 1) as u32;
            f64::from(mux_levels(n)) * model.t_lut
        }
        // Wide equality maps onto the dedicated carry chain (MUXCY
        // compare), like the magnitude comparator.
        PrimOp::Add | PrimOp::Sub | PrimOp::Lt | PrimOp::Eq | PrimOp::Ne => {
            model.t_lut + width() * model.t_carry
        }
        // Embedded multiplier: roughly three LUT delays plus carry.
        PrimOp::Mul => 3.0 * model.t_lut + width() * model.t_carry * 0.5,
        PrimOp::ReduceOr | PrimOp::ReduceAnd => {
            f64::from(gate_tree_levels(module.width(inst.inputs[0]))) * model.t_lut
        }
        PrimOp::Register { .. } | PrimOp::Bram { .. } | PrimOp::Cam { .. } => {
            unreachable!("sequential ops handled by caller")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_rtl::builder::ModuleBuilder;

    fn reg_to_reg_through(extra_mux_ways: u32) -> TimingReport {
        let mut b = ModuleBuilder::new("m");
        let d = b.input("d", 8);
        let q1 = b.register(d, 0, "q1");
        let sel = b.input("sel", 3);
        let data: Vec<_> = (0..extra_mux_ways)
            .map(|i| {
                if i == 0 {
                    q1
                } else {
                    b.input(&format!("alt{i}"), 8)
                }
            })
            .collect();
        let y = b.mux(sel, &data, "y");
        let q2 = b.register(y, 0, "q2");
        b.output("q", q2);
        analyze(&b.finish()).unwrap()
    }

    #[test]
    fn wider_mux_slows_the_clock() {
        let f2 = reg_to_reg_through(2).fmax_mhz;
        let f8 = reg_to_reg_through(8).fmax_mhz;
        assert!(f2 > f8, "2-way {f2} should beat 8-way {f8}");
    }

    #[test]
    fn fmax_is_reciprocal_of_period() {
        let r = reg_to_reg_through(4);
        assert!((r.fmax_mhz - 1000.0 / r.critical_path_ns).abs() < 1e-9);
    }

    #[test]
    fn empty_module_reports_ff_limit() {
        let b = ModuleBuilder::new("empty");
        let r = analyze(&b.finish()).unwrap();
        let m = DelayModel::default();
        assert!((r.critical_path_ns - (m.t_cko + m.t_su)).abs() < 1e-9);
    }

    #[test]
    fn combinational_loop_is_an_error() {
        use memsync_rtl::netlist::{Instance, Module, Net, NetId, PrimOp};
        let m = Module {
            name: "loopy".into(),
            ports: vec![],
            nets: vec![
                Net {
                    name: "a".into(),
                    width: 1,
                },
                Net {
                    name: "b".into(),
                    width: 1,
                },
            ],
            instances: vec![
                Instance {
                    name: "g1".into(),
                    op: PrimOp::Not,
                    inputs: vec![NetId(1)],
                    outputs: vec![NetId(0)],
                },
                Instance {
                    name: "g2".into(),
                    op: PrimOp::Not,
                    inputs: vec![NetId(0)],
                    outputs: vec![NetId(1)],
                },
            ],
        };
        assert!(analyze(&m).is_err());
    }

    #[test]
    fn registers_cut_paths() {
        // Two short reg-to-reg stages must beat one long combinational one.
        let staged = {
            let mut b = ModuleBuilder::new("staged");
            let d = b.input("d", 32);
            let q1 = b.register(d, 0, "q1");
            let s1 = b.add(q1, q1, "s1");
            let q2 = b.register(s1, 0, "q2");
            let s2 = b.add(q2, q2, "s2");
            let q3 = b.register(s2, 0, "q3");
            b.output("q", q3);
            analyze(&b.finish()).unwrap()
        };
        let flat = {
            let mut b = ModuleBuilder::new("flat");
            let d = b.input("d", 32);
            let q1 = b.register(d, 0, "q1");
            let s1 = b.add(q1, q1, "s1");
            let s2 = b.add(s1, s1, "s2");
            let q3 = b.register(s2, 0, "q3");
            b.output("q", q3);
            analyze(&b.finish()).unwrap()
        };
        assert!(staged.fmax_mhz > flat.fmax_mhz);
    }

    #[test]
    fn critical_path_ends_where_the_period_is_set() {
        // register -> 1-bit NOT clustered with a 1-bit AND -> register: the
        // NOT's input enters the LUT tree, so it pays a routing hop.
        let mut b = ModuleBuilder::new("m");
        let d = b.input("d", 1);
        let en = b.input("en", 1);
        let q1 = b.register(d, 0, "q1");
        let n = b.not(q1, "n");
        let a = b.and(&[n, en], "a");
        let q2 = b.register(a, 0, "q2");
        b.output("q", q2);
        let m = b.finish();
        let model = DelayModel::VIRTEX2PRO;
        let report = analyze_with(&m, model).unwrap();
        assert!((report.critical_path_ns - 2.844).abs() < 1e-9, "{report}");
        let (same, path) = critical_path(&m, model).unwrap();
        assert_eq!(same, report);
        // The AND arrives at 1.644 ns; with the 0.20 ns hop into q2 and the
        // 1.0 ns setup it sets the 2.844 ns period.
        assert_eq!(path.last().map(String::as_str), Some("and (and) @ 1.64ns"));
        assert_eq!(path.len(), 3, "{path:?}");
    }

    #[test]
    fn cam_search_scales_with_entries() {
        let per = |n: u32| {
            let mut b = ModuleBuilder::new("m");
            let key = b.input("key", 10);
            let wdata = b.input("wdata", 4);
            let widx = b.input("widx", memsync_rtl::netlist::addr_width(n));
            let we = b.input("we", 1);
            let (hit, _, _) = b.cam(n, 10, 4, key, key, wdata, widx, we, "cam");
            let q = b.register_en(wdata, hit, 0, "q");
            b.output("q", q);
            analyze(&b.finish()).unwrap().fmax_mhz
        };
        assert!(per(4) > per(16));
    }
}
