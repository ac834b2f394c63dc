//! The cycle-accurate reference backend: a [`memsync_sim::System`]
//! running the compiled forwarding application under either memory
//! organization.
//!
//! This is exactly what every shard ran before backends were pluggable —
//! behavior-preserving by construction (the golden loopback tests pin
//! it). Injection is paced one descriptor at a time via
//! [`System::submit_paced`]: guarded locations have sampling semantics,
//! so an unpaced burst would overwrite unconsumed values and lose
//! packets. Throughput is bounded by simulation speed; use
//! [`crate::backend::FastBackend`] when serving rate matters and
//! [`crate::backend::DifferentialBackend`] to get both.

use super::{BackendKind, BackendMetrics, ForwardingBackend};
use memsync_core::{OptLevel, OrganizationKind};
use memsync_sim::{System, ThreadId};

/// Upper bound on simulator cycles per descriptor — a stalled pipeline is
/// a shard bug and must surface as a panic (the shard restarts in place;
/// the in-flight job's reply channel drops so the client sees an error,
/// not silence).
const CYCLES_PER_PACKET_BUDGET: u64 = 2_000;

/// Cycle-accurate simulation of the compiled forwarding application.
#[derive(Debug)]
pub struct SimBackend {
    sys: System,
    egress: Vec<ThreadId>,
    /// The organization compiled in, named by the stall panic.
    organization: OrganizationKind,
    /// The last batch's frames, one lane per egress consumer; the
    /// zero-copy view `drain_egress` hands out. Pulled out of the
    /// simulator at submit time (so the pacing base stays 0 and metrics
    /// advance with the submit); each submit refills them.
    lanes: Vec<Vec<u32>>,
    /// The batch's descriptors widened for the simulator's rx queue,
    /// reused across submits.
    values: Vec<i64>,
    descriptors: u64,
    frames: u64,
}

impl SimBackend {
    /// Compiles the forwarding application for `egress` consumers under
    /// `organization` (at [`OptLevel::O0`]) and boots a fresh simulator.
    pub fn new(egress: usize, organization: OrganizationKind) -> SimBackend {
        SimBackend::with_opt(egress, organization, OptLevel::O0)
    }

    /// Like [`SimBackend::new`] with an explicit middle-end optimization
    /// level for the compiled thread FSMs.
    pub fn with_opt(egress: usize, organization: OrganizationKind, opt: OptLevel) -> SimBackend {
        let src = memsync_netapp::forwarding::app_source(egress);
        let mut compiler = memsync_core::Compiler::new(&src);
        compiler
            .organization(organization)
            .opt(opt)
            .skip_validation();
        let compiled = compiler.compile().expect("forwarding app compiles");
        let sys = System::new(&compiled);
        let ids = (0..egress)
            .map(|i| {
                sys.thread_id(&format!("e{i}"))
                    .expect("egress thread compiled")
            })
            .collect();
        SimBackend {
            sys,
            egress: ids,
            organization,
            lanes: vec![Vec::new(); egress],
            values: Vec::new(),
            descriptors: 0,
            frames: 0,
        }
    }
}

impl ForwardingBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn submit_batch(&mut self, descriptors: &[u32]) {
        self.values.clear();
        self.values
            .extend(descriptors.iter().map(|&d| i64::from(d)));
        assert!(
            self.sys.submit_paced(
                "rx",
                &self.egress,
                &self.values,
                0,
                CYCLES_PER_PACKET_BUDGET
            ),
            "simulator ({}) stalled inside a {}-descriptor batch",
            self.organization,
            descriptors.len()
        );
        // Pull the batch's frames into the egress lanes now: the
        // simulator's sent queues go back to empty (pacing base 0) and
        // keep their capacity, and the frame counter advances with the
        // submit, per the trait contract.
        for (lane, &id) in self.lanes.iter_mut().zip(&self.egress) {
            lane.clear();
            lane.extend(self.sys.drain_sent_in_place(id).map(|f| f as u32));
            self.frames += lane.len() as u64;
        }
        self.descriptors += descriptors.len() as u64;
    }

    fn drain_egress(&mut self) -> &[Vec<u32>] {
        &self.lanes
    }

    fn lost_updates(&self) -> u64 {
        self.sys.lost_updates()
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            sim_cycles: self.sys.cycle(),
            descriptors: self.descriptors,
            frames: self.frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::expected_frame;
    use memsync_netapp::Workload;

    #[test]
    fn sim_backend_matches_the_per_packet_oracle() {
        let w = Workload::generate(0xBEEF, 30, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let mut b = SimBackend::new(2, OrganizationKind::Arbitrated);
        b.submit_batch(&descs);
        let frames = b.drain_egress();
        assert_eq!(frames.len(), 2);
        for (i, per_egress) in frames.iter().enumerate() {
            assert_eq!(per_egress.len(), descs.len());
            for (d, f) in descs.iter().zip(per_egress) {
                assert_eq!(*f, expected_frame(*d, i));
            }
        }
        assert_eq!(b.lost_updates(), 0);
        assert!(b.metrics().sim_cycles > 0);
    }

    #[test]
    fn optimized_sim_backend_matches_the_oracle() {
        let w = Workload::generate(0xBEEF, 30, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let mut b = SimBackend::with_opt(2, OrganizationKind::Arbitrated, OptLevel::O1);
        b.submit_batch(&descs);
        let frames = b.drain_egress();
        for (i, per_egress) in frames.iter().enumerate() {
            assert_eq!(per_egress.len(), descs.len());
            for (d, f) in descs.iter().zip(per_egress) {
                assert_eq!(*f, expected_frame(*d, i));
            }
        }
        assert_eq!(b.lost_updates(), 0);
    }

    #[test]
    fn each_submit_replaces_the_previous_batch() {
        let w = Workload::generate(3, 20, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let mut b = SimBackend::new(2, OrganizationKind::EventDriven);
        b.submit_batch(&descs[..8]);
        b.submit_batch(&descs[8..]);
        // Undrained frames of the first submit are gone: the view holds
        // the second batch only.
        for (i, per_egress) in b.drain_egress().iter().enumerate() {
            let want: Vec<u32> = descs[8..].iter().map(|&d| expected_frame(d, i)).collect();
            assert_eq!(per_egress, &want);
        }
        b.submit_batch(&descs[..4]);
        assert_eq!(b.drain_egress()[0].len(), 4);
        assert_eq!(b.metrics().descriptors, 24);
        assert_eq!(b.metrics().frames, 24 * 2, "every batch's frames counted");
    }
}
