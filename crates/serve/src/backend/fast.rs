//! The compiled fast path: the forwarding pipeline executed functionally,
//! descriptor in, frames out — no cycle-accurate machinery.
//!
//! [`FastBackend`] runs [`crate::pipeline::PipelineModel`]'s batch
//! kernels: one structure-of-arrays pass computes every carrier for the
//! submitted batch ([`PipelineModel::carrier_batch`]), then one pass per
//! egress consumer scrambles the carriers straight into that consumer's
//! arena lane ([`PipelineModel::scramble_batch`]). The lanes double as
//! the zero-copy egress buffers: [`ForwardingBackend::drain_egress`]
//! hands them out as a borrowed view and the next submit overwrites them
//! in place, so the steady state allocates nothing (pinned by
//! `tests/fast_zero_alloc.rs`). Because execution is a pure function of
//! each descriptor there is no shared guarded state to overwrite — the
//! backend is paced *by construction* and `lost_updates()` is
//! structurally 0.
//!
//! [`PipelineModel::carrier_batch`]: crate::pipeline::PipelineModel::carrier_batch
//! [`PipelineModel::scramble_batch`]: crate::pipeline::PipelineModel::scramble_batch

use super::{BackendMetrics, ForwardingBackend};
use crate::pipeline::PipelineModel;

/// Lane-parallel batch execution of the compiled forwarding pipeline.
#[derive(Debug)]
pub struct FastBackend {
    model: PipelineModel,
    /// Arena frame buffers, one lane per egress consumer, holding the
    /// last batch's frames; each submit refills them (capacity kept).
    lanes: Vec<Vec<u32>>,
    /// Per-batch carrier scratch shared by every egress pass.
    carriers: Vec<u32>,
    descriptors: u64,
    frames: u64,
}

impl FastBackend {
    /// A batch engine emitting frames for `egress` consumers.
    pub fn new(egress: usize) -> FastBackend {
        FastBackend {
            model: PipelineModel::new(),
            lanes: vec![Vec::new(); egress],
            carriers: Vec::new(),
            descriptors: 0,
            frames: 0,
        }
    }
}

impl ForwardingBackend for FastBackend {
    fn submit_batch(&mut self, descriptors: &[u32]) {
        let n = descriptors.len();
        // Structure-of-arrays: one branch-free pass fills the carrier
        // scratch, then one pass per egress consumer writes frames in
        // place into that consumer's lane.
        self.carriers.clear();
        self.carriers.resize(n, 0);
        self.model.carrier_batch(descriptors, &mut self.carriers);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            lane.clear();
            lane.resize(n, 0);
            self.model.scramble_batch(&self.carriers, i, lane);
        }
        self.descriptors += n as u64;
        // Every descriptor filled one slot per egress lane.
        self.frames += (n * self.lanes.len()) as u64;
    }

    fn drain_egress(&mut self) -> &[Vec<u32>] {
        &self.lanes
    }

    fn lost_updates(&self) -> u64 {
        0
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            sim_cycles: 0,
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
    fn fast_backend_matches_the_per_packet_oracle() {
        let w = Workload::generate(21, 64, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let mut b = FastBackend::new(3);
        for batch in descs.chunks(40) {
            b.submit_batch(batch);
            let frames = b.drain_egress();
            assert_eq!(frames.len(), 3);
            for (i, per_egress) in frames.iter().enumerate() {
                assert_eq!(per_egress.len(), batch.len(), "only this batch's frames");
                for (d, f) in batch.iter().zip(per_egress) {
                    assert_eq!(*f, expected_frame(*d, i));
                }
            }
        }
        assert_eq!(b.metrics().descriptors, 64);
    }

    #[test]
    fn drain_view_is_stable_until_the_next_submit() {
        let descs = [0xc0a8_0140u32, 0x0a0b_0c02, 0x0000_0001];
        let mut b = FastBackend::new(2);
        b.submit_batch(&descs);
        let first: Vec<Vec<u32>> = b.drain_egress().to_vec();
        // A second drain with no intervening submit sees the same frames.
        assert_eq!(b.drain_egress(), &first[..]);
        // The next submit replaces the view with the new batch only.
        b.submit_batch(&descs[..1]);
        let second = b.drain_egress();
        assert_eq!(second[0].len(), 1);
        assert_eq!(second[0][0], first[0][0]);
    }

    #[test]
    fn ttl_expired_descriptors_flow_through_with_the_drop_marker() {
        let mut w = Workload::generate(5, 4, 16);
        w.packets[1].ttl = 1;
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let mut b = FastBackend::new(1);
        b.submit_batch(&descs);
        let frames = b.drain_egress();
        assert_eq!(frames[0].len(), 4, "drops still emit a frame");
        assert_eq!(frames[0][1], expected_frame(descs[1], 0));
    }
}
