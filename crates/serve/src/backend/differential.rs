//! The honesty backstop: two forwarding engines run side by side, and any
//! divergence fails loudly.
//!
//! [`DifferentialBackend`] submits every batch to a *reference* backend
//! (normally the cycle-accurate [`crate::backend::SimBackend`]) and a
//! *candidate* (normally [`crate::backend::FastBackend`]), and panics on
//! the first egress frame mismatch or lost-update divergence — frame
//! index, egress consumer, and both values in the message. Inside a serve
//! shard that panic unwinds out of the shard loop: the shard restarts in
//! place, the in-flight submit reports an error, and `shard_restarts`
//! ticks — a semantic bug can never be served silently.

use super::{BackendKind, BackendMetrics, ForwardingBackend};

/// A reference and a candidate backend cross-checked on every drain.
pub struct DifferentialBackend {
    reference: Box<dyn ForwardingBackend>,
    candidate: Box<dyn ForwardingBackend>,
    /// Descriptors cross-checked so far (divergence reporting).
    checked: u64,
}

impl std::fmt::Debug for DifferentialBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DifferentialBackend")
            .field("reference", &self.reference.kind())
            .field("candidate", &self.candidate.kind())
            .field("checked", &self.checked)
            .finish()
    }
}

impl DifferentialBackend {
    /// Cross-checks `candidate` against `reference`.
    pub fn new(
        reference: Box<dyn ForwardingBackend>,
        candidate: Box<dyn ForwardingBackend>,
    ) -> DifferentialBackend {
        DifferentialBackend {
            reference,
            candidate,
            checked: 0,
        }
    }
}

impl ForwardingBackend for DifferentialBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Differential
    }

    fn submit_batch(&mut self, descriptors: &[u32]) {
        self.reference.submit_batch(descriptors);
        self.candidate.submit_batch(descriptors);
    }

    fn drain_egress(&mut self) -> &[Vec<u32>] {
        let (rk, ck) = (self.reference.kind(), self.candidate.kind());
        // The comparison borrows both engines' views; it happens in an
        // inner scope so the reference can be re-drained for the returned
        // view afterwards (drains are stable until the next submit, so
        // the second call hands back the same lanes without copying).
        let drained = {
            let want = self.reference.drain_egress();
            let got = self.candidate.drain_egress();
            assert_eq!(
                want.len(),
                got.len(),
                "differential: egress width diverged ({rk} vs {ck})"
            );
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    w.len(),
                    g.len(),
                    "differential: egress e{i} frame count diverged after {} descriptors \
                     ({rk}: {} frames, {ck}: {})",
                    self.checked,
                    w.len(),
                    g.len()
                );
                for (k, (wf, gf)) in w.iter().zip(g).enumerate() {
                    assert_eq!(
                        wf, gf,
                        "differential: egress e{i} frame {k} diverged after {} descriptors \
                         ({rk}: {wf:#010x}, {ck}: {gf:#010x})",
                        self.checked
                    );
                }
            }
            want.first().map_or(0, |w| w.len() as u64)
        };
        let (rl, cl) = (self.reference.lost_updates(), self.candidate.lost_updates());
        assert_eq!(
            rl, cl,
            "differential: lost-update counters diverged ({rk}: {rl}, {ck}: {cl})"
        );
        self.checked += drained;
        self.reference.drain_egress()
    }

    fn lost_updates(&self) -> u64 {
        // The counters are asserted equal on every drain; between drains
        // the reference is authoritative.
        self.reference.lost_updates()
    }

    fn metrics(&self) -> BackendMetrics {
        // Cycle attribution follows the reference (the candidate's fast
        // path reports 0 cycles); descriptor counts are asserted equal.
        self.reference.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FastBackend, SimBackend};
    use memsync_core::OrganizationKind;
    use memsync_netapp::Workload;

    /// A backend that forwards to an inner engine but corrupts one frame —
    /// the divergence the differential backend must catch.
    struct LyingBackend {
        inner: FastBackend,
        corrupt_at: usize,
        frames: Vec<Vec<u32>>,
    }

    impl ForwardingBackend for LyingBackend {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn submit_batch(&mut self, descriptors: &[u32]) {
            self.inner.submit_batch(descriptors);
        }
        fn drain_egress(&mut self) -> &[Vec<u32>] {
            self.frames = self.inner.drain_egress().to_vec();
            if let Some(f) = self.frames[0].get_mut(self.corrupt_at) {
                *f ^= 0x1;
            }
            &self.frames
        }
        fn lost_updates(&self) -> u64 {
            self.inner.lost_updates()
        }
        fn metrics(&self) -> BackendMetrics {
            self.inner.metrics()
        }
    }

    fn descs(seed: u64, n: usize) -> Vec<u32> {
        Workload::generate(seed, n, 16)
            .packets
            .iter()
            .map(|p| p.descriptor())
            .collect()
    }

    #[test]
    fn agreeing_backends_pass_and_report_reference_metrics() {
        let mut b = DifferentialBackend::new(
            Box::new(SimBackend::new(2, OrganizationKind::EventDriven)),
            Box::new(FastBackend::new(2)),
        );
        let d = descs(11, 60);
        for batch in d.chunks(30) {
            b.submit_batch(batch);
            let frames = b.drain_egress();
            assert_eq!(frames.len(), 2);
            assert_eq!(frames[0].len(), 30);
        }
        assert_eq!(b.lost_updates(), 0);
        assert!(b.metrics().sim_cycles > 0, "reference cycles attributed");
        assert_eq!(b.metrics().descriptors, 60);
    }

    #[test]
    #[should_panic(expected = "differential: egress e0 frame 5 diverged")]
    fn a_single_corrupted_frame_fails_loudly() {
        let mut b = DifferentialBackend::new(
            Box::new(FastBackend::new(2)),
            Box::new(LyingBackend {
                inner: FastBackend::new(2),
                corrupt_at: 5,
                frames: Vec::new(),
            }),
        );
        b.submit_batch(&descs(12, 10));
        let _ = b.drain_egress();
    }

    #[test]
    #[should_panic(expected = "frame count diverged")]
    fn a_missing_frame_fails_loudly() {
        struct Swallow(FastBackend);
        impl ForwardingBackend for Swallow {
            fn kind(&self) -> BackendKind {
                BackendKind::Fast
            }
            fn submit_batch(&mut self, d: &[u32]) {
                // Drops the last descriptor — the lost-packet bug class.
                self.0.submit_batch(&d[..d.len() - 1]);
            }
            fn drain_egress(&mut self) -> &[Vec<u32>] {
                self.0.drain_egress()
            }
            fn lost_updates(&self) -> u64 {
                0
            }
            fn metrics(&self) -> BackendMetrics {
                self.0.metrics()
            }
        }
        let mut b = DifferentialBackend::new(
            Box::new(FastBackend::new(2)),
            Box::new(Swallow(FastBackend::new(2))),
        );
        b.submit_batch(&descs(13, 8));
        let _ = b.drain_egress();
    }
}
