//! Pluggable forwarding backends.
//!
//! A shard thread does not care *how* a batch of packet descriptors turns
//! into egress frames — only that the semantics match the compiled hic
//! forwarding application. [`ForwardingBackend`] captures exactly that
//! contract, and three implementations plug into it:
//!
//! * [`SimBackend`] — the cycle-accurate [`memsync_sim::System`] under
//!   either memory organization. The reference semantics; throughput is
//!   bounded by simulation speed.
//! * [`FastBackend`] — the compiled forwarding pipeline executed
//!   functionally as a lane-parallel batch engine (the branch-free
//!   structure-of-arrays kernels of [`crate::pipeline`], byte-pinned to
//!   the per-packet oracle). Paced by construction, so `lost_updates` is
//!   structurally 0.
//! * [`DifferentialBackend`] — runs a reference and a candidate backend
//!   side by side and fails loudly on any egress or lost-update
//!   divergence. The honesty backstop: serve traffic at fast-path speed
//!   while the simulator cross-checks every frame.
//!
//! The active backend is negotiated into clients via the protocol v2
//! `Hello` frame ([`crate::frame::ServerHello`]): servers advertise which
//! backends they support as capability bits and which one is serving.

mod differential;
mod fast;
mod sim;

pub use differential::DifferentialBackend;
pub use fast::FastBackend;
pub use sim::SimBackend;

use crate::ServeConfig;

/// Capability bit: the server can run [`SimBackend`].
pub const CAP_SIM: u8 = 0x01;
/// Capability bit: the server can run [`FastBackend`].
pub const CAP_FAST: u8 = 0x02;
/// Capability bit: the server can run [`DifferentialBackend`].
pub const CAP_DIFFERENTIAL: u8 = 0x04;

/// Which forwarding backend a shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Cycle-accurate simulation ([`SimBackend`]).
    #[default]
    Sim,
    /// Functional compiled pipeline ([`FastBackend`]).
    Fast,
    /// Both, cross-checked frame by frame ([`DifferentialBackend`]).
    Differential,
}

impl BackendKind {
    /// The capability bit advertising this backend in a `Hello` frame.
    pub fn cap_bit(self) -> u8 {
        match self {
            BackendKind::Sim => CAP_SIM,
            BackendKind::Fast => CAP_FAST,
            BackendKind::Differential => CAP_DIFFERENTIAL,
        }
    }

    /// The wire encoding of this kind (one byte in the `Hello` frame).
    pub fn wire_code(self) -> u8 {
        match self {
            BackendKind::Sim => 0,
            BackendKind::Fast => 1,
            BackendKind::Differential => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_wire(code: u8) -> Option<BackendKind> {
        match code {
            0 => Some(BackendKind::Sim),
            1 => Some(BackendKind::Fast),
            2 => Some(BackendKind::Differential),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Fast => "fast",
            BackendKind::Differential => "differential",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendKind, String> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "fast" => Ok(BackendKind::Fast),
            "differential" | "diff" => Ok(BackendKind::Differential),
            other => Err(format!(
                "unknown backend {other:?} (expected sim, fast, or differential)"
            )),
        }
    }
}

/// Every backend this build supports, as `Hello` capability bits.
pub fn capability_bits() -> u8 {
    CAP_SIM | CAP_FAST | CAP_DIFFERENTIAL
}

/// Cumulative execution counters a backend exposes for the stats frame.
/// Counters are monotonic over the backend's lifetime; callers diff
/// before/after a batch for per-batch attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendMetrics {
    /// Simulator cycles consumed so far (0 for the functional fast path).
    pub sim_cycles: u64,
    /// Descriptors executed so far.
    pub descriptors: u64,
    /// Egress frames emitted so far (summed over egress consumers) — the
    /// backend-reported inner detail for request tracing. The fast
    /// backend counts frames as its lanes fill at submit time; the sim
    /// backend counts them as they drain.
    pub frames: u64,
}

/// What a shard needs from a forwarding engine — nothing more.
///
/// The contract mirrors the compiled hic application: [`submit_batch`]
/// feeds packet descriptors to the `rx` thread, after which
/// [`drain_egress`] yields, per egress consumer, one frame per submitted
/// descriptor in submission order (dropped packets flow through too,
/// carrying the in-band `0`-key marker). Implementations must pace
/// injection (or be functionally immune to overwrites) so a conforming
/// backend keeps [`lost_updates`] at 0; the counter exists so a pacing
/// regression is loud, not silent.
///
/// [`submit_batch`]: ForwardingBackend::submit_batch
/// [`drain_egress`]: ForwardingBackend::drain_egress
/// [`lost_updates`]: ForwardingBackend::lost_updates
pub trait ForwardingBackend: Send {
    /// Which implementation this is (stats attribution, `Hello` frames).
    fn kind(&self) -> BackendKind;

    /// Executes a batch of packet descriptors. Its frames replace the
    /// previous batch's, drained or not. Execution counters (including
    /// `frames`) advance at submit time, so a caller can read
    /// [`ForwardingBackend::metrics`] for the batch *before* draining.
    fn submit_batch(&mut self, descriptors: &[u32]);

    /// The last submitted batch's egress frames as a borrowed view: one
    /// lane per egress consumer, each holding one frame per descriptor,
    /// in submission order.
    ///
    /// Zero-copy contract: the lanes are the backend's own arena buffers,
    /// handed out in place — no per-batch clone. The view stays valid (and
    /// repeated drains return the same frames) until the next
    /// [`ForwardingBackend::submit_batch`], which reuses the lanes'
    /// storage for its own batch.
    fn drain_egress(&mut self) -> &[Vec<u32>];

    /// Cumulative guarded-location overwrites of unconsumed values — the
    /// dynamic lost-update detector. Must stay 0 for a conforming
    /// backend.
    fn lost_updates(&self) -> u64;

    /// Cumulative execution counters.
    fn metrics(&self) -> BackendMetrics;
}

/// Builds the configured backend for one shard.
pub fn build(config: &ServeConfig) -> Box<dyn ForwardingBackend> {
    match config.backend {
        BackendKind::Sim => Box::new(SimBackend::with_opt(
            config.egress,
            config.organization,
            config.opt,
        )),
        BackendKind::Fast => Box::new(FastBackend::new(config.egress)),
        BackendKind::Differential => Box::new(DifferentialBackend::new(
            Box::new(SimBackend::with_opt(
                config.egress,
                config.organization,
                config.opt,
            )),
            Box::new(FastBackend::new(config.egress)),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_core::OrganizationKind;
    use memsync_netapp::Workload;

    /// Concatenated per-egress frames from running `descs` through a
    /// backend in `chunk`-sized submit/drain rounds.
    fn run_backend(
        mut b: Box<dyn ForwardingBackend>,
        descs: &[u32],
        chunk: usize,
    ) -> (Vec<Vec<u32>>, u64, BackendMetrics) {
        let mut frames: Vec<Vec<u32>> = Vec::new();
        for batch in descs.chunks(chunk) {
            b.submit_batch(batch);
            for (i, f) in b.drain_egress().iter().enumerate() {
                if frames.len() <= i {
                    frames.push(Vec::new());
                }
                frames[i].extend_from_slice(f);
            }
        }
        (frames, b.lost_updates(), b.metrics())
    }

    #[test]
    fn build_honors_the_configured_kind() {
        for kind in [
            BackendKind::Sim,
            BackendKind::Fast,
            BackendKind::Differential,
        ] {
            let config = ServeConfig {
                egress: 2,
                backend: kind,
                ..ServeConfig::default()
            };
            assert_eq!(build(&config).kind(), kind);
        }
    }

    #[test]
    fn kind_round_trips_through_wire_and_str() {
        for kind in [
            BackendKind::Sim,
            BackendKind::Fast,
            BackendKind::Differential,
        ] {
            assert_eq!(BackendKind::from_wire(kind.wire_code()), Some(kind));
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
            assert_ne!(capability_bits() & kind.cap_bit(), 0);
        }
        assert_eq!(BackendKind::from_wire(9), None);
        assert!("gpu".parse::<BackendKind>().is_err());
    }

    #[test]
    fn backends_agree_frame_for_frame_under_both_organizations() {
        let w = Workload::generate(0xD1FF, 200, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let egress = 3usize;
        let (fast_frames, fast_lost, fast_m) =
            run_backend(Box::new(FastBackend::new(egress)), &descs, 32);
        assert_eq!(fast_lost, 0, "fast is paced by construction");
        assert_eq!(fast_m.descriptors, 200);
        assert_eq!(fast_m.sim_cycles, 0, "no simulator behind the fast path");
        assert_eq!(fast_m.frames, 200 * egress as u64, "one frame per lane");
        for org in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
            let (sim_frames, sim_lost, sim_m) =
                run_backend(Box::new(SimBackend::new(egress, org)), &descs, 32);
            assert_eq!(sim_lost, 0, "paced sim injection never overwrites");
            assert!(sim_m.sim_cycles > 0);
            assert_eq!(sim_m.frames, fast_m.frames, "same frames counted");
            assert_eq!(
                sim_frames, fast_frames,
                "sim ({org}) and fast egress diverged"
            );
        }
    }

    #[test]
    fn differential_backend_passes_on_agreeing_engines() {
        let w = Workload::generate(7, 150, 16);
        let descs: Vec<u32> = w.packets.iter().map(|p| p.descriptor()).collect();
        let config = ServeConfig {
            egress: 2,
            backend: BackendKind::Differential,
            ..ServeConfig::default()
        };
        let (frames, lost, m) = run_backend(build(&config), &descs, 25);
        assert_eq!(lost, 0);
        assert_eq!(m.descriptors, 150);
        assert_eq!(m.frames, 150 * 2, "reference frames attributed");
        let (fast_frames, _, _) = run_backend(Box::new(FastBackend::new(2)), &descs, 25);
        assert_eq!(frames, fast_frames);
    }
}
