//! Facade crate re-exporting the `memsync` workspace.
//!
//! See the individual crates for detail:
//! [`hic`], [`synth`], [`rtl`], [`fpga`], [`core`], [`sim`], [`netapp`],
//! [`trace`].
pub use memsync_core as core;
pub use memsync_fpga as fpga;
pub use memsync_hic as hic;
pub use memsync_netapp as netapp;
pub use memsync_rtl as rtl;
pub use memsync_sim as sim;
pub use memsync_synth as synth;
pub use memsync_trace as trace;
