//! Combined implementation report: area + timing for one module, the
//! equivalent of the paper's post-place-and-route numbers.

use crate::calibration::{DelayModel, PackingModel};
use crate::device::Part;
use crate::slices::pack;
use crate::techmap::{map_module, Resources};
use crate::timing::{analyze_with, TimingError, TimingReport};
use memsync_rtl::netlist::Module;
use std::fmt;

/// Area and timing of one implemented module.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplReport {
    /// Module name.
    pub module: String,
    /// LUT4 count.
    pub luts: u32,
    /// Flip-flop count.
    pub ffs: u32,
    /// Occupied slices.
    pub slices: u32,
    /// 18 Kb BRAM blocks.
    pub brams: u32,
    /// Worst path / Fmax.
    pub timing: TimingReport,
}

impl ImplReport {
    /// Whether the report fits on `part` (slices and BRAMs).
    pub fn fits(&self, part: Part) -> bool {
        part.capacity().fits(self.slices, self.brams)
    }
}

impl fmt::Display for ImplReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LUT, {} FF, {} slices, {} BRAM, {}",
            self.module, self.luts, self.ffs, self.slices, self.brams, self.timing
        )
    }
}

/// Implements (maps, packs, times) a module with the calibrated models.
///
/// # Errors
///
/// Returns [`TimingError`] on a combinational loop.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), memsync_fpga::timing::TimingError> {
/// use memsync_rtl::builder::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("acc");
/// let d = b.input("d", 16);
/// let q = b.register(d, 0, "q");
/// let s = b.add(q, d, "s");
/// let q2 = b.register(s, 0, "q2");
/// b.output("q", q2);
/// let report = memsync_fpga::report::implement(&b.finish())?;
/// assert_eq!(report.ffs, 32);
/// assert!(report.timing.fmax_mhz > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn implement(module: &Module) -> Result<ImplReport, TimingError> {
    implement_with(module, DelayModel::default(), PackingModel::default())
}

/// Implements a module with explicit models.
///
/// # Errors
///
/// Returns [`TimingError`] on a combinational loop.
pub fn implement_with(
    module: &Module,
    delay: DelayModel,
    packing: PackingModel,
) -> Result<ImplReport, TimingError> {
    let resources: Resources = map_module(module);
    let timing = analyze_with(module, delay)?;
    Ok(ImplReport {
        module: module.name.clone(),
        luts: resources.luts,
        ffs: resources.ffs,
        slices: pack(resources, packing),
        brams: resources.brams,
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_rtl::builder::ModuleBuilder;

    #[test]
    fn report_combines_area_and_timing() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let q = b.register(a, 0, "q");
        let s = b.add(q, a, "s");
        b.output("s", s);
        let r = implement(&b.finish()).unwrap();
        assert_eq!(r.ffs, 8);
        assert_eq!(r.luts, 8);
        assert!(r.slices >= 4);
        assert!(r.fits(Part::Xc2vp20));
    }

    #[test]
    fn display_mentions_all_resources() {
        let mut b = ModuleBuilder::new("disp");
        let a = b.input("a", 4);
        let q = b.register(a, 0, "q");
        b.output("q", q);
        let r = implement(&b.finish()).unwrap();
        let s = r.to_string();
        assert!(s.contains("disp"));
        assert!(s.contains("FF"));
        assert!(s.contains("MHz"));
    }
}
