//! Slice packing: LUT/FF counts → occupied Virtex-II Pro slices.
//!
//! Each slice holds two LUT4s and two flip-flops. After placement, a slice
//! used for logic can also host unrelated flip-flops; the
//! [`PackingModel`] captures how often the
//! map stage achieves that sharing.

use crate::calibration::PackingModel;
use crate::techmap::Resources;

/// Packs resources into slices under a packing model.
///
/// The result is bounded below by `max(ceil(luts/2), ceil(ffs/2))` (perfect
/// sharing) and above by `ceil(luts/2) + ceil(ffs/2)` (no sharing).
pub fn pack(resources: Resources, model: PackingModel) -> u32 {
    let lut_slices = resources.luts.div_ceil(2);
    let ff_slices = resources.ffs.div_ceil(2);
    let lower = lut_slices.max(ff_slices);
    let upper = lut_slices + ff_slices;
    let share = model.share_fraction.clamp(0.0, 1.0);
    let packed = f64::from(upper) - share * f64::from(upper - lower);
    packed.ceil() as u32
}

/// Packs with the calibrated Virtex-II Pro model.
pub fn pack_default(resources: Resources) -> u32 {
    pack(resources, PackingModel::VIRTEX2PRO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(luts: u32, ffs: u32) -> Resources {
        Resources {
            luts,
            ffs,
            brams: 0,
        }
    }

    #[test]
    fn perfect_sharing_is_max() {
        let m = PackingModel {
            share_fraction: 1.0,
        };
        assert_eq!(pack(res(100, 60), m), 50);
        assert_eq!(pack(res(10, 100), m), 50);
    }

    #[test]
    fn no_sharing_is_sum() {
        let m = PackingModel {
            share_fraction: 0.0,
        };
        assert_eq!(pack(res(100, 60), m), 80);
    }

    #[test]
    fn default_is_between_bounds() {
        let r = res(100, 60);
        let s = pack_default(r);
        assert!((50..=80).contains(&s), "{s}");
    }

    #[test]
    fn monotone_in_resources() {
        let a = pack_default(res(40, 66));
        let b = pack_default(res(80, 66));
        let c = pack_default(res(160, 66));
        assert!(a <= b && b <= c);
    }

    #[test]
    fn zero_resources_take_zero_slices() {
        assert_eq!(pack_default(res(0, 0)), 0);
    }
}
