//! Virtex-II Pro device database.
//!
//! Capacities follow the Virtex-II Pro Platform FPGA Handbook (reference \[4\]
//! of the paper). The paper's experiments target the XC2VP20.

use std::fmt;

/// A Virtex-II Pro part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Part {
    /// XC2VP2 — smallest family member.
    Xc2vp2,
    /// XC2VP4.
    Xc2vp4,
    /// XC2VP7.
    Xc2vp7,
    /// XC2VP20 — the paper's target device.
    Xc2vp20,
    /// XC2VP30.
    Xc2vp30,
    /// XC2VP50.
    Xc2vp50,
    /// XC2VP70.
    Xc2vp70,
    /// XC2VP100 — largest family member.
    Xc2vp100,
}

impl Part {
    /// All parts, smallest first.
    pub const ALL: [Part; 8] = [
        Part::Xc2vp2,
        Part::Xc2vp4,
        Part::Xc2vp7,
        Part::Xc2vp20,
        Part::Xc2vp30,
        Part::Xc2vp50,
        Part::Xc2vp70,
        Part::Xc2vp100,
    ];

    /// Device capacity record.
    pub fn capacity(self) -> Capacity {
        // slices, 18 Kb BRAMs, PowerPC cores, RocketIO transceivers
        let (slices, brams, ppc, rocketio) = match self {
            Part::Xc2vp2 => (1408, 12, 0, 4),
            Part::Xc2vp4 => (3008, 28, 1, 4),
            Part::Xc2vp7 => (4928, 44, 1, 8),
            Part::Xc2vp20 => (9280, 88, 2, 8),
            Part::Xc2vp30 => (13696, 136, 2, 8),
            Part::Xc2vp50 => (23616, 232, 2, 16),
            Part::Xc2vp70 => (33088, 328, 2, 20),
            Part::Xc2vp100 => (44096, 444, 2, 20),
        };
        Capacity {
            slices,
            luts: slices * 2,
            flip_flops: slices * 2,
            brams,
            bram_bits: u64::from(brams) * 18 * 1024,
            powerpc_cores: ppc,
            rocketio,
        }
    }

    /// Part name as printed by vendor tools.
    pub fn name(self) -> &'static str {
        match self {
            Part::Xc2vp2 => "xc2vp2",
            Part::Xc2vp4 => "xc2vp4",
            Part::Xc2vp7 => "xc2vp7",
            Part::Xc2vp20 => "xc2vp20",
            Part::Xc2vp30 => "xc2vp30",
            Part::Xc2vp50 => "xc2vp50",
            Part::Xc2vp70 => "xc2vp70",
            Part::Xc2vp100 => "xc2vp100",
        }
    }
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource capacities of one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Logic slices (each: 2 LUT4 + 2 FF).
    pub slices: u32,
    /// 4-input LUTs.
    pub luts: u32,
    /// Slice flip-flops.
    pub flip_flops: u32,
    /// 18 Kb block RAMs.
    pub brams: u32,
    /// Total block RAM bits.
    pub bram_bits: u64,
    /// Hard PowerPC 405 cores.
    pub powerpc_cores: u32,
    /// RocketIO serial transceivers.
    pub rocketio: u32,
}

impl Capacity {
    /// Whether a design demanding the given resources fits.
    pub fn fits(&self, slices: u32, brams: u32) -> bool {
        slices <= self.slices && brams <= self.brams
    }

    /// Slice utilization as a fraction.
    pub fn slice_utilization(&self, slices: u32) -> f64 {
        f64::from(slices) / f64::from(self.slices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc2vp20_matches_paper_target() {
        let cap = Part::Xc2vp20.capacity();
        assert_eq!(cap.slices, 9280);
        assert_eq!(cap.brams, 88);
        assert_eq!(cap.powerpc_cores, 2);
        // The paper's 5430-slice forwarding application fits comfortably.
        assert!(cap.fits(5430, 10));
    }

    #[test]
    fn capacities_monotonic_in_part_size() {
        let mut prev = 0;
        for p in Part::ALL {
            let s = p.capacity().slices;
            assert!(s > prev, "{p} slices {s} not > {prev}");
            prev = s;
        }
    }

    #[test]
    fn bram_bits_are_18kb_each() {
        for p in Part::ALL {
            let c = p.capacity();
            assert_eq!(c.bram_bits, u64::from(c.brams) * 18 * 1024);
        }
    }

    #[test]
    fn utilization_fraction() {
        let cap = Part::Xc2vp20.capacity();
        let u = cap.slice_utilization(4640);
        assert!((u - 0.5).abs() < 1e-9);
    }
}
