//! One-off calibration fit: finds delay-model constants that reproduce the
//! paper's six Fmax anchors, then prints them for `fpga::calibration`.
//!
//! `--path` fits nothing: it prints each wrapper's worst path, from the
//! same timing pass that sets its Fmax. Any other argument prints the
//! usage line on stderr and exits with status 2.

use memsync_core::{arbitrated, event_driven, spec::WrapperSpec};
use memsync_fpga::calibration::{DelayModel, PAPER_ANCHORS};
use memsync_fpga::timing::analyze_with;
use memsync_rtl::netlist::Module;

fn modules() -> Vec<(Module, f64)> {
    let mut v = Vec::new();
    for (i, n) in [2usize, 4, 8].iter().enumerate() {
        let s = WrapperSpec::single_producer(*n);
        v.push((
            arbitrated::generate(&s).unwrap(),
            PAPER_ANCHORS.arbitrated_fmax_mhz[i],
        ));
        v.push((
            event_driven::generate(&s).unwrap(),
            PAPER_ANCHORS.event_driven_fmax_mhz[i],
        ));
    }
    v
}

fn loss(ms: &[(Module, f64)], m: DelayModel) -> f64 {
    ms.iter()
        .map(|(module, anchor)| {
            let f = analyze_with(module, m).unwrap().fmax_mhz;
            ((f - anchor) / anchor).powi(2)
        })
        .sum()
}

const USAGE: &str = "usage: calib [--path]";

fn main() {
    let mut path = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--path" => path = true,
            _ => {
                eprintln!("calib: unknown argument {arg:?}\n{USAGE}");
                std::process::exit(2)
            }
        }
    }
    if path {
        for n in [2usize, 8] {
            let s = WrapperSpec::single_producer(n);
            for (label, m) in [
                ("arb", arbitrated::generate(&s).unwrap()),
                ("evt", event_driven::generate(&s).unwrap()),
            ] {
                let (rep, path) =
                    memsync_fpga::timing::critical_path(&m, DelayModel::VIRTEX2PRO).unwrap();
                println!("{label} n={n}: {rep}");
                for step in path {
                    println!("  {step}");
                }
            }
        }
        return;
    }
    let ms = modules();
    let mut best = DelayModel::VIRTEX2PRO;
    let mut best_loss = loss(&ms, best);
    println!("initial loss {best_loss:.5}");

    // Coordinate descent over the knobs with multiplicative steps.
    let mut rng_state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rnd = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state >> 11) as f64 / (1u64 << 53) as f64
    };
    for round in 0..12000 {
        let mut cand = best;
        let knob = round % 8;
        let factor = 0.5 + rnd();
        match knob {
            0 => cand.t_lut = (cand.t_lut * factor).clamp(0.25, 0.65),
            1 => cand.t_net_base = (cand.t_net_base * factor).clamp(0.15, 0.9),
            2 => cand.t_net_fanout = (cand.t_net_fanout * factor).clamp(0.05, 0.45),
            3 => cand.t_cam_prio = (cand.t_cam_prio * factor).clamp(0.02, 0.5),
            4 => cand.t_bram_cko = (cand.t_bram_cko * factor).clamp(0.5, 3.0),
            5 => cand.t_cko = (cand.t_cko * factor).clamp(0.3, 1.0),
            6 => cand.t_su = (cand.t_su * factor).clamp(0.2, 1.0),
            _ => cand.t_carry = (cand.t_carry * factor).clamp(0.02, 0.12),
        }
        let l = loss(&ms, cand);
        if l < best_loss {
            best_loss = l;
            best = cand;
        }
    }
    println!("fitted loss {best_loss:.5}");
    println!("{best:#?}");
    for (i, n) in [2usize, 4, 8].iter().enumerate() {
        let s = WrapperSpec::single_producer(*n);
        let fa = analyze_with(&arbitrated::generate(&s).unwrap(), best)
            .unwrap()
            .fmax_mhz;
        let fe = analyze_with(&event_driven::generate(&s).unwrap(), best)
            .unwrap()
            .fmax_mhz;
        println!(
            "n={n}: arb {fa:6.1} (anchor {}), evt {fe:6.1} (anchor {})",
            PAPER_ANCHORS.arbitrated_fmax_mhz[i], PAPER_ANCHORS.event_driven_fmax_mhz[i]
        );
    }
}
