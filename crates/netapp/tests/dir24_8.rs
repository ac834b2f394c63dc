//! Differential property test: the flat `Dir24_8` classifier must agree
//! with the binary-trie `Fib` oracle on every address, for arbitrary
//! route tables.
//!
//! Tables are generated from seeded randomness (no external deps — a
//! splitmix-style generator) and deliberately include the nasty shapes:
//! duplicate prefixes (last insert wins), deeply nested prefixes, a
//! default route, and the /0 and /32 length edges. Addresses are probed
//! in classes — exact prefix bases, prefix ends, ±1 neighbours across
//! prefix boundaries, and uniform random — so both the direct tbl24 path
//! and the overflow-block path are exercised on both sides of every
//! boundary.

use memsync_netapp::fib::{CapacityError, Dir24_8, Fib, Route};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random route. Length is biased toward the interesting regions:
/// the /0 and /32 edges, the 24/25 boundary where overflow blocks start,
/// and a uniform spread elsewhere.
fn random_route(rng: &mut Rng) -> Route {
    let len = match rng.range(8) {
        0 => 0,
        1 => 32,
        2 => 24,
        3 => 25,
        _ => rng.range(33) as u8,
    };
    let mask = if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    };
    Route {
        prefix: rng.u32() & mask,
        len,
        next_hop: rng.u32() % 512,
    }
}

/// A random table of `n` routes: mostly fresh random prefixes, with a
/// fraction re-targeting an existing prefix (duplicates) or nesting a
/// longer prefix inside an existing one.
fn random_table(rng: &mut Rng, n: usize) -> Vec<Route> {
    let mut routes: Vec<Route> = Vec::with_capacity(n);
    for i in 0..n {
        let r = if i > 0 && rng.range(4) == 0 {
            let base = routes[rng.range(i as u64) as usize];
            if base.len == 32 || rng.range(2) == 0 {
                // Duplicate prefix, different hop — last insert must win.
                Route {
                    next_hop: rng.u32() % 512,
                    ..base
                }
            } else {
                // Nest a strictly longer prefix inside an existing route.
                let len = (u32::from(base.len) + 1 + rng.range(32 - u64::from(base.len)) as u32)
                    .min(32) as u8;
                let mask = u32::MAX << (32 - u32::from(len));
                Route {
                    prefix: (base.prefix | (rng.u32() >> base.len.min(31))) & mask,
                    len,
                    next_hop: rng.u32() % 512,
                }
            }
        } else {
            random_route(rng)
        };
        routes.push(r);
    }
    routes
}

/// Addresses worth probing for a table: for every route, the prefix base,
/// the last covered address, and the neighbours one past each end (the
/// other side of both boundaries), plus random probes.
fn probe_addresses(routes: &[Route], rng: &mut Rng) -> Vec<u32> {
    let mut addrs = vec![0u32, 1, u32::MAX - 1, u32::MAX];
    for r in routes {
        let host = if r.len == 0 {
            u32::MAX
        } else {
            (u32::MAX >> 1) >> (r.len - 1)
        };
        let span_end = r.prefix | host;
        addrs.push(r.prefix);
        addrs.push(span_end);
        addrs.push(r.prefix.wrapping_sub(1));
        addrs.push(span_end.wrapping_add(1));
        // A random address inside the prefix (lands in overflow blocks
        // for len > 24 slots shared with shorter routes).
        addrs.push(r.prefix | (rng.u32() & host));
    }
    for _ in 0..256 {
        addrs.push(rng.u32());
    }
    addrs
}

#[test]
fn dir24_8_agrees_with_the_trie_on_random_tables() {
    for seed in 0..24u64 {
        let mut rng = Rng(0xD1E2_4800 + seed);
        // Small tables stress empty/sparse shapes, bigger ones stress
        // nesting and overflow-block promotion.
        let n = [0usize, 1, 2, 8, 24, 64][(seed % 6) as usize];
        let routes = random_table(&mut rng, n);
        let mut fib = Fib::new();
        for r in &routes {
            fib.insert(*r);
        }
        let dir = Dir24_8::from_routes(&routes);
        let addrs = probe_addresses(&routes, &mut rng);
        let mut batch = vec![None; addrs.len()];
        dir.lookup_batch(&addrs, &mut batch);
        for (addr, batched) in addrs.iter().zip(&batch) {
            let want = fib.lookup(*addr);
            let got = dir.lookup(*addr);
            assert_eq!(
                got, want,
                "seed {seed}, addr {addr:#010x}: dir {got:?} != trie {want:?} \
                 (table: {routes:?})"
            );
            assert_eq!(*batched, want, "lookup_batch diverged at {addr:#010x}");
        }
    }
}

#[test]
fn dir24_8_agrees_with_the_trie_under_insert_withdraw_churn() {
    // The mutable case the live control plane exercises: a seeded
    // interleaving of inserts and withdraws against the trie, with the
    // flat classifier rebuilt from `fib.routes()` after every mutation
    // and swept for agreement across the full u32 space (boundary
    // probes of every live route plus random addresses). Withdraw picks
    // from the live route set, so nested-prefix withdrawal (the covering
    // shorter route must show through again) and withdraw-of-default
    // both occur along the way; the trailing phase forces them
    // explicitly in case a seed dodged them.
    for seed in 0..6u64 {
        let mut rng = Rng(0xC4u64 << 32 | seed);
        let mut fib = Fib::new();
        // Seed with a default route so default withdrawal is reachable.
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 7,
        });
        for step in 0..40 {
            let live = fib.routes();
            let withdraw = !live.is_empty() && rng.range(3) == 0;
            if withdraw {
                let victim = live[rng.range(live.len() as u64) as usize];
                assert_eq!(
                    fib.remove(victim.prefix, victim.len),
                    Some(victim.next_hop),
                    "withdrawing a live route returns its hop"
                );
            } else {
                let r = if !live.is_empty() && rng.range(3) == 0 {
                    // Nest a longer prefix inside a live route, so a
                    // later withdraw of either exercises the nested case.
                    let base = live[rng.range(live.len() as u64) as usize];
                    let len = (u32::from(base.len)
                        + 1
                        + rng.range(32 - u64::from(base.len).min(31)) as u32)
                        .min(32) as u8;
                    let mask = u32::MAX << (32 - u32::from(len));
                    Route {
                        prefix: (base.prefix | (rng.u32() >> base.len.min(31))) & mask,
                        len,
                        next_hop: rng.u32() % 512,
                    }
                } else {
                    random_route(&mut rng)
                };
                fib.insert(r);
            }
            let routes = fib.routes();
            let dir = Dir24_8::from_routes(&routes);
            for addr in probe_addresses(&routes, &mut rng) {
                assert_eq!(
                    dir.lookup(addr),
                    fib.lookup(addr),
                    "seed {seed} step {step}, addr {addr:#010x} (table: {routes:?})"
                );
            }
        }
        // Forced edges: withdraw a nested prefix under a live covering
        // route, then withdraw the default.
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 7,
        });
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 81,
        });
        fib.insert(Route {
            prefix: 0x0a0b_0000,
            len: 16,
            next_hop: 82,
        });
        assert_eq!(fib.remove(0x0a0b_0000, 16), Some(82));
        let dir = Dir24_8::from_fib(&fib);
        assert_eq!(
            dir.lookup(0x0a0b_0105),
            Some(81),
            "covering /8 shows through"
        );
        assert_eq!(fib.remove(0, 0), Some(7));
        let dir = Dir24_8::from_fib(&fib);
        assert_eq!(dir.lookup(0x0a0b_0105), Some(81));
        for addr in probe_addresses(&fib.routes(), &mut rng) {
            assert_eq!(
                dir.lookup(addr),
                fib.lookup(addr),
                "post-default-withdraw sweep"
            );
        }
    }
}

#[test]
fn dir24_8_agrees_on_a_default_route_plus_host_routes_table() {
    // The pathological all-edges table: /0 default plus a dense run of
    // /32s sharing one tbl24 slot — all 256 low bytes land in one
    // overflow block, the rest of the space on the default.
    let mut routes = vec![Route {
        prefix: 0,
        len: 0,
        next_hop: 7,
    }];
    for low in 0..=255u32 {
        routes.push(Route {
            prefix: 0x0a0b_0c00 | low,
            len: 32,
            next_hop: 1000 + low,
        });
    }
    let mut fib = Fib::new();
    for r in &routes {
        fib.insert(*r);
    }
    let dir = Dir24_8::from_routes(&routes);
    assert_eq!(dir.overflow_blocks(), 1);
    for low in 0..=255u32 {
        let addr = 0x0a0b_0c00 | low;
        assert_eq!(dir.lookup(addr), Some(1000 + low));
        assert_eq!(dir.lookup(addr), fib.lookup(addr));
    }
    assert_eq!(dir.lookup(0x0a0b_0d00), Some(7), "past the block: default");
    assert_eq!(dir.lookup(0x0a0b_0bff), Some(7));
}

#[test]
fn capacity_check_agrees_with_the_build_at_both_limits() {
    // 15-bit codes: 32767 next hops and 32767 overflow blocks fit, one
    // more of either does not. The check must refuse exactly the tables
    // the build would panic on.
    const LIMIT: u32 = 0x7fff;
    let host = |prefix: u32, next_hop: u32| Route {
        prefix,
        len: 32,
        next_hop,
    };
    // Distinct hops, packed 256 per /24 (few overflow blocks).
    let hops = |n: u32| -> Vec<Route> { (0..n).map(|i| host(0xc612_0000 + i, i)).collect() };
    // One /32 per /24 (one overflow block each), all on one hop.
    let blocks = |n: u32| -> Vec<Route> { (0..n).map(|i| host(i << 8, 1)).collect() };
    for (fits, over, err) in [
        (
            hops(LIMIT),
            hops(LIMIT + 1),
            CapacityError::NextHops(32_768),
        ),
        (
            blocks(LIMIT),
            blocks(LIMIT + 1),
            CapacityError::OverflowBlocks(32_768),
        ),
    ] {
        assert_eq!(Dir24_8::check_capacity(&fits), Ok(()));
        let dir = Dir24_8::from_routes(&fits);
        assert_eq!(
            dir.lookup(fits[LIMIT as usize - 1].prefix),
            Some(fits[LIMIT as usize - 1].next_hop)
        );
        assert_eq!(Dir24_8::check_capacity(&over), Err(err));
        assert!(
            std::panic::catch_unwind(|| Dir24_8::from_routes(&over)).is_err(),
            "{err}: the build panics where the check refuses"
        );
    }
}
