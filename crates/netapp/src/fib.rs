//! Longest-prefix-match forwarding table (binary trie).

use std::collections::{HashMap, HashSet};
use std::fmt;

/// A route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Network prefix (host bits zero).
    pub prefix: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
    /// Next-hop / egress port identifier.
    pub next_hop: u32,
}

#[derive(Debug, Clone, Default)]
struct Node {
    children: [Option<Box<Node>>; 2],
    next_hop: Option<u32>,
}

/// A binary-trie FIB.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    root: Node,
    len: usize,
}

impl Fib {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) a route.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32` or the prefix has host bits set.
    pub fn insert(&mut self, route: Route) {
        assert!(route.len <= 32, "prefix length out of range");
        if route.len < 32 {
            assert_eq!(
                route.prefix & ((1u64 << (32 - route.len)) - 1) as u32,
                0,
                "host bits set in prefix"
            );
        }
        let mut node = &mut self.root;
        for i in 0..route.len {
            let bit = ((route.prefix >> (31 - i)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        if node.next_hop.replace(route.next_hop).is_none() {
            self.len += 1;
        }
    }

    /// Withdraws the route at exactly `prefix/len`, returning its next
    /// hop, or `None` when no such route exists (covering or nested
    /// routes are untouched — withdrawal is exact-match, not LPM).
    /// Interior nodes left with no route and no children are pruned, so
    /// a long insert/withdraw churn cannot grow the trie without bound.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32` or the prefix has host bits set.
    pub fn remove(&mut self, prefix: u32, len: u8) -> Option<u32> {
        assert!(len <= 32, "prefix length out of range");
        if len < 32 {
            assert_eq!(
                prefix & ((1u64 << (32 - len)) - 1) as u32,
                0,
                "host bits set in prefix"
            );
        }
        // Returns (withdrawn hop, whether the visited node is now empty
        // and its parent should prune the edge).
        fn walk(node: &mut Node, prefix: u32, len: u8) -> (Option<u32>, bool) {
            if len == 0 {
                let hop = node.next_hop.take();
                let prune = node.children.iter().all(|c| c.is_none());
                return (hop, prune);
            }
            let bit = ((prefix >> 31) & 1) as usize;
            let Some(child) = node.children[bit].as_mut() else {
                return (None, false);
            };
            let (hop, prune_child) = walk(child, prefix << 1, len - 1);
            if prune_child {
                node.children[bit] = None;
            }
            let prune = node.next_hop.is_none() && node.children.iter().all(|c| c.is_none());
            (hop, prune)
        }
        let (hop, _) = walk(&mut self.root, prefix, len);
        if hop.is_some() {
            self.len -= 1;
        }
        hop
    }

    /// Allocated trie nodes, counting the root (diagnostics: pins that
    /// [`Fib::remove`] prunes emptied branches).
    pub fn nodes(&self) -> usize {
        fn count(node: &Node) -> usize {
            1 + node
                .children
                .iter()
                .flatten()
                .map(|c| count(c))
                .sum::<usize>()
        }
        count(&self.root)
    }

    /// Longest-prefix match.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let mut node = &self.root;
        let mut best = node.next_hop;
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if node.next_hop.is_some() {
                        best = node.next_hop;
                    }
                }
                None => break,
            }
        }
        best
    }

    /// All routes in the table, in depth-first (prefix, ascending-bit)
    /// order. Each stored prefix appears exactly once — duplicates were
    /// already collapsed by [`Fib::insert`]'s replace semantics.
    pub fn routes(&self) -> Vec<Route> {
        fn walk(node: &Node, prefix: u32, len: u8, out: &mut Vec<Route>) {
            if let Some(next_hop) = node.next_hop {
                out.push(Route {
                    prefix,
                    len,
                    next_hop,
                });
            }
            for (bit, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    walk(child, prefix | ((bit as u32) << (31 - len)), len + 1, out);
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, 0, 0, &mut out);
        out
    }
}

/// A DIR-24-8 flat-table longest-prefix classifier compiled from a
/// [`Fib`].
///
/// The classic two-level layout: a 2^24-entry top table indexed by the
/// high 24 address bits resolves every prefix of length ≤ 24 in a single
/// load, and slots covered by a longer prefix point at a 256-entry
/// overflow block indexed by the low byte. Next hops are interned so the
/// tables hold dense `u16` codes:
///
/// * `0` — no route covers the slot;
/// * `1..=0x7fff` — direct hit, next hop is `hops[code - 1]`;
/// * `0x8000 | block` — (top table only) consult overflow block `block`.
///
/// Lookups are two dependent loads worst case, no pointer chasing and no
/// branches on prefix length — the shape the batched forwarding path
/// wants. Build cost is O(routes × covered slots) into ~32 MiB of table,
/// so compile once per route table and share (the serve layer builds one
/// per table generation, shared by every shard). Agreement with the trie
/// oracle over random tables is pinned by `tests/dir24_8.rs`.
#[derive(Debug, Clone)]
pub struct Dir24_8 {
    tbl24: Vec<u16>,
    overflow: Vec<u16>,
    hops: Vec<u32>,
}

/// Direct-hit codes are 15-bit, so at most this many distinct next hops
/// can be interned (far above any modeled table).
const MAX_HOPS: usize = 0x7fff;
/// Top-level entries with this bit set index an overflow block.
const OVERFLOW_BIT: u16 = 0x8000;

/// A route set too large for the classifier's 15-bit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// This many distinct next hops, over the 32767 direct-hit codes.
    NextHops(usize),
    /// This many /24 slots holding a /25 or longer route, over the 32767
    /// overflow blocks.
    OverflowBlocks(usize),
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (count, what) = match self {
            CapacityError::NextHops(n) => (n, "distinct next hops"),
            CapacityError::OverflowBlocks(n) => (n, "overflow blocks (/24s holding a /25-/32)"),
        };
        write!(f, "{count} {what} exceed the DIR-24-8 limit of {MAX_HOPS}")
    }
}

impl Dir24_8 {
    /// Compiles the classifier from a trie.
    pub fn from_fib(fib: &Fib) -> Self {
        Self::from_routes(&fib.routes())
    }

    /// Checks that [`Dir24_8::from_routes`] can compile `routes` without
    /// running out of next-hop codes or overflow blocks, so a caller
    /// holding untrusted routes can refuse them instead of panicking in
    /// the build.
    ///
    /// # Errors
    ///
    /// The first limit `routes` exceeds.
    pub fn check_capacity(routes: &[Route]) -> Result<(), CapacityError> {
        let hops: HashSet<u32> = routes.iter().map(|r| r.next_hop).collect();
        if hops.len() > MAX_HOPS {
            return Err(CapacityError::NextHops(hops.len()));
        }
        let blocks: HashSet<u32> = routes
            .iter()
            .filter(|r| r.len > 24)
            .map(|r| r.prefix >> 8)
            .collect();
        if blocks.len() > MAX_HOPS {
            return Err(CapacityError::OverflowBlocks(blocks.len()));
        }
        Ok(())
    }

    /// Compiles the classifier from a route list. Routes are applied in
    /// ascending prefix-length order (stable, so a later duplicate of the
    /// same prefix wins) — longer prefixes overwrite the slots of the
    /// shorter ones they nest inside, which is exactly longest-prefix
    /// semantics once lookups read the final table.
    ///
    /// # Panics
    ///
    /// Panics on invalid routes (host bits set, `len > 32`), more than
    /// 32767 distinct next hops, or more than 32767 overflow blocks
    /// ([`Dir24_8::check_capacity`] tells the last two in advance).
    pub fn from_routes(routes: &[Route]) -> Self {
        let mut sorted: Vec<Route> = routes.to_vec();
        sorted.sort_by_key(|r| r.len);
        let mut dir = Dir24_8 {
            tbl24: vec![0u16; 1 << 24],
            overflow: Vec::new(),
            hops: Vec::new(),
        };
        // Build-time intern index: hop -> direct-hit code. A linear scan
        // here made rebuilds quadratic in distinct next hops, which the
        // live control plane turns into a hot path (tables are rebuilt on
        // every route-churn swap).
        let mut codes: HashMap<u32, u16> = HashMap::with_capacity(routes.len().min(MAX_HOPS));
        for route in sorted {
            assert!(route.len <= 32, "prefix length out of range");
            if route.len < 32 {
                assert_eq!(
                    route.prefix & ((1u64 << (32 - route.len)) - 1) as u32,
                    0,
                    "host bits set in prefix"
                );
            }
            let code = *codes.entry(route.next_hop).or_insert_with(|| {
                assert!(dir.hops.len() < MAX_HOPS, "next-hop space exhausted");
                dir.hops.push(route.next_hop);
                dir.hops.len() as u16
            });
            if route.len <= 24 {
                // ≤24 routes are applied before any overflow block exists
                // (ascending-length order), so a plain range fill is safe.
                let start = (route.prefix >> 8) as usize;
                let span = 1usize << (24 - route.len);
                dir.tbl24[start..start + span].fill(code);
            } else {
                let slot = (route.prefix >> 8) as usize;
                let entry = dir.tbl24[slot];
                let block = if entry & OVERFLOW_BIT != 0 {
                    (entry & !OVERFLOW_BIT) as usize
                } else {
                    // Promote the slot: seed a fresh block with the ≤24
                    // route that covered it (same code space), then point
                    // the slot at the block.
                    let block = dir.overflow.len() / 256;
                    assert!(block < MAX_HOPS, "overflow block space exhausted");
                    dir.overflow.resize(dir.overflow.len() + 256, entry);
                    dir.tbl24[slot] = OVERFLOW_BIT | block as u16;
                    block
                };
                let low = (route.prefix & 0xff) as usize;
                let span = 1usize << (32 - route.len);
                dir.overflow[block * 256 + low..block * 256 + low + span].fill(code);
            }
        }
        dir
    }

    /// Longest-prefix match; agrees with [`Fib::lookup`] on the table the
    /// classifier was compiled from.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let entry = self.tbl24[(addr >> 8) as usize];
        let code = if entry & OVERFLOW_BIT != 0 {
            self.overflow[((entry & !OVERFLOW_BIT) as usize) * 256 + (addr & 0xff) as usize]
        } else {
            entry
        };
        if code == 0 {
            None
        } else {
            Some(self.hops[code as usize - 1])
        }
    }

    /// Batched lookup: one verdict per address, written into `hops`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn lookup_batch(&self, addrs: &[u32], hops: &mut [Option<u32>]) {
        assert_eq!(addrs.len(), hops.len(), "one verdict slot per address");
        for (addr, hop) in addrs.iter().zip(hops.iter_mut()) {
            *hop = self.lookup(*addr);
        }
    }

    /// Number of allocated overflow blocks (diagnostics).
    pub fn overflow_blocks(&self) -> usize {
        self.overflow.len() / 256
    }

    /// Number of distinct interned next hops.
    pub fn distinct_hops(&self) -> usize {
        self.hops.len()
    }
}

/// Builds a deterministic synthetic table of `n` routes spread over the
/// address space (used by the workloads and benches).
pub fn synthetic_table(n: usize) -> Fib {
    let mut fib = Fib::new();
    // A default route plus /16s and /24s interleaved.
    fib.insert(Route {
        prefix: 0,
        len: 0,
        next_hop: 0,
    });
    for i in 0..n {
        let i32b = i as u32;
        if i % 3 == 0 {
            let prefix = (10u32 << 24) | ((i32b & 0xff) << 16);
            fib.insert(Route {
                prefix,
                len: 16,
                next_hop: 100 + i32b,
            });
        } else {
            let prefix = (192u32 << 24) | (168 << 16) | ((i32b & 0xff) << 8);
            fib.insert(Route {
                prefix,
                len: 24,
                next_hop: 200 + i32b,
            });
        }
    }
    fib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 1,
        });
        fib.insert(Route {
            prefix: 0x0a0a_0000,
            len: 16,
            next_hop: 2,
        });
        fib.insert(Route {
            prefix: 0x0a0a_0a00,
            len: 24,
            next_hop: 3,
        });
        assert_eq!(fib.lookup(0x0a0a_0a05), Some(3));
        assert_eq!(fib.lookup(0x0a0a_0505), Some(2));
        assert_eq!(fib.lookup(0x0a05_0505), Some(1));
        assert_eq!(fib.lookup(0x0b00_0000), None);
    }

    #[test]
    fn default_route_catches_all() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 9,
        });
        assert_eq!(fib.lookup(0xffff_ffff), Some(9));
        assert_eq!(fib.lookup(0), Some(9));
    }

    #[test]
    fn replace_updates_in_place() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 1,
        });
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 7,
        });
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.lookup(0x0a01_0101), Some(7));
    }

    #[test]
    #[should_panic(expected = "host bits")]
    fn rejects_host_bits() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0x0a00_0001,
            len: 8,
            next_hop: 1,
        });
    }

    #[test]
    fn host_route_matches_exactly() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0xc0a8_0101,
            len: 32,
            next_hop: 5,
        });
        assert_eq!(fib.lookup(0xc0a8_0101), Some(5));
        assert_eq!(fib.lookup(0xc0a8_0102), None);
    }

    #[test]
    fn duplicate_prefix_last_write_wins_repeatedly() {
        let mut fib = Fib::new();
        for hop in [1u32, 2, 3, 4] {
            fib.insert(Route {
                prefix: 0xc0a8_0000,
                len: 16,
                next_hop: hop,
            });
        }
        assert_eq!(fib.len(), 1, "replacement never inflates the count");
        assert_eq!(fib.lookup(0xc0a8_1234), Some(4));
        // Replacing a /0 behaves the same (the root node is special-cased
        // nowhere).
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 10,
        });
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 11,
        });
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.lookup(0x0102_0304), Some(11));
    }

    #[test]
    fn default_route_loses_to_any_longer_match() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 99,
        });
        fib.insert(Route {
            prefix: 0x8000_0000,
            len: 1,
            next_hop: 1,
        });
        // Addresses under the /1 take the /1; everything else falls back.
        assert_eq!(fib.lookup(0xffff_ffff), Some(1));
        assert_eq!(fib.lookup(0x7fff_ffff), Some(99));
        assert_eq!(fib.lookup(0), Some(99));
    }

    #[test]
    fn nested_prefixes_tie_break_to_the_longest_on_every_boundary() {
        // A full nesting chain /0 ⊃ /8 ⊃ /16 ⊃ /24 ⊃ /32: each address
        // picks exactly the deepest covering prefix, including addresses
        // that diverge one bit past a shorter match.
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 0,
        });
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 8,
        });
        fib.insert(Route {
            prefix: 0x0a0b_0000,
            len: 16,
            next_hop: 16,
        });
        fib.insert(Route {
            prefix: 0x0a0b_0c00,
            len: 24,
            next_hop: 24,
        });
        fib.insert(Route {
            prefix: 0x0a0b_0c0d,
            len: 32,
            next_hop: 32,
        });
        assert_eq!(fib.len(), 5);
        assert_eq!(fib.lookup(0x0a0b_0c0d), Some(32), "exact host route");
        assert_eq!(fib.lookup(0x0a0b_0c0c), Some(24), "one bit off the /32");
        assert_eq!(fib.lookup(0x0a0b_0d00), Some(16), "outside the /24");
        assert_eq!(fib.lookup(0x0a0c_0000), Some(8), "outside the /16");
        assert_eq!(fib.lookup(0x0b00_0000), Some(0), "outside the /8");
        // A sibling branch never inherits a cousin's longer match.
        fib.insert(Route {
            prefix: 0x0a0b_8000,
            len: 17,
            next_hop: 17,
        });
        assert_eq!(fib.lookup(0x0a0b_8001), Some(17));
        assert_eq!(fib.lookup(0x0a0b_7fff), Some(16));
    }

    #[test]
    fn remove_is_exact_match_and_returns_the_hop() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 1,
        });
        fib.insert(Route {
            prefix: 0x0a0b_0000,
            len: 16,
            next_hop: 2,
        });
        // Withdrawing the nested /16 exposes the covering /8 again.
        assert_eq!(fib.remove(0x0a0b_0000, 16), Some(2));
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.lookup(0x0a0b_0105), Some(1));
        // Exact-match only: no /16 left, and the /8 is not LPM-withdrawn.
        assert_eq!(fib.remove(0x0a0b_0000, 16), None);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.remove(0x0a00_0000, 8), Some(1));
        assert!(fib.is_empty());
        assert_eq!(fib.lookup(0x0a0b_0105), None);
    }

    #[test]
    fn remove_prunes_emptied_branches() {
        let mut fib = Fib::new();
        assert_eq!(fib.nodes(), 1, "just the root");
        fib.insert(Route {
            prefix: 0xc0a8_0101,
            len: 32,
            next_hop: 5,
        });
        assert_eq!(fib.nodes(), 33, "root plus one 32-deep spine");
        fib.insert(Route {
            prefix: 0xc0a8_0000,
            len: 16,
            next_hop: 6,
        });
        assert_eq!(fib.remove(0xc0a8_0101, 32), Some(5));
        // The spine below the /16 is gone; the /16 path stays.
        assert_eq!(fib.nodes(), 17);
        assert_eq!(fib.lookup(0xc0a8_0101), Some(6));
        assert_eq!(fib.remove(0xc0a8_0000, 16), Some(6));
        assert_eq!(fib.nodes(), 1, "back to the bare root");
        // A long insert/withdraw churn cannot grow the trie.
        for i in 0..1000u32 {
            fib.insert(Route {
                prefix: i << 8,
                len: 24,
                next_hop: i,
            });
            assert_eq!(fib.remove(i << 8, 24), Some(i));
        }
        assert_eq!(fib.nodes(), 1);
    }

    #[test]
    fn remove_default_route_keeps_longer_matches() {
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0,
            len: 0,
            next_hop: 9,
        });
        fib.insert(Route {
            prefix: 0x0a00_0000,
            len: 8,
            next_hop: 1,
        });
        assert_eq!(fib.remove(0, 0), Some(9));
        assert_eq!(fib.lookup(0x0a01_0101), Some(1), "the /8 survives");
        assert_eq!(fib.lookup(0x0b00_0000), None, "no default any more");
        assert_eq!(fib.remove(0, 0), None, "default already withdrawn");
    }

    #[test]
    #[should_panic(expected = "host bits")]
    fn remove_rejects_host_bits() {
        Fib::new().remove(0x0a00_0001, 8);
    }

    #[test]
    fn dir24_8_build_with_many_distinct_hops_is_near_linear() {
        // Every route gets its own next hop — the worst case for the
        // intern index. With the old O(hops) linear scan this build was
        // quadratic (~450M probes at this size, tens of seconds in a
        // debug test run); the hashed index finishes in well under the
        // budget even unoptimized.
        let n: u32 = 30_000;
        let routes: Vec<Route> = (0..n)
            .map(|i| Route {
                prefix: i << 8,
                len: 24,
                next_hop: 1_000_000 + i,
            })
            .collect();
        let t0 = std::time::Instant::now();
        let dir = Dir24_8::from_routes(&routes);
        let elapsed = t0.elapsed();
        assert_eq!(dir.distinct_hops(), n as usize);
        assert_eq!(dir.lookup(0), Some(1_000_000));
        assert_eq!(dir.lookup((n - 1) << 8 | 0x17), Some(1_000_000 + n - 1));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "many-hops build took {elapsed:?} — intern has gone super-linear"
        );
    }

    #[test]
    fn synthetic_table_is_usable() {
        let fib = synthetic_table(32);
        assert!(fib.len() > 20);
        // Everything resolves at least to the default route.
        assert!(fib.lookup(0x0102_0304).is_some());
        assert_eq!(fib.lookup(0xc0a8_0105), Some(201));
    }

    #[test]
    fn routes_round_trips_through_a_fresh_trie() {
        let fib = synthetic_table(32);
        let routes = fib.routes();
        assert_eq!(routes.len(), fib.len());
        let mut rebuilt = Fib::new();
        for r in &routes {
            rebuilt.insert(*r);
        }
        assert_eq!(rebuilt.len(), fib.len());
        assert_eq!(rebuilt.routes(), routes, "stable enumeration order");
        for addr in [0u32, 0x0a05_0000, 0xc0a8_0123, 0xffff_ffff] {
            assert_eq!(rebuilt.lookup(addr), fib.lookup(addr));
        }
    }

    #[test]
    fn dir24_8_matches_the_trie_on_the_synthetic_table() {
        let fib = synthetic_table(64);
        let dir = Dir24_8::from_fib(&fib);
        for addr in [
            0u32,
            0x0a00_0000,
            0x0a05_1234,
            0xc0a8_0105,
            0xc0a8_1505,
            0x0102_0304,
            0xffff_ffff,
        ] {
            assert_eq!(dir.lookup(addr), fib.lookup(addr), "addr {addr:#010x}");
        }
    }

    #[test]
    fn dir24_8_overflow_blocks_resolve_long_prefixes() {
        // A /26 and a /32 nested inside a /24 inside a /16: the shared
        // tbl24 slot must promote to an overflow block that still serves
        // the shorter covering routes for unmatched low bytes.
        let mut fib = Fib::new();
        fib.insert(Route {
            prefix: 0xc0a8_0000,
            len: 16,
            next_hop: 1,
        });
        fib.insert(Route {
            prefix: 0xc0a8_0100,
            len: 24,
            next_hop: 2,
        });
        fib.insert(Route {
            prefix: 0xc0a8_0140,
            len: 26,
            next_hop: 3,
        });
        fib.insert(Route {
            prefix: 0xc0a8_0142,
            len: 32,
            next_hop: 4,
        });
        let dir = Dir24_8::from_fib(&fib);
        assert_eq!(dir.overflow_blocks(), 1, "one promoted slot");
        assert_eq!(dir.distinct_hops(), 4);
        for addr in [
            0xc0a8_0142u32, // the host route
            0xc0a8_0141,    // inside the /26, one off the /32
            0xc0a8_017f,    // last address of the /26
            0xc0a8_0180,    // past the /26, back on the /24
            0xc0a8_0100,    // first address of the /24
            0xc0a8_0200,    // sibling /24 slot, served by the /16
            0xc0a9_0000,    // outside the /16 entirely
        ] {
            assert_eq!(dir.lookup(addr), fib.lookup(addr), "addr {addr:#010x}");
        }
        assert_eq!(dir.lookup(0xc0a8_0142), Some(4));
        assert_eq!(dir.lookup(0xc0a9_0000), None);
    }

    #[test]
    fn dir24_8_duplicate_prefix_last_wins() {
        // from_routes applies equal-length routes in list order, so the
        // later duplicate must win — mirroring Fib::insert's replace.
        let routes = [
            Route {
                prefix: 0x0a00_0000,
                len: 8,
                next_hop: 1,
            },
            Route {
                prefix: 0x0a00_0000,
                len: 8,
                next_hop: 7,
            },
        ];
        let dir = Dir24_8::from_routes(&routes);
        assert_eq!(dir.lookup(0x0a01_0203), Some(7));
    }

    #[test]
    fn dir24_8_empty_and_default_edges() {
        let empty = Dir24_8::from_routes(&[]);
        assert_eq!(empty.lookup(0), None);
        assert_eq!(empty.lookup(0xffff_ffff), None);
        let default_only = Dir24_8::from_routes(&[Route {
            prefix: 0,
            len: 0,
            next_hop: 9,
        }]);
        assert_eq!(default_only.lookup(0), Some(9));
        assert_eq!(default_only.lookup(0xffff_ffff), Some(9));
    }

    #[test]
    fn dir24_8_lookup_batch_matches_scalar() {
        let fib = synthetic_table(32);
        let dir = Dir24_8::from_fib(&fib);
        let addrs: Vec<u32> = (0..256).map(|i| i * 0x0101_0101).collect();
        let mut batch = vec![None; addrs.len()];
        dir.lookup_batch(&addrs, &mut batch);
        for (addr, got) in addrs.iter().zip(&batch) {
            assert_eq!(*got, dir.lookup(*addr));
        }
    }
}
