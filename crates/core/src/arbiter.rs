//! Parametric round-robin arbiter, as netlist generator and as behavioral
//! model.
//!
//! §3.1: "we have implemented a simple round robin arbitration scheme" for
//! the pseudo-ports sharing the guarded read port. The generator builds a
//! rotating-priority encoder whose LUT cost grows with the number of
//! requesters (the source of the Table 1 LUT growth); the behavioral model
//! is the single source of truth the simulator uses.

use memsync_rtl::builder::ModuleBuilder;
use memsync_rtl::netlist::NetId;

/// Fixed pointer width of the base architecture (supports up to 8
/// requesters — this fixed sizing is why the paper's flip-flop count stays
/// constant as consumers scale).
pub const POINTER_WIDTH: u32 = 3;

/// Behavioral round-robin arbiter state.
///
/// Requests arrive as a bit mask (bit `i` set: requester `i` requests),
/// and the grant is the rotating-priority encoder [`generate_into`]
/// builds: rotate the mask so the pointer's requester sits at bit 0, take
/// the lowest set bit, and rotate the winner back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds 8 (the base architecture limit).
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=8).contains(&n),
            "round-robin arbiter supports 1..=8 requesters"
        );
        RoundRobin { n, next: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has zero requesters (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The requester that currently holds priority.
    pub fn pointer(&self) -> usize {
        self.next
    }

    /// Grants one requester among `requests` (bit `i` set = requester `i`
    /// requesting), starting the search at the rotating pointer. Advances
    /// the pointer past the winner so every requester is served in turn.
    ///
    /// # Panics
    ///
    /// Panics if `requests` sets a bit at or above the requester count.
    pub fn grant(&mut self, requests: u8) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// Peeks at the winner without advancing the pointer.
    ///
    /// # Panics
    ///
    /// Panics if `requests` sets a bit at or above the requester count.
    pub fn peek(&self, requests: u8) -> Option<usize> {
        let n = self.n as u32;
        let requests = u32::from(requests);
        assert!(requests >> n == 0, "request mask wider than the arbiter");
        if requests == 0 {
            return None;
        }
        // Rotate right by the pointer within n bits: the requester that
        // holds priority lands on bit 0.
        let p = self.next as u32;
        let rotated = ((requests >> p) | (requests << (n - p))) & ((1 << n) - 1);
        let winner = self.next + rotated.trailing_zeros() as usize;
        Some(if winner >= self.n {
            winner - self.n
        } else {
            winner
        })
    }
}

/// Netlist outputs of [`generate_into`].
#[derive(Debug, Clone)]
pub struct ArbiterNets {
    /// One-hot grant per requester (combinational).
    pub grants: Vec<NetId>,
    /// Binary index of the winner ([`POINTER_WIDTH`] bits wide).
    pub index: NetId,
    /// Whether any requester won this cycle.
    pub any: NetId,
    /// Next pointer value to register (winner + 1 when `any`, else held).
    pub next_pointer: NetId,
}

/// Builds the rotating-priority arbiter combinationally inside an existing
/// module. `requests` are 1-bit nets; `pointer` is the current 3-bit
/// rotating pointer (caller registers `next_pointer` back into it).
pub fn generate_into(b: &mut ModuleBuilder, requests: &[NetId], pointer: NetId) -> ArbiterNets {
    let n = requests.len();
    assert!((1..=8).contains(&n), "arbiter supports 1..=8 requesters");

    // Grants are computed directly in requester space (no priority-space
    // index round-trip): requester `i` wins iff it requests and no
    // requester with a better rotating rank also requests. The rank of `x`
    // under pointer `p` is `(x + n - p) % n`; the set of pointer values for
    // which `j` outranks `i` is a compile-time constant, so `before_ij` is
    // just an OR of pointer decodes — the parallel form synthesis produces
    // for a rotating priority encoder.
    let ptr_is: Vec<NetId> = (0..n)
        .map(|p| {
            let pp = b.constant(p as u64, POINTER_WIDTH, "ptr_k");
            b.eq(pointer, pp, &format!("ptr_is{p}"))
        })
        .collect();
    let rank = |x: usize, p: usize| (x + n - p) % n;

    let mut grants: Vec<NetId> = Vec::with_capacity(n);
    for i in 0..n {
        let mut blocked_terms: Vec<NetId> = Vec::new();
        for (j, &req_j) in requests.iter().enumerate() {
            if j == i {
                continue;
            }
            let subset: Vec<NetId> = (0..n)
                .filter(|&p| rank(j, p) < rank(i, p))
                .map(|p| ptr_is[p])
                .collect();
            let term = match subset.len() {
                0 => continue, // j never outranks i
                len if len == n => req_j,
                1 => b.and(&[req_j, subset[0]], "blk"),
                _ => {
                    let before = b.or(&subset, "before");
                    b.and(&[req_j, before], "blk")
                }
            };
            blocked_terms.push(term);
        }
        let g = if blocked_terms.is_empty() {
            requests[i]
        } else {
            let blocked = if blocked_terms.len() == 1 {
                blocked_terms[0]
            } else {
                b.or(&blocked_terms, "blocked")
            };
            let nb = b.not(blocked, "nblk");
            b.and(&[requests[i], nb], &format!("grant{i}"))
        };
        grants.push(g);
    }
    let any = if n == 1 {
        requests[0]
    } else {
        b.or(requests, "any_grant")
    };

    // Winner index (drives only the pointer update): one-hot AND-OR of the
    // grant flags with their requester numbers.
    let index = {
        let mut masked: Vec<NetId> = Vec::with_capacity(n);
        for (i, g) in grants.iter().enumerate() {
            let ii = b.constant(i as u64, POINTER_WIDTH, "idx_i");
            let gmask = if POINTER_WIDTH == 1 {
                *g
            } else {
                let reps: Vec<NetId> = (0..POINTER_WIDTH).map(|_| *g).collect();
                b.concat(&reps, "g_mask")
            };
            masked.push(b.and(&[ii, gmask], "idx_masked"));
        }
        if masked.len() == 1 {
            masked[0]
        } else {
            b.or(&masked, "idx_onehot_or")
        }
    };

    // next_pointer = any ? (index + 1) mod n : pointer.
    let one = b.constant(1, POINTER_WIDTH, "one3");
    let inc = b.add(index, one, "ptr_inc");
    let wrapped = if n.is_power_of_two() && n > 1 {
        // Mask handles the wrap for power-of-two n.
        let mask = b.constant((n - 1) as u64, POINTER_WIDTH, "ptr_mask");
        b.and(&[inc, mask], "ptr_wrap")
    } else {
        let nn = b.constant(n as u64, POINTER_WIDTH, "n_const");
        let at_n = b.eq(inc, nn, "at_n");
        let zero = b.constant(0, POINTER_WIDTH, "zero3");
        b.mux(at_n, &[inc, zero], "ptr_wrap")
    };
    let next_pointer = b.mux(any, &[pointer, wrapped], "ptr_next");

    ArbiterNets {
        grants,
        index,
        any,
        next_pointer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_fpga::report::implement;
    use memsync_rtl::validate::validate;

    #[test]
    fn round_robin_is_fair() {
        let mut rr = RoundRobin::new(3);
        let mut order = Vec::new();
        for _ in 0..6 {
            order.push(rr.grant(0b111).unwrap());
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant(0b0100), Some(2));
        // Pointer moved past 2.
        assert_eq!(rr.grant(0b0101), Some(0));
    }

    #[test]
    fn no_request_no_grant() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant(0), None);
        assert_eq!(rr.pointer(), 0, "pointer holds with no grant");
    }

    #[test]
    fn peek_does_not_advance() {
        let rr = RoundRobin::new(2);
        assert_eq!(rr.peek(0b10), Some(1));
        assert_eq!(rr.pointer(), 0);
    }

    /// The rotate-and-count grant picks what probing each requester from
    /// the pointer, modulo n, picks: every width, pointer and mask.
    #[test]
    fn mask_grant_matches_the_probing_search() {
        for n in 1..=8usize {
            for pointer in 0..n {
                for requests in 0..(1u16 << n) {
                    let want = (0..n)
                        .map(|k| (pointer + k) % n)
                        .find(|&i| requests >> i & 1 == 1);
                    let mut rr = RoundRobin { n, next: pointer };
                    assert_eq!(rr.grant(requests as u8), want, "n={n} p={pointer}");
                    let next = want.map_or(pointer, |w| (w + 1) % n);
                    assert_eq!(rr.pointer(), next, "n={n} p={pointer}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than the arbiter")]
    fn rejects_requests_past_the_last_requester() {
        let _ = RoundRobin::new(3).grant(0b1000);
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn rejects_oversized() {
        let _ = RoundRobin::new(9);
    }

    fn arbiter_module(n: usize) -> memsync_rtl::netlist::Module {
        let mut b = ModuleBuilder::new(format!("rr{n}"));
        let reqs: Vec<NetId> = (0..n).map(|i| b.input(&format!("req{i}"), 1)).collect();
        let ptr = b.net("ptr", POINTER_WIDTH);
        let nets = generate_into(&mut b, &reqs, ptr);
        b.register_into(nets.next_pointer, ptr, 0);
        for (i, g) in nets.grants.iter().enumerate() {
            b.output(&format!("grant{i}"), *g);
        }
        b.output("index", nets.index);
        b.output("any", nets.any);
        b.finish()
    }

    #[test]
    fn generated_arbiter_validates() {
        for n in [1, 2, 4, 8] {
            let m = arbiter_module(n);
            validate(&m).unwrap_or_else(|e| panic!("n={n}: {e:?}"));
        }
    }

    #[test]
    fn generated_arbiter_area_grows_with_requesters() {
        let luts: Vec<u32> = [2usize, 4, 8]
            .iter()
            .map(|&n| implement(&arbiter_module(n)).unwrap().luts)
            .collect();
        assert!(luts[0] < luts[1] && luts[1] < luts[2], "{luts:?}");
    }

    #[test]
    fn generated_arbiter_ffs_are_pointer_only() {
        for n in [2usize, 4, 8] {
            let r = implement(&arbiter_module(n)).unwrap();
            assert_eq!(r.ffs, POINTER_WIDTH, "n={n}: fixed pointer register");
        }
    }
}
