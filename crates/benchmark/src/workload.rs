//! The four workloads and their seeded inputs.
//!
//! Every input comes from the benchmark's own [`Pcg32`] streams, keyed by
//! `--seed` and a stream id, so one seed always produces the same packets
//! and the same route-churn frames. The program under test receives only
//! the generated inputs.

use memsync_netapp::fib::{synthetic_table, Route};
use memsync_netapp::Ipv4Packet;
use memsync_serve::pipeline::oracle_forwards;
use memsync_serve::router::shard_of;
use memsync_serve::BackendKind;
use memsync_trace::Pcg32;

/// One workload: which backend serves it and what the closed-loop
/// clients send.
#[derive(Debug)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// The forwarding backend the server runs.
    pub backend: BackendKind,
    /// Closed-loop data connections, one client thread each.
    pub conns: usize,
    /// Packets per submit.
    pub batch: usize,
    /// Whether submits ask the server to verify every egress frame.
    pub verify: bool,
    /// Whether a control connection mutates routes during the data
    /// window (otherwise the control schedule runs after it, on an idle
    /// server).
    pub churn: bool,
    /// Whether connection `c` sends only packets the router places on
    /// shard `c`, so that each submit runs on one shard.
    pub shard_affine: bool,
}

/// The workloads, in the order a run starts them in its first round.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "bulk",
        backend: BackendKind::Fast,
        conns: 2,
        batch: 8192,
        verify: false,
        churn: false,
        shard_affine: false,
    },
    Spec {
        name: "small",
        backend: BackendKind::Fast,
        conns: 1,
        batch: 64,
        verify: true,
        churn: false,
        shard_affine: false,
    },
    Spec {
        name: "sim",
        backend: BackendKind::Sim,
        conns: 2,
        batch: 512,
        verify: true,
        churn: false,
        shard_affine: true,
    },
    Spec {
        name: "churn",
        backend: BackendKind::Fast,
        conns: 1,
        batch: 1024,
        verify: true,
        churn: true,
        shard_affine: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Index of a workload in [`WORKLOADS`] (its stream-id prefix).
pub fn index(spec: &Spec) -> u64 {
    WORKLOADS
        .iter()
        .position(|w| w.name == spec.name)
        .expect("spec comes from WORKLOADS") as u64
}

/// Shards of the server under test.
pub const SHARDS: usize = 2;

/// Routes in the server's synthetic FIB (`ServeConfig::default().routes`).
pub const ROUTES: usize = 64;

/// Route-churn address space, RFC 2544's 198.18.0.0/15. Generated
/// destinations never fall inside it, so churn never changes a packet's
/// expected outcome.
const CHURN_NET: u32 = 0xC612_0000;
const CHURN_MASK: u32 = 0xFFFE_0000;

/// Routes per control frame.
pub const CHURN_ROUTES: usize = 32;

/// Packets pre-generated per data connection; submits cycle through them.
const POOL_PACKETS: usize = 1 << 16;

/// The seeded generator for one input stream.
pub fn rng(seed: u64, stream: u64) -> Pcg32 {
    Pcg32::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Stream id of one connection's packets in one round of a workload.
pub fn stream(spec: &Spec, round: u32, conn: usize) -> u64 {
    (index(spec) << 32) | (u64::from(round) << 8) | conn as u64
}

/// One packet: with probability 0.7 its destination lies inside the
/// synthetic FIB's /24s, otherwise it is uniformly random outside the
/// route-churn space; TTL uniform in 1..65.
pub fn packet(rng: &mut Pcg32) -> Ipv4Packet {
    let dst = if rng.gen_bool(0.7) {
        let i = rng.gen_range_u32(0..ROUTES as u32);
        0xC0A8_0000 | ((i & 0xff) << 8) | rng.gen_range_u32(0..256)
    } else {
        loop {
            let d = rng.next_u32();
            if d & CHURN_MASK != CHURN_NET {
                break d;
            }
        }
    };
    let ttl = rng.gen_range(1..65) as u8;
    Ipv4Packet::new(rng.next_u32(), dst, ttl, 17, 64)
}

/// `n` packets from [`packet`].
pub fn packets(rng: &mut Pcg32, n: usize) -> Vec<Ipv4Packet> {
    (0..n).map(|_| packet(rng)).collect()
}

/// One connection's submits and their expected forwarded counts, all
/// computed before any timing starts.
#[derive(Debug)]
pub struct Plan {
    /// Submit batches, sent in order and cycled.
    pub batches: Vec<Vec<Ipv4Packet>>,
    /// Forwarded count the oracle expects for each batch.
    pub expect: Vec<u32>,
}

impl Plan {
    /// Batches of `batch` packets from one seeded stream, keeping only
    /// packets the router places on `shard` when one is given, with the
    /// expected forwarded counts from [`oracle_forwards`] against the
    /// server's boot table.
    pub fn new(mut rng: Pcg32, batch: usize, shard: Option<usize>) -> Plan {
        let fib = synthetic_table(ROUTES);
        let mut stream = std::iter::repeat_with(|| packet(&mut rng))
            .filter(|p| shard.is_none_or(|s| shard_of(p.dst, SHARDS) == s));
        let batches: Vec<Vec<Ipv4Packet>> = (0..(POOL_PACKETS / batch).max(1))
            .map(|_| stream.by_ref().take(batch).collect())
            .collect();
        let expect = batches
            .iter()
            .map(|b| b.iter().filter(|p| oracle_forwards(p, &fib)).count() as u32)
            .collect();
        Plan { batches, expect }
    }
}

/// Checks one submit reply against the oracle: every packet accounted
/// for, exactly the expected number forwarded, and no verify mismatch.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn check_batch(
    expected: u32,
    len: usize,
    forwarded: u32,
    dropped: u32,
    mismatches: u32,
) -> Result<(), String> {
    if forwarded as usize + dropped as usize != len {
        return Err(format!(
            "{forwarded} forwarded + {dropped} dropped != {len} submitted"
        ));
    }
    if forwarded != expected {
        return Err(format!(
            "{forwarded} forwarded, the oracle expects {expected}"
        ));
    }
    if mismatches != 0 {
        return Err(format!("{mismatches} verify mismatches"));
    }
    Ok(())
}

/// The route set every control frame adds or withdraws: 32 consecutive
/// /24s at a seeded offset inside the route-churn space.
pub fn churn_routes(seed: u64) -> Vec<Route> {
    let first = rng(seed, u64::MAX).gen_range_u32(0..(512 - CHURN_ROUTES as u32));
    (0..CHURN_ROUTES as u32)
        .map(|i| Route {
            prefix: CHURN_NET | ((first + i) << 8),
            len: 24,
            next_hop: 9_000 + i,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_no_churn_space_destinations() {
        let a = packets(&mut rng(7, 1), 20_000);
        assert_eq!(a, packets(&mut rng(7, 1), 20_000));
        assert_ne!(a, packets(&mut rng(8, 1), 20_000));
        assert_ne!(a, packets(&mut rng(7, 2), 20_000));
        assert!(a.iter().all(|p| p.dst & CHURN_MASK != CHURN_NET));
        let inside = a.iter().filter(|p| p.dst >> 16 == 0xC0A8).count();
        assert!((13_000..15_000).contains(&inside), "about 70%: {inside}");
    }

    #[test]
    fn shard_affine_plans_stay_on_their_shard() {
        for shard in 0..SHARDS {
            let plan = Plan::new(rng(4, 9), 512, Some(shard));
            assert_eq!(plan.batches.len(), POOL_PACKETS / 512);
            assert!(plan
                .batches
                .iter()
                .flatten()
                .all(|p| shard_of(p.dst, SHARDS) == shard));
            assert_eq!(plan.expect, Plan::new(rng(4, 9), 512, Some(shard)).expect);
        }
    }

    #[test]
    fn churn_routes_stay_inside_the_churn_space() {
        let r = churn_routes(3);
        assert_eq!(r.len(), CHURN_ROUTES);
        assert!(r.iter().all(|r| r.prefix & CHURN_MASK == CHURN_NET));
        assert_eq!(r, churn_routes(3));
    }

    #[test]
    fn oracle_check_rejects_a_wrong_count() {
        let plan = Plan::new(rng(1, 0), 64, None);
        let (want, len) = (plan.expect[0], plan.batches[0].len());
        let dropped = len as u32 - want;
        assert!(check_batch(want, len, want, dropped, 0).is_ok());
        assert!(check_batch(want + 1, len, want, dropped, 0).is_err());
        assert!(check_batch(want, len, want, dropped + 1, 0).is_err());
        assert!(check_batch(want, len, want, dropped, 1).is_err());
    }
}
