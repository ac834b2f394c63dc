//! Flow routing: dst-prefix hashing and all-or-nothing batch submission
//! across shard queues.
//!
//! A submit batch may span several shards. Backpressure must be lossless
//! and double-count-free: either *every* per-shard sub-job is enqueued,
//! or *none* is and the client gets `Busy` (it retries the whole batch).
//! The router guarantees that by locking the target queues in ascending
//! shard order (a total order, so concurrent acceptors cannot deadlock),
//! checking every capacity, and only then committing the pushes. Each
//! lock lives in its own frame of a recursion over the targets, so no
//! guard list is allocated.

use crate::frame::SubmitOptions;
use crate::queue::{Job, JobOutcome, Reply, ShardQueue};
use memsync_netapp::Ipv4Packet;
use std::sync::Arc;
use std::time::Instant;

/// Maps a destination address to its owning shard: flows are keyed by the
/// /24 dst prefix (the same `dst >> 8` the descriptor carries), mixed
/// through a 32-bit finalizer so adjacent prefixes spread across shards.
pub fn shard_of(dst: u32, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut x = dst >> 8;
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    (x as usize) % shards
}

/// Splits a batch into per-shard groups, preserving submission order
/// within each group. Only non-empty groups are returned.
///
/// One-shot convenience over [`ShardSplitter`]; the acceptor hot path
/// holds a reusable splitter instead so steady-state splits allocate
/// nothing.
pub fn split_by_shard(packets: &[Ipv4Packet], shards: usize) -> Vec<(usize, Vec<Ipv4Packet>)> {
    let mut splitter = ShardSplitter::new(shards);
    splitter.split(packets);
    splitter
        .groups()
        .map(|(shard, group)| (shard, group.to_vec()))
        .collect()
}

/// A reusable batch splitter with one scratch buffer per shard.
///
/// `split_by_shard` allocates `shards` fresh `Vec`s per call — per submit
/// batch, on the acceptor hot path. A connection keeps one
/// `ShardSplitter` instead: `split` recycles the previous split's group
/// buffers (capacity kept), so bucketing a steady stream of batches
/// costs zero allocations.
#[derive(Debug)]
pub struct ShardSplitter {
    /// One group buffer per shard, reused across splits.
    groups: Vec<Vec<Ipv4Packet>>,
    /// Shards with non-empty groups from the last split, ascending (the
    /// router's lock-acquisition order).
    active: Vec<usize>,
}

impl ShardSplitter {
    /// A splitter bucketing into `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> ShardSplitter {
        assert!(shards > 0, "cannot split into zero shards");
        ShardSplitter {
            groups: vec![Vec::new(); shards],
            active: Vec::with_capacity(shards),
        }
    }

    /// How many shards this splitter buckets into.
    pub fn shards(&self) -> usize {
        self.groups.len()
    }

    /// Buckets `packets` by dst-prefix hash, preserving submission order
    /// within each group. The previous split's buffers are recycled.
    pub fn split(&mut self, packets: &[Ipv4Packet]) {
        for &s in &self.active {
            self.groups[s].clear();
        }
        self.active.clear();
        for p in packets {
            let s = shard_of(p.dst, self.groups.len());
            if self.groups[s].is_empty() {
                self.active.push(s);
            }
            self.groups[s].push(*p);
        }
        self.active.sort_unstable();
    }

    /// The non-empty groups of the last split, ascending by shard.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[Ipv4Packet])> {
        self.active.iter().map(|&s| (s, self.groups[s].as_slice()))
    }
}

/// Routes submit batches onto the shard queues.
#[derive(Debug, Clone)]
pub struct Router {
    queues: Vec<Arc<ShardQueue>>,
}

impl Router {
    /// A router over one queue per shard.
    pub fn new(queues: Vec<Arc<ShardQueue>>) -> Self {
        Router { queues }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Atomically submits a batch: splits by dst-prefix hash (into
    /// `splitter`'s reusable scratch), locks the target queues in shard
    /// order, and commits only if every target has room. On failure
    /// returns the first full shard and enqueues *nothing*. Returns the
    /// number of sub-jobs created on success (the acceptor collects
    /// exactly that many outcomes).
    ///
    /// # Errors
    ///
    /// `Err(shard)` when `shard`'s queue was full.
    ///
    /// # Panics
    ///
    /// Panics if `splitter` was built for a different shard count.
    pub fn submit(
        &self,
        splitter: &mut ShardSplitter,
        packets: &[Ipv4Packet],
        options: SubmitOptions,
        reply: &Reply<JobOutcome>,
    ) -> Result<usize, u16> {
        assert_eq!(
            splitter.shards(),
            self.queues.len(),
            "splitter shard count must match the router"
        );
        splitter.split(packets);
        self.commit(splitter, &splitter.active, options, reply)?;
        Ok(splitter.active.len())
    }

    /// Locks `targets[0]`'s queue (targets ascend), refuses if it is
    /// full, commits the rest under it, then pushes while every lock is
    /// held; a refusal returns before any push. Returns the instant the
    /// last lock was taken: every job's enqueue time.
    fn commit(
        &self,
        splitter: &ShardSplitter,
        targets: &[usize],
        options: SubmitOptions,
        reply: &Reply<JobOutcome>,
    ) -> Result<Instant, u16> {
        let Some((&shard, rest)) = targets.split_first() else {
            return Ok(Instant::now());
        };
        let queue = &self.queues[shard];
        let mut guard = queue.lock();
        if guard.len() >= queue.capacity() {
            return Err(shard as u16);
        }
        let now = self.commit(splitter, rest, options, reply)?;
        // One exact-size allocation per sub-job: the job owns its packets.
        queue.push_locked(
            &mut guard,
            Job {
                packets: splitter.groups[shard].to_vec(),
                options,
                reply: reply.clone(),
                enqueued: now,
            },
        );
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_netapp::Workload;
    use std::sync::mpsc::channel;

    #[test]
    fn shard_of_is_deterministic_and_prefix_keyed() {
        // Same /24 -> same shard regardless of host byte.
        for shards in [1usize, 2, 4, 7] {
            let a = shard_of(0xc0a8_0101, shards);
            assert_eq!(shard_of(0xc0a8_01ff, shards), a);
            assert!(a < shards);
        }
        // The workload's prefixes spread over >1 shard when there are 4.
        let w = Workload::generate(9, 200, 32);
        let mut seen = [false; 4];
        for p in &w.packets {
            seen[shard_of(p.dst, 4)] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() >= 2, "hash spreads");
    }

    #[test]
    fn split_preserves_order_and_loses_nothing() {
        let w = Workload::generate(5, 100, 16);
        let groups = split_by_shard(&w.packets, 4);
        let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(total, 100);
        for (shard, g) in &groups {
            // Every packet landed on its hashed shard, in original order.
            let expect: Vec<_> = w
                .packets
                .iter()
                .filter(|p| shard_of(p.dst, 4) == *shard)
                .copied()
                .collect();
            assert_eq!(g, &expect);
        }
    }

    #[test]
    fn splitter_reuse_matches_one_shot_splits() {
        // The same splitter run over several batches must give exactly
        // what fresh split_by_shard calls give — recycled scratch never
        // leaks packets across splits (including groups active in one
        // split and empty in the next).
        let w = Workload::generate(13, 300, 16);
        let mut splitter = ShardSplitter::new(4);
        for chunk in w.packets.chunks(70) {
            splitter.split(chunk);
            let got: Vec<(usize, Vec<Ipv4Packet>)> = splitter
                .groups()
                .map(|(shard, group)| (shard, group.to_vec()))
                .collect();
            assert_eq!(got, split_by_shard(chunk, 4));
        }
        // An empty split leaves no active groups behind.
        splitter.split(&[]);
        assert_eq!(splitter.groups().count(), 0);
    }

    #[test]
    fn submit_is_all_or_nothing_across_shards() {
        // Two shards; shard queues of capacity 1. Fill one target shard,
        // then submit a batch spanning both: nothing may be enqueued.
        let queues: Vec<_> = (0..2).map(|_| Arc::new(ShardQueue::new(1))).collect();
        let router = Router::new(queues.clone());
        let mut splitter = ShardSplitter::new(2);
        let w = Workload::generate(11, 64, 16);
        let (tx, _rx) = channel();
        let tx = Reply::new(tx);
        // Find one packet per shard.
        let p0 = *w.packets.iter().find(|p| shard_of(p.dst, 2) == 0).unwrap();
        let p1 = *w.packets.iter().find(|p| shard_of(p.dst, 2) == 1).unwrap();
        // Fill shard 1.
        assert_eq!(
            router.submit(&mut splitter, &[p1], SubmitOptions::new(), &tx),
            Ok(1)
        );
        let before0 = queues[0].len();
        // A spanning batch must refuse entirely: shard 1 is full.
        assert_eq!(
            router.submit(&mut splitter, &[p0, p1], SubmitOptions::new(), &tx),
            Err(1)
        );
        assert_eq!(queues[0].len(), before0, "shard 0 saw no partial enqueue");
        // Shard-0-only traffic still flows.
        assert_eq!(
            router.submit(&mut splitter, &[p0], SubmitOptions::new(), &tx),
            Ok(1)
        );
    }
}
