//! LUT clustering: packing trees of small gates into 4-input LUTs.
//!
//! Generators emit fine-grained gate networks (2-input ANDs/ORs, inverters,
//! 1-bit comparisons). Synthesis collapses any fanout-free tree of such
//! gates into LUT4s. This module finds those trees — maximal connected
//! subgraphs of 1-bit logic gates linked through fanout-1 nets — and reports
//! per-cluster external input counts, from which both the area model
//! (`ceil((n-1)/3)` LUTs) and the timing model (`gate_tree_levels(n)` LUT
//! levels) derive their numbers. Both models consume the same clustering so
//! area and delay stay consistent.

use memsync_rtl::netlist::{Module, NetId, PrimOp};
use std::collections::BTreeSet;

/// Whether an instance is a 1-bit logic gate that synthesis can absorb
/// into a LUT tree.
pub fn is_mergeable(module: &Module, inst: &memsync_rtl::netlist::Instance) -> bool {
    let one_bit_out = inst
        .outputs
        .first()
        .map(|&o| module.width(o) == 1)
        .unwrap_or(false);
    match inst.op {
        PrimOp::And | PrimOp::Or | PrimOp::Xor | PrimOp::Not => {
            one_bit_out && inst.inputs.iter().all(|&i| module.width(i) == 1)
        }
        PrimOp::Eq | PrimOp::Ne => one_bit_out && inst.inputs.iter().all(|&i| module.width(i) == 1),
        _ => false,
    }
}

/// Clustering result.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster id per instance (None for non-mergeable instances).
    pub cluster_of: Vec<Option<usize>>,
    /// Per-cluster data.
    pub clusters: Vec<Cluster>,
}

/// One packed LUT tree.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Instance indices in the cluster.
    pub members: Vec<usize>,
    /// Root instance (the one whose output leaves the cluster).
    pub root: usize,
    /// Distinct external input nets.
    pub ext_inputs: Vec<NetId>,
}

impl Cluster {
    /// Number of distinct external inputs.
    pub fn input_count(&self) -> u32 {
        self.ext_inputs.len() as u32
    }
}

impl Clustering {
    /// Whether the instance is the root of its cluster.
    pub fn is_root(&self, inst_idx: usize) -> bool {
        self.cluster_of[inst_idx].is_some_and(|cid| self.clusters[cid].root == inst_idx)
    }

    /// Cluster of an instance, if any.
    pub fn cluster(&self, inst_idx: usize) -> Option<&Cluster> {
        self.cluster_of[inst_idx].map(|cid| &self.clusters[cid])
    }
}

/// Computes the clustering of a module.
pub fn clusters(module: &Module) -> Clustering {
    let n = module.instances.len();
    let mergeable: Vec<bool> = module
        .instances
        .iter()
        .map(|i| is_mergeable(module, i))
        .collect();

    let fanout = module.fanout();
    let driver = module.drivers();

    // Union-find over instances.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (idx, inst) in module.instances.iter().enumerate() {
        if !mergeable[idx] {
            continue;
        }
        for &input in &inst.inputs {
            if fanout[input.0] != 1 {
                continue;
            }
            if let Some(d) = driver[input.0] {
                if mergeable[d] {
                    let a = find(&mut parent, idx);
                    let b = find(&mut parent, d);
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
    }

    // Collect clusters.
    let mut cluster_ids: Vec<Option<usize>> = vec![None; n];
    let mut roots: Vec<usize> = Vec::new();
    for idx in 0..n {
        if !mergeable[idx] {
            continue;
        }
        let r = find(&mut parent, idx);
        let cid = match roots.iter().position(|&x| x == r) {
            Some(c) => c,
            None => {
                roots.push(r);
                roots.len() - 1
            }
        };
        cluster_ids[idx] = Some(cid);
    }

    let mut clusters_out: Vec<Cluster> = roots
        .iter()
        .map(|_| Cluster {
            members: Vec::new(),
            root: usize::MAX,
            ext_inputs: Vec::new(),
        })
        .collect();
    for (idx, cid) in cluster_ids.iter().enumerate() {
        if let Some(cid) = *cid {
            clusters_out[cid].members.push(idx);
        }
    }
    // Single consumer instance per net (only meaningful when fanout == 1).
    let mut sole_consumer: Vec<Option<usize>> = vec![None; module.nets.len()];
    for (idx, inst) in module.instances.iter().enumerate() {
        for &i in &inst.inputs {
            if fanout[i.0] == 1 {
                sole_consumer[i.0] = Some(idx);
            }
        }
    }
    for (cid, cluster) in clusters_out.iter_mut().enumerate() {
        let mut ext: BTreeSet<NetId> = BTreeSet::new();
        for &m in &cluster.members {
            for &input in &module.instances[m].inputs {
                let internal = driver[input.0].is_some_and(|d| cluster_ids[d] == Some(cid));
                if !internal {
                    ext.insert(input);
                }
            }
            // The root's output leaves the cluster: either fanout != 1 or
            // its single consumer is not a member.
            let out = module.instances[m].outputs[0];
            let leaves = fanout[out.0] != 1
                || sole_consumer[out.0].is_none_or(|j| cluster_ids[j] != Some(cid));
            if leaves {
                cluster.root = m;
            }
        }
        cluster.ext_inputs = ext.into_iter().collect();
        if cluster.root == usize::MAX {
            // Degenerate (cyclic) cluster — only possible in invalid
            // netlists; pick an arbitrary root so area accounting still
            // terminates (timing rejects the loop separately).
            cluster.root = cluster.members[0];
        }
    }

    Clustering {
        cluster_of: cluster_ids,
        clusters: clusters_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::techmap::{gate_tree_levels, gate_tree_luts};
    use memsync_rtl::builder::ModuleBuilder;

    #[test]
    fn chain_of_gates_forms_one_cluster() {
        // (((a & b) | c) & d) -> one 4-input cluster -> 1 LUT, 1 level.
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        let x = b.input("b", 1);
        let c = b.input("c", 1);
        let d = b.input("d", 1);
        let ab = b.and(&[a, x], "ab");
        let abc = b.or(&[ab, c], "abc");
        let y = b.and(&[abc, d], "y");
        b.output("y", y);
        let m = b.finish();
        let cl = clusters(&m);
        assert_eq!(cl.clusters.len(), 1);
        let cluster = &cl.clusters[0];
        assert_eq!(cluster.members.len(), 3);
        assert_eq!(cluster.input_count(), 4);
        assert_eq!(gate_tree_luts(cluster.input_count()), 1);
        assert_eq!(gate_tree_levels(cluster.input_count()), 1);
    }

    #[test]
    fn fanout_breaks_clusters() {
        // ab feeds two consumers -> cannot be absorbed.
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        let x = b.input("b", 1);
        let c = b.input("c", 1);
        let ab = b.and(&[a, x], "ab");
        let y1 = b.or(&[ab, c], "y1");
        let y2 = b.xor(&[ab, c], "y2");
        b.output("y1", y1);
        b.output("y2", y2);
        let m = b.finish();
        let cl = clusters(&m);
        assert_eq!(cl.clusters.len(), 3, "ab, y1, y2 all separate");
    }

    #[test]
    fn wide_ops_are_not_merged() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let w = b.and(&[a, c], "wide");
        let r = b.reduce_or(w, "r");
        b.output("r", r);
        let m = b.finish();
        let cl = clusters(&m);
        assert!(
            cl.clusters.is_empty(),
            "8-bit gate and reduction stay separate"
        );
    }

    #[test]
    fn big_cluster_counts_levels() {
        // OR of 9 inputs through a chain of 2-input ORs: 9 ext inputs ->
        // 3 LUTs, 2 levels.
        let mut b = ModuleBuilder::new("m");
        let ins: Vec<_> = (0..9).map(|i| b.input(&format!("i{i}"), 1)).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = b.or(&[acc, i], "acc");
        }
        b.output("y", acc);
        let m = b.finish();
        let cl = clusters(&m);
        assert_eq!(cl.clusters.len(), 1);
        assert_eq!(cl.clusters[0].input_count(), 9);
        assert_eq!(gate_tree_luts(9), 3);
        assert_eq!(gate_tree_levels(9), 2);
    }

    #[test]
    fn root_is_the_exit_gate() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        let x = b.input("b", 1);
        let ab = b.and(&[a, x], "ab");
        let y = b.not(ab, "y");
        b.output("y", y);
        let m = b.finish();
        let cl = clusters(&m);
        assert_eq!(cl.clusters.len(), 1);
        let root = cl.clusters[0].root;
        assert_eq!(m.instances[root].name, "inv");
    }
}
