//! Memory allocation: hic variables → BRAM banks, base addresses, and
//! wrapper port classes.
//!
//! Implements the §3 design step: "the memory allocation process takes into
//! account available physical memory size (eg: BRAM size of 18 Kb) and
//! number of ports (eg: dual ports on each BRAM)". Variables guarded by
//! dependencies are packed into *sync banks* fronted by one of the two
//! memory organizations; thread-private arrays and large variables are
//! packed into private banks reached through port A.
//!
//! [`allocate`] reads the dependency list sema resolved from the pragmas
//! (one guarded word each) and each thread's declarations (arrays go to
//! private banks). §3's partial order of memory accesses is kept by the
//! scheduler's program-order memory constraint
//! ([`memsync_synth::schedule::list_schedule`]).

use crate::deplist::COUNTER_WIDTH;
use crate::spec::WrapperSpec;
use memsync_hic::sema::Analysis;
use memsync_hic::Program;
use memsync_synth::ir::{MemBinding, PortClass};
use std::collections::BTreeMap;

/// Words per bank (one 18 Kb BRAM in its 512×36 view).
pub const BANK_WORDS: u32 = 512;

/// One guarded word in a sync bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedVar {
    /// Producing thread.
    pub producer_thread: String,
    /// Variable name (producer side).
    pub var: String,
    /// Dependency id guarding it.
    pub dep: String,
    /// Base address within the bank.
    pub base_addr: u32,
    /// Dependency number (consumer count).
    pub dep_number: u8,
}

/// A BRAM fronted by a synchronization wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncBank {
    /// Bank name (used for module naming).
    pub name: String,
    /// Producer threads, in pseudo-port order (port D / selection window).
    pub producers: Vec<String>,
    /// Consumer threads, in pseudo-port order (port C / event outputs).
    pub consumers: Vec<String>,
    /// Guarded words.
    pub guarded: Vec<GuardedVar>,
    /// Service order rows (consumer pseudo-port indices per producer),
    /// derived from the `#consumer` pragma order.
    pub service_order: Vec<Vec<usize>>,
}

impl SyncBank {
    /// Wrapper spec for this bank.
    pub fn wrapper_spec(&self) -> WrapperSpec {
        WrapperSpec {
            producers: self.producers.len(),
            consumers: self.consumers.len(),
            deplist_entries: (self.guarded.len() as u32)
                .max(1)
                .next_power_of_two()
                .max(4),
            data_width: 32,
            addr_width: 9,
            with_port_b: false,
            service_order: self.service_order.clone(),
        }
    }

    /// Pseudo-port index of a consumer thread.
    pub fn consumer_port(&self, thread: &str) -> Option<usize> {
        self.consumers.iter().position(|t| t == thread)
    }

    /// Pseudo-port index of a producer thread.
    pub fn producer_port(&self, thread: &str) -> Option<usize> {
        self.producers.iter().position(|t| t == thread)
    }
}

/// A private (port A) bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivateBank {
    /// Owning thread.
    pub thread: String,
    /// `(var, base address, words)` allocations.
    pub vars: Vec<(String, u32, u32)>,
    /// Words used.
    pub used_words: u32,
}

/// The full allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationPlan {
    /// Synchronization banks (usually one; per-BRAM basis as in §3).
    pub sync_banks: Vec<SyncBank>,
    /// Private port-A banks, one per thread that needs memory.
    pub private_banks: Vec<PrivateBank>,
    /// Memory residency per thread, consumed by the synthesizer.
    pub bindings: BTreeMap<String, MemBinding>,
}

impl AllocationPlan {
    /// Binding for one thread (empty all-register binding if absent).
    pub fn binding_for(&self, thread: &str) -> MemBinding {
        self.bindings.get(thread).cloned().unwrap_or_default()
    }
}

/// Allocates memory for a program.
///
/// # Errors
///
/// Fails when a dependency has more consumers than the counter supports,
/// or a single thread's private data exceeds the bank capacity budget.
pub fn allocate(program: &Program, analysis: &Analysis) -> Result<AllocationPlan, String> {
    let mut bindings: BTreeMap<String, MemBinding> = BTreeMap::new();
    let mut sync_banks: Vec<SyncBank> = Vec::new();

    // ---- sync bank(s): one per group of dependencies, packed greedily ----
    if !analysis.dependencies.is_empty() {
        let mut bank = SyncBank {
            name: "sync0".to_owned(),
            producers: Vec::new(),
            consumers: Vec::new(),
            guarded: Vec::new(),
            service_order: Vec::new(),
        };
        // Producers must hold the event-driven selection window in dataflow
        // order: a pipeline rx->lkp->fwd deadlocks at startup if `fwd` is
        // rotated in before `rx` has ever produced. Order dependencies by a
        // topological rank of their producer thread (the dependency graph is
        // acyclic -- sema rejects cycles), breaking ties by id.
        let rank = topo_rank(analysis);
        let mut ordered: Vec<&memsync_hic::Dependency> = analysis.dependencies.iter().collect();
        ordered.sort_by_key(|d| {
            (
                rank.get(d.producer.thread.as_str())
                    .copied()
                    .unwrap_or(usize::MAX),
                d.id.clone(),
            )
        });

        // Guarded addresses are globally unique across banks so the
        // simulator can route requests by address alone.
        for (next_addr, dep) in ordered.into_iter().enumerate() {
            if dep.consumers.len() >= (1 << COUNTER_WIDTH) {
                return Err(format!(
                    "dependency `{}` has {} consumers; the counter supports at most 15",
                    dep.id,
                    dep.consumers.len()
                ));
            }
            if dep.consumers.len() > 8 {
                return Err(format!(
                    "dependency `{}` has {} consumers; a wrapper bus carries at most 8                      pseudo-ports",
                    dep.id,
                    dep.consumers.len()
                ));
            }
            // Spill to a fresh bank when capacity (16 guarded words) or the
            // pseudo-port budget (8 per bus) would be exceeded.
            let new_consumers = dep
                .consumers
                .iter()
                .filter(|c| bank.consumer_port(&c.thread).is_none())
                .count();
            let new_producers = usize::from(bank.producer_port(&dep.producer.thread).is_none());
            let would_overflow = bank.guarded.len() == 16
                || bank.consumers.len() + new_consumers > 8
                || bank.producers.len() + new_producers > 8;
            if would_overflow && !bank.guarded.is_empty() {
                sync_banks.push(std::mem::replace(
                    &mut bank,
                    SyncBank {
                        name: format!("sync{}", sync_banks.len() + 1),
                        producers: Vec::new(),
                        consumers: Vec::new(),
                        guarded: Vec::new(),
                        service_order: Vec::new(),
                    },
                ));
            }
            // Register the producer pseudo-port.
            let p_idx = match bank.producer_port(&dep.producer.thread) {
                Some(i) => i,
                None => {
                    bank.producers.push(dep.producer.thread.clone());
                    bank.service_order.push(Vec::new());
                    bank.producers.len() - 1
                }
            };
            // Register consumer pseudo-ports in pragma order.
            let mut order_row = Vec::new();
            for c in &dep.consumers {
                let c_idx = match bank.consumer_port(&c.thread) {
                    Some(i) => i,
                    None => {
                        bank.consumers.push(c.thread.clone());
                        bank.consumers.len() - 1
                    }
                };
                if !order_row.contains(&c_idx) {
                    order_row.push(c_idx);
                }
            }
            // The service order of this producer extends with the new
            // dependency's consumers (first dependency wins slot order).
            for c in &order_row {
                if !bank.service_order[p_idx].contains(c) {
                    bank.service_order[p_idx].push(*c);
                }
            }
            let base_addr = next_addr as u32;
            bank.guarded.push(GuardedVar {
                producer_thread: dep.producer.thread.clone(),
                var: dep.producer.var.clone(),
                dep: dep.id.clone(),
                base_addr,
                dep_number: dep.consumers.len() as u8,
            });

            // Bindings: producer writes through D, consumers read through C.
            bindings
                .entry(dep.producer.thread.clone())
                .or_default()
                .place_guarded(
                    dep.producer.var.clone(),
                    PortClass::D,
                    base_addr,
                    None,
                    Some(dep.id.clone()),
                );
            for c in &dep.consumers {
                bindings.entry(c.thread.clone()).or_default().place_guarded(
                    dep.producer.var.clone(),
                    PortClass::C,
                    base_addr,
                    Some(dep.id.clone()),
                    None,
                );
            }
        }
        sync_banks.push(bank);
    }

    // ---- private banks: arrays and oversized variables through port A ----
    let mut private_banks = Vec::new();
    for thread in &program.threads {
        let mut vars = Vec::new();
        let mut next = 0u32;
        for decl in &thread.decls {
            let words = match decl.array_len {
                Some(n) => n,
                None => continue, // scalars stay in registers
            };
            if next + words > BANK_WORDS * 8 {
                return Err(format!(
                    "thread `{}` private data exceeds the bank budget",
                    thread.name
                ));
            }
            vars.push((decl.name.clone(), next, words));
            bindings
                .entry(thread.name.clone())
                .or_default()
                .place_in_memory(decl.name.clone(), PortClass::A, next);
            next += words;
        }
        if !vars.is_empty() {
            private_banks.push(PrivateBank {
                thread: thread.name.clone(),
                vars,
                used_words: next,
            });
        }
    }

    Ok(AllocationPlan {
        sync_banks,
        private_banks,
        bindings,
    })
}

/// Topological rank of each thread in the producer->consumer dependency
/// graph (Kahn); threads with no dependency edges rank 0.
fn topo_rank(analysis: &Analysis) -> BTreeMap<&str, usize> {
    let mut nodes: Vec<&str> = Vec::new();
    let mut edges: Vec<(&str, &str)> = Vec::new();
    for d in &analysis.dependencies {
        if !nodes.contains(&d.producer.thread.as_str()) {
            nodes.push(&d.producer.thread);
        }
        for c in &d.consumers {
            if !nodes.contains(&c.thread.as_str()) {
                nodes.push(&c.thread);
            }
            edges.push((&d.producer.thread, &c.thread));
        }
    }
    let mut rank: BTreeMap<&str, usize> = BTreeMap::new();
    let mut remaining: Vec<&str> = nodes.clone();
    let mut level = 0usize;
    while !remaining.is_empty() {
        let ready: Vec<&str> = remaining
            .iter()
            .copied()
            .filter(|n| !edges.iter().any(|(p, c)| c == n && remaining.contains(p)))
            .collect();
        if ready.is_empty() {
            // Cycle (should have been rejected by sema); rank the rest flat.
            for n in &remaining {
                rank.insert(n, level);
            }
            break;
        }
        for n in &ready {
            rank.insert(n, level);
        }
        remaining.retain(|n| !ready.contains(n));
        level += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsync_hic::compile;

    const FIGURE1: &str = r#"
        thread t1 () {
            int x1, xtmp, x2;
            #consumer{mt1,[t2,y1],[t3,z1]}
            x1 = f(xtmp, x2);
        }
        thread t2 () {
            int y1, y2;
            #producer{mt1,[t1,x1]}
            y1 = g(x1, y2);
        }
        thread t3 () {
            int z1, z2;
            #producer{mt1,[t1,x1]}
            z1 = h(x1, z2);
        }
    "#;

    #[test]
    fn figure1_allocates_one_sync_bank() {
        let (program, analysis) = compile(FIGURE1).unwrap();
        let plan = allocate(&program, &analysis).unwrap();
        assert_eq!(plan.sync_banks.len(), 1);
        let bank = &plan.sync_banks[0];
        assert_eq!(bank.producers, vec!["t1".to_owned()]);
        assert_eq!(bank.consumers, vec!["t2".to_owned(), "t3".to_owned()]);
        assert_eq!(bank.guarded.len(), 1);
        assert_eq!(bank.guarded[0].dep_number, 2);
        assert_eq!(bank.service_order, vec![vec![0, 1]]);
    }

    #[test]
    fn figure1_bindings_assign_ports() {
        let (program, analysis) = compile(FIGURE1).unwrap();
        let plan = allocate(&program, &analysis).unwrap();
        let t1 = plan.binding_for("t1");
        assert!(matches!(
            t1.residency_of("x1"),
            memsync_synth::ir::Residency::Memory {
                port: PortClass::D,
                ..
            }
        ));
        let t2 = plan.binding_for("t2");
        assert!(matches!(
            t2.residency_of("x1"),
            memsync_synth::ir::Residency::Memory {
                port: PortClass::C,
                ..
            }
        ));
    }

    #[test]
    fn arrays_get_private_banks() {
        let (program, analysis) =
            compile("thread t() { int tbl[64], i; i = 1; tbl[i] = i; }").unwrap();
        let plan = allocate(&program, &analysis).unwrap();
        assert!(plan.sync_banks.is_empty());
        assert_eq!(plan.private_banks.len(), 1);
        assert_eq!(plan.private_banks[0].vars[0].2, 64);
        assert!(matches!(
            plan.binding_for("t").residency_of("tbl"),
            memsync_synth::ir::Residency::Memory {
                port: PortClass::A,
                ..
            }
        ));
    }

    #[test]
    fn distinct_guarded_addresses() {
        let src = r#"
            thread p () {
                int u, v;
                #consumer{m1,[c,x]} u = 1;
                #consumer{m2,[c,y]} v = 2;
            }
            thread c () {
                int x, y;
                #producer{m1,[p,u]} x = u;
                #producer{m2,[p,v]} y = v;
            }
        "#;
        let (program, analysis) = compile(src).unwrap();
        let plan = allocate(&program, &analysis).unwrap();
        let bank = &plan.sync_banks[0];
        assert_eq!(bank.guarded.len(), 2);
        assert_ne!(bank.guarded[0].base_addr, bank.guarded[1].base_addr);
        // One consumer thread serving both dependencies: one pseudo-port.
        assert_eq!(bank.consumers.len(), 1);
    }

    #[test]
    fn wrapper_spec_is_valid() {
        let (program, analysis) = compile(FIGURE1).unwrap();
        let plan = allocate(&program, &analysis).unwrap();
        plan.sync_banks[0].wrapper_spec().validate().unwrap();
    }
}
