//! Use-def analysis over hic threads.
//!
//! The paper notes (§2) that the pragma syntax "is not central to our
//! techniques … in practice, one can use standard compiler use-def analysis
//! and other lifetime analysis methods to extract producers and consumers".
//! This module provides that alternative path: a statement-level
//! control-flow graph of each statement's reads and writes, which the
//! hazard pass also walks, and inter-thread producer/consumer inference
//! for programs without pragmas.

use crate::ast::{Expr, LValue, Program, Stmt, StmtKind, Thread};
use crate::error::Span;
use crate::sema::{Dependency, Endpoint};
use std::collections::{BTreeMap, BTreeSet};

/// A node in the statement-level control-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgNode {
    /// Index of the node within its thread's CFG.
    pub id: usize,
    /// Variables written by this node.
    pub defs: BTreeSet<String>,
    /// Variables read by this node.
    pub uses: BTreeSet<String>,
    /// Successor node ids.
    pub succs: Vec<usize>,
    /// Source span of the originating statement.
    pub span: Span,
    /// Whether the node is a `recv` (network arrival — a definition from
    /// outside the thread).
    pub is_recv: bool,
    /// Whether the node is a `send`.
    pub is_send: bool,
}

/// Statement-level CFG for one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Thread name.
    pub thread: String,
    /// Nodes, indexed by id; node 0 is the entry.
    pub nodes: Vec<CfgNode>,
    /// Ids of the nodes at which one run-to-completion iteration ends.
    /// Their edges back to node 0 (if any) are the wrap-around restart
    /// edges added by [`Cfg::build`], not intra-iteration control flow;
    /// analyses over a single iteration stop here.
    pub exits: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of a thread.
    pub fn build(thread: &Thread) -> Cfg {
        let mut builder = CfgBuilder { nodes: Vec::new() };
        let exits = builder.lower_stmts(&thread.body, Vec::new());
        // Threads run to completion per message and restart; model the
        // wrap-around so liveness across iterations is visible.
        if let Some(first) = builder.nodes.first().map(|n| n.id) {
            for &e in &exits {
                if !builder.nodes[e].succs.contains(&first) {
                    builder.nodes[e].succs.push(first);
                }
            }
        }
        Cfg {
            thread: thread.name.clone(),
            nodes: builder.nodes,
            exits,
        }
    }

    /// Variables read somewhere in the thread but never defined in it —
    /// candidates for inter-thread consumption.
    pub fn external_reads(&self) -> BTreeSet<String> {
        let mut all_defs = BTreeSet::new();
        let mut all_uses = BTreeSet::new();
        for node in &self.nodes {
            all_defs.extend(node.defs.iter().cloned());
            all_uses.extend(node.uses.iter().cloned());
        }
        all_uses.difference(&all_defs).cloned().collect()
    }
}

struct CfgBuilder {
    nodes: Vec<CfgNode>,
}

impl CfgBuilder {
    fn add(&mut self, stmt: &Stmt, defs: BTreeSet<String>, uses: BTreeSet<String>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(CfgNode {
            id,
            defs,
            uses,
            succs: Vec::new(),
            span: stmt.span,
            is_recv: matches!(stmt.kind, StmtKind::Recv { .. }),
            is_send: matches!(stmt.kind, StmtKind::Send { .. }),
        });
        id
    }

    fn connect(&mut self, froms: &[usize], to: usize) {
        for &f in froms {
            if !self.nodes[f].succs.contains(&to) {
                self.nodes[f].succs.push(to);
            }
        }
    }

    /// Lowers statements in order; `incoming` is the set of open exits that
    /// should flow into the next node. Returns the open exits after the list.
    fn lower_stmts(&mut self, stmts: &[Stmt], mut incoming: Vec<usize>) -> Vec<usize> {
        for stmt in stmts {
            incoming = self.lower_stmt(stmt, incoming);
        }
        incoming
    }

    fn lower_stmt(&mut self, stmt: &Stmt, incoming: Vec<usize>) -> Vec<usize> {
        match &stmt.kind {
            StmtKind::Assign { target, value } => {
                let mut uses = BTreeSet::new();
                let mut reads = Vec::new();
                value.collect_reads(&mut reads);
                uses.extend(reads);
                if let LValue::Index { index, .. } = target {
                    let mut idx_reads = Vec::new();
                    index.collect_reads(&mut idx_reads);
                    uses.extend(idx_reads);
                }
                let defs = BTreeSet::from([target.base().to_owned()]);
                let id = self.add(stmt, defs, uses);
                self.connect(&incoming, id);
                vec![id]
            }
            StmtKind::Recv { var } => {
                let id = self.add(stmt, BTreeSet::from([var.clone()]), BTreeSet::new());
                self.connect(&incoming, id);
                vec![id]
            }
            StmtKind::Send { value } => {
                let id = self.add(stmt, BTreeSet::new(), expr_reads(value));
                self.connect(&incoming, id);
                vec![id]
            }
            StmtKind::Expr(value) => {
                let id = self.add(stmt, BTreeSet::new(), expr_reads(value));
                self.connect(&incoming, id);
                vec![id]
            }
            StmtKind::Block(body) => self.lower_stmts(body, incoming),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_id = self.add(stmt, BTreeSet::new(), expr_reads(cond));
                self.connect(&incoming, cond_id);
                let then_exits = self.lower_stmts(then_branch, vec![cond_id]);
                let else_exits = self.lower_stmts(else_branch, vec![cond_id]);
                let mut exits = then_exits;
                if else_branch.is_empty() {
                    exits.push(cond_id);
                } else {
                    exits.extend(else_exits);
                }
                exits
            }
            StmtKind::While { cond, body } => {
                let cond_id = self.add(stmt, BTreeSet::new(), expr_reads(cond));
                self.connect(&incoming, cond_id);
                let body_exits = self.lower_stmts(body, vec![cond_id]);
                self.connect(&body_exits, cond_id);
                vec![cond_id]
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let init_exits = self.lower_stmt(init, incoming);
                let cond_id = self.add(stmt, BTreeSet::new(), expr_reads(cond));
                self.connect(&init_exits, cond_id);
                let body_exits = self.lower_stmts(body, vec![cond_id]);
                let step_exits = self.lower_stmt(step, body_exits);
                self.connect(&step_exits, cond_id);
                vec![cond_id]
            }
            StmtKind::Case {
                selector,
                arms,
                default,
            } => {
                let sel_id = self.add(stmt, BTreeSet::new(), expr_reads(selector));
                self.connect(&incoming, sel_id);
                let mut exits = Vec::new();
                for arm in arms {
                    exits.extend(self.lower_stmts(&arm.body, vec![sel_id]));
                }
                if default.is_empty() {
                    exits.push(sel_id);
                } else {
                    exits.extend(self.lower_stmts(default, vec![sel_id]));
                }
                exits
            }
        }
    }
}

/// The local variable into which `var` (produced elsewhere) is first read:
/// the single definition of the earliest node reading `var`. This matches
/// the pragma convention, where the `#consumer` sink names the *receiving*
/// variable (`[t2, y1]` for `y1 = g(x1, ...)`), not the producer's name.
/// Falls back to `var` itself when no reading node defines exactly one
/// local (e.g. the value is only forwarded into a `send`).
fn receiving_var(cfg: &Cfg, var: &str) -> String {
    cfg.nodes
        .iter()
        .find(|n| n.uses.contains(var) && n.defs.len() == 1)
        .and_then(|n| n.defs.iter().next().cloned())
        .unwrap_or_else(|| var.to_owned())
}

fn expr_reads(expr: &Expr) -> BTreeSet<String> {
    let mut reads = Vec::new();
    expr.collect_reads(&mut reads);
    reads.into_iter().collect()
}

/// Infers inter-thread dependencies from use-def information alone, without
/// pragmas: a variable read by thread `C` but never defined in `C`, and
/// defined in exactly one other thread `P`, is a producer/consumer pair.
///
/// Inferred consumer order follows thread declaration order (the pragma form
/// is required when the user wants a specific static service order).
pub fn infer_dependencies(program: &Program) -> Vec<Dependency> {
    let cfgs: Vec<(String, Cfg)> = program
        .threads
        .iter()
        .map(|t| (t.name.clone(), Cfg::build(t)))
        .collect();
    let mut definers: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, cfg) in &cfgs {
        let mut defs = BTreeSet::new();
        for node in &cfg.nodes {
            defs.extend(node.defs.iter().cloned());
        }
        for d in defs {
            definers.entry(d).or_default().push(name.clone());
        }
    }
    let mut deps: BTreeMap<String, Dependency> = BTreeMap::new();
    for (name, cfg) in &cfgs {
        for var in cfg.external_reads() {
            let Some(owners) = definers.get(&var) else {
                continue;
            };
            if owners.len() != 1 || owners[0] == *name {
                continue;
            }
            let producer_thread = owners[0].clone();
            let id = format!("auto_{producer_thread}_{var}");
            let entry = deps.entry(id.clone()).or_insert_with(|| Dependency {
                id,
                producer: Endpoint::new(producer_thread.clone(), var.clone()),
                consumers: Vec::new(),
                span: Span::dummy(),
            });
            entry
                .consumers
                .push(Endpoint::new(name.clone(), receiving_var(cfg, &var)));
        }
    }
    // Order consumers by thread declaration order.
    let order: BTreeMap<&str, usize> = program
        .threads
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let mut result: Vec<Dependency> = deps.into_values().collect();
    for d in &mut result {
        d.consumers
            .sort_by_key(|c| order.get(c.thread.as_str()).copied().unwrap_or(usize::MAX));
    }
    result.sort_by(|a, b| a.id.cmp(&b.id));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> Cfg {
        let program = parse(src).unwrap();
        Cfg::build(&program.threads[0])
    }

    #[test]
    fn straight_line_cfg() {
        let cfg = cfg_of("thread t() { int a, b; a = 1; b = a + 1; }");
        assert_eq!(cfg.nodes.len(), 2);
        assert!(cfg.nodes[0].succs.contains(&1));
        assert_eq!(cfg.nodes[1].uses, BTreeSet::from(["a".to_owned()]));
        assert_eq!(cfg.nodes[1].defs, BTreeSet::from(["b".to_owned()]));
    }

    #[test]
    fn if_without_else_falls_through() {
        let cfg = cfg_of("thread t() { int a, b; a = 1; if (a) { b = 2; } b = 3; }");
        // nodes: a=1, cond, b=2, b=3
        assert_eq!(cfg.nodes.len(), 4);
        let cond = &cfg.nodes[1];
        assert!(cond.succs.contains(&2));
        assert!(
            cond.succs.contains(&3),
            "fall-through edge expected: {:?}",
            cond.succs
        );
    }

    #[test]
    fn while_loops_back() {
        let cfg = cfg_of("thread t() { int a; while (a) { a = a - 1; } }");
        let cond = &cfg.nodes[0];
        assert!(cond.succs.contains(&1));
        assert!(cfg.nodes[1].succs.contains(&0), "back edge expected");
    }

    #[test]
    fn external_reads_found() {
        let cfg = cfg_of("thread t() { int y; y = x1 + 1; }");
        assert_eq!(cfg.external_reads(), BTreeSet::from(["x1".to_owned()]));
    }

    #[test]
    fn infers_figure1_dependency_without_pragmas() {
        let src = r#"
            thread t1 () { int x1, xtmp, x2; x1 = f(xtmp, x2); }
            thread t2 () { int y1, y2; y1 = g(x1, y2); }
            thread t3 () { int z1, z2; z1 = h(x1, z2); }
        "#;
        let program = parse(src).unwrap();
        // Note: undeclared `x1` in t2/t3 would fail sema without pragmas;
        // inference operates on the raw AST.
        let deps = infer_dependencies(&program);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].producer, Endpoint::new("t1", "x1"));
        // Consumer endpoints carry the *receiving* variable, exactly as
        // the pragma form `#consumer{mt1,[t2,y1],[t3,z1]}` would name them.
        assert_eq!(
            deps[0].consumers,
            vec![Endpoint::new("t2", "y1"), Endpoint::new("t3", "z1")]
        );
    }

    #[test]
    fn exits_mark_iteration_boundaries() {
        let cfg = cfg_of("thread t() { int a, b; a = 1; if (a) { b = 2; } b = 3; }");
        // Only the final statement ends an iteration; its wrap edge
        // returns to the entry.
        assert_eq!(cfg.exits, vec![3]);
        assert!(cfg.nodes[3].succs.contains(&0));
    }

    #[test]
    fn inference_ignores_ambiguous_definers() {
        let src = r#"
            thread a () { int v; v = 1; }
            thread b () { int v; v = 2; }
            thread c () { int w; w = v; }
        "#;
        let deps = infer_dependencies(&parse(src).unwrap());
        assert!(
            deps.is_empty(),
            "two candidate producers must not be guessed"
        );
    }

    #[test]
    fn recv_counts_as_definition() {
        let cfg = cfg_of("thread t() { message m; recv m; send m; }");
        assert!(cfg.nodes[0].is_recv);
        assert!(cfg.nodes[0].defs.contains("m"));
        assert!(cfg.nodes[1].is_send);
        assert!(cfg.nodes[1].uses.contains("m"));
        assert!(cfg.external_reads().is_empty());
    }

    #[test]
    fn case_arms_all_reachable() {
        let cfg = cfg_of(
            "thread t() { int s, a; case (s) { when 1: a = 1; when 2: a = 2; default: a = 0; } }",
        );
        let sel = &cfg.nodes[0];
        assert_eq!(sel.succs.len(), 3);
    }
}
