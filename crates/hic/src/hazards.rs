//! Static hazard analysis over compiled hic programs.
//!
//! The paper's guarded memory has *sampling* semantics: a producer write
//! re-arms the per-entry counter unconditionally, so a producer that
//! re-fires before every consumer has read silently overwrites the pending
//! value — the **lost-update** bug class. The dynamic side of this pass is
//! the simulator's `lost_updates` counter (see `memsync-sim`); this module
//! is the static side, catching the bug before anything runs:
//!
//! * [`HazardCode::LostUpdate`] — the producer thread has a control-flow
//!   path from one produce of a dependency back to a produce of the same
//!   dependency with no intervening synchronization point (a guarded
//!   consume, or a `recv` under [`PacingAssumption::PacedArrivals`]).
//!   Under the arbitrated organization the overwrite loses data; under the
//!   event-driven organization the same pattern shows up as producer
//!   stalls against the selection window.
//! * [`HazardCode::ConsumeBeforeProduce`] — some complete iteration of the
//!   producer thread can finish without writing the guarded variable, so a
//!   consumer round blocks (or, across iterations, reads a stale value).
//! * [`HazardCode::DeadlockCycle`] — a cycle in the thread-level
//!   producer→consumer graph (the static deadlock of §2, reported here
//!   with hazard structure rather than as a bare compile error).
//! * [`HazardCode::DeadDependency`] — a `#consumer` pragma declares a
//!   dependency no thread ever acknowledges with `#producer`: every write
//!   arms a counter nobody drains.
//! * [`HazardCode::UnknownDependency`] — use-def inference
//!   ([`crate::usedef::infer_dependencies`]) finds a cross-thread
//!   producer/consumer pair that no pragma declares, i.e. an *unguarded*
//!   shared access.
//!
//! The pass runs on the output of [`crate::sema::analyze_lossy`], so
//! programs strict analysis rejects (a deadlocked corpus program, say)
//! still get a structured report. The `memsync-lint` binary wraps
//! [`check_source`] and exits nonzero on any hazard.

use crate::ast::{Pragma, Program, Stmt};
use crate::error::{Diagnostic, Result, Span};
use crate::sema::{self, Analysis, Dependency};
use crate::usedef::{self, Cfg, CfgNode};
use memsync_trace::Json;
use std::collections::BTreeSet;
use std::fmt;

/// What the analysis may assume about message arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacingAssumption {
    /// `recv` statements pace the thread: a new message only arrives after
    /// the downstream pipeline has drained the previous one (the paced
    /// injection regime of `memsync-serve`, which feeds one descriptor and
    /// runs the simulator until the corresponding frame egresses). This is
    /// the default for linting deployed pipelines.
    #[default]
    PacedArrivals,
    /// `recv` statements do not pace: messages may arrive back-to-back
    /// faster than consumers drain (free-running injection). Use this to
    /// ask "what breaks if the pacing workaround is removed?".
    FreeRunning,
}

impl PacingAssumption {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            PacingAssumption::PacedArrivals => "paced",
            PacingAssumption::FreeRunning => "free-running",
        }
    }
}

/// The class of a detected hazard. Variants are ordered by severity for
/// report sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardCode {
    /// Producer can re-fire before every consumer reads; the guarded value
    /// is overwritten under sampling semantics.
    LostUpdate,
    /// A producer-thread iteration can complete without producing.
    ConsumeBeforeProduce,
    /// Cycle in the thread-level producer→consumer graph.
    DeadlockCycle,
    /// Declared dependency that no `#producer` pragma ever reads.
    DeadDependency,
    /// Inferred cross-thread data flow that no pragma declares.
    UnknownDependency,
}

impl HazardCode {
    /// Stable machine-readable code, used in JSON output and the
    /// `// expect:` headers of the hazard corpus.
    pub fn as_str(self) -> &'static str {
        match self {
            HazardCode::LostUpdate => "lost_update",
            HazardCode::ConsumeBeforeProduce => "consume_before_produce",
            HazardCode::DeadlockCycle => "deadlock_cycle",
            HazardCode::DeadDependency => "dead_dependency",
            HazardCode::UnknownDependency => "unknown_dependency",
        }
    }
}

impl fmt::Display for HazardCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One detected hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Hazard class.
    pub code: HazardCode,
    /// The dependency involved, when the hazard concerns one.
    pub dep: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Anchor in the source (the offending produce, pragma, or read).
    pub span: Span,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: hazard[{}]: {}", self.span, self.code, self.message)
    }
}

/// Result of running [`check`] over a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardReport {
    /// The arrival assumption the analysis ran under.
    pub pacing: PacingAssumption,
    /// Detected hazards, sorted by (code, dependency, span).
    pub hazards: Vec<Hazard>,
}

impl HazardReport {
    /// True when no hazards were found.
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Whether any hazard of the given class was found.
    pub fn has(&self, code: HazardCode) -> bool {
        self.hazards.iter().any(|h| h.code == code)
    }

    /// Sorted, deduplicated machine-readable codes of all hazards.
    pub fn codes(&self) -> Vec<&'static str> {
        let set: BTreeSet<&'static str> = self.hazards.iter().map(|h| h.code.as_str()).collect();
        set.into_iter().collect()
    }

    /// Machine-readable JSON document (stable field order).
    pub fn to_json(&self) -> Json {
        let items: Vec<Json> = self
            .hazards
            .iter()
            .map(|h| {
                Json::obj()
                    .with("code", h.code.as_str().into())
                    .with("dep", h.dep.as_deref().map_or(Json::Null, |d| d.into()))
                    .with("line", (h.span.line as u64).into())
                    .with("column", (h.span.column as u64).into())
                    .with("message", h.message.as_str().into())
            })
            .collect();
        Json::obj()
            .with("pacing", self.pacing.as_str().into())
            .with("clean", self.is_clean().into())
            .with("hazards", Json::Arr(items))
    }
}

/// Runs every hazard check over a parsed program and its (possibly lossy)
/// analysis.
///
/// # Examples
///
/// Figure 1 of the paper has no pacing point in `t1` at all — successive
/// activations of `t1` overwrite `x1` before both `t2` and `t3` read it:
///
/// ```
/// use memsync_hic::hazards::{self, HazardCode, PacingAssumption};
///
/// let src = "
///     thread t1 () { int x1, xtmp, x2; #consumer{mt1,[t2,y1],[t3,z1]} x1 = f(xtmp, x2); }
///     thread t2 () { int y1, y2; #producer{mt1,[t1,x1]} y1 = g(x1, y2); }
///     thread t3 () { int z1, z2; #producer{mt1,[t1,x1]} z1 = h(x1, z2); }";
/// let (report, _diags) =
///     hazards::check_source(src, PacingAssumption::PacedArrivals).unwrap();
/// assert!(report.has(HazardCode::LostUpdate));
/// ```
pub fn check(program: &Program, analysis: &Analysis, pacing: PacingAssumption) -> HazardReport {
    let mut hazards = Vec::new();
    check_lost_updates(program, analysis, pacing, &mut hazards);
    check_consume_before_produce(program, analysis, &mut hazards);
    check_deadlock_cycles(analysis, &mut hazards);
    check_dead_dependencies(program, analysis, &mut hazards);
    check_unknown_dependencies(program, analysis, &mut hazards);
    hazards.sort_by(|a, b| (a.code, &a.dep, a.span.start).cmp(&(b.code, &b.dep, b.span.start)));
    HazardReport { pacing, hazards }
}

/// Parses `source`, runs lossy semantic analysis, and hazard-checks the
/// result. Returns the report together with the compile diagnostics (which
/// may include errors — the report is still meaningful best-effort).
///
/// # Errors
///
/// Only lexical/syntactic failures abort; semantic errors are returned as
/// diagnostics alongside the report.
pub fn check_source(
    source: &str,
    pacing: PacingAssumption,
) -> Result<(HazardReport, Vec<Diagnostic>)> {
    let program = crate::parser::parse(source)?;
    let (analysis, diagnostics) = sema::analyze_lossy(&program);
    Ok((check(&program, &analysis, pacing), diagnostics))
}

/// Spans of statements carrying a `#producer` pragma — the guarded consume
/// points at which a thread blocks until the upstream value arrives.
fn consume_spans(thread: &crate::ast::Thread) -> BTreeSet<(usize, usize)> {
    let mut spans = BTreeSet::new();
    crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
        if stmt
            .pragmas
            .iter()
            .any(|p| matches!(p, Pragma::Producer { .. }))
        {
            spans.insert((stmt.span.start, stmt.span.end));
        }
    });
    spans
}

fn check_lost_updates(
    program: &Program,
    analysis: &Analysis,
    pacing: PacingAssumption,
    hazards: &mut Vec<Hazard>,
) {
    for thread in &program.threads {
        let deps: Vec<&Dependency> = analysis
            .dependencies
            .iter()
            .filter(|d| d.producer.thread == thread.name)
            .collect();
        if deps.is_empty() {
            continue;
        }
        let cfg = Cfg::build(thread);
        let consumes = consume_spans(thread);
        let is_pacing = |n: &CfgNode| {
            consumes.contains(&(n.span.start, n.span.end))
                || (pacing == PacingAssumption::PacedArrivals && n.is_recv)
        };
        for d in deps {
            let produce_set: BTreeSet<usize> = cfg
                .nodes
                .iter()
                .filter(|n| n.defs.contains(&d.producer.var))
                .map(|n| n.id)
                .collect();
            'produces: for &p in &produce_set {
                // DFS from the successors of a produce, stopping at
                // synchronization points. Reaching another produce (or the
                // same one again) means two produces can happen with no
                // consumer read forced in between.
                let mut stack: Vec<usize> = cfg.nodes[p].succs.clone();
                let mut seen = BTreeSet::new();
                while let Some(id) = stack.pop() {
                    if !seen.insert(id) {
                        continue;
                    }
                    let node = &cfg.nodes[id];
                    if is_pacing(node) {
                        continue;
                    }
                    if produce_set.contains(&id) {
                        hazards.push(Hazard {
                            code: HazardCode::LostUpdate,
                            dep: Some(d.id.clone()),
                            message: format!(
                                "dependency `{}`: producer {} can re-fire before its {} \
                                 consumer(s) read — no guarded consume{} separates successive \
                                 produces, and sampling semantics overwrite the pending value",
                                d.id,
                                d.producer,
                                d.dep_number(),
                                match pacing {
                                    PacingAssumption::PacedArrivals => " or paced recv",
                                    PacingAssumption::FreeRunning => "",
                                },
                            ),
                            span: cfg.nodes[p].span,
                        });
                        break 'produces;
                    }
                    stack.extend(node.succs.iter().copied());
                }
            }
        }
    }
}

fn check_consume_before_produce(program: &Program, analysis: &Analysis, hazards: &mut Vec<Hazard>) {
    for thread in &program.threads {
        let deps: Vec<&Dependency> = analysis
            .dependencies
            .iter()
            .filter(|d| d.producer.thread == thread.name)
            .collect();
        if deps.is_empty() {
            continue;
        }
        let cfg = Cfg::build(thread);
        if cfg.nodes.is_empty() {
            continue;
        }
        let exit_set: BTreeSet<usize> = cfg.exits.iter().copied().collect();
        for d in deps {
            // Single-iteration DFS from the entry, pruned at any node that
            // produces the variable; skip wrap-around restart edges. If an
            // exit is reachable, some iteration finishes without producing
            // and the consumers' guarded reads have nothing to drain.
            let mut stack = vec![0usize];
            let mut seen = BTreeSet::new();
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                let node = &cfg.nodes[id];
                if node.defs.contains(&d.producer.var) {
                    continue;
                }
                if exit_set.contains(&id) {
                    hazards.push(Hazard {
                        code: HazardCode::ConsumeBeforeProduce,
                        dep: Some(d.id.clone()),
                        message: format!(
                            "dependency `{}`: an iteration of producer thread `{}` can \
                             complete without writing `{}` — consumers block on a value \
                             that round never produces",
                            d.id, thread.name, d.producer.var,
                        ),
                        span: d.span,
                    });
                    break;
                }
                stack.extend(node.succs.iter().copied().filter(|&s| s != 0));
            }
        }
    }
}

fn check_deadlock_cycles(analysis: &Analysis, hazards: &mut Vec<Hazard>) {
    if let Some(cycle) = sema::deadlock_cycle(&analysis.dependencies) {
        hazards.push(Hazard {
            code: HazardCode::DeadlockCycle,
            dep: Some(cycle.anchor.id.clone()),
            message: format!(
                "producer/consumer cycle through threads {} — every thread in the \
                 cycle blocks on a value another member has not yet produced",
                cycle.threads.join(", "),
            ),
            span: cycle.anchor.span,
        });
    }
}

fn check_dead_dependencies(program: &Program, analysis: &Analysis, hazards: &mut Vec<Hazard>) {
    let mut acknowledged: BTreeSet<String> = BTreeSet::new();
    for thread in &program.threads {
        crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
            for pragma in &stmt.pragmas {
                if let Pragma::Producer { dep, .. } = pragma {
                    acknowledged.insert(dep.clone());
                }
            }
        });
    }
    for d in &analysis.dependencies {
        if !acknowledged.contains(&d.id) {
            hazards.push(Hazard {
                code: HazardCode::DeadDependency,
                dep: Some(d.id.clone()),
                message: format!(
                    "dependency `{}` is declared by `#consumer` but no thread reads it \
                     via `#producer` — the guarded entry is armed and never drained",
                    d.id,
                ),
                span: d.span,
            });
        }
    }
}

fn check_unknown_dependencies(program: &Program, analysis: &Analysis, hazards: &mut Vec<Hazard>) {
    let declared: BTreeSet<(&str, &str)> = analysis
        .dependencies
        .iter()
        .map(|d| (d.producer.thread.as_str(), d.producer.var.as_str()))
        .collect();
    for inferred in usedef::infer_dependencies(program) {
        let var = inferred.producer.var.as_str();
        // Pragma constants and interface names read cross-thread are not
        // shared-memory traffic.
        if analysis.constants.contains_key(var) || analysis.interfaces.contains_key(var) {
            continue;
        }
        if declared.contains(&(inferred.producer.thread.as_str(), var)) {
            continue;
        }
        // Anchor the report at the first consuming read.
        let span = inferred
            .consumers
            .first()
            .and_then(|c| program.thread(&c.thread))
            .map(Cfg::build)
            .and_then(|cfg| {
                cfg.nodes
                    .iter()
                    .find(|n| n.uses.contains(var))
                    .map(|n| n.span)
            })
            .unwrap_or_else(Span::dummy);
        let consumers: Vec<String> = inferred.consumers.iter().map(|c| c.to_string()).collect();
        hazards.push(Hazard {
            code: HazardCode::UnknownDependency,
            dep: Some(inferred.id.clone()),
            message: format!(
                "use-def inference finds {} flowing to {} but no pragma declares the \
                 dependency — the shared access is unguarded",
                inferred.producer,
                consumers.join(", "),
            ),
            span,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str, pacing: PacingAssumption) -> HazardReport {
        let (report, _diags) = check_source(src, pacing).unwrap();
        report
    }

    const CLEAN_PAIR: &str = r#"
        thread p () { message m; int v; recv m; #consumer{d,[c,w]} v = m; }
        thread c () { int w; #producer{d,[p,v]} w = v; send w; }
    "#;

    #[test]
    fn recv_paced_pair_is_clean() {
        let r = report(CLEAN_PAIR, PacingAssumption::PacedArrivals);
        assert!(r.is_clean(), "unexpected hazards: {:?}", r.hazards);
    }

    #[test]
    fn same_pair_loses_updates_when_free_running() {
        let r = report(CLEAN_PAIR, PacingAssumption::FreeRunning);
        assert_eq!(r.codes(), vec!["lost_update"]);
    }

    #[test]
    fn figure1_free_runner_is_hazardous_even_paced() {
        let src = r#"
            thread t1 () { int x1, xtmp, x2; #consumer{mt1,[t2,y1],[t3,z1]} x1 = f(xtmp, x2); }
            thread t2 () { int y1, y2; #producer{mt1,[t1,x1]} y1 = g(x1, y2); }
            thread t3 () { int z1, z2; #producer{mt1,[t1,x1]} z1 = h(x1, z2); }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(r.has(HazardCode::LostUpdate));
    }

    #[test]
    fn own_consume_between_produces_paces_the_producer() {
        // b's produce of d2 is preceded (on the wrap path) by its guarded
        // consume of d1, so successive produces are separated.
        let src = r#"
            thread a () { message m; int v; recv m; #consumer{d1,[b,w]} v = m; }
            thread b () { int w, x; #producer{d1,[a,v]} w = v; #consumer{d2,[c,y]} x = w; }
            thread c () { int y; #producer{d2,[b,x]} y = x; send y; }
        "#;
        let r = report(src, PacingAssumption::FreeRunning);
        // d1 still loses updates free-running (recv no longer paces a),
        // but d2 must not be flagged.
        assert!(!r.hazards.iter().any(|h| h.dep.as_deref() == Some("d2")));
        assert!(r
            .hazards
            .iter()
            .any(|h| h.dep.as_deref() == Some("d1") && h.code == HazardCode::LostUpdate));
    }

    #[test]
    fn conditional_produce_is_consume_before_produce() {
        let src = r#"
            thread p () { message m; int v; recv m; if (m) { #consumer{d,[c,w]} v = m; } send m; }
            thread c () { int w; #producer{d,[p,v]} w = v; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(r.has(HazardCode::ConsumeBeforeProduce), "{:?}", r.hazards);
    }

    #[test]
    fn produce_on_both_branches_is_not_flagged() {
        let src = r#"
            thread p () {
                message m; int v;
                recv m;
                if (m) { #consumer{d,[c,w]} v = m; } else { v = 0; }
            }
            thread c () { int w; #producer{d,[p,v]} w = v; send w; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(!r.has(HazardCode::ConsumeBeforeProduce), "{:?}", r.hazards);
    }

    #[test]
    fn deadlock_cycle_reported_as_hazard() {
        let src = r#"
            thread a () { int v, x; #consumer{m1,[b,y]} v = 1; #producer{m2,[b,w]} x = w; }
            thread b () { int w, y; #consumer{m2,[a,x]} w = 1; #producer{m1,[a,v]} y = v; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(r.has(HazardCode::DeadlockCycle));
        let h = r
            .hazards
            .iter()
            .find(|h| h.code == HazardCode::DeadlockCycle)
            .unwrap();
        assert!(h.message.contains("a, b"), "got: {}", h.message);
        let err = sema::analyze(&crate::parser::parse(src).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("cycle through threads a, b"),
            "got: {err}"
        );
    }

    #[test]
    fn unread_dependency_is_dead() {
        let src = r#"
            thread p () { message m; int v; recv m; #consumer{d,[c,w]} v = m; }
            thread c () { int w; w = 1; send w; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(r.has(HazardCode::DeadDependency));
    }

    #[test]
    fn undeclared_cross_thread_flow_is_unknown_dependency() {
        let src = r#"
            thread p () { message m; int v; recv m; v = m; }
            thread c () { int w; w = v; send w; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(r.has(HazardCode::UnknownDependency));
        let h = &r.hazards[r
            .hazards
            .iter()
            .position(|h| h.code == HazardCode::UnknownDependency)
            .unwrap()];
        assert_eq!(h.dep.as_deref(), Some("auto_p_v"));
        assert!(h.span.line > 0, "span should anchor at the consuming read");
    }

    #[test]
    fn constants_are_not_unknown_dependencies() {
        let src = r#"
            thread a () { int k; #constant{lim, 9} k = lim; }
            thread b () { int j; j = lim; }
        "#;
        let r = report(src, PacingAssumption::PacedArrivals);
        assert!(!r.has(HazardCode::UnknownDependency), "{:?}", r.hazards);
    }

    #[test]
    fn json_report_is_stable_and_machine_readable() {
        let r = report(CLEAN_PAIR, PacingAssumption::FreeRunning);
        let doc = r.to_json().render();
        assert!(doc.starts_with("{\"pacing\":\"free-running\",\"clean\":false,"));
        assert!(doc.contains("\"code\":\"lost_update\""));
        assert!(doc.contains("\"dep\":\"d\""));
        let clean = report(CLEAN_PAIR, PacingAssumption::PacedArrivals);
        assert_eq!(
            clean.to_json().render(),
            "{\"pacing\":\"paced\",\"clean\":true,\"hazards\":[]}"
        );
    }
}
