//! Semantic analysis for hic.
//!
//! Performs name resolution, light type checking, pragma cross-validation
//! (every `#consumer` sink must be matched by a `#producer` source and vice
//! versa), and the static deadlock check the paper relies on ("deadlocks are
//! identified statically since the user explicitly specifies producer(s) and
//! consumer(s)").

use crate::ast::{
    EndpointRef, Expr, LValue, Pragma, Program, Stmt, StmtKind, Thread, Type, TypeDefKind,
};
use crate::error::{CompileError, Diagnostic, Result, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A `(thread, variable)` endpoint of a resolved dependency.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// Thread name.
    pub thread: String,
    /// Variable name within that thread.
    pub var: String,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(thread: impl Into<String>, var: impl Into<String>) -> Self {
        Endpoint {
            thread: thread.into(),
            var: var.into(),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.thread, self.var)
    }
}

impl From<&EndpointRef> for Endpoint {
    fn from(r: &EndpointRef) -> Self {
        Endpoint {
            thread: r.thread.clone(),
            var: r.var.clone(),
        }
    }
}

/// One fully resolved inter-thread memory dependency (`mt1` in Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Dependency identifier from the pragmas.
    pub id: String,
    /// The producing `(thread, var)` — the write guarded by the organization.
    pub producer: Endpoint,
    /// Consuming `(thread, var)` pairs, in the static service order given by
    /// the `#consumer` pragma (the event-driven organization releases reads
    /// in exactly this order).
    pub consumers: Vec<Endpoint>,
    /// Where the `#consumer` pragma appeared.
    pub span: Span,
}

impl Dependency {
    /// The dependency number of §3.1: the count of consumer reads that must
    /// follow each producer write before the guarded address is released.
    pub fn dep_number(&self) -> u32 {
        self.consumers.len() as u32
    }
}

/// Result of semantic analysis over a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Resolved dependencies, sorted by id.
    pub dependencies: Vec<Dependency>,
    /// `#constant` values, per name.
    pub constants: BTreeMap<String, i64>,
    /// `#interface` declarations, `name -> kind`.
    pub interfaces: BTreeMap<String, String>,
    /// Non-fatal warnings produced during analysis.
    pub warnings: Vec<Diagnostic>,
}

impl Analysis {
    /// Looks up a dependency by id.
    pub fn dependency(&self, id: &str) -> Option<&Dependency> {
        self.dependencies.iter().find(|d| d.id == id)
    }
}

/// Runs semantic analysis on a parsed program.
///
/// # Errors
///
/// Returns every error found in one batch: duplicate/undefined names,
/// malformed pragma pairings, and statically detected deadlock cycles in the
/// producer→consumer graph.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), memsync_hic::error::CompileError> {
/// let program = memsync_hic::parser::parse(
///     "thread p() { int v; #consumer{m, [c, w]} v = 1; }
///      thread c() { int w; #producer{m, [p, v]} w = v; }",
/// )?;
/// let analysis = memsync_hic::sema::analyze(&program)?;
/// assert_eq!(analysis.dependencies[0].dep_number(), 1);
/// # Ok(())
/// # }
/// ```
pub fn analyze(program: &Program) -> Result<Analysis> {
    let (analysis, diagnostics) = analyze_lossy(program);
    if diagnostics
        .iter()
        .any(|d| d.severity == crate::error::Severity::Error)
    {
        Err(CompileError::new(diagnostics))
    } else {
        Ok(analysis)
    }
}

/// Best-effort semantic analysis that never fails: returns whatever could
/// be resolved plus every diagnostic found (errors first, then warnings).
///
/// [`analyze`] is this with a hard stop on errors. The lenient form exists
/// for the hazard pass and `memsync-lint`: a program strict analysis
/// rejects (a statically deadlocked corpus program, say) still carries
/// enough resolved structure to hazard-check, and the lint wants to report
/// the deadlock as a *hazard with a span*, not an opaque compile failure.
pub fn analyze_lossy(program: &Program) -> (Analysis, Vec<Diagnostic>) {
    let mut ctx = Context::default();
    ctx.check_type_defs(program);
    ctx.check_threads(program);
    ctx.collect_pragmas(program);
    ctx.resolve_dependencies(program);
    // Keyed by id, so the list comes out sorted by id.
    let dependencies: Vec<Dependency> = ctx.dependencies.into_values().collect();
    if let Some(cycle) = deadlock_cycle(&dependencies) {
        ctx.errors.push(Diagnostic::error(
            format!(
                "static deadlock: producer/consumer cycle through threads {}",
                cycle.threads.join(", ")
            ),
            cycle.anchor.span,
        ));
    }
    let analysis = Analysis {
        dependencies,
        constants: ctx.constants,
        interfaces: ctx.interfaces,
        warnings: ctx.warnings.clone(),
    };
    let mut diagnostics = ctx.errors;
    diagnostics.extend(ctx.warnings);
    (analysis, diagnostics)
}

#[derive(Default)]
struct Context {
    errors: Vec<Diagnostic>,
    warnings: Vec<Diagnostic>,
    constants: BTreeMap<String, i64>,
    interfaces: BTreeMap<String, String>,
    /// dep id -> partially built dependency.
    dependencies: BTreeMap<String, Dependency>,
    /// (dep id, consumer endpoint) seen in `#producer` pragmas, with the
    /// claimed producer source.
    producer_claims: Vec<(String, Endpoint, Endpoint, Span)>,
}

impl Context {
    fn error(&mut self, message: impl Into<String>, span: Span) {
        self.errors.push(Diagnostic::error(message, span));
    }

    fn warn(&mut self, message: impl Into<String>, span: Span) {
        self.warnings.push(Diagnostic::warning(message, span));
    }

    fn check_type_defs(&mut self, program: &Program) {
        let mut seen = BTreeSet::new();
        for def in &program.types {
            if !seen.insert(def.name.clone()) {
                self.error(
                    format!("duplicate type definition `{}`", def.name),
                    def.span,
                );
            }
            match &def.kind {
                TypeDefKind::Alias(ty) => self.check_type(program, ty, def.span),
                TypeDefKind::Union(fields) => {
                    let mut fseen = BTreeSet::new();
                    for f in fields {
                        if !fseen.insert(f.name.clone()) {
                            self.error(
                                format!("duplicate union field `{}` in `{}`", f.name, def.name),
                                f.span,
                            );
                        }
                        self.check_type(program, &f.ty, f.span);
                    }
                    if fields.is_empty() {
                        self.error(format!("union `{}` has no fields", def.name), def.span);
                    }
                }
            }
        }
    }

    fn check_type(&mut self, program: &Program, ty: &Type, span: Span) {
        if let Type::Named(name) = ty {
            if program.type_def(name).is_none() {
                self.error(format!("unknown type `{name}`"), span);
            }
        }
    }

    fn check_threads(&mut self, program: &Program) {
        let mut names = BTreeSet::new();
        for thread in &program.threads {
            if !names.insert(thread.name.clone()) {
                self.error(format!("duplicate thread `{}`", thread.name), thread.span);
            }
            self.check_thread_body(program, thread);
        }
        if program.threads.is_empty() {
            self.error("program declares no threads", Span::dummy());
        }
    }

    fn check_thread_body(&mut self, program: &Program, thread: &Thread) {
        let mut vars: BTreeMap<String, &Type> = BTreeMap::new();
        for decl in thread.params.iter().chain(thread.decls.iter()) {
            self.check_type(program, &decl.ty, decl.span);
            if vars.insert(decl.name.clone(), &decl.ty).is_some() {
                self.error(
                    format!(
                        "duplicate variable `{}` in thread `{}`",
                        decl.name, thread.name
                    ),
                    decl.span,
                );
            }
        }
        // Constants declared by pragmas anywhere in this thread are usable
        // as read-only names; collect them first.
        let mut const_names = BTreeSet::new();
        crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
            for pragma in &stmt.pragmas {
                if let Pragma::Constant { name, .. } = pragma {
                    const_names.insert(name.clone());
                }
            }
        });
        self.check_stmts(thread, &vars, &const_names, &thread.body);
    }

    fn check_stmts(
        &mut self,
        thread: &Thread,
        vars: &BTreeMap<String, &Type>,
        consts: &BTreeSet<String>,
        stmts: &[Stmt],
    ) {
        for stmt in stmts {
            self.check_stmt(thread, vars, consts, stmt);
        }
    }

    fn check_stmt(
        &mut self,
        thread: &Thread,
        vars: &BTreeMap<String, &Type>,
        consts: &BTreeSet<String>,
        stmt: &Stmt,
    ) {
        match &stmt.kind {
            StmtKind::Assign { target, value } => {
                let base = target.base();
                if !vars.contains_key(base) {
                    self.error(
                        format!(
                            "assignment to undeclared variable `{base}` in `{}`",
                            thread.name
                        ),
                        stmt.span,
                    );
                } else if consts.contains(base) {
                    self.error(format!("cannot assign to constant `{base}`"), stmt.span);
                }
                if let LValue::Index { index, .. } = target {
                    self.check_expr(thread, vars, consts, index, stmt.span);
                }
                self.check_expr(thread, vars, consts, value, stmt.span);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(thread, vars, consts, cond, stmt.span);
                self.check_stmts(thread, vars, consts, then_branch);
                self.check_stmts(thread, vars, consts, else_branch);
            }
            StmtKind::While { cond, body } => {
                self.check_expr(thread, vars, consts, cond, stmt.span);
                self.check_stmts(thread, vars, consts, body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.check_stmt(thread, vars, consts, init);
                self.check_expr(thread, vars, consts, cond, stmt.span);
                self.check_stmt(thread, vars, consts, step);
                self.check_stmts(thread, vars, consts, body);
            }
            StmtKind::Case {
                selector,
                arms,
                default,
            } => {
                self.check_expr(thread, vars, consts, selector, stmt.span);
                let mut seen = BTreeSet::new();
                for arm in arms {
                    if !seen.insert(arm.value) {
                        self.error(format!("duplicate case arm `{}`", arm.value), arm.span);
                    }
                    self.check_stmts(thread, vars, consts, &arm.body);
                }
                self.check_stmts(thread, vars, consts, default);
            }
            StmtKind::Recv { var } => {
                if !vars.contains_key(var) {
                    self.error(format!("recv into undeclared variable `{var}`"), stmt.span);
                }
            }
            StmtKind::Send { value } => self.check_expr(thread, vars, consts, value, stmt.span),
            StmtKind::Expr(e) => self.check_expr(thread, vars, consts, e, stmt.span),
            StmtKind::Block(body) => self.check_stmts(thread, vars, consts, body),
        }
    }

    fn check_expr(
        &mut self,
        thread: &Thread,
        vars: &BTreeMap<String, &Type>,
        consts: &BTreeSet<String>,
        expr: &Expr,
        span: Span,
    ) {
        let mut reads = Vec::new();
        expr.collect_reads(&mut reads);
        for name in reads {
            // A read may name a local, a pragma constant, or (per Figure 1)
            // a variable of another thread connected through shared memory
            // when a `#producer` pragma on the enclosing statement names it.
            if !vars.contains_key(&name)
                && !consts.contains(&name)
                && !self.is_remote_read(thread, &name)
            {
                self.error(
                    format!("use of undeclared variable `{name}` in `{}`", thread.name),
                    span,
                );
            }
        }
    }

    /// Whether `name` is a producer-side variable referenced via a
    /// `#producer` pragma somewhere in `thread` (Figure 1 reads `x1` inside
    /// `t2` under `#producer{mt1,[t1,x1]}`).
    fn is_remote_read(&self, thread: &Thread, name: &str) -> bool {
        let mut found = false;
        crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
            for pragma in &stmt.pragmas {
                if let Pragma::Producer { sources, .. } = pragma {
                    if sources.iter().any(|s| s.var == name) {
                        found = true;
                    }
                }
            }
        });
        found
    }

    fn collect_pragmas(&mut self, program: &Program) {
        for thread in &program.threads {
            crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
                for pragma in &stmt.pragmas {
                    match pragma {
                        Pragma::Constant { name, value, span } => {
                            if let Some(prev) = self.constants.insert(name.clone(), *value) {
                                if prev != *value {
                                    self.errors.push(Diagnostic::error(
                                        format!(
                                            "constant `{name}` redefined with a different value"
                                        ),
                                        *span,
                                    ));
                                }
                            }
                        }
                        Pragma::Interface { name, kind, span } => {
                            if let Some(prev) = self.interfaces.insert(name.clone(), kind.clone()) {
                                if prev != *kind {
                                    self.errors.push(Diagnostic::error(
                                        format!(
                                            "interface `{name}` redeclared with a different kind"
                                        ),
                                        *span,
                                    ));
                                }
                            }
                        }
                        Pragma::Producer { .. } | Pragma::Consumer { .. } => {}
                    }
                }
            });
        }
    }

    fn resolve_dependencies(&mut self, program: &Program) {
        // Pass 1: `#consumer` pragmas define dependencies (producer side).
        for thread in &program.threads {
            let thread_name = thread.name.clone();
            let mut pending: Vec<(String, Vec<EndpointRef>, Span, Option<String>)> = Vec::new();
            crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
                for pragma in &stmt.pragmas {
                    if let Pragma::Consumer { dep, sinks, span } = pragma {
                        let produced_var = match &stmt.kind {
                            StmtKind::Assign { target, .. } => Some(target.base().to_owned()),
                            StmtKind::Recv { var } => Some(var.clone()),
                            _ => None,
                        };
                        pending.push((dep.clone(), sinks.clone(), *span, produced_var));
                    }
                }
            });
            for (dep, sinks, span, produced_var) in pending {
                let Some(var) = produced_var else {
                    self.error(
                        format!("`#consumer{{{dep}, ...}}` must annotate an assignment or recv"),
                        span,
                    );
                    continue;
                };
                let producer = Endpoint::new(thread_name.clone(), var);
                let consumers: Vec<Endpoint> = sinks.iter().map(Endpoint::from).collect();
                let mut unique = BTreeSet::new();
                for c in &consumers {
                    if !unique.insert(c.clone()) {
                        self.error(format!("duplicate consumer endpoint {c} in `{dep}`"), span);
                    }
                    if program.thread(&c.thread).is_none() {
                        self.error(
                            format!(
                                "consumer pragma `{dep}` names unknown thread `{}`",
                                c.thread
                            ),
                            span,
                        );
                    } else if program.thread(&c.thread).unwrap().var(&c.var).is_none() {
                        self.error(
                            format!(
                                "consumer pragma `{dep}` names unknown variable `{}` in `{}`",
                                c.var, c.thread
                            ),
                            span,
                        );
                    }
                }
                if self
                    .dependencies
                    .insert(
                        dep.clone(),
                        Dependency {
                            id: dep.clone(),
                            producer,
                            consumers,
                            span,
                        },
                    )
                    .is_some()
                {
                    self.error(
                        format!("dependency `{dep}` defined by multiple `#consumer` pragmas"),
                        span,
                    );
                }
            }
        }

        // Pass 2: `#producer` pragmas acknowledge dependencies (consumer side).
        for thread in &program.threads {
            let thread_name = thread.name.clone();
            let mut claims: Vec<(String, Endpoint, Endpoint, Span)> = Vec::new();
            let mut misplaced: Vec<(String, Span)> = Vec::new();
            crate::ast::walk_stmts(&thread.body, &mut |stmt: &Stmt| {
                for pragma in &stmt.pragmas {
                    if let Pragma::Producer { dep, sources, span } = pragma {
                        // The annotated statement's write target identifies
                        // which local variable receives the produced value;
                        // the pragma's endpoint names the producing
                        // (thread, var). Anything but an assignment or recv
                        // has no receiving variable and is rejected.
                        let consumed_into = match &stmt.kind {
                            StmtKind::Assign { target, .. } => target.base().to_owned(),
                            StmtKind::Recv { var } => var.clone(),
                            _ => {
                                misplaced.push((dep.clone(), *span));
                                continue;
                            }
                        };
                        for s in sources {
                            claims.push((
                                dep.clone(),
                                Endpoint::new(thread_name.clone(), consumed_into.clone()),
                                Endpoint::from(s),
                                *span,
                            ));
                        }
                    }
                }
            });
            for (dep, span) in misplaced {
                self.error(
                    format!("`#producer{{{dep}, ...}}` must annotate an assignment or recv"),
                    span,
                );
            }
            self.producer_claims.extend(claims);
        }

        // Cross-validate both directions.
        let claims = std::mem::take(&mut self.producer_claims);
        for (dep, consumer_ep, claimed_source, span) in &claims {
            match self.dependencies.get(dep).cloned() {
                None => self.error(
                    format!("`#producer{{{dep}, ...}}` refers to undefined dependency `{dep}`"),
                    *span,
                ),
                Some(d) => {
                    if d.producer != *claimed_source {
                        self.error(
                            format!(
                                "dependency `{dep}`: `#producer` names {claimed_source} but the \
                                 `#consumer` side is {}",
                                d.producer
                            ),
                            *span,
                        );
                    }
                    if !d.consumers.iter().any(|c| c.thread == consumer_ep.thread) {
                        self.error(
                            format!(
                                "thread `{}` declares `#producer{{{dep}}}` but is not listed as a \
                                 consumer of `{dep}`",
                                consumer_ep.thread
                            ),
                            *span,
                        );
                    }
                }
            }
        }
        // Every consumer listed in a `#consumer` pragma must acknowledge via
        // `#producer` in its own thread; missing acknowledgements are warnings
        // (the compiler can still enforce the dependency, but the thread's
        // schedule may not expect blocking).
        let deps: Vec<Dependency> = self.dependencies.values().cloned().collect();
        for d in &deps {
            for c in &d.consumers {
                let acknowledged = claims
                    .iter()
                    .any(|(dep, ep, _, _)| dep == &d.id && ep.thread == c.thread);
                if !acknowledged {
                    self.warn(
                        format!(
                            "consumer {} of dependency `{}` has no matching `#producer` pragma",
                            c, d.id
                        ),
                        d.span,
                    );
                }
            }
            if program.thread(&d.producer.thread).is_none() {
                self.error(
                    format!(
                        "dependency `{}` producer thread `{}` not found",
                        d.id, d.producer.thread
                    ),
                    d.span,
                );
            }
        }
    }
}

/// A cycle in the thread-level producer→consumer graph: a set of threads
/// that can all block waiting on each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycle<'a> {
    /// The threads at either end of a back edge the search found, sorted.
    pub threads: Vec<&'a str>,
    /// The first dependency, by id, whose producer is one of `threads`:
    /// where both the compile error and the hazard point.
    pub anchor: &'a Dependency,
}

/// Searches the producer→consumer graph of `dependencies` (sorted by id,
/// as [`Analysis::dependencies`] is) for a cycle. This one search feeds
/// both the static-deadlock compile error and the `deadlock_cycle` hazard.
pub fn deadlock_cycle(dependencies: &[Dependency]) -> Option<DeadlockCycle<'_>> {
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for d in dependencies {
        for c in &d.consumers {
            edges
                .entry(d.producer.thread.as_str())
                .or_default()
                .insert(c.thread.as_str());
        }
    }
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect();
    // Gray/black depth-first search with an explicit stack of (node,
    // next-successor index); a back edge to a gray node marks both ends.
    enum Color {
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = BTreeMap::new();
    let mut in_cycle: BTreeSet<&str> = BTreeSet::new();
    for &root in &nodes {
        if color.contains_key(root) {
            continue;
        }
        color.insert(root, Color::Gray);
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let next = edges.get(node).and_then(|s| s.iter().nth(*idx).copied());
            *idx += 1;
            let Some(succ) = next else {
                color.insert(node, Color::Black);
                stack.pop();
                continue;
            };
            match color.get(succ) {
                None => {
                    color.insert(succ, Color::Gray);
                    stack.push((succ, 0));
                }
                Some(Color::Gray) => {
                    in_cycle.insert(node);
                    in_cycle.insert(succ);
                }
                Some(Color::Black) => {}
            }
        }
    }
    let threads: Vec<&str> = in_cycle.into_iter().collect();
    // A back edge leaves a producer's thread, so an anchor always exists.
    let anchor = dependencies
        .iter()
        .find(|d| threads.contains(&d.producer.thread.as_str()))?;
    Some(DeadlockCycle { threads, anchor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

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
    fn figure1_resolves_mt1() {
        let program = parse(FIGURE1).unwrap();
        let analysis = analyze(&program).unwrap();
        assert_eq!(analysis.dependencies.len(), 1);
        let d = &analysis.dependencies[0];
        assert_eq!(d.id, "mt1");
        assert_eq!(d.producer, Endpoint::new("t1", "x1"));
        assert_eq!(
            d.consumers,
            vec![Endpoint::new("t2", "y1"), Endpoint::new("t3", "z1")]
        );
        assert_eq!(d.dep_number(), 2);
        assert!(analysis.warnings.is_empty());
    }

    #[test]
    fn consumer_order_is_static_service_order() {
        let src = r#"
            thread p () { int v; #consumer{m,[b,x],[a,y]} v = 1; }
            thread a () { int y; #producer{m,[p,v]} y = v; }
            thread b () { int x; #producer{m,[p,v]} x = v; }
        "#;
        let analysis = analyze(&parse(src).unwrap()).unwrap();
        let d = &analysis.dependencies[0];
        // Order preserved from the pragma, not alphabetical.
        assert_eq!(d.consumers[0].thread, "b");
        assert_eq!(d.consumers[1].thread, "a");
    }

    #[test]
    fn detects_undeclared_variable() {
        let err = analyze(&parse("thread t() { int a; a = b + 1; }").unwrap()).unwrap_err();
        assert!(err.to_string().contains("undeclared variable `b`"));
    }

    #[test]
    fn detects_duplicate_thread() {
        let err =
            analyze(&parse("thread t() { int a; a = 1; } thread t() { int b; b = 2; }").unwrap())
                .unwrap_err();
        assert!(err.to_string().contains("duplicate thread"));
    }

    #[test]
    fn detects_mismatched_producer_source() {
        let src = r#"
            thread p () { int v; #consumer{m,[c,x]} v = 1; }
            thread c () { int x, w; #producer{m,[p,w]} x = w; }
        "#;
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("dependency `m`"));
        assert!(err.to_string().contains("`#consumer` side is p.v"));
    }

    #[test]
    fn detects_unknown_consumer_thread() {
        let src = "thread p() { int v; #consumer{m,[ghost,x]} v = 1; }";
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown thread `ghost`"));
    }

    #[test]
    fn warns_on_unacknowledged_consumer() {
        let src = r#"
            thread p () { int v; #consumer{m,[c,x]} v = 1; }
            thread c () { int x; x = 2; }
        "#;
        let analysis = analyze(&parse(src).unwrap()).unwrap();
        assert_eq!(analysis.warnings.len(), 1);
        assert!(analysis.warnings[0]
            .message
            .contains("no matching `#producer`"));
    }

    #[test]
    fn detects_static_deadlock_cycle() {
        let src = r#"
            thread a () { int v, x; #consumer{m1,[b,y]} v = 1; #producer{m2,[b,w]} x = w; }
            thread b () { int w, y; #consumer{m2,[a,x]} w = 1; #producer{m1,[a,v]} y = v; }
        "#;
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("static deadlock"), "got: {err}");
    }

    #[test]
    fn chain_is_not_a_deadlock() {
        let src = r#"
            thread a () { int v; #consumer{m1,[b,w]} v = 1; }
            thread b () { int w, x; #producer{m1,[a,v]} w = v; #consumer{m2,[c,y]} x = w; }
            thread c () { int y; #producer{m2,[b,x]} y = x; }
        "#;
        let analysis = analyze(&parse(src).unwrap()).unwrap();
        assert_eq!(analysis.dependencies.len(), 2);
    }

    #[test]
    fn collects_constants_and_interfaces() {
        let src = r#"
            thread t() {
                int a;
                message m;
                #constant{host, 7}
                a = host;
                #interface{eth0, "gige"}
                recv m;
            }
        "#;
        let analysis = analyze(&parse(src).unwrap()).unwrap();
        assert_eq!(analysis.constants["host"], 7);
        assert_eq!(analysis.interfaces["eth0"], "gige");
    }

    #[test]
    fn rejects_conflicting_constant() {
        let src = r#"
            thread t() { int a; #constant{k, 1} a = k; #constant{k, 2} a = k; }
        "#;
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("redefined"));
    }

    #[test]
    fn rejects_consumer_on_non_write() {
        let src = "thread t() { int a; #consumer{m,[t,a]} if (a) { a = 1; } }";
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("must annotate an assignment"));
    }

    #[test]
    fn rejects_producer_on_non_write() {
        let src = r#"
            thread p () { int v; #consumer{m,[c,x]} v = 1; }
            thread c () { int x; #producer{m,[p,v]} if (x) { x = v; } }
        "#;
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(
            err.to_string()
                .contains("`#producer{m, ...}` must annotate an assignment or recv"),
            "got: {err}"
        );
    }

    #[test]
    fn lossy_analysis_resolves_dependencies_despite_deadlock() {
        let src = r#"
            thread a () { int v, x; #consumer{m1,[b,y]} v = 1; #producer{m2,[b,w]} x = w; }
            thread b () { int w, y; #consumer{m2,[a,x]} w = 1; #producer{m1,[a,v]} y = v; }
        "#;
        let (analysis, diags) = analyze_lossy(&parse(src).unwrap());
        assert_eq!(analysis.dependencies.len(), 2);
        assert!(diags.iter().any(|d| d.message.contains("static deadlock")));
    }

    #[test]
    fn duplicate_dep_id_rejected() {
        let src = r#"
            thread p () { int v, u; #consumer{m,[c,x]} v = 1; #consumer{m,[c,x]} u = 2; }
            thread c () { int x; #producer{m,[p,v]} x = v; }
        "#;
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("multiple `#consumer`"));
    }

    #[test]
    fn self_dependency_is_cycle() {
        let src = "thread t() { int a, b; #consumer{m,[t,b]} a = 1; #producer{m,[t,a]} b = a; }";
        let err = analyze(&parse(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("static deadlock"));
    }
}
