//! Abstract syntax tree for hic programs.
//!
//! A hic [`Program`] is a set of type definitions plus hardware threads.
//! Each thread declares variables, then executes statements; statements may
//! be annotated with the four pragmas the paper defines (`#interface`,
//! `#constant`, `#producer`, `#consumer`).

use crate::error::Span;
use std::fmt;

/// A complete hic translation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// User type definitions (`type` aliases and `union`s).
    pub types: Vec<TypeDef>,
    /// Hardware threads, in source order.
    pub threads: Vec<Thread>,
}

impl Program {
    /// Looks up a thread by name.
    pub fn thread(&self, name: &str) -> Option<&Thread> {
        self.threads.iter().find(|t| t.name == name)
    }

    /// Looks up a user type definition by name.
    pub fn type_def(&self, name: &str) -> Option<&TypeDef> {
        self.types.iter().find(|t| t.name == name)
    }
}

/// A user-defined type: either a fixed-width alias or a union of types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// The definition body.
    pub kind: TypeDefKind,
    /// Source location.
    pub span: Span,
}

/// Body of a [`TypeDef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDefKind {
    /// `type name = <ty>;` — a transparent alias (commonly `bits<N>`).
    Alias(Type),
    /// `union name { field: ty; ... }` — overlapping views of the same bits.
    Union(Vec<UnionField>),
}

/// One alternative view inside a union type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionField {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A hic type expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer.
    Int,
    /// 8-bit character.
    Char,
    /// The predefined shared-memory packet type ("tub of packets").
    Message,
    /// Fixed bit-width value, `bits<N>`.
    Bits(u32),
    /// Reference to a user-defined type.
    Named(String),
}

impl Type {
    /// Bit width of the type, resolving `Named` through `program` when given.
    ///
    /// Returns `None` for a `Named` type that cannot be resolved.
    pub fn bit_width(&self, program: Option<&Program>) -> Option<u32> {
        match self {
            Type::Int => Some(32),
            Type::Char => Some(8),
            // A message occupies one packet slot; the paper maps messages to
            // BRAM words, so we model the handle as one 32-bit word.
            Type::Message => Some(32),
            Type::Bits(n) => Some(*n),
            Type::Named(name) => {
                let program = program?;
                let def = program.type_def(name)?;
                match &def.kind {
                    TypeDefKind::Alias(ty) => ty.bit_width(Some(program)),
                    TypeDefKind::Union(fields) => fields
                        .iter()
                        .map(|f| f.ty.bit_width(Some(program)))
                        .collect::<Option<Vec<_>>>()
                        .map(|ws| ws.into_iter().max().unwrap_or(0)),
                }
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => f.write_str("int"),
            Type::Char => f.write_str("char"),
            Type::Message => f.write_str("message"),
            Type::Bits(n) => write!(f, "bits<{n}>"),
            Type::Named(n) => f.write_str(n),
        }
    }
}

/// A hardware thread: synthesized into its own logic per the multi-threading
/// in logic model (Brebner, FPL 2002).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thread {
    /// Thread name, e.g. `t1`.
    pub name: String,
    /// Formal parameters (rare; usually empty in the paper's examples).
    pub params: Vec<VarDecl>,
    /// Local variable declarations.
    pub decls: Vec<VarDecl>,
    /// Thread body.
    pub body: Vec<Stmt>,
    /// Source location of the `thread` keyword through the closing brace.
    pub span: Span,
}

impl Thread {
    /// Looks up a declared variable (parameter or local) by name.
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.params
            .iter()
            .chain(self.decls.iter())
            .find(|v| v.name == name)
    }
}

/// One declared variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Array length, if declared as `ty name[N]`.
    pub array_len: Option<u32>,
    /// Source location.
    pub span: Span,
}

/// A statement, optionally annotated with pragmas that apply to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Pragmas immediately preceding the statement.
    pub pragmas: Vec<Pragma>,
    /// The statement proper.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `lvalue = expr;`
    Assign {
        /// Target of the assignment.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (cond) then else otherwise`
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is non-zero.
        then_branch: Vec<Stmt>,
        /// Taken when `cond` is zero (may be empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) body`
    While {
        /// Loop condition, evaluated before each iteration.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) body`
    For {
        /// Initialization assignment.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Per-iteration step assignment.
        step: Box<Stmt>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `case (selector) { when k: ... default: ... }` — the paper's state
    /// machine construct.
    Case {
        /// Value being dispatched on.
        selector: Expr,
        /// `when` arms.
        arms: Vec<CaseArm>,
        /// `default` arm (may be empty).
        default: Vec<Stmt>,
    },
    /// `recv var;` — receive the next message from the network interface
    /// into `var`.
    Recv {
        /// Destination variable.
        var: String,
    },
    /// `send expr;` — transmit a message on the network interface.
    Send {
        /// The message expression.
        value: Expr,
    },
    /// A bare expression evaluated for effect, `expr;`.
    Expr(Expr),
    /// A nested block.
    Block(Vec<Stmt>),
}

/// One `when` arm of a `case` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseArm {
    /// Literal matched against the selector.
    pub value: i64,
    /// Arm body.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// Plain variable.
    Var(String),
    /// Array element, `name[index]`.
    Index {
        /// Array variable name.
        name: String,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Union field, `name.field`.
    Field {
        /// Union variable name.
        name: String,
        /// Field selected.
        field: String,
    },
}

impl LValue {
    /// The root variable the lvalue writes.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Index { name: n, .. } | LValue::Field { name: n, .. } => n,
        }
    }
}

/// Expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Character literal.
    Char(u8, Span),
    /// Variable reference.
    Var(String, Span),
    /// Array element read.
    Index {
        /// Array variable name.
        name: String,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Union field read.
    Field {
        /// Union variable name.
        name: String,
        /// Field selected.
        field: String,
        /// Source location.
        span: Span,
    },
    /// Function (combinational operator) application, `f(a, b)`.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// Source location of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Char(_, s) | Expr::Var(_, s) => *s,
            Expr::Index { span, .. }
            | Expr::Field { span, .. }
            | Expr::Call { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. } => *span,
        }
    }

    /// Collects every variable read by the expression into `out`
    /// (in evaluation order, duplicates preserved).
    pub fn collect_reads(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(..) | Expr::Char(..) => {}
            Expr::Var(name, _) => out.push(name.clone()),
            Expr::Index { name, index, .. } => {
                out.push(name.clone());
                index.collect_reads(out);
            }
            Expr::Field { name, .. } => out.push(name.clone()),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_reads(out);
                }
            }
            Expr::Unary { operand, .. } => operand.collect_reads(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_reads(out);
                rhs.collect_reads(out);
            }
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
    /// Bitwise complement `~`.
    BitNot,
}

/// Binary operators, in hic precedence order (lowest first: `||`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&`
    BitAnd,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

/// The four pragmas of §2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// `#interface{name, "kind"}` — e.g. Gigabit Ethernet.
    Interface {
        /// Interface variable name.
        name: String,
        /// Interface kind string, e.g. `"gige"`.
        kind: String,
        /// Source location.
        span: Span,
    },
    /// `#constant{name, value}` — e.g. host address.
    Constant {
        /// Constant name.
        name: String,
        /// Constant value.
        value: i64,
        /// Source location.
        span: Span,
    },
    /// `#producer{dep, [thread, var]}` — placed in a *consumer* thread; the
    /// following statement reads data produced by `[thread, var]`.
    Producer {
        /// Dependency identifier (`mt1` in Figure 1) used to correlate
        /// multiple dependencies on the same variable.
        dep: String,
        /// `(thread, variable)` pairs naming the producer(s).
        sources: Vec<EndpointRef>,
        /// Source location.
        span: Span,
    },
    /// `#consumer{dep, [thread, var], ...}` — placed in a *producer* thread;
    /// the following statement's written value is consumed by the listed
    /// `(thread, variable)` pairs.
    Consumer {
        /// Dependency identifier.
        dep: String,
        /// `(thread, variable)` pairs naming the consumer(s), in the static
        /// service order used by the event-driven organization.
        sinks: Vec<EndpointRef>,
        /// Source location.
        span: Span,
    },
}

impl Pragma {
    /// Source location of the pragma.
    pub fn span(&self) -> Span {
        match self {
            Pragma::Interface { span, .. }
            | Pragma::Constant { span, .. }
            | Pragma::Producer { span, .. }
            | Pragma::Consumer { span, .. } => *span,
        }
    }
}

/// A `(thread, variable)` pair inside a producer/consumer pragma.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EndpointRef {
    /// Thread name.
    pub thread: String,
    /// Variable name within that thread.
    pub var: String,
    /// Source location.
    pub span: Span,
}

impl fmt::Display for EndpointRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.thread, self.var)
    }
}

/// Walks all statements of a body depth-first, pre-order, applying `f`.
pub fn walk_stmts<'a, F: FnMut(&'a Stmt)>(stmts: &'a [Stmt], f: &mut F) {
    for stmt in stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_stmts(then_branch, f);
                walk_stmts(else_branch, f);
            }
            StmtKind::While { body, .. } => walk_stmts(body, f),
            StmtKind::For {
                init, step, body, ..
            } => {
                f(init);
                f(step);
                walk_stmts(body, f);
            }
            StmtKind::Case { arms, default, .. } => {
                for arm in arms {
                    walk_stmts(&arm.body, f);
                }
                walk_stmts(default, f);
            }
            StmtKind::Block(body) => walk_stmts(body, f),
            StmtKind::Assign { .. }
            | StmtKind::Recv { .. }
            | StmtKind::Send { .. }
            | StmtKind::Expr(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_widths() {
        assert_eq!(Type::Int.bit_width(None), Some(32));
        assert_eq!(Type::Char.bit_width(None), Some(8));
        assert_eq!(Type::Bits(11).bit_width(None), Some(11));
        assert_eq!(Type::Named("x".into()).bit_width(None), None);
    }

    #[test]
    fn named_type_resolves_through_program() {
        let program = Program {
            types: vec![
                TypeDef {
                    name: "addr".into(),
                    kind: TypeDefKind::Alias(Type::Bits(11)),
                    span: Span::dummy(),
                },
                TypeDef {
                    name: "u".into(),
                    kind: TypeDefKind::Union(vec![
                        UnionField {
                            name: "a".into(),
                            ty: Type::Char,
                            span: Span::dummy(),
                        },
                        UnionField {
                            name: "b".into(),
                            ty: Type::Int,
                            span: Span::dummy(),
                        },
                    ]),
                    span: Span::dummy(),
                },
            ],
            threads: vec![],
        };
        assert_eq!(
            Type::Named("addr".into()).bit_width(Some(&program)),
            Some(11)
        );
        // Union width is the max of its fields.
        assert_eq!(Type::Named("u".into()).bit_width(Some(&program)), Some(32));
    }

    #[test]
    fn expr_collect_reads_in_order() {
        let e = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::Var("a".into(), Span::dummy())),
            rhs: Box::new(Expr::Call {
                callee: "f".into(),
                args: vec![Expr::Var("b".into(), Span::dummy())],
                span: Span::dummy(),
            }),
            span: Span::dummy(),
        };
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        assert_eq!(reads, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn lvalue_base_names() {
        assert_eq!(LValue::Var("x".into()).base(), "x");
        let idx = LValue::Index {
            name: "arr".into(),
            index: Box::new(Expr::Int(0, Span::dummy())),
        };
        assert_eq!(idx.base(), "arr");
    }
}
