//! Abstract syntax of NanoML programs.
//!
//! NanoML is the paper's core language (§3) extended with the §4
//! constructs: datatypes (iso-recursive sums of products), constructors,
//! and pattern matching. `fold`/`unfold` are implicit at construction and
//! match sites, as the paper assumes.

use dsolve_logic::Symbol;
use std::fmt;

/// Primitive binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrimOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `mod`
    Mod,
    /// `=` (polymorphic equality restricted to base values)
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Mod => "mod",
            PrimOp::Eq => "=",
            PrimOp::Ne => "<>",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::Gt => ">",
            PrimOp::Ge => ">=",
            PrimOp::And => "&&",
            PrimOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// A shallow match pattern: a constructor applied to variable binders
/// (the form the paper's `match-with` rule expects), or a catch-all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `C (x1, ..., xn)` with each binder a variable or `_`.
    Ctor {
        /// Constructor name.
        name: Symbol,
        /// One binder per constructor field; `None` is `_`.
        binders: Vec<Option<Symbol>>,
    },
    /// `x` or `_`: matches anything.
    Any(Option<Symbol>),
    /// `(x1, ..., xn)`: tuple destructuring.
    Tuple(Vec<Option<Symbol>>),
}

/// A match arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arm {
    /// The (shallow) pattern.
    pub pattern: Pattern,
    /// Arm body.
    pub body: Expr,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Variable occurrence.
    Var(Symbol),
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Unit value `()`.
    Unit,
    /// Primitive operator application `e1 op e2`.
    Prim(PrimOp, Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Boolean negation `not e`.
    Not(Box<Expr>),
    /// `fun x -> e`.
    Lam(Symbol, Box<Expr>),
    /// Application `e1 e2`.
    App(Box<Expr>, Box<Expr>),
    /// `let x = e1 in e2` (generalizing).
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// `let rec f = fun ... in e` (fixpoint).
    LetRec(Symbol, Box<Expr>, Box<Expr>),
    /// `let (x1, ..., xn) = e1 in e2`.
    LetTuple(Vec<Option<Symbol>>, Box<Expr>, Box<Expr>),
    /// `if c then t else e`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Tuple `(e1, ..., en)` with n ≥ 2.
    Tuple(Vec<Expr>),
    /// Constructor application (fully applied).
    Ctor(Symbol, Vec<Expr>),
    /// `match e with arms`.
    Match(Box<Expr>, Vec<Arm>),
    /// `assert e` — the verification target: the paper types `assert` at
    /// `{ν:bool | ν} → unit`.
    Assert(Box<Expr>, u32),
}

impl Expr {
    /// Convenience: application spine `f e1 ... en`.
    pub fn apps(f: Expr, args: Vec<Expr>) -> Expr {
        args.into_iter()
            .fold(f, |acc, a| Expr::App(Box::new(acc), Box::new(a)))
    }
}

/// Surface type expressions (used in datatype declarations and `.mlq`
/// signatures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `unit`
    Unit,
    /// `'a`
    Var(String),
    /// `t1 -> t2`
    Arrow(Box<TypeExpr>, Box<TypeExpr>),
    /// `t1 * ... * tn`
    Tuple(Vec<TypeExpr>),
    /// `(t1, ..., tn) name` (including `t list`)
    App(String, Vec<TypeExpr>),
}

/// One constructor declaration: `C of t1 * ... * tn`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtorDecl {
    /// Constructor name.
    pub name: Symbol,
    /// Field types (empty for nullary constructors).
    pub fields: Vec<TypeExpr>,
}

/// A datatype declaration `type ('a, 'b) name = C1 of ... | C2 ...`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataDecl {
    /// Type constructor name.
    pub name: Symbol,
    /// Type parameters in order.
    pub params: Vec<String>,
    /// Constructors.
    pub ctors: Vec<CtorDecl>,
}

/// One binding inside a top-level `let` group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopBind {
    /// Bound name.
    pub name: Symbol,
    /// The right-hand side with parameters already desugared to lambdas.
    pub body: Expr,
}

/// A top-level `let [rec] f ... = e [and g ... = e]` group. A group with
/// several binds is mutually recursive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopLet {
    /// Whether the group is (mutually) recursive.
    pub recursive: bool,
    /// The bindings of the group.
    pub binds: Vec<TopBind>,
    /// Source line (for reports).
    pub line: u32,
}

/// A parsed program: datatype declarations and top-level bindings in
/// source order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Datatype declarations.
    pub datatypes: Vec<DataDecl>,
    /// Top-level binding groups.
    pub lets: Vec<TopLet>,
}

impl Program {
    /// Looks up a datatype by name.
    pub fn datatype(&self, name: Symbol) -> Option<&DataDecl> {
        self.datatypes.iter().find(|d| d.name == name)
    }
}
