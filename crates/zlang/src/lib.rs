//! A small ZPL-like array language frontend.
//!
//! `zlang` models the source level of the array languages studied in
//! *"The Implementation and Evaluation of Fusion and Contraction in Array
//! Languages"* (Lewis, Lin & Snyder, PLDI 1998): regions, directions,
//! element-wise array statements with constant-offset (`@`) references,
//! reductions, and scalar control flow.
//!
//! The crate provides a lexer, a recursive-descent parser, semantic
//! analysis, and an array-level IR ([`ir::Program`]) that downstream crates
//! (notably `fusion-core`) normalize and optimize.
//!
//! # The pipeline and what each stage allocates
//!
//! [`compile`] is [`lexer::lex`], then [`parser::parse`], then
//! [`sema::analyze`]. A compile cache miss pays for all three on the
//! request path, so none of them allocates per token:
//!
//! - **Tokens** ([`token::Token`]) are 24 bytes: a [`token::TokenKind`]
//!   and a [`error::Pos`]. An identifier carries its text in a
//!   [`token::Name`], 14 bytes inline (a longer name spills to one shared
//!   allocation). A position is the 1-based line and *byte* column,
//!   computed where a token starts from its byte offset and the offset of
//!   its line's first byte. The token vector is reserved from the
//!   source length up front.
//! - **The AST** ([`ast::Program`]) keeps every expression in one arena,
//!   [`ast::Program::exprs`], with operands as [`ast::ExprId`]s and call
//!   arguments and inline `@[...]` offsets as runs of two side vectors.
//!   Declarations and statement blocks are vectors of their own.
//! - **Sema** resolves a name with one probe of the program's
//!   [`ir::NameTable`] (an open-addressed interner that stores each name
//!   once) and a vector indexed by symbol. What it allocates is the IR.
//!
//! Tokens and the AST are owned values with no lifetime parameter: they
//! borrow nothing from the source text, so a caller can keep them after
//! the source is gone, as the benchmark harness keeps both per key.
//!
//! The parser bounds nesting at [`parser::MAX_NESTING`] levels (blocks,
//! expression groups and the `+ - * /` nodes of an operator chain
//! together), because every later stage recurses on it and a stack
//! overflow aborts the process instead of unwinding.
//!
//! # Language overview
//!
//! ```text
//! program heat;
//!
//! config n : int = 64;
//!
//! region RH = [0..n+1, 0..n+1];   -- declared with halo
//! region R  = [1..n, 1..n];
//!
//! direction north = [-1, 0];
//! direction south = [ 1, 0];
//! direction east  = [ 0, 1];
//! direction west  = [ 0,-1];
//!
//! var A, B : [RH] float;
//! var err  : float;
//! var k    : int;
//!
//! begin
//!   [RH] A := 0.0;
//!   for k := 1 to 10 do
//!     [R] B := (A@north + A@south + A@east + A@west) / 4.0;
//!     [R] A := B;
//!   end;
//!   err := +<< [R] abs(A);
//! end
//! ```
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), zlang::Error> {
//! let src = r#"
//!     program tiny;
//!     config n : int = 8;
//!     region R = [1..n];
//!     var A, B : [R] float;
//!     begin
//!       [R] A := 1.5;
//!       [R] B := A * 2.0;
//!     end
//! "#;
//! let program = zlang::compile(src)?;
//! assert_eq!(program.name, "tiny");
//! assert_eq!(program.arrays.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod intern;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;

pub use error::Error;
pub use ir::Program;

/// Compiles `zlang` source text into the array-level IR.
///
/// This runs the full frontend: lexing, parsing, and semantic analysis.
///
/// # Errors
///
/// Returns an [`Error`] describing the first lexical, syntactic, or semantic
/// problem found, with a line/column position.
///
/// ```
/// # fn main() -> Result<(), zlang::Error> {
/// let p = zlang::compile("program p; region R = [1..4]; var A : [R] float; begin [R] A := 0.0; end")?;
/// assert_eq!(p.body.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(source: &str) -> Result<ir::Program, Error> {
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    sema::analyze(&ast)
}
