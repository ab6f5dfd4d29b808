//! Recursive-descent parser for `zlang`.
//!
//! # Grammar (EBNF-ish)
//!
//! ```text
//! program   = "program" IDENT ";" decl* "begin" stmt* "end" [";"]
//! decl      = config | region | direction | var
//! config    = "config" IDENT ":" type "=" ["-"] literal ";"
//! region    = "region" IDENT "=" "[" range {"," range} "]" ";"
//! range     = affine ".." affine
//! direction = "direction" IDENT "=" "[" sint {"," sint} "]" ";"
//! var       = "var" IDENT {"," IDENT} ":" ["[" IDENT "]"] type ";"
//! stmt      = "[" IDENT "]" IDENT ":=" expr ";"
//!           | IDENT ":=" expr ";"
//!           | "for" IDENT ":=" expr ("to"|"downto") expr "do" stmt* "end" ";"
//!           | "if" expr "then" stmt* ["else" stmt*] "end" ";"
//! expr      = addsub [relop addsub]
//! addsub    = muldiv {("+"|"-") muldiv}
//! muldiv    = unary {("*"|"/") unary}
//! unary     = "-" unary | primary
//! primary   = literal | "(" expr ")" | reduceop "[" IDENT "]" addsub
//!           | IDENT ["@" (IDENT | "[" sint {"," sint} "]") | "(" expr {"," expr} ")"]
//! ```
//!
//! A reduction's argument extends to the end of the additive expression, so
//! `+<< [R] A + B` reduces `A + B`; parenthesize to reduce less.
//!
//! # Nesting limit
//!
//! Every stage after the parser walks the program recursively, and a
//! thread's stack cannot be grown or its overflow caught, so the parser
//! bounds how deeply a program nests: a `for` or `if` block, a
//! parenthesized group, a call's argument list, a reduction's argument
//! and a unary minus each open one level, and at most [`MAX_NESTING`]
//! levels may be open at once. The construct that opens one level more is
//! a parse error at its first token.
//!
//! A chain of `+ - * /` parses in a loop but builds a tree as deep as the
//! chain is long (`a + b + c` is `(a + b) + c`), so each such node counts
//! as one level too, as a parenthesis does: the blocks and groups open
//! around an expression plus the depth of its tree are at most
//! [`MAX_NESTING`], and the operator that would make them one more is a
//! parse error at that operator. A comparison does not count: it cannot
//! chain without parentheses, which count already.

use crate::ast::*;
use crate::error::{Error, Pos};
use crate::token::{Token, TokenKind};

/// How many blocks, expression groups and arithmetic operator nodes may
/// nest (see the module docs). A program at the limit compiles and runs
/// on a thread with a 2 MB stack on every engine.
pub const MAX_NESTING: u32 = 256;

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    /// Blocks and expression groups open at the current token.
    depth: u32,
    exprs: Vec<Expr>,
    args: Vec<ExprId>,
    offsets: Vec<i64>,
    /// Arguments of the calls being parsed, innermost call's last.
    pending: Vec<ExprId>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &'a TokenKind {
        &self.toks[self.i].kind
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) {
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Pos, Error> {
        let pos = self.pos();
        if self.peek() == kind {
            self.bump();
            Ok(pos)
        } else {
            Err(Error::parse(
                pos,
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Name, Error> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name.clone())
            }
            other => Err(Error::parse(
                self.pos(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<i64, Error> {
        let pos = self.pos();
        let neg = self.eat(&TokenKind::Minus);
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(Error::parse(
                pos,
                format!("expected integer, found {other}"),
            )),
        }
    }

    /// Opens one nesting level at the construct starting at `pos`.
    fn nest(&mut self, pos: Pos) -> Result<(), Error> {
        self.within_limit(pos, 1)?;
        self.depth += 1;
        Ok(())
    }

    /// The nesting error at `pos` when the open levels plus `levels` more
    /// are past the limit.
    fn within_limit(&self, pos: Pos, levels: u32) -> Result<(), Error> {
        if self.depth + levels > MAX_NESTING {
            return Err(Error::parse(
                pos,
                format!("nesting exceeds the limit of {MAX_NESTING} levels"),
            ));
        }
        Ok(())
    }

    fn unnest(&mut self) {
        self.depth -= 1;
    }

    fn push(&mut self, e: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    fn program(mut self) -> Result<Program, Error> {
        self.expect(&TokenKind::Program)?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Semi)?;
        let mut decls = Vec::new();
        while !matches!(self.peek(), TokenKind::Begin) {
            decls.push(self.decl()?);
        }
        self.expect(&TokenKind::Begin)?;
        let body = self.stmts_until_end()?;
        self.eat(&TokenKind::Semi);
        if self.peek() != &TokenKind::Eof {
            return Err(Error::parse(
                self.pos(),
                format!("unexpected {} after `end`", self.peek()),
            ));
        }
        Ok(Program {
            name,
            decls,
            body,
            exprs: self.exprs,
            args: self.args,
            offsets: self.offsets,
        })
    }

    fn ty(&mut self) -> Result<Type, Error> {
        let pos = self.pos();
        if self.eat(&TokenKind::FloatTy) {
            Ok(Type::Float)
        } else if self.eat(&TokenKind::IntTy) {
            Ok(Type::Int)
        } else {
            Err(Error::parse(
                pos,
                format!("expected type, found {}", self.peek()),
            ))
        }
    }

    fn decl(&mut self) -> Result<Decl, Error> {
        let pos = self.pos();
        match self.peek() {
            TokenKind::Config => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.ty()?;
                self.expect(&TokenKind::Eq)?;
                let neg = self.eat(&TokenKind::Minus);
                let default = match *self.peek() {
                    TokenKind::Int(v) => {
                        self.bump();
                        Literal::Int(if neg { -v } else { v })
                    }
                    TokenKind::Float(v) => {
                        self.bump();
                        Literal::Float(if neg { -v } else { v })
                    }
                    ref other => {
                        return Err(Error::parse(
                            self.pos(),
                            format!("expected literal default, found {other}"),
                        ))
                    }
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Decl::Config {
                    name,
                    ty,
                    default,
                    pos,
                })
            }
            TokenKind::Region => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(&TokenKind::Eq)?;
                self.expect(&TokenKind::LBracket)?;
                let mut extents = vec![self.range()?];
                while self.eat(&TokenKind::Comma) {
                    extents.push(self.range()?);
                }
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Decl::Region { name, extents, pos })
            }
            TokenKind::Direction => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(&TokenKind::Eq)?;
                self.expect(&TokenKind::LBracket)?;
                let mut offsets = vec![self.expect_int()?];
                while self.eat(&TokenKind::Comma) {
                    offsets.push(self.expect_int()?);
                }
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Decl::Direction { name, offsets, pos })
            }
            TokenKind::Var => {
                self.bump();
                let mut names = vec![self.expect_ident()?];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.expect_ident()?);
                }
                self.expect(&TokenKind::Colon)?;
                let region = if self.eat(&TokenKind::LBracket) {
                    let r = self.expect_ident()?;
                    self.expect(&TokenKind::RBracket)?;
                    Some(r)
                } else {
                    None
                };
                let ty = self.ty()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Decl::Var {
                    names,
                    region,
                    ty,
                    pos,
                })
            }
            other => Err(Error::parse(
                pos,
                format!("expected declaration, found {other}"),
            )),
        }
    }

    fn range(&mut self) -> Result<RangeExpr, Error> {
        let lo = self.affine()?;
        self.expect(&TokenKind::DotDot)?;
        let hi = self.affine()?;
        Ok(RangeExpr { lo, hi })
    }

    /// Parses `c0 + c1*v + ...`, where each term is an integer, a config
    /// name, or `int * name` / `name * int`.
    fn affine(&mut self) -> Result<AffineExpr, Error> {
        let pos = self.pos();
        let mut out = AffineExpr {
            base: 0,
            terms: Vec::new(),
            pos,
        };
        let mut sign = 1i64;
        if self.eat(&TokenKind::Minus) {
            sign = -1;
        }
        loop {
            match self.peek() {
                TokenKind::Int(v) => {
                    self.bump();
                    if self.eat(&TokenKind::Star) {
                        let name = self.expect_ident()?;
                        out.terms.push((name, sign * v));
                    } else {
                        out.base += sign * v;
                    }
                }
                TokenKind::Ident(name) => {
                    self.bump();
                    if self.eat(&TokenKind::Star) {
                        let v = self.expect_int()?;
                        out.terms.push((name.clone(), sign * v));
                    } else {
                        out.terms.push((name.clone(), sign));
                    }
                }
                other => {
                    return Err(Error::parse(
                        self.pos(),
                        format!("expected affine term, found {other}"),
                    ))
                }
            }
            if self.eat(&TokenKind::Plus) {
                sign = 1;
            } else if self.eat(&TokenKind::Minus) {
                sign = -1;
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// Statements up to the `end` or `else` that closes a block.
    fn block(&mut self) -> Result<Vec<Stmt>, Error> {
        let mut out = Vec::new();
        while !matches!(self.peek(), TokenKind::End | TokenKind::Else) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmts_until_end(&mut self) -> Result<Vec<Stmt>, Error> {
        let out = self.block()?;
        self.expect(&TokenKind::End)?;
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, Error> {
        let pos = self.pos();
        match self.peek() {
            TokenKind::LBracket => {
                self.bump();
                let region = self.expect_ident()?;
                self.expect(&TokenKind::RBracket)?;
                let lhs = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let rhs = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::ArrayAssign {
                    region,
                    lhs,
                    rhs,
                    pos,
                })
            }
            TokenKind::Ident(lhs) => {
                self.bump();
                self.expect(&TokenKind::Assign)?;
                let rhs = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::ScalarAssign {
                    lhs: lhs.clone(),
                    rhs,
                    pos,
                })
            }
            TokenKind::For => {
                self.nest(pos)?;
                self.bump();
                let var = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let lo = self.expr()?;
                let down = if self.eat(&TokenKind::To) {
                    false
                } else if self.eat(&TokenKind::Downto) {
                    true
                } else {
                    return Err(Error::parse(
                        self.pos(),
                        format!("expected `to` or `downto`, found {}", self.peek()),
                    ));
                };
                let hi = self.expr()?;
                self.expect(&TokenKind::Do)?;
                let body = self.stmts_until_end()?;
                self.expect(&TokenKind::Semi)?;
                self.unnest();
                Ok(Stmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                    pos,
                })
            }
            TokenKind::If => {
                self.nest(pos)?;
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Then)?;
                let then_body = self.block()?;
                let else_body = if self.eat(&TokenKind::Else) {
                    let mut e = Vec::new();
                    while !matches!(self.peek(), TokenKind::End) {
                        e.push(self.stmt()?);
                    }
                    e
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::End)?;
                self.expect(&TokenKind::Semi)?;
                self.unnest();
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                })
            }
            other => Err(Error::parse(
                pos,
                format!("expected statement, found {other}"),
            )),
        }
    }

    fn expr(&mut self) -> Result<ExprId, Error> {
        Ok(self.comparison()?.0)
    }

    /// An expression and the levels its tree spans (module docs).
    fn comparison(&mut self) -> Result<(ExprId, u32), Error> {
        let pos = self.pos();
        let (lhs, levels) = self.addsub()?;
        let op = match self.peek() {
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            _ => return Ok((lhs, levels)),
        };
        self.bump();
        let (rhs, right) = self.addsub()?;
        Ok((
            self.push(Expr::Binary(op, lhs, rhs, pos)),
            levels.max(right),
        ))
    }

    fn addsub(&mut self) -> Result<(ExprId, u32), Error> {
        let (mut lhs, mut levels) = self.muldiv()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok((lhs, levels)),
            };
            let pos = self.pos();
            self.bump();
            let (rhs, right) = self.muldiv()?;
            levels = levels.max(right) + 1;
            self.within_limit(pos, levels)?;
            lhs = self.push(Expr::Binary(op, lhs, rhs, pos));
        }
    }

    fn muldiv(&mut self) -> Result<(ExprId, u32), Error> {
        let (mut lhs, mut levels) = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok((lhs, levels)),
            };
            let pos = self.pos();
            self.bump();
            let (rhs, right) = self.unary()?;
            levels = levels.max(right) + 1;
            self.within_limit(pos, levels)?;
            lhs = self.push(Expr::Binary(op, lhs, rhs, pos));
        }
    }

    fn unary(&mut self) -> Result<(ExprId, u32), Error> {
        let pos = self.pos();
        if self.peek() == &TokenKind::Minus {
            self.nest(pos)?;
            self.bump();
            let (e, levels) = self.unary()?;
            self.unnest();
            Ok((self.push(Expr::Unary(UnOp::Neg, e, pos)), levels + 1))
        } else {
            self.primary()
        }
    }

    fn reduce_op(&self) -> Option<ReduceOp> {
        Some(match self.peek() {
            TokenKind::SumReduce => ReduceOp::Sum,
            TokenKind::ProdReduce => ReduceOp::Prod,
            TokenKind::MaxReduce => ReduceOp::Max,
            TokenKind::MinReduce => ReduceOp::Min,
            _ => return None,
        })
    }

    fn primary(&mut self) -> Result<(ExprId, u32), Error> {
        let pos = self.pos();
        if let Some(op) = self.reduce_op() {
            self.nest(pos)?;
            self.bump();
            self.expect(&TokenKind::LBracket)?;
            let region = self.expect_ident()?;
            self.expect(&TokenKind::RBracket)?;
            let (arg, levels) = self.addsub()?;
            self.unnest();
            return Ok((self.push(Expr::Reduce(op, region, arg, pos)), levels + 1));
        }
        let leaf = match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Expr::Lit(Literal::Int(*v), pos)
            }
            TokenKind::Float(v) => {
                self.bump();
                Expr::Lit(Literal::Float(*v), pos)
            }
            TokenKind::LParen => {
                self.nest(pos)?;
                self.bump();
                let (e, levels) = self.comparison()?;
                self.expect(&TokenKind::RParen)?;
                self.unnest();
                return Ok((e, levels + 1));
            }
            TokenKind::Ident(name) => {
                self.bump();
                let name = name.clone();
                if self.eat(&TokenKind::At) {
                    let off = if self.eat(&TokenKind::LBracket) {
                        let start = self.offsets.len() as u32;
                        let first = self.expect_int()?;
                        self.offsets.push(first);
                        while self.eat(&TokenKind::Comma) {
                            let next = self.expect_int()?;
                            self.offsets.push(next);
                        }
                        self.expect(&TokenKind::RBracket)?;
                        AtOffset::Inline(Run {
                            start,
                            len: self.offsets.len() as u32 - start,
                        })
                    } else {
                        AtOffset::Named(self.expect_ident()?)
                    };
                    Expr::At(name, off, pos)
                } else if self.peek() == &TokenKind::LParen {
                    let (args, levels) = self.call_args()?;
                    return Ok((self.push(Expr::Call(name, args, pos)), levels));
                } else {
                    Expr::Name(name, pos)
                }
            }
            other => {
                return Err(Error::parse(
                    pos,
                    format!("expected expression, found {other}"),
                ))
            }
        };
        Ok((self.push(leaf), 0))
    }

    /// `"(" [expr {"," expr}] ")"`, stored as a run of the argument list,
    /// and the levels the call spans: one more than its deepest argument.
    fn call_args(&mut self) -> Result<(Run, u32), Error> {
        self.nest(self.pos())?;
        self.bump();
        let mark = self.pending.len();
        let mut levels = 0;
        if self.peek() != &TokenKind::RParen {
            loop {
                let (arg, arg_levels) = self.comparison()?;
                self.pending.push(arg);
                levels = levels.max(arg_levels);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.unnest();
        let start = self.args.len() as u32;
        self.args.extend(self.pending.drain(mark..));
        let args = Run {
            start,
            len: self.args.len() as u32 - start,
        };
        Ok((args, levels + 1))
    }
}

/// Parses a token stream into a surface [`Program`].
///
/// # Errors
///
/// Returns the first syntax error with its source position, including a
/// program that nests deeper than [`MAX_NESTING`].
///
/// ```
/// # fn main() -> Result<(), zlang::Error> {
/// let toks = zlang::lexer::lex("program p; region R = [1..8]; var A : [R] float; begin [R] A := 1.0; end")?;
/// let ast = zlang::parser::parse(&toks)?;
/// assert_eq!(ast.name, "p");
/// # Ok(())
/// # }
/// ```
pub fn parse(tokens: &[Token]) -> Result<Program, Error> {
    assert!(
        matches!(tokens.last(), Some(t) if t.kind == TokenKind::Eof),
        "token stream must end with Eof"
    );
    Parser {
        toks: tokens,
        i: 0,
        depth: 0,
        // One node per two tokens covers the benchmarks and generated
        // programs; a denser program grows the vector.
        exprs: Vec::with_capacity(tokens.len() / 2),
        args: Vec::new(),
        offsets: Vec::new(),
        pending: Vec::new(),
    }
    .program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> Error {
        parse(&lex(src).unwrap()).unwrap_err()
    }

    const HEADER: &str = "program p; region R = [1..8]; var A, B : [R] float; var s : float; ";

    fn with_body(body: &str) -> Program {
        parse_src(&format!("{HEADER} begin {body} end"))
    }

    #[test]
    fn parses_minimal_program() {
        let p = with_body("[R] A := 1.0;");
        assert_eq!(p.decls.len(), 3);
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn parses_region_with_affine_bounds() {
        let p =
            parse_src("program p; config n : int = 4; region R = [0..n+1, 2*n-1..3*n]; begin end");
        let Decl::Region { extents, .. } = &p.decls[1] else {
            panic!("expected region")
        };
        assert_eq!(extents.len(), 2);
        assert_eq!(extents[0].hi.base, 1);
        assert_eq!(extents[0].hi.terms, vec![(Name::new("n"), 1)]);
        assert_eq!(extents[1].lo.terms, vec![(Name::new("n"), 2)]);
        assert_eq!(extents[1].lo.base, -1);
    }

    #[test]
    fn parses_direction_and_at() {
        let p = parse_src(
            "program p; region R = [1..4]; direction w = [-1]; var A, B : [R] float; \
             begin [R] A := B@w + B@[1]; end",
        );
        let Stmt::ArrayAssign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let Expr::Binary(BinOp::Add, l, r, _) = p.expr(*rhs) else {
            panic!()
        };
        assert!(matches!(p.expr(*l), Expr::At(n, AtOffset::Named(d), _) if n == "B" && d == "w"));
        let Expr::At(n, AtOffset::Inline(run), _) = p.expr(*r) else {
            panic!()
        };
        assert_eq!((n.as_str(), p.offsets(*run)), ("B", &[1][..]));
    }

    #[test]
    fn parses_precedence() {
        let p = with_body("[R] A := B + B * 2.0;");
        let Stmt::ArrayAssign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let Expr::Binary(BinOp::Add, _, r, _) = p.expr(*rhs) else {
            panic!()
        };
        assert!(matches!(p.expr(*r), Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn parses_comparison_as_top_level() {
        let p = with_body("[R] A := B + 1.0 < B * 2.0;");
        let Stmt::ArrayAssign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(p.expr(*rhs), Expr::Binary(BinOp::Lt, _, _, _)));
    }

    #[test]
    fn parses_for_loop_and_downto() {
        let p = with_body("for s := 1 to 3 do [R] A := B; end; for s := 3 downto 1 do end;");
        assert!(matches!(&p.body[0], Stmt::For { down: false, body, .. } if body.len() == 1));
        assert!(matches!(&p.body[1], Stmt::For { down: true, body, .. } if body.is_empty()));
    }

    #[test]
    fn parses_if_else() {
        let p = with_body("if s > 1.0 then [R] A := B; else [R] B := A; s := 2.0; end;");
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &p.body[0]
        else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 2);
    }

    #[test]
    fn parses_reduction_spanning_addsub() {
        let p = with_body("s := +<< [R] A + B;");
        let Stmt::ScalarAssign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let Expr::Reduce(ReduceOp::Sum, region, arg, _) = p.expr(*rhs) else {
            panic!()
        };
        assert_eq!(region, "R");
        assert!(matches!(p.expr(*arg), Expr::Binary(BinOp::Add, _, _, _)));
    }

    #[test]
    fn parses_intrinsic_calls() {
        let p = with_body("[R] A := max(B, sqrt(A));");
        let Stmt::ArrayAssign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let Expr::Call(f, args, _) = p.expr(*rhs) else {
            panic!()
        };
        assert_eq!(f, "max");
        let args = p.args(*args);
        assert_eq!(args.len(), 2);
        assert!(matches!(p.expr(args[0]), Expr::Name(n, _) if n == "B"));
        let Expr::Call(g, inner, _) = p.expr(args[1]) else {
            panic!()
        };
        assert_eq!(g, "sqrt");
        assert!(matches!(p.expr(p.args(*inner)[0]), Expr::Name(n, _) if n == "A"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let e =
            parse_err("program p; region R = [1..4]; var A : [R] float; begin [R] A := 1.0 end");
        assert!(e.message.contains("expected"), "{e}");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = parse_err("program p; begin end garbage");
        assert!(e.message.contains("after `end`"), "{e}");
    }

    #[test]
    fn rejects_unclosed_if() {
        assert!(parse(&lex(&format!("{HEADER} begin if s > 1.0 then end")).unwrap()).is_err());
    }

    /// `depth` copies of `open`, then `inner`, then `depth` copies of
    /// `close`, as the body of a program.
    fn nested(depth: u32, open: &str, inner: &str, close: &str) -> String {
        let d = depth as usize;
        format!(
            "{HEADER} var k : int; begin {}{inner}{} end",
            open.repeat(d),
            close.repeat(d)
        )
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let n = MAX_NESTING;
        let parens = format!(
            "{HEADER} begin [R] A := {}B{}; end",
            "(".repeat(n as usize),
            ")".repeat(n as usize)
        );
        parse_src(&parens);
        // Spaced, since `--` starts a comment.
        let negs = format!("{HEADER} begin [R] A := {}B; end", "- ".repeat(n as usize));
        parse_src(&negs);
        let calls = format!(
            "{HEADER} begin [R] A := {}B{}; end",
            "abs(".repeat(n as usize),
            ")".repeat(n as usize)
        );
        parse_src(&calls);
        parse_src(&nested(n, "for k := 1 to 2 do ", "[R] A := B;", "end; "));
        parse_src(&nested(n, "if s > 0.0 then ", "[R] A := B;", "end; "));
        // Blocks and groups share the count.
        let mixed = nested(n - 1, "if s > 0.0 then ", "[R] A := (B);", "end; ");
        parse_src(&mixed);
    }

    #[test]
    fn one_level_past_the_limit_is_an_error_at_the_opening_token() {
        let n = MAX_NESTING as usize + 1;
        let limit = format!("nesting exceeds the limit of {MAX_NESTING} levels");
        let prefix = format!("{HEADER} begin [R] A := ");
        let col = |k: usize| (prefix.len() + k + 1) as u32;
        let cases = [
            (
                format!("{prefix}{}B{}; end", "(".repeat(n), ")".repeat(n)),
                col(n - 1),
            ),
            (
                format!("{prefix}{}B; end", "- ".repeat(n)),
                col(2 * (n - 1)),
            ),
            (
                format!("{prefix}{}B{}; end", "abs(".repeat(n), ")".repeat(n)),
                col(4 * (n - 1) + 3),
            ),
        ];
        for (src, col) in cases {
            let e = parse_err(&src);
            assert_eq!(e.to_string(), format!("parse error at 1:{col}: {limit}"));
        }
        let loops = nested(n as u32, "for k := 1 to 2 do ", "", "end; ");
        let e = parse_err(&loops);
        let at = loops.match_indices("for").nth(n - 1).unwrap().0;
        assert_eq!(
            e.to_string(),
            format!("parse error at 1:{}: {limit}", at + 1)
        );
        let ifs = nested(n as u32, "if s > 0.0 then ", "", "end; ");
        let at = ifs.match_indices("if").nth(n - 1).unwrap().0;
        assert_eq!(
            parse_err(&ifs).to_string(),
            format!("parse error at 1:{}: {limit}", at + 1)
        );
    }

    /// `B op B op ... op B` with `ops` operators: a tree `ops` deep.
    fn chain(ops: usize, op: &str) -> String {
        format!("B{}", format!(" {op} B").repeat(ops))
    }

    #[test]
    fn each_arithmetic_operator_of_a_chain_is_one_level() {
        let n = MAX_NESTING as usize;
        let limit = format!("nesting exceeds the limit of {MAX_NESTING} levels");
        let prefix = format!("{HEADER} begin [R] A := ");
        for op in ["+", "-", "*", "/"] {
            parse_src(&format!("{prefix}{}; end", chain(n, op)));
            // The 257th operator is the error, at its own column.
            let e = parse_err(&format!("{prefix}{}; end", chain(n + 1, op)));
            let col = prefix.len() + 4 * n + 3;
            assert_eq!(e.to_string(), format!("parse error at 1:{col}: {limit}"));
        }
        // Blocks, groups and operator nodes share the count; a chain's
        // operands count from where the chain is.
        let inside = |ops| {
            nested(
                1,
                "for k := 1 to 2 do ",
                &format!("s := {};", chain(ops, "+")),
                "end; ",
            )
        };
        parse_src(&inside(n - 1));
        assert!(parse_err(&inside(n)).message.contains(&limit));
        let grouped = format!("{prefix}({}); end", chain(n - 1, "*"));
        parse_src(&grouped);
        let grouped = format!("{prefix}({}) + B; end", chain(n - 1, "*"));
        assert!(parse_err(&grouped).message.contains(&limit));
        // Precedence builds a tree as deep as its deepest branch.
        let mixed = format!("{prefix}B * B{}; end", " + B * B".repeat(n - 1));
        parse_src(&mixed);
        // A comparison joins two chains without a level of its own.
        let compared = format!("{prefix}{} < {}; end", chain(n, "+"), chain(n, "-"));
        parse_src(&compared);
    }

    #[test]
    fn a_hundred_thousand_term_chain_is_an_error_not_an_overflow() {
        for op in ["+", "*"] {
            let src = format!("{HEADER} begin [R] A := {}; end", chain(99_999, op));
            let e = parse_err(&src);
            assert!(e.message.contains("nesting exceeds the limit"), "{e}");
        }
    }

    #[test]
    fn ten_thousand_open_parentheses_are_an_error_not_an_overflow() {
        let src = format!("{HEADER} begin [R] A := {}B; end", "(".repeat(10_000));
        let e = parse_err(&src);
        assert!(e.message.contains("nesting exceeds the limit"), "{e}");
    }
}
