//! Semantic analysis: resolves names, checks ranks and types, hoists
//! reductions, and lowers the surface AST to the array-level IR.

use crate::ast::{self, AtOffset, Decl, ExprId, Literal, Name, Type};
use crate::error::{Error, Pos};
use crate::ir::{
    ArrayDecl, ArrayExpr, ArrayId, ArrayStmt, ConfigDecl, ConfigId, Extent, Intrinsic, LinExpr,
    Offset, Program, RegionDecl, RegionId, ScalarDecl, ScalarExpr, ScalarId, Stmt,
};

/// What a name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    Config(ConfigId),
    Region(RegionId),
    Direction(u32),
    Array(ArrayId),
    Scalar(ScalarId),
}

struct Analyzer<'a> {
    ast: &'a ast::Program,
    program: Program,
    /// What each symbol of the program's name table is bound to, indexed
    /// by symbol: a reference hashes its name once, in the table, and
    /// indexes this vector.
    bindings: Vec<Option<Binding>>,
    /// Each direction's offsets, as the AST spells them.
    directions: Vec<&'a [i64]>,
    hidden_scalars: u32,
}

impl<'a> Analyzer<'a> {
    fn bind(&mut self, name: &Name, b: Binding, pos: Pos) -> Result<(), Error> {
        let text = name.as_str();
        let sym = match b {
            Binding::Array(id) => self.program.names.register_array(text, id),
            Binding::Scalar(id) => self.program.names.register_scalar(text, id),
            Binding::Region(id) => self.program.names.register_region(text, id),
            Binding::Config(id) => self.program.names.register_config(text, id),
            Binding::Direction(_) => self.program.names.intern(text),
        };
        let i = sym.0 as usize;
        if self.bindings.len() <= i {
            self.bindings.resize(i + 1, None);
        }
        if self.bindings[i].replace(b).is_some() {
            return Err(Error::sema(
                pos,
                format!("duplicate declaration of `{name}`"),
            ));
        }
        Ok(())
    }

    fn lookup(&self, name: &Name, pos: Pos) -> Result<Binding, Error> {
        self.program
            .names
            .symbol_bytes(name.as_bytes())
            .and_then(|sym| self.bindings.get(sym.0 as usize).copied().flatten())
            .ok_or_else(|| Error::sema(pos, format!("undeclared name `{name}`")))
    }

    fn fresh_scalar(&mut self, ty: Type) -> ScalarId {
        let id = ScalarId(self.program.scalars.len() as u32);
        let name = format!("_r{}", self.hidden_scalars);
        self.hidden_scalars += 1;
        self.program.scalars.push(ScalarDecl { name, ty });
        id
    }

    fn affine(&self, e: &ast::AffineExpr) -> Result<LinExpr, Error> {
        let mut out = LinExpr {
            base: e.base,
            terms: Vec::new(),
        };
        for (name, coeff) in &e.terms {
            match self.lookup(name, e.pos)? {
                Binding::Config(id) => out.terms.push((id, *coeff)),
                _ => {
                    return Err(Error::sema(
                        e.pos,
                        format!("region bounds may only reference config variables, not `{name}`"),
                    ))
                }
            }
        }
        Ok(out.normalize())
    }

    fn decls(&mut self, decls: &'a [Decl]) -> Result<(), Error> {
        for d in decls {
            match d {
                Decl::Config {
                    name,
                    ty,
                    default,
                    pos,
                } => {
                    let default = match (*ty, *default) {
                        (Type::Int, Literal::Int(v)) => v as f64,
                        (Type::Float, Literal::Float(v)) => v,
                        (Type::Float, Literal::Int(v)) => v as f64,
                        (Type::Int, Literal::Float(_)) => {
                            return Err(Error::sema(
                                *pos,
                                format!("config `{name}` is int but has a float default"),
                            ))
                        }
                    };
                    let id = ConfigId(self.program.configs.len() as u32);
                    self.program.configs.push(ConfigDecl {
                        name: name.as_str().to_owned(),
                        ty: *ty,
                        default,
                    });
                    self.bind(name, Binding::Config(id), *pos)?;
                }
                Decl::Region { name, extents, pos } => {
                    if extents.is_empty() {
                        return Err(Error::sema(*pos, format!("region `{name}` has no extents")));
                    }
                    let extents = extents
                        .iter()
                        .map(|r| {
                            Ok(Extent {
                                lo: self.affine(&r.lo)?,
                                hi: self.affine(&r.hi)?,
                            })
                        })
                        .collect::<Result<Vec<_>, Error>>()?;
                    let id = RegionId(self.program.regions.len() as u32);
                    self.program.regions.push(RegionDecl {
                        name: name.as_str().to_owned(),
                        extents,
                    });
                    self.bind(name, Binding::Region(id), *pos)?;
                }
                Decl::Direction { name, offsets, pos } => {
                    let idx = self.directions.len() as u32;
                    self.directions.push(offsets);
                    self.bind(name, Binding::Direction(idx), *pos)?;
                }
                Decl::Var {
                    names,
                    region,
                    ty,
                    pos,
                } => {
                    for n in names {
                        match region {
                            Some(rname) => {
                                if *ty != Type::Float {
                                    return Err(Error::sema(
                                        *pos,
                                        format!("array `{n}` must be float (int arrays are not supported)"),
                                    ));
                                }
                                let Binding::Region(rid) = self.lookup(rname, *pos)? else {
                                    return Err(Error::sema(
                                        *pos,
                                        format!("`{rname}` is not a region"),
                                    ));
                                };
                                let id = ArrayId(self.program.arrays.len() as u32);
                                self.program.arrays.push(ArrayDecl {
                                    name: n.as_str().to_owned(),
                                    region: rid,
                                    compiler_temp: false,
                                    collapsed: Vec::new(),
                                });
                                self.bind(n, Binding::Array(id), *pos)?;
                            }
                            None => {
                                let id = ScalarId(self.program.scalars.len() as u32);
                                self.program.scalars.push(ScalarDecl {
                                    name: n.as_str().to_owned(),
                                    ty: *ty,
                                });
                                self.bind(n, Binding::Scalar(id), *pos)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Lowers a call's intrinsic and arity; the arguments are lowered by
    /// the caller in its own context.
    fn intrinsic(&self, fname: &Name, args: usize, pos: Pos) -> Result<Intrinsic, Error> {
        let Some(intr) = Intrinsic::from_name(fname.as_str()) else {
            return Err(Error::sema(pos, format!("unknown intrinsic `{fname}`")));
        };
        if args != intr.arity() {
            return Err(Error::sema(
                pos,
                format!(
                    "intrinsic `{fname}` expects {} argument(s), got {args}",
                    intr.arity(),
                ),
            ));
        }
        Ok(intr)
    }

    /// Lowers an expression in *array context* over a statement region of
    /// rank `rank`.
    fn array_expr(&mut self, e: ExprId, rank: usize) -> Result<ArrayExpr, Error> {
        let ast = self.ast;
        match ast.expr(e) {
            ast::Expr::Lit(Literal::Int(v), _) => Ok(ArrayExpr::Const(*v as f64)),
            ast::Expr::Lit(Literal::Float(v), _) => Ok(ArrayExpr::Const(*v)),
            ast::Expr::Name(name, pos) => {
                if let Some(d) = index_name(name) {
                    if d as usize >= rank {
                        return Err(Error::sema(
                            *pos,
                            format!("`{name}` exceeds the statement's rank {rank}"),
                        ));
                    }
                    return Ok(ArrayExpr::Index(d));
                }
                match self.lookup(name, *pos)? {
                    Binding::Array(a) => {
                        self.check_array_rank(a, rank, *pos)?;
                        Ok(ArrayExpr::Read(a, Offset::zero(rank)))
                    }
                    Binding::Scalar(s) => Ok(ArrayExpr::ScalarRef(s)),
                    Binding::Config(c) => Ok(ArrayExpr::ConfigRef(c)),
                    Binding::Region(_) | Binding::Direction(_) => Err(Error::sema(
                        *pos,
                        format!("`{name}` cannot be used as a value"),
                    )),
                }
            }
            ast::Expr::At(name, off, pos) => {
                let Binding::Array(a) = self.lookup(name, *pos)? else {
                    return Err(Error::sema(
                        *pos,
                        format!("`@` applies to arrays, `{name}` is not one"),
                    ));
                };
                self.check_array_rank(a, rank, *pos)?;
                let vec = match off {
                    AtOffset::Named(dname) => {
                        let Binding::Direction(di) = self.lookup(dname, *pos)? else {
                            return Err(Error::sema(*pos, format!("`{dname}` is not a direction")));
                        };
                        self.directions[di as usize]
                    }
                    AtOffset::Inline(run) => ast.offsets(*run),
                };
                if vec.len() != rank {
                    return Err(Error::sema(
                        *pos,
                        format!(
                            "direction rank {} does not match statement rank {rank}",
                            vec.len()
                        ),
                    ));
                }
                Ok(ArrayExpr::Read(a, Offset(vec.to_vec())))
            }
            ast::Expr::Unary(op, inner, _) => Ok(ArrayExpr::Unary(
                *op,
                Box::new(self.array_expr(*inner, rank)?),
            )),
            ast::Expr::Binary(op, l, r, _) => Ok(ArrayExpr::Binary(
                *op,
                Box::new(self.array_expr(*l, rank)?),
                Box::new(self.array_expr(*r, rank)?),
            )),
            ast::Expr::Call(fname, args, pos) => {
                let args = ast.args(*args);
                let intr = self.intrinsic(fname, args.len(), *pos)?;
                let args = args
                    .iter()
                    .map(|&a| self.array_expr(a, rank))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ArrayExpr::Call(intr, args))
            }
            ast::Expr::Reduce(_, _, _, pos) => Err(Error::sema(
                *pos,
                "reductions are scalar-valued and cannot appear inside an array statement",
            )),
        }
    }

    fn check_array_rank(&self, a: ArrayId, rank: usize, pos: Pos) -> Result<(), Error> {
        let have = self.program.array_rank(a);
        if have != rank {
            return Err(Error::sema(
                pos,
                format!(
                    "array `{}` has rank {have} but the statement region has rank {rank}",
                    self.program.array(a).name
                ),
            ));
        }
        Ok(())
    }

    /// Lowers a reduction `op<< [rname] arg` into `lhs`.
    fn reduce(
        &mut self,
        op: ast::ReduceOp,
        rname: &Name,
        arg: ExprId,
        pos: Pos,
        lhs: ScalarId,
    ) -> Result<Stmt, Error> {
        let Binding::Region(rid) = self.lookup(rname, pos)? else {
            return Err(Error::sema(pos, format!("`{rname}` is not a region")));
        };
        let rank = self.program.region(rid).rank();
        let arg = self.array_expr(arg, rank)?;
        Ok(Stmt::Reduce {
            lhs,
            op,
            region: rid,
            arg,
        })
    }

    /// Lowers an expression in *scalar context*. Reductions are hoisted into
    /// `out` as separate statements, replaced by hidden scalars.
    fn scalar_expr(&mut self, e: ExprId, out: &mut Vec<Stmt>) -> Result<ScalarExpr, Error> {
        let ast = self.ast;
        match ast.expr(e) {
            ast::Expr::Lit(Literal::Int(v), _) => Ok(ScalarExpr::Const(*v as f64)),
            ast::Expr::Lit(Literal::Float(v), _) => Ok(ScalarExpr::Const(*v)),
            ast::Expr::Name(name, pos) => match self.lookup(name, *pos)? {
                Binding::Scalar(s) => Ok(ScalarExpr::ScalarRef(s)),
                Binding::Config(c) => Ok(ScalarExpr::ConfigRef(c)),
                Binding::Array(_) => Err(Error::sema(
                    *pos,
                    format!("array `{name}` used in scalar context (did you mean a reduction?)"),
                )),
                _ => Err(Error::sema(
                    *pos,
                    format!("`{name}` cannot be used as a value"),
                )),
            },
            ast::Expr::At(_, _, pos) => Err(Error::sema(
                *pos,
                "`@` references cannot appear in scalar context",
            )),
            ast::Expr::Unary(op, inner, _) => Ok(ScalarExpr::Unary(
                *op,
                Box::new(self.scalar_expr(*inner, out)?),
            )),
            ast::Expr::Binary(op, l, r, _) => Ok(ScalarExpr::Binary(
                *op,
                Box::new(self.scalar_expr(*l, out)?),
                Box::new(self.scalar_expr(*r, out)?),
            )),
            ast::Expr::Call(fname, args, pos) => {
                let args = ast.args(*args);
                let intr = self.intrinsic(fname, args.len(), *pos)?;
                let args = args
                    .iter()
                    .map(|&a| self.scalar_expr(a, out))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ScalarExpr::Call(intr, args))
            }
            ast::Expr::Reduce(op, rname, arg, pos) => {
                let tmp = self.fresh_scalar(Type::Float);
                out.push(self.reduce(*op, rname, *arg, *pos, tmp)?);
                Ok(ScalarExpr::ScalarRef(tmp))
            }
        }
    }

    fn stmts(&mut self, stmts: &[ast::Stmt]) -> Result<Vec<Stmt>, Error> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                ast::Stmt::ArrayAssign {
                    region,
                    lhs,
                    rhs,
                    pos,
                } => {
                    let Binding::Region(rid) = self.lookup(region, *pos)? else {
                        return Err(Error::sema(*pos, format!("`{region}` is not a region")));
                    };
                    let Binding::Array(aid) = self.lookup(lhs, *pos)? else {
                        return Err(Error::sema(
                            *pos,
                            format!("assignment target `{lhs}` is not an array"),
                        ));
                    };
                    let rank = self.program.region(rid).rank();
                    self.check_array_rank(aid, rank, *pos)?;
                    let rhs = self.array_expr(*rhs, rank)?;
                    out.push(Stmt::Array(ArrayStmt {
                        region: rid,
                        lhs: aid,
                        rhs,
                    }));
                }
                ast::Stmt::ScalarAssign { lhs, rhs, pos } => {
                    let Binding::Scalar(sid) = self.lookup(lhs, *pos)? else {
                        return Err(Error::sema(
                            *pos,
                            format!("assignment target `{lhs}` is not a scalar (array assignments need a region: `[R] {lhs} := ...`)"),
                        ));
                    };
                    // `s := op<< [R] expr;` reduces directly into `s`
                    // without a hidden temporary.
                    if let ast::Expr::Reduce(op, rname, arg, rpos) = self.ast.expr(*rhs) {
                        out.push(self.reduce(*op, rname, *arg, *rpos, sid)?);
                    } else {
                        let rhs = self.scalar_expr(*rhs, &mut out)?;
                        out.push(Stmt::Scalar { lhs: sid, rhs });
                    }
                }
                ast::Stmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                    pos,
                } => {
                    let Binding::Scalar(vid) = self.lookup(var, *pos)? else {
                        return Err(Error::sema(
                            *pos,
                            format!("loop variable `{var}` is not a scalar"),
                        ));
                    };
                    if self.program.scalar(vid).ty != Type::Int {
                        return Err(Error::sema(
                            *pos,
                            format!("loop variable `{var}` must be int"),
                        ));
                    }
                    let mut pre = Vec::new();
                    let lo = self.scalar_expr(*lo, &mut pre)?;
                    let hi = self.scalar_expr(*hi, &mut pre)?;
                    if !pre.is_empty() {
                        return Err(Error::sema(
                            *pos,
                            "reductions are not allowed in loop bounds",
                        ));
                    }
                    let body = self.stmts(body)?;
                    out.push(Stmt::For {
                        var: vid,
                        lo,
                        hi,
                        down: *down,
                        body,
                    });
                }
                ast::Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                } => {
                    let mut pre = Vec::new();
                    let cond = self.scalar_expr(*cond, &mut pre)?;
                    if !pre.is_empty() {
                        return Err(Error::sema(
                            *pos,
                            "reductions are not allowed in conditions; assign to a scalar first",
                        ));
                    }
                    let then_body = self.stmts(then_body)?;
                    let else_body = self.stmts(else_body)?;
                    out.push(Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    });
                }
            }
        }
        Ok(out)
    }
}

/// Maps `index1`/`index2`/`index3` to a 0-based dimension.
fn index_name(name: &Name) -> Option<u8> {
    match name.as_bytes() {
        b"index1" => Some(0),
        b"index2" => Some(1),
        b"index3" => Some(2),
        _ => None,
    }
}

/// Analyzes a surface AST, producing the array-level IR.
///
/// # Errors
///
/// Returns the first semantic error: duplicate or undeclared names, rank
/// mismatches, misuse of arrays in scalar context (or vice versa), bad
/// intrinsic arities, or reductions in illegal positions.
pub fn analyze(ast: &ast::Program) -> Result<Program, Error> {
    // Size every declaration table up front, so declaring grows nothing.
    let (mut configs, mut regions, mut arrays, mut scalars) = (0, 0, 0, 0);
    let (mut names, mut bytes) = (0, 0);
    for d in &ast.decls {
        let declared = match d {
            Decl::Config { name, .. } => {
                configs += 1;
                std::slice::from_ref(name)
            }
            Decl::Region { name, .. } => {
                regions += 1;
                std::slice::from_ref(name)
            }
            Decl::Direction { name, .. } => std::slice::from_ref(name),
            Decl::Var { names, region, .. } => {
                *if region.is_some() {
                    &mut arrays
                } else {
                    &mut scalars
                } += names.len();
                names
            }
        };
        names += declared.len();
        bytes += declared.iter().map(|n| n.as_bytes().len()).sum::<usize>();
    }
    let mut a = Analyzer {
        ast,
        program: Program {
            name: ast.name.as_str().to_owned(),
            configs: Vec::with_capacity(configs),
            regions: Vec::with_capacity(regions),
            arrays: Vec::with_capacity(arrays),
            scalars: Vec::with_capacity(scalars),
            body: Vec::new(),
            names: crate::ir::NameTable::with_capacity(names, bytes),
        },
        bindings: Vec::with_capacity(names),
        directions: Vec::new(),
        hidden_scalars: 0,
    };
    a.decls(&ast.decls)?;
    a.program.body = a.stmts(&ast.body)?;
    Ok(a.program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn err(src: &str) -> Error {
        compile(src).unwrap_err()
    }

    const P: &str = "program p; config n : int = 8; region R = [1..n, 1..n]; \
                     direction e = [0, 1]; var A, B : [R] float; var s : float; var k : int; ";

    #[test]
    fn lowers_array_statement() {
        let p = compile(&format!("{P} begin [R] A := B@e * 2.0 + s; end")).unwrap();
        let Stmt::Array(st) = &p.body[0] else {
            panic!()
        };
        assert_eq!(p.array(st.lhs).name, "A");
        let reads = st.rhs.reads();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].1, Offset(vec![0, 1]));
    }

    #[test]
    fn hoists_reductions() {
        let p = compile(&format!("{P} begin s := 1.0 + +<< [R] A * B; end")).unwrap();
        assert!(matches!(&p.body[0], Stmt::Reduce { .. }));
        assert!(matches!(&p.body[1], Stmt::Scalar { .. }));
    }

    #[test]
    fn index_names_lower_to_index() {
        let p = compile(&format!("{P} begin [R] A := index1 + index2; end")).unwrap();
        let Stmt::Array(st) = &p.body[0] else {
            panic!()
        };
        assert_eq!(st.rhs.read_count(), 0);
        assert!(matches!(
            st.rhs,
            ArrayExpr::Binary(_, ref l, ref r)
                if matches!(**l, ArrayExpr::Index(0)) && matches!(**r, ArrayExpr::Index(1))
        ));
    }

    #[test]
    fn rejects_rank_mismatch() {
        let e = err("program p; region R1 = [1..4]; region R2 = [1..4, 1..4]; \
                     var A : [R1] float; var B : [R2] float; begin [R2] B := A; end");
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn rejects_direction_rank_mismatch() {
        let e = err(&format!("{P} begin [R] A := B@[1]; end"));
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn rejects_duplicate_names() {
        let e = err("program p; config n : int = 1; config n : int = 2; begin end");
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn rejects_undeclared() {
        let e = err("program p; region R = [1..4]; var A : [R] float; begin [R] A := Bogus; end");
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn rejects_array_in_scalar_context() {
        let e = err(&format!("{P} begin s := A; end"));
        assert!(e.message.contains("scalar context"), "{e}");
    }

    #[test]
    fn rejects_scalar_assign_to_array() {
        let e = err(&format!("{P} begin A := 1.0; end"));
        assert!(e.message.contains("not a scalar"), "{e}");
    }

    #[test]
    fn rejects_float_loop_var() {
        let e = err(&format!("{P} begin for s := 1 to 3 do end; end"));
        assert!(e.message.contains("must be int"), "{e}");
    }

    #[test]
    fn rejects_reduce_inside_array_stmt() {
        let e = err(&format!("{P} begin [R] A := +<< [R] B; end"));
        assert!(e.message.contains("scalar-valued"), "{e}");
    }

    #[test]
    fn rejects_int_array() {
        let e = err("program p; region R = [1..4]; var A : [R] int; begin end");
        assert!(e.message.contains("float"), "{e}");
    }

    #[test]
    fn rejects_bad_arity() {
        let e = err(&format!("{P} begin [R] A := sqrt(A, B); end"));
        assert!(e.message.contains("argument"), "{e}");
    }

    #[test]
    fn for_loop_and_if_lower() {
        let p = compile(&format!(
            "{P} begin for k := 1 to 2 do [R] A := B; end; if s > 0.0 then [R] B := A; end; end"
        ))
        .unwrap();
        assert!(matches!(&p.body[0], Stmt::For { body, .. } if body.len() == 1));
        assert!(matches!(&p.body[1], Stmt::If { .. }));
    }

    #[test]
    fn region_bounds_resolve_configs() {
        let p = compile("program p; config n : int = 5; region R = [1..2*n+1]; begin end").unwrap();
        let b = crate::ir::ConfigBinding::defaults(&p);
        assert_eq!(p.regions[0].bounds(&b), vec![(1, 11)]);
    }
}
