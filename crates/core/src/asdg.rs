//! The array statement dependence graph (Definition 3 of the paper).
//!
//! Vertices are the statements of one basic block; edges carry sets of
//! `(variable, unconstrained distance vector, dependence type)` labels.
//! Per the paper's footnote 2, the graph operates on array variable
//! *definitions* (live ranges), so disjoint live ranges of the same array
//! optimize independently.
//!
//! Extensions beyond the paper needed for a full language:
//!
//! * Scalar dependences (a reduction writing a scalar that a later array
//!   statement reads) are represented as labels with no UDV; they order
//!   statements and forbid putting producer and consumer in one cluster
//!   (a reduction's value is complete only after its whole loop).
//! * Dependences between statements over *different regions* get no UDV
//!   (`udv: None`), which makes them automatically ineligible for fusion
//!   and contraction while still constraining statement order.

use crate::depvec::{DepKind, Udv};
use crate::normal::{BStmt, Block};
use zlang::ir::{ArrayId, Offset, Program, ScalarId};

/// Identifies one definition (live range) of an array within a block.
///
/// `index` 0 is the live-in range (referenced before any in-block write);
/// each write starts a new range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefId(pub u32);

/// Information about one array definition (live range).
#[derive(Debug, Clone, PartialEq)]
pub struct DefInfo {
    /// The array.
    pub array: ArrayId,
    /// The statement that created this range, or `None` for the live-in
    /// range.
    pub def_stmt: Option<usize>,
    /// Statements (and offsets) reading this range, in program order.
    pub reads: Vec<(usize, Offset)>,
}

/// The variable a dependence label is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarLabel {
    /// An array live range.
    Array(DefId),
    /// A scalar variable.
    Scalar(ScalarId),
}

/// One dependence label on an edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The variable inducing the dependence.
    pub var: VarLabel,
    /// The unconstrained distance vector, when both endpoints are fusable
    /// statements over the same region; `None` otherwise.
    pub udv: Option<Udv>,
    /// Flow, anti, or output.
    pub kind: DepKind,
}

/// A labeled edge `src -> dst` (src precedes dst in program order).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source statement index.
    pub src: usize,
    /// Target statement index.
    pub dst: usize,
    /// All dependences this edge represents.
    pub labels: Vec<Label>,
}

/// The array statement dependence graph of one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Asdg {
    /// Number of statements (vertices).
    pub n: usize,
    /// Labeled edges. All edges satisfy `src < dst` (the block is straight-
    /// line code, so program order is a topological order).
    pub edges: Vec<Edge>,
    /// Per-statement: the definition each array read refers to.
    pub read_defs: Vec<Vec<(ArrayId, Offset, DefId)>>,
    /// Per-statement: the definition its write creates (array statements).
    pub write_def: Vec<Option<DefId>>,
    /// All definitions.
    pub defs: Vec<DefInfo>,
    /// Adjacency: edge indices leaving each vertex.
    pub out_edges: Vec<Vec<usize>>,
    /// Adjacency: edge indices entering each vertex.
    pub in_edges: Vec<Vec<usize>>,
}

impl Asdg {
    /// The definitions of a given array, in creation order.
    pub fn defs_of(&self, array: ArrayId) -> Vec<DefId> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.array == array)
            .map(|(i, _)| DefId(i as u32))
            .collect()
    }

    /// Info for a definition.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn def(&self, id: DefId) -> &DefInfo {
        &self.defs[id.0 as usize]
    }

    /// Every statement referencing (reading or defining) the given
    /// definition.
    pub fn stmts_of_def(&self, id: DefId) -> Vec<usize> {
        let mut out = Vec::new();
        for s in self.ref_stmts(id) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// The statement of every reference to a definition: its defining
    /// write (if any), then each read in program order, so a statement
    /// that reads it twice appears twice.
    pub fn ref_stmts(&self, id: DefId) -> impl Iterator<Item = usize> + '_ {
        let info = self.def(id);
        info.def_stmt
            .into_iter()
            .chain(info.reads.iter().map(|&(s, _)| s))
    }

    /// Iterates all labels on edges between `src` and `dst`.
    pub fn labels_between(&self, src: usize, dst: usize) -> &[Label] {
        self.edges
            .iter()
            .find(|e| e.src == src && e.dst == dst)
            .map(|e| e.labels.as_slice())
            .unwrap_or(&[])
    }

    /// All labels mentioning an array definition, with their edges.
    pub fn labels_of_def(&self, id: DefId) -> Vec<(usize, usize, &Label)> {
        let mut out = Vec::new();
        for e in &self.edges {
            for l in &e.labels {
                if l.var == VarLabel::Array(id) {
                    out.push((e.src, e.dst, l));
                }
            }
        }
        out
    }
}

/// Renders an ASDG in GraphViz `dot` syntax, labelling vertices with their
/// statements and edges with `(variable, UDV, kind)` triples — the exact
/// notation of the paper's Figure 2(d).
pub fn to_dot(program: &Program, block: &crate::normal::Block, g: &Asdg) -> String {
    use std::fmt::Write;
    let mut out = String::from("digraph asdg {\n  node [shape=box, fontname=\"monospace\"];\n");
    for (i, s) in block.stmts.iter().enumerate() {
        let label = match s {
            crate::normal::BStmt::Array(a) => format!(
                "{}: [{}] {} := ...",
                i,
                program.region(a.region).name,
                program.array(a.lhs).name
            ),
            crate::normal::BStmt::Reduce { lhs, region, .. } => format!(
                "{}: {} := reduce [{}]",
                i,
                program.scalar(*lhs).name,
                program.region(*region).name
            ),
            crate::normal::BStmt::Scalar { lhs, .. } => {
                format!("{}: {} := ...", i, program.scalar(*lhs).name)
            }
        };
        let _ = writeln!(out, "  s{i} [label=\"{label}\"];");
    }
    for e in &g.edges {
        let labels: Vec<String> = e
            .labels
            .iter()
            .map(|l| {
                let var = match l.var {
                    VarLabel::Array(d) => {
                        let info = g.def(d);
                        format!("{}#{}", program.array(info.array).name, d.0)
                    }
                    VarLabel::Scalar(s) => program.scalar(s).name.clone(),
                };
                let udv = l.udv.as_ref().map_or("-".to_string(), |u| u.to_string());
                format!("({var}, {udv}, {})", l.kind)
            })
            .collect();
        let _ = writeln!(
            out,
            "  s{} -> s{} [label=\"{}\"];",
            e.src,
            e.dst,
            labels.join("\\n")
        );
    }
    out.push_str("}\n");
    out
}

/// Builds the ASDG for a basic block.
///
/// The current definition of each array, and the last writer and readers
/// of each scalar, are vectors indexed by id. Labels are collected in
/// generation order; a stable sort on `(src, dst)` then groups them into
/// edges, which keeps the edges in `(src, dst)` order and each edge's
/// labels in the order they arose.
pub fn build(program: &Program, block: &Block) -> Asdg {
    let n = block.stmts.len();
    let mut defs: Vec<DefInfo> = Vec::new();
    let mut current: Vec<Option<DefId>> = vec![None; program.arrays.len()];
    let mut labels: Vec<(usize, usize, Label)> = Vec::new();
    let mut read_defs: Vec<Vec<(ArrayId, Offset, DefId)>> = vec![Vec::new(); n];
    let mut write_def: Vec<Option<DefId>> = vec![None; n];

    // Scalar tracking: last writer and readers since.
    let mut scalar_writer: Vec<Option<usize>> = vec![None; program.scalars.len()];
    let mut scalar_readers: Vec<Vec<usize>> = vec![Vec::new(); program.scalars.len()];

    let mut add_label = |src: usize, dst: usize, label: Label| {
        if src == dst {
            return;
        }
        debug_assert!(src < dst, "dependences point forward in a basic block");
        labels.push((src, dst, label));
    };

    for (si, stmt) in block.stmts.iter().enumerate() {
        let same_region_udv = |other: usize, u: &dyn Fn() -> Udv| -> Option<Udv> {
            let a = block.stmts[other].region();
            let b = stmt.region();
            match (a, b) {
                (Some(ra), Some(rb)) if ra == rb => Some(u()),
                _ => None,
            }
        };

        // --- Array reads ---
        stmt.for_each_read(|a, off| {
            let def = *current[a.0 as usize].get_or_insert_with(|| {
                let id = DefId(defs.len() as u32);
                defs.push(DefInfo {
                    array: a,
                    def_stmt: None,
                    reads: Vec::new(),
                });
                id
            });
            let info = &mut defs[def.0 as usize];
            info.reads.push((si, off.clone()));
            read_defs[si].push((a, off.clone(), def));
            if let Some(d) = info.def_stmt {
                // Flow dependence: u = d_write - d_read, write offset is 0.
                let u = || Udv(off.0.iter().map(|&r| 0 - r).collect());
                add_label(
                    d,
                    si,
                    Label {
                        var: VarLabel::Array(def),
                        udv: same_region_udv(d, &u),
                        kind: DepKind::Flow,
                    },
                );
            }
        });

        // --- Scalar reads ---
        for s in stmt.scalar_reads() {
            scalar_readers[s.0 as usize].push(si);
            if let Some(w) = scalar_writer[s.0 as usize] {
                add_label(
                    w,
                    si,
                    Label {
                        var: VarLabel::Scalar(s),
                        udv: None,
                        kind: DepKind::Flow,
                    },
                );
            }
        }

        // --- Array write ---
        if let BStmt::Array(ast) = stmt {
            let a = ast.lhs;
            if let Some(prev) = current[a.0 as usize] {
                let prev_info = &defs[prev.0 as usize];
                // Anti dependences from every read of the previous range:
                // u = d_read - d_write, write offset is 0.
                for (r_stmt, r_off) in &prev_info.reads {
                    if *r_stmt == si {
                        continue; // normalization forbids read+write in one stmt
                    }
                    add_label(
                        *r_stmt,
                        si,
                        Label {
                            var: VarLabel::Array(prev),
                            udv: same_region_udv(*r_stmt, &|| Udv(r_off.0.clone())),
                            kind: DepKind::Anti,
                        },
                    );
                }
                // Output dependence from the previous definition.
                if let Some(d) = prev_info.def_stmt {
                    let u = || Udv::null(program.region(ast.region).rank());
                    add_label(
                        d,
                        si,
                        Label {
                            var: VarLabel::Array(prev),
                            udv: same_region_udv(d, &u),
                            kind: DepKind::Output,
                        },
                    );
                }
            }
            let id = DefId(defs.len() as u32);
            defs.push(DefInfo {
                array: a,
                def_stmt: Some(si),
                reads: Vec::new(),
            });
            current[a.0 as usize] = Some(id);
            write_def[si] = Some(id);
        }

        // --- Scalar write ---
        if let Some(s) = stmt.lhs_scalar() {
            for &r in &scalar_readers[s.0 as usize] {
                add_label(
                    r,
                    si,
                    Label {
                        var: VarLabel::Scalar(s),
                        udv: None,
                        kind: DepKind::Anti,
                    },
                );
            }
            if let Some(w) = scalar_writer[s.0 as usize] {
                add_label(
                    w,
                    si,
                    Label {
                        var: VarLabel::Scalar(s),
                        udv: None,
                        kind: DepKind::Output,
                    },
                );
            }
            scalar_writer[s.0 as usize] = Some(si);
            scalar_readers[s.0 as usize].clear();
        }
    }

    // Stable: labels of one edge keep their generation order.
    labels.sort_by_key(|&(src, dst, _)| (src, dst));
    let mut edges: Vec<Edge> = Vec::new();
    let mut out_edges = vec![Vec::new(); n];
    let mut in_edges = vec![Vec::new(); n];
    for (src, dst, label) in labels {
        match edges.last_mut() {
            Some(e) if e.src == src && e.dst == dst => e.labels.push(label),
            _ => {
                out_edges[src].push(edges.len());
                in_edges[dst].push(edges.len());
                edges.push(Edge {
                    src,
                    dst,
                    labels: vec![label],
                });
            }
        }
    }

    Asdg {
        n,
        edges,
        read_defs,
        write_def,
        defs,
        out_edges,
        in_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::normalize;

    fn asdg_of(src: &str) -> (Asdg, crate::normal::NormProgram) {
        let np = normalize(&zlang::compile(src).unwrap());
        assert_eq!(np.blocks.len(), 1, "test expects a single block");
        let g = build(&np.program, &np.blocks[0]);
        (g, np)
    }

    const P: &str = "program p; config n : int = 8; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; direction nw = [-1, 1]; \
                     var A, B, C : [R] float; var s : float; ";

    #[test]
    fn figure2_asdg() {
        // [R] A := B@(0,-1)... the paper's Figure 2(b) (renamed dirs):
        //   1: A := B@(-1,0);  2: C := A@(0,-1);  3: B := A@(-1,1);
        let (g, np) = asdg_of(
            "program p; config m : int = 4; config n : int = 4; \
             region R = [1..m, 1..n]; var A, B, C : [R] float; begin \
             [R] A := B@[-1,0]; [R] C := A@[0,-1]; [R] B := A@[-1,1]; end",
        );
        let names = np.program.array_names();
        assert_eq!(g.n, 3);
        // Flow A: 1->2 with u=(0,1); flow A: 1->3 with u=(1,-1);
        // anti B: 1->3 with u=(-1,0).
        let l12 = g.labels_between(0, 1);
        assert_eq!(l12.len(), 1);
        assert_eq!(l12[0].udv, Some(Udv(vec![0, 1])));
        assert_eq!(l12[0].kind, DepKind::Flow);
        let l13 = g.labels_between(0, 2);
        assert_eq!(l13.len(), 2);
        // Labels keep the order they arose in: statement 3's read of A
        // before its write of B.
        let kinds: Vec<DepKind> = l13.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![DepKind::Flow, DepKind::Anti]);
        let flow = l13.iter().find(|l| l.kind == DepKind::Flow).unwrap();
        let anti = l13.iter().find(|l| l.kind == DepKind::Anti).unwrap();
        assert_eq!(flow.udv, Some(Udv(vec![1, -1])));
        assert_eq!(anti.udv, Some(Udv(vec![-1, 0])));
        // The anti dep is on B's live-in range.
        let VarLabel::Array(d) = anti.var else {
            panic!()
        };
        assert_eq!(g.def(d).array, names["B"]);
        assert_eq!(g.def(d).def_stmt, None);
    }

    #[test]
    fn to_dot_golden() {
        // The dot rendering is a stable external format (`zlc --print asdg`
        // and the --emit snapshots embed it): pin the exact node and edge
        // labels for a two-statement flow chain into a reduction.
        let (g, np) = asdg_of(&format!(
            "{P} begin [R] B := A@w; [R] C := B; s := +<< [R] C; end"
        ));
        let dot = to_dot(&np.program, &np.blocks[0], &g);
        assert_eq!(
            dot,
            "digraph asdg {\n\
             \x20 node [shape=box, fontname=\"monospace\"];\n\
             \x20 s0 [label=\"0: [R] B := ...\"];\n\
             \x20 s1 [label=\"1: [R] C := ...\"];\n\
             \x20 s2 [label=\"2: s := reduce [R]\"];\n\
             \x20 s0 -> s1 [label=\"(B#1, (0,0), flow)\"];\n\
             \x20 s1 -> s2 [label=\"(C#2, (0,0), flow)\"];\n\
             }\n"
        );
    }

    #[test]
    fn output_dependence_between_redefinitions() {
        let (g, _) = asdg_of(&format!(
            "{P} begin [R] C := A; [R] C := B; s := +<< [R] C; end"
        ));
        let labels = g.labels_between(0, 1);
        assert!(labels.iter().any(|l| l.kind == DepKind::Output));
        // The reduce reads the SECOND definition of C only.
        assert!(g.labels_between(0, 2).is_empty());
        assert_eq!(g.labels_between(1, 2).len(), 1);
    }

    #[test]
    fn live_ranges_split_reads() {
        let (g, np) = asdg_of(&format!(
            "{P} begin [R] C := A; [R] B := C; [R] C := A + A; s := +<< [R] C; end"
        ));
        let names = np.program.array_names();
        let c_defs = g.defs_of(names["C"]);
        assert_eq!(c_defs.len(), 2);
        assert_eq!(g.def(c_defs[0]).reads.len(), 1);
        assert_eq!(g.def(c_defs[1]).reads.len(), 1);
        // Anti dependence from the read of range 0 to the redefinition.
        let l = g.labels_between(1, 2);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].kind, DepKind::Anti);
        assert_eq!(l[0].udv, Some(Udv::null(2)));
    }

    #[test]
    fn scalar_dependences_are_tracked() {
        let (g, _) = asdg_of(&format!(
            "{P} begin s := 2.0; [R] A := B * s; s := 3.0; end"
        ));
        // Flow s: 0->1; anti s: 1->2; output s: 0->2.
        assert_eq!(g.labels_between(0, 1)[0].kind, DepKind::Flow);
        assert_eq!(g.labels_between(1, 2)[0].kind, DepKind::Anti);
        assert_eq!(g.labels_between(0, 2)[0].kind, DepKind::Output);
        for e in &g.edges {
            for l in &e.labels {
                assert!(matches!(l.var, VarLabel::Scalar(_)));
                assert_eq!(l.udv, None);
            }
        }
    }

    #[test]
    fn cross_region_dependence_has_no_udv() {
        let (g, _) = asdg_of(
            "program p; config n : int = 8; region R = [1..n]; region RI = [2..n]; \
             var A, B : [R] float; var s : float; begin \
             [R] A := B; [RI] B := A@[-1]; end",
        );
        let labels = g.labels_between(0, 1);
        assert!(!labels.is_empty());
        assert!(labels.iter().all(|l| l.udv.is_none()));
    }

    #[test]
    fn reduce_creates_flow_edges_from_producer() {
        let (g, _) = asdg_of(&format!("{P} begin [R] A := B + B; s := +<< [R] A; end"));
        let l = g.labels_between(0, 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].kind, DepKind::Flow);
        assert_eq!(l[0].udv, Some(Udv::null(2)));
    }

    #[test]
    fn dot_export_names_vertices_and_labels() {
        let (g, np) = asdg_of(&format!(
            "{P} begin [R] B := A@w; [R] C := B; s := +<< [R] C; end"
        ));
        let dot = to_dot(&np.program, &np.blocks[0], &g);
        assert!(dot.starts_with("digraph asdg {"), "{dot}");
        assert!(dot.contains("s0 -> s1"), "{dot}");
        assert!(dot.contains("flow"), "{dot}");
        assert!(dot.contains("B#"), "{dot}");
        assert!(dot.contains("reduce [R]"), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot}");
    }

    #[test]
    fn edges_point_forward_and_adjacency_consistent() {
        let (g, _) = asdg_of(&format!(
            "{P} begin [R] A := B; [R] C := A; [R] B := C@w; s := +<< [R] B; end"
        ));
        for e in &g.edges {
            assert!(e.src < e.dst);
        }
        let edge_count: usize = g.out_edges.iter().map(|v| v.len()).sum();
        assert_eq!(edge_count, g.edges.len());
        let in_count: usize = g.in_edges.iter().map(|v| v.len()).sum();
        assert_eq!(in_count, g.edges.len());
    }
}
