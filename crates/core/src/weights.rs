//! Reference weights (Section 3 of the paper).
//!
//! The number of array element references eliminated by contracting a
//! definition `x` — its *reference weight* `w(x, G)` — is the number of
//! times it is referenced at the array level times the region sizes over
//! which those references occur. `FUSION-FOR-CONTRACTION` considers
//! candidates in decreasing weight order so the largest single
//! contributions to the contraction benefit are tried first.

use crate::asdg::{Asdg, DefId};
use crate::normal::Block;
use zlang::ir::{ConfigBinding, Program};

/// Every region's size under `binding`, indexed by region id: the sizes
/// [`def_weight`] reads, evaluated once per program.
pub fn region_sizes(program: &Program, binding: &ConfigBinding) -> Vec<u64> {
    program.regions.iter().map(|r| r.size(binding)).collect()
}

/// Computes `w(x, G)` for a definition: the sum over its references
/// (the defining write plus every read) of the referencing statement's
/// region size, read from `sizes` ([`region_sizes`]).
pub fn def_weight(block: &Block, asdg: &Asdg, def: DefId, sizes: &[u64]) -> u64 {
    asdg.ref_stmts(def)
        .filter_map(|s| block.stmts[s].region())
        .map(|r| sizes[r.0 as usize])
        .sum()
}

/// Sorts candidate definitions by decreasing weight (ties broken by
/// definition id for determinism) — the order `FUSION-FOR-CONTRACTION`
/// considers them in. Each region's size is evaluated once, and each
/// candidate's weight once.
pub fn sort_by_weight(
    program: &Program,
    block: &Block,
    asdg: &Asdg,
    mut candidates: Vec<DefId>,
    binding: &ConfigBinding,
) -> Vec<DefId> {
    let sizes = region_sizes(program, binding);
    candidates.sort_by_cached_key(|&d| (std::cmp::Reverse(def_weight(block, asdg, d, &sizes)), d));
    candidates
}

/// The total contraction benefit of a set of contracted definitions: the
/// sum of their reference weights (Section 3).
pub fn contraction_benefit(
    program: &Program,
    block: &Block,
    asdg: &Asdg,
    contracted: &[DefId],
    binding: &ConfigBinding,
) -> u64 {
    let sizes = region_sizes(program, binding);
    contracted
        .iter()
        .map(|&d| def_weight(block, asdg, d, &sizes))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asdg::build;
    use crate::normal::normalize;

    #[test]
    fn weight_counts_refs_times_region_size() {
        let p = zlang::compile(
            "program p; config n : int = 10; region R = [1..n, 1..n]; \
             var A, B, C : [R] float; var s : float; begin \
             [R] B := A; [R] C := B * B; s := +<< [R] C + B; end",
        )
        .unwrap();
        let np = normalize(&p);
        let g = build(&np.program, &np.blocks[0]);
        let binding = np.default_binding();
        let names = np.program.array_names();
        let b_def = g.defs_of(names["B"])[0];
        // B: 1 write + 2 reads in stmt 1 + 1 read in the reduce = 4 refs of
        // a 100-element region.
        let sizes = region_sizes(&np.program, &binding);
        assert_eq!(def_weight(&np.blocks[0], &g, b_def, &sizes), 400);
        let c_def = g.defs_of(names["C"])[0];
        // C: 1 write + 1 read.
        assert_eq!(def_weight(&np.blocks[0], &g, c_def, &sizes), 200);
        let sorted = sort_by_weight(&np.program, &np.blocks[0], &g, vec![c_def, b_def], &binding);
        assert_eq!(sorted, vec![b_def, c_def]);
        assert_eq!(
            contraction_benefit(&np.program, &np.blocks[0], &g, &[b_def, c_def], &binding),
            600
        );
    }

    #[test]
    fn weight_scales_with_binding() {
        let p = zlang::compile(
            "program p; config n : int = 10; region R = [1..n]; \
             var A, B : [R] float; var s : float; begin [R] B := A; s := +<< [R] B; end",
        )
        .unwrap();
        let np = normalize(&p);
        let g = build(&np.program, &np.blocks[0]);
        let names = np.program.array_names();
        let b_def = g.defs_of(names["B"])[0];
        let mut binding = np.default_binding();
        let weight = |binding: &ConfigBinding| {
            def_weight(
                &np.blocks[0],
                &g,
                b_def,
                &region_sizes(&np.program, binding),
            )
        };
        assert_eq!(weight(&binding), 20);
        binding.set_by_name(&np.program, "n", 50);
        assert_eq!(weight(&binding), 100);
    }
}
