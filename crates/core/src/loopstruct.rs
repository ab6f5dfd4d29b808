//! `FIND-LOOP-STRUCTURE` (Figure 4 of the paper).
//!
//! Given the set of unconstrained distance vectors arising from
//! intra-fusible-cluster dependences, find a loop structure vector — a
//! dimension and direction for each loop of the nest — that preserves every
//! dependence. Loops are assigned outermost-first; dimensions are
//! considered lowest-first so that, absent constraints, inner loops iterate
//! over *higher* array dimensions, exploiting spatial locality under
//! row-major allocation.

use crate::depvec::Udv;
use std::borrow::Borrow;

/// Searches for a legal loop structure vector.
///
/// Returns `None` when no legal structure exists (`NOSOLUTION` in the
/// paper), which in turn rejects the candidate fusion. The answer depends
/// on the set of vectors only, not on their order or multiplicity, so
/// callers may pass owned or borrowed UDVs in any order.
///
/// The returned vector `p` satisfies: for every `u` in `deps`, the
/// constrained vector of `u` under `p` is lexicographically nonnegative.
///
/// ```
/// use fusion_core::{loopstruct::find_loop_structure, Udv};
/// // An anti-dependence carried backwards along dimension 1 forces loop
/// // reversal; dimension 2 stays innermost and increasing.
/// let p = find_loop_structure(&[Udv(vec![-1, 0])], 2).unwrap();
/// assert_eq!(p, vec![-1, 2]);
/// ```
pub fn find_loop_structure<U: Borrow<Udv>>(deps: &[U], rank: usize) -> Option<Vec<i8>> {
    debug_assert!(
        deps.iter().all(|u| u.borrow().rank() == rank),
        "UDV rank mismatch"
    );
    let mut remaining: Vec<&Udv> = deps.iter().map(Borrow::borrow).collect();
    let mut assigned = vec![false; rank];
    let mut p = Vec::with_capacity(rank);
    for _loop_i in 0..rank {
        let mut chosen = None;
        // Index-based to mirror the paper's Figure 4 pseudocode.
        #[allow(clippy::needless_range_loop)]
        for j in 0..rank {
            if assigned[j] {
                continue;
            }
            let dir = if remaining.iter().all(|u| u.0[j] >= 0) {
                1
            } else if remaining.iter().all(|u| u.0[j] <= 0) {
                -1
            } else {
                0
            };
            if dir != 0 {
                chosen = Some((j, dir));
                break;
            }
        }
        let (j, dir) = chosen?;
        assigned[j] = true;
        p.push(((j + 1) as i8) * dir as i8);
        // Dependences carried by this loop no longer constrain inner loops.
        remaining.retain(|u| u.0[j] == 0);
    }
    debug_assert!(
        deps.iter().all(|u| u.borrow().preserved_by(&p)),
        "found structure must be legal"
    );
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_prefers_row_major() {
        let none: [Udv; 0] = [];
        assert_eq!(find_loop_structure(&none, 2), Some(vec![1, 2]));
        assert_eq!(find_loop_structure(&none, 3), Some(vec![1, 2, 3]));
    }

    #[test]
    fn null_deps_dont_constrain() {
        assert_eq!(find_loop_structure(&[Udv::null(2)], 2), Some(vec![1, 2]));
    }

    #[test]
    fn positive_distance_keeps_increasing() {
        assert_eq!(find_loop_structure(&[Udv(vec![1, 0])], 2), Some(vec![1, 2]));
    }

    #[test]
    fn negative_distance_forces_reversal() {
        assert_eq!(
            find_loop_structure(&[Udv(vec![0, -2])], 2),
            Some(vec![1, -2])
        );
    }

    #[test]
    fn mixed_signs_in_one_dim_resolved_by_outer_carry() {
        // u1 = (1, -1), u2 = (1, 1): dimension 2 has mixed signs, but
        // dimension 1 is uniformly positive; carrying it outermost frees
        // dimension 2 entirely.
        let p = find_loop_structure(&[Udv(vec![1, -1]), Udv(vec![1, 1])], 2).unwrap();
        assert_eq!(p, vec![1, 2]);
        for u in [Udv(vec![1, -1]), Udv(vec![1, 1])] {
            assert!(u.preserved_by(&p));
        }
    }

    #[test]
    fn interchange_when_dim1_is_mixed() {
        // u1 = (1, 2), u2 = (-1, 2): dimension 1 mixed, dimension 2 all
        // positive -> outer loop iterates dimension 2 increasing; it
        // carries both deps, leaving dimension 1 unconstrained.
        let p = find_loop_structure(&[Udv(vec![1, 2]), Udv(vec![-1, 2])], 2).unwrap();
        assert_eq!(p, vec![2, 1]);
    }

    #[test]
    fn paper_figure2_statements_1_and_3() {
        // Fusing statements 1 and 3 of Figure 2(b) involves UDVs (-1,0)
        // (flow on B... in the paper's loop nest) and (1,-1) (anti on A).
        // Dimension 1 is mixed; dimension 2: components {0, -1} -> all <= 0,
        // direction decreasing; it carries (1,-1); remaining (-1,0) forces
        // dimension 1 decreasing. p = (-2, -1), matching the paper's first
        // loop nest in Figure 2(c).
        let p = find_loop_structure(&[Udv(vec![-1, 0]), Udv(vec![1, -1])], 2).unwrap();
        assert_eq!(p, vec![-2, -1]);
    }

    #[test]
    fn no_solution_when_every_dim_mixed() {
        // (1,-1) and (-1,1): both dimensions mixed from the start.
        assert_eq!(
            find_loop_structure(&[Udv(vec![1, -1]), Udv(vec![-1, 1])], 2),
            None
        );
    }

    #[test]
    fn rank_one_cases() {
        assert_eq!(find_loop_structure(&[Udv(vec![3])], 1), Some(vec![1]));
        assert_eq!(find_loop_structure(&[Udv(vec![-3])], 1), Some(vec![-1]));
        assert_eq!(find_loop_structure(&[Udv(vec![3]), Udv(vec![-3])], 1), None);
    }

    #[test]
    fn rank_three_cascade() {
        // Outer dim1 carries (1,*,*); dim2 must reverse for (0,-1,0);
        // dim3 free.
        let deps = [Udv(vec![1, 5, -5]), Udv(vec![0, -1, 0])];
        let p = find_loop_structure(&deps, 3).unwrap();
        assert_eq!(p, vec![1, -2, 3]);
        for u in &deps {
            assert!(u.preserved_by(&p));
        }
    }
}
