//! APA-basis gate selection and circuit substitution.
//!
//! Given the mined pattern catalog and the user's budget `M` (number of
//! additional APA-basis gates allowed), pick the patterns with the best
//! circuit coverage and carve their disjoint instances out of the
//! circuit. The result is a *grouping*: every instruction lands either
//! in an APA group (pre-formed customized gate, pulse generated once per
//! pattern) or in a singleton group that the criticality-aware generator
//! is free to merge further.

use crate::miner::Pattern;

/// The APA budget: how many distinct APA-basis gates may be introduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ApaBudget {
    /// `M = 0`: no APA gates; the criticality search sees raw gates.
    None,
    /// `M = k`: at most `k` distinct patterns become APA-basis gates.
    Limit(usize),
    /// `M = inf`: every frequent pattern becomes an APA-basis gate.
    #[default]
    Unlimited,
    /// `M = tuned`: the smallest `M` that makes APA-covered gates the
    /// majority of the circuit (the paper's `paqoc(M=tuned)`).
    Tuned,
}

/// One selected APA-basis gate with its placed occurrences.
#[derive(Clone, Debug)]
pub struct ApaSelection {
    /// The pattern's canonical code (the APA gate's identity).
    pub code: String,
    /// Gates per occurrence.
    pub num_gates: usize,
    /// Qubits per occurrence.
    pub num_qubits: usize,
    /// Non-overlapping placed occurrences (sorted instruction indices).
    pub occurrences: Vec<Vec<usize>>,
}

/// The outcome of APA substitution over a circuit.
#[derive(Clone, Debug, Default)]
pub struct ApaCover {
    /// The selected APA-basis gates, in selection order.
    pub selections: Vec<ApaSelection>,
    /// Total instructions covered by APA occurrences.
    pub covered_gates: usize,
}

impl ApaCover {
    /// Number of distinct APA-basis gates introduced.
    pub fn num_apa_gates(&self) -> usize {
        self.selections.len()
    }

    /// Every covered occurrence as (pattern index, instruction indices).
    pub fn occurrences(&self) -> impl Iterator<Item = (usize, &Vec<usize>)> {
        self.selections
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.occurrences.iter().map(move |o| (i, o)))
    }
}

/// Selects APA-basis gates under a budget by greedy maximum coverage.
///
/// Patterns are considered in the miner's coverage order; each pattern
/// claims every instance that does not overlap previously claimed gates.
/// Patterns left with fewer than 2 placements are skipped (an APA gate
/// used once saves nothing).
///
/// # Examples
///
/// ```
/// use paqoc_circuit::Circuit;
/// use paqoc_mining::{mine_frequent_subcircuits, select_apa_basis, ApaBudget, MinerOptions};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).cx(1, 0).cx(0, 1);
/// c.cx(1, 2).cx(2, 1).cx(1, 2);
/// let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
/// let cover = select_apa_basis(&patterns, ApaBudget::Unlimited, c.len());
/// assert!(cover.covered_gates >= 6); // both SWAP skeletons covered
/// ```
pub fn select_apa_basis(patterns: &[Pattern], budget: ApaBudget, circuit_len: usize) -> ApaCover {
    match budget {
        ApaBudget::None => ApaCover::default(),
        ApaBudget::Limit(k) => greedy_cover(patterns, Some(k), circuit_len, None),
        ApaBudget::Unlimited => greedy_cover(patterns, None, circuit_len, None),
        ApaBudget::Tuned => {
            // Smallest M whose cover makes APA-covered gates the majority;
            // if even unlimited coverage cannot reach a majority, use the
            // unlimited cover (best effort, same as the paper's fallback).
            let majority = circuit_len / 2 + 1;
            let unlimited = greedy_cover(patterns, None, circuit_len, None);
            if unlimited.covered_gates < majority {
                return unlimited;
            }
            greedy_cover(patterns, None, circuit_len, Some(majority))
        }
    }
}

fn greedy_cover(
    patterns: &[Pattern],
    max_patterns: Option<usize>,
    _circuit_len: usize,
    stop_at_coverage: Option<usize>,
) -> ApaCover {
    // `used[i]`: instruction `i` belongs to a selected occurrence.
    let end = patterns
        .iter()
        .flat_map(|p| &p.instances)
        .filter_map(|inst| inst.last())
        .max();
    let mut used = vec![false; end.map_or(0, |&i| i + 1)];
    let mut cover = ApaCover::default();
    for pattern in patterns {
        if pattern.num_gates < 2 {
            continue; // single gates are already basis gates
        }
        if let Some(k) = max_patterns {
            if cover.selections.len() >= k {
                break;
            }
        }
        if let Some(goal) = stop_at_coverage {
            if cover.covered_gates >= goal {
                break;
            }
        }
        let mut occurrences = Vec::new();
        for inst in pattern.disjoint_picks() {
            if inst.iter().all(|&i| !used[i]) {
                inst.iter().for_each(|&i| used[i] = true);
                occurrences.push(inst.clone());
            }
        }
        if occurrences.len() >= 2 {
            cover.covered_gates += occurrences.len() * pattern.num_gates;
            cover.selections.push(ApaSelection {
                code: pattern.code.clone(),
                num_gates: pattern.num_gates,
                num_qubits: pattern.num_qubits,
                occurrences,
            });
        } else {
            for &i in occurrences.iter().flatten() {
                used[i] = false;
            }
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{mine_frequent_subcircuits, MinerOptions};
    use paqoc_circuit::Circuit;
    use std::collections::HashSet;

    /// Two SWAP skeletons plus two CPHASE skeletons.
    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 0).cx(0, 1);
        c.cx(2, 3).cx(3, 2).cx(2, 3);
        c.cx(0, 1).rz(1, 0.7).cx(0, 1);
        c.cx(2, 3).rz(3, 0.7).cx(2, 3);
        c
    }

    fn patterns() -> Vec<Pattern> {
        mine_frequent_subcircuits(&sample(), &MinerOptions::default())
    }

    #[test]
    fn none_budget_selects_nothing() {
        let cover = select_apa_basis(&patterns(), ApaBudget::None, sample().len());
        assert_eq!(cover.num_apa_gates(), 0);
        assert_eq!(cover.covered_gates, 0);
    }

    #[test]
    fn unlimited_budget_covers_the_whole_circuit() {
        // The miner may legitimately pick one 6-gate super-pattern
        // (SWAP followed by CPHASE on the same pair) instead of two
        // 3-gate patterns; either way every gate must be covered.
        let cover = select_apa_basis(&patterns(), ApaBudget::Unlimited, sample().len());
        assert!(cover.num_apa_gates() >= 1, "{cover:?}");
        assert_eq!(cover.covered_gates, 12, "{cover:?}");
    }

    #[test]
    fn limit_one_selects_the_best_coverage_pattern() {
        let all = select_apa_basis(&patterns(), ApaBudget::Unlimited, sample().len());
        let one = select_apa_basis(&patterns(), ApaBudget::Limit(1), sample().len());
        assert_eq!(one.num_apa_gates(), 1);
        assert!(one.covered_gates <= all.covered_gates);
        assert!(one.covered_gates >= 6);
    }

    #[test]
    fn occurrences_never_overlap() {
        let cover = select_apa_basis(&patterns(), ApaBudget::Unlimited, sample().len());
        let mut seen = HashSet::new();
        for (_, occ) in cover.occurrences() {
            for &i in occ {
                assert!(seen.insert(i), "instruction {i} claimed twice");
            }
        }
    }

    #[test]
    fn tuned_budget_reaches_majority_when_possible() {
        let c = sample();
        let cover = select_apa_basis(&patterns(), ApaBudget::Tuned, c.len());
        assert!(
            cover.covered_gates > c.len() / 2,
            "covered {} of {}",
            cover.covered_gates,
            c.len()
        );
    }

    #[test]
    fn single_use_patterns_are_not_selected() {
        // A pattern with 2 embeddings that overlap can only place once →
        // rejected.
        let mut c = Circuit::new(1);
        c.rz(0, 0.4).rz(0, 0.4).rz(0, 0.4);
        let pats = mine_frequent_subcircuits(&c, &MinerOptions::default());
        let cover = select_apa_basis(&pats, ApaBudget::Unlimited, c.len());
        assert_eq!(cover.num_apa_gates(), 0, "{cover:?}");
    }
}
