//! The MCIMR algorithm (Algorithm 1): greedy selection of confounding
//! attributes by Min-Conditional-mutual-Information and Min-Redundancy.
//!
//! At each iteration the candidate minimising
//!
//! `I(O; T | C, E)  +  (1 / |E_selected|) · Σ_{E_i ∈ E_selected} I(E; E_i)`
//!
//! is added (Equation 5). Before adding, the *responsibility test* (Lemma
//! 4.2) checks whether the candidate is conditionally independent of the
//! outcome given the already-selected attributes; if so its responsibility
//! would be ≤ 0 and the algorithm stops, which is how `k` becomes an upper
//! bound rather than an exact size.
//!
//! Per-attribute IPW weights (from the selection-bias analysis) are applied
//! to every term that involves the corresponding attribute.
//!
//! Two implementation notes on the greedy loop: the relevance term
//! `I(O;T|E_cand)` and the pairwise redundancy terms `I(E_cand; E_i)` are
//! memoised across rounds (each is computed exactly once per
//! candidate/pair), and the per-candidate computations of a round fan out
//! over the persistent thread pool (`parallel::parallel_map`). Both are pure
//! optimisations — the selected attributes and their scores are identical
//! to the naive loop.

use std::collections::HashMap;

use infotheory::CiTestConfig;
use parallel::parallel_map;

use crate::error::Result;
use crate::missing::SelectionBiasInfo;
use crate::problem::{Explanation, PreparedQuery};
use crate::responsibility::responsibilities;

/// Options for an MCIMR run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McimrConfig {
    /// Upper bound on the explanation size (the paper's default is 5).
    pub k: usize,
    /// Whether to apply the responsibility-test stopping rule. Disabling it
    /// forces exactly `k` attributes (used by the stopping-rule ablation).
    pub use_stopping_rule: bool,
    /// CI-test configuration used by the responsibility test.
    pub ci: CiTestConfig,
}

impl Default for McimrConfig {
    fn default() -> Self {
        McimrConfig {
            k: 5,
            use_stopping_rule: true,
            ci: CiTestConfig::default(),
        }
    }
}

/// Diagnostics of a single MCIMR run (used by the efficiency experiments).
#[derive(Debug, Clone, Default)]
pub struct McimrTrace {
    /// Number of candidate evaluations (CMI computations of the `v1` term;
    /// with memoisation this is one per distinct candidate).
    pub n_evaluations: usize,
    /// Number of iterations executed (attributes considered for addition).
    pub n_iterations: usize,
    /// Whether the responsibility test triggered early termination.
    pub stopped_early: bool,
}

/// Runs MCIMR over the prepared query, selecting from `candidates`.
///
/// `bias` maps attribute names to their selection-bias analysis; when an
/// attribute has IPW weights they are used for every information measure
/// involving it.
pub fn mcimr(
    prepared: &PreparedQuery,
    candidates: &[String],
    bias: &HashMap<String, SelectionBiasInfo>,
    config: McimrConfig,
) -> Result<(Explanation, McimrTrace)> {
    let outcome = prepared.outcome().to_string();
    let exposure = prepared.exposure().to_string();
    let baseline = prepared.baseline_cmi();
    let mut trace = McimrTrace::default();
    let mut selected: Vec<String> = Vec::new();
    let mut remaining: Vec<String> = candidates.to_vec();

    let weight_of =
        |attr: &str| -> Option<&[f64]> { bias.get(attr).and_then(|info| info.weights.as_deref()) };

    // The relevance term `v1 = I(O; T | E_cand)` conditions only on the
    // candidate itself, never on the selected set, so it is constant across
    // greedy rounds: compute every candidate's term once (fanned out over
    // the persistent pool — per-candidate CMI cost is skewed by
    // cardinality, which the pool's dynamic claiming absorbs) and reuse it.
    // Keyed by candidate name.
    let v1_terms: Vec<Result<f64>> = parallel_map(&remaining, |_, cand| {
        Ok(prepared
            .encoded
            .cmi(&outcome, &exposure, &[cand.as_str()], weight_of(cand))?)
    });
    let mut v1: HashMap<String, f64> = HashMap::with_capacity(remaining.len());
    for (cand, term) in remaining.iter().zip(v1_terms) {
        v1.insert(cand.clone(), term?);
        trace.n_evaluations += 1;
    }
    // Memoised pairwise redundancy terms: `mi_terms[cand][r]` holds
    // `I(E_cand; E_r)` against the attribute selected in round `r`, so round
    // `r + 1` only computes the terms against the newest selection and
    // scoring sums a per-candidate slice (in selection order, matching the
    // naive loop's summation order).
    let mut mi_terms: HashMap<String, Vec<f64>> = HashMap::new();

    for _iteration in 0..config.k {
        if remaining.is_empty() {
            break;
        }
        trace.n_iterations += 1;
        if let Some(newest) = selected.last().cloned() {
            let new_terms: Vec<Result<f64>> = parallel_map(&remaining, |_, cand| {
                Ok(prepared
                    .encoded
                    .mutual_information(cand, &newest, weight_of(cand))?)
            });
            for (cand, term) in remaining.iter().zip(new_terms) {
                let term = term?;
                match mi_terms.get_mut(cand.as_str()) {
                    Some(terms) => terms.push(term),
                    None => {
                        mi_terms.insert(cand.clone(), vec![term]);
                    }
                }
            }
        }
        // NextBestAtt: minimise v1 + v2 / |selected|. Exact score ties are
        // broken by candidate name so the greedy path does not depend on the
        // candidate enumeration order.
        let mut best: Option<(usize, f64)> = None;
        for (idx, cand) in remaining.iter().enumerate() {
            let v2 = if selected.is_empty() {
                0.0
            } else {
                let mut sum = 0.0;
                for term in &mi_terms[cand.as_str()] {
                    sum += term;
                }
                sum / selected.len() as f64
            };
            let score = v1[cand] + v2;
            let wins = match best {
                None => true,
                Some((best_idx, b)) => score < b || (score == b && *cand < remaining[best_idx]),
            };
            if wins {
                best = Some((idx, score));
            }
        }
        let (best_idx, _) = match best {
            Some(b) => b,
            None => break,
        };
        let candidate = remaining.remove(best_idx);

        // Responsibility test (Lemma 4.2): stop if O ⫫ E_next | E_selected,
        // i.e. the responsibility of the next attribute would be ≈ 0. The CI
        // verdict alone has little power on small samples with conditioning,
        // so it is combined with the attribute's actual marginal improvement
        // of the explanation score.
        if config.use_stopping_rule {
            let z: Vec<&str> = selected.iter().map(|s| s.as_str()).collect();
            let test = prepared.encoded.ci_test(
                &outcome,
                &candidate,
                &z,
                weight_of(&candidate),
                config.ci,
            )?;
            if test.independent && !selected.is_empty() {
                let current = prepared.explanation_cmi(&selected, None)?;
                let mut with_candidate = selected.clone();
                with_candidate.push(candidate.clone());
                let after = prepared.explanation_cmi(&with_candidate, None)?;
                let improvement = current - after;
                let negligible = improvement <= (0.02 * baseline).max(config.ci.min_cmi);
                if negligible {
                    trace.stopped_early = true;
                    break;
                }
            }
        }
        selected.push(candidate);
    }

    let weights = crate::missing::combine_weights(&selected, bias, prepared.encoded.n_rows());
    let explainability = prepared.explanation_cmi(&selected, weights.as_deref())?;
    let resp = responsibilities(prepared, &selected, weights.as_deref())?;
    Ok((
        Explanation {
            attributes: selected,
            baseline_cmi: baseline,
            explainability,
            responsibilities: resp,
        },
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{prepare_query, PrepareConfig};
    use tabular::{AggregateQuery, DataFrameBuilder};

    /// Salary is driven by two country-level factors (`GDP`, `Gini`) plus a
    /// weak within-dataset factor (`Gender`). `GDP copy` is redundant with
    /// `GDP`; `Noise` is irrelevant.
    fn prepared() -> PreparedQuery {
        let n = 600;
        let mut country = Vec::new();
        let mut gdp = Vec::new();
        let mut gdp_copy = Vec::new();
        let mut gini = Vec::new();
        let mut gender = Vec::new();
        let mut noise = Vec::new();
        let mut salary = Vec::new();
        for i in 0..n {
            let cid = i % 6;
            let c = ["A", "B", "C", "D", "E", "F"][cid];
            let g = ["hi", "hi", "mid", "mid", "lo", "lo"][cid];
            let ineq = ["low", "high", "low", "high", "low", "high"][cid];
            let male = (i / 3) % 2 == 0;
            country.push(Some(c));
            gdp.push(Some(g));
            gdp_copy.push(Some(g));
            gini.push(Some(ineq));
            gender.push(Some(if male { "M" } else { "W" }));
            noise.push(Some(if (i * 13) % 5 < 2 { "x" } else { "y" }));
            let base = match g {
                "hi" => 90.0,
                "mid" => 55.0,
                _ => 25.0,
            };
            let inequality_penalty = if ineq == "high" { 12.0 } else { 0.0 };
            let s = base - inequality_penalty + if male { 6.0 } else { 0.0 };
            salary.push(Some(s));
        }
        let df = DataFrameBuilder::new()
            .cat("Country", country)
            .cat("GDP", gdp)
            .cat("GDP copy", gdp_copy)
            .cat("Gini", gini)
            .cat("Gender", gender)
            .cat("Noise", noise)
            .float("Salary", salary)
            .build()
            .unwrap();
        prepare_query(
            &df,
            &AggregateQuery::avg("Country", "Salary"),
            None,
            &[],
            PrepareConfig::default(),
        )
        .unwrap()
    }

    fn run(prepared: &PreparedQuery, candidates: &[&str], config: McimrConfig) -> Explanation {
        let cands: Vec<String> = candidates.iter().map(|s| s.to_string()).collect();
        mcimr(prepared, &cands, &HashMap::new(), config).unwrap().0
    }

    #[test]
    fn selects_the_true_confounders_first() {
        let p = prepared();
        let e = run(
            &p,
            &["GDP", "Gini", "Gender", "Noise"],
            McimrConfig::default(),
        );
        assert!(!e.is_empty());
        assert_eq!(
            e.attributes[0], "GDP",
            "GDP should be picked first: {:?}",
            e.attributes
        );
        assert!(
            e.attributes.contains(&"Gini".to_string()),
            "{:?}",
            e.attributes
        );
        assert!(!e.attributes.contains(&"Noise".to_string()));
        // conditioning on the selected set shrinks the correlation a lot
        assert!(e.explainability < e.baseline_cmi * 0.5);
        assert_eq!(e.responsibilities.len(), e.attributes.len());
    }

    #[test]
    fn redundancy_term_avoids_duplicates() {
        let p = prepared();
        let e = run(
            &p,
            &["GDP", "GDP copy", "Gini", "Noise"],
            McimrConfig {
                k: 2,
                ..Default::default()
            },
        );
        // with k = 2, picking GDP and its copy would be wasteful; the
        // min-redundancy term should prefer Gini as the second attribute
        assert_eq!(e.attributes.len().min(2), e.attributes.len());
        if e.attributes.len() == 2 {
            assert!(
                !(e.attributes.contains(&"GDP".to_string())
                    && e.attributes.contains(&"GDP copy".to_string())),
                "selected both redundant copies: {:?}",
                e.attributes
            );
        }
    }

    #[test]
    fn k_bounds_the_size() {
        let p = prepared();
        for k in 1..=4 {
            let e = run(
                &p,
                &["GDP", "Gini", "Gender", "Noise"],
                McimrConfig {
                    k,
                    ..Default::default()
                },
            );
            assert!(e.len() <= k);
        }
    }

    #[test]
    fn stopping_rule_prunes_irrelevant_tail() {
        let p = prepared();
        let with_stop = run(&p, &["GDP", "Gini", "Noise"], McimrConfig::default());
        let without_stop = run(
            &p,
            &["GDP", "Gini", "Noise"],
            McimrConfig {
                use_stopping_rule: false,
                k: 3,
                ..Default::default()
            },
        );
        assert!(with_stop.len() <= without_stop.len());
        assert!(!with_stop.attributes.contains(&"Noise".to_string()));
        // forcing k = 3 without the test includes everything
        assert_eq!(without_stop.len(), 3);
    }

    #[test]
    fn empty_candidates_give_empty_explanation() {
        let p = prepared();
        let e = run(&p, &[], McimrConfig::default());
        assert!(e.is_empty());
        assert_eq!(e.explainability, e.baseline_cmi);
    }

    #[test]
    fn trace_counts_evaluations() {
        let p = prepared();
        let cands: Vec<String> = ["GDP", "Gini", "Gender", "Noise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, trace) = mcimr(&p, &cands, &HashMap::new(), McimrConfig::default()).unwrap();
        assert!(trace.n_iterations >= 1);
        assert!(trace.n_evaluations >= cands.len());
    }

    #[test]
    fn linear_evaluation_count_in_candidates() {
        // The paper's Proposition 4.3: O(k |A|) — evaluations grow linearly
        // with the candidate count for fixed k.
        let p = prepared();
        let small: Vec<String> = ["GDP", "Gini"].iter().map(|s| s.to_string()).collect();
        let large: Vec<String> = ["GDP", "Gini", "Gender", "Noise", "GDP copy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = McimrConfig {
            k: 2,
            use_stopping_rule: false,
            ..Default::default()
        };
        let (_, t_small) = mcimr(&p, &small, &HashMap::new(), cfg).unwrap();
        let (_, t_large) = mcimr(&p, &large, &HashMap::new(), cfg).unwrap();
        let bound_small = cfg.k * small.len();
        let bound_large = cfg.k * large.len();
        assert!(t_small.n_evaluations <= bound_small);
        assert!(t_large.n_evaluations <= bound_large);
    }
}
