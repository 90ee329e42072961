//! Missing-data handling (Section 3.2): selection-bias detection and Inverse
//! Probability Weighting.
//!
//! Extracted attributes contain missing values (failed links, sparse KG). The
//! estimators in `infotheory` use complete-case analysis, which is unbiased
//! only when the recoverability conditions of Propositions 3.1/3.2 hold —
//! essentially, when missingness carries no information about the outcome (or
//! the partner attribute) once the observed variables are taken into account.
//!
//! For each candidate attribute `E` we therefore:
//!
//! 1. build its *selection indicator* `R_E` (1 = observed, 0 = missing);
//! 2. test whether `R_E` is independent of the outcome `O` and of the
//!    exposure `T` (given the context, which the prepared frame already
//!    encodes). If both independencies hold, complete cases are a
//!    representative sample and no correction is needed;
//! 3. otherwise fit a logistic regression `P(R_E = 1 | X)` on fully observed
//!    attributes of the input dataset and weight each complete case by
//!    `P(R_E = 1) / P(R_E = 1 | x_i)` — the IPW estimator the paper adopts.
//!
//! Step 3 runs once per query for all biased candidates together: their
//! models share one design `X`, and `stats::logistic_fit_lockstep` fits
//! them in lockstep over it.

use std::collections::HashMap;

use infotheory::{CiTestConfig, EncodedFrame};
use parallel::FanOut;
use stats::{logistic_fit_lockstep, LogisticConfig, LogisticDesign, MAX_PREDICTORS};
use tabular::{Column, ColumnView, EncodedColumn};

use crate::error::{MesaError, Result};

/// How MESA treats missing values in candidate attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Complete-case analysis with no correction.
    CompleteCase,
    /// Detect selection bias per attribute and re-weight complete cases
    /// (Inverse Probability Weighting) where it is detected. The paper's
    /// default.
    Ipw,
}

/// Result of the selection-bias analysis for one attribute.
#[derive(Debug, Clone)]
pub struct SelectionBiasInfo {
    /// The attribute name.
    pub attribute: String,
    /// Fraction of missing values.
    pub missing_fraction: f64,
    /// Whether selection bias was detected (missingness associated with the
    /// outcome or the exposure).
    pub biased: bool,
    /// IPW weights for every row (1.0 where no correction applies). `None`
    /// when no correction is needed or possible.
    pub weights: Option<Vec<f64>>,
}

/// Builds the selection indicator `R_E` for an attribute as an encoded
/// column: code 1 = observed, code 0 = missing. Accepts the column in either
/// lifecycle state (`&EncodedColumn` or [`ColumnView`]).
pub fn selection_indicator<'a>(column: impl Into<ColumnView<'a>>) -> EncodedColumn {
    let column = column.into();
    // The indicator is the validity bitmap re-expressed as codes; walking
    // set-bit runs word-by-word fills it in O(words + runs) instead of one
    // branch per row.
    let mut codes = vec![0u32; column.len()];
    for (start, end) in column.validity().iter_runs() {
        codes[start..end].fill(1);
    }
    EncodedColumn::from_codes(codes, vec!["missing".into(), "observed".into()])
}

/// The screening verdict on one candidate.
struct Screen {
    missing_fraction: f64,
    /// The selection indicator `R_E`, kept only when selection bias was
    /// detected.
    biased: Option<EncodedColumn>,
}

/// Builds `R_E` and tests it for independence of the outcome and of the
/// exposure (given the context, which the prepared frame already encodes).
fn screen(
    encoded: &EncodedFrame,
    attribute: &str,
    outcome: &str,
    exposure: &str,
    ci: CiTestConfig,
) -> Result<Screen> {
    let col = encoded.column(attribute)?;
    let missing_fraction = encoded.missing_fraction(attribute)?;
    if missing_fraction <= 0.0 || missing_fraction >= 1.0 {
        return Ok(Screen {
            missing_fraction,
            biased: None,
        });
    }
    let r = selection_indicator(col);
    let o = encoded.column(outcome)?;
    let t = encoded.column(exposure)?;
    let r_vs_o = infotheory::ci_test((&r).into(), o, &[], None, ci)?;
    let r_vs_t = infotheory::ci_test((&r).into(), t, &[], None, ci)?;
    let biased = !r_vs_o.independent || !r_vs_t.independent;
    Ok(Screen {
        missing_fraction,
        biased: biased.then_some(r),
    })
}

/// The design of a query's selection-probability models `P(R_E = 1 | X)`.
///
/// `X` holds the first [`MAX_PREDICTORS`] fully observed, non-constant
/// feature columns, their discrete codes used as numeric features (which
/// is what "the values of the attributes in D" amounts to after binning).
/// It does not depend on the candidate: a candidate with missing values is
/// never fully observed, so it is never its own feature. One design thus
/// serves every biased candidate of the query.
enum SelectionDesign {
    /// One design row per data row.
    Rows(LogisticDesign),
    /// One design row per observed feature combination, weighted by the
    /// number of data rows behind it (binomial form, same optimum).
    /// `group_of` maps each data row to its design row.
    Grouped {
        design: LogisticDesign,
        counts: Vec<f64>,
        group_of: Vec<usize>,
    },
}

impl SelectionDesign {
    /// Builds the design over `n` rows. The outer error is a frame lookup
    /// failure; the inner one a design no fit can use (too few rows), which
    /// leaves every candidate unweighted.
    fn build(
        encoded: &EncodedFrame,
        feature_columns: &[String],
        n: usize,
    ) -> Result<std::result::Result<Self, stats::FitError>> {
        let mut features: Vec<(&str, ColumnView<'_>)> = Vec::new();
        for f in feature_columns {
            let fc = encoded.column(f)?;
            if fc.null_count() > 0 {
                continue; // only fully observed features are usable
            }
            if fc.cardinality() <= 1 {
                continue;
            }
            features.push((f.as_str(), fc));
            if features.len() >= MAX_PREDICTORS {
                break; // keep the model small; it only supplies weights
            }
        }

        // The features are discrete codes with small cardinalities, so rows
        // with the same feature combination are interchangeable for the
        // fit. When their dense cross product is small, group them by
        // mixed-radix code packing (the entropy kernel's trick) and fit
        // over the distinct combinations with binomial weights.
        let dense_cap = infotheory::adaptive_dense_cells(n);
        let cells = features.iter().try_fold(1usize, |acc, (_, c)| {
            let next = acc.checked_mul(c.cardinality())?;
            (next <= dense_cap).then_some(next)
        });
        let Some(cells) = cells else {
            let predictors: Vec<(String, Vec<f64>)> = features
                .iter()
                .map(|(name, c)| {
                    let values = c.codes().iter().map(|&v| f64::from(v)).collect();
                    (name.to_string(), values)
                })
                .collect();
            return Ok(LogisticDesign::new(n, &predictors).map(SelectionDesign::Rows));
        };
        // Materialise each feature's codes once: for sealed columns
        // `codes()` decodes into an owned buffer, which must not happen
        // inside the row loop.
        let feature_codes: Vec<_> = features.iter().map(|(_, c)| c.codes()).collect();
        let mut cell_of = Vec::with_capacity(n);
        let mut cell_counts = vec![0usize; cells];
        for i in 0..n {
            let mut idx = 0usize;
            let mut mult = 1usize;
            for ((_, c), codes) in features.iter().zip(&feature_codes) {
                idx += codes[i] as usize * mult;
                mult *= c.cardinality();
            }
            cell_of.push(idx);
            cell_counts[idx] += 1;
        }
        let mut group_of_cell = vec![usize::MAX; cells];
        let mut counts = Vec::new();
        let mut predictors: Vec<(String, Vec<f64>)> = features
            .iter()
            .map(|(name, _)| (name.to_string(), Vec::new()))
            .collect();
        for (idx, &count) in cell_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            group_of_cell[idx] = counts.len();
            counts.push(count as f64);
            let mut rest = idx;
            for ((_, c), (_, vals)) in features.iter().zip(predictors.iter_mut()) {
                vals.push((rest % c.cardinality()) as f64);
                rest /= c.cardinality();
            }
        }
        let group_of = cell_of.iter().map(|&idx| group_of_cell[idx]).collect();
        Ok(
            LogisticDesign::new(counts.len(), &predictors).map(|design| SelectionDesign::Grouped {
                design,
                counts,
                group_of,
            }),
        )
    }

    /// IPW weights `P(R_E = 1) / P(R_E = 1 | x_i)` for each indicator,
    /// fitted in lockstep; `None` where the fit failed. Weights only matter
    /// for complete cases; incomplete rows are dropped by the estimators
    /// regardless of their weight, so they keep 1.0.
    fn weights(&self, indicators: &[&EncodedColumn]) -> Vec<Option<Vec<f64>>> {
        let ys: Vec<Vec<f64>> = indicators
            .iter()
            .map(|r| r.codes().iter().map(|&c| f64::from(c)).collect())
            .collect();
        let (design, proportions, row_weights) = match self {
            SelectionDesign::Rows(design) => (design, None, None),
            SelectionDesign::Grouped {
                design,
                counts,
                group_of,
            } => {
                // Per combination, the observed share of its rows.
                let proportions: Vec<Vec<f64>> = ys
                    .iter()
                    .map(|y| {
                        let mut observed = vec![0.0f64; counts.len()];
                        for (&g, &yi) in group_of.iter().zip(y) {
                            observed[g] += yi;
                        }
                        observed.iter().zip(counts).map(|(o, c)| o / c).collect()
                    })
                    .collect();
                (design, Some(proportions), Some(counts.as_slice()))
            }
        };
        let outcomes: Vec<&[f64]> = proportions
            .as_ref()
            .unwrap_or(&ys)
            .iter()
            .map(Vec::as_slice)
            .collect();
        let fits = logistic_fit_lockstep(design, &outcomes, row_weights, LogisticConfig::default());
        fits.iter()
            .zip(&ys)
            .map(|(fit, y)| {
                let model = fit.as_ref().ok()?;
                let marginal = y.iter().sum::<f64>() / y.len() as f64;
                let p = |row: &[f64]| model.predict_proba(&row[1..]).clamp(0.05, 1.0);
                let weight = |yi: f64, p: f64| if yi > 0.5 { marginal / p } else { 1.0 };
                Some(match self {
                    SelectionDesign::Rows(_) => design
                        .rows()
                        .zip(y)
                        .map(|(row, &yi)| weight(yi, p(row)))
                        .collect(),
                    SelectionDesign::Grouped { group_of, .. } => {
                        let p_of: Vec<f64> = design.rows().map(p).collect();
                        y.iter()
                            .zip(group_of)
                            .map(|(&yi, &g)| weight(yi, p_of[g]))
                            .collect()
                    }
                })
            })
            .collect()
    }
}

/// Selection-bias analysis of every candidate, in input order:
///
/// 1. **screen** each candidate on the pool — build `R_E` and run the two
///    CI tests;
/// 2. **build one design** for the query, if any candidate is biased;
/// 3. **fit the biased candidates in lockstep**, in one chunk per thread.
fn analyze(
    encoded: &EncodedFrame,
    candidates: &[String],
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    ci: CiTestConfig,
) -> Result<Vec<SelectionBiasInfo>> {
    let screens =
        parallel::parallel_map(candidates, |_, c| screen(encoded, c, outcome, exposure, ci))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
    let biased: Vec<&EncodedColumn> = screens.iter().filter_map(|s| s.biased.as_ref()).collect();
    let mut weights = Vec::with_capacity(biased.len());
    if let Some(n_rows) = biased.first().map(|r| r.len()) {
        match SelectionDesign::build(encoded, feature_columns, n_rows)? {
            Ok(design) => {
                let per_chunk = biased.len().div_ceil(parallel::effective_threads().max(1));
                let chunks: Vec<&[&EncodedColumn]> = biased.chunks(per_chunk).collect();
                let fitted = parallel::parallel_map_with(&chunks, FanOut::heavy(), |_, chunk| {
                    design.weights(chunk)
                });
                weights.extend(fitted.into_iter().flatten());
            }
            // No fit can use the design: every biased candidate stays
            // unweighted, as it does when its own fit fails.
            Err(_) => weights.resize(biased.len(), None),
        }
    }
    let mut weights = weights.into_iter();
    Ok(candidates
        .iter()
        .zip(screens)
        .map(|(c, s)| SelectionBiasInfo {
            attribute: c.clone(),
            missing_fraction: s.missing_fraction,
            biased: s.biased.is_some(),
            weights: s.biased.and_then(|_| weights.next().flatten()),
        })
        .collect())
}

/// Analyses one candidate attribute for selection bias and, when detected,
/// estimates IPW weights: [`analyze_candidates`] for a single attribute,
/// returning its analysis even when no bias is found.
///
/// * `feature_columns` — fully observed attributes of the input dataset used
///   as predictors of the selection probability (their discrete codes are
///   used as numeric features, which is what "the values of the attributes in
///   D" amounts to after binning).
pub fn analyze_attribute(
    encoded: &EncodedFrame,
    attribute: &str,
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    ci: CiTestConfig,
) -> Result<SelectionBiasInfo> {
    let candidates = [attribute.to_string()];
    analyze(encoded, &candidates, outcome, exposure, feature_columns, ci)?
        .pop()
        .ok_or_else(|| MesaError::Internal("no analysis for the attribute".into()))
}

/// Selection-bias analysis for a whole candidate set. Returns a map from
/// attribute name to its analysis, including weights where needed, for the
/// attributes where bias was detected.
pub fn analyze_candidates(
    encoded: &EncodedFrame,
    candidates: &[String],
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    policy: MissingPolicy,
    ci: CiTestConfig,
) -> Result<HashMap<String, SelectionBiasInfo>> {
    if policy == MissingPolicy::CompleteCase {
        return Ok(HashMap::new());
    }
    let analyses = analyze(encoded, candidates, outcome, exposure, feature_columns, ci)?;
    Ok(analyses
        .into_iter()
        .filter(|info| info.biased)
        .map(|info| (info.attribute.clone(), info))
        .collect())
}

/// Combines the IPW weights of several attributes into a single per-row
/// weight vector (element-wise product), used when scoring a multi-attribute
/// explanation. Returns `None` when no attribute carries weights.
pub fn combine_weights(
    attributes: &[String],
    analyses: &HashMap<String, SelectionBiasInfo>,
    n_rows: usize,
) -> Option<Vec<f64>> {
    let mut combined: Option<Vec<f64>> = None;
    for a in attributes {
        if let Some(info) = analyses.get(a) {
            if let Some(w) = &info.weights {
                let acc = combined.get_or_insert_with(|| vec![1.0; n_rows]);
                for (c, &wi) in acc.iter_mut().zip(w) {
                    *c *= wi;
                }
            }
        }
    }
    combined
}

/// Mean-imputes every candidate attribute of a frame (the imputation baseline
/// of Figure 3). Returns a new frame.
pub fn impute_candidates(
    frame: &tabular::DataFrame,
    candidates: &[String],
) -> Result<tabular::DataFrame> {
    let mut out = frame.clone();
    for c in candidates {
        out = kg::impute_mean(&out, c).map_err(MesaError::from)?;
    }
    Ok(out)
}

/// Helper: the column names of a frame that have no missing values (the
/// feature pool for the selection-probability model).
pub fn fully_observed_columns(frame: &tabular::DataFrame) -> Vec<String> {
    frame
        .columns()
        .filter(|c| c.null_count() == 0)
        .map(|c: &Column| c.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::DataFrameBuilder;

    /// Frame where the `hdi` attribute is missing exactly for high-salary
    /// rows — blatant selection bias.
    fn biased_frame() -> tabular::DataFrame {
        let n = 240;
        let mut country = Vec::new();
        let mut salary = Vec::new();
        let mut hdi = Vec::new();
        let mut mar = Vec::new();
        for i in 0..n {
            let c = ["DE", "IT", "NG", "KE"][i % 4];
            let high = i % 4 < 2;
            country.push(Some(c));
            salary.push(Some(if high { "high" } else { "low" }));
            // hdi observed mostly for low-salary countries
            hdi.push(if high && i % 3 != 0 {
                None
            } else {
                Some(if high { "big" } else { "small" })
            });
            // missing-at-random attribute
            mar.push(if i % 5 == 0 {
                None
            } else {
                Some(if i % 2 == 0 { "x" } else { "y" })
            });
        }
        DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Salary", salary)
            .cat("HDI", hdi)
            .cat("MAR", mar)
            .build()
            .unwrap()
    }

    #[test]
    fn selection_indicator_is_binary() {
        let col = tabular::Column::from_str_values("x", vec![Some("a"), None, Some("b")]).encode();
        let r = selection_indicator(&col);
        assert_eq!(
            r.iter_codes().collect::<Vec<_>>(),
            vec![Some(1), Some(0), Some(1)]
        );
        assert_eq!(r.cardinality(), 2);
    }

    #[test]
    fn detects_bias_only_where_present() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let biased = analyze_attribute(
            &encoded,
            "HDI",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(biased.biased, "HDI missingness depends on salary");
        assert!(biased.missing_fraction > 0.2);
        assert!(biased.weights.is_some());
        let w = biased.weights.unwrap();
        assert_eq!(w.len(), df.n_rows());
        assert!(w.iter().all(|&x| x.is_finite() && x > 0.0));
        // complete cases in the under-represented (high-salary) group get up-weighted
        assert!(w.iter().any(|&x| x > 1.01));

        let mar = analyze_attribute(
            &encoded,
            "MAR",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(
            !mar.biased,
            "MAR attribute should not trigger the correction"
        );
        assert!(mar.weights.is_none());
    }

    #[test]
    fn fully_observed_attribute_is_unbiased() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let info = analyze_attribute(
            &encoded,
            "Country",
            "Salary",
            "Country",
            &[],
            CiTestConfig::default(),
        )
        .unwrap();
        assert_eq!(info.missing_fraction, 0.0);
        assert!(!info.biased);
    }

    #[test]
    fn analyze_candidates_respects_policy() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let candidates = vec!["HDI".to_string(), "MAR".to_string()];
        let none = analyze_candidates(
            &encoded,
            &candidates,
            "Salary",
            "Country",
            &features,
            MissingPolicy::CompleteCase,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(none.is_empty());
        let ipw = analyze_candidates(
            &encoded,
            &candidates,
            "Salary",
            "Country",
            &features,
            MissingPolicy::Ipw,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(ipw.contains_key("HDI"));
        assert!(!ipw.contains_key("MAR"));
    }

    #[test]
    fn weight_combination() {
        let mut analyses = HashMap::new();
        analyses.insert(
            "a".to_string(),
            SelectionBiasInfo {
                attribute: "a".into(),
                missing_fraction: 0.1,
                biased: true,
                weights: Some(vec![2.0, 1.0, 1.0]),
            },
        );
        analyses.insert(
            "b".to_string(),
            SelectionBiasInfo {
                attribute: "b".into(),
                missing_fraction: 0.1,
                biased: true,
                weights: Some(vec![1.0, 3.0, 1.0]),
            },
        );
        let combined = combine_weights(&["a".to_string(), "b".to_string()], &analyses, 3).unwrap();
        assert_eq!(combined, vec![2.0, 3.0, 1.0]);
        assert!(combine_weights(&["c".to_string()], &analyses, 3).is_none());
        assert!(combine_weights(&[], &analyses, 3).is_none());
    }

    #[test]
    fn ipw_corrects_complete_case_bias() {
        // Ground truth: HDI ("big"/"small") fully explains Salary given Country.
        // Biased missingness makes the naive complete-case CMI estimate of
        // I(Salary; Country | HDI) deviate; IPW should move it back towards
        // the unbiased (fully observed) value.
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let info = analyze_attribute(
            &encoded,
            "HDI",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        let w = info.weights.unwrap();
        let naive = encoded.cmi("Salary", "Country", &["HDI"], None).unwrap();
        let weighted = encoded
            .cmi("Salary", "Country", &["HDI"], Some(&w))
            .unwrap();
        // both should be small (HDI explains most of it), and the weighted
        // estimate must stay finite and non-negative
        assert!(naive >= 0.0 && weighted >= 0.0);
        assert!(weighted.is_finite());
    }

    #[test]
    fn impute_candidates_fills_all() {
        let df = biased_frame();
        let out = impute_candidates(&df, &["HDI".to_string(), "MAR".to_string()]).unwrap();
        assert_eq!(out.column("HDI").unwrap().null_count(), 0);
        assert_eq!(out.column("MAR").unwrap().null_count(), 0);
    }

    #[test]
    fn fully_observed_columns_lists_complete_ones() {
        let df = biased_frame();
        let cols = fully_observed_columns(&df);
        assert!(cols.contains(&"Country".to_string()));
        assert!(cols.contains(&"Salary".to_string()));
        assert!(!cols.contains(&"HDI".to_string()));
    }
}
