//! The explain pipeline rebuilt from each layer's public function.
//!
//! [`staged_explain`] calls the layers in the order `Session::prepare`
//! followed by `Mesa::explain_prepared` calls them, sealing included. It
//! serves twice: as the correctness oracle (its report must render
//! byte-identically to the one `Mesa::explain` or `Session::explain`
//! returns) and, with an enabled [`Tracer`], as the traced run that times
//! each layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kg::KnowledgeGraph;
use mesa::{
    analyze_candidates, apply_query_context, extract_and_join_with, fully_observed_columns, mcimr,
    prepare_from_joined, prune, report_summary, ExtractionCache, MesaConfig, MesaReport,
    PreparedQuery, PruneReason, SessionLimits,
};
use tabular::{AggregateQuery, DataFrame};

use crate::trace::Tracer;

/// Span names of the staged pipeline, one per layer boundary. The
/// `tabular.join` span wraps extraction and join together; its self time
/// is the join alone, because each extraction is a `kg.extract` child.
pub const SPAN_EXPLAIN: &str = "explain";
/// `apply_query_context`.
pub const SPAN_CONTEXT: &str = "problem.context";
/// `extract_and_join_with`.
pub const SPAN_JOIN: &str = "tabular.join";
/// The `fetch` closure of `extract_and_join_with`.
pub const SPAN_EXTRACT: &str = "kg.extract";
/// `prepare_from_joined`.
pub const SPAN_BIN_ENCODE: &str = "problem.bin_encode";
/// `EncodedFrame::seal`.
pub const SPAN_SEAL: &str = "storage.seal";
/// `prune`.
pub const SPAN_PRUNE: &str = "pruning.prune";
/// `fully_observed_columns` + `analyze_candidates`.
pub const SPAN_IPW: &str = "missing.ipw";
/// `mcimr`.
pub const SPAN_MCIMR: &str = "mcimr.select";

/// The staged layers, in pipeline order.
pub const LAYER_SPANS: [&str; 8] = [
    SPAN_CONTEXT,
    SPAN_EXTRACT,
    SPAN_JOIN,
    SPAN_BIN_ENCODE,
    SPAN_SEAL,
    SPAN_PRUNE,
    SPAN_IPW,
    SPAN_MCIMR,
];

/// One dataset as the pipeline sees it.
#[derive(Clone, Copy)]
pub struct Source<'a> {
    /// The input table.
    pub frame: &'a DataFrame,
    /// The knowledge graph.
    pub graph: &'a KnowledgeGraph,
    /// Columns linked to KG entities.
    pub columns: &'a [&'a str],
}

impl<'a> Source<'a> {
    /// An extraction cache with a session's default budget: a fresh one per
    /// query mirrors the transient session inside `Mesa::explain`, a
    /// long-lived one mirrors a `Session`'s extraction tier.
    pub fn extraction_cache(&self) -> ExtractionCache<'a> {
        ExtractionCache::with_budget(self.graph, SessionLimits::default().extraction)
    }
}

/// A report rebuilt from the layers, with the prepared query it ran on.
pub struct Staged {
    /// The prepared (joined, binned, encoded, sealed) query.
    pub prepared: PreparedQuery,
    /// The finished report.
    pub report: MesaReport,
}

/// Runs the explain pipeline layer by layer, each call wrapped in a span
/// of `tracer` tagged with `query_id`.
pub fn staged_explain(
    tracer: &mut Tracer,
    query_id: usize,
    source: Source<'_>,
    cache: &ExtractionCache<'_>,
    config: &MesaConfig,
    query: &AggregateQuery,
) -> mesa::Result<Staged> {
    let q = query_id;
    tracer.span(SPAN_EXPLAIN, q, |t| {
        let filtered = t.span(SPAN_CONTEXT, q, |_| {
            apply_query_context(source.frame, query)
        })?;
        let (joined, joins) = t.span(SPAN_JOIN, q, |t| {
            extract_and_join_with(&filtered, source.columns, |column, values, key_column| {
                t.span(SPAN_EXTRACT, q, |_| {
                    cache.get_or_extract(column, values, key_column, config.prepare.extraction)
                })
            })
        })?;
        drop(filtered);
        let mut prepared = t.span(SPAN_BIN_ENCODE, q, |_| {
            prepare_from_joined(query, joined, joins, config.prepare)
        })?;
        t.span(SPAN_SEAL, q, |_| prepared.encoded.seal());
        let pruning = t.span(SPAN_PRUNE, q, |_| {
            prune(
                &prepared.encoded,
                &prepared.candidates,
                prepared.exposure(),
                prepared.outcome(),
                &config.pruning,
            )
        })?;
        let selection_bias = t.span(SPAN_IPW, q, |_| {
            let features = fully_observed_columns(&prepared.frame);
            analyze_candidates(
                &prepared.encoded,
                &pruning.kept,
                prepared.outcome(),
                prepared.exposure(),
                &features,
                config.missing,
                config.pruning.ci,
            )
        })?;
        let (explanation, trace) = t.span(SPAN_MCIMR, q, |_| {
            mcimr(&prepared, &pruning.kept, &selection_bias, config.mcimr)
        })?;
        let report = MesaReport {
            explanation,
            pruning,
            selection_bias,
            trace,
            n_candidates: prepared.candidates.len(),
            n_extracted: prepared.extracted.len(),
        };
        Ok(Staged { prepared, report })
    })
}

/// FNV-1a over the bit patterns of `values`.
fn digest_f64(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The full observable content of a report as text, deterministic across
/// runs: the human summary, every field at full precision, selection-bias
/// entries sorted by attribute, and IPW weight vectors as a length plus a
/// digest of their exact bits.
pub fn render(report: &MesaReport) -> String {
    let mut out = report_summary(report);
    let _ = writeln!(out, "{:?}", report.explanation);
    let _ = writeln!(out, "{:?}", report.pruning);
    let _ = writeln!(out, "{:?}", report.trace);
    let _ = writeln!(
        out,
        "n_candidates={} n_extracted={}",
        report.n_candidates, report.n_extracted
    );
    let sorted: BTreeMap<&String, _> = report.selection_bias.iter().collect();
    for (name, info) in sorted {
        let weights = info
            .weights
            .as_ref()
            .map(|w| format!("{}:{:016x}", w.len(), digest_f64(w)));
        let _ = writeln!(
            out,
            "bias {name:?} attr={:?} missing={:?} biased={} weights={weights:?}",
            info.attribute, info.missing_fraction, info.biased
        );
    }
    out
}

/// Per-query counts read from a staged run's outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Candidates before pruning.
    pub candidates: usize,
    /// Distinct values submitted for linking.
    pub kg_values: usize,
    /// Values linked to a unique entity.
    pub kg_linked: usize,
    /// Attribute columns extracted.
    pub kg_attributes: usize,
    /// Dense bytes of the encoded frame.
    pub dense_bytes: usize,
    /// Sealed bytes of the encoded frame.
    pub sealed_bytes: usize,
    /// Candidates surviving pruning.
    pub kept: usize,
    /// Dropped candidates per reason, in [`PRUNE_REASONS`] order.
    pub dropped: [usize; 5],
    /// Attributes with detected selection bias.
    pub biased: usize,
    /// Biased attributes that carry IPW weights.
    pub weighted: usize,
    /// Biased attributes without weights: the fit failed and the attribute
    /// is silently scored unweighted.
    pub fit_failed: usize,
    /// MCIMR objective evaluations.
    pub evaluations: usize,
    /// MCIMR iterations.
    pub iterations: usize,
    /// 1 when MCIMR's stopping rule fired.
    pub stopped_early: usize,
}

/// Every prune reason with its metric suffix.
pub const PRUNE_REASONS: [(PruneReason, &str); 5] = [
    (PruneReason::Constant, "constant"),
    (PruneReason::TooManyMissing, "too_many_missing"),
    (PruneReason::HighEntropy, "high_entropy"),
    (PruneReason::LogicalDependency, "logical_dependency"),
    (PruneReason::LowRelevance, "low_relevance"),
];

impl Counts {
    /// Reads the counts of one staged run.
    pub fn of(staged: &Staged) -> Self {
        let (prepared, report) = (&staged.prepared, &staged.report);
        let encoding = prepared.encoded.encoding_report();
        let mut dropped = [0; 5];
        for (_, reason) in &report.pruning.dropped {
            let slot = PRUNE_REASONS.iter().position(|(r, _)| r == reason);
            dropped[slot.expect("PRUNE_REASONS lists every reason")] += 1;
        }
        let biased = report.selection_bias.len();
        let weighted = report
            .selection_bias
            .values()
            .filter(|i| i.weights.is_some())
            .count();
        Counts {
            candidates: prepared.candidates.len(),
            kg_values: prepared
                .extraction_stats
                .iter()
                .map(|(_, s)| s.n_values)
                .sum(),
            kg_linked: prepared
                .extraction_stats
                .iter()
                .map(|(_, s)| s.n_linked)
                .sum(),
            kg_attributes: prepared
                .extraction_stats
                .iter()
                .map(|(_, s)| s.n_attributes)
                .sum(),
            dense_bytes: encoding.iter().map(|c| c.dense_bytes).sum(),
            sealed_bytes: encoding.iter().map(|c| c.sealed_bytes).sum(),
            kept: report.pruning.kept.len(),
            dropped,
            biased,
            weighted,
            fit_failed: biased - weighted,
            evaluations: report.trace.n_evaluations,
            iterations: report.trace.n_iterations,
            stopped_early: usize::from(report.trace.stopped_early),
        }
    }
}
