//! The workloads: their generated inputs, the measured (untraced) loop
//! that yields the end-to-end metrics, and the traced loop that yields the
//! per-layer metrics. Both loops are closed loops with one client.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{experiment_world, scaled_rows, Scale};
use datagen::{
    build_kg, random_queries, representative_queries, Dataset, KgConfig, WorkloadQuery, World,
};
use kg::KnowledgeGraph;
use mesa::{ExtractionCache, Mesa, MesaConfig, MesaReport, SessionCacheStats};
use tabular::DataFrame;

use crate::host;
use crate::layers::{render, staged_explain, Counts, Source, Staged, LAYER_SPANS, PRUNE_REASONS};
use crate::stats::{mean, median, min_samples, per_query_medians, percentile};
use crate::trace::{self_time_by_name, Tracer};

/// Random Covid queries per dataset instance of `kg_wide`.
pub const KG_WIDE_QUERIES: usize = 40;
/// Extraction hops of `kg_wide`.
pub const KG_WIDE_HOPS: usize = 2;

/// A benchmark workload. Every request is a one-shot `Mesa::explain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 14 representative queries.
    Cold14,
    /// Random Covid queries with 2-hop extraction.
    KgWide,
}

impl Workload {
    /// Every workload, as `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Cold14, Workload::KgWide];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold14 => "cold14",
            Workload::KgWide => "kg_wide",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn config(self) -> MesaConfig {
        let mut config = MesaConfig::default();
        if self == Workload::KgWide {
            config.prepare.extraction.hops = KG_WIDE_HOPS;
        }
        config
    }

    fn datasets(self) -> Vec<Dataset> {
        match self {
            Workload::Cold14 => Dataset::all().to_vec(),
            Workload::KgWide => vec![Dataset::Covid],
        }
    }

    /// Dataset instances a pass runs over, each generated from its own
    /// seed. Averaging over several keeps the cost of one pass from
    /// hinging on one draw of rows and queries, so it repeats between
    /// seeds. Both give a pass enough distinct queries (112 and 800) for a
    /// p90 over per-query medians with 10 beyond it.
    fn instances(self) -> usize {
        match self {
            Workload::Cold14 => 8,
            Workload::KgWide => 20,
        }
    }
}

/// A seed for one purpose derived from the run's seed (one SplitMix64
/// step), so the instances' rows and query draws are independent.
fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z =
        (seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The experiments' knowledge graph, shared by every instance.
    pub graph: KnowledgeGraph,
    /// Per dataset instance, the frames generated from the run's seed.
    pub frames: Vec<Vec<(Dataset, DataFrame)>>,
    /// The queries of one pass, in request order.
    pub queries: Vec<WorkloadQuery>,
    /// Index into `frames` of the instance each query runs on.
    pub instance: Vec<usize>,
    /// The configuration every request runs under.
    pub config: MesaConfig,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`. The world and the
    /// knowledge graph are the experiments' fixed ones, built once; the
    /// seed drives the dataset rows of each instance and the random
    /// queries.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let world = World::generate(experiment_world());
        let mut inputs = Inputs {
            graph: build_kg(&world, KgConfig::default()),
            frames: Vec::new(),
            queries: Vec::new(),
            instance: Vec::new(),
            config: workload.config(),
        };
        for k in 0..workload.instances() {
            let purpose = |p: u64| derive_seed(seed, 64 * k as u64 + p);
            let frames: Vec<(Dataset, DataFrame)> = workload
                .datasets()
                .into_iter()
                .map(|d| {
                    let rows = scaled_rows(d, Scale::Quick);
                    let frame = d
                        .generate(&world, rows, purpose(d as u64))
                        .expect("dataset generation succeeds");
                    (d, frame)
                })
                .collect();
            let queries = match workload {
                Workload::Cold14 => representative_queries(),
                Workload::KgWide => {
                    let covid = &frames[0].1;
                    random_queries(
                        Dataset::Covid,
                        covid,
                        KG_WIDE_QUERIES,
                        purpose(16 + Dataset::Covid as u64),
                    )
                    .expect("random query generation succeeds")
                }
            };
            inputs
                .instance
                .extend(std::iter::repeat_n(k, queries.len()));
            inputs.queries.extend(queries);
            inputs.frames.push(frames);
        }
        inputs
    }

    /// The dataset query `i` runs on.
    fn source(&self, i: usize) -> Source<'_> {
        let dataset = self.queries[i].dataset;
        let frame = self.frames[self.instance[i]]
            .iter()
            .find(|(d, _)| *d == dataset)
            .map(|(_, f)| f)
            .expect("every queried dataset is generated");
        Source {
            frame,
            graph: &self.graph,
            columns: dataset.extraction_columns(),
        }
    }
}

/// Sets the workload up at least `reps` times and for at least
/// `min_seconds`, returning the last inputs and each set-up's seconds, net
/// of host steal as the measured loop's latencies are.
pub fn setup(workload: Workload, seed: u64, reps: usize, min_seconds: f64) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let (started, cpu_start, steal_start) =
        (Instant::now(), host::process_cpu_s(), host::steal_s());
    while times.len() < reps.max(1) || started.elapsed().as_secs_f64() < min_seconds {
        drop(last.take());
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(inputs);
    }
    let share = unstolen_share_since(cpu_start, steal_start);
    let times = times.iter().map(|t| t * share).collect();
    (last.expect("at least one set-up"), times)
}

/// Reference renderings of the queries, each rebuilt from the layers.
pub struct Oracle {
    refs: Vec<String>,
    explained: Vec<f64>,
}

impl Oracle {
    /// Rebuilds every query once, untraced and with a fresh extraction
    /// cache. Runs before any timing, so it also warms the process (thread
    /// pool, allocator) for the timed passes.
    pub fn build(inputs: &Inputs) -> Oracle {
        let mut refs = Vec::with_capacity(inputs.queries.len());
        let mut explained = Vec::new();
        for i in 0..inputs.queries.len() {
            let cache = inputs.source(i).extraction_cache();
            let (_, rebuilt) = rebuild(inputs, &mut Tracer::disabled(), &cache, i);
            refs.push(match rebuilt {
                Ok(s) => {
                    explained.push(s.report.explanation.explained_fraction());
                    render(&s.report)
                }
                Err(e) => format!("error: {e:?}"),
            });
        }
        Oracle { refs, explained }
    }

    /// Whether `report` renders exactly as the reference of query `i`.
    fn agrees(&self, i: usize, report: &MesaReport) -> bool {
        self.refs[i] == render(report)
    }

    /// Mean explained fraction over the queries.
    pub fn explained_fraction_mean(&self) -> f64 {
        mean(&self.explained)
    }
}

/// Rebuilds query `i` from the layers under `tracer`, timing the rebuild.
fn rebuild(
    inputs: &Inputs,
    tracer: &mut Tracer,
    cache: &ExtractionCache<'_>,
    i: usize,
) -> (f64, mesa::Result<Staged>) {
    let wq = &inputs.queries[i];
    let t0 = Instant::now();
    let staged = staged_explain(
        tracer,
        i,
        inputs.source(i),
        cache,
        &inputs.config,
        &wq.query,
    );
    (ms(t0.elapsed()), staged)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Serves query `i` once with a one-shot `Mesa::explain`.
fn serve(inputs: &Inputs, i: usize) -> (Duration, mesa::Result<MesaReport>) {
    let source = inputs.source(i);
    let t0 = Instant::now();
    let r = Mesa::with_config(inputs.config).explain(
        source.frame,
        &inputs.queries[i].query,
        Some(source.graph),
        source.columns,
    );
    (t0.elapsed(), r)
}

/// The outcome of a run: request accounting plus named metrics.
pub struct RunResult {
    /// Explains attempted.
    pub attempted: usize,
    /// Explains that errored or did not match the layer rebuild.
    pub failed: usize,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts for the run's metadata line.
    pub notes: BTreeMap<String, String>,
}

/// The share of a pass's wall time its critical path was not stolen by the
/// hypervisor, from the CPU seconds the process used (`cpu_s`, which on
/// Linux excludes steal) and the steal seconds summed over every virtual
/// CPU (`steal_s`). Steal strikes a virtual CPU only while it has work; if
/// it strikes each such second alike, the stolen share of the pass's
/// runnable CPU time is also the stolen share of its critical path, which
/// is runnable throughout. With one busy thread this is the steal over the
/// wall time; with two fully busy threads, half of that.
fn unstolen_share(cpu_s: f64, steal_s: f64) -> f64 {
    let runnable = cpu_s + steal_s;
    if runnable > 0.0 {
        1.0 - steal_s.max(0.0) / runnable
    } else {
        1.0
    }
}

/// [`unstolen_share`] from the given CPU and steal readings until now, or
/// 1 when `/proc` is unavailable.
fn unstolen_share_since(cpu_start: Option<f64>, steal_start: Option<f64>) -> f64 {
    match (
        cpu_start,
        host::process_cpu_s(),
        steal_start,
        host::steal_s(),
    ) {
        (Some(c0), Some(c1), Some(s0), Some(s1)) => unstolen_share(c1 - c0, s1 - s0),
        _ => 1.0,
    }
}

/// Passes a measured run makes at least, so that each query's median
/// latency rejects one slow pass.
pub const MIN_PASSES: usize = 3;

/// The measured loop: whole passes over the queries until `seconds` have
/// elapsed and at least [`MIN_PASSES`] passes are done. Every response
/// must render exactly as the oracle's rebuild of its query.
///
/// Two corrections keep the figures about the program rather than the
/// shared host. First, each pass's latencies are scaled by the pass's
/// [`unstolen_share`], so they read as on a host of its own. Second, the
/// host's speed also wanders over tens of seconds, so a run's figures are
/// taken from each query's median latency over the passes rather than
/// from every sample: a pass slowed by the host then moves no query's
/// median. Throughput is the queries of a pass over the sum of their
/// medians; the percentiles are over the per-query medians. The
/// uncorrected throughput and each pass's stolen share go to the run's
/// metadata.
pub fn run_measured(inputs: &Inputs, oracle: &Oracle, seconds: f64) -> RunResult {
    let n = inputs.queries.len();
    let (mut attempted, mut failed) = (0, 0);
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let (mut wall_ms, mut steal_shares) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut pass = Vec::with_capacity(n);
        let (cpu_start, steal_start) = (host::process_cpu_s(), host::steal_s());
        for i in 0..n {
            let (elapsed, result) = serve(inputs, i);
            attempted += 1;
            pass.push(ms(elapsed));
            if !result.is_ok_and(|r| oracle.agrees(i, &r)) {
                failed += 1;
            }
        }
        let share = unstolen_share_since(cpu_start, steal_start);
        wall_ms.push(pass.iter().sum::<f64>());
        steal_shares.push(1.0 - share);
        passes.push(pass.iter().map(|l| l * share).collect());
    }
    let per_query = per_query_medians(&passes);
    let p = |q: f64| {
        percentile(&per_query, q).unwrap_or_else(|| {
            panic!(
                "p{q} needs {} distinct queries per pass, not {n}",
                min_samples(q)
            )
        })
    };
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "throughput_qps".into(),
        n as f64 / (per_query.iter().sum::<f64>() / 1e3),
    );
    metrics.insert("latency_ms.p50".into(), p(50.0));
    metrics.insert("latency_ms.p90".into(), p(90.0));
    metrics.insert(
        "peak_rss_mb".into(),
        host::peak_rss_mb().unwrap_or(f64::NAN),
    );
    metrics.insert(
        "explained_fraction.mean".into(),
        oracle.explained_fraction_mean(),
    );

    let mut notes = BTreeMap::new();
    notes.insert("passes".into(), passes.len().to_string());
    notes.insert("latency_samples".into(), (passes.len() * n).to_string());
    notes.insert("queries".into(), n.to_string());
    let joined =
        |v: &[f64], f: fn(f64) -> String| v.iter().map(|&x| f(x)).collect::<Vec<_>>().join(" ");
    notes.insert(
        "explain_ms_per_pass".into(),
        joined(&wall_ms, |t| format!("{t:.0}")),
    );
    notes.insert(
        "steal_share_per_pass".into(),
        joined(&steal_shares, |s| format!("{s:.4}")),
    );
    notes.insert(
        "wall_throughput_qps".into(),
        format!(
            "{:.4}",
            (passes.len() * n) as f64 / (wall_ms.iter().sum::<f64>() / 1e3)
        ),
    );
    RunResult {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Per-layer observations gathered by the traced loop.
#[derive(Default)]
struct LayerTotals {
    /// Requests rebuilt under the tracer.
    traced: usize,
    self_ns: BTreeMap<&'static str, u64>,
    counts: Vec<Counts>,
    /// Per traced request: the session call's wall time minus the summed
    /// self time of the staged layer spans, in ms.
    session_overhead_ms: Vec<f64>,
    plain_ms: f64,
    traced_ms: f64,
    hit_us: Vec<f64>,
    /// MiB resident in each transient session's caches after its fill.
    resident_mb: Vec<f64>,
}

/// Serves query `i` through a transient session, as `Mesa::explain` does,
/// but holds the session open to read its resident bytes and time one
/// memo hit (which must equal the miss that filled it). Returns the wall
/// time of the equivalent `Mesa::explain` call.
fn serve_transient(
    inputs: &Inputs,
    i: usize,
    totals: &mut LayerTotals,
) -> (Duration, mesa::Result<Arc<MesaReport>>) {
    let wq = &inputs.queries[i];
    let source = inputs.source(i);
    let t0 = Instant::now();
    let mesa = Mesa::with_config(inputs.config);
    let session = mesa.session(source.frame, Some(source.graph), source.columns);
    let result = session.explain(&wq.query);
    let served = t0.elapsed();
    totals.resident_mb.push(resident_mb(&session.cache_stats()));
    let h0 = Instant::now();
    let again = session.explain(&wq.query);
    totals.hit_us.push(h0.elapsed().as_secs_f64() * 1e6);
    let d0 = Instant::now();
    drop(session);
    let wall = served + d0.elapsed();
    let result = match (result, again) {
        (Ok(fill), Ok(hit)) if render(&fill) == render(&hit) => Ok(fill),
        (Err(e), _) | (_, Err(e)) => Err(e),
        _ => Err(mesa::MesaError::Internal(
            "memo hit differs from the miss that filled it".into(),
        )),
    };
    (wall, result)
}

/// The traced loop. Each request is served and timed as in the measured
/// loop, then rebuilt from the layers twice, with tracing off and on
/// (alternating which runs first); the response and both rebuilds must
/// render as the oracle's reference. The spans are written to `trace_out`
/// when the loop ends.
pub fn run_traced(inputs: &Inputs, oracle: &Oracle, seconds: f64, trace_out: &Path) -> RunResult {
    let (mut attempted, mut failed, mut passes) = (0, 0, 0);
    let mut totals = LayerTotals::default();
    let mut tracer = Tracer::enabled();
    let cpu0 = host::process_cpu_s();
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        for i in 0..inputs.queries.len() {
            let source = inputs.source(i);
            attempted += 1;
            let (wall, result) = serve_transient(inputs, i, &mut totals);
            let mut ok = result.is_ok_and(|r| oracle.agrees(i, &r));
            let (plain_cache, traced_cache) =
                (source.extraction_cache(), source.extraction_cache());
            let first_span = tracer.spans().len();
            let ((plain_ms, plain), (traced_ms, traced)) = if attempted % 2 == 0 {
                let p = rebuild(inputs, &mut Tracer::disabled(), &plain_cache, i);
                (p, rebuild(inputs, &mut tracer, &traced_cache, i))
            } else {
                let t = rebuild(inputs, &mut tracer, &traced_cache, i);
                (rebuild(inputs, &mut Tracer::disabled(), &plain_cache, i), t)
            };
            ok &= plain.is_ok_and(|s| oracle.agrees(i, &s.report));
            match traced {
                Ok(staged) if oracle.agrees(i, &staged.report) => {
                    let spans = tracer.spans_since(first_span);
                    let by_name = self_time_by_name(spans, first_span);
                    let layers_ns: u64 = LAYER_SPANS.iter().filter_map(|n| by_name.get(n)).sum();
                    for (name, ns) in by_name {
                        *totals.self_ns.entry(name).or_insert(0) += ns;
                    }
                    totals
                        .session_overhead_ms
                        .push(ms(wall) - layers_ns as f64 / 1e6);
                    totals.counts.push(Counts::of(&staged));
                    totals.plain_ms += plain_ms;
                    totals.traced_ms += traced_ms;
                    totals.traced += 1;
                }
                _ => ok = false,
            }
            if !ok {
                failed += 1;
            }
        }
        passes += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_util = match (cpu0, host::process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) / wall_s,
        _ => f64::NAN,
    };
    if let Some(dir) = trace_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let written = std::fs::write(trace_out, tracer.to_json_lines());

    let mut metrics = totals.per_layer();
    metrics.insert(
        "parallel.threads".into(),
        parallel::effective_threads() as f64,
    );
    metrics.insert("parallel.cpu_util".into(), cpu_util);
    let mut notes = BTreeMap::new();
    notes.insert("passes".into(), passes.to_string());
    notes.insert("traced_queries".into(), totals.traced.to_string());
    notes.insert("spans".into(), tracer.spans().len().to_string());
    notes.insert(
        "trace_file".into(),
        match written {
            Ok(()) => trace_out.display().to_string(),
            Err(e) => format!("not written: {e}"),
        },
    );
    RunResult {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// MiB resident over every cache tier of a session.
fn resident_mb(stats: &SessionCacheStats) -> f64 {
    let extraction = stats.extraction.map_or(0, |e| e.resident_bytes);
    let bytes = stats.prepared.resident_bytes + stats.reports.resident_bytes + extraction;
    bytes as f64 / (1024.0 * 1024.0)
}

impl LayerTotals {
    /// The per-layer metrics: means per traced request, except
    /// `session.hit_us`, a median.
    fn per_layer(&self) -> BTreeMap<String, f64> {
        let n = self.traced.max(1) as f64;
        let mut m = BTreeMap::new();
        for name in LAYER_SPANS {
            let ns = self.self_ns.get(name).copied().unwrap_or(0);
            m.insert(format!("{name}_ms"), ns as f64 / 1e6 / n);
        }
        let per_query =
            |f: fn(&Counts) -> usize| self.counts.iter().map(f).sum::<usize>() as f64 / n;
        m.insert("problem.candidates".into(), per_query(|c| c.candidates));
        m.insert("kg.attributes".into(), per_query(|c| c.kg_attributes));
        let linked = per_query(|c| c.kg_linked);
        let values = per_query(|c| c.kg_values);
        m.insert(
            "kg.linked_frac".into(),
            if values > 0.0 { linked / values } else { 0.0 },
        );
        m.insert("storage.sealed_bytes".into(), per_query(|c| c.sealed_bytes));
        m.insert("storage.dense_bytes".into(), per_query(|c| c.dense_bytes));
        m.insert("pruning.kept".into(), per_query(|c| c.kept));
        for (slot, (_, suffix)) in PRUNE_REASONS.iter().enumerate() {
            let dropped = self.counts.iter().map(|c| c.dropped[slot]).sum::<usize>() as f64 / n;
            m.insert(format!("pruning.dropped.{suffix}"), dropped);
        }
        m.insert("missing.biased_attrs".into(), per_query(|c| c.biased));
        m.insert("missing.weighted_attrs".into(), per_query(|c| c.weighted));
        m.insert(
            "missing.fit_failed_attrs".into(),
            per_query(|c| c.fit_failed),
        );
        m.insert("mcimr.evaluations".into(), per_query(|c| c.evaluations));
        m.insert("mcimr.iterations".into(), per_query(|c| c.iterations));
        m.insert("mcimr.stopped_early".into(), per_query(|c| c.stopped_early));

        m.insert(
            "session.overhead_ms".into(),
            mean(&self.session_overhead_ms),
        );
        m.insert("session.hit_us".into(), median(&self.hit_us).unwrap_or(0.0));
        m.insert("session.resident_mb".into(), mean(&self.resident_mb));
        let overhead = if self.plain_ms > 0.0 {
            (self.traced_ms - self.plain_ms) / self.plain_ms * 100.0
        } else {
            0.0
        };
        m.insert("trace.overhead_pct".into(), overhead);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_shared_over_the_runnable_cpu_time() {
        // One thread busy for 10 s of wall time, 1 s of it stolen.
        assert!((unstolen_share(9.0, 1.0) - 0.9).abs() < 1e-12);
        // Two threads busy throughout, 1 s stolen from each.
        assert!((unstolen_share(18.0, 2.0) - 0.9).abs() < 1e-12);
        assert_eq!(unstolen_share(5.0, 0.0), 1.0);
        assert_eq!(unstolen_share(0.0, 0.0), 1.0);
    }

    #[test]
    fn every_pass_holds_enough_queries_for_p90() {
        for w in Workload::ALL {
            let n = Inputs::generate(w, 1).queries.len();
            assert!(n >= min_samples(90.0), "{}: {n} queries", w.name());
        }
    }
}
