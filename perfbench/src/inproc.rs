//! The in-process workload `santos`: every source of every suite reclaimed
//! one after another on one thread through `GenT::reclaim` against
//! SANTOS-size lakes, and — in the traced run — through the same pipeline
//! called layer by layer.
//!
//! Two more in-process workloads were measured and dropped, because their
//! run-to-run spread across seeds did not fit the largest bound the
//! benchmark may set: the plain TP-TR lakes through `GenT::reclaim` (22–29%
//! of the median on a shared 2-vCPU host), and the same lakes through
//! `reclaim_from_candidates` on precomputed Set Similarity candidates
//! (28% in two of seven ten-seed sets: a 20-second run sits inside one of
//! the host's fast or slow phases). `santos` runs the same sources through
//! the same pipeline, traversal and integration included.

use crate::report::{median, percentile, Outcome, Values};
use crate::suite::{self, Reference, SANTOS_NOISE_TABLES};
use crate::trace::Tracer;
use gent_core::{
    expand_with_stats, integrate, matrix_traversal, AlignmentMatrix, GenT, ReclamationResult,
};
use gent_discovery::set_similarity::verified_mapping;
use gent_discovery::{
    set_similarity_cached, DataLake, DiscoveryCache, OverlapRetriever, TableRetriever,
};
use gent_metrics::evaluate;
use gent_table::Table;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics only `santos` measures (the serve
/// workload reports them as 0).
pub const LAYERS: &[&str] = &[
    "store.ensure_index_ms",
    "store.ensure_index_share",
    "discovery.retrieve_ms",
    "discovery.retrieve_share",
    "discovery.set_similarity_ms",
    "discovery.set_similarity_share",
    "discovery.containment_ms",
    "discovery.verify_ms",
    "discovery.verify_calls",
    "discovery.verify_accepted",
    "discovery.candidates",
    "core.traversal_ms",
    "core.traversal_share",
    "core.expand_ms",
    "core.matrix_build_ms",
    "core.rounds_self_ms",
    "core.traversal_rounds",
    "core.rows_rescored",
    "core.candidates_pruned",
    "core.expand_paths_considered",
    "core.expand_memo_hits",
    "core.expand_dropped",
    "core.originating_tables",
    "core.integrate_ms",
    "core.integrate_share",
    "metrics.evaluate_ms",
    "metrics.evaluate_share",
    "trace.untraced_share",
    "trace.coverage_min_pct",
];

/// Set Similarity exactly as `GenT::reclaim` runs it (fresh cache).
fn discover(
    gen_t: &GenT,
    lake: &DataLake,
    source: &Table,
    restrict: Option<&[usize]>,
) -> Vec<Table> {
    let cfg = &gen_t.config().set_similarity;
    set_similarity_cached(lake, source, restrict, cfg, &mut DiscoveryCache::new())
        .into_iter()
        .map(|c| c.table)
        .collect()
}

/// Measured passes per run, at least: each source's latency is its
/// median over the passes, so one pass slowed by a noisy neighbour moves
/// nothing.
const MIN_PASSES: usize = 3;

/// The share of each traced reclaim's wall time its six pipeline spans
/// must cover; a traced run below it fails.
const MIN_SPAN_COVERAGE_PCT: f64 = 95.0;

/// Each source's median latency over the passes, in ms.
fn per_source_ms(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len()).map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).collect()
}

/// Sources reclaimed per second of reclaim wall time.
fn reclaims_per_s(per_source_ms: &[f64]) -> f64 {
    per_source_ms.len() as f64 / (per_source_ms.iter().sum::<f64>() / 1e3)
}

/// Compare an answer with its reference; report the first few mismatches.
fn check(got: Result<Reference, String>, want: &Reference, what: &str, failed: &mut u64) {
    let ok = match &got {
        Ok(r) => r.same(want),
        Err(_) => false,
    };
    if !ok {
        *failed += 1;
        if *failed <= 5 {
            eprintln!("perfbench: wrong answer for {what}: got {got:?}, want {want:?}");
        }
    }
}

/// Add `n` to a per-layer count.
fn count(values: &mut Values, name: &'static str, n: u64) {
    *values.entry(name).or_insert(0.0) += n as f64;
}

/// A prepared run: the lakes, the references, and the seeded order every
/// pass follows.
struct Run {
    gen_t: GenT,
    prepared: suite::Prepared,
    refs: Vec<Vec<Reference>>,
    /// 1 when the references differ from the pinned ones of the seed.
    pinned_mismatch: u64,
    order: Vec<(usize, usize)>,
}

impl Run {
    fn new(seed: u64, dir: &Path) -> Result<Run, String> {
        let prepared = suite::prepare(seed, SANTOS_NOISE_TABLES, dir)?;
        let gen_t = GenT::default();
        let refs = suite::reference_pass(&gen_t, &prepared)?;
        let pinned_mismatch = suite::check_pinned(&prepared, &refs);
        let order = suite::pass_order(&prepared.sources, seed);
        Ok(Run { gen_t, prepared, refs, pinned_mismatch, order })
    }

    /// One untraced reclaim.
    fn reclaim(&self, j: usize, i: usize) -> Result<ReclamationResult, String> {
        let source = &self.prepared.sources[j][i];
        self.gen_t.reclaim(source, &self.prepared.lakes[j]).map_err(|e| e.to_string())
    }

    /// Whole passes until `seconds` have passed, and at least MIN_PASSES:
    /// every reclaim's latency in ms, per pass, and the wrong answers.
    fn measure(&self, seconds: f64) -> (Vec<Vec<f64>>, u64) {
        let mut passes: Vec<Vec<f64>> = Vec::new();
        let mut failed = 0;
        let start = Instant::now();
        while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let mut pass = Vec::with_capacity(self.order.len());
            for &(j, i) in &self.order {
                let t = Instant::now();
                let result = black_box(self.reclaim(j, i));
                pass.push(t.elapsed().as_secs_f64() * 1e3);
                let got = result.map(|r| Reference::of(&r));
                check(got, &self.refs[j][i], self.prepared.sources[j][i].name(), &mut failed);
            }
            passes.push(pass);
        }
        let pass_s: Vec<String> =
            passes.iter().map(|p| format!("{:.2}", p.iter().sum::<f64>() / 1e3)).collect();
        eprintln!(
            "perfbench: {} reclaims per pass; pass times (s): {}",
            self.order.len(),
            pass_s.join(" ")
        );
        (passes, failed)
    }

    /// One pass of the pipeline called layer by layer, each call in a
    /// span, with probe calls beside the pipeline spans that split Set
    /// Similarity and `matrix_traversal`. Its answers must equal
    /// `GenT::reclaim`'s. Returns the wrong answers; counts go to `values`.
    fn traced_pass(&self, tracer: &mut Tracer, values: &mut Values) -> Result<u64, String> {
        let cfg = self.gen_t.config();
        let mut failed = 0;
        for (r, &(j, i)) in self.order.iter().enumerate() {
            let r = r as u32;
            let (source, lake) = (&self.prepared.sources[j][i], &self.prepared.lakes[j]);
            let root = tracer.open("reclaim", None, r);
            let mut restrict = None;
            tracer
                .span("store.ensure_index", Some(root), r, || lake.ensure_index())
                .map_err(|e| format!("ensure_index: {e}"))?;
            if lake.len() > cfg.first_stage_threshold {
                restrict = Some(tracer.span("discovery.retrieve", Some(root), r, || {
                    OverlapRetriever.retrieve(lake, source, cfg.first_stage_k)
                }));
            }
            let tables = tracer.span("discovery.set_similarity", Some(root), r, || {
                discover(&self.gen_t, lake, source, restrict.as_deref())
            });
            let outcome = tracer.span("core.matrix_traversal", Some(root), r, || {
                matrix_traversal(source, &tables, cfg)
            });
            let reclaimed = tracer.span("core.integrate", Some(root), r, || {
                integrate(&outcome.originating, source, cfg)
            });
            let report =
                tracer.span("metrics.evaluate", Some(root), r, || evaluate(source, &reclaimed));
            tracer.close(root);

            let got = Reference {
                digest: suite::digest(&reclaimed),
                eis: report.eis,
                precision: report.precision,
                recall: report.recall,
            };
            check(Ok(got), &self.refs[j][i], source.name(), &mut failed);
            count(values, "discovery.candidates", tables.len() as u64);
            count(values, "core.traversal_rounds", u64::from(outcome.stats.rounds));
            count(values, "core.rows_rescored", outcome.stats.rows_rescored);
            count(values, "core.candidates_pruned", outcome.stats.candidates_pruned);
            count(values, "core.expand_paths_considered", outcome.expand.paths_considered);
            count(values, "core.expand_memo_hits", outcome.expand.memo_hits);
            count(values, "core.expand_dropped", outcome.expand.candidates_dropped);
            count(values, "core.originating_tables", outcome.originating.len() as u64);

            // Probes, beside the pipeline spans (not inside a reclaim).
            let (mut calls, mut accepted) = (0, 0);
            tracer.span("probe.containment", None, r, || {
                for c in 0..source.n_cols() {
                    let probes = source.distinct_values(c);
                    if !probes.is_empty() {
                        black_box(lake.containment_counts(probes.iter()));
                    }
                }
            });
            let set: Vec<usize> = restrict.unwrap_or_else(|| (0..lake.len()).collect());
            tracer.span("probe.verify", None, r, || {
                for &t in &set {
                    calls += 1;
                    let tau = cfg.set_similarity.tau;
                    if verified_mapping(source, lake.table(t), tau).is_some() {
                        accepted += 1;
                    }
                }
            });
            count(values, "discovery.verify_calls", calls);
            count(values, "discovery.verify_accepted", accepted);
            let key_names = source.schema().key_names();
            let (expanded, _) = tracer.span("probe.expand", None, r, || {
                expand_with_stats(&tables, &key_names, cfg.expand_max_depth)
            });
            tracer.span("probe.matrix_build", None, r, || {
                for t in &expanded {
                    let m = AlignmentMatrix::build(
                        source,
                        t,
                        cfg.three_valued,
                        cfg.max_aligned_per_key,
                    );
                    black_box(m);
                }
            });
        }
        Ok(failed)
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
    dir: &Path,
) -> Result<Outcome, String> {
    let run = Run::new(seed, dir)?;
    let (passes, mut failed) = run.measure(seconds);
    failed += run.pinned_mismatch;
    let mut attempted = passes.iter().map(|p| p.len() as u64).sum();
    let latencies = per_source_ms(&passes);
    let setup = &run.prepared.setup;
    let mut values = Values::new();
    match trace_out {
        None => {
            values.insert("reclaims_per_s", reclaims_per_s(&latencies));
            values.insert("reclaim_p50_ms", median(&latencies));
            values.insert("reclaim_p90_ms", percentile(&latencies, 0.90));
            values.insert("eis_mean", suite::quality(&run.refs).0);
            values.insert("setup_s", run.prepared.setup_s);
            values.insert("setup_peak_rss_mb", run.prepared.setup_peak_rss_mb);
        }
        Some(path) => {
            let mut tracer = Tracer::new();
            failed += run.traced_pass(&mut tracer, &mut values)?;
            attempted += run.order.len() as u64;
            layer_values(&tracer, reclaims_per_s(&latencies), &mut values);
            let coverage = values["trace.coverage_min_pct"];
            if coverage < MIN_SPAN_COVERAGE_PCT {
                failed += 1;
                eprintln!(
                    "perfbench: the pipeline spans cover only {coverage:.2}% of one reclaim's \
                     wall time (at least {MIN_SPAN_COVERAGE_PCT}% required)"
                );
            }
            suite::store_values(setup, &mut values);
            suite::quality_values(&run.refs, &mut values);
            crate::report::zero_fill(&mut values, crate::serve_mix::LAYERS);
            tracer.write_jsonl(path).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(Outcome { attempted, failed, values })
}

/// Per-layer times (summed over the traced pass), their shares of reclaim
/// wall time, and the tracing overhead against the untraced phase.
fn layer_values(tracer: &Tracer, untraced_rps: f64, values: &mut Values) {
    let wall_ms = tracer.total_ms("reclaim");
    let reclaims = tracer.spans().iter().filter(|s| s.name == "reclaim").count() as f64;
    let pipeline = [
        ("store.ensure_index", "store.ensure_index_ms", "store.ensure_index_share"),
        ("discovery.retrieve", "discovery.retrieve_ms", "discovery.retrieve_share"),
        (
            "discovery.set_similarity",
            "discovery.set_similarity_ms",
            "discovery.set_similarity_share",
        ),
        ("core.matrix_traversal", "core.traversal_ms", "core.traversal_share"),
        ("core.integrate", "core.integrate_ms", "core.integrate_share"),
        ("metrics.evaluate", "metrics.evaluate_ms", "metrics.evaluate_share"),
    ];
    for (span, ms_name, share_name) in pipeline {
        let ms = tracer.total_ms(span);
        values.insert(ms_name, ms);
        values.insert(share_name, 100.0 * ms / wall_ms);
    }
    values.insert("trace.untraced_share", 100.0 * tracer.self_ms("reclaim") / wall_ms);
    values.insert("trace.coverage_min_pct", tracer.min_child_coverage_pct("reclaim"));
    values.insert("discovery.containment_ms", tracer.total_ms("probe.containment"));
    values.insert("discovery.verify_ms", tracer.total_ms("probe.verify"));
    let expand_ms = tracer.total_ms("probe.expand");
    let build_ms = tracer.total_ms("probe.matrix_build");
    values.insert("core.expand_ms", expand_ms);
    values.insert("core.matrix_build_ms", build_ms);
    values.insert(
        "core.rounds_self_ms",
        (tracer.total_ms("core.matrix_traversal") - expand_ms - build_ms).max(0.0),
    );
    let traced_rps = reclaims / (wall_ms / 1e3);
    values.insert("trace.reclaims_per_s", traced_rps);
    values.insert("trace.untraced_reclaims_per_s", untraced_rps);
    values.insert("trace.overhead_ratio", untraced_rps / traced_rps);
}
