//! The benchmark's inputs: seeded TP-TR suites, their lakes set up through
//! the store, and the per-source reference answers every workload is
//! checked against.

use crate::report::{median, Values};
use gent_core::{GenT, ReclamationResult};
use gent_datagen::suite::{build_tp_tr, BenchmarkId, SuiteConfig};
use gent_discovery::DataLake;
use gent_serve::table_to_json;
use gent_table::Table;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// TP-TR suites generated per run. Several independent suites per run
/// average out how much one seed's 26 queries happen to cost, which is
/// what keeps run-to-run spread across seeds small.
pub const SUITES: usize = 4;

/// TPC-H scale units per suite: under a third of TP-TR Small's 82 (~240
/// rows per lake table), so that set-up, a warm-up pass and three measured
/// passes over every suite fit one run.
pub const UNITS: usize = 25;

/// Noise tables added to each lake on the SANTOS-style workload (the
/// suite's SANTOS Large + TP-TR construction; its default is 1500 per
/// lake). 500 keeps every lake well past the 200-table first-stage
/// retrieval threshold while four lakes fit one run.
pub const SANTOS_NOISE_TABLES: usize = 500;

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator for request orders and shuffles.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A run's inputs, set up: per suite its 26 sources, its opened lake and
/// its snapshot file, plus every set-up sample.
pub struct Prepared {
    /// The run seed, and which lakes were built: `tptr` (the suites'
    /// own tables) or `santos` (plus noise tables).
    pub seed: u64,
    pub lakes_label: &'static str,
    pub sources: Vec<Vec<Table>>,
    pub lakes: Vec<DataLake>,
    pub snapshots: Vec<PathBuf>,
    pub setup: Vec<SetupSample>,
    /// This process's peak resident memory once every lake is open.
    pub setup_peak_rss_mb: f64,
    /// The end-to-end `setup_s`: the median set-up time of one
    /// SANTOS-size lake (see `santos_setup_s`), in seconds.
    pub setup_s: f64,
}

/// Set-ups of each of the run's lakes; the per-layer `store.*` values
/// are medians over all of them.
const SETUP_REPS: usize = 6;

/// Set-ups of the lake `santos_setup_s` times when the run's own lakes are
/// TP-TR lakes.
const PROBE_SETUP_REPS: usize = 12;

/// Generate the run's suites one at a time and set each one's lake up
/// `SETUP_REPS` times before generating the next, then time `setup_s`.
/// Suite 0 uses the run seed itself as its `SuiteConfig.seed`; the others
/// use seeds derived from it.
pub fn prepare(seed: u64, noise_tables: usize, dir: &Path) -> Result<Prepared, String> {
    let mut p = Prepared {
        seed,
        lakes_label: if noise_tables == 0 { "tptr" } else { "santos" },
        sources: Vec::new(),
        lakes: Vec::new(),
        snapshots: Vec::new(),
        setup: Vec::new(),
        setup_peak_rss_mb: 0.0,
        setup_s: 0.0,
    };
    let (mut tables, mut rows, mut bytes) = (0, 0, 0);
    for j in 0..SUITES {
        let suite_seed = if j == 0 { seed } else { splitmix64(seed ^ ((j as u64) << 32)) };
        let cfg = SuiteConfig { seed: suite_seed, ..SuiteConfig::default() };
        let b = build_tp_tr(BenchmarkId::TpTrSmall, UNITS, noise_tables, &cfg);
        let path = dir.join(format!("lake{j}.gentlake"));
        tables += b.lake_tables.len();
        rows += b.lake_tables.iter().map(Table::n_rows).sum::<usize>();
        let (lake, samples) = set_up(&b.lake_tables, &path, SETUP_REPS)?;
        bytes += samples[0].snapshot_bytes;
        p.sources.push(b.cases.into_iter().map(|c| c.source).collect());
        p.lakes.push(lake);
        p.snapshots.push(path);
        p.setup.extend(samples);
    }
    p.setup_peak_rss_mb = crate::report::peak_rss_mb();
    eprintln!("perfbench: {SUITES} lakes: {tables} tables, {rows} rows, {bytes} snapshot bytes");
    p.setup_s = if noise_tables == SANTOS_NOISE_TABLES {
        median(&p.setup.iter().map(SetupSample::total).collect::<Vec<_>>())
    } else {
        santos_setup_s(seed, dir)?
    };
    Ok(p)
}

/// `setup_s` is timed on SANTOS-size lakes (a suite's tables plus
/// `SANTOS_NOISE_TABLES` noise tables, ~11.6 MB): the run's own lakes on
/// `santos`, and on the workloads whose own lakes are TP-TR lakes, suite
/// 0's SANTOS-size lake, set up `PROBE_SETUP_REPS` times and dropped. A
/// TP-TR lake sets up in ~25 ms, half of it the fixed cost of the fsyncs
/// in `snapshot::save`, whose latency on a shared disk rises by a third or
/// more for minutes at a time. A SANTOS-size lake takes ~0.3 s, mostly the
/// set-up's own work, so the disk's phases move it far less.
fn santos_setup_s(seed: u64, dir: &Path) -> Result<f64, String> {
    let cfg = SuiteConfig { seed, ..SuiteConfig::default() };
    let b = build_tp_tr(BenchmarkId::TpTrSmall, UNITS, SANTOS_NOISE_TABLES, &cfg);
    let path = dir.join("setup-probe.gentlake");
    let (_, samples) = set_up(&b.lake_tables, &path, PROBE_SETUP_REPS)?;
    std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    Ok(median(&samples.iter().map(SetupSample::total).collect::<Vec<_>>()))
}

/// Timings of one lake set-up, in seconds, plus the snapshot size.
#[derive(Clone, Copy)]
pub struct SetupSample {
    pub from_tables: f64,
    pub save: f64,
    pub open: f64,
    pub index_first_touch: f64,
    pub decode: f64,
    pub snapshot_bytes: u64,
}

impl SetupSample {
    pub fn total(&self) -> f64 {
        self.from_tables + self.save + self.open + self.index_first_touch + self.decode
    }
}

/// Set-up layer values: the median, over every lake set-up of the run, of
/// each store call and of the index build.
pub fn store_values(setup: &[SetupSample], values: &mut Values) {
    let ms = |f: fn(&SetupSample) -> f64| -> f64 {
        median(&setup.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>())
    };
    values.insert("discovery.from_tables_ms", ms(|s| s.from_tables));
    values.insert("store.save_ms", ms(|s| s.save));
    values.insert("store.open_ms", ms(|s| s.open));
    values.insert("store.index_first_touch_ms", ms(|s| s.index_first_touch));
    values.insert("store.decode_ms", ms(|s| s.decode));
    values.insert(
        "store.snapshot_bytes",
        median(&setup.iter().map(|s| s.snapshot_bytes as f64).collect::<Vec<_>>()),
    );
}

/// Set a lake up `reps` times through the program's own path —
/// `DataLake::from_tables`, `snapshot::save` (fsync), `snapshot::load`,
/// `ensure_index` and `decode_all` — and keep the last opened lake. The
/// snapshot stays at `path` (the serve workload serves copies of it).
fn set_up(
    tables: &[Table],
    path: &Path,
    reps: usize,
) -> Result<(DataLake, Vec<SetupSample>), String> {
    let mut samples = Vec::with_capacity(reps);
    let mut opened = None;
    for _ in 0..reps {
        let input = tables.to_vec();
        let t = Instant::now();
        let lake = DataLake::from_tables(input);
        let from_tables = t.elapsed().as_secs_f64();
        let t = Instant::now();
        gent_store::snapshot::save(path, &lake, None).map_err(|e| format!("save: {e}"))?;
        let save = t.elapsed().as_secs_f64();
        drop(lake);
        drop(opened.take()); // release the previous repetition's lake first
        let t = Instant::now();
        let loaded = gent_store::snapshot::load(path).map_err(|e| format!("load: {e}"))?.lake;
        let open = t.elapsed().as_secs_f64();
        let t = Instant::now();
        loaded.ensure_index().map_err(|e| format!("ensure_index: {e}"))?;
        let index_first_touch = t.elapsed().as_secs_f64();
        let t = Instant::now();
        loaded.decode_all(1).map_err(|e| format!("decode_all: {e}"))?;
        let decode = t.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(path).map_err(|e| format!("stat: {e}"))?.len();
        samples.push(SetupSample {
            from_tables,
            save,
            open,
            index_first_touch,
            decode,
            snapshot_bytes,
        });
        opened = Some(loaded);
    }
    Ok((opened.expect("at least one repetition"), samples))
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of a reclaimed table: its wire form (name, columns, key, rows),
/// so an in-process result and a served response digest alike.
pub fn digest(t: &Table) -> u64 {
    fnv1a(table_to_json(t).render().as_bytes())
}

/// What a correct reclaim of one source returns.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    pub digest: u64,
    pub eis: f64,
    pub precision: f64,
    pub recall: f64,
}

impl Reference {
    pub fn of(result: &ReclamationResult) -> Reference {
        Reference {
            digest: digest(&result.reclaimed),
            eis: result.eis,
            precision: result.report.precision,
            recall: result.report.recall,
        }
    }

    /// Bit-for-bit equality (the pipeline is deterministic).
    pub fn same(&self, other: &Reference) -> bool {
        self.digest == other.digest
            && self.eis.to_bits() == other.eis.to_bits()
            && self.precision.to_bits() == other.precision.to_bits()
            && self.recall.to_bits() == other.recall.to_bits()
    }
}

/// The warm-up pass: reclaim every source of every suite once with
/// `GenT::reclaim`, untimed, and keep each answer as the reference.
pub fn reference_pass(gen_t: &GenT, p: &Prepared) -> Result<Vec<Vec<Reference>>, String> {
    p.sources
        .iter()
        .zip(&p.lakes)
        .map(|(sources, lake)| {
            sources
                .iter()
                .map(|s| {
                    gen_t
                        .reclaim(s, lake)
                        .map(|r| Reference::of(&r))
                        .map_err(|e| format!("reference reclaim of {}: {e}", s.name()))
                })
                .collect()
        })
        .collect()
}

/// Reference sets pinned per seed and lake kind, one line each, as
/// `expected_line` renders them. They were computed with `GenT::reclaim`
/// when the benchmark was written; `perfbench --expected <seed>` prints
/// the lines of another seed.
const EXPECTED: &str = include_str!("../expected.txt");

/// One line of `expected.txt`: the seed, the lake kind, an FNV-1a digest
/// over every reference, suite by suite and source by source (table digest
/// and the bits of EIS, precision and recall), and the three quality means.
pub fn expected_line(p: &Prepared, refs: &[Vec<Reference>]) -> String {
    let mut bytes = Vec::new();
    for r in refs.iter().flatten() {
        for x in [r.digest, r.eis.to_bits(), r.precision.to_bits(), r.recall.to_bits()] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    let (eis, precision, recall) = quality(refs);
    format!("{} {} {:016x} {eis:?} {precision:?} {recall:?}", p.seed, p.lakes_label, fnv1a(&bytes))
}

/// Compare the run's references with the pinned ones of its seed, so a
/// pipeline that answers wrongly but deterministically fails too. Returns
/// 1 on a mismatch, else 0. A seed without a pinned line is checked
/// against this run's `GenT::reclaim` only, and says so.
pub fn check_pinned(p: &Prepared, refs: &[Vec<Reference>]) -> u64 {
    let got = expected_line(p, refs);
    let key = format!("{} {} ", p.seed, p.lakes_label);
    match EXPECTED.lines().find(|l| l.starts_with(&key)) {
        Some(want) if want == got => 0,
        Some(want) => {
            eprintln!(
                "perfbench: references differ from the pinned ones:\n  got  {got}\n  want {want}"
            );
            1
        }
        None => {
            eprintln!(
                "perfbench: no pinned references for seed {} on {} lakes; answers are \
                 checked against this run's GenT::reclaim only",
                p.seed, p.lakes_label
            );
            0
        }
    }
}

/// Suite quality, mean over every source: `(eis, precision, recall)`.
/// Every checked answer equals its reference, so this is the quality of
/// what the run answered.
pub fn quality(refs: &[Vec<Reference>]) -> (f64, f64, f64) {
    let all: Vec<&Reference> = refs.iter().flatten().collect();
    let n = all.len().max(1) as f64;
    (
        all.iter().map(|r| r.eis).sum::<f64>() / n,
        all.iter().map(|r| r.precision).sum::<f64>() / n,
        all.iter().map(|r| r.recall).sum::<f64>() / n,
    )
}

/// The traced run's quality metrics.
pub fn quality_values(refs: &[Vec<Reference>], values: &mut Values) {
    let (eis, precision, recall) = quality(refs);
    values.insert("metrics.eis_mean", eis);
    values.insert("metrics.precision_mean", precision);
    values.insert("metrics.recall_mean", recall);
}

/// Every (suite, source) pair in a seeded order — the order each pass
/// reclaims them in.
pub fn pass_order(sources: &[Vec<Table>], seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> =
        sources.iter().enumerate().flat_map(|(j, s)| (0..s.len()).map(move |i| (j, i))).collect();
    Rng::new(seed ^ 0x0bde_5eed).shuffle(&mut order);
    order
}
