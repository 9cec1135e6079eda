//! The serve workload: an in-process `gent serve` router over fresh copies
//! of the suites' snapshots, driven over HTTP by keep-alive clients in a
//! closed loop with a fixed mix of single reclaims, batch reclaims and
//! live ingests.

use crate::report::{median, percentile, Outcome, Values};
use crate::suite::{self, fnv1a, Reference, Rng, SUITES};
use crate::trace::Tracer;
use gent_core::{GenT, GenTConfig};
use gent_serve::{table_to_json, Json, Router, ServeConfig, Server};
use gent_table::Table;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-layer metrics only the serve workload measures (`santos` reports
/// them as 0).
pub const LAYERS: &[&str] = &[
    "serve.overhead_p50_ms",
    "serve.overhead_p95_ms",
    "serve.pipeline_ms",
    "serve.response_bytes",
    "serve.ingest_ms",
    "serve.http_429",
];

/// Closed-loop clients, each on its own keep-alive connection.
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Sources per `POST /reclaim/batch`.
const BATCH: usize = 8;
/// Of every `CYCLE` requests a client sends, one is a batch reclaim and
/// one a live ingest; the rest are single reclaims.
const CYCLE: u64 = 12;
/// Rows of each ingested table.
const INGEST_ROWS: usize = 16;
/// Requests each client sends at least, however short `--seconds` is:
/// 10 cycles give the two clients 200 single reclaims (20 samples past
/// p90, 10 past p95) and 20 ingests (two compactions of lake `s0`).
const MIN_REQUESTS: u64 = 10 * CYCLE;

/// One planned request.
enum Request {
    Reclaim { lake: usize, source: usize },
    Batch { lake: usize, sources: Vec<usize> },
    Ingest { name: String },
}

/// Request `n` of client `client`: the kind is fixed by `n`. Single
/// reclaims take the next source of `walk`; a batch draws its lake and
/// sources from the client's seeded stream.
fn plan(rng: &mut Rng, client: usize, n: u64, sources: &[Vec<Table>], walk: &mut Walk) -> Request {
    match n % CYCLE {
        5 => {
            let lake = rng.below(SUITES);
            let mut all: Vec<usize> = (0..sources[lake].len()).collect();
            rng.shuffle(&mut all);
            all.truncate(BATCH);
            Request::Batch { lake, sources: all }
        }
        11 => Request::Ingest { name: format!("perfbench_ingest_c{client}_{n}") },
        _ => {
            let (lake, source) = walk.step();
            Request::Reclaim { lake, source }
        }
    }
}

/// A client's single reclaims: a seeded permutation of every (lake,
/// source) pair, walked round and round, so every source is asked about
/// equally often and has its own median latency.
struct Walk {
    order: Vec<(usize, usize)>,
    next: usize,
}

impl Walk {
    fn step(&mut self) -> (usize, usize) {
        let pair = self.order[self.next % self.order.len()];
        self.next += 1;
        pair
    }
}

/// A table whose values share nothing with any suite, so ingesting it
/// leaves every reclaim answer unchanged. Ingests all go to lake `s0`, so
/// its delta log reaches the compaction threshold within a run.
fn ingest_body(name: &str) -> String {
    let rows: Vec<Json> = (0..INGEST_ROWS)
        .map(|i| {
            Json::Array(vec![
                Json::str(format!("perfbench-ingest-{name}-{i}")),
                Json::str(format!("perfbench-note-{name}-{i}")),
            ])
        })
        .collect();
    let table = Json::Object(vec![
        ("name".into(), Json::str(name)),
        ("columns".into(), Json::Array(vec![Json::str("tag"), Json::str("note")])),
        ("rows".into(), Json::Array(rows)),
    ]);
    Json::Object(vec![
        ("lake".into(), Json::str("s0")),
        ("tables".into(), Json::Array(vec![table])),
    ])
    .render()
}

/// A minimal HTTP/1.1 keep-alive client: one connection, reopened only
/// when the server closes it.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        write!(
            reader.get_mut(),
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut len, mut close) = (0usize, false);
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                match k.trim().to_ascii_lowercase().as_str() {
                    "content-length" => len = v.trim().parse().map_err(std::io::Error::other)?,
                    "connection" => close = v.trim().eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut buf = vec![0; len];
        reader.read_exact(&mut buf)?;
        if close {
            self.stream = None;
        }
        String::from_utf8(buf).map(|b| (status, b)).map_err(std::io::Error::other)
    }
}

/// What one served reclaim answered, in reference form.
fn served(v: &Json) -> Option<Reference> {
    let m = v.get("metrics")?;
    Some(Reference {
        digest: fnv1a(v.get("reclaimed")?.render().as_bytes()),
        eis: m.get("eis")?.as_f64()?,
        precision: m.get("precision")?.as_f64()?,
        recall: m.get("recall")?.as_f64()?,
    })
}

/// One client's record of a closed-loop phase.
#[derive(Default)]
struct ClientLog {
    /// Client-observed `/reclaim` latency, by (lake, source).
    reclaim_ms: Vec<((usize, usize), f64)>,
    overhead_ms: Vec<f64>,
    pipeline_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// Sources reclaimed (a batch counts each of its sources).
    sources: u64,
    attempted: u64,
    failed: u64,
    http_429: u64,
    spans: Option<Tracer>,
}

impl ClientLog {
    fn merge(mut self, o: ClientLog) -> ClientLog {
        self.reclaim_ms.extend(o.reclaim_ms);
        self.overhead_ms.extend(o.overhead_ms);
        self.pipeline_ms.extend(o.pipeline_ms);
        self.response_bytes.extend(o.response_bytes);
        self.ingest_ms.extend(o.ingest_ms);
        self.sources += o.sources;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.http_429 += o.http_429;
        self
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: serve-mix: {what}");
        }
    }
}

/// Everything the clients share, read-only.
struct Inputs<'a> {
    sources: &'a [Vec<Table>],
    refs: &'a [Vec<Reference>],
    /// Pre-rendered inline source per (lake, source).
    source_json: Vec<Vec<Json>>,
    seed: u64,
}

impl Inputs<'_> {
    fn reclaim_body(&self, lake: usize, source: usize) -> String {
        Json::Object(vec![
            ("lake".into(), Json::str(format!("s{lake}"))),
            ("source".into(), self.source_json[lake][source].clone()),
        ])
        .render()
    }

    fn batch_body(&self, lake: usize, sources: &[usize]) -> String {
        let items = sources
            .iter()
            .map(|&i| Json::Object(vec![("source".into(), self.source_json[lake][i].clone())]))
            .collect();
        Json::Object(vec![
            ("lake".into(), Json::str(format!("s{lake}"))),
            ("sources".into(), Json::Array(items)),
        ])
        .render()
    }
}

/// Send one request and check its answer against the references.
fn exchange(conn: &mut Conn, inputs: &Inputs, req: &Request, log: &mut ClientLog) {
    let (path, body) = match req {
        Request::Reclaim { lake, source } => ("/reclaim", inputs.reclaim_body(*lake, *source)),
        Request::Batch { lake, sources } => ("/reclaim/batch", inputs.batch_body(*lake, sources)),
        Request::Ingest { name } => ("/admin/ingest", ingest_body(name)),
    };
    log.attempted += 1;
    let t = Instant::now();
    let answer = conn.post(path, &body);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (status, text) = match answer {
        Ok(a) => a,
        Err(e) => return log.fail(&format!("{path}: {e}")),
    };
    if status == 429 {
        log.http_429 += 1;
    }
    if status != 200 {
        return log.fail(&format!("{path} answered {status}: {text}"));
    }
    let Ok(v) = Json::parse(&text) else {
        return log.fail(&format!("{path} answered unparseable JSON"));
    };
    match req {
        Request::Reclaim { lake, source } => {
            let want = &inputs.refs[*lake][*source];
            if !served(&v).is_some_and(|got| got.same(want)) {
                return log
                    .fail(&format!("/reclaim of s{lake}/{source} differs from the reference"));
            }
            let total = v.get("timings").and_then(|t| t.get("total_ms")).and_then(Json::as_f64);
            let Some(total) = total else {
                return log.fail(&format!("/reclaim of s{lake}/{source} has no timings.total_ms"));
            };
            log.reclaim_ms.push(((*lake, *source), ms));
            log.pipeline_ms.push(total);
            log.overhead_ms.push(ms - total);
            log.response_bytes.push(text.len() as f64);
            log.sources += 1;
        }
        Request::Batch { lake, sources } => {
            let results = v.get("results").and_then(Json::as_array).unwrap_or(&[]);
            let ok = results.len() == sources.len()
                && results
                    .iter()
                    .zip(sources)
                    .all(|(r, &i)| served(r).is_some_and(|got| got.same(&inputs.refs[*lake][i])));
            if !ok {
                return log.fail(&format!("/reclaim/batch on s{lake} differs from the reference"));
            }
            log.sources += sources.len() as u64;
        }
        Request::Ingest { .. } => {
            if v.get("appended").and_then(Json::as_i64) != Some(1) {
                return log.fail(&format!("/admin/ingest answered {text}"));
            }
            log.ingest_ms.push(ms);
        }
    }
}

/// One closed-loop client until `deadline`, and for at least
/// `MIN_REQUESTS` requests.
fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    client: usize,
    deadline: Instant,
    traced: bool,
) -> ClientLog {
    let mut conn = Conn { addr, stream: None };
    let client_seed = inputs.seed ^ 0xc11e_0000 ^ client as u64;
    let mut rng = Rng::new(client_seed);
    let mut walk = Walk { order: suite::pass_order(inputs.sources, client_seed), next: 0 };
    let mut log = ClientLog { spans: traced.then(Tracer::new), ..ClientLog::default() };
    let mut n = 0u64;
    while n < MIN_REQUESTS || Instant::now() < deadline {
        let req = plan(&mut rng, client, n, inputs.sources, &mut walk);
        let name = match req {
            Request::Reclaim { .. } => "serve.reclaim",
            Request::Batch { .. } => "serve.batch",
            Request::Ingest { .. } => "serve.ingest",
        };
        let span = log.spans.as_mut().map(|t| t.open(name, None, n as u32));
        exchange(&mut conn, inputs, &req, &mut log);
        if let (Some(t), Some(id)) = (log.spans.as_mut(), span) {
            t.close(id);
        }
        n += 1;
    }
    log
}

/// One closed-loop phase against a fresh server over fresh copies of the
/// base snapshots. Returns the merged client log and the phase's wall
/// time in seconds.
fn phase(
    inputs: &Inputs,
    bases: &[PathBuf],
    dir: &Path,
    tag: &str,
    seconds: f64,
    traced: bool,
) -> Result<(ClientLog, f64, Vec<Tracer>), String> {
    let mut builder = Router::builder(GenTConfig::default());
    for (j, base) in bases.iter().enumerate() {
        let path = dir.join(format!("{tag}-lake{j}.gentlake"));
        std::fs::copy(base, &path).map_err(|e| format!("copy snapshot: {e}"))?;
        let loaded = gent_store::snapshot::load(&path).map_err(|e| format!("load: {e}"))?;
        loaded.lake.decode_all(1).map_err(|e| format!("decode_all: {e}"))?;
        builder.add_loaded_snapshot(&format!("s{j}"), loaded, &path)?;
    }
    let cfg =
        ServeConfig { addr: "127.0.0.1:0".into(), threads: WORKERS, ..ServeConfig::default() };
    let server = Server::bind_router(&cfg, builder.build()?).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        // Untimed warm-up: one reclaim per lake on a throwaway connection.
        let mut warm = Conn { addr, stream: None };
        let mut warm_log = ClientLog::default();
        for j in 0..bases.len() {
            exchange(&mut warm, inputs, &Request::Reclaim { lake: j, source: 0 }, &mut warm_log);
        }
        drop(warm);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client_loop(addr, inputs, c, deadline, traced)))
            .collect();
        let joined: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
        let wall = start.elapsed().as_secs_f64();
        // Stop the server before reporting any client failure: the scope
        // waits for every thread it spawned.
        handle.stop();
        let served = serving.join().map_err(|_| "server thread panicked".to_string())?;
        let mut logs: Vec<ClientLog> = joined
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|_| "client thread panicked".to_string())?;
        let tracers: Vec<Tracer> = logs.iter_mut().filter_map(|l| l.spans.take()).collect();
        let mut merged = logs.into_iter().fold(ClientLog::default(), ClientLog::merge);
        merged.failed += warm_log.failed;
        served.map_err(|e| format!("server: {e}"))?;
        Ok((merged, wall, tracers))
    })
}

/// Each source's median `/reclaim` latency, in ms: the samples the
/// `santos` workload takes its percentiles over, so that a few slow
/// seconds of the host move the slow sources' medians, not the top decile.
fn per_source_ms(samples: &[((usize, usize), f64)]) -> Vec<f64> {
    let mut by_source: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for &(pair, ms) in samples {
        by_source.entry(pair).or_default().push(ms);
    }
    by_source.values().map(|v| median(v)).collect()
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
    dir: &Path,
) -> Result<Outcome, String> {
    let prepared = suite::prepare(seed, 0, dir)?;
    let refs = suite::reference_pass(&GenT::default(), &prepared)?;
    let pinned_mismatch = suite::check_pinned(&prepared, &refs);
    let suite::Prepared {
        sources, lakes, snapshots: bases, setup, setup_peak_rss_mb, setup_s, ..
    } = prepared;
    drop(lakes); // the server opens its own copies
    let source_json = sources.iter().map(|srcs| srcs.iter().map(table_to_json).collect()).collect();
    let inputs = Inputs { sources: &sources, refs: &refs, source_json, seed };

    let (log, wall, _) = phase(&inputs, &bases, dir, "untraced", seconds, false)?;
    let rps = log.sources as f64 / wall;
    let mut values = Values::new();
    let (mut attempted, mut failed) = (log.attempted, log.failed + pinned_mismatch);
    match trace_out {
        None => {
            values.insert("reclaims_per_s", rps);
            let latencies = per_source_ms(&log.reclaim_ms);
            values.insert("reclaim_p50_ms", median(&latencies));
            values.insert("reclaim_p90_ms", percentile(&latencies, 0.90));
            values.insert("eis_mean", suite::quality(&refs).0);
            values.insert("setup_s", setup_s);
            values.insert("setup_peak_rss_mb", setup_peak_rss_mb);
            eprintln!(
                "perfbench: serve-mix: {} requests, {} single reclaims, {} ingests, {:.1} s",
                log.attempted,
                log.reclaim_ms.len(),
                log.ingest_ms.len(),
                wall
            );
        }
        Some(path) => {
            let (traced, traced_wall, tracers) =
                phase(&inputs, &bases, dir, "traced", seconds, true)?;
            attempted += traced.attempted;
            failed += traced.failed;
            let traced_rps = traced.sources as f64 / traced_wall;
            values.insert("serve.overhead_p50_ms", median(&traced.overhead_ms));
            values.insert("serve.overhead_p95_ms", percentile(&traced.overhead_ms, 0.95));
            values.insert("serve.pipeline_ms", median(&traced.pipeline_ms));
            values.insert("serve.response_bytes", median(&traced.response_bytes));
            values.insert("serve.ingest_ms", median(&traced.ingest_ms));
            values.insert("serve.http_429", (log.http_429 + traced.http_429) as f64);
            values.insert("trace.reclaims_per_s", traced_rps);
            values.insert("trace.untraced_reclaims_per_s", rps);
            values.insert("trace.overhead_ratio", rps / traced_rps);
            suite::store_values(&setup, &mut values);
            suite::quality_values(&refs, &mut values);
            crate::report::zero_fill(&mut values, crate::inproc::LAYERS);
            for (c, t) in tracers.iter().enumerate() {
                let p = path.with_extension(format!("client{c}.jsonl"));
                t.write_jsonl(&p).map_err(|e| format!("write {}: {e}", p.display()))?;
            }
        }
    }
    Ok(Outcome { attempted, failed, values })
}
