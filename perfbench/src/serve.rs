//! `serve-zipf` and `serve-churn`: an in-process `PcsServer` over a
//! durable, eagerly indexed engine with the wholesale result cache,
//! driven by two closed-loop keep-alive clients replaying
//! `serve_traffic`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcs_datasets::suite::{build, SuiteConfig, SuiteDataset, DEFAULT_SEED};
use pcs_datasets::{
    sample_query_vertices, update_stream, ProfiledDataset, ServeOp, StreamOp, UpdateStreamSpec,
};
use pcs_engine::{Algorithm, CacheMode, IndexMode, PcsEngine, QueryRequest};
use pcs_serve::{PcsServer, ServeConfig, StatsSnapshot};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::client::{Client, Outcome};
use crate::json::{self, Value};
use crate::lazy;
use crate::probe::{traced_query, LayerTotals};
use crate::stats::Sample;
use crate::trace::{Span, Tracer};
use crate::{peak_rss_mb, reset_peak_rss, Args, PassResult, Workload, K, SETUP_REPS};

pub const SCALE: f64 = 0.01;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const ZIPF_S: f64 = 1.1;
const HOT_POOL: usize = 256;
/// The hot pool and the write stream are drawn once with this seed, so
/// that every `--seed` serves the same vertices and applies the same
/// writes; `--seed` orders them.
const DATA_SEED: u64 = 0x5e41e;
/// Ops per block; each block holds exactly its share of writes.
const BLOCK: usize = 20;
/// Reads per deck; each deck holds every rank in its exact zipf share.
const READ_DECK: usize = 1000;
/// Ops generated per second of run; clients stop early if they run out.
const OPS_PER_SECOND: usize = 300;
/// Vertices whose answers are checked against `basic` after each pass.
const CHECKED: usize = 8;
/// Vertices probed layer by layer after a traced pass.
const PROBED: usize = 24;
/// Of those, the vertices each load of the lazy-load probe answers.
const LAZY_LIST: usize = 16;

/// One request on the wire.
struct WireOp {
    method: &'static str,
    target: String,
    body: Vec<u8>,
}

impl WireOp {
    fn from_op(op: &ServeOp) -> WireOp {
        match op {
            ServeOp::Query { vertex, k } => WireOp {
                method: "GET",
                target: format!("/query?v={vertex}&k={k}"),
                body: Vec::new(),
            },
            ServeOp::Update(u) => {
                let line = match u {
                    StreamOp::AddEdge(a, b) => format!("add {a} {b}\n"),
                    StreamOp::RemoveEdge(a, b) => format!("remove {a} {b}\n"),
                    StreamOp::SetProfile(v, p) => {
                        let mut line = format!("profile {v}");
                        for l in p.nodes() {
                            let _ = write!(line, " {l}");
                        }
                        line.push('\n');
                        line
                    }
                };
                WireOp { method: "POST", target: "/apply".into(), body: line.into_bytes() }
            }
        }
    }

    fn is_write(&self) -> bool {
        self.method == "POST"
    }
}

/// The state one pass runs against.
pub struct Served {
    dir: PathBuf,
    engine: Arc<PcsEngine>,
    server: PcsServer,
    ops: Vec<WireOp>,
    /// Next op to send; passes continue the same stream.
    cursor: AtomicUsize,
    /// The hottest read vertices of the stream, hottest first.
    hottest: Vec<u32>,
    n: usize,
    m: usize,
}

fn write_fraction(w: Workload) -> f64 {
    match w {
        Workload::ServeChurn => 0.30,
        _ => 0.05,
    }
}

/// `READ_DECK` pool ranks, rank `r` appearing in proportion to
/// `1/(r+1)^ZIPF_S` (largest remainders round).
fn zipf_deck(ranks: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..ranks).map(|r| ((r + 1) as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| w / total * READ_DECK as f64).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = READ_DECK - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts.iter().enumerate().flat_map(|(r, &c)| std::iter::repeat_n(r, c)).collect()
}

/// The op stream. It has `pcs_datasets::serve_traffic`'s shape (zipf
/// ranks over a hot pool of `K`-core vertices in id order, writes
/// replayed in order from `update_stream`), stratified so that runs
/// with different seeds do the same work: the pool and the writes come
/// from [`DATA_SEED`], every block of [`BLOCK`] ops holds the same
/// number of writes, and every [`READ_DECK`] reads hold each rank in
/// its zipf share. `seed` shuffles the blocks and the decks.
/// (`serve_traffic` draws pool and sequence from one seed; two seeds'
/// pools gave 15.8 and 26.3 qps.)
fn traffic(ds: &ProfiledDataset, requests: usize, write_fraction: f64, seed: u64) -> Vec<ServeOp> {
    let (pool, _) = sample_query_vertices(ds, K, HOT_POOL, DATA_SEED);
    let deck = zipf_deck(pool.len());
    let writes_per_block = (BLOCK as f64 * write_fraction).round() as usize;
    let spec = UpdateStreamSpec::new(requests * writes_per_block / BLOCK + 1, DATA_SEED ^ 0x3b);
    let mut writes = update_stream(ds, &spec).into_iter().map(|t| t.op);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reads: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(requests + BLOCK);
    while out.len() < requests {
        let mut block: Vec<bool> = (0..BLOCK).map(|i| i < writes_per_block).collect();
        block.shuffle(&mut rng);
        for is_write in block {
            if let Some(op) = is_write.then(|| writes.next()).flatten() {
                out.push(ServeOp::Update(op));
                continue;
            }
            if reads.is_empty() {
                reads = deck.clone();
                reads.shuffle(&mut rng);
            }
            let rank = reads.pop().unwrap_or(0);
            out.push(ServeOp::Query { vertex: pool[rank], k: K });
        }
    }
    out.truncate(requests);
    out
}

/// The generated inputs a pass replays.
struct Inputs {
    ops: Vec<WireOp>,
    hottest: Vec<u32>,
}

fn inputs(args: &Args, ds: &ProfiledDataset) -> Inputs {
    let requests = args.seconds as usize * OPS_PER_SECOND;
    let ops = traffic(ds, requests, write_fraction(args.workload), args.seed);
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for op in &ops {
        if let ServeOp::Query { vertex, .. } = op {
            *counts.entry(*vertex).or_insert(0) += 1;
        }
    }
    let mut hottest: Vec<(usize, u32)> = counts.into_iter().map(|(v, c)| (c, v)).collect();
    hottest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    Inputs {
        ops: ops.iter().map(WireOp::from_op).collect(),
        hottest: hottest.into_iter().map(|(_, v)| v).take(PROBED).collect(),
    }
}

/// Generate, durable build and server start. The last set-up also
/// makes the inputs, which is not set-up work and is not timed.
fn set_up_once(args: &Args, dir: &Path, make_inputs: bool) -> Result<(Served, Duration), String> {
    let started = Instant::now();
    let ds = build(SuiteDataset::Dblp, SuiteConfig { scale: SCALE, seed: DEFAULT_SEED });
    let t = Instant::now();
    let inputs = if make_inputs {
        inputs(args, &ds)
    } else {
        Inputs { ops: Vec::new(), hottest: Vec::new() }
    };
    let excluded = t.elapsed();

    let (n, m) = (ds.graph.num_vertices(), ds.graph.num_edges());
    let engine = PcsEngine::builder()
        .graph(ds.graph)
        .taxonomy(ds.tax)
        .profiles(ds.profiles)
        .index_mode(IndexMode::Eager)
        .result_cache(CacheMode::Wholesale)
        .durable(dir)
        .build()
        .map_err(|e| format!("durable engine build: {e}"))?;
    let engine = Arc::new(engine);
    let cfg = ServeConfig { workers: WORKERS, max_connections: 16, ..ServeConfig::default() };
    let server = PcsServer::start(Arc::clone(&engine), "127.0.0.1:0", cfg)
        .map_err(|e| format!("server start: {e}"))?;
    let took = started.elapsed().saturating_sub(excluded);
    let served = Served {
        dir: dir.to_path_buf(),
        engine,
        server,
        ops: inputs.ops,
        cursor: AtomicUsize::new(0),
        hottest: inputs.hottest,
        n,
        m,
    };
    Ok((served, took))
}

/// Sets up [`SETUP_REPS`] times and keeps the last; returns it with
/// the set-up times.
pub fn set_up(args: &Args, work: &Path) -> Result<(Served, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("durable-{rep}"));
        let (served, took) = set_up_once(args, &dir, rep + 1 == SETUP_REPS)?;
        times.push(took.as_secs_f64());
        if let Some(old) = kept.replace(served) {
            tear_down(old);
        }
    }
    Ok((kept.ok_or("no set-up ran")?, times))
}

pub fn tear_down(s: Served) {
    s.server.shutdown();
    drop(s.engine);
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// What one client saw of one op.
struct Record {
    op: usize,
    write: bool,
    outcome: Outcome,
    /// `elapsed_us` and `epoch` of a 2xx body.
    elapsed_us: Option<f64>,
    epoch: Option<u64>,
    span: Option<u64>,
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let digits: String = body[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn client_loop(
    addr: SocketAddr,
    served: &Served,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Record> {
    let mut client = Client::new(addr);
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let i = served.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(op) = served.ops.get(i) else { break };
        let mut outcome = client.execute(op.method, &op.target, &op.body);
        let span = tracer
            .as_deref_mut()
            .map(|t| t.record("serve.request", None, i as u64, outcome.started, outcome.finished));
        let body = outcome.reply.as_ref().filter(|_| outcome.ok()).map(|r| r.body.as_str());
        let elapsed_us = body.and_then(|b| field_u64(b, "elapsed_us")).map(|u| u as f64);
        let epoch = body.and_then(|b| field_u64(b, "epoch"));
        // Bodies are not kept, so that the benchmark's own memory stays
        // out of `peak_rss_mb`.
        if let Some(reply) = outcome.reply.as_mut() {
            reply.body = String::new();
        }
        out.push(Record { op: i, write: op.is_write(), elapsed_us, epoch, outcome, span });
    }
    out
}

fn wal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir.join(pcs_engine::WAL_DIR)) else { return 0 };
    entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
}

/// Runs clients for `seconds`, then checks answers; with a tracer, also
/// probes the layers below the engine.
pub fn pass(
    args: &Args,
    served: &Served,
    seconds: f64,
    traced: bool,
    spans: &mut Vec<Span>,
) -> Result<PassResult, String> {
    let addr = served.server.local_addr();
    let stats_before = served.server.stats();
    let cache_before = served.engine.cache_stats();
    let coalesce_before = served.engine.coalesce_stats();
    let epoch_before = served.engine.epoch();
    let wal_before = wal_bytes(&served.dir);
    let rss_reset = reset_peak_rss();

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut tracers: Vec<Option<Tracer>> =
        (0..CLIENTS).map(|c| traced.then(|| Tracer::new(origin, (c as u64 + 1) << 40))).collect();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|t| scope.spawn(move || client_loop(addr, served, deadline, t.as_mut())))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = records
        .iter()
        .map(|r| r.outcome.finished)
        .max()
        .map_or(0.0, |end| end.duration_since(origin).as_secs_f64());
    let peak = peak_rss_mb();
    records.sort_by_key(|r| r.outcome.finished);

    // A response whose (op target, epoch, elapsed_us) was already seen
    // came from the cache or a deduplicated twin: the engine did no
    // work for it.
    let mut seen = BTreeSet::new();
    let mut engine_read_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let (mut read_ms, mut write_ms, mut apply_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ok, mut shed_retries, mut user_bytes, mut http_5xx) = (0u64, 0u64, 0u64, 0u64);
    // (request span, record index) of responses the engine computed.
    let mut engine_spans: Vec<(u64, usize)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        shed_retries += u64::from(r.outcome.shed_retries);
        if r.outcome.reply.as_ref().is_some_and(|rep| rep.status >= 500) {
            http_5xx += 1;
        }
        if !r.outcome.ok() {
            continue;
        }
        ok += 1;
        let lat = r.outcome.latency_ms();
        let engine_us = r.elapsed_us.unwrap_or(0.0);
        if r.write {
            write_ms.push(lat);
            apply_ms.push(engine_us / 1e3);
            user_bytes += served.ops[r.op].body.len() as u64;
            engine_spans.extend(r.span.map(|s| (s, i)));
            continue;
        }
        read_ms.push(lat);
        let key = (served.ops[r.op].target.clone(), r.epoch, r.elapsed_us.map(f64::to_bits));
        if seen.insert(key) {
            engine_read_ms.push(engine_us / 1e3);
            overhead_ms.push(lat - engine_us / 1e3);
            engine_spans.extend(r.span.map(|s| (s, i)));
        } else {
            overhead_ms.push(lat);
        }
    }

    let mut result = PassResult::default();
    let attempted = records.len() as u64;
    result.attempted = attempted;
    result.failed = attempted - ok;

    let reads = Sample::new(read_ms);
    let writes = Sample::new(write_ms);
    let e2e = &mut result.e2e;
    e2e.set("qps", ok as f64 / wall.max(1e-9), "1/s");
    result.tail("read_p50_ms", &reads, 0.5);
    result.tail("read_p90_ms", &reads, 0.9);
    result.e2e.set("peak_rss_mb", peak, "MB");
    result.extra_tail("write_p50_ms", &writes, 0.5);
    result.extra_tail("write_p90_ms", &writes, 0.9);
    result.extra.set("error_rate", result.failed as f64 / attempted.max(1) as f64, "ratio");
    result.samples.push(("read".into(), reads.len()));
    result.samples.push(("write".into(), writes.len()));

    // Per-layer figures of the served path.
    let stats: StatsSnapshot = served.server.stats();
    let cache = served.engine.cache_stats();
    let coalesce = served.engine.coalesce_stats();
    let layer = &mut result.layer;
    let overhead = Sample::new(overhead_ms);
    let engine_reads = Sample::new(engine_read_ms);
    let applies = Sample::new(apply_ms);
    let batches = stats.batches - stats_before.batches;
    let batched = stats.batched_requests - stats_before.batched_requests;
    layer.set("serve.batch_size_mean", batched as f64 / batches.max(1) as f64, "count");
    layer.set("serve.dedup_saved", (stats.dedup_saved - stats_before.dedup_saved) as f64, "count");
    layer.set(
        "serve.cache_answered",
        (stats.cache_answered - stats_before.cache_answered) as f64,
        "count",
    );
    let submitted = coalesce.submitted - coalesce_before.submitted;
    let coalesced = coalesce.coalesced - coalesce_before.coalesced;
    layer.set("serve.apply_coalesced_ratio", coalesced as f64 / submitted.max(1) as f64, "ratio");
    layer.set("serve.shed_retries", shed_retries as f64, "count");
    layer.set("serve.http_5xx", http_5xx as f64, "count");
    layer.set(
        "serve.internal_errors",
        (stats.internal_errors - stats_before.internal_errors) as f64,
        "count",
    );
    let hits = cache.hits - cache_before.hits;
    let misses = cache.misses - cache_before.misses;
    layer.set("engine.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    layer.set("engine.cache_evictions", (cache.evictions - cache_before.evictions) as f64, "count");
    layer.set("engine.epochs_published", (served.engine.epoch() - epoch_before) as f64, "count");
    let wal_written = wal_bytes(&served.dir).saturating_sub(wal_before);
    layer.set(
        "store.wal_bytes_per_user_byte",
        wal_written as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    let snapshot_bytes =
        std::fs::metadata(served.dir.join(pcs_engine::SNAPSHOT_FILE)).map_or(0, |m| m.len());
    layer.set("store.file_bytes", snapshot_bytes as f64, "B");
    result.layer_tail("serve.overhead_p50_ms", &overhead, 0.5);
    result.layer_tail("serve.overhead_p90_ms", &overhead, 0.9);
    result.layer_tail("engine.read_ms_p50", &engine_reads, 0.5);
    result.layer_tail("engine.read_ms_p90", &engine_reads, 0.9);
    result.layer_tail("engine.apply_ms_p50", &applies, 0.5);
    result.layer_tail("engine.apply_ms_p90", &applies, 0.9);
    result.samples.push(("engine_read".into(), engine_reads.len()));
    result.samples.push(("overhead".into(), overhead.len()));

    result.mismatches = check_answers(addr, served)?;

    if traced {
        // The engine's share of a request, as its response reports it,
        // closes the request's span.
        let mut engine_tracer = Tracer::new(origin, 1 << 50);
        for &(parent, i) in &engine_spans {
            let r = &records[i];
            let us = r.elapsed_us.unwrap_or(0.0);
            let start = r.outcome.finished - Duration::from_secs_f64(us / 1e6);
            let name = if r.write { "engine.apply" } else { "engine.read" };
            engine_tracer.record(name, Some(parent), r.op as u64, start, r.outcome.finished);
        }
        spans.extend(tracers.into_iter().flatten().flat_map(Tracer::into_spans));
        spans.extend(engine_tracer.into_spans());
        let mut probe_tracer = Tracer::new(origin, 1 << 60);
        let mut totals = LayerTotals::default();
        let snap = served.engine.snapshot();
        for (i, &v) in served.hottest.iter().enumerate() {
            let request_id = (1 << 32) + i as u64;
            let root = probe_tracer.open("bench.probe", None, request_id);
            let tq = snap.profiles()[v as usize].clone();
            let req = QueryRequest::vertex(v).k(K).collect_stats(true).bypass_cache(true);
            traced_query(
                &mut probe_tracer,
                root,
                request_id,
                &served.engine,
                &tq,
                &req,
                &mut totals,
            )?;
            probe_tracer.close(root);
        }
        totals.metrics(&mut result.layer, &mut result.refused);
        let list = &served.hottest[..served.hottest.len().min(LAZY_LIST)];
        let path = served.dir.with_extension("lazy.pcs");
        let lazy = lazy::probe(&served.engine, list, &path, &mut probe_tracer, &mut result.layer)?;
        result.mismatches += lazy.mismatches;
        result.context.num("lazy_snapshot_bytes", lazy.file_bytes as f64);
        result.context.num("lazy_rounds", lazy.rounds as f64);
        spans.extend(probe_tracer.into_spans());
    }

    let ctx = &mut result.context;
    ctx.raw("peak_rss_reset", rss_reset.to_string());
    ctx.num("scale", SCALE);
    ctx.num("n", served.n as f64);
    ctx.num("m", served.m as f64);
    ctx.num("snapshot_bytes", snapshot_bytes as f64);
    ctx.num("clients", CLIENTS as f64);
    ctx.num("workers", WORKERS as f64);
    ctx.num("write_fraction", write_fraction(args.workload));
    ctx.num("hot_pool", HOT_POOL as f64);
    ctx.num("zipf_s", ZIPF_S);
    ctx.num("checked_vertices", served.hottest.len().min(CHECKED) as f64);
    ctx.num("wall_s", wall);
    ctx.num("epoch", served.engine.epoch() as f64);
    Ok(result)
}

/// The communities of a response as a comparable set.
type Answer = BTreeSet<(Vec<u32>, Vec<u32>)>;

fn answer_from_json(body: &str) -> Result<(u64, Answer), String> {
    let v = json::parse(body)?;
    let epoch = v.get("epoch").and_then(Value::as_u64).ok_or("response without epoch")?;
    let list = v.get("communities").and_then(Value::as_array).ok_or("no communities")?;
    let ids = |c: &Value, key: &str| -> Result<Vec<u32>, String> {
        c.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("community without {key}"))?
            .iter()
            .map(|x| x.as_u64().map(|u| u as u32).ok_or(format!("bad id in {key}")))
            .collect()
    };
    let mut out = Answer::new();
    for c in list {
        out.insert((ids(c, "vertices")?, ids(c, "subtree")?));
    }
    Ok((epoch, out))
}

/// Fetches the hottest vertices over HTTP, uncached and cached, and
/// compares both with `basic` on the engine at the same epoch. Returns
/// the number of mismatching answers.
fn check_answers(addr: SocketAddr, served: &Served) -> Result<u64, String> {
    let epoch = served.engine.epoch();
    let mut client = Client::new(addr);
    let mut mismatches = 0;
    for &v in served.hottest.iter().take(CHECKED) {
        let req = QueryRequest::vertex(v).k(K).algorithm(Algorithm::Basic).bypass_cache(true);
        let reference = served.engine.query(&req).map_err(|e| format!("basic {v}: {e}"))?;
        let want: Answer = reference
            .communities()
            .iter()
            .map(|c| (c.vertices.clone(), c.subtree.nodes().to_vec()))
            .collect();
        for cache in [0, 1] {
            let out = client.execute("GET", &format!("/query?v={v}&k={K}&cache={cache}"), b"");
            let reply =
                out.reply.filter(|r| r.status == 200).ok_or(format!("check of {v} failed"))?;
            let (got_epoch, got) = answer_from_json(&reply.body)?;
            if got_epoch != epoch || reference.epoch != epoch || got != want {
                eprintln!("answer mismatch: v={v} cache={cache} epoch {got_epoch} vs {epoch}");
                mismatches += 1;
            }
        }
    }
    if served.engine.epoch() != epoch {
        return Err("the engine published during the answer check".into());
    }
    Ok(mismatches)
}
