//! The lazy-load probe of a traced serve pass: the served engine is
//! saved, then lazily loaded again a few times, and each load answers
//! the pass's hottest vertices. It measures the layers the eager,
//! in-memory serve path never runs: `pcs-store`'s lazy reads, the lazy
//! graph decode, profile-chunk faults and shard materialisation.
//!
//! It is a probe, not a workload: a `cold-open` workload that timed
//! such rounds end to end spread past its 0.25 time bounds, because it is
//! CPU-bound throughout and the host's speed drifts (see README.md).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

use pcs_engine::{CacheMode, IndexMode, PcsEngine, QueryRequest, QueryResponse};
use pcs_ptree::PTree;

use crate::probe::{traced_query, LayerTotals};
use crate::report::Metrics;
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::K;

/// Lazy loads per probe.
const ROUNDS: usize = 5;

type Answer = BTreeSet<(Vec<u32>, Vec<u32>)>;

fn answer(resp: &QueryResponse) -> Answer {
    resp.communities().iter().map(|c| (c.vertices.clone(), c.subtree.nodes().to_vec())).collect()
}

fn request(v: u32) -> QueryRequest {
    QueryRequest::vertex(v).k(K).collect_stats(true).bypass_cache(true)
}

/// What one lazy load and its answers read and made resident.
struct Round {
    decode_ms: f64,
    ttfq_bytes: u64,
    round_bytes: u64,
    shards_first: usize,
    shards_round: usize,
}

/// What the probe measured.
pub struct LazyProbe {
    pub mismatches: u64,
    pub file_bytes: u64,
    pub rounds: usize,
}

/// Saves `engine` to `path`, loads it lazily [`ROUNDS`] times and
/// queries `list` on each load, round `r` starting at position `r` so
/// that which vertex pays the first faults rotates. Every answer is
/// compared with `engine`'s. Sets the `store.*`, `graph.decode_ms` and
/// `index.resident_shards_*` metrics; the file is removed afterwards.
pub fn probe(
    engine: &PcsEngine,
    list: &[u32],
    path: &Path,
    tracer: &mut Tracer,
    layer: &mut Metrics,
) -> Result<LazyProbe, String> {
    let snap = engine.snapshot();
    let mut tq: BTreeMap<u32, PTree> = BTreeMap::new();
    let mut reference = BTreeMap::new();
    for &v in list {
        tq.insert(v, snap.profiles()[v as usize].clone());
        let resp = engine.query(&request(v)).map_err(|e| format!("reference {v}: {e}"))?;
        reference.insert(v, answer(&resp));
    }
    engine.save(path).map_err(|e| format!("save: {e}"))?;
    let file_bytes = std::fs::metadata(path).map_err(|e| format!("stat snapshot: {e}"))?.len();
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut mismatches = 0;
    // The probe's own layer totals are not reported: the serve probe's
    // give the `core.*` and `ptree.*` metrics.
    let mut totals = LayerTotals::default();
    for r in 0..ROUNDS {
        let round_id = (2 << 32) + r as u64;
        let root = tracer.open("bench.lazy_round", None, round_id);
        let lazy = tracer.span("store.open", Some(root), round_id, || {
            PcsEngine::builder()
                .index_mode(IndexMode::Lazy)
                .result_cache(CacheMode::Off)
                .load(path)
                .map_err(|e| format!("lazy load: {e}"))
        })?;
        let started = Instant::now();
        tracer
            .span("graph.decode", Some(root), round_id, || lazy.snapshot().try_graph().map(|_| ()))
            .map_err(|e| format!("graph decode: {e}"))?;
        let decode_ms = ms(started.elapsed());
        let (mut ttfq_bytes, mut shards_first) = (0, 0);
        for i in 0..list.len() {
            let v = list[(r + i) % list.len()];
            let request_id = (3 << 32) + (r * list.len() + i) as u64;
            let span = tracer.open("bench.query", Some(root), request_id);
            let tq = tq.get(&v).ok_or("listed vertex without T(q)")?;
            let resp = traced_query(tracer, span, request_id, &lazy, tq, &request(v), &mut totals);
            tracer.close(span);
            if reference.get(&v) != Some(&answer(&resp?)) {
                eprintln!("answer mismatch: lazily loaded v={v} differs from the served engine");
                mismatches += 1;
            }
            if i == 0 {
                ttfq_bytes = lazy.snapshot_io().map_or(0, |io| io.bytes_read);
                shards_first = lazy.resident_shards();
            }
        }
        tracer.close(root);
        rounds.push(Round {
            decode_ms,
            ttfq_bytes,
            round_bytes: lazy.snapshot_io().map_or(0, |io| io.bytes_read),
            shards_first,
            shards_round: lazy.resident_shards(),
        });
    }
    let _ = std::fs::remove_file(path);

    let median = |f: &dyn Fn(&Round) -> f64| {
        Sample::new(rounds.iter().map(f).collect()).median().unwrap_or(0.0)
    };
    let file = file_bytes.max(1) as f64;
    layer.set("store.file_bytes", file_bytes as f64, "B");
    layer.set("store.ttfq_bytes", median(&|r| r.ttfq_bytes as f64), "B");
    layer.set("store.round_bytes_ratio", median(&|r| r.round_bytes as f64) / file, "ratio");
    layer.set("graph.decode_ms", median(&|r| r.decode_ms), "ms");
    layer.set("index.resident_shards_first", median(&|r| r.shards_first as f64), "count");
    layer.set("index.resident_shards_round", median(&|r| r.shards_round as f64), "count");
    Ok(LazyProbe { mismatches, file_bytes, rounds: rounds.len() })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
