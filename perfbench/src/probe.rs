//! One query broken into timed calls on each layer below the engine,
//! for traced runs: the query lattice (`pcs-ptree`), the connected
//! k-ĉore `Gk` (`pcs-graph`), the shards of `T(q)`'s labels
//! (`pcs-index`), and finally the engine query itself, whose reported
//! `elapsed` is the algorithm time (`pcs-core`) with those shards
//! already resident.

use std::time::Instant;

use pcs_engine::{PcsEngine, QueryRequest, QueryResponse};
use pcs_ptree::{PTree, QuerySpace};

use crate::stats::Sample;
use crate::trace::Tracer;

/// Per-layer observations summed or collected over probed queries.
#[derive(Default)]
pub struct LayerTotals {
    pub query_space_ms: Vec<f64>,
    pub tree_sizes: Vec<f64>,
    pub gk_ms: Vec<f64>,
    pub gk_fraction: Vec<f64>,
    pub materialize_ms: Vec<f64>,
    pub core_ms: Vec<f64>,
    pub verifications: u64,
    pub subtrees_generated: u64,
    pub seed_scanned: u64,
    pub peel_candidates: u64,
    pub memo_hits: u64,
    pub feasible: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `request` (which must collect stats) on `engine` with every
/// layer call in its own span under `parent`. `tq` is `T(q)`, taken
/// from data the caller already holds so that no profile is faulted
/// in just to learn it.
pub fn traced_query(
    tracer: &mut Tracer,
    parent: u64,
    request_id: u64,
    engine: &PcsEngine,
    tq: &PTree,
    request: &QueryRequest,
    totals: &mut LayerTotals,
) -> Result<QueryResponse, String> {
    let q = request.vertex_id();
    let k = request.degree_bound();
    let snap = engine.snapshot();

    let t = Instant::now();
    let space = tracer.span("ptree.query_space", Some(parent), request_id, || {
        QuerySpace::new(engine.taxonomy(), tq)
    });
    totals.query_space_ms.push(ms_since(t));
    let space = space.map_err(|e| format!("query space of {q}: {e}"))?;
    totals.tree_sizes.push(space.len() as f64);

    let graph = snap.try_graph().map_err(|e| format!("graph of the snapshot: {e}"))?;
    let t = Instant::now();
    let gk = tracer.span("graph.kcore_component", Some(parent), request_id, || {
        snap.cores().kcore_component(graph, q, k)
    });
    totals.gk_ms.push(ms_since(t));
    let n = graph.num_vertices().max(1) as f64;
    totals.gk_fraction.push(gk.map_or(0.0, |c| c.len() as f64 / n));

    let t = Instant::now();
    tracer.span("index.shard", Some(parent), request_id, || {
        if let Some(index) = snap.index() {
            for &label in tq.nodes() {
                std::hint::black_box(index.shard(label));
            }
        }
    });
    totals.materialize_ms.push(ms_since(t));

    let span = tracer.open("engine.query", Some(parent), request_id);
    let resp = engine.query(request).map_err(|e| format!("query {q}: {e}"));
    tracer.close(span);
    let resp = resp?;
    let elapsed_us = resp.elapsed.as_secs_f64() * 1e6;
    tracer.record_tail("core.algorithm", span, request_id, elapsed_us);
    totals.core_ms.push(elapsed_us / 1e3);
    if let Some(s) = resp.stats {
        totals.verifications += s.verifications;
        totals.subtrees_generated += s.subtrees_generated;
        totals.seed_scanned += s.seed_scanned;
        totals.peel_candidates += s.peel_candidates;
        totals.memo_hits += s.memo_hits;
        totals.feasible += s.feasible;
    }
    Ok(resp)
}

impl LayerTotals {
    /// The `graph.*`, `index.*` (but shard counts), `ptree.*` and
    /// `core.*` per-layer metrics.
    pub fn metrics(&self, out: &mut crate::report::Metrics, refused: &mut Vec<String>) {
        let p50 = |name: &str, xs: &[f64], refused: &mut Vec<String>| {
            Sample::new(xs.to_vec()).percentile(0.5).unwrap_or_else(|| {
                refused.push(format!("{name} ({} samples)", xs.len()));
                0.0
            })
        };
        out.set("graph.gk_ms_p50", p50("graph.gk_ms_p50", &self.gk_ms, refused), "ms");
        let frac = Sample::new(self.gk_fraction.clone());
        out.set("graph.gk_fraction", frac.mean().unwrap_or(0.0), "ratio");
        out.set(
            "index.materialize_ms_p50",
            p50("index.materialize_ms_p50", &self.materialize_ms, refused),
            "ms",
        );
        let sizes = Sample::new(self.tree_sizes.clone());
        out.set("ptree.query_tree_size_mean", sizes.mean().unwrap_or(0.0), "count");
        out.set("ptree.query_tree_size_max", sizes.max().unwrap_or(0.0), "count");
        out.set(
            "ptree.query_space_ms_p50",
            p50("ptree.query_space_ms_p50", &self.query_space_ms, refused),
            "ms",
        );
        out.set("core.query_ms_p50", p50("core.query_ms_p50", &self.core_ms, refused), "ms");
        out.set("core.verifications", self.verifications as f64, "count");
        out.set("core.subtrees_generated", self.subtrees_generated as f64, "count");
        out.set("core.seed_scanned", self.seed_scanned as f64, "count");
        out.set("core.peel_candidates", self.peel_candidates as f64, "count");
        // A memo hit answers an attempt without a verification; of the
        // verifications, the feasible ones found a community.
        let attempts = (self.verifications + self.memo_hits).max(1) as f64;
        out.set("core.memo_hit_ratio", self.memo_hits as f64 / attempts, "ratio");
        let verified = self.verifications.max(1) as f64;
        out.set("core.feasible_ratio", self.feasible as f64 / verified, "ratio");
    }
}
