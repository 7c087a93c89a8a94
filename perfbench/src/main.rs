//! The repository benchmark. See README.md for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! pcs-perfbench --workload <serve-zipf|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with a context line and then the result line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones. With
//! `--trace 1` the run measures twice, untraced and then traced, and
//! the metrics are the per-layer ones plus the tracing overhead. Spans
//! and results are also written under `.bench_out/`.

mod client;
mod json;
mod lazy;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use report::{result_line, Context, Metrics};
use stats::Sample;
use trace::Span;

/// The degree bound of every query.
pub const K: u32 = 6;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics the tracing overhead is reported for, with
/// their units.
const OVERHEAD_OF: [(&str, &str); 4] =
    [("qps", "1/s"), ("read_p50_ms", "ms"), ("read_p90_ms", "ms"), ("peak_rss_mb", "MB")];

/// The layers spans are named after (`bench` is the benchmark's own
/// code between layer calls).
const LAYERS: [&str; 8] = ["bench", "serve", "engine", "store", "graph", "index", "ptree", "core"];

/// The per-layer metrics and their units, in the order they are
/// printed. A workload that has nothing to measure for one reports 0
/// and names it in the context's `not_applicable`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_p90_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.dedup_saved", "count"),
    ("serve.cache_answered", "count"),
    ("serve.apply_coalesced_ratio", "ratio"),
    ("serve.shed_retries", "count"),
    ("serve.http_5xx", "count"),
    ("serve.internal_errors", "count"),
    ("engine.read_ms_p50", "ms"),
    ("engine.read_ms_p90", "ms"),
    ("engine.apply_ms_p50", "ms"),
    ("engine.apply_ms_p90", "ms"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.epochs_published", "count"),
    ("store.file_bytes", "B"),
    ("store.ttfq_bytes", "B"),
    ("store.round_bytes_ratio", "ratio"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("graph.decode_ms", "ms"),
    ("graph.gk_ms_p50", "ms"),
    ("graph.gk_fraction", "ratio"),
    ("index.materialize_ms_p50", "ms"),
    ("index.resident_shards_first", "count"),
    ("index.resident_shards_round", "count"),
    ("ptree.query_tree_size_mean", "count"),
    ("ptree.query_tree_size_max", "count"),
    ("ptree.query_space_ms_p50", "ms"),
    ("core.query_ms_p50", "ms"),
    ("core.verifications", "count"),
    ("core.subtrees_generated", "count"),
    ("core.seed_scanned", "count"),
    ("core.peel_candidates", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.feasible_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Every metric a traced run prints, with its unit: [`PER_LAYER`], the
/// tracing overhead (`overhead.<end-to-end metric>`, traced minus
/// untraced) and the self time of each layer's spans (`self_ms.<layer>`).
pub fn traced_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(OVERHEAD_OF.iter().map(|&(n, u)| (format!("overhead.{n}"), u)));
    out.extend(LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")));
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeZipf,
    ServeChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-zipf" => Some(Workload::ServeZipf),
            "serve-churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve-zipf",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// What one measured pass produced.
#[derive(Default)]
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differed from the reference.
    pub mismatches: u64,
    /// The bounded end-to-end metrics.
    pub e2e: Metrics,
    /// Workload-specific end-to-end figures, reported in the context.
    pub extra: Metrics,
    pub layer: Metrics,
    /// Sample counts behind the percentiles.
    pub samples: Vec<(String, usize)>,
    /// Percentiles not reported for want of samples.
    pub refused: Vec<String>,
    pub context: Context,
}

impl PassResult {
    fn refuse(&mut self, name: &str, sample: &Sample) {
        self.refused.push(format!("{name} ({} samples)", sample.len()));
    }

    /// An end-to-end percentile; a refusal fails the run.
    pub fn tail(&mut self, name: &str, sample: &Sample, q: f64) {
        match sample.percentile(q) {
            Some(v) => self.e2e.set(name, v, "ms"),
            None => self.refuse(name, sample),
        }
    }

    pub fn extra_tail(&mut self, name: &str, sample: &Sample, q: f64) {
        match sample.percentile(q) {
            Some(v) => self.extra.set(name, v, "ms"),
            None => self.refuse(name, sample),
        }
    }

    /// A per-layer percentile; a refusal reports 0.
    pub fn layer_tail(&mut self, name: &str, sample: &Sample, q: f64) {
        match sample.percentile(q) {
            Some(v) => self.layer.set(name, v, "ms"),
            None => {
                self.refuse(name, sample);
                self.layer.set(name, 0.0, "ms");
            }
        }
    }
}

/// Resets the process's peak resident set (Linux `clear_refs`), so a
/// pass's peak excludes set-up. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since start or the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    context: Context,
    spans: Vec<Span>,
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let seconds = args.seconds as f64;
    let mut spans = Vec::new();
    let (served, setup_times) = serve::set_up(args, work)?;
    let measured = passes(args.trace, &mut spans, |traced, spans| {
        serve::pass(args, &served, seconds, traced, spans)
    });
    serve::tear_down(served);
    let (untraced, traced) = measured?;

    let setup = Sample::new(setup_times.clone());
    let mut e2e = untraced.e2e.clone();
    e2e.set("setup_s", setup.median().ok_or("no set-up time")?, "s");
    let missing: Vec<&str> =
        END_TO_END.iter().map(|m| m.0).filter(|m| e2e.get(m).is_none()).collect();
    if !missing.is_empty() {
        return Err(format!(
            "end-to-end metrics {missing:?} not measured; refused: {:?}",
            untraced.refused
        ));
    }
    let mut e2e_ordered = Metrics::default();
    for (name, unit) in END_TO_END {
        e2e_ordered.set(name, e2e.get(name).ok_or(name)?, unit);
    }

    let mut ctx = Context::default();
    ctx.text("workload", args.workload.name());
    ctx.num("seed", args.seed as f64);
    ctx.num("seconds", seconds);
    ctx.num("trace", f64::from(u8::from(args.trace)));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    ctx.num("nproc", nproc as f64);
    ctx.num("k", f64::from(K));
    ctx.raw("setup_s_reps", format!("{setup_times:?}"));
    ctx.raw("pass", untraced.context.to_json());
    ctx.raw("end_to_end", e2e_ordered.to_json());
    ctx.raw("workload_end_to_end", untraced.extra.to_json());
    ctx.raw("samples", samples_json(&untraced.samples));
    ctx.raw("refused", format!("{:?}", untraced.refused));
    ctx.num("mismatches", untraced.mismatches as f64);

    let mut correct = untraced.mismatches == 0 && untraced.attempted > 0;
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let metrics = match &traced {
        None => e2e_ordered,
        Some(t) => {
            correct &= t.mismatches == 0;
            attempted += t.attempted;
            failed += t.failed;
            let mut layer = Metrics::default();
            let mut not_applicable: Vec<String> = Vec::new();
            for (name, unit) in PER_LAYER {
                match t.layer.get(name) {
                    Some(v) => layer.set(name, v, unit),
                    None if name == "trace.spans" => layer.set(name, spans.len() as f64, unit),
                    None => {
                        not_applicable.push(name.to_string());
                        layer.set(name, 0.0, unit);
                    }
                }
            }
            for (name, unit) in OVERHEAD_OF {
                let overhead = format!("overhead.{name}");
                match (untraced.e2e.get(name), t.e2e.get(name)) {
                    (Some(a), Some(b)) => layer.set(&overhead, b - a, unit),
                    _ => {
                        layer.set(&overhead, 0.0, unit);
                        not_applicable.push(overhead);
                    }
                }
            }
            let by_layer = trace::self_ms_by_layer(&spans);
            for l in LAYERS {
                layer.set(&format!("self_ms.{l}"), by_layer.get(l).copied().unwrap_or(0.0), "ms");
            }
            ctx.raw("traced_pass", t.context.to_json());
            ctx.raw("traced_end_to_end", t.e2e.to_json());
            ctx.raw("traced_samples", samples_json(&t.samples));
            ctx.raw("traced_refused", format!("{:?}", t.refused));
            ctx.raw("not_applicable", format!("{not_applicable:?}"));
            ctx.num("traced_mismatches", t.mismatches as f64);
            layer
        }
    };
    Ok(Report { correct, attempted, failed, metrics, context: ctx, spans })
}

/// The untraced pass and, when tracing, the traced pass after it.
fn passes(
    trace: bool,
    spans: &mut Vec<Span>,
    mut pass: impl FnMut(bool, &mut Vec<Span>) -> Result<PassResult, String>,
) -> Result<(PassResult, Option<PassResult>), String> {
    let untraced = pass(false, spans)?;
    let traced = if trace { Some(pass(true, spans)?) } else { None };
    Ok((untraced, traced))
}

fn samples_json(samples: &[(String, usize)]) -> String {
    let fields: Vec<String> =
        samples.iter().map(|(k, n)| format!("{}: {n}", json::quote(k))).collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("pcs-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pcs-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    if args.trace {
        let path = out_dir.join(format!("spans-{stem}.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &report.spans) {
            eprintln!("pcs-perfbench: cannot write {}: {e}", path.display());
        }
    }
    let context = format!("{{\"context\": {}}}", report.context.to_json());
    let line = result_line(report.correct, report.attempted, report.failed, &report.metrics);
    let _ =
        std::fs::write(out_dir.join(format!("result-{stem}.json")), format!("{context}\n{line}\n"));
    println!("{context}");
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(json::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry without {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            traced_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(json::Value::Str(s)) => s.clone(),
                other => panic!("workload without name: {other:?}"),
            })
            .collect();
        assert_eq!(workloads, ["serve-zipf", "serve-churn"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }
}
