//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-churn|small-batch --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! workload twice, untraced and traced, for half of `--seconds` each,
//! then the layer probes, and prints the per-layer ledger (see
//! `perfbench/README.md`). The last stdout line is the JSON result.

mod bulk;
mod gen;
mod oracle;
mod probes;
mod serve;
mod spans;
mod stats;
mod timed;

use spans::SpanLog;
use stats::{result_json, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use timed::CORE_SPANS;

/// What one pass of a workload measured.
pub struct Outcome {
    pub metrics: Metrics,
    /// Updates and queries sent.
    pub attempted: u64,
    /// Updates the structure did not apply.
    pub failed: u64,
    /// The timed steps.
    pub window: (Instant, Instant),
}

/// The workloads and their batch size Δ.
const WORKLOADS: [(&str, usize); 2] = [
    ("bulk-churn", bulk::DELTA),
    ("small-batch", bulk::SMALL_DELTA),
];

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("insert_eps", "edges/s"),
    ("delete_eps", "edges/s"),
    ("query_qps", "queries/s"),
    ("peak_rss_mb", "MB"),
    ("served_frac", "fraction"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 61] = [
    ("loadgen.late_ms_tail", "ms"),
    ("loadgen.offered_rps", "requests/s"),
    ("executor.region_us", "us"),
    ("executor.scaling_2v1", "ratio"),
    ("ett.link_ns_per_edge", "ns"),
    ("ett.cut_ns_per_edge", "ns"),
    ("ett.connected_ns_per_query", "ns"),
    ("core.delete_ms_p50", "ms"),
    ("core.delete_ms_tail", "ms"),
    ("core.tree_delete_share", "fraction"),
    ("core.levels_per_tree_delete", "levels"),
    ("core.examined_per_tree_delete", "edges"),
    ("core.replacement_yield", "fraction"),
    ("core.pushes_per_update", "pushes"),
    ("server.submit_us_p50", "us"),
    ("server.ops_per_round", "ops"),
    ("server.queue_depth_max", "requests"),
    ("server.coalesce_wait_ms_p50", "ms"),
    ("server.apply_ms_p50", "ms"),
    ("server.apply_ms_tail", "ms"),
    ("server.publish_ms_p50", "ms"),
    ("server.fill_us_p50", "us"),
    ("server.round_wall_ms_p50", "ms"),
    ("server.round_unaccounted_share", "fraction"),
    ("server.write_p50_ms", "ms"),
    ("server.write_tail_ms", "ms"),
    ("server.max_rate_rps", "requests/s"),
    ("views.read_view_us_p50", "us"),
    ("views.lookup_ns", "ns"),
    ("views.read_p50_ms", "ms"),
    ("views.read_tail_ms", "ms"),
    ("durable.wal_append_us_p50", "us"),
    ("durable.wal_fsync_us_p50", "us"),
    ("durable.wal_bytes_per_op", "bytes"),
    ("durable.replay_ops_per_s", "ops/s"),
    ("durable.recovery_s", "s"),
    ("shard.subrounds_per_round", "rounds"),
    ("shard.rebuilds_per_round", "rebuilds"),
    ("shard.boundary_ops_per_round", "ops"),
    ("shard.decompose_ms", "ms"),
    ("shard.subround_ms", "ms"),
    ("shard.cross_round_ms", "ms"),
    ("shard.rebuild_ms", "ms"),
    ("shard.cross_query_ms", "ms"),
    ("shard.round_unaccounted_share", "fraction"),
    ("shard.round_wall_ms_p50", "ms"),
    ("shard.write_p50_ms", "ms"),
    ("shard.write_tail_ms", "ms"),
    ("shard.read_p50_ms", "ms"),
    ("shard.read_tail_ms", "ms"),
    ("shard.max_rate_rps", "requests/s"),
    ("selftime.server_ms", "ms"),
    ("selftime.views_ms", "ms"),
    ("selftime.durable_ms", "ms"),
    ("selftime.core_ms", "ms"),
    ("selftime.shard_ms", "ms"),
    ("overhead.setup_s", "fraction"),
    ("overhead.insert_eps", "fraction"),
    ("overhead.delete_eps", "fraction"),
    ("overhead.query_qps", "fraction"),
    ("overhead.peak_rss_mb", "fraction"),
];

struct Args {
    workload: String,
    delta: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (_, delta) = WORKLOADS
        .into_iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    Ok(Args {
        workload,
        delta,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One pass of the workload with `seconds` of timed calls; `log` is
/// `Some` for the traced pass.
fn pass(args: &Args, seconds: f64, log: Option<&'static SpanLog>) -> Result<Outcome, String> {
    let mut outcome = bulk::run(args.seed, seconds, log, args.delta)
        .map_err(|e| format!("{}: {e}", args.workload))?;
    let served_frac = 1.0 - outcome.failed as f64 / outcome.attempted as f64;
    outcome.metrics.put("served_frac", served_frac, "fraction");
    Ok(outcome)
}

fn run(args: &Args) -> Result<String, String> {
    if !args.trace {
        let untraced = pass(args, args.seconds, None)?;
        print_notes(&untraced.metrics);
        let list = pick(&untraced.metrics, END_TO_END)?;
        return Ok(result_json(
            true,
            untraced.attempted,
            untraced.failed,
            &list,
        ));
    }

    // The traced run splits its timed calls between an untraced and a
    // traced pass, so it measures as long as an end-to-end run.
    let untraced = pass(args, args.seconds / 2.0, None)?;
    let log: &'static SpanLog = &CORE_SPANS;
    let traced = pass(args, args.seconds / 2.0, Some(log))?;
    let mut layer = Metrics::default();
    print_notes(&traced.metrics);
    for m in &traced.metrics.list {
        layer.put(m.name.clone(), m.value, m.unit);
    }
    // Tracing overhead: traced minus untraced, as a share of untraced.
    for (name, _) in END_TO_END.into_iter().filter(|&(n, _)| n != "served_frac") {
        let (a, b) = (untraced.metrics.get(name), traced.metrics.get(name));
        if let (Some(a), Some(b)) = (a, b) {
            let share = if a == 0.0 { 0.0 } else { (b - a) / a };
            layer.put(format!("overhead.{name}"), share, "fraction");
            println!(
                "trace overhead {name}: untraced {a:.4}, traced {b:.4} ({:+.1}%)",
                share * 100.0
            );
        }
    }
    probes::run(args.seed, args.delta, log, &mut layer);
    let mut windows = serve::probe(args.seed, log, &mut layer)?;
    for note in &layer.notes {
        println!("{note}");
    }
    windows.push(traced.window);
    let windows: Vec<(u64, u64)> = windows.iter().map(|w| (log.ns(w.0), log.ns(w.1))).collect();
    // Spans that only wait (a request end to end, a ticket wait, a churn
    // step around its calls) have no self time of a layer.
    for (name, ns) in log
        .self_ns_by_layer(&windows)
        .into_iter()
        .filter(|(l, _)| *l != "wait")
    {
        println!("self time {name}: {:.3} ms", ns as f64 / 1e6);
        layer.put(format!("selftime.{name}_ms"), ns as f64 / 1e6, "ms");
    }
    let path = trace_path(args);
    log.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    let list = pick(&layer, PER_LAYER)?;
    Ok(result_json(true, traced.attempted, traced.failed, &list))
}

/// The named metrics of `m`, in order; every one must have been
/// measured, in its unit.
fn pick<const K: usize>(
    m: &Metrics,
    names: [(&str, &str); K],
) -> Result<Vec<stats::Metric>, String> {
    names
        .iter()
        .map(
            |&(name, unit)| match m.list.iter().find(|x| x.name == name) {
                Some(x) if x.unit == unit => Ok(x.clone()),
                Some(x) => Err(format!("metric {name} is in {}, not {unit}", x.unit)),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

fn print_notes(m: &Metrics) {
    for note in &m.notes {
        println!("{note}");
    }
    for metric in &m.list {
        println!("{} = {:.6} {}", metric.name, metric.value, metric.unit);
    }
}

fn trace_path(args: &Args) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
