//! `bulk-churn` and `small-batch`: the library driven directly by one
//! closed-loop caller on a 1-thread pool, at batch size Δ = 8192 (the
//! paper's large-batch regime) and Δ = 512.
//!
//! Preload G(n, m), run untimed warm-up steps so the edge levels settle,
//! then time steps of `batch_delete(Δ)`, `batch_insert(Δ)` and
//! `batch_connected(4Δ)`. Every answer is checked against the oracle
//! outside the timed region, and the invariants at the end.

use crate::gen::EdgeChurn;
use crate::oracle::sorted_edges;
use crate::probes::pool;
use crate::spans::SpanLog;
use crate::stats::{median, peak_rss_mb, reset_peak_rss, tail, Metrics};
use crate::timed::{core_ratios, sub_stats};
use crate::Outcome;
use dyncon_api::ExportEdges;
use dyncon_core::BatchDynamicConnectivity;
use dyncon_spanning::NaiveDynamicGraph;
use std::time::Instant;

pub const N: usize = 1 << 17;
pub const M: usize = 1 << 18;
/// The batch size Δ of every delete and insert.
pub const DELTA: usize = 8192;
/// The batch size of `small-batch`.
pub const SMALL_DELTA: usize = 512;
/// Edges the untimed warm-up deletes (and inserts) before timing: 2
/// steps of `bulk-churn`, 16 of `small-batch`.
const WARMUP_EDGES: usize = 2 * DELTA;
/// Edges the timed steps delete (and insert) even if `--seconds` is
/// spent sooner: 4 steps of `bulk-churn`, 64 of `small-batch`. The core
/// counters are read over exactly these steps, so they repeat for a
/// given seed, and so is the peak memory: the resident set grows with
/// every churn step, and a run on a faster host makes more steps. On
/// `small-batch` the early growth comes in seed-dependent jumps that
/// even out over these 64 steps.
const LEDGER_EDGES: usize = 4 * DELTA;
/// Threads of the workloads' pool. On a host of 2 shared cores the wall
/// time of 2-thread calls follows the host's CPU steal more than the
/// program (see `perfbench/README.md`), so the workloads run on one and
/// the traced run's probes time the 2-thread executor.
const THREADS: usize = 1;
/// Builds of the preloaded structure; `setup_s` is their median.
const SETUPS: usize = 5;

/// One run of `bulk-churn` (`delta` = [`DELTA`]) or `small-batch`
/// (`delta` = [`SMALL_DELTA`]): `seconds` of timed calls.
pub fn run(
    seed: u64,
    seconds: f64,
    log: Option<&SpanLog>,
    delta: usize,
) -> Result<Outcome, String> {
    reset_peak_rss()?;
    let queries = 4 * delta;
    let warmup_steps = (WARMUP_EDGES / delta).min(16);
    let ledger_steps = LEDGER_EDGES / delta;
    let workers = pool(THREADS);
    let mut out = Metrics::default();
    let mut churn = EdgeChurn::new(N, M, seed);
    let mut oracle = NaiveDynamicGraph::new(N);
    oracle.batch_insert(churn.edges());

    // Set-up: build the preloaded structure, several times; keep the last.
    let mut setup = Vec::new();
    let mut g = None;
    for _ in 0..SETUPS {
        drop(g.take());
        let started = Instant::now();
        g = Some(workers.install(|| {
            let mut g = BatchDynamicConnectivity::new(N);
            g.batch_insert(churn.edges());
            g
        }));
        setup.push(started.elapsed().as_secs_f64());
    }
    let mut g = g.expect("at least one set-up");
    out.put("setup_s", median(&setup), "s");

    let (mut attempted, mut failed) = (0u64, 0u64);
    // One step; returns each call's seconds.
    let mut step = |g: &mut BatchDynamicConnectivity,
                    churn: &mut EdgeChurn,
                    oracle: &mut NaiveDynamicGraph,
                    no: u64|
     -> Result<[f64; 3], String> {
        let (deletes, inserts) = churn.step(delta);
        let pairs = churn.pairs(queries);
        let parent = log.map(|l| (l.reserve(), Instant::now()));
        let call = |name, f: &mut dyn FnMut()| {
            let started = Instant::now();
            workers.install(&mut *f);
            if let (Some(l), Some((id, _))) = (log, parent) {
                l.record(name, "core", no, Some(id), started);
            }
            started.elapsed().as_secs_f64()
        };
        let (mut deleted, mut inserted, mut answers) = (0, 0, Vec::new());
        let times = [
            call("batch_delete", &mut || deleted = g.batch_delete(&deletes)),
            call("batch_insert", &mut || inserted = g.batch_insert(&inserts)),
            call("batch_connected", &mut || {
                answers = g.batch_connected(&pairs)
            }),
        ];
        if let (Some(l), Some((id, started))) = (log, parent) {
            l.record_with_id(id, "step", "wait", no, None, started, Instant::now());
        }
        attempted += (2 * delta + queries) as u64;
        failed += (2 * delta - deleted - inserted) as u64;
        oracle.batch_delete(&deletes);
        oracle.batch_insert(&inserts);
        let expect = oracle.batch_connected(&pairs);
        if let Some(i) = (0..queries).find(|&i| answers[i] != expect[i]) {
            return Err(format!(
                "step {no}: batch_connected{:?} = {}, oracle says {}",
                pairs[i], answers[i], expect[i]
            ));
        }
        Ok(times)
    };

    for no in 0..warmup_steps {
        step(&mut g, &mut churn, &mut oracle, no as u64)?;
    }
    let stats_before = g.stats();
    let (mut core_delta, mut peak_rss) = (None, 0.0);
    let (mut del, mut ins, mut qry) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut no = warmup_steps as u64;
    let window_start = Instant::now();
    while del.len() < ledger_steps || measured < seconds {
        let [d, i, q] = step(&mut g, &mut churn, &mut oracle, no)?;
        no += 1;
        measured += d + i + q;
        del.push(d);
        ins.push(i);
        qry.push(q);
        if del.len() == ledger_steps {
            core_delta = Some(sub_stats(&g.stats(), &stats_before));
            peak_rss = peak_rss_mb()?;
        }
    }
    let window = (window_start, Instant::now());
    let rate =
        |xs: &[f64], ops: usize| median(&xs.iter().map(|t| ops as f64 / t).collect::<Vec<_>>());
    out.put("insert_eps", rate(&ins, delta), "edges/s");
    out.put("delete_eps", rate(&del, delta), "edges/s");
    out.put("query_qps", rate(&qry, queries), "queries/s");
    out.note(format!(
        "{} timed steps of Δ={delta} on {THREADS} thread after {warmup_steps} warm-up steps",
        del.len()
    ));

    // Correctness at the end: invariants, and the edge set the oracle has.
    g.check_invariants()
        .map_err(|e| format!("invariant violated: {e}"))?;
    let edges = g.export_edges();
    if edges != sorted_edges(&oracle) {
        return Err("the final edge set differs from the oracle's".into());
    }
    if edges.len() != M {
        return Err(format!("m drifted to {}", edges.len()));
    }

    out.put("peak_rss_mb", peak_rss, "MB");
    if log.is_some() {
        let samples_ms: Vec<f64> = del.iter().map(|d| d * 1e3).collect();
        let t = tail(&samples_ms);
        out.put("core.delete_ms_p50", median(&samples_ms), "ms");
        out.put("core.delete_ms_tail", t.value, "ms");
        out.note(format!(
            "core.delete_ms_tail is p{:.1} of {} samples",
            t.pct, t.samples
        ));
        core_ratios(&core_delta.expect("the ledger steps ran"), &mut out);
    }
    Ok(Outcome {
        metrics: out,
        attempted,
        failed,
        window,
    })
}
