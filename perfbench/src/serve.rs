//! The serving probe of the traced run: serve-mvcc and serve-sharded
//! traffic against the serving stacks.
//!
//! Requests alternate between writes (through `submit_with`) and reads
//! (`read_view` plus lookups on serve-mvcc, query-only requests on
//! serve-sharded). serve-mvcc is open loop: one generator thread sends
//! each request at its scheduled instant, a second thread waits the
//! tickets in order, and latency runs from the intended arrival to the
//! answer. It runs the fixed offered rate, restarts from its WAL, then
//! searches the `max_rate_rps` ladder. serve-sharded is one closed-loop
//! client. Both were end-to-end workloads once; see
//! `perfbench/README.md` for why they are probes.

use crate::gen::{arrivals, EdgeChurn};
use crate::oracle::{replay, sorted_edges, At, Req, Served};
use crate::spans::SpanLog;
use crate::stats::{median, tail, Metrics};
use crate::timed::Traced;
use dyncon_api::{Connectivity, DynConError, ExportEdges, Op, ReadView, VersionedRead};
use dyncon_durable::{recover, DurableConfig, DurableServer, FsyncPolicy, Snapshot};
use dyncon_metrics::MetricsSnapshot;
use dyncon_server::{RequestResult, ServerConfig, SubmitOptions, Ticket};
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
use dyncon_trace::{Stage, TraceConfig, TraceRecorder};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Edges each write request deletes, and inserts.
const WRITE_EDGES: usize = 16;
/// Lookups per read.
const READ_PAIRS: usize = 32;
/// How long each probe's measured phase runs, seconds.
const PROBE_SECONDS: f64 = 3.0;

/// serve-mvcc's graph: the workloads' n and m.
const MVCC_N: usize = crate::bulk::N;
const MVCC_M: usize = crate::bulk::M;
/// serve-mvcc's fixed offered rate, requests per second.
const MVCC_RATE: f64 = 50.0;
/// The write tail limit a ladder rung must meet, ms.
const LIMIT_MS: f64 = 2000.0;
/// Ladder rung `k` offers `LADDER_BASE * LADDER_RATIO^k` requests per
/// second, `k < LADDER_RUNGS`.
const LADDER_BASE: f64 = 4.0;
const LADDER_RATIO: f64 = 1.04;
const LADDER_RUNGS: usize = 192;
/// How long one ladder probe offers load, seconds.
const LADDER_PROBE_S: f64 = 1.0;

/// serve-sharded's graph. Closed loop: at any open-loop rate, writes
/// queue behind the ~100 ms cross-shard reads in the single outer
/// writer, and the write latency is bimodal; its median moved between 3
/// and 34 ms from run to run at 5 requests/s. One client that waits for
/// each answer measures each request's own cost.
const SHARDED_N: usize = 1 << 14;
const SHARDED_M: usize = 1 << 15;

/// Admission queue bound: far above any backlog a ladder probe builds, so
/// overload shows as latency, not as rejected requests.
const QUEUE: usize = 1 << 16;

/// The unexplained share of round wall time the traced run tolerates; a
/// probe above it fails the run.
pub const ROUND_SLACK: f64 = 0.10;

/// The two serving stacks behind one submit/read surface.
trait Service {
    fn submit(&self, ops: Vec<Op>) -> Result<Ticket, DynConError>;
    /// The newest read view, or `None` when reads go through `submit`.
    fn view(&self) -> Option<Result<ReadView, DynConError>>;
    fn counts(&self) -> (u64, u64);
    fn metrics(&self) -> MetricsSnapshot;
}

/// The benchmark submits as one client, so within a round the server's
/// canonical `(client, seq)` order is submission order.
fn one_client() -> SubmitOptions {
    SubmitOptions::new().as_client(0)
}

impl Service for DurableServer<Traced> {
    fn submit(&self, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.submit_with(ops, one_client())
    }
    fn view(&self) -> Option<Result<ReadView, DynConError>> {
        Some(self.read_view())
    }
    fn counts(&self) -> (u64, u64) {
        (self.rounds_committed(), self.ops_committed())
    }
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
}

impl Service for ShardedServer<Traced> {
    fn submit(&self, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.submit_with(ops, one_client())
    }
    fn view(&self) -> Option<Result<ReadView, DynConError>> {
        None
    }
    fn counts(&self) -> (u64, u64) {
        (self.rounds_committed(), self.ops_committed())
    }
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
}

/// One request's fate.
struct Done {
    req: usize,
    /// Seconds from the phase start: intended arrival, actual send,
    /// answer.
    due: f64,
    sent: f64,
    done: f64,
    /// `None` if the request was rejected or failed.
    served: Option<Served>,
}

/// Where a request that committed sits in the commit order.
fn committed(req: usize, r: RequestResult) -> Served {
    Served {
        req,
        at: At::Round {
            version: r.version,
            seq: req,
        },
        answers: r.answers,
    }
}

fn to_ops(req: &Req) -> Vec<Op> {
    match req {
        Req::Write { deletes, inserts } => deletes
            .iter()
            .map(|&(u, v)| Op::Delete(u, v))
            .chain(inserts.iter().map(|&(u, v)| Op::Insert(u, v)))
            .collect(),
        Req::Read { pairs } => pairs.iter().map(|&(u, v)| Op::Query(u, v)).collect(),
    }
}

/// Offer `plan` (arrival offset in seconds, request index) open-loop and
/// collect every request's fate; spans go to `log` when it is `Some`
/// (the fixed-rate phase, not the ladder).
fn drive(
    svc: &impl Service,
    reqs: &[Req],
    plan: &[(f64, usize)],
    log: Option<&SpanLog>,
) -> Vec<Done> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, f64, f64, u64, Ticket)>();
        let waiter = scope.spawn(move || {
            let mut out = Vec::new();
            for (req, due, sent, span, ticket) in rx {
                let started = Instant::now();
                let result = ticket.wait();
                if let Some(l) = log {
                    l.record("Ticket::wait", "wait", req as u64, Some(span), started);
                    let due_at = t0 + Duration::from_secs_f64(due);
                    l.record_with_id(
                        span,
                        "request",
                        "wait",
                        req as u64,
                        None,
                        due_at,
                        Instant::now(),
                    );
                }
                out.push(Done {
                    req,
                    due,
                    sent,
                    done: secs(Instant::now()),
                    served: result.ok().map(|r| committed(req, r)),
                });
            }
            out
        });
        let mut out = Vec::new();
        for &(due, req) in plan {
            let due_at = t0 + Duration::from_secs_f64(due);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = secs(Instant::now());
            let span = log.map_or(0, |l| l.reserve());
            let view = match &reqs[req] {
                Req::Read { .. } => svc.view(),
                Req::Write { .. } => None,
            };
            if let (Some(view), Req::Read { pairs }) = (view, &reqs[req]) {
                let started = Instant::now();
                let served = view.ok().map(|view| {
                    if let Some(l) = log {
                        l.record("read_view", "views", req as u64, Some(span), started);
                    }
                    let started = Instant::now();
                    let answers: Vec<bool> =
                        pairs.iter().map(|&(u, v)| view.connected(u, v)).collect();
                    if let Some(l) = log {
                        l.record(
                            "ReadView::connected",
                            "views",
                            req as u64,
                            Some(span),
                            started,
                        );
                    }
                    Served {
                        req,
                        at: At::View {
                            version: view.version(),
                        },
                        answers,
                    }
                });
                if let Some(l) = log {
                    l.record_with_id(
                        span,
                        "request",
                        "wait",
                        req as u64,
                        None,
                        due_at,
                        Instant::now(),
                    );
                }
                out.push(Done {
                    req,
                    due,
                    sent,
                    done: secs(Instant::now()),
                    served,
                });
                continue;
            }
            let started = Instant::now();
            let submitted = svc.submit(to_ops(&reqs[req]));
            if let Some(l) = log {
                l.record("submit_with", "server", req as u64, Some(span), started);
            }
            match submitted {
                Ok(ticket) => tx
                    .send((req, due, sent, span, ticket))
                    .expect("the ticket waiter outlives the generator"),
                Err(_) => out.push(Done {
                    req,
                    due,
                    sent,
                    done: sent,
                    served: None,
                }),
            }
        }
        drop(tx);
        out.extend(waiter.join().expect("ticket waiter panicked"));
        out
    })
}

/// Generate `count` requests at `rate`, alternating writes and reads so
/// every probe has the same mix, appending them to `reqs`; returns the
/// arrival plan.
fn plan(churn: &mut EdgeChurn, reqs: &mut Vec<Req>, count: usize, rate: f64) -> Vec<(f64, usize)> {
    let at = arrivals(churn.rng(), count, rate);
    at.into_iter()
        .map(|t| {
            let req = if reqs.len().is_multiple_of(2) {
                let (deletes, inserts) = churn.step(WRITE_EDGES);
                Req::Write { deletes, inserts }
            } else {
                Req::Read {
                    pairs: churn.pairs(READ_PAIRS),
                }
            };
            reqs.push(req);
            (t, reqs.len() - 1)
        })
        .collect()
}

/// What a phase of traffic measured.
struct Phase {
    writes_ms: Vec<f64>,
    reads_ms: Vec<f64>,
    late_ms: Vec<f64>,
    offered_rps: f64,
    /// Completed requests per second, first arrival to last answer.
    served_rps: f64,
    failed: usize,
    count: usize,
    /// How fast latency grows over intended arrival time, seconds per
    /// second (see [`slope`]): how fast the backlog grows.
    backlog_slope: f64,
}

fn summarize(reqs: &[Req], done: &[Done]) -> Phase {
    let mut p = Phase {
        writes_ms: Vec::new(),
        reads_ms: Vec::new(),
        late_ms: done
            .iter()
            .map(|d| (d.sent - d.due).max(0.0) * 1e3)
            .collect(),
        offered_rps: 0.0,
        served_rps: 0.0,
        failed: done.iter().filter(|d| d.served.is_none()).count(),
        count: done.len(),
        backlog_slope: 0.0,
    };
    for d in done.iter().filter(|d| d.served.is_some()) {
        let ms = (d.done - d.due) * 1e3;
        match &reqs[d.req] {
            Req::Write { .. } => p.writes_ms.push(ms),
            Req::Read { .. } => p.reads_ms.push(ms),
        }
    }
    let first_due = done.iter().map(|d| d.due).fold(f64::INFINITY, f64::min);
    let (first_sent, last_sent) = done.iter().fold((f64::INFINITY, 0.0f64), |(a, b), d| {
        (a.min(d.sent), b.max(d.sent))
    });
    let last_done = done.iter().map(|d| d.done).fold(0.0, f64::max);
    if done.len() > 1 && last_sent > first_sent {
        p.offered_rps = (done.len() - 1) as f64 / (last_sent - first_sent);
    }
    p.served_rps = (done.len() - p.failed) as f64 / (last_done - first_due).max(1e-9);
    let points: Vec<(f64, f64)> = done
        .iter()
        .filter(|d| d.served.is_some())
        .map(|d| (d.due, d.done - d.due))
        .collect();
    p.backlog_slope = slope(&points);
    p
}

/// How fast `y` grows with `x`, robust to outliers: the median `y` of
/// the last third of the points (by `x`) minus that of the first third,
/// over the distance between the thirds' median `x`. A stall that
/// delays a few requests moves it far less than a growing backlog does.
/// 0 for fewer than three points.
fn slope(points: &[(f64, f64)]) -> f64 {
    let mut v = points.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let third = v.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let med = |part: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
        median(&part.iter().map(pick).collect::<Vec<_>>())
    };
    let (first, last) = (&v[..third], &v[v.len() - third..]);
    let dx = med(last, |p| p.0) - med(first, |p| p.0);
    if dx > 0.0 {
        (med(last, |p| p.1) - med(first, |p| p.1)) / dx
    } else {
        0.0
    }
}

/// A ladder probe offers at least this many requests (a slow rung's
/// probe runs longer than [`LADDER_PROBE_S`]), so the backlog rise rests
/// on enough samples.
const MIN_PROBE_REQUESTS: usize = 24;

/// A rung keeps up when latency grows by at most this many seconds per
/// second of offered load; an offered rate 10% above capacity grows it
/// by 0.09 s/s.
const MAX_BACKLOG_SLOPE: f64 = 0.1;

/// A ladder rung passes when nothing failed, the write tail is within
/// [`LIMIT_MS`] and the backlog does not grow (see
/// [`MAX_BACKLOG_SLOPE`]).
fn passes(p: &Phase) -> bool {
    p.failed == 0 && tail(&p.writes_ms).value <= LIMIT_MS && p.backlog_slope <= MAX_BACKLOG_SLOPE
}

/// Requests of the burst that measures saturated throughput.
const BURST: usize = 1000;
/// Rungs to step down after a rung fails.
const STEP_DOWN: usize = 4;

/// Search the ladder for a passing rung near capacity and put its
/// throughput as `server.max_rate_rps`. A burst of [`BURST`] requests,
/// all due at once, measures the saturated throughput X; the search
/// starts at the highest rung at or below 0.9 X and steps down
/// [`STEP_DOWN`] rungs at a time until a rung passes. A rung fails only
/// if two probes in a row fail, so one stall does not move the result.
/// Every request is returned for the correctness gate.
fn ladder(svc: &impl Service, churn: &mut EdgeChurn, out: &mut Metrics) -> Traffic {
    let rung = |k: usize| LADDER_BASE * LADDER_RATIO.powi(k as i32);
    let mut t = Traffic::default();
    let burst = plan(churn, &mut t.reqs, BURST, f64::INFINITY);
    let done = drive(svc, &t.reqs, &burst, None);
    let saturated = summarize(&t.reqs, &done).served_rps;
    t.done.extend(done);
    let top = ((0.9 * saturated / LADDER_BASE).ln() / LADDER_RATIO.ln()).floor();
    let mut k = top.clamp(0.0, (LADDER_RUNGS - 1) as f64) as usize;
    let mut probes = Vec::new();
    let mut probe = |k: usize, t: &mut Traffic| -> (bool, Phase) {
        let rate = rung(k);
        let count = ((rate * LADDER_PROBE_S).round() as usize).max(MIN_PROBE_REQUESTS);
        let mut attempt = || {
            let arrivals = plan(churn, &mut t.reqs, count, rate);
            let done = drive(svc, &t.reqs, &arrivals, None);
            let p = summarize(&t.reqs, &done);
            t.done.extend(done);
            let ok = passes(&p);
            probes.push(format!("{rate:.1}{}", if ok { "+" } else { "-" }));
            (ok, p)
        };
        match attempt() {
            (true, p) => (true, p),
            _ => attempt(),
        }
    };
    // Ends on the first passing rung, or on the bottom rung's failure.
    let (passed, best) = loop {
        let (ok, p) = probe(k, &mut t);
        if ok || k == 0 {
            break (ok, p);
        }
        k = k.saturating_sub(STEP_DOWN);
    };
    out.put("server.max_rate_rps", best.served_rps, "requests/s");
    let note = match passed {
        true => format!("{:.1}/s", rung(k)),
        false => "none; max_rate_rps is the bottom rung's throughput".to_string(),
    };
    out.note(format!(
        "saturated throughput {saturated:.1} requests/s over a burst of {BURST}; \
         ladder {LADDER_BASE:.1}/s x{LADDER_RATIO:.2}^k, k < {LADDER_RUNGS}, \
         {LADDER_PROBE_S} s per probe, write tail limit {LIMIT_MS} ms: probes {}; passing rung {note}",
        probes.join(" "),
    ));
    t
}

fn work_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench-work")
        .join(format!("{tag}-{}", std::process::id()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// A recorder that keeps every round, and the instant its span offsets
/// count from.
fn recorder() -> (Instant, TraceRecorder) {
    let epoch = Instant::now();
    let rec = TraceRecorder::with_config(
        TraceConfig::new()
            .capacity(1 << 17)
            .slow_round_threshold(Duration::ZERO)
            .slow_log_capacity(1 << 14),
    );
    (epoch, rec)
}

fn gauge_max(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get(name)
        .and_then(|m| m.value.as_gauge())
        .map_or(0.0, |(_, max)| max as f64)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get(name)
        .and_then(|m| m.value.as_counter())
        .unwrap_or(0) as f64
}

fn histogram_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get(name)
        .and_then(|m| m.value.as_histogram())
        .map_or(0.0, |h| h.sum as f64)
}

/// The requests one stack was sent and what became of them.
#[derive(Default)]
struct Traffic {
    reqs: Vec<Req>,
    done: Vec<Done>,
}

impl Traffic {
    fn failed(&self) -> usize {
        self.done.iter().filter(|d| d.served.is_none()).count()
    }

    /// Check every acknowledged answer against the oracle, starting from
    /// `preload` on `n` vertices, and the stack's final edge set against
    /// the oracle's.
    fn gate(&self, n: usize, preload: &[(u32, u32)], edges: &[(u32, u32)]) -> Result<(), String> {
        let served: Vec<Served> = self.done.iter().filter_map(|d| d.served.clone()).collect();
        let oracle = replay(n, preload, &self.reqs, &served)?;
        if edges != sorted_edges(&oracle) {
            return Err("the stack's final edge set differs from the oracle's".into());
        }
        match self.failed() {
            0 => Ok(()),
            failed => Err(format!("{failed} requests failed")),
        }
    }
}

/// The measured phase's latency metrics, as `<writes>.write_*` and
/// `<reads>.read_*`; returns a note on its tails.
fn put_latencies(p: &Phase, writes: &str, reads: &str, out: &mut Metrics) -> String {
    let (wt, rt) = (tail(&p.writes_ms), tail(&p.reads_ms));
    out.put(format!("{writes}.write_p50_ms"), median(&p.writes_ms), "ms");
    out.put(format!("{writes}.write_tail_ms"), wt.value, "ms");
    out.put(format!("{reads}.read_p50_ms"), median(&p.reads_ms), "ms");
    out.put(format!("{reads}.read_tail_ms"), rt.value, "ms");
    format!(
        "{} requests, {} failed; write tail p{:.1} of {} writes, read tail p{:.1} of {} reads",
        p.count, p.failed, wt.pct, wt.samples, rt.pct, rt.samples
    )
}

/// Round accounting: the share of the rounds' wall time (writer take to
/// last ticket filled) that the top-level stage spans (WAL append,
/// apply, publish, fill) leave unexplained, put as
/// `<layer>.round_unaccounted_share`. Above [`ROUND_SLACK`] the run
/// fails.
fn round_accounting(rec: &TraceRecorder, layer: &str, out: &mut Metrics) -> Result<(), String> {
    let log = rec.slow_round_log();
    let (mut wall, mut staged) = (0u64, 0u64);
    for r in &log.rounds {
        wall += r.wall_ns;
        staged += r
            .stages
            .iter()
            .filter(|s| {
                matches!(
                    s.stage,
                    Stage::WalAppend | Stage::Apply | Stage::Publish | Stage::Fill
                )
            })
            .map(|s| s.total_ns)
            .sum::<u64>();
    }
    if wall == 0 {
        return Err(format!("{layer}: the recorder kept no rounds"));
    }
    let share = (wall as f64 - staged as f64) / wall as f64;
    out.put(
        format!("{layer}.round_unaccounted_share"),
        share,
        "fraction",
    );
    let walls: Vec<f64> = log.rounds.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    out.put(format!("{layer}.round_wall_ms_p50"), median(&walls), "ms");
    out.note(format!(
        "{layer} round accounting: stage self times leave {:.2}% of {} rounds' wall time unexplained (stated slack {:.0}%)",
        share * 100.0,
        log.rounds.len(),
        ROUND_SLACK * 100.0
    ));
    if share.abs() > ROUND_SLACK {
        return Err(format!(
            "{layer}: stage times miss the round wall time by {:.1}%, above the {:.0}% slack",
            share * 100.0,
            ROUND_SLACK * 100.0
        ));
    }
    Ok(())
}

/// Durations, ms, of the spans named `name` that start in `lo..=hi`.
fn stage_ms(spans: &[crate::spans::Span], lo: u64, hi: u64, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (lo..=hi).contains(&s.start_ns))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Open a `DurableServer` on `preload`, written as the initial snapshot
/// (next round 1, so the preload is read-view version 0): WAL flushed
/// every round (`FsyncPolicy::EveryRound`, the default), no compaction
/// at join, 8 retained views, a 2-thread writer pool.
fn open_durable(
    dir: &Path,
    preload: &[(u32, u32)],
    trace: Option<&TraceRecorder>,
) -> Result<DurableServer<Traced>, String> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Snapshot {
        num_vertices: MVCC_N,
        next_round: 1,
        edges: preload.to_vec(),
    }
    .write_atomic(dir)
    .map_err(|e| e.to_string())?;
    let config = ServerConfig::new()
        .worker_threads(2)
        .retain_views(8)
        .queue_capacity(QUEUE);
    let config = match trace {
        Some(rec) => config.trace(rec.clone()),
        None => config,
    };
    let durable = DurableConfig::new()
        .fsync(FsyncPolicy::EveryRound)
        .compact_on_join(false);
    let (server, _) =
        DurableServer::<Traced>::open(dir, MVCC_N, config, durable).map_err(|e| e.to_string())?;
    Ok(server)
}

/// Stop a `DurableServer`; returns its final edge set and metrics.
fn close_durable(
    server: DurableServer<Traced>,
) -> Result<(Vec<(u32, u32)>, MetricsSnapshot), String> {
    let report = server.join().map_err(|e| e.to_string())?;
    Ok((
        report.service.backend.export_edges(),
        report.service.metrics,
    ))
}

/// serve-mvcc: the fixed offered rate on a traced `DurableServer`, a
/// restart from its WAL, and the ladder on a fresh untraced stack.
/// Returns the fixed-rate window.
fn mvcc(seed: u64, log: &SpanLog, out: &mut Metrics) -> Result<(Instant, Instant), String> {
    let mut churn = EdgeChurn::new(MVCC_N, MVCC_M, seed);
    let mut preload = churn.edges().to_vec();
    preload.sort_unstable();
    let (epoch, rec) = recorder();
    let dir = work_dir("fixed");
    let server = open_durable(&dir, &preload, Some(&rec))?;
    // Counters at the start of the measured phase, so the ledger leaves
    // out the preload.
    let ((rounds0, ops0), snap0) = (server.counts(), server.metrics());

    let mut fixed = Traffic::default();
    let count = (MVCC_RATE * PROBE_SECONDS).round() as usize;
    let arrivals = plan(&mut churn, &mut fixed.reqs, count, MVCC_RATE);
    let started = Instant::now();
    fixed.done = drive(&server, &fixed.reqs, &arrivals, Some(log));
    let window = (started, Instant::now());
    let p = summarize(&fixed.reqs, &fixed.done);
    let note = put_latencies(&p, "server", "views", out);
    out.note(format!(
        "fixed rate {MVCC_RATE:.1}/s for {PROBE_SECONDS} s: {note}"
    ));
    out.put("loadgen.late_ms_tail", tail(&p.late_ms).value, "ms");
    out.put("loadgen.offered_rps", p.offered_rps, "requests/s");
    out.put(
        "server.queue_depth_max",
        gauge_max(&server.metrics(), "dyncon_server_queue_depth"),
        "requests",
    );
    let (rounds, ops) = server.counts();
    let (rounds, ops) = (rounds - rounds0, ops - ops0);
    let (edges, snap) = close_durable(server)?;
    fixed.gate(MVCC_N, &preload, &edges)?;

    // Restart: every acknowledged write must be readable after it.
    let started = Instant::now();
    let (recovered, meta) = recover::<Traced>(&dir).map_err(|e| e.to_string())?;
    let recovery_s = started.elapsed().as_secs_f64();
    if recovered.export_edges() != edges {
        return Err("the recovered state differs from the final state".into());
    }
    drop(recovered);
    out.put("durable.recovery_s", recovery_s, "s");
    // Replay time: recovery minus rebuilding the snapshot, which is
    // recovery's first core call.
    let rebuild_ns = log
        .spans()
        .iter()
        .find(|s| s.name == "batch_insert" && s.start_ns >= log.ns(started))
        .map_or(0, |s| s.dur_ns());
    let replay_s = (recovery_s - rebuild_ns as f64 / 1e9).max(1e-9);
    out.put(
        "durable.replay_ops_per_s",
        meta.replayed_ops as f64 / replay_s,
        "ops/s",
    );

    // The ladder runs on a fresh stack from the same preload, so the
    // fixed-rate phase alone decides how much the WAL replays.
    let ladder_dir = work_dir("ladder");
    let server = open_durable(&ladder_dir, &preload, None)?;
    let mut churn = EdgeChurn::new(MVCC_N, MVCC_M, seed);
    let probes = ladder(&server, &mut churn, out);
    let (ladder_edges, _) = close_durable(server)?;
    probes.gate(MVCC_N, &preload, &ladder_edges)?;
    remove_dir(&dir)?;
    remove_dir(&ladder_dir)?;

    // The ledger of the fixed-rate phase.
    log.merge_recorder(&rec, epoch);
    round_accounting(&rec, "server", out)?;
    let (lo, hi) = (log.ns(window.0), log.ns(window.1));
    let spans = log.spans();
    let ms = |name: &str| median(&stage_ms(&spans, lo, hi, name));
    out.put("server.submit_us_p50", ms("submit_with") * 1e3, "us");
    out.put("server.coalesce_wait_ms_p50", ms("coalesce_wait"), "ms");
    let apply = stage_ms(&spans, lo, hi, "apply");
    out.put("server.apply_ms_p50", median(&apply), "ms");
    out.put("server.apply_ms_tail", tail(&apply).value, "ms");
    out.put("server.publish_ms_p50", ms("publish"), "ms");
    out.put("server.fill_us_p50", ms("fill") * 1e3, "us");
    out.put("views.read_view_us_p50", ms("read_view") * 1e3, "us");
    out.put(
        "views.lookup_ns",
        ms("ReadView::connected") * 1e6 / READ_PAIRS as f64,
        "ns",
    );
    out.put("durable.wal_append_us_p50", ms("wal_append") * 1e3, "us");
    out.put("durable.wal_fsync_us_p50", ms("wal_fsync") * 1e3, "us");
    out.put(
        "server.ops_per_round",
        ops as f64 / rounds.max(1) as f64,
        "ops",
    );
    let appended = counter(&snap, "dyncon_wal_append_bytes_total")
        - counter(&snap0, "dyncon_wal_append_bytes_total");
    out.put(
        "durable.wal_bytes_per_op",
        appended / ops.max(1) as f64,
        "bytes",
    );
    Ok(window)
}

/// serve-sharded: one closed-loop client for [`PROBE_SECONDS`] on two
/// hash shards in memory with one writer thread each, loaded through the
/// coordinator. Returns the measured window.
fn sharded(seed: u64, log: &SpanLog, out: &mut Metrics) -> Result<(Instant, Instant), String> {
    let mut churn = EdgeChurn::new(SHARDED_N, SHARDED_M, seed);
    let mut preload = churn.edges().to_vec();
    preload.sort_unstable();
    let (epoch, rec) = recorder();
    let config = ShardConfig::new()
        .shards(2)
        .kind(ShardMapKind::Hash)
        .shard_worker_threads(1)
        .queue_capacity(QUEUE)
        // One closed-loop client never has a second request to batch
        // with: a coalesce window would only add a timer wait.
        .coalesce_wait(Duration::ZERO)
        .trace(rec.clone());
    let server = ShardedServer::<Traced>::start(SHARDED_N, config).map_err(|e| e.to_string())?;
    let tickets: Vec<Ticket> = preload
        .chunks(4096)
        .map(|chunk| server.submit(chunk.iter().map(|&(u, v)| Op::Insert(u, v)).collect()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for t in tickets {
        t.wait().map_err(|e| e.to_string())?;
    }
    let ((rounds0, _), snap0) = (server.counts(), server.metrics());

    let mut t = Traffic::default();
    let t0 = Instant::now();
    let secs = |at: Instant| at.duration_since(t0).as_secs_f64();
    while secs(Instant::now()) < PROBE_SECONDS {
        let plan = plan(&mut churn, &mut t.reqs, 1, 1.0);
        let req = plan[0].1;
        let sent = Instant::now();
        let span = log.reserve();
        let submitted = server.submit(to_ops(&t.reqs[req]));
        log.record("submit_with", "server", req as u64, Some(span), sent);
        let waited = Instant::now();
        let result = submitted.and_then(|ticket| ticket.wait());
        log.record("Ticket::wait", "wait", req as u64, Some(span), waited);
        log.record_with_id(
            span,
            "request",
            "wait",
            req as u64,
            None,
            sent,
            Instant::now(),
        );
        t.done.push(Done {
            req,
            due: secs(sent),
            sent: secs(sent),
            done: secs(Instant::now()),
            served: result.ok().map(|r| committed(req, r)),
        });
    }
    let window = (t0, Instant::now());
    let p = summarize(&t.reqs, &t.done);
    let note = put_latencies(&p, "shard", "shard", out);
    out.put("shard.max_rate_rps", p.served_rps, "requests/s");
    out.note(format!("closed loop for {PROBE_SECONDS} s: {note}"));
    let rounds = server.counts().0 - rounds0;
    let edges = server
        .inspect(|b| b.export_edges())
        .map_err(|e| e.to_string())?;
    let snap = server.join().map_err(|e| e.to_string())?.metrics;
    t.gate(SHARDED_N, &preload, &edges)?;

    log.merge_recorder(&rec, epoch);
    round_accounting(&rec, "shard", out)?;
    let (lo, hi) = (log.ns(window.0), log.ns(window.1));
    let spans = log.spans();
    for (metric, stage) in [
        ("shard.decompose_ms", "decompose"),
        ("shard.subround_ms", "shard_round"),
        ("shard.cross_round_ms", "cross_round"),
        ("shard.rebuild_ms", "boundary_rebuild"),
        ("shard.cross_query_ms", "cross_query"),
    ] {
        out.put(metric, median(&stage_ms(&spans, lo, hi, stage)), "ms");
    }
    let per_round = |x: f64| x / rounds.max(1) as f64;
    let counter = |name: &str| counter(&snap, name) - counter(&snap0, name);
    out.put(
        "shard.subrounds_per_round",
        per_round(counter("dyncon_shard_subrounds_total")),
        "rounds",
    );
    out.put(
        "shard.rebuilds_per_round",
        per_round(counter("dyncon_shard_boundary_rebuilds_total")),
        "rebuilds",
    );
    let boundary = histogram_sum(&snap, "dyncon_shard_boundary_ops")
        - histogram_sum(&snap0, "dyncon_shard_boundary_ops");
    out.put("shard.boundary_ops_per_round", per_round(boundary), "ops");
    Ok(window)
}

/// The serving-layer probe of the traced run: serve-mvcc, then
/// serve-sharded, each on timed backends with the recorder attached.
/// Puts the loadgen, server, views, durable and shard metrics into `out`
/// and returns the measured windows.
pub fn probe(
    seed: u64,
    log: &SpanLog,
    out: &mut Metrics,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut m = Metrics::default();
    let mvcc = mvcc(seed, log, &mut m).map_err(|e| format!("serve-mvcc probe: {e}"))?;
    for note in m.notes.drain(..) {
        out.note(format!("serve-mvcc probe: {note}"));
    }
    let sharded = sharded(seed, log, &mut m).map_err(|e| format!("serve-sharded probe: {e}"))?;
    for note in m.notes.drain(..) {
        out.note(format!("serve-sharded probe: {note}"));
    }
    for x in m.list {
        out.put(x.name, x.value, x.unit);
    }
    link_stages(log);
    Ok(vec![mvcc, sharded])
}

/// Give the program's nested stage spans and the core calls their
/// parents, by time containment.
fn link_stages(log: &SpanLog) {
    const SHARD: [&str; 5] = [
        "decompose",
        "shard_round",
        "cross_round",
        "boundary_rebuild",
        "cross_query",
    ];
    log.link(&["wal_fsync"], &["wal_append"]);
    log.link(&SHARD, &["apply"]);
    log.link(
        &["batch_insert", "batch_delete", "batch_connected"],
        &[
            "shard_round",
            "cross_round",
            "boundary_rebuild",
            "cross_query",
            "apply",
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_slope_tells_growth_from_noise() {
        let steady: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.05, 0.1 + 0.05 * (i % 3) as f64))
            .collect();
        assert!(slope(&steady).abs() < MAX_BACKLOG_SLOPE);
        // 20% over capacity: each second of arrivals adds 0.2 s of wait.
        let growing: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.05, 0.1 + 0.2 * i as f64 * 0.05))
            .collect();
        assert!((slope(&growing) - 0.2).abs() < 1e-9);
        // One long stall in the middle does not read as a growing backlog.
        let mut stalled = steady.clone();
        for p in &mut stalled[18..24] {
            p.1 += 1.0;
        }
        assert!(slope(&stalled).abs() < MAX_BACKLOG_SLOPE);
        assert_eq!(slope(&[(1.0, 5.0)]), 0.0);
    }
}
