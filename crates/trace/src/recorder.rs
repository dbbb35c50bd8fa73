//! The span ring buffer, per-round breakdowns, and the slow-round log.

use dyncon_metrics::Histogram;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on rounds the recorder accumulates breakdowns for at
/// once. In steady state at most a handful of rounds are in flight
/// (reads may attribute spans to older versions); the bound only
/// matters under pathological span/complete interleavings.
const MAX_INFLIGHT_ROUNDS: usize = 1024;

/// An instrumented pipeline stage. Variants are declared in pipeline
/// order — [`RoundTrace`] breakdowns sort by it — and each maps to a
/// stable snake_case name ([`Stage::name`]) used by the exporters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// How long the round's oldest request sat admitted before the
    /// writer took the round (the admission coalescing window).
    CoalesceWait,
    /// Write-ahead log append of the sealed round (durable stacks).
    WalAppend,
    /// The fsync inside a WAL append, separately attributed (durable
    /// stacks under a syncing fsync policy).
    WalFsync,
    /// Retraction of a logged round whose apply failed.
    WalAbort,
    /// The whole backend `apply` of the round (contains the shard
    /// coordinator stages below when the backend is sharded).
    Apply,
    /// Coordinator: routing a mutation segment's ops to shards.
    Decompose,
    /// Coordinator: one shard's apply of its sub-batch. Carries
    /// [`Span::shard`].
    ShardRound,
    /// Coordinator: the cross-edge store's apply of its sub-batch.
    CrossRound,
    /// Coordinator: rebuild of the contracted boundary graph.
    BoundaryRebuild,
    /// Coordinator: resolving locally-undecided queries through the
    /// boundary graph.
    CrossQuery,
    /// Export + label + retain of the round's read view.
    Publish,
    /// Resolving every ticket of the round with its answers.
    Fill,
    /// Reader path: cloning a retained view out of the window. The
    /// span's round is the **version** resolved, not a commit round.
    ViewResolve,
    /// Reader path: executing a `read_async` closure against its view
    /// (round = the view's version).
    ReadExec,
}

impl Stage {
    /// The stage's stable snake_case name (exporter vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Stage::CoalesceWait => "coalesce_wait",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::WalAbort => "wal_abort",
            Stage::Apply => "apply",
            Stage::Decompose => "decompose",
            Stage::ShardRound => "shard_round",
            Stage::CrossRound => "cross_round",
            Stage::BoundaryRebuild => "boundary_rebuild",
            Stage::CrossQuery => "cross_query",
            Stage::Publish => "publish",
            Stage::Fill => "fill",
            Stage::ViewResolve => "view_resolve",
            Stage::ReadExec => "read_exec",
        }
    }

    /// Whether spans of this stage nest *inside* the round's
    /// [`Stage::Apply`] span (the coordinator runs during apply).
    pub fn nests_in_apply(self) -> bool {
        matches!(
            self,
            Stage::Decompose
                | Stage::ShardRound
                | Stage::CrossRound
                | Stage::BoundaryRebuild
                | Stage::CrossQuery
        )
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded stage occurrence. `start_ns` is nanoseconds since the
/// recorder's construction (a shared monotonic epoch, so spans from
/// every thread and layer line up on one timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The commit round the work belonged to (reader-path stages use
    /// the resolved **version** instead — see [`Stage::ViewResolve`]).
    pub round: u64,
    /// Which pipeline stage.
    pub stage: Stage,
    /// Start offset from the recorder's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Operations the stage processed (0 where not meaningful).
    pub ops: u64,
    /// Shard index for per-shard stages ([`Stage::ShardRound`]);
    /// `None` for coordinator-level and single-pipeline stages.
    pub shard: Option<u32>,
}

/// Construction knobs of a [`TraceRecorder`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Ring-buffer capacity in spans. Once full, new spans overwrite
    /// the oldest (the ring always holds the most recent window).
    pub capacity: usize,
    /// Rounds whose wall time (writer take → tickets filled) reaches
    /// this threshold get their full stage breakdown retained in the
    /// [`SlowRoundLog`]. `None` disables slow-round capture.
    pub slow_round_threshold: Option<Duration>,
    /// How many slow rounds the log retains (oldest evicted first).
    pub slow_log_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: 8192,
            slow_round_threshold: Some(Duration::from_millis(10)),
            slow_log_capacity: 32,
        }
    }
}

impl TraceConfig {
    /// The defaults: 8192 spans, 10 ms slow threshold, 32 retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`TraceConfig::capacity`] (clamped to ≥ 1).
    pub fn capacity(mut self, spans: usize) -> Self {
        self.capacity = spans.max(1);
        self
    }

    /// Set [`TraceConfig::slow_round_threshold`].
    pub fn slow_round_threshold(mut self, threshold: Duration) -> Self {
        self.slow_round_threshold = Some(threshold);
        self
    }

    /// Disable slow-round capture entirely.
    pub fn no_slow_rounds(mut self) -> Self {
        self.slow_round_threshold = None;
        self
    }

    /// Set [`TraceConfig::slow_log_capacity`] (clamped to ≥ 1).
    pub fn slow_log_capacity(mut self, rounds: usize) -> Self {
        self.slow_log_capacity = rounds.max(1);
        self
    }
}

/// One stage's aggregate inside a [`RoundTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageBreakdown {
    /// The stage (breakdowns are sorted in pipeline order).
    pub stage: Stage,
    /// Shard index for per-shard stages, else `None`.
    pub shard: Option<u32>,
    /// Summed span durations of this (stage, shard), nanoseconds.
    pub total_ns: u64,
    /// Summed span op counts.
    pub ops: u64,
    /// How many spans were folded in.
    pub count: u64,
}

/// The stage breakdown of one committed round: where its wall time
/// went. Produced by the recorder at round completion; retrieve the
/// worst via [`TraceRecorder::slowest_round`] or the over-threshold
/// history via [`TraceRecorder::slow_round_log`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// The committed round (server-local numbering).
    pub round: u64,
    /// Wall time from the writer taking the round to its last ticket
    /// filled, nanoseconds. Stages nest (the shard stages inside
    /// apply), so stage totals can exceed this.
    pub wall_ns: u64,
    /// Operations the round committed.
    pub ops: u64,
    /// Per-(stage, shard) aggregates, pipeline order.
    pub stages: Vec<StageBreakdown>,
}

impl RoundTrace {
    /// Render the breakdown as an aligned human-readable table, one
    /// stage per line with its share of the round's wall time.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "round {}: {:.3} ms wall, {} ops\n  {:<16} {:>5} {:>12} {:>7} {:>8} {:>6}\n",
            self.round,
            self.wall_ns as f64 / 1e6,
            self.ops,
            "stage",
            "shard",
            "time",
            "%wall",
            "ops",
            "spans",
        );
        for s in &self.stages {
            let shard = s.shard.map_or("-".to_string(), |x| x.to_string());
            let pct = if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * s.total_ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "  {:<16} {:>5} {:>9.3} ms {:>6.1}% {:>8} {:>6}\n",
                s.stage.name(),
                shard,
                s.total_ns as f64 / 1e6,
                pct,
                s.ops,
                s.count,
            ));
        }
        out
    }
}

/// A snapshot of the retained slow rounds: every completed round whose
/// wall time reached [`TraceConfig::slow_round_threshold`], newest
/// last, bounded by [`TraceConfig::slow_log_capacity`].
#[derive(Clone, Debug)]
pub struct SlowRoundLog {
    /// The capture threshold in force (`None`: capture disabled).
    pub threshold_ns: Option<u64>,
    /// Total rounds ever captured (≥ `rounds.len()` after eviction).
    pub captured: u64,
    /// The retained breakdowns, oldest first.
    pub rounds: Vec<RoundTrace>,
}

impl SlowRoundLog {
    /// Render every retained slow round as a [`RoundTrace::render_text`]
    /// table, prefixed with a one-line header.
    pub fn render_text(&self) -> String {
        let mut out = match self.threshold_ns {
            Some(t) => format!(
                "slow rounds: {} captured over {:.3} ms threshold, {} retained\n",
                self.captured,
                t as f64 / 1e6,
                self.rounds.len()
            ),
            None => "slow rounds: capture disabled\n".to_string(),
        };
        for r in &self.rounds {
            out.push_str(&r.render_text());
        }
        out
    }
}

/// In-flight accumulation of one round's breakdown: small linear map
/// keyed by (stage, shard) — a round touches at most a dozen distinct
/// keys, so linear scans beat hashing.
#[derive(Default)]
struct RoundAccum {
    lines: Vec<StageBreakdown>,
}

impl RoundAccum {
    fn add(&mut self, stage: Stage, shard: Option<u32>, dur_ns: u64, ops: u64) {
        for line in &mut self.lines {
            if line.stage == stage && line.shard == shard {
                line.total_ns += dur_ns;
                line.ops += ops;
                line.count += 1;
                return;
            }
        }
        self.lines.push(StageBreakdown {
            stage,
            shard,
            total_ns: dur_ns,
            ops,
            count: 1,
        });
    }
}

/// Everything behind the round-completion mutex. The span ring itself
/// is *not* behind it (see [`Shared::slots`]).
struct RoundState {
    accum: BTreeMap<u64, RoundAccum>,
    slowest: Option<RoundTrace>,
    slow: VecDeque<RoundTrace>,
    slow_captured: u64,
    completed: u64,
}

struct Shared {
    /// The shared timeline origin — every span's `start_ns` is an
    /// offset from this instant.
    epoch: Instant,
    /// The span ring. Lock-light: a global atomic cursor claims a
    /// slot, then only that slot's own mutex is held for the store —
    /// concurrent recorders on different slots never contend, and no
    /// recording thread ever waits behind an exporter scanning the
    /// whole ring.
    slots: Box<[Mutex<Option<Span>>]>,
    /// Total spans ever recorded; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    /// The round the writer is currently committing — the attribution
    /// context for nested instrumentation (shard coordinator stages
    /// run inside `apply` and have no round argument of their own).
    current_round: AtomicU64,
    rounds: Mutex<RoundState>,
    /// Round wall times, for quantile extraction
    /// ([`TraceRecorder::round_wall_quantile`]).
    wall_ns: Histogram,
    config: TraceConfig,
}

/// A bounded, lock-light recorder of pipeline [`Span`]s, shared by
/// every instrumented layer of one serving stack (clone it — clones
/// share the same ring). See the crate docs for the model; construct
/// with [`TraceRecorder::new`] or [`TraceRecorder::with_config`] and
/// attach via `ServerConfig::trace` / `ShardConfig::trace`.
#[derive(Clone)]
pub struct TraceRecorder {
    shared: Arc<Shared>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.shared.config.capacity)
            .field("recorded", &self.shared.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder with the [`TraceConfig`] defaults.
    pub fn new() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// A recorder with explicit knobs.
    pub fn with_config(config: TraceConfig) -> Self {
        let slots = (0..config.capacity.max(1))
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                slots,
                cursor: AtomicU64::new(0),
                current_round: AtomicU64::new(0),
                rounds: Mutex::new(RoundState {
                    accum: BTreeMap::new(),
                    slowest: None,
                    slow: VecDeque::new(),
                    slow_captured: 0,
                    completed: 0,
                }),
                wall_ns: Histogram::new(),
                config,
            }),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Total spans ever recorded (≥ the ring's retained window).
    pub fn recorded(&self) -> u64 {
        self.shared.cursor.load(Ordering::Relaxed)
    }

    /// Rounds completed through [`TraceRecorder::complete_round`].
    pub fn rounds_completed(&self) -> u64 {
        self.shared.rounds.lock().unwrap().completed
    }

    /// Record a span that started at `started` and ends now.
    pub fn record(&self, round: u64, stage: Stage, started: Instant, ops: u64) {
        self.record_parts(round, stage, started, started.elapsed(), ops, None);
    }

    /// [`TraceRecorder::record`] tagged with the shard the work ran on.
    pub fn record_shard(&self, round: u64, stage: Stage, started: Instant, ops: u64, shard: u32) {
        self.record_parts(round, stage, started, started.elapsed(), ops, Some(shard));
    }

    /// Record a span from explicit parts: it began at `started` (which
    /// may predate the recorder — the offset clamps to 0) and ran for
    /// `dur`. This is the primitive the convenience methods wrap; use
    /// it when the duration was measured elsewhere (e.g. the WAL's
    /// internal fsync timing).
    pub fn record_parts(
        &self,
        round: u64,
        stage: Stage,
        started: Instant,
        dur: Duration,
        ops: u64,
        shard: Option<u32>,
    ) {
        let start_ns = started
            .checked_duration_since(self.shared.epoch)
            .unwrap_or_default()
            .as_nanos() as u64;
        let span = Span {
            round,
            stage,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            ops,
            shard,
        };
        let idx =
            self.shared.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.shared.slots.len();
        *self.shared.slots[idx].lock().unwrap() = Some(span);
        let mut rounds = self.shared.rounds.lock().unwrap();
        if rounds.accum.len() < MAX_INFLIGHT_ROUNDS || rounds.accum.contains_key(&round) {
            rounds
                .accum
                .entry(round)
                .or_default()
                .add(stage, shard, span.dur_ns, ops);
        }
    }

    /// Set the round the writer is about to commit — the attribution
    /// context [`TraceRecorder::current_round`] hands to nested
    /// instrumentation (coordinator stages run inside `apply`).
    pub fn set_current_round(&self, round: u64) {
        self.shared.current_round.store(round, Ordering::Relaxed);
    }

    /// The round last set by [`TraceRecorder::set_current_round`].
    pub fn current_round(&self) -> u64 {
        self.shared.current_round.load(Ordering::Relaxed)
    }

    /// Fold the round's accumulated spans into its [`RoundTrace`],
    /// record its wall time, update the slowest-round slot, and — when
    /// `wall` reaches the configured threshold — retain the breakdown
    /// in the [`SlowRoundLog`]. The writer calls this once per
    /// committed round, after the last ticket fill.
    pub fn complete_round(&self, round: u64, wall: Duration, ops: u64) {
        let wall_ns = wall.as_nanos() as u64;
        self.shared.wall_ns.record(wall_ns);
        let mut state = self.shared.rounds.lock().unwrap();
        state.completed += 1;
        let mut lines = state.accum.remove(&round).unwrap_or_default().lines;
        // Rounds commit in order: anything still accumulating under an
        // older key (e.g. reads attributed to an old version) will
        // never complete — drop it so the map stays bounded.
        let stale: Vec<u64> = state.accum.range(..round).map(|(&k, _)| k).collect();
        for k in stale {
            state.accum.remove(&k);
        }
        lines.sort_by_key(|l| (l.stage, l.shard));
        let trace = RoundTrace {
            round,
            wall_ns,
            ops,
            stages: lines,
        };
        if state.slowest.as_ref().map_or(true, |s| wall_ns > s.wall_ns) {
            state.slowest = Some(trace.clone());
        }
        if let Some(threshold) = self.shared.config.slow_round_threshold {
            if wall >= threshold {
                state.slow_captured += 1;
                state.slow.push_back(trace);
                while state.slow.len() > self.shared.config.slow_log_capacity {
                    state.slow.pop_front();
                }
            }
        }
    }

    /// The breakdown of the slowest round completed so far (`None`
    /// before the first completion).
    pub fn slowest_round(&self) -> Option<RoundTrace> {
        self.shared.rounds.lock().unwrap().slowest.clone()
    }

    /// Snapshot the retained slow rounds.
    pub fn slow_round_log(&self) -> SlowRoundLog {
        let state = self.shared.rounds.lock().unwrap();
        SlowRoundLog {
            threshold_ns: self
                .shared
                .config
                .slow_round_threshold
                .map(|t| t.as_nanos() as u64),
            captured: state.slow_captured,
            rounds: state.slow.iter().cloned().collect(),
        }
    }

    /// The `q`-quantile (0.0–1.0) of completed rounds' wall times in
    /// nanoseconds (a log2-bucket upper bound, like every dyncon
    /// histogram), or `None` before the first completion.
    pub fn round_wall_quantile(&self, q: f64) -> Option<u64> {
        self.shared.wall_ns.quantile(q)
    }

    /// Snapshot the ring's retained spans in recording order (oldest
    /// first). Best-effort under concurrent recording: a span being
    /// written right now is either in the snapshot whole or absent —
    /// never torn.
    pub fn spans(&self) -> Vec<Span> {
        let total = self.shared.cursor.load(Ordering::Relaxed);
        let cap = self.shared.slots.len() as u64;
        let (first, len) = if total <= cap {
            (0, total)
        } else {
            (total % cap, cap)
        };
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let idx = ((first + i) % cap) as usize;
            if let Some(span) = *self.shared.slots[idx].lock().unwrap() {
                out.push(span);
            }
        }
        out
    }

    /// Export the ring's retained spans as Chrome-trace JSON (see
    /// [`crate::chrome_trace_json_from`]).
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome::chrome_trace_json_from(&self.spans())
    }
}

/// Run `f` and record it as one span of (`round`, `stage`) when a
/// recorder is attached. With `None` this is exactly `f()` — no clock
/// reads, which is what makes an unattached [`TraceRecorder`] knob a
/// zero-cost no-op at the instrumentation sites.
pub fn traced<R>(
    recorder: Option<&TraceRecorder>,
    round: u64,
    stage: Stage,
    ops: u64,
    f: impl FnOnce() -> R,
) -> R {
    match recorder {
        Some(t) => {
            let started = Instant::now();
            let out = f();
            t.record(round, stage, started, ops);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(r: &TraceRecorder, round: u64, stage: Stage, dur_ns: u64) {
        r.record_parts(
            round,
            stage,
            Instant::now(),
            Duration::from_nanos(dur_ns),
            1,
            None,
        );
    }

    #[test]
    fn ring_wraps_keeping_the_newest_spans() {
        let r = TraceRecorder::with_config(TraceConfig::new().capacity(4));
        assert_eq!(r.capacity(), 4);
        for round in 0..10 {
            span_at(&r, round, Stage::Apply, 100);
        }
        assert_eq!(r.recorded(), 10);
        let rounds: Vec<u64> = r.spans().iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9], "ring keeps the newest window");
    }

    #[test]
    fn partial_ring_returns_only_what_was_recorded() {
        let r = TraceRecorder::with_config(TraceConfig::new().capacity(64));
        span_at(&r, 3, Stage::Fill, 5);
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (
                spans[0].round,
                spans[0].stage,
                spans[0].dur_ns,
                spans[0].ops
            ),
            (3, Stage::Fill, 5, 1)
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing_before_wraparound() {
        let r = TraceRecorder::with_config(TraceConfig::new().capacity(4096));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..256 {
                        r.record_parts(
                            t,
                            Stage::ShardRound,
                            Instant::now(),
                            Duration::from_nanos(i),
                            1,
                            Some(t as u32),
                        );
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 8 * 256);
        let spans = r.spans();
        assert_eq!(spans.len(), 8 * 256, "capacity not exceeded: all retained");
        for t in 0..8u64 {
            assert_eq!(
                spans.iter().filter(|s| s.round == t).count(),
                256,
                "every thread's spans survived"
            );
        }
    }

    #[test]
    fn round_breakdowns_aggregate_by_stage_and_shard() {
        let r = TraceRecorder::new();
        r.record_parts(
            7,
            Stage::ShardRound,
            Instant::now(),
            Duration::from_nanos(100),
            4,
            Some(0),
        );
        r.record_parts(
            7,
            Stage::ShardRound,
            Instant::now(),
            Duration::from_nanos(300),
            2,
            Some(1),
        );
        span_at(&r, 7, Stage::Apply, 500);
        span_at(&r, 7, Stage::Apply, 700);
        r.complete_round(7, Duration::from_nanos(1500), 6);
        let t = r.slowest_round().expect("completed round is the slowest");
        assert_eq!((t.round, t.wall_ns, t.ops), (7, 1500, 6));
        // Pipeline order: apply before the per-shard sub-batches.
        assert_eq!(t.stages.len(), 3);
        assert_eq!(
            (t.stages[0].stage, t.stages[0].total_ns, t.stages[0].count),
            (Stage::Apply, 1200, 2)
        );
        assert_eq!(
            (t.stages[1].stage, t.stages[1].shard, t.stages[1].ops),
            (Stage::ShardRound, Some(0), 4)
        );
        assert_eq!(t.stages[2].shard, Some(1));
        let text = t.render_text();
        assert!(text.contains("round 7") && text.contains("shard_round"));
    }

    #[test]
    fn slow_rounds_are_captured_over_the_threshold_and_bounded() {
        let r = TraceRecorder::with_config(
            TraceConfig::new()
                .slow_round_threshold(Duration::from_micros(10))
                .slow_log_capacity(2),
        );
        r.complete_round(0, Duration::from_micros(5), 1); // fast: not captured
        for round in 1..=3 {
            span_at(&r, round, Stage::Apply, 11_000);
            r.complete_round(round, Duration::from_micros(11), 1);
        }
        let log = r.slow_round_log();
        assert_eq!(log.captured, 3);
        let kept: Vec<u64> = log.rounds.iter().map(|t| t.round).collect();
        assert_eq!(kept, vec![2, 3], "bounded log keeps the newest");
        assert!(log.render_text().contains("3 captured"));
        // The quantile sees every completed round, captured or not.
        assert_eq!(r.rounds_completed(), 4);
        assert!(r.round_wall_quantile(0.99).unwrap() >= 11_000);
        // Disabled capture renders as such.
        let off = TraceRecorder::with_config(TraceConfig::new().no_slow_rounds());
        off.complete_round(0, Duration::from_secs(1), 1);
        assert!(off.slow_round_log().render_text().contains("disabled"));
        assert!(off.slowest_round().is_some(), "slowest still tracked");
    }

    #[test]
    fn stale_inflight_rounds_are_dropped_at_completion() {
        let r = TraceRecorder::new();
        span_at(&r, 0, Stage::ViewResolve, 10); // an old-version read
        span_at(&r, 5, Stage::Apply, 10);
        r.complete_round(5, Duration::from_nanos(20), 1);
        // Round 0 never completes; its accumulator must be gone.
        assert_eq!(r.shared.rounds.lock().unwrap().accum.len(), 0);
    }

    #[test]
    fn current_round_is_shared_across_clones() {
        let r = TraceRecorder::new();
        let clone = r.clone();
        r.set_current_round(41);
        assert_eq!(clone.current_round(), 41);
        span_at(&clone, 41, Stage::Decompose, 10);
        assert_eq!(r.recorded(), 1, "clones share one ring");
    }
}
