//! The traced run's span log.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions (name, layer, start, end, parent, request id), merges
//! in the stage spans of the program's own `TraceRecorder`, keeps all of
//! them in memory and writes them to one file at the end. A layer's self
//! time is its spans' durations minus the part their child spans cover.

use dyncon_trace::{Stage, TraceRecorder};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The request (serving probe), step (churn) or round (program stages)
    /// the span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose span is recorded after its
    /// children.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_with_id(id, name, layer, request, parent, start, Instant::now());
        id
    }

    /// Merge the recorder's retained stage spans. `recorder_epoch` is an
    /// instant taken right before the recorder was built (its span
    /// offsets count from its construction).
    pub fn merge_recorder(&self, recorder: &TraceRecorder, recorder_epoch: Instant) {
        let base = self.ns(recorder_epoch);
        let mut spans = self.spans.lock().expect("span log poisoned");
        for s in recorder.spans() {
            let (name, layer) = stage_name_layer(s.stage);
            spans.push(Span {
                id: self.next.fetch_add(1, Ordering::Relaxed),
                parent: None,
                request: s.round,
                name,
                layer,
                start_ns: base + s.start_ns,
                end_ns: base + s.start_ns + s.dur_ns,
            });
        }
    }

    /// Give every parentless span named in `children` the smallest span
    /// named in `parents` that contains it in time.
    pub fn link(&self, children: &[&str], parents: &[&str]) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let mut cands: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter(|s| parents.contains(&s.name))
            .map(|s| (s.start_ns, s.end_ns, s.id))
            .collect();
        cands.sort_unstable();
        for s in spans.iter_mut() {
            if s.parent.is_some() || !children.contains(&s.name) {
                continue;
            }
            // Candidates starting at or before the child, latest first.
            let upto = cands.partition_point(|c| c.0 <= s.start_ns);
            s.parent = cands[..upto]
                .iter()
                .rev()
                .filter(|c| c.1 >= s.end_ns && c.2 != s.id)
                .min_by_key(|c| c.1 - c.0)
                .map(|c| c.2);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self time per layer, nanoseconds, of the spans that start within
    /// one of `windows`: each span's duration minus the union of its
    /// children's intervals (children may run in parallel).
    pub fn self_ns_by_layer(&self, windows: &[(u64, u64)]) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| windows.iter().any(|w| (w.0..=w.1).contains(&s.start_ns)))
        {
            let covered = kids
                .get(&s.id)
                .map_or(0, |k| union_len(k, s.start_ns, s.end_ns));
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let (mut total, mut end) = (0, lo);
    for (s, e) in v {
        let s = s.max(end);
        if e > s {
            total += e - s;
            end = e;
        }
    }
    total
}

/// The span name and layer of a program stage.
pub fn stage_name_layer(stage: Stage) -> (&'static str, &'static str) {
    let layer = match stage {
        Stage::WalAppend | Stage::WalFsync | Stage::WalAbort => "durable",
        Stage::Decompose
        | Stage::ShardRound
        | Stage::CrossRound
        | Stage::BoundaryRebuild
        | Stage::CrossQuery => "shard",
        Stage::Publish | Stage::ViewResolve | Stage::ReadExec => "views",
        Stage::Apply | Stage::Fill => "server",
        // A request queued for its round: waiting, not work.
        Stage::CoalesceWait => "wait",
    };
    (stage.name(), layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(union_len(&[], 0, 9), 0);
    }

    #[test]
    fn self_time_subtracts_linked_children() {
        let log = SpanLog::default();
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        log.record_with_id(1, "apply", "server", 0, None, at(0), at(10));
        log.record_with_id(2, "batch_delete", "core", 0, None, at(2), at(6));
        log.record_with_id(3, "batch_insert", "core", 0, None, at(5), at(8));
        log.link(&["batch_delete", "batch_insert"], &["apply"]);
        let by_layer = log.self_ns_by_layer(&[(0, u64::MAX)]);
        assert_eq!(by_layer["server"], 4_000_000);
        assert_eq!(by_layer["core"], 7_000_000);
    }
}
