//! Chrome-trace JSON export.
//!
//! The [trace event format] is the lowest-common-denominator timeline
//! interchange: `chrome://tracing`, [Perfetto](https://ui.perfetto.dev)
//! and `speedscope` all load it. Every span becomes one complete event
//! (`"ph": "X"`) — complete events carry their own duration, so the
//! output is well-formed by construction (no begin/end pairing to get
//! wrong).
//!
//! Lane assignment: single-pipeline stages (coalesce, WAL, apply,
//! publish, fill) share `tid` 0 — the writer executes them one after
//! another, so they never overlap; each shard's sub-batches get
//! `tid = shard + 1`, so a straggler shard reads off its own lane;
//! reader-path spans go to a dedicated lane above the
//! shards so concurrent reads never partially overlap writer stages in
//! one lane.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::recorder::{Span, Stage};

/// The `tid` lane a span renders in (see the module docs).
fn lane(span: &Span) -> u64 {
    match span.shard {
        Some(s) => s as u64 + 1,
        // Reader-path spans run concurrently with writer stages; park
        // them in a high lane so each lane stays overlap-free.
        None if matches!(span.stage, Stage::ViewResolve | Stage::ReadExec) => 1_000_000,
        None => 0,
    }
}

/// Serialize `spans` as a Chrome-trace JSON document (an object with a
/// `traceEvents` array of complete events, timestamps in microseconds
/// with nanosecond precision). [`crate::TraceRecorder::chrome_trace_json`]
/// calls this on the ring's retained window; it is exposed separately
/// so filtered span sets export the same way.
pub fn chrome_trace_json_from(spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.dur_ns, s.round));
    let mut out = String::with_capacity(128 + ordered.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Stage names are static snake_case identifiers: nothing to
        // JSON-escape anywhere in the document.
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":{}.{:03},\
             \"dur\":{}.{:03},\"pid\":0,\"tid\":{},\"args\":{{\"round\":{},\"ops\":{}{}}}}}",
            s.stage.name(),
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
            lane(s),
            s.round,
            s.ops,
            match s.shard {
                Some(shard) => format!(",\"shard\":{shard}"),
                None => String::new(),
            },
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, dur_ns: u64, shard: Option<u32>) -> Span {
        Span {
            round: 1,
            stage,
            start_ns,
            dur_ns,
            ops: 2,
            shard,
        }
    }

    #[test]
    fn events_carry_the_trace_event_format_fields() {
        let json = chrome_trace_json_from(&[span(Stage::Apply, 1500, 2750, None)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"apply\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"), "µs with ns precision");
        assert!(json.contains("\"dur\":2.750"));
        assert!(json.contains("\"args\":{\"round\":1,\"ops\":2}"));
    }

    #[test]
    fn lanes_separate_shards_writer_and_readers() {
        let json = chrome_trace_json_from(&[
            span(Stage::Fill, 0, 1, None),
            span(Stage::ShardRound, 0, 1, Some(3)),
            span(Stage::ReadExec, 0, 1, None),
        ]);
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":4"), "shard 3 renders in lane 4");
        assert!(json.contains("\"tid\":1000000"));
        assert!(json.contains("\"shard\":3"));
    }

    #[test]
    fn empty_ring_is_still_a_valid_document() {
        assert_eq!(
            chrome_trace_json_from(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
