//! # dyncon-trace
//!
//! Per-round pipeline tracing for the dyncon serving stack — the
//! stage-level attribution layer the aggregate metrics of
//! `dyncon-metrics` cannot provide: when a p999 spike shows up in a
//! latency histogram, the trace says *which stage of which round* the
//! time went to (coalesce wait? WAL fsync? one straggler shard?).
//!
//! Three pieces, all std-only:
//!
//! - [`TraceRecorder`] — a bounded, lock-light ring buffer of
//!   [`Span`]s. Every instrumented stage of the serving pipeline
//!   (admission coalescing, WAL append/fsync, shard decompose and
//!   sub-batches, boundary rebuild, snapshot publish, ticket fill,
//!   versioned reads) records one span per occurrence. Per committed
//!   round the recorder folds spans into a [`RoundTrace`] breakdown,
//!   tracks the slowest round seen, and promotes rounds over a
//!   configurable threshold into a retained [`SlowRoundLog`].
//! - Exporters — [`TraceRecorder::chrome_trace_json`] emits the ring
//!   buffer as Chrome-trace JSON (loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)), and [`RoundTrace::render_text`]
//!   renders a human stage table.
//! - [`serve_telemetry`] — a `TcpListener` thread serving `GET /metrics`
//!   (Prometheus text from a [`dyncon_metrics::Registry`]), `GET /trace`
//!   (Chrome-trace JSON) and `GET /slow` (the slow-round log), so a
//!   scraper or a human with `curl` can observe a live service. Each
//!   connection gets its own short-lived handler thread (bounded), and
//!   [`serve_telemetry_with_health`] adds `/healthz` + `/readyz` routes
//!   backed by caller-supplied [`HealthRoutes`] probes (the
//!   `dyncon-export` health engine is the canonical producer).
//!
//! Attach a recorder with `ServerConfig::trace` (serving layer) or
//! `ShardConfig::trace` (sharded layer). The contract is the same as
//! for metrics: **observational only** — tracing never influences
//! admission, round boundaries, or results, and `tests/determinism.rs`
//! proves rounds stay byte-identical with tracing and the endpoint
//! attached. With no recorder attached the instrumentation is a no-op
//! (`Option` check, no clock reads).

mod chrome;
mod recorder;
mod telemetry;

pub use chrome::chrome_trace_json_from;
pub use recorder::{
    traced, RoundTrace, SlowRoundLog, Span, Stage, StageBreakdown, TraceConfig, TraceRecorder,
};
pub use telemetry::{
    serve_telemetry, serve_telemetry_with_health, HealthProbe, HealthRoutes, TelemetryServer,
};
