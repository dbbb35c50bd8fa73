//! # dyncon-suite
//!
//! Workspace umbrella for the SPAA 2019 *Parallel Batch-Dynamic Graph
//! Connectivity* reproduction. Re-exports every member crate and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! **Start with [`api`]**: the [`api::Builder`] constructs any backend,
//! and the [`api::Connectivity`] / [`api::BatchDynamic`] traits are the
//! workspace-wide contract — `&self` batch queries, validated mutations
//! with typed [`api::DynConError`]s, and mixed-operation batches via
//! [`api::BatchDynamic::apply`]. The paper's structure is
//! [`core::BatchDynamicConnectivity`]; the sequential HDT baseline
//! ([`hdt::HdtConnectivity`]) and the baselines/oracles in [`spanning`]
//! implement the same traits, so they interchange as
//! `Box<dyn BatchDynamic>`.
//!
//! ```
//! use dyncon::api::{BatchDynamic, Builder, Op};
//! use dyncon::core::BatchDynamicConnectivity;
//!
//! let mut g: BatchDynamicConnectivity = Builder::new(6).build()?;
//! let result = g.apply(&[
//!     Op::Insert(0, 1),
//!     Op::Insert(1, 2),
//!     Op::Query(0, 2),
//!     Op::Delete(1, 2),
//!     Op::Query(0, 2),
//! ])?;
//! assert_eq!(result.answers, vec![true, false]);
//! # Ok::<(), dyncon::api::DynConError>(())
//! ```
//!
//! For concurrent callers, [`server::ConnServer`] is the group-commit
//! serving frontend: it coalesces many clients' submissions into one
//! mixed-op batch per commit round (see the "Serving layer" section of
//! the README and `examples/concurrent_service.rs`). To survive process
//! death, wrap it as a [`durable::DurableServer`]: every sealed round is
//! appended to a checksummed write-ahead log before it is applied, and
//! [`durable::recover`] rebuilds any backend deterministically from the
//! latest snapshot plus the log tail (see the "Durability" section of
//! the README and `examples/durable_service.rs`).
//!
//! To scale past one commit pipeline, [`shard::ShardedServer`]
//! partitions the vertex universe across N plain shard backends in one
//! server (optionally durable through one WAL) and recombines cross-shard
//! reachability through a contracted boundary graph, preserving the
//! byte-determinism contract at every shard and thread count (see the
//! "Sharding" section of the README and `examples/sharded_service.rs`).
//!
//! To see where each round's time goes, attach a
//! [`trace::TraceRecorder`] via `ServerConfig::trace` and (optionally)
//! expose it with [`trace::serve_telemetry`] — per-round stage
//! breakdowns, a slow-round log, Chrome-trace export and a scrapeable
//! `/metrics`–`/trace`–`/slow` endpoint, all observational-only (see
//! the "Tracing & telemetry endpoint" section of the README and
//! `examples/telemetry.rs`).
//!
//! To push telemetry instead of waiting to be scraped, attach an
//! [`export::TelemetryExporter`]: it drains metric deltas, fresh spans
//! and slow-round captures into checksummed binary frames and ships
//! them to an [`export::Collector`] (fleet aggregation + merged
//! Prometheus re-render), never blocking the commit path. The same
//! crate's [`export::HealthState`] adds a writer-stall watchdog,
//! WAL-error/backpressure signals and SLO burn-rate windows behind
//! `/healthz` + `/readyz` (see the "Telemetry export & health" section
//! of the README and `examples/export_pipeline.rs`).

pub use dyncon_api as api;
pub use dyncon_core as core;
pub use dyncon_durable as durable;
pub use dyncon_ett as ett;
pub use dyncon_export as export;
pub use dyncon_graphgen as graphgen;
pub use dyncon_hdt as hdt;
pub use dyncon_metrics as metrics;
pub use dyncon_primitives as primitives;
pub use dyncon_server as server;
pub use dyncon_shard as shard;
pub use dyncon_skiplist as skiplist;
pub use dyncon_spanning as spanning;
pub use dyncon_trace as trace;
