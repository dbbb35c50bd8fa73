//! The sharded serving frontend.
//!
//! [`ShardedServer`] runs a [`ShardedBackend`] in one [`ConnServer`], so
//! clients get the familiar group-commit surface (tickets, coalescing,
//! deterministic mode, backpressure) while the writer applies each
//! admitted round to the shards' plain backends in turn. With
//! [`ShardConfig::durable`], the same server is wired to one write-ahead
//! log through a [`WalAttachment`]: each round is logged once,
//! in global ids, before it is applied. One metric registry is pooled
//! across the server, the WAL and the coordinator.

use crate::backend::ShardedBackend;
use crate::map::ShardMapKind;
use dyncon_api::{BatchDynamic, BuildFrom, DynConError, ExportEdges, Op};
use dyncon_api::{ReadView, Version, VersionedRead};
use dyncon_durable::{DurableConfig, WalAttachment};
use dyncon_export::HealthState;
use dyncon_metrics::{MetricsSnapshot, Registry};
use dyncon_server::{ConnServer, ReadHandle, ServerConfig, ServiceReport, SubmitOptions, Ticket};
use dyncon_trace::TraceRecorder;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of a [`ShardedServer`]: the partition shape, the
/// server's admission knobs, and optional durability.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    pub(crate) shards: usize,
    pub(crate) kind: ShardMapKind,
    pub(crate) deterministic: bool,
    pub(crate) record_rounds: bool,
    pub(crate) max_batch_ops: usize,
    pub(crate) max_coalesce_wait: Duration,
    pub(crate) queue_capacity: usize,
    pub(crate) shard_worker_threads: Option<usize>,
    pub(crate) retain_views: usize,
    pub(crate) reader_threads: usize,
    pub(crate) metrics: Option<Registry>,
    pub(crate) trace: Option<TraceRecorder>,
    pub(crate) health: Option<HealthState>,
    pub(crate) durable: Option<(PathBuf, DurableConfig)>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            kind: ShardMapKind::Hash,
            deterministic: false,
            record_rounds: false,
            max_batch_ops: 4096,
            max_coalesce_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            shard_worker_threads: None,
            retain_views: 0,
            reader_threads: 0,
            metrics: None,
            trace: None,
            health: None,
            durable: None,
        }
    }
}

impl ShardConfig {
    /// Two hash shards, throughput-mode admission, in-memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (≥ 1, ≤ the vertex count).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The partition scheme ([`ShardMapKind::Hash`] by default).
    pub fn kind(mut self, kind: ShardMapKind) -> Self {
        self.kind = kind;
        self
    }

    /// Deterministic mode: explicit round sealing and canonical
    /// `(client, seq)` admission order. Combined with the canonical
    /// decomposition, results are byte-identical across thread counts
    /// and shard counts.
    pub fn deterministic(mut self, yes: bool) -> Self {
        self.deterministic = yes;
        self
    }

    /// Record the per-round replay log.
    pub fn record_rounds(mut self, yes: bool) -> Self {
        self.record_rounds = yes;
        self
    }

    /// Round size cap.
    pub fn batch_cap(mut self, ops: usize) -> Self {
        self.max_batch_ops = ops;
        self
    }

    /// Coalescing window.
    pub fn coalesce_wait(mut self, wait: Duration) -> Self {
        self.max_coalesce_wait = wait;
        self
    }

    /// Admission queue capacity (requests, for backpressure).
    pub fn queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = requests;
        self
    }

    /// Rayon pool size of the writer, which applies every shard's
    /// sub-batch (and the cross store's) in turn, each using the whole
    /// pool inside its batch ops. `None` inherits
    /// `DYNCON_THREADS`/core count.
    pub fn shard_worker_threads(mut self, threads: usize) -> Self {
        self.shard_worker_threads = Some(threads);
        self
    }

    /// Enable MVCC versioned reads: after every commit round the writer
    /// exports the global edge set (every shard and the boundary graph
    /// at that same version) and retains it as that [`Version`]'s
    /// snapshot, keeping the last `versions` of them (0, the default,
    /// disables publication; see
    /// [`dyncon_server::ServerConfig::retain_views`]).
    pub fn retain_views(mut self, versions: usize) -> Self {
        self.retain_views = versions;
        self
    }

    /// Reader threads serving [`ShardedServer::read_async`] off the
    /// commit path (0, the default, runs reads inline). See
    /// [`dyncon_server::ServerConfig::reader_threads`].
    pub fn reader_threads(mut self, threads: usize) -> Self {
        self.reader_threads = threads;
        self
    }

    /// Pool all metrics (server, WAL, coordinator) in this registry
    /// instead of a fresh one.
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a [`TraceRecorder`]: the writer records its own pipeline
    /// stages (coalesce wait, WAL, apply, publish, fill), and the
    /// coordinator attributes each round's work inside apply —
    /// decompose, one span per non-empty shard sub-batch, the cross
    /// store's sub-batch, lazy boundary rebuilds, and cross-shard query
    /// resolution. Observational only; see
    /// [`dyncon_server::ServerConfig::trace`].
    pub fn trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Feed the server's liveness signals (writer heartbeat, queue
    /// depth, backpressure, SLO grading of rounds) into this health
    /// engine. Observational only; see
    /// [`dyncon_server::ServerConfig::health`].
    pub fn health(mut self, health: HealthState) -> Self {
        self.health = Some(health);
        self
    }

    /// Persist under `dir`: one WAL logging every round in global ids,
    /// plus a snapshot of the global edge set, recovered on start. The
    /// partition is not durable state, so a directory may be reopened
    /// with any shard count or [`ShardMapKind`]; the vertex count must
    /// match. See [`dyncon_durable`] for the log format
    /// and crash-consistency model.
    pub fn durable(mut self, dir: impl Into<PathBuf>, durable: DurableConfig) -> Self {
        self.durable = Some((dir.into(), durable));
        self
    }
}

/// A sharded group-commit connectivity service: a [`ConnServer`]
/// admitting client traffic over a [`ShardedBackend`], which decomposes
/// each round into per-shard sub-batches and recombines cross-shard
/// reachability through a contracted boundary graph.
pub struct ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    inner: ConnServer<ShardedBackend<B>>,
    wal: Option<WalAttachment>,
    registry: Registry,
    num_shards: usize,
}

impl<B> ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// Partition `num_vertices` per `config`, recover the durable
    /// directory if one is configured, and start serving.
    pub fn start(num_vertices: usize, config: ShardConfig) -> Result<Self, DynConError> {
        let registry = config.metrics.clone().unwrap_or_default();
        let mut server_config = ServerConfig::new()
            .batch_cap(config.max_batch_ops)
            .coalesce_wait(config.max_coalesce_wait)
            .queue_capacity(config.queue_capacity)
            .deterministic(config.deterministic)
            .record_rounds(config.record_rounds)
            .retain_views(config.retain_views)
            .reader_threads(config.reader_threads)
            .metrics(registry.clone());
        if let Some(threads) = config.shard_worker_threads {
            server_config = server_config.worker_threads(threads);
        }
        if let Some(trace) = config.trace.clone() {
            server_config = server_config.trace(trace);
        }
        if let Some(health) = config.health.clone() {
            server_config = server_config.health(health);
        }
        let build = || ShardedBackend::new(num_vertices, &config, registry.clone());
        let (mut backend, server_config, wal) = match &config.durable {
            None => (build()?, server_config, None),
            Some((dir, durable)) => {
                let (wal, backend, server_config) =
                    WalAttachment::open(dir, num_vertices, server_config, durable, build)?;
                (backend, server_config, Some(wal))
            }
        };
        // Attached only now, so recovery replay (which runs before the
        // writer, outside any round) records no spans.
        backend.trace = config.trace.clone();
        let num_shards = backend.shard_map().num_shards();
        let inner = if config.retain_views > 0 {
            ConnServer::start_versioned(backend, server_config)
        } else {
            ConnServer::start(backend, server_config)
        };
        Ok(Self {
            inner,
            wal,
            registry,
            num_shards,
        })
    }

    /// The underlying server, for generic harnesses that drive a
    /// [`ConnServer`] (load generators, replay tools).
    pub fn conn(&self) -> &ConnServer<ShardedBackend<B>> {
        &self.inner
    }

    /// Size of the global vertex universe.
    pub fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    /// Number of shards serving it.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Submit a batch under a fresh client id.
    pub fn submit(&self, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.inner.submit(ops)
    }

    /// Submit a batch under an explicit client id (deterministic mode
    /// orders admitted requests by `(client, seq)`).
    pub fn submit_as(&self, client: u64, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.inner.submit_as(client, ops)
    }

    /// Blocking submit under a fresh client id.
    pub fn submit_blocking(&self, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.inner.submit_blocking(ops)
    }

    /// Blocking submit under an explicit client id.
    pub fn submit_blocking_as(&self, client: u64, ops: Vec<Op>) -> Result<Ticket, DynConError> {
        self.inner.submit_blocking_as(client, ops)
    }

    /// See [`ConnServer::submit_with`]. On a durable server versions are
    /// WAL round ids, so they survive restarts.
    pub fn submit_with(&self, ops: Vec<Op>, options: SubmitOptions) -> Result<Ticket, DynConError> {
        self.inner.submit_with(ops, options)
    }

    /// Seal the current round (deterministic mode's commit trigger).
    /// Returns how many requests the sealed round holds.
    pub fn seal_round(&self) -> usize {
        self.inner.seal_round()
    }

    /// The newest committed version; on a durable server, after
    /// recovery, at least the recovered WAL round id.
    pub fn newest_committed(&self) -> Option<Version> {
        self.inner.newest_committed()
    }

    /// See [`ConnServer::read_async`]. Requires
    /// [`ShardConfig::retain_views`] > 0.
    pub fn read_async<R, F>(&self, f: F) -> ReadHandle<Result<R, DynConError>>
    where
        R: Send + 'static,
        F: FnOnce(&ReadView) -> R + Send + 'static,
    {
        self.inner.read_async(f)
    }

    /// See [`ConnServer::read_async_at`].
    pub fn read_async_at<R, F>(&self, version: Version, f: F) -> ReadHandle<Result<R, DynConError>>
    where
        R: Send + 'static,
        F: FnOnce(&ReadView) -> R + Send + 'static,
    {
        self.inner.read_async_at(version, f)
    }

    /// Run a read-only closure against the sharded backend between
    /// rounds.
    pub fn inspect<R, F>(&self, f: F) -> Result<R, DynConError>
    where
        R: Send + 'static,
        F: FnOnce(&ShardedBackend<B>) -> R + Send + 'static,
    {
        self.inner.inspect(f)
    }

    /// Commit rounds so far (this process; excludes recovered rounds).
    pub fn rounds_committed(&self) -> u64 {
        self.inner.rounds_committed()
    }

    /// Operations committed so far (this process).
    pub fn ops_committed(&self) -> u64 {
        self.inner.ops_committed()
    }

    /// Snapshot the pooled registry (server + WAL + coordinator).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Stop accepting work and drain; on a durable server, also make the
    /// log durable and (per [`DurableConfig::compact_on_join`]) compact
    /// it. Fails if that final sync or compaction fails.
    pub fn join(self) -> Result<ServiceReport<ShardedBackend<B>>, DynConError> {
        let mut report = self.inner.join();
        if let Some(wal) = &self.wal {
            wal.finish(&report.backend)?;
        }
        // Re-freeze: the final sync and compaction belong in the report.
        report.metrics = self.registry.snapshot();
        Ok(report)
    }
}

impl<B> VersionedRead for ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// The retained window of versions. Each retained view is a globally
    /// consistent snapshot: all shards and the boundary graph at the
    /// same version (the writer exports between rounds).
    fn version_window(&self) -> Option<(Version, Version)> {
        self.inner.version_window()
    }

    fn read_view(&self) -> Result<ReadView, DynConError> {
        self.inner.read_view()
    }

    fn read_view_at(&self, version: Version) -> Result<ReadView, DynConError> {
        self.inner.read_view_at(version)
    }
}
