//! # dyncon-shard — sharded serving with boundary-graph recombination
//!
//! Partitions the vertex universe across N shards, each a plain
//! [`BatchDynamic`](dyncon_api::BatchDynamic) backend over dense local
//! ids, and recombines global reachability through a **contracted
//! boundary graph**. The whole ensemble is itself a backend
//! ([`ShardedBackend`]), served by one
//! [`ConnServer`](dyncon_server::ConnServer) ([`ShardedServer`]).
//!
//! ## The model
//!
//! A deterministic [`ShardMap`] (balanced ranges or SplitMix64 hash)
//! assigns every vertex to one shard. Edges whose endpoints share a
//! shard live in that shard's backend, translated to a dense local id
//! space; edges spanning shards live in a dedicated cross-edge store.
//! The coordinator decomposes each mixed-op batch into per-shard
//! sub-batches, applies each non-empty one in canonical shard order
//! (the cross store last) on the writer's thread — each apply uses the
//! writer's whole rayon pool inside its batch ops — and answers queries
//! by local lookup plus the contraction invariant:
//!
//! > `u ~ v` globally **iff** they are locally connected in one shard,
//! > or each is locally connected to a *boundary component* (a local
//! > component containing a cross-edge endpoint) whose nodes are
//! > connected in the contraction of the cross-edge set.
//!
//! The boundary graph is a second, tiny
//! [`BatchDynamic`](dyncon_api::BatchDynamic) instance —
//! built with the same [`Builder`](dyncon_api::Builder) as the shards —
//! whose vertices are per-shard boundary-component labels and whose
//! edges are the cross edges contracted through those labels. It is
//! rebuilt lazily, only after a mutation segment actually changed some
//! edge set, and global aggregates fall out of it directly:
//! `components = Σ local components − (boundary nodes − boundary
//! components)`.
//!
//! Sub-batches are applied one after another rather than handed to
//! per-shard threads: for small requests a thread handoff costs more
//! than the shard's work, and large batches still parallelise inside
//! each batch op.
//!
//! ## Determinism
//!
//! End-to-end byte-determinism holds at **every** shard count and
//! thread count: the partition is a pure function of
//! `(num_vertices, shards, kind)`, decomposition preserves op order per
//! shard, shards are applied in canonical order, and the boundary graph
//! is built in canonical (sorted cross-edge) order. With
//! [`ShardConfig::deterministic`] on, a client observes byte-identical
//! [`BatchResult`](dyncon_api::BatchResult)s regardless of
//! `DYNCON_THREADS` or the shard count — proven against the
//! single-backend naive oracle in this repo's test suite.
//!
//! ## Durability
//!
//! [`ShardConfig::durable`] wires the server to one write-ahead log
//! ([`dyncon_durable::WalAttachment`], the same path a
//! [`DurableServer`](dyncon_durable::DurableServer) uses): each round
//! is logged once, in global ids, before it is applied, so a round is
//! atomic across shards — a torn final record loses the whole round on
//! every shard — and versions are WAL round ids that survive restarts.
//! Recovery replays the log through a fresh [`ShardedBackend`]; since
//! the snapshot and the log hold global edges, the partition is not
//! durable state and a directory may be reopened under any shard count
//! or [`ShardMapKind`].
//!
//! ## Metrics
//!
//! One [`Registry`](dyncon_metrics::Registry) is pooled across the
//! server, the WAL and the coordinator's own [`ShardMetrics`]
//! (`dyncon_shard_*`: decompose time, boundary ops, cross-shard
//! queries, rebuilds, sub-batches applied). All observational —
//! nothing is read back on a decision path.

mod backend;
mod map;
mod metrics;
mod server;

pub use backend::ShardedBackend;
pub use map::{ShardMap, ShardMapKind};
pub use metrics::ShardMetrics;
pub use server::{ShardConfig, ShardedServer};

// Re-exported so callers can match on failures without importing
// dyncon-api directly.
pub use dyncon_api::DynConError;
