//! The shard coordinator as a composable backend.
//!
//! [`ShardedBackend`] implements the workspace's own trait surface
//! ([`Connectivity`] + [`BatchDynamic`] + [`ExportEdges`]) over N plain
//! per-shard backends plus a cross-edge store, so the whole sharded
//! ensemble drops into anything that takes a backend — differential test
//! panels, snapshots, recovery, and (the intended use) the serving
//! layer's writer, which is exactly where [`crate::ShardedServer`] runs
//! it.

use crate::map::ShardMap;
use crate::metrics::ShardMetrics;
use crate::server::ShardConfig;
use dyncon_api::{
    component_groups, validate_vertex, BatchDynamic, BatchResult, BuildFrom, Builder, Connectivity,
    DynConError, ExportEdges, Op, OpKind,
};
use dyncon_metrics::Registry;
use dyncon_trace::{Stage, TraceRecorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The lazily rebuilt contraction of cross-shard connectivity.
///
/// Vertices ("boundary nodes") are the per-shard local components that
/// contain at least one cross-edge endpoint, identified by their
/// **representative**: the smallest local id among the component's
/// cross-edge endpoints. Node ids are assigned shard-major over the
/// ascending representative lists, and each cross edge contracts to the
/// edge between its endpoints' nodes — all canonical, so the rebuilt
/// graph is a pure function of the shard states and the cross-edge set.
struct BoundaryCache<B> {
    /// False whenever a mutation segment changed any edge set since the
    /// last rebuild.
    fresh: bool,
    /// Per shard: ascending local-id representatives of its boundary
    /// components.
    reps: Vec<Vec<u32>>,
    /// Node id of `reps[s][0]` (shard-major prefix sums).
    offsets: Vec<usize>,
    /// Total boundary nodes.
    nodes: usize,
    /// The contracted graph over `nodes` vertices (`None` when there are
    /// no cross edges at all).
    graph: Option<B>,
}

impl<B> BoundaryCache<B> {
    fn stale(shards: usize) -> Self {
        Self {
            fresh: false,
            reps: vec![Vec::new(); shards],
            offsets: vec![0; shards],
            nodes: 0,
            graph: None,
        }
    }
}

/// A sharded connectivity backend: the vertex universe is partitioned by
/// a deterministic [`ShardMap`], intra-shard edges live in per-shard
/// backends over dense local ids, cross-shard edges live in a dedicated
/// store, and global reachability is recombined through the contracted
/// boundary graph:
///
/// `u ~ v` globally iff they are locally connected in one shard, **or**
/// each is locally connected to some boundary component whose nodes are
/// connected in the contraction of the cross-edge set.
///
/// Each mutation segment (a run of non-query ops) decomposes into at
/// most one sub-batch per shard plus one for the cross store, applied
/// with [`BatchDynamic::apply`] in canonical shard order on the caller's
/// thread; each apply uses the caller's whole rayon pool inside its
/// batch ops. Queries resolve locally first and fall back to the
/// boundary graph. Determinism is end-to-end: canonical shard order,
/// order-preserving decomposition and canonical boundary construction
/// make every [`BatchResult`] byte-identical across thread and shard
/// counts.
///
/// A sub-batch that fails mid-segment leaves the sub-batches before it
/// applied — the partial-application semantics of
/// [`BatchDynamic::apply`], per sub-batch instead of per run. Durable
/// serving logs the whole round before applying it, so a crash
/// never leaves such a prefix on disk.
pub struct ShardedBackend<B> {
    map: ShardMap,
    shards: Vec<B>,
    /// The cross-edge store: a B over the full **global** universe that
    /// holds exactly the edges whose endpoints live on different shards.
    cross: B,
    boundary: Mutex<BoundaryCache<B>>,
    metrics: Arc<ShardMetrics>,
    /// The serving writer's recorder, attached by
    /// [`crate::ShardedServer`]: the coordinator runs inside that
    /// writer's apply, so spans are attributed to
    /// [`TraceRecorder::current_round`], which the writer sets before
    /// each round.
    pub(crate) trace: Option<TraceRecorder>,
}

impl<B> ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges,
{
    /// Partition `num_vertices` per `config` and build every shard's
    /// backend (plus the cross-edge store) empty, registering the
    /// coordinator metrics in `registry`.
    pub fn new(
        num_vertices: usize,
        config: &ShardConfig,
        registry: Registry,
    ) -> Result<Self, DynConError> {
        let map = ShardMap::new(num_vertices, config.shards, config.kind)?;
        // A hash partition can leave a shard without vertices; its
        // backend still needs a non-empty universe (one dummy vertex no
        // operation ever routes to).
        let shards = (0..map.num_shards())
            .map(|s| Builder::new(map.shard_size(s).max(1)).build())
            .collect::<Result<Vec<B>, _>>()?;
        let cross = Builder::new(num_vertices).build()?;
        let boundary = Mutex::new(BoundaryCache::stale(map.num_shards()));
        Ok(Self {
            map,
            shards,
            cross,
            boundary,
            metrics: ShardMetrics::register(&registry),
            trace: None,
        })
    }

    /// The partition in force.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The coordinator's metric handles (pooled in the registry passed
    /// to [`ShardedBackend::new`]).
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// Translate a mutation op's endpoints to a shard's local id space.
    fn to_local(&self, op: Op) -> Op {
        let (u, v) = op.endpoints();
        let (lu, lv) = (self.map.local_of(u), self.map.local_of(v));
        match op {
            Op::Insert(..) => Op::Insert(lu, lv),
            Op::Delete(..) => Op::Delete(lu, lv),
            Op::Query(..) => Op::Query(lu, lv),
        }
    }

    /// Execute one mutation segment (a run of non-query ops): decompose
    /// into per-shard sub-batches plus the cross-shard batch, then apply
    /// each non-empty one in canonical shard order, the cross store last.
    fn run_mutation_segment(&mut self, segment: &[Op]) -> Result<(usize, usize), DynConError> {
        // Spans attribute to the round in flight: the segment runs
        // inside the writer's apply, which set `current_round`.
        let round = self.trace.as_ref().map(|t| t.current_round());
        let started = Instant::now();
        let mut sub_batches: Vec<Vec<Op>> = vec![Vec::new(); self.map.num_shards() + 1];
        let cross_slot = self.map.num_shards();
        for &op in segment {
            let (u, v) = op.endpoints();
            if self.map.is_cross(u, v) {
                sub_batches[cross_slot].push(op);
            } else {
                sub_batches[self.map.shard_of(u)].push(self.to_local(op));
            }
        }
        self.metrics.decompose_ns.record_duration(started.elapsed());
        if let (Some(t), Some(round)) = (&self.trace, round) {
            t.record(round, Stage::Decompose, started, segment.len() as u64);
        }
        // Stale until the segment is known to have changed nothing, so a
        // sub-batch failing part-way never leaves the old contraction.
        let fresh = &mut self
            .boundary
            .get_mut()
            .expect("boundary lock poisoned")
            .fresh;
        let was_fresh = std::mem::replace(fresh, false);
        let (mut inserted, mut deleted) = (0usize, 0usize);
        for (s, ops) in sub_batches.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let started = Instant::now();
            let backend = self.shards.get_mut(s).unwrap_or(&mut self.cross);
            let result = backend.apply(ops)?;
            self.metrics.subrounds.inc();
            if let (Some(t), Some(round)) = (&self.trace, round) {
                let ops_n = ops.len() as u64;
                if s == cross_slot {
                    t.record(round, Stage::CrossRound, started, ops_n);
                } else {
                    t.record_shard(round, Stage::ShardRound, started, ops_n, s as u32);
                }
            }
            inserted += result.inserted;
            deleted += result.deleted;
        }
        // Zero counts mean every insert was a duplicate and every delete
        // was absent: edge sets unchanged, so the contraction is as valid
        // as it was.
        *fresh = was_fresh && inserted + deleted == 0;
        Ok((inserted, deleted))
    }

    /// Rebuild the boundary contraction if any mutation staled it.
    fn ensure_boundary(&self, cache: &mut BoundaryCache<B>) -> Result<(), DynConError> {
        if cache.fresh {
            return Ok(());
        }
        let rebuild_started = self.trace.as_ref().map(|_| Instant::now());
        let cross_edges = self.cross.export_edges();
        // Distinct cross-edge endpoints per shard, ascending local ids —
        // the canonical input order `component_groups` labels against.
        let mut endpoints: Vec<Vec<u32>> = vec![Vec::new(); self.map.num_shards()];
        for &(u, v) in &cross_edges {
            endpoints[self.map.shard_of(u)].push(self.map.local_of(u));
            endpoints[self.map.shard_of(v)].push(self.map.local_of(v));
        }
        let mut reps: Vec<Vec<u32>> = Vec::with_capacity(endpoints.len());
        let mut labelled: Vec<Vec<(u32, u32)>> = Vec::with_capacity(endpoints.len());
        for (s, mut eps) in endpoints.into_iter().enumerate() {
            eps.sort_unstable();
            eps.dedup();
            let labels = component_groups(&self.shards[s], &eps);
            // Sorted input ⇒ each label is its component's minimum
            // endpoint, so the distinct labels are already the ascending
            // representative list.
            let mut r = labels.clone();
            r.sort_unstable();
            r.dedup();
            labelled.push(eps.into_iter().zip(labels).collect());
            reps.push(r);
        }
        let mut offsets = Vec::with_capacity(reps.len());
        let mut nodes = 0usize;
        for r in &reps {
            offsets.push(nodes);
            nodes += r.len();
        }
        let graph = if nodes == 0 {
            None
        } else {
            // Endpoint → node, per shard (every cross-edge endpoint has
            // a node by construction).
            let node_of: Vec<HashMap<u32, u32>> = labelled
                .iter()
                .enumerate()
                .map(|(s, pairs)| {
                    pairs
                        .iter()
                        .map(|&(endpoint, label)| {
                            let pos = reps[s]
                                .binary_search(&label)
                                .expect("every label is a representative");
                            (endpoint, (offsets[s] + pos) as u32)
                        })
                        .collect()
                })
                .collect();
            let mut g: B = Builder::new(nodes).build()?;
            // Contract in the cross store's canonical (sorted) edge
            // order; node pairs are normalized explicitly because the
            // shard-major node numbering need not follow global order.
            let contracted: Vec<(u32, u32)> = cross_edges
                .iter()
                .map(|&(u, v)| {
                    let nu = node_of[self.map.shard_of(u)][&self.map.local_of(u)];
                    let nv = node_of[self.map.shard_of(v)][&self.map.local_of(v)];
                    (nu.min(nv), nu.max(nv))
                })
                .collect();
            g.batch_insert(&contracted)?;
            self.metrics.boundary_ops.record(contracted.len() as u64);
            Some(g)
        };
        self.metrics.boundary_rebuilds.inc();
        if let (Some(t), Some(started)) = (&self.trace, rebuild_started) {
            t.record(
                t.current_round(),
                Stage::BoundaryRebuild,
                started,
                cross_edges.len() as u64,
            );
        }
        *cache = BoundaryCache {
            fresh: true,
            reps,
            offsets,
            nodes,
            graph,
        };
        Ok(())
    }

    /// Map each of `locals` (ascending local ids in shard `s`) to its
    /// boundary node, if its local component holds one.
    fn nodes_of(&self, cache: &BoundaryCache<B>, s: usize, locals: &[u32]) -> Vec<Option<u32>> {
        if cache.reps[s].is_empty() {
            return vec![None; locals.len()];
        }
        // Representatives first: any queried vertex locally connected to
        // a boundary component gets that component's representative as
        // its label (reps are pairwise disconnected, and each precedes
        // every queried vertex in input order).
        let mut input = cache.reps[s].clone();
        input.extend_from_slice(locals);
        component_groups(&self.shards[s], &input)[cache.reps[s].len()..]
            .iter()
            .map(|label| {
                cache.reps[s]
                    .binary_search(label)
                    .ok()
                    .map(|pos| (cache.offsets[s] + pos) as u32)
            })
            .collect()
    }

    /// Answer a query run: same-shard pairs locally first, everything
    /// still unresolved through the boundary graph.
    fn try_batch_connected(&self, pairs: &[(u32, u32)]) -> Result<Vec<bool>, DynConError> {
        let mut answers = vec![false; pairs.len()];
        let mut local: Vec<Vec<(usize, (u32, u32))>> = vec![Vec::new(); self.map.num_shards()];
        let mut unresolved: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if self.map.is_cross(u, v) {
                unresolved.push(i);
            } else {
                local[self.map.shard_of(u)].push((i, (self.map.local_of(u), self.map.local_of(v))));
            }
        }
        for (s, items) in local.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let queries: Vec<(u32, u32)> = items.iter().map(|&(_, p)| p).collect();
            let local_answers = self.shards[s].batch_connected(&queries);
            for (&(i, _), hit) in items.iter().zip(local_answers) {
                if hit {
                    answers[i] = true;
                } else {
                    // Locally disconnected pairs can still meet through
                    // other shards — boundary resolution decides.
                    unresolved.push(i);
                }
            }
        }
        if unresolved.is_empty() {
            return Ok(answers);
        }
        unresolved.sort_unstable();
        self.metrics.cross_queries.record(unresolved.len() as u64);
        let round = self.trace.as_ref().map_or(0, |t| t.current_round());
        dyncon_trace::traced(
            self.trace.as_ref(),
            round,
            Stage::CrossQuery,
            unresolved.len() as u64,
            || -> Result<(), DynConError> {
                let mut cache = self.boundary.lock().expect("boundary lock poisoned");
                self.ensure_boundary(&mut cache)?;
                if cache.nodes == 0 {
                    // No cross edges anywhere: nothing unresolved can
                    // connect.
                    return Ok(());
                }
                // Resolve each distinct queried endpoint to its boundary
                // node.
                let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.map.num_shards()];
                for &i in &unresolved {
                    for u in [pairs[i].0, pairs[i].1] {
                        per_shard[self.map.shard_of(u)].push(self.map.local_of(u));
                    }
                }
                let mut node_of: HashMap<u32, u32> = HashMap::new();
                for (s, mut locals) in per_shard.into_iter().enumerate() {
                    if locals.is_empty() {
                        continue;
                    }
                    locals.sort_unstable();
                    locals.dedup();
                    for (&local_id, node) in locals.iter().zip(self.nodes_of(&cache, s, &locals)) {
                        if let Some(node) = node {
                            node_of.insert(self.map.globals(s)[local_id as usize], node);
                        }
                    }
                }
                let graph = cache.graph.as_ref().expect("nodes > 0 implies a graph");
                let mut boundary_pairs: Vec<(u32, u32)> = Vec::new();
                let mut boundary_slots: Vec<usize> = Vec::new();
                for &i in &unresolved {
                    let (u, v) = pairs[i];
                    // An endpoint with no boundary node lives in a
                    // component confined to its shard — and it was not
                    // locally connected.
                    if let (Some(&nu), Some(&nv)) = (node_of.get(&u), node_of.get(&v)) {
                        boundary_pairs.push((nu, nv));
                        boundary_slots.push(i);
                    }
                }
                for (&i, hit) in boundary_slots
                    .iter()
                    .zip(graph.batch_connected(&boundary_pairs))
                {
                    answers[i] = hit;
                }
                Ok(())
            },
        )?;
        Ok(answers)
    }
}

impl<B> Connectivity for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges,
{
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn num_vertices(&self) -> usize {
        self.map.num_vertices()
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.batch_connected(&[(u, v)])[0]
    }

    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        // The `&self` query surface is the unchecked fast path; a failed
        // boundary rebuild is a panic, like any other internal invariant
        // violation on this path.
        self.try_batch_connected(pairs)
            .expect("sharded batch_connected: boundary rebuild failed")
    }

    fn num_components(&self) -> usize {
        // Each cross-edge merge collapses boundary nodes into boundary
        // components: Σ local components − (nodes − contracted comps).
        let total: usize = (0..self.shards.len())
            .filter(|&s| self.map.shard_size(s) > 0)
            .map(|s| self.shards[s].num_components())
            .sum();
        let mut cache = self.boundary.lock().expect("boundary lock poisoned");
        self.ensure_boundary(&mut cache)
            .expect("sharded num_components: boundary rebuild failed");
        match &cache.graph {
            None => total,
            Some(g) => total - (cache.nodes - g.num_components()),
        }
    }

    fn component_size(&self, v: u32) -> u64 {
        let s = self.map.shard_of(v);
        let local = self.map.local_of(v);
        let mut cache = self.boundary.lock().expect("boundary lock poisoned");
        self.ensure_boundary(&mut cache)
            .expect("sharded component_size: boundary rebuild failed");
        let Some(node) = self.nodes_of(&cache, s, &[local])[0] else {
            return self.shards[s].component_size(local);
        };
        // v's global component is the disjoint union of the local
        // components of every boundary node reachable from v's node.
        let graph = cache.graph.as_ref().expect("a node implies a graph");
        let probes: Vec<(u32, u32)> = (0..cache.nodes as u32).map(|m| (node, m)).collect();
        let reachable = graph.batch_connected(&probes);
        let mut total = 0u64;
        for (s2, shard) in self.shards.iter().enumerate() {
            total += cache.reps[s2]
                .iter()
                .enumerate()
                .filter(|&(pos, _)| reachable[cache.offsets[s2] + pos])
                .map(|(_, &rep)| shard.component_size(rep))
                .sum::<u64>();
        }
        total
    }
}

impl<B> BatchDynamic for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges,
{
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        let ops: Vec<Op> = edges.iter().map(|&(u, v)| Op::Insert(u, v)).collect();
        self.apply(&ops).map(|r| r.inserted)
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        let ops: Vec<Op> = edges.iter().map(|&(u, v)| Op::Delete(u, v)).collect();
        self.apply(&ops).map(|r| r.deleted)
    }

    fn apply(&mut self, ops: &[Op]) -> Result<BatchResult, DynConError> {
        let n = self.map.num_vertices();
        for op in ops {
            let (u, v) = op.endpoints();
            validate_vertex(n, u)?;
            validate_vertex(n, v)?;
        }
        // Same run boundaries as the default `apply`, but mutation runs
        // of different kinds share one decomposition segment: each shard
        // applies its sub-batch as a mixed-op batch, splitting runs
        // itself, so the order of effects is identical — and queries
        // still observe exactly the prefix before their run.
        let mut result = BatchResult::default();
        let mut i = 0;
        while i < ops.len() {
            if ops[i].kind() == OpKind::Query {
                let mut run: Vec<(u32, u32)> = Vec::new();
                while i < ops.len() && ops[i].kind() == OpKind::Query {
                    run.push(ops[i].endpoints());
                    i += 1;
                }
                result.answers.extend(self.try_batch_connected(&run)?);
            } else {
                let start = i;
                while i < ops.len() && ops[i].kind() != OpKind::Query {
                    i += 1;
                }
                let (inserted, deleted) = self.run_mutation_segment(&ops[start..i])?;
                result.inserted += inserted;
                result.deleted += deleted;
            }
        }
        Ok(result)
    }

    fn supports(&self, kind: OpKind) -> bool {
        // A static capability of B, which the cross store is an instance
        // of.
        self.cross.supports(kind)
    }

    fn check(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard.check().map_err(|e| format!("shard {s}: {e}"))?;
        }
        self.cross.check().map_err(|e| format!("cross store: {e}"))
    }
}

impl<B> ExportEdges for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges,
{
    fn export_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let globals = self.map.globals(s);
            // Local ids ascend with global ids, so locally-normalized
            // pairs stay normalized after translation.
            edges.extend(
                shard
                    .export_edges()
                    .iter()
                    .map(|&(a, b)| (globals[a as usize], globals[b as usize])),
            );
        }
        edges.extend(self.cross.export_edges());
        edges.sort_unstable();
        edges
    }
}
