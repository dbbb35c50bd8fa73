//! `Timed<B>`: a backend that forwards every call to `B` and records a
//! span around each core batch call. It is the benchmark's way of timing
//! the core layer from outside when the serving layers own the backend,
//! in the serving probe of the traced run.

use crate::spans::SpanLog;
use dyncon_api::{
    BatchDynamic, BuildFrom, Builder, Connectivity, DynConError, ExportEdges, OpKind,
};
use dyncon_core::{BatchDynamicConnectivity, Stats};
use std::sync::LazyLock;
use std::time::Instant;

/// Core-call spans of the traced run (a process runs at most one).
pub static CORE_SPANS: LazyLock<SpanLog> = LazyLock::new(SpanLog::default);

pub struct Timed<B>(pub B);

fn timed<R>(name: &'static str, ops: usize, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    CORE_SPANS.record(name, "core", ops as u64, None, started);
    out
}

impl<B: Connectivity> Connectivity for Timed<B> {
    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn connected(&self, u: u32, v: u32) -> bool {
        self.0.connected(u, v)
    }
    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        timed("batch_connected", pairs.len(), || {
            self.0.batch_connected(pairs)
        })
    }
    fn num_components(&self) -> usize {
        self.0.num_components()
    }
    fn component_size(&self, v: u32) -> u64 {
        self.0.component_size(v)
    }
}

impl<B: BatchDynamic> BatchDynamic for Timed<B> {
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        timed("batch_insert", edges.len(), || self.0.batch_insert(edges))
    }
    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        timed("batch_delete", edges.len(), || self.0.batch_delete(edges))
    }
    fn supports(&self, kind: OpKind) -> bool {
        self.0.supports(kind)
    }
    fn check(&self) -> Result<(), String> {
        self.0.check()
    }
}

impl<B: ExportEdges> ExportEdges for Timed<B> {
    fn export_edges(&self) -> Vec<(u32, u32)> {
        self.0.export_edges()
    }
}

impl<B: BuildFrom> BuildFrom for Timed<B> {
    fn build_from(builder: &Builder) -> Result<Self, DynConError> {
        B::build_from(builder).map(Timed)
    }
}

/// The backend the serving probe runs on.
pub type Traced = Timed<BatchDynamicConnectivity>;

/// `a - b` for the counters the ledger derives ratios from.
pub fn sub_stats(a: &Stats, b: &Stats) -> Stats {
    Stats {
        edges_inserted: a.edges_inserted - b.edges_inserted,
        edges_deleted: a.edges_deleted - b.edges_deleted,
        tree_edges_deleted: a.tree_edges_deleted - b.tree_edges_deleted,
        queries: a.queries - b.queries,
        levels_searched: a.levels_searched - b.levels_searched,
        rounds: a.rounds - b.rounds,
        phases: a.phases - b.phases,
        edges_examined: a.edges_examined - b.edges_examined,
        nontree_pushes: a.nontree_pushes - b.nontree_pushes,
        tree_pushes: a.tree_pushes - b.tree_pushes,
        replacements: a.replacements - b.replacements,
        max_phases_in_level: a.max_phases_in_level,
    }
}

/// The core ledger ratios from a `Stats` delta.
pub fn core_ratios(d: &Stats, out: &mut crate::stats::Metrics) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.put(
        "core.tree_delete_share",
        ratio(d.tree_edges_deleted, d.edges_deleted),
        "fraction",
    );
    out.put(
        "core.levels_per_tree_delete",
        ratio(d.levels_searched, d.tree_edges_deleted),
        "levels",
    );
    out.put(
        "core.examined_per_tree_delete",
        ratio(d.edges_examined, d.tree_edges_deleted),
        "edges",
    );
    out.put(
        "core.replacement_yield",
        ratio(d.replacements, d.edges_examined),
        "fraction",
    );
    out.put(
        "core.pushes_per_update",
        ratio(d.total_pushes(), d.edges_inserted + d.edges_deleted),
        "pushes",
    );
}
