//! Layer probes, run only in the traced run: they time one layer in
//! isolation so its share of an end-to-end change can be told apart.

use crate::bulk::{DELTA, M, N};
use crate::gen::EdgeChurn;
use crate::spans::SpanLog;
use crate::stats::{median, Metrics};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_ett::EulerTourForest;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build the benchmark's rayon pool")
}

/// `executor.region_us`: an empty 4096-item `par_iter` on the 2-thread
/// pool, median of 400 regions.
fn region_us(log: &SpanLog) -> f64 {
    let two = pool(2);
    let mut us = Vec::with_capacity(400);
    for i in 0..400 {
        let started = Instant::now();
        two.install(|| {
            (0..4096usize).into_par_iter().for_each(|x| {
                black_box(x);
            })
        });
        us.push(started.elapsed().as_secs_f64() * 1e6);
        if i == 0 {
            log.record("par_iter_4096", "executor", 0, None, started);
        }
    }
    median(&us)
}

/// `executor.scaling_2v1`: the workload's delete batch of `delta` edges
/// on 1 thread over the same batch on 2 threads, on a warmed preload.
/// Steps alternate between the pools, `2 * DELTA` edges (at least 2
/// steps) on each; the ratio is of the medians.
fn scaling_2v1(seed: u64, delta: usize, log: &SpanLog) -> f64 {
    let (one, two) = (pool(1), pool(2));
    let mut churn = EdgeChurn::new(N, M, seed ^ 0x5ca1e);
    let mut g = two.install(|| {
        let mut g = BatchDynamicConnectivity::new(N);
        g.batch_insert(churn.edges());
        g
    });
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let steps = 1 + 2 * (2 * DELTA / delta).max(2);
    for step in 0..steps as u64 {
        let (deletes, inserts) = churn.step(delta);
        let (p, times) = match step {
            0 => (&two, None), // warm-up
            s if s % 2 == 1 => (&one, Some(&mut t1)),
            _ => (&two, Some(&mut t2)),
        };
        let started = Instant::now();
        let deleted = p.install(|| g.batch_delete(&deletes));
        assert_eq!(deleted, delta, "scaling probe: a live edge was not deleted");
        if let Some(t) = times {
            t.push(started.elapsed().as_secs_f64());
            log.record("batch_delete", "executor", step, None, started);
        }
        p.install(|| g.batch_insert(&inserts));
    }
    median(&t1) / median(&t2)
}

/// `ett.*`: `EulerTourForest` batch link, connected and cut in batches
/// of 8192 on a random spanning tree over `N` vertices.
fn ett(seed: u64, log: &SpanLog, out: &mut Metrics) {
    const BATCH: usize = 8192;
    let two = pool(2);
    let tree = dyncon_graphgen::random_tree(N, seed ^ 0xe77);
    let mut churn = EdgeChurn::new(N, 1, seed ^ 0xe78);
    let pairs = churn.pairs(16 * BATCH);
    let tree_bits = vec![true; BATCH];
    let mut forest = EulerTourForest::new(N, seed);
    two.install(|| {
        let started = Instant::now();
        for chunk in tree.chunks(BATCH) {
            forest.batch_link(chunk, &tree_bits[..chunk.len()]);
        }
        let link = started.elapsed().as_nanos() as f64 / tree.len() as f64;
        log.record("EulerTourForest::batch_link", "ett", 0, None, started);
        let started = Instant::now();
        let mut connected = 0usize;
        for chunk in pairs.chunks(BATCH) {
            connected += forest.batch_connected(chunk).iter().filter(|&&c| c).count();
        }
        let query = started.elapsed().as_nanos() as f64 / pairs.len() as f64;
        log.record("EulerTourForest::batch_connected", "ett", 0, None, started);
        assert_eq!(
            connected,
            pairs.len(),
            "a spanning tree connects every pair"
        );
        let started = Instant::now();
        for chunk in tree.chunks(BATCH) {
            forest.batch_cut(chunk);
        }
        let cut = started.elapsed().as_nanos() as f64 / tree.len() as f64;
        log.record("EulerTourForest::batch_cut", "ett", 0, None, started);
        assert_eq!(forest.num_edges(), 0, "every tree edge was cut");
        out.put("ett.link_ns_per_edge", link, "ns");
        out.put("ett.connected_ns_per_query", query, "ns");
        out.put("ett.cut_ns_per_edge", cut, "ns");
    });
}

/// Run every probe into `out`; `delta` is the workload's batch size.
pub fn run(seed: u64, delta: usize, log: &SpanLog, out: &mut Metrics) {
    out.put("executor.region_us", region_us(log), "us");
    out.put(
        "executor.scaling_2v1",
        scaling_2v1(seed, delta, log),
        "ratio",
    );
    ett(seed, log, out);
}
