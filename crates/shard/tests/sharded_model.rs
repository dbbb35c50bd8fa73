//! Differential model tests: a [`ShardedBackend`] over the paper
//! structure, at several shard counts and both partition kinds, must
//! agree **byte-for-byte** with the single-backend naive oracle on
//! mixed-op batches that deliberately span shard boundaries.

use dyncon_api::{BatchDynamic, Connectivity, ExportEdges, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_metrics::Registry;
use dyncon_primitives::SplitMix64;
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedBackend};
use dyncon_spanning::NaiveDynamicGraph;

fn sharded(
    n: usize,
    shards: usize,
    kind: ShardMapKind,
) -> ShardedBackend<BatchDynamicConnectivity> {
    let config = ShardConfig::new().shards(shards).kind(kind);
    ShardedBackend::new(n, &config, Registry::new()).expect("build sharded backend")
}

/// A mixed-op batch stream biased toward boundary-crossing edges: under
/// a range partition of 24 vertices into `shards` shards, endpoints are
/// drawn uniformly, so roughly `1 - 1/shards` of edges cross.
fn mixed_batches(n: u32, seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<Op>> {
    let rng = SplitMix64::new(seed);
    let mut at = 0u64;
    let mut next = || {
        at += 1;
        rng.at(at)
    };
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let u = (next() % n as u64) as u32;
                    let mut v = (next() % n as u64) as u32;
                    if u == v {
                        v = (v + 1) % n;
                    }
                    match next() % 10 {
                        0..=4 => Op::Insert(u, v),
                        5..=6 => Op::Delete(u, v),
                        _ => Op::Query(u, v),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn agrees_with_naive_oracle_across_shard_counts_and_kinds() {
    let n = 24usize;
    for kind in [ShardMapKind::Range, ShardMapKind::Hash] {
        for shards in [1usize, 2, 3, 5] {
            let mut sut = sharded(n, shards, kind);
            let mut oracle = NaiveDynamicGraph::new(n);
            for (i, batch) in mixed_batches(n as u32, 0xC0FFEE, 12, 40).iter().enumerate() {
                let got = sut.apply(batch).expect("sharded apply");
                let want = oracle.apply(batch).expect("oracle apply");
                assert_eq!(
                    got, want,
                    "batch {i} diverged at {kind:?} x {shards} shards"
                );
                assert_eq!(
                    sut.export_edges(),
                    oracle.export_edges(),
                    "edge set diverged at batch {i}, {kind:?} x {shards} shards"
                );
                assert_eq!(
                    sut.num_components(),
                    oracle.num_components(),
                    "component count diverged at batch {i}, {kind:?} x {shards}"
                );
            }
            sut.check().expect("sharded invariants");
        }
    }
}

#[test]
fn component_size_spans_shards() {
    // Path 0-1-2-3-4-5 under a 3-shard range partition of 6 vertices:
    // every component is glued out of per-shard pieces.
    let mut sut = sharded(6, 3, ShardMapKind::Range);
    let mut oracle = NaiveDynamicGraph::new(6);
    let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)];
    assert_eq!(sut.batch_insert(&edges).unwrap(), 5);
    // The oracle's inherent batch methods shadow the trait's; qualify.
    BatchDynamic::batch_insert(&mut oracle, &edges).unwrap();
    for v in 0..6u32 {
        assert_eq!(
            sut.component_size(v),
            Connectivity::component_size(&oracle, v),
            "vertex {v}"
        );
    }
    // Cut the middle; sizes split 3 + 3.
    assert_eq!(sut.batch_delete(&[(2, 3)]).unwrap(), 1);
    BatchDynamic::batch_delete(&mut oracle, &[(2, 3)]).unwrap();
    for v in 0..6u32 {
        assert_eq!(
            sut.component_size(v),
            Connectivity::component_size(&oracle, v),
            "vertex {v}"
        );
    }
    assert_eq!(sut.num_components(), 2);
}

#[test]
fn byte_identical_results_across_shard_and_thread_counts() {
    // The determinism claim at the backend layer: the full BatchResult
    // stream must be byte-identical for every (shards, threads) pair.
    let n = 20usize;
    let batches = mixed_batches(n as u32, 0xDECADE, 8, 32);
    let mut reference = None;
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 4] {
            let mut sut = sharded(n, shards, ShardMapKind::Hash);
            // The backend runs on its caller's pool, as it does inside a
            // server's writer.
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let results: Vec<_> = pool.install(|| {
                batches
                    .iter()
                    .map(|b| sut.apply(b).expect("apply"))
                    .collect()
            });
            match &reference {
                None => reference = Some(results),
                Some(want) => assert_eq!(
                    &results, want,
                    "results diverged at {shards} shards x {threads} threads"
                ),
            }
        }
    }
}

#[test]
fn rejects_out_of_range_vertices_without_partial_application() {
    let mut sut = sharded(8, 2, ShardMapKind::Range);
    let err = sut
        .apply(&[Op::Insert(0, 1), Op::Insert(3, 99)])
        .unwrap_err();
    assert!(matches!(
        err,
        dyncon_shard::DynConError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 8
        }
    ));
    // Validation is up-front: the in-range insert must not have landed.
    assert_eq!(sut.export_edges(), Vec::new());
    assert_eq!(sut.num_components(), 8);
}

#[test]
fn query_runs_observe_exactly_the_preceding_mutations() {
    // Mixed kinds inside one mutation segment, queries between runs —
    // the same run-boundary semantics as the default `apply`.
    let mut sut = sharded(10, 2, ShardMapKind::Range);
    let result = sut
        .apply(&[
            Op::Insert(0, 9), // cross under a 2-way range split of 10
            Op::Insert(0, 1), // intra shard 0
            Op::Query(1, 9),  // true: 1-0-9
            Op::Delete(0, 9),
            Op::Query(1, 9), // false again
            Op::Query(0, 1), // still true
        ])
        .unwrap();
    assert_eq!(result.inserted, 2);
    assert_eq!(result.deleted, 1);
    assert_eq!(result.answers, vec![true, false, true]);
}
