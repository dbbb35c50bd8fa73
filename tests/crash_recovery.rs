//! Crash-recovery determinism: the durable serving layer must make
//! process death invisible. A seeded concurrent workload is killed at
//! arbitrary sealed-round boundaries (offsets from
//! `dyncon_graphgen::crash_points`); recovery plus replay of the
//! remaining traffic must produce `BatchResult`s — and, for pure-WAL
//! recovery, even the opaque `component_labels()` — byte-identical to
//! the run that never crashed, at 1/2/4 worker threads. Torn and
//! bit-flipped logs recover cleanly (typed errors, never a panic), and
//! snapshot + compaction round-trips preserve the observable graph.

use dyncon_api::{BatchDynamic, BatchResult, ExportEdges, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{
    read_wal, recover, scratch_dir, DurableConfig, DurableServer, DynConError, FsyncPolicy,
    WAL_FILE,
};
use dyncon_graphgen::{crash_points, zipf_client_schedules};
use dyncon_server::ServerConfig;
use dyncon_spanning::NaiveDynamicGraph;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

const N: usize = 128;
const CLIENTS: usize = 3;
const ROUNDS: usize = 8;
const OPS_PER_REQUEST: usize = 16;

fn schedules() -> Vec<Vec<Vec<Op>>> {
    zipf_client_schedules(N, CLIENTS, ROUNDS, OPS_PER_REQUEST, 0.4, 1.1, 20_26)
}

/// The canonical op sequence of each round (client-major, the
/// deterministic mode contract).
fn canonical_rounds() -> Vec<Vec<Op>> {
    let scheds = schedules();
    (0..ROUNDS)
        .map(|r| {
            scheds
                .iter()
                .flat_map(|client| client[r].iter().copied())
                .collect()
        })
        .collect()
}

/// The uninterrupted run: every round applied in order on one backend.
fn uninterrupted() -> (BatchDynamicConnectivity, Vec<BatchResult>) {
    let mut g = BatchDynamicConnectivity::new(N);
    let results = canonical_rounds()
        .iter()
        .map(|ops| g.apply(ops).unwrap())
        .collect();
    (g, results)
}

/// Serve rounds `0..upto` of the schedules through a `DurableServer`
/// with truly concurrent clients, then shut down *without* compaction —
/// the WAL is left exactly as a crash at that sealed-round boundary
/// would leave it (modulo the torn tail some tests add by hand).
fn serve_rounds(dir: &Path, upto: usize, worker_threads: usize) {
    let scheds = schedules();
    let (server, _meta) = DurableServer::<BatchDynamicConnectivity>::open(
        dir,
        N,
        ServerConfig::new()
            .deterministic(true)
            .worker_threads(worker_threads)
            .queue_capacity(CLIENTS * ROUNDS),
        DurableConfig::new().compact_on_join(false),
    )
    .unwrap();
    let submitted = Barrier::new(CLIENTS + 1);
    let committed = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        for (c, sched) in scheds.iter().enumerate() {
            let (server, submitted, committed) = (&server, &submitted, &committed);
            scope.spawn(move || {
                for ops in &sched[..upto] {
                    let ticket = server.submit_as(c as u64, ops.clone()).unwrap();
                    submitted.wait();
                    ticket.wait().unwrap();
                    committed.wait();
                }
            });
        }
        for _ in 0..upto {
            submitted.wait();
            assert_eq!(server.seal_round(), CLIENTS);
            committed.wait();
        }
    });
    let report = server.join().unwrap();
    assert_eq!(report.service.rounds_committed, upto as u64);
    assert_eq!(report.next_round, upto as u64);
    assert!(!report.compacted);
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_at_round_k_recovery_is_byte_identical_across_worker_threads() {
    let rounds = canonical_rounds();
    let (reference, expected) = uninterrupted();
    let expected_labels = reference.component_labels();
    for worker_threads in [1usize, 2, 4] {
        for &k in &crash_points(ROUNDS, 2, 7 + worker_threads as u64) {
            let dir = scratch_dir(&format!("kill-w{worker_threads}-k{k}"));
            serve_rounds(&dir, k, worker_threads);

            // The dead process's log holds exactly the sealed rounds.
            let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
            assert_eq!(meta.replayed_rounds, k as u64, "w={worker_threads} k={k}");
            assert!(!meta.dropped_tail);

            // Replaying the remaining traffic yields byte-identical
            // results…
            let tail_results: Vec<BatchResult> = rounds[k..]
                .iter()
                .map(|ops| recovered.apply(ops).unwrap())
                .collect();
            assert_eq!(tail_results, expected[k..], "w={worker_threads} k={k}");
            // …and the final structure is indistinguishable from the
            // uninterrupted one, down to the opaque internal labels.
            assert_eq!(
                recovered.component_labels(),
                expected_labels,
                "w={worker_threads} k={k}"
            );
            assert_eq!(recovered.export_edges(), reference.export_edges());
            recovered.check().unwrap();
            cleanup(&dir);
        }
    }
}

/// A durable sharded server over `dir`: `shards` shards of `kind` on a
/// `threads`-thread writer, WAL left uncompacted at join unless
/// `compact`.
fn sharded_server(
    dir: &Path,
    num_vertices: usize,
    shards: usize,
    kind: dyncon_shard::ShardMapKind,
    compact: bool,
    threads: usize,
) -> Result<dyncon_shard::ShardedServer<BatchDynamicConnectivity>, DynConError> {
    use dyncon_shard::{ShardConfig, ShardedServer};
    ShardedServer::start(
        num_vertices,
        ShardConfig::new()
            .shards(shards)
            .kind(kind)
            .deterministic(true)
            .shard_worker_threads(threads)
            .queue_capacity(ROUNDS)
            .durable(dir, DurableConfig::new().compact_on_join(compact)),
    )
}

/// Serve `rounds[from..upto]` through a durable 3-shard hash service on
/// `dir` with `threads` writer threads, one sealed round each, then stop
/// without compaction — the WAL is left exactly as a kill at that
/// sealed-round boundary would leave it. Versions are WAL round ids: a
/// reopen at `from` has committed `from - 1`, and round `r` commits as
/// version `r`.
fn serve_sharded(dir: &Path, from: usize, upto: usize, threads: usize) -> Vec<BatchResult> {
    let rounds = canonical_rounds();
    let kind = dyncon_shard::ShardMapKind::Hash;
    let server = sharded_server(dir, N, 3, kind, false, threads).unwrap();
    assert_eq!(server.newest_committed(), (from as u64).checked_sub(1));
    let mut results = Vec::new();
    for (r, ops) in rounds.iter().enumerate().take(upto).skip(from) {
        let ticket = server.submit_as(0, ops.clone()).unwrap();
        assert_eq!(server.seal_round(), 1);
        let committed = ticket.wait().unwrap();
        assert_eq!(committed.version, r as u64, "round {r}'s version");
        results.push(BatchResult {
            inserted: committed.inserted,
            deleted: committed.deleted,
            answers: committed.answers,
        });
    }
    let report = server.join().unwrap();
    assert_eq!(report.rounds_committed, (upto - from) as u64);
    results
}

/// Sharded kill-at-round-k: a durable [`ShardedServer`] logs each round
/// once, in global ids, in one WAL. Killing it at a sealed-round
/// boundary and reopening the same directory must recover *every*
/// shard and the lazily rebuilt boundary graph to the same prefix and
/// continue the version numbering, so replaying the remaining rounds
/// yields `BatchResult`s — and a final edge set and component count —
/// byte-identical to the uninterrupted run, at 1, 2 and 4 writer
/// threads.
#[test]
fn sharded_kill_at_round_k_recovers_every_shard_and_the_boundary() {
    use dyncon_api::Connectivity;
    let (reference, expected) = uninterrupted();
    for threads in [1usize, 2, 4] {
        for &k in &crash_points(ROUNDS, 2, 31 + threads as u64) {
            let dir = scratch_dir(&format!("shard-kill-w{threads}-k{k}"));
            let head = serve_sharded(&dir, 0, k, threads);
            assert_eq!(head, expected[..k], "w={threads} k={k}: head");

            // Reopen: the one WAL replays through a fresh sharded
            // backend, and the tail replays byte-identically.
            let tail = serve_sharded(&dir, k, ROUNDS, threads);
            assert_eq!(tail, expected[k..], "w={threads} k={k}: tail");

            // The recovered ensemble's final structure matches the
            // never-crashed single backend: same edge set (per-shard
            // exports recombined), same global component count (through
            // the rebuilt boundary graph).
            let kind = dyncon_shard::ShardMapKind::Hash;
            let server = sharded_server(&dir, N, 3, kind, true, threads).unwrap();
            assert_eq!(server.newest_committed(), Some(ROUNDS as u64 - 1));
            let (edges, comps) = server
                .inspect(|b| (b.export_edges(), b.num_components()))
                .unwrap();
            assert_eq!(edges, reference.export_edges(), "w={threads} k={k}");
            assert_eq!(
                comps,
                BatchDynamicConnectivity::num_components(&reference),
                "w={threads} k={k}"
            );
            server.join().unwrap();
            cleanup(&dir);
        }
    }
}

/// Rounds are atomic across shards: tearing the single WAL inside its
/// last record loses that whole round on every shard and the cross
/// store, never a part of it.
#[test]
fn sharded_torn_round_is_lost_on_every_shard() {
    use dyncon_api::Connectivity;
    use dyncon_durable::recover_onto;
    use dyncon_shard::{ShardConfig, ShardMap, ShardMapKind, ShardedBackend};
    let rounds = canonical_rounds();
    let (_, expected) = uninterrupted();
    let k = 5;
    let dir = scratch_dir("shard-torn");
    serve_sharded(&dir, 0, k - 1, 2);
    let wal_path = dir.join(WAL_FILE);
    let before_last = std::fs::metadata(&wal_path).unwrap().len() as usize;
    serve_sharded(&dir, k - 1, k, 2);
    let bytes = std::fs::read(&wal_path).unwrap();
    let torn = before_last + (bytes.len() - before_last) / 2;
    std::fs::write(&wal_path, &bytes[..torn]).unwrap();

    // The torn round touches at least two of the stores (shards and the
    // cross store), so a partial application would show.
    let oracle_at = |upto: usize| {
        let mut g = NaiveDynamicGraph::new(N);
        for ops in &rounds[..upto] {
            g.apply(ops).unwrap();
        }
        g
    };
    let (survived, full) = (oracle_at(k - 1), oracle_at(k));
    let map = ShardMap::new(N, 3, ShardMapKind::Hash).unwrap();
    let mut touched: Vec<Option<usize>> = survived
        .export_edges()
        .into_iter()
        .filter(|e| !full.export_edges().contains(e))
        .chain(
            full.export_edges()
                .into_iter()
                .filter(|e| !survived.export_edges().contains(e)),
        )
        .map(|(u, v)| (!map.is_cross(u, v)).then(|| map.shard_of(u)))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    assert!(touched.len() >= 2, "round {} touches {touched:?}", k - 1);

    let config = ShardConfig::new().shards(3).kind(ShardMapKind::Hash);
    let (mut recovered, meta) = recover_onto(&dir, |n| {
        ShardedBackend::<BatchDynamicConnectivity>::new(n, &config, Default::default())
    })
    .unwrap();
    assert!(meta.dropped_tail, "the torn record must be reported");
    assert_eq!(meta.replayed_rounds, (k - 1) as u64);
    assert_eq!(recovered.export_edges(), survived.export_edges());
    let pairs: Vec<(u32, u32)> = (0..N as u32)
        .flat_map(|u| (u + 1..N as u32).map(move |v| (u, v)))
        .collect();
    assert_eq!(
        recovered.batch_connected(&pairs),
        survived.batch_connected(&pairs)
    );
    // Replaying from the torn round on reproduces the uninterrupted
    // results.
    let tail: Vec<BatchResult> = rounds[k - 1..]
        .iter()
        .map(|ops| recovered.apply(ops).unwrap())
        .collect();
    assert_eq!(tail, expected[k - 1..]);
    cleanup(&dir);
}

/// The partition is not durable state — the snapshot and the WAL hold
/// global edges — so one directory reopens under any shard count or
/// map kind with the same graph; only the vertex count must match.
#[test]
fn sharded_reopen_under_a_different_partition_recovers_the_same_graph() {
    use dyncon_api::Connectivity;
    use dyncon_shard::ShardMapKind;
    let (reference, _) = uninterrupted();
    let dir = scratch_dir("shard-partition");
    serve_sharded(&dir, 0, ROUNDS, 2);
    // Exactly one log plus one snapshot: no per-shard state.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["snapshot.bin", WAL_FILE]);

    let observe = |shards: usize, kind: ShardMapKind| {
        // Each reopen compacts at join, so the next one starts from the
        // snapshot written under the previous partition.
        let server = sharded_server(&dir, N, shards, kind, true, 2).unwrap();
        let seen = server
            .inspect(|b| (b.export_edges(), b.num_components()))
            .unwrap();
        server.join().unwrap();
        seen
    };
    let want = (
        reference.export_edges(),
        BatchDynamicConnectivity::num_components(&reference),
    );
    assert_eq!(observe(3, ShardMapKind::Hash), want, "3 hash shards, WAL");
    assert_eq!(observe(2, ShardMapKind::Range), want, "2 range shards");
    assert_eq!(observe(3, ShardMapKind::Hash), want, "3 hash shards again");
    match sharded_server(&dir, 2 * N, 3, ShardMapKind::Hash, false, 2) {
        Err(err) => assert_eq!(err, DynConError::InvalidVertexCount { requested: 2 * N }),
        Ok(_) => panic!("a different vertex count must not open"),
    }
    cleanup(&dir);
}

#[test]
fn recovery_agrees_with_the_naive_oracle() {
    let rounds = canonical_rounds();
    let (_, expected) = uninterrupted();
    for &k in &crash_points(ROUNDS, 3, 99) {
        let dir = scratch_dir(&format!("oracle-k{k}"));
        serve_rounds(&dir, k, 2);
        // Recover the slow-but-trusted backend from the same directory:
        // recovery is backend-generic, and the oracle's answers for the
        // remaining traffic must match the fast structure's.
        let (mut oracle, meta) = recover::<NaiveDynamicGraph>(&dir).unwrap();
        assert_eq!(meta.replayed_rounds, k as u64);
        for (r, ops) in rounds[k..].iter().enumerate() {
            let got = oracle.apply(ops).unwrap();
            assert_eq!(got, expected[k + r], "oracle diverged at round {}", k + r);
        }
        cleanup(&dir);
    }
}

#[test]
fn truncated_tail_loses_exactly_the_torn_round() {
    let rounds = canonical_rounds();
    let (_, expected) = uninterrupted();
    let k = 5;
    let dir = scratch_dir("torn-tail");
    serve_rounds(&dir, k, 2);
    // Tear the final append: chop a few bytes off the log.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 9]).unwrap();

    let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert!(meta.dropped_tail, "the torn record must be reported");
    assert_eq!(
        meta.replayed_rounds,
        (k - 1) as u64,
        "only the tail is lost"
    );
    // The recovered structure is the k-1 state: replaying from round
    // k-1 onwards reproduces the uninterrupted results.
    let tail_results: Vec<BatchResult> = rounds[k - 1..]
        .iter()
        .map(|ops| recovered.apply(ops).unwrap())
        .collect();
    assert_eq!(tail_results, expected[k - 1..]);
    cleanup(&dir);
}

#[test]
fn garbage_after_the_last_record_is_dropped() {
    let k = 3;
    let dir = scratch_dir("garbage-tail");
    serve_rounds(&dir, k, 1);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 13]); // a torn header
    std::fs::write(&wal_path, &bytes).unwrap();
    let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert!(meta.dropped_tail);
    assert_eq!(meta.replayed_rounds, k as u64, "no valid round lost");
    recovered.check().unwrap();
    cleanup(&dir);
}

#[test]
fn bit_flipped_checksum_mid_log_is_a_typed_error_not_a_panic() {
    let dir = scratch_dir("bitflip");
    serve_rounds(&dir, 4, 2);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Flip one bit early in the file body (inside the first record),
    // leaving plenty of valid-looking data after it: committed history
    // is damaged, and recovery must say so instead of guessing.
    bytes[40] ^= 0x04;
    std::fs::write(&wal_path, &bytes).unwrap();
    match recover::<BatchDynamicConnectivity>(&dir) {
        Err(DynConError::Corrupt { path, detail, .. }) => {
            assert!(path.ends_with(WAL_FILE), "{path}");
            assert!(!detail.is_empty());
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("mid-log corruption must not recover silently"),
    }
    cleanup(&dir);
}

#[test]
fn snapshot_compaction_round_trip_preserves_the_observable_graph() {
    let rounds = canonical_rounds();
    let (reference, expected) = uninterrupted();
    let k = 6;
    let dir = scratch_dir("compaction");
    {
        // This lifetime compacts at join: snapshot written, WAL emptied.
        let scheds = schedules();
        let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
            &dir,
            N,
            ServerConfig::new().deterministic(true).queue_capacity(64),
            DurableConfig::new().fsync(FsyncPolicy::EveryNRounds(2)),
        )
        .unwrap();
        for r in 0..k {
            for (c, sched) in scheds.iter().enumerate() {
                server.submit_as(c as u64, sched[r].clone()).unwrap();
            }
            server.seal_round();
        }
        let report = server.join().unwrap();
        assert!(report.compacted);
        assert_eq!(report.next_round, k as u64);
    }
    let readout = read_wal(&dir).unwrap().unwrap();
    assert!(readout.records.is_empty(), "compaction emptied the log");

    // Recovery now costs the graph, not the history: zero replayed
    // rounds, round numbering preserved.
    let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert_eq!((meta.snapshot_rounds, meta.replayed_rounds), (k as u64, 0));
    assert_eq!(meta.next_round, k as u64);

    // A snapshot rebuild has different internal history (one bulk
    // insert), so compare semantics: edge set, query answers and the
    // component partition — plus the BatchResults of all remaining
    // traffic, which are semantic and must still match byte for byte.
    let mut reference_at_k = BatchDynamicConnectivity::new(N);
    for ops in &rounds[..k] {
        reference_at_k.apply(ops).unwrap();
    }
    assert_eq!(recovered.export_edges(), reference_at_k.export_edges());
    assert_eq!(
        partition(&recovered.component_labels()),
        partition(&reference_at_k.component_labels())
    );
    let tail_results: Vec<BatchResult> = rounds[k..]
        .iter()
        .map(|ops| recovered.apply(ops).unwrap())
        .collect();
    assert_eq!(tail_results, expected[k..]);
    assert_eq!(recovered.export_edges(), reference.export_edges());
    cleanup(&dir);
}

/// Canonicalize an opaque labelling into first-occurrence indices so two
/// labellings compare as partitions.
fn partition(labels: &[u64]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}
