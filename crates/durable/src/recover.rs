//! Crash recovery and log compaction.
//!
//! Recovery is deterministic replay: load the latest valid snapshot,
//! rebuild the backend from its canonical edge list, then re-`apply` the
//! WAL records the snapshot does not cover — **one `apply` per logged
//! round**, so the rebuilt structure sees exactly the batch boundaries
//! the original writer committed. Under the workspace determinism
//! contract that makes recovery testable to the strongest standard: a
//! backend recovered from a log with no intervening snapshot is
//! byte-identical (results *and* internal labelling) to one that never
//! crashed.

use crate::snapshot::Snapshot;
use crate::wal::{read_wal, WalWriter};
use dyncon_api::{BatchDynamic, BuildFrom, Builder, DynConError};
use std::path::Path;

/// What [`recover`] found in the durable directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundMeta {
    /// Round id the next sealed round will receive (continue logging
    /// here).
    pub next_round: u64,
    /// Rounds folded into the snapshot the recovery started from
    /// (`snapshot.next_round`).
    pub snapshot_rounds: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_rounds: u64,
    /// Operations inside the replayed records (replay progress at op
    /// granularity — what `dyncon_recovery_replayed_ops_total` reports).
    pub replayed_ops: u64,
    /// Whether a torn/corrupt WAL tail was dropped during the scan (its
    /// round was never acknowledged under the `every_round` fsync
    /// policy; under laxer policies it falls inside the documented loss
    /// window).
    pub dropped_tail: bool,
}

/// Rebuild a backend from the durable state in `dir` using the default
/// [`Builder`] configuration. See [`recover_with`] for custom knobs.
pub fn recover<B: BatchDynamic + BuildFrom>(dir: &Path) -> Result<(B, RoundMeta), DynConError> {
    recover_with(dir, |b| b)
}

/// Rebuild a backend from the durable state in `dir`, passing the
/// [`Builder`] through `configure` before construction (deletion
/// algorithm, stats, …). The vertex count always comes from the
/// snapshot; changing it in `configure` is ignored. See
/// [`recover_onto`] for the replay semantics.
pub fn recover_with<B: BatchDynamic + BuildFrom>(
    dir: &Path,
    configure: impl FnOnce(Builder) -> Builder,
) -> Result<(B, RoundMeta), DynConError> {
    recover_onto(dir, |num_vertices| {
        let mut builder = configure(Builder::new(num_vertices));
        builder.num_vertices = num_vertices;
        B::build_from(&builder)
    })
}

/// Rebuild the durable state in `dir` onto the empty backend
/// `build(num_vertices)` returns, where `num_vertices` is the
/// snapshot's: insert the snapshot's edges, then replay the WAL tail.
///
/// Replay semantics: WAL records with `round < snapshot.next_round` are
/// skipped (compaction crashed between snapshot rename and log truncate
/// — the snapshot already contains them); records from
/// `snapshot.next_round` on are applied in order, one batch per round. A
/// gap between the snapshot and the first replayable record, or within
/// the records, is [`DynConError::Corrupt`].
pub fn recover_onto<B: BatchDynamic>(
    dir: &Path,
    build: impl FnOnce(usize) -> Result<B, DynConError>,
) -> Result<(B, RoundMeta), DynConError> {
    let snapshot = Snapshot::load(dir)?.ok_or_else(|| DynConError::Storage {
        path: dir.display().to_string(),
        message: "no snapshot to recover from (not a durable directory?)".to_string(),
    })?;
    let readout = read_wal(dir)?.unwrap_or_default();

    let mut backend = build(snapshot.num_vertices)?;
    if !snapshot.edges.is_empty() {
        backend.batch_insert(&snapshot.edges)?;
    }

    let mut next_round = snapshot.next_round;
    let mut replayed = 0u64;
    let mut replayed_ops = 0u64;
    for record in &readout.records {
        if record.round < snapshot.next_round {
            // Folded into the snapshot already (compaction crashed after
            // the snapshot rename but before the log truncate).
            continue;
        }
        if record.round != next_round {
            return Err(DynConError::Corrupt {
                path: dir.join(crate::wal::WAL_FILE).display().to_string(),
                offset: 0,
                detail: format!(
                    "round gap: snapshot covers up to {}, log continues at {}",
                    next_round, record.round
                ),
            });
        }
        backend.apply(&record.ops)?;
        next_round += 1;
        replayed += 1;
        replayed_ops += record.ops.len() as u64;
    }

    Ok((
        backend,
        RoundMeta {
            next_round,
            snapshot_rounds: snapshot.next_round,
            replayed_rounds: replayed,
            replayed_ops,
            dropped_tail: readout.dropped_tail,
        },
    ))
}

/// Compact the durable state in `dir`: capture `backend` (which must
/// have every round `< next_round` applied) as a snapshot, write it
/// atomically, then truncate the WAL. After compaction, recovery cost is
/// proportional to the graph, not the history.
///
/// Crash-safe at every point: before the snapshot rename the old
/// snapshot + full log still recover; between rename and truncate the
/// new snapshot simply skips the (now-redundant) logged rounds.
pub fn compact<B: dyncon_api::ExportEdges>(
    dir: &Path,
    backend: &B,
    next_round: u64,
) -> Result<(), DynConError> {
    Snapshot::capture(backend, next_round).write_atomic(dir)?;
    // The snapshot is durable; the log's records are redundant now.
    let mut wal = WalWriter::open(dir, crate::wal::FsyncPolicy::EveryRound, next_round)?;
    wal.reset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::FsyncPolicy;
    use dyncon_api::{Connectivity, ExportEdges, Op};
    use dyncon_core::BatchDynamicConnectivity;
    use dyncon_spanning::NaiveDynamicGraph;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = crate::scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn init_dir(dir: &std::path::Path, n: usize) {
        Snapshot {
            num_vertices: n,
            next_round: 0,
            edges: Vec::new(),
        }
        .write_atomic(dir)
        .unwrap();
    }

    fn rounds() -> Vec<Vec<Op>> {
        vec![
            vec![Op::Insert(0, 1), Op::Insert(1, 2), Op::Query(0, 2)],
            vec![Op::Delete(0, 1), Op::Query(0, 2), Op::Insert(3, 4)],
            vec![Op::Insert(0, 1), Op::Insert(4, 5), Op::Query(3, 5)],
        ]
    }

    #[test]
    fn recover_replays_the_full_log() {
        let dir = scratch("rec-replay");
        init_dir(&dir, 8);
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        let mut reference = BatchDynamicConnectivity::new(8);
        for ops in rounds() {
            wal.append_round(&ops).unwrap();
            reference.apply(&ops).unwrap();
        }
        drop(wal);
        let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
        assert_eq!(
            meta,
            RoundMeta {
                next_round: 3,
                snapshot_rounds: 0,
                replayed_rounds: 3,
                replayed_ops: 9,
                dropped_tail: false,
            }
        );
        // Pure-log replay rebuilds the exact structure: even the opaque
        // internal labels agree (the determinism contract).
        assert_eq!(recovered.component_labels(), reference.component_labels());
        assert_eq!(recovered.export_edges(), reference.export_edges());
    }

    #[test]
    fn recover_skips_rounds_already_in_the_snapshot() {
        let dir = scratch("rec-skip");
        init_dir(&dir, 8);
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        let mut reference = BatchDynamicConnectivity::new(8);
        for ops in rounds() {
            wal.append_round(&ops).unwrap();
            reference.apply(&ops).unwrap();
        }
        drop(wal);
        // Simulate a compaction that crashed between the snapshot rename
        // and the WAL truncate: snapshot covers rounds 0..2, log holds
        // 0..3.
        let mut upto2 = BatchDynamicConnectivity::new(8);
        for ops in &rounds()[..2] {
            upto2.apply(ops).unwrap();
        }
        Snapshot::capture(&upto2, 2).write_atomic(&dir).unwrap();
        let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
        assert_eq!((meta.snapshot_rounds, meta.replayed_rounds), (2, 1));
        assert_eq!(meta.next_round, 3);
        assert_eq!(recovered.export_edges(), reference.export_edges());
        let q: Vec<bool> = recovered.batch_connected(&[(0, 2), (3, 5), (6, 7)]);
        assert_eq!(q, reference.batch_connected(&[(0, 2), (3, 5), (6, 7)]));
    }

    #[test]
    fn compact_then_recover_round_trips() {
        let dir = scratch("rec-compact");
        init_dir(&dir, 8);
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        let mut reference = BatchDynamicConnectivity::new(8);
        for ops in rounds() {
            wal.append_round(&ops).unwrap();
            reference.apply(&ops).unwrap();
        }
        drop(wal);
        compact(&dir, &reference, 3).unwrap();
        // The log is empty now, the snapshot carries everything.
        let readout = read_wal(&dir).unwrap().unwrap();
        assert!(readout.records.is_empty());
        let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
        assert_eq!((meta.snapshot_rounds, meta.replayed_rounds), (3, 0));
        assert_eq!(meta.next_round, 3);
        assert_eq!(recovered.export_edges(), reference.export_edges());
        // Logging continues at the preserved round numbering.
        let wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, meta.next_round).unwrap();
        assert_eq!(wal.next_round(), 3);
    }

    #[test]
    fn recovery_is_backend_generic() {
        let dir = scratch("rec-generic");
        init_dir(&dir, 8);
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for ops in rounds() {
            wal.append_round(&ops).unwrap();
        }
        drop(wal);
        let (core, _) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
        let (oracle, _) = recover::<NaiveDynamicGraph>(&dir).unwrap();
        assert_eq!(core.export_edges(), oracle.export_edges());
        let pairs: Vec<(u32, u32)> = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .collect();
        assert_eq!(core.batch_connected(&pairs), oracle.batch_connected(&pairs));
    }

    #[test]
    fn recover_without_snapshot_is_a_storage_error() {
        let dir = scratch("rec-nosnap");
        match recover::<NaiveDynamicGraph>(&dir) {
            Err(DynConError::Storage { message, .. }) => {
                assert!(message.contains("no snapshot"), "{message}")
            }
            Err(other) => panic!("expected Storage, got {other:?}"),
            Ok(_) => panic!("expected Storage, got a recovered backend"),
        }
    }

    #[test]
    fn round_gap_between_snapshot_and_log_is_corrupt() {
        let dir = scratch("rec-gap");
        init_dir(&dir, 8);
        // Log starts at round 2 but the snapshot only covers up to 0.
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 2).unwrap();
        wal.append_round(&[Op::Insert(0, 1)]).unwrap();
        drop(wal);
        match recover::<NaiveDynamicGraph>(&dir) {
            Err(DynConError::Corrupt { detail, .. }) => {
                assert!(detail.contains("round gap"), "{detail}")
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a recovered backend"),
        }
    }

    #[test]
    fn recover_with_configures_the_builder() {
        let dir = scratch("rec-cfg");
        init_dir(&dir, 8);
        let mut wal = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        wal.append_round(&[Op::Insert(0, 1)]).unwrap();
        drop(wal);
        let (g, _) = recover_with::<BatchDynamicConnectivity>(&dir, |b| {
            b.algorithm(dyncon_api::DeletionAlgorithm::Simple)
                .stats(false)
        })
        .unwrap();
        assert_eq!(g.backend_name(), "batch-dynamic/simple");
        // The vertex count always comes from the snapshot.
        let (g2, _) = recover_with::<BatchDynamicConnectivity>(&dir, |mut b| {
            b.num_vertices = 4;
            b
        })
        .unwrap();
        assert_eq!(Connectivity::num_vertices(&g2), 8);
    }
}
