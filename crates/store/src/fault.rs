//! Seeded storage fault injector.
//!
//! Each fault mutates a [`StoreImage`] the way a real storage failure
//! would — torn tail writes, mid-frame truncation, bit rot in the log
//! or the newest snapshot, a duplicated frame, a lost fsync that drops
//! an interior record while later ones survive. Injection is
//! deterministic given a seed, and every fault reports exactly what it
//! did so a harness can assert the matching typed [`WalError`](crate::WalError) surfaces
//! during recovery.

use crate::store::StoreImage;
use crate::wal::scan;
use spaden_sparse::Pcg64;

/// The storage fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The final WAL record is cut mid-frame (torn tail write).
    TornTail,
    /// The log is cut inside an *interior* record, losing it and every
    /// later record.
    MidFrameTruncation,
    /// One random bit of one WAL record flips (media bit rot).
    WalBitRot,
    /// One random bit of the newest snapshot slot flips.
    SnapshotBitRot,
    /// One record's frame is appended again at the log tail (a replayed
    /// write after an unclean shutdown).
    DuplicateFrame,
    /// An interior record vanishes while later records survive (fsync
    /// lost on one write but not the next).
    LostFsync,
}

impl StorageFault {
    /// All fault kinds, in a fixed order for sweeps.
    pub const ALL: [StorageFault; 6] = [
        StorageFault::TornTail,
        StorageFault::MidFrameTruncation,
        StorageFault::WalBitRot,
        StorageFault::SnapshotBitRot,
        StorageFault::DuplicateFrame,
        StorageFault::LostFsync,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StorageFault::TornTail => "torn-tail",
            StorageFault::MidFrameTruncation => "mid-frame-truncation",
            StorageFault::WalBitRot => "wal-bit-rot",
            StorageFault::SnapshotBitRot => "snapshot-bit-rot",
            StorageFault::DuplicateFrame => "duplicate-frame",
            StorageFault::LostFsync => "lost-fsync",
        }
    }
}

/// Injects one fault into the image, seeded. Returns a description of
/// the exact mutation, or `None` when the image cannot host this fault
/// (e.g. tearing the tail of an empty log) — the image is untouched in
/// that case.
pub fn inject(image: &mut StoreImage, fault: StorageFault, seed: u64) -> Option<String> {
    let mut rng = Pcg64::new(seed, fault as u64 + 1);
    let records = scan(&image.wal).records;
    match fault {
        StorageFault::TornTail => {
            let last = records.last()?;
            // Keep at least one byte of the frame so it is torn, not absent.
            let frame_len = image.wal.len() - last.offset;
            let keep = 1 + rng.below_usize(frame_len - 1);
            let cut = last.offset + keep;
            image.wal.truncate(cut);
            Some(format!(
                "tore final record (seq {}) at byte {cut}, {keep} of {frame_len} frame bytes left",
                last.seq
            ))
        }
        StorageFault::MidFrameTruncation => {
            if records.len() < 2 {
                return None;
            }
            let idx = rng.below_usize(records.len() - 1);
            let rec = &records[idx];
            let frame_len = records[idx + 1].offset - rec.offset;
            let keep = 1 + rng.below_usize(frame_len - 1);
            image.wal.truncate(rec.offset + keep);
            Some(format!(
                "truncated log inside record seq {} ({} later record(s) lost)",
                rec.seq,
                records.len() - 1 - idx
            ))
        }
        StorageFault::WalBitRot => {
            if image.wal.is_empty() {
                return None;
            }
            let byte = rng.below_usize(image.wal.len());
            let bit = rng.below_usize(8);
            image.wal[byte] ^= 1 << bit;
            Some(format!("flipped bit {bit} of WAL byte {byte}"))
        }
        StorageFault::SnapshotBitRot => {
            let slot = image.newest_slot;
            let bytes = image.slots[slot].as_mut()?;
            let byte = rng.below_usize(bytes.len());
            let bit = rng.below_usize(8);
            bytes[byte] ^= 1 << bit;
            Some(format!("flipped bit {bit} of snapshot slot {slot} byte {byte}"))
        }
        StorageFault::DuplicateFrame => {
            if records.is_empty() {
                return None;
            }
            let idx = rng.below_usize(records.len());
            let rec = &records[idx];
            let end = records.get(idx + 1).map_or(image.wal.len(), |r| r.offset);
            let dup = image.wal[rec.offset..end].to_vec();
            image.wal.extend_from_slice(&dup);
            Some(format!("appended a duplicate of record seq {} at the tail", rec.seq))
        }
        StorageFault::LostFsync => {
            // Dropping a record at or below the newest snapshot's epoch is
            // harmless (replay skips it as a duplicate); a lost fsync only
            // bites when the dropped record is part of the replay suffix,
            // so pick among interior records newer than the checkpoint.
            let checkpoint = image.slots[image.newest_slot]
                .as_deref()
                .and_then(|b| crate::snapshot::SnapshotState::decode(b).ok())
                .map_or(0, |s| s.epoch());
            let candidates: Vec<usize> = (0..records.len().saturating_sub(1))
                .filter(|&i| records[i].seq > checkpoint)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let idx = candidates[rng.below_usize(candidates.len())];
            let rec = &records[idx];
            let end = records[idx + 1].offset;
            image.wal.drain(rec.offset..end);
            Some(format!("dropped record seq {} while later records survive", rec.seq))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover;
    use crate::store::{DurableStore, SnapshotPolicy};
    use crate::wal::WalError;
    use spaden::{EvolveConfig, EvolvingMatrix};
    use spaden_sparse::{gen, Delta, DeltaBatch, Pcg64};

    const N: usize = 40;

    fn evolved_store() -> (EvolvingMatrix, DurableStore) {
        let csr = gen::random_uniform(N, N, 250, 13);
        let cfg = EvolveConfig { side_capacity: 128, compact_threshold: 64, audit: true };
        let mut ev = EvolvingMatrix::new(csr, cfg);
        let mut store = DurableStore::create(&ev, SnapshotPolicy { snapshot_every: 4 });
        let mut rng = Pcg64::new(7, 7);
        while ev.epoch() < 11 {
            let deltas: Vec<_> = (0..5)
                .map(|_| Delta {
                    row: rng.below_usize(N) as u32,
                    col: rng.below_usize(N) as u32,
                    value: rng.range_f32(-1.0, 1.0),
                })
                .collect();
            let Ok(batch) = DeltaBatch::new(deltas, N, N) else { continue };
            if ev.apply(&batch, None).is_ok() {
                store.append_batch(ev.epoch(), &batch);
                store.maybe_snapshot(&ev);
            }
        }
        (ev, store)
    }

    #[test]
    fn every_fault_recovers_to_a_verified_prior_epoch() {
        let (ev, store) = evolved_store();
        for fault in StorageFault::ALL {
            for seed in 0..8u64 {
                let mut image = store.capture();
                let detail = inject(&mut image, fault, seed);
                assert!(detail.is_some(), "{} not injectable on a live image", fault.name());
                let out = recover(&image)
                    .unwrap_or_else(|e| panic!("{} seed {seed} fatal: {e}", fault.name()));
                // Never past the true epoch, and always internally verified
                // (recover() went through the from_parts/apply gates).
                assert!(out.epoch() <= ev.epoch(), "{} seed {seed}", fault.name());
                match fault {
                    StorageFault::DuplicateFrame => {
                        assert_eq!(out.epoch(), ev.epoch());
                        assert!(out.tail_error.is_none());
                        assert_eq!(out.matrix.csr(), ev.csr());
                    }
                    StorageFault::SnapshotBitRot => {
                        assert!(out.fell_back, "{} seed {seed}", fault.name());
                        assert!(!out.snapshot_errors.is_empty());
                        // Fallback + full suffix replay still reaches the tip.
                        assert_eq!(out.epoch(), ev.epoch());
                        assert_eq!(out.matrix.base(), ev.base());
                    }
                    StorageFault::TornTail | StorageFault::MidFrameTruncation => {
                        assert!(
                            matches!(out.tail_error, Some(WalError::TornFrame { .. })),
                            "{} seed {seed}: {:?}",
                            fault.name(),
                            out.tail_error
                        );
                        assert!(out.epoch() < ev.epoch());
                    }
                    StorageFault::WalBitRot => {
                        assert!(
                            out.tail_error.is_some(),
                            "{} seed {seed} produced no tail error",
                            fault.name()
                        );
                    }
                    StorageFault::LostFsync => {
                        assert!(
                            matches!(out.tail_error, Some(WalError::SeqGap { .. })),
                            "{} seed {seed}: {:?}",
                            fault.name(),
                            out.tail_error
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let (_, store) = evolved_store();
        for fault in StorageFault::ALL {
            let mut a = store.capture();
            let mut b = store.capture();
            let da = inject(&mut a, fault, 3);
            let db = inject(&mut b, fault, 3);
            assert_eq!(da, db);
            assert_eq!(a.wal, b.wal);
            assert_eq!(a.slots, b.slots);
        }
    }
}
