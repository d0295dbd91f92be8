//! The on-disk store protocol: file layout, the checkpoint/truncation
//! dance, and the one classification of a store directory that the
//! crash-safe read path and the offline inspector share.
//!
//! A store directory holds:
//!
//! * `wal.log` — magic + header frame (epoch, schema fingerprint) +
//!   committed units ([`crate::wal`]);
//! * `checkpoint.snap` — the latest **base** snapshot, in the binary
//!   paged v2 format ([`crate::pagesnap`]);
//! * `checkpoint.prev` — the previous base, kept as the fallback for a
//!   crash between the two checkpoint renames (or at-rest corruption of
//!   `checkpoint.snap`);
//! * `checkpoint.d1`, `checkpoint.d2`, … — the **delta chain**: extent
//!   deltas layered over the base, densely numbered from 1.
//!
//! **Base checkpoint protocol** (each step one syscall; crash-safe at
//! every boundary): write the new base to `checkpoint.tmp`, fsync it,
//! rename `snap`→`prev`, rename `tmp`→`snap`, fsync the directory (the
//! renames are not power-loss-durable until then), garbage-collect the
//! now-superseded delta files (best-effort — see below), then reset the
//! WAL by writing `wal.tmp` (new epoch header), fsyncing, renaming over
//! `wal.log`, and fsyncing the directory again.
//!
//! **Delta checkpoint protocol**: write the delta to `checkpoint.tmp`,
//! fsync, rename `tmp`→`checkpoint.d{seq}`, fsync the directory, reset
//! the WAL. The rename is the atomic commit point.
//!
//! The **epoch** stitches the pieces back together after a crash. Every
//! checkpoint — base or delta — advances the epoch by exactly one, so a
//! chain is self-describing: `checkpoint.d{k}` belongs to the current
//! chain iff its epoch is exactly `base.epoch + k` (and its fingerprint
//! and extent geometry match the base). Epochs only ever move forward,
//! so a delta file left behind by an interrupted garbage-collection can
//! never satisfy that equation against a newer base — stale files are
//! inert, which is what makes GC safe to run best-effort (failures and
//! crashes mid-GC leave orphans, not ambiguity). A WAL whose header
//! epoch is *below* the chain head is stale (its units are already
//! inside the chain) and is discarded; an epoch *above* means the
//! checkpoint the WAL needs is gone — unrecoverable without risking
//! replaying ops against the wrong base state, so it is reported as
//! corruption rather than guessed at.
//!
//! `survey` applies all of these rules once, read-only, decoding each
//! checkpoint file once. [`read_store`] is the survey plus refusal,
//! chain merge and repair hygiene; `ridl status` renders the same survey
//! ([`crate::inspect`]), so its `corrupt` verdict is exactly recovery's
//! refusal.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use ridl_relational::RelState;

use crate::io::DurableIo;
use crate::pagesnap::{
    decode_paged, encode_base, encode_delta, merge_chain, ExtentGeometry, PagedSnap, SnapFlavor,
};
use crate::wal::{scan_wal, wal_init_bytes, WalScan};
use crate::CorruptError;

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Latest base checkpoint snapshot.
pub const SNAP_FILE: &str = "checkpoint.snap";
/// Previous base checkpoint snapshot (crash/corruption fallback).
pub const SNAP_PREV_FILE: &str = "checkpoint.prev";
/// Staging file for both base and delta checkpoints. Never meaningful at
/// rest: [`read_store`] deletes an orphaned one left by a crash or a
/// failed checkpoint once the store is known to be recoverable.
pub const SNAP_TMP_FILE: &str = "checkpoint.tmp";
/// Staging file for WAL resets — same never-meaningful-at-rest rule as
/// [`SNAP_TMP_FILE`].
pub const WAL_TMP_FILE: &str = "wal.tmp";

/// How far past the last existing delta file the probe looks for
/// stragglers (orphans from an interrupted GC separated by a gap).
pub(crate) const DELTA_PROBE_WINDOW: u32 = 16;

/// Name of the `seq`-th delta file in a chain (1-based).
pub fn delta_file(seq: u32) -> String {
    format!("checkpoint.d{seq}")
}

/// Joined path of a store file.
pub fn store_path(dir: &Path, file: &str) -> PathBuf {
    dir.join(file)
}

/// Whether a checkpoint rewrote the whole state or only dirty extents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointKind {
    /// Full base snapshot: every extent of every table.
    Base,
    /// Incremental delta: only the extents dirtied since the last epoch.
    Delta,
}

/// Size accounting for one checkpoint, for benchmarks and the engine's
/// `last_checkpoint_stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointStats {
    /// Base or delta.
    pub kind: CheckpointKind,
    /// Snapshot bytes written (magic + frames).
    pub bytes: u64,
    /// Extents carried by the file.
    pub extents_written: u64,
    /// Extents in the chain geometry (denominator for churn ratios).
    pub extents_total: u64,
    /// Page frames written.
    pub pages: u64,
}

/// What a successful (or snapshot-durable) checkpoint produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointOutcome {
    /// Byte length of the fresh WAL. Zero when this outcome rides inside
    /// [`CheckpointFailure::WalReset`] — the reset did not happen.
    pub wal_len: u64,
    /// Size accounting.
    pub stats: CheckpointStats,
    /// The chain geometry: freshly frozen for a base, echoed for a
    /// delta. The engine tracks dirty extents against this.
    pub geometry: ExtentGeometry,
}

/// What to write: a full base or an incremental delta.
pub enum CheckpointPlan<'a> {
    /// Rewrite everything and freeze a new geometry sized to the state.
    Base,
    /// Rewrite only `dirty` extents under the frozen `geometry`, as
    /// `checkpoint.d{seq}` (1-based; `seq` = chain length so far + 1).
    Delta {
        /// The geometry frozen by the chain's base.
        geometry: &'a ExtentGeometry,
        /// Dirty `(table, extent)` pairs since the previous checkpoint.
        dirty: &'a BTreeSet<(u32, u32)>,
        /// Position this delta takes in the chain.
        seq: u32,
    },
}

/// Which durable state a failed checkpoint left behind.
#[derive(Debug)]
pub enum CheckpointFailure {
    /// The new snapshot never became current: the store still holds the
    /// pre-checkpoint state and the WAL remains appendable. The
    /// checkpoint simply did not happen. (A `checkpoint.tmp` may be left
    /// behind; [`read_store`] deletes it.)
    SnapshotWrite(io::Error),
    /// The new snapshot is durable but the WAL reset failed: the old log
    /// is now stale (epoch below the chain head). Recovery handles this
    /// cleanly, but the live process must stop appending to the old log.
    /// Carries the outcome so the caller can still account for the
    /// now-current snapshot.
    WalReset {
        /// The directory-sync or WAL-reset error.
        error: io::Error,
        /// The durable snapshot's accounting (`wal_len` is zero).
        outcome: CheckpointOutcome,
    },
}

impl std::fmt::Display for CheckpointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFailure::SnapshotWrite(e) => write!(f, "checkpoint snapshot write: {e}"),
            CheckpointFailure::WalReset { error, .. } => {
                write!(f, "WAL reset after checkpoint: {error}")
            }
        }
    }
}

/// Probes `checkpoint.d1`, `checkpoint.d2`, … and returns the sequence
/// numbers that exist, tolerating gaps up to [`DELTA_PROBE_WINDOW`]
/// (orphans from an interrupted GC).
fn probe_deltas(io: &dyn DurableIo, dir: &Path) -> Vec<u32> {
    let mut present = Vec::new();
    let mut seq = 1u32;
    let mut misses = 0u32;
    while misses < DELTA_PROBE_WINDOW {
        if io.exists(&store_path(dir, &delta_file(seq))) {
            present.push(seq);
            misses = 0;
        } else {
            misses += 1;
        }
        seq += 1;
    }
    present
}

/// Writes a checkpoint of `state` at `epoch` per `plan`, then resets the
/// WAL to an empty log with the same epoch. On success the old WAL
/// contents are gone (log truncation).
pub fn write_checkpoint(
    io: &dyn DurableIo,
    dir: &Path,
    epoch: u64,
    fingerprint: u64,
    state: &RelState,
    plan: CheckpointPlan<'_>,
) -> Result<CheckpointOutcome, CheckpointFailure> {
    let tmp = store_path(dir, SNAP_TMP_FILE);
    let (enc, geometry, snap_stats, kind, dest) = {
        let mut span = ridl_obs::enter("ckpt.encode");
        let out = match plan {
            CheckpointPlan::Base => {
                let (enc, geometry, stats) = encode_base(epoch, fingerprint, state);
                (
                    enc,
                    geometry,
                    stats,
                    CheckpointKind::Base,
                    SNAP_FILE.to_string(),
                )
            }
            CheckpointPlan::Delta {
                geometry,
                dirty,
                seq,
            } => {
                let (enc, stats) = encode_delta(epoch, fingerprint, state, geometry, dirty);
                (
                    enc,
                    geometry.clone(),
                    stats,
                    CheckpointKind::Delta,
                    delta_file(seq),
                )
            }
        };
        if span.is_recording() {
            span.attr("bytes", out.0.len());
            span.attr("extents", out.2.extents);
        }
        out
    };
    let mut outcome = CheckpointOutcome {
        wal_len: 0,
        stats: CheckpointStats {
            kind,
            bytes: snap_stats.bytes,
            extents_written: snap_stats.extents,
            extents_total: geometry.total_extents(),
            pages: snap_stats.pages,
        },
        geometry,
    };
    let dest_path = store_path(dir, &dest);
    let snap_stage = (|| {
        {
            let _tmp_span = ridl_obs::enter("ckpt.tmp_write");
            io.write_new(&tmp, &enc)?;
            io.sync(&tmp)?;
        }
        let _rename_span = ridl_obs::enter("ckpt.rename");
        if kind == CheckpointKind::Base {
            // Rotate the old base out of the way first; skip when a
            // previous failure already consumed `snap` (rename snap→prev
            // succeeded, rename tmp→snap did not — `prev` then still
            // holds the WAL's base and must not be clobbered).
            let snap = store_path(dir, SNAP_FILE);
            if io.exists(&snap) {
                io.rename(&snap, &store_path(dir, SNAP_PREV_FILE))?;
            }
        }
        io.rename(&tmp, &dest_path)
    })();
    snap_stage.map_err(CheckpointFailure::SnapshotWrite)?;
    // The renames are only power-loss-durable once the directory itself
    // is synced. Past the final rename the new snapshot must be assumed
    // current, so a directory-sync failure is a WAL-stage failure (the
    // caller poisons appends) — never a retryable "nothing happened".
    {
        let _dir_span = ridl_obs::enter("ckpt.dir_fsync");
        if let Err(error) = io.sync_dir(dir) {
            return Err(CheckpointFailure::WalReset { error, outcome });
        }
    }
    if kind == CheckpointKind::Base {
        // The new base supersedes the whole old delta chain. Stale
        // deltas can never chain onto the new base (their epochs are in
        // the past), so this is pure hygiene: ignore failures, and a
        // crash mid-way just leaves orphans for the next GC.
        let superseded = probe_deltas(io, dir);
        if !superseded.is_empty() {
            ridl_obs::journal::record(
                ridl_obs::Severity::Info,
                "ckpt.collapse",
                vec![("epoch", epoch.into()), ("deltas", superseded.len().into())],
            );
        }
        for seq in superseded {
            let _ = io.remove(&store_path(dir, &delta_file(seq)));
        }
    }
    let _reset_span = ridl_obs::enter("ckpt.wal_reset");
    match reset_wal(io, dir, epoch, fingerprint) {
        Ok(len) => {
            outcome.wal_len = len;
            Ok(outcome)
        }
        Err(error) => Err(CheckpointFailure::WalReset { error, outcome }),
    }
}

/// Atomically replaces the WAL with a fresh one carrying `epoch`.
/// Returns its byte length.
pub fn reset_wal(io: &dyn DurableIo, dir: &Path, epoch: u64, fingerprint: u64) -> io::Result<u64> {
    let tmp = store_path(dir, WAL_TMP_FILE);
    let wal = store_path(dir, WAL_FILE);
    let bytes = wal_init_bytes(epoch, fingerprint);
    io.write_new(&tmp, &bytes)?;
    io.sync(&tmp)?;
    io.rename(&tmp, &wal)?;
    io.sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

/// A decoded checkpoint state: the shape recovery loads.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// WAL epoch this snapshot pairs with: a WAL whose header carries the
    /// same epoch applies *on top of* this state; a smaller epoch means
    /// the WAL is stale (its effects are already included here).
    pub epoch: u64,
    /// Schema fingerprint the state was captured under.
    pub fingerprint: u64,
    /// The state.
    pub state: RelState,
}

/// Everything recovery needs, read and cross-checked from a store
/// directory.
#[derive(Debug, Default)]
pub struct StoreScan {
    /// The chosen checkpoint state (base merged with its delta chain) and
    /// the base file it came from, if any checkpoint was usable. `None`
    /// means the store starts from the empty state. The epoch is the
    /// chain head's (base epoch + deltas merged).
    pub snapshot: Option<(Snapshot, &'static str)>,
    /// Delta files merged on top of the base.
    pub deltas_merged: usize,
    /// The chain's extent geometry — the engine continues the delta
    /// chain against this.
    pub geometry: Option<ExtentGeometry>,
    /// Snapshot/delta files present but rejected (CRC/parse failure, or
    /// the wrong flavor for their slot).
    pub snapshots_rejected: usize,
    /// The WAL scan (committed units already filtered to the live
    /// epoch; stale units are dropped and counted below).
    pub wal: WalScan,
    /// Total WAL bytes on disk.
    pub wal_len: u64,
    /// True when the WAL's epoch predates the chain head — its units were
    /// already absorbed by a checkpoint and were discarded wholesale.
    pub stale_wal: bool,
    /// True when no WAL file existed (fresh directory).
    pub fresh: bool,
}

/// One checkpoint file that decoded to the flavor its slot requires.
#[derive(Debug)]
pub(crate) struct Decoded {
    /// File name inside the store directory.
    pub(crate) file: String,
    /// File size in bytes.
    pub(crate) bytes: u64,
    /// The decoded file.
    pub(crate) snap: PagedSnap,
}

/// The one read-only classification of a store directory, which both
/// [`read_store`] (recovery) and [`crate::inspect::inspect_store`]
/// (`ridl status`) derive from. Every checkpoint file is decoded once;
/// the chain-link rule, the WAL-epoch rules and every corrupt verdict
/// live here and nowhere else.
#[derive(Debug, Default)]
pub(crate) struct Survey {
    /// Orphaned staging files present (`checkpoint.tmp`, `wal.tmp`).
    pub(crate) tmp_debris: Vec<&'static str>,
    /// Base slots (`checkpoint.snap`, then `checkpoint.prev`) that hold a
    /// valid base. The first is the chain's base: the newest valid base
    /// decides.
    pub(crate) bases: Vec<Decoded>,
    /// Which slot `bases[0]` came from.
    pub(crate) base_file: Option<&'static str>,
    /// Delta files that hold a valid delta, with their sequence number,
    /// in sequence order.
    pub(crate) deltas: Vec<(u32, Decoded)>,
    /// How many of `deltas` link onto the base; the rest are orphans.
    pub(crate) chain_len: usize,
    /// Files present but undecodable or holding the wrong flavor for
    /// their slot: `(file, error)`.
    pub(crate) rejected: Vec<(String, String)>,
    /// Whether `wal.log` exists.
    pub(crate) wal_present: bool,
    /// Total WAL bytes on disk.
    pub(crate) wal_len: u64,
    /// The WAL scan, unfiltered (stale units still present).
    pub(crate) wal: WalScan,
    /// True when the WAL's epoch predates the chain head.
    pub(crate) stale_wal: bool,
    /// Human-readable notes on everything recovery would repair or
    /// discard.
    pub(crate) issues: Vec<String>,
    /// Why recovery must refuse the store, if it must.
    pub(crate) corrupt: Option<String>,
}

impl Survey {
    /// The chain head's epoch (base epoch + linked deltas), if a base is
    /// usable.
    pub(crate) fn head_epoch(&self) -> Option<u64> {
        self.bases
            .first()
            .map(|b| b.snap.epoch + self.chain_len as u64)
    }

    /// Reads and decodes one checkpoint file, recording a rejection when
    /// it does not decode or holds the wrong flavor for its slot.
    fn decode_slot(
        &mut self,
        io: &dyn DurableIo,
        dir: &Path,
        file: String,
        want: SnapFlavor,
    ) -> io::Result<Option<Decoded>> {
        let bytes = io.read(&store_path(dir, &file))?;
        let (error, issue) = match decode_paged(&bytes) {
            Ok(snap) if snap.flavor == want => {
                let bytes = bytes.len() as u64;
                return Ok(Some(Decoded { file, bytes, snap }));
            }
            Ok(_) if want == SnapFlavor::Base => (
                "base checkpoint file holds a delta".to_string(),
                format!("{file}: holds a delta, not a base snapshot"),
            ),
            Ok(_) => (
                "delta file does not hold a v2 delta".to_string(),
                format!("{file}: not a delta snapshot (base)"),
            ),
            Err(e) => {
                let issue = format!("{file}: rejected ({})", e.0);
                (e.0, issue)
            }
        };
        self.rejected.push((file, error));
        self.issues.push(issue);
        Ok(None)
    }
}

/// Classifies `dir` read-only. I/O errors propagate; everything else —
/// corruption included — is recorded in the returned [`Survey`], never
/// acted on.
pub(crate) fn survey(io: &dyn DurableIo, dir: &Path) -> io::Result<Survey> {
    let mut s = Survey::default();
    for tmp in [SNAP_TMP_FILE, WAL_TMP_FILE] {
        if io.exists(&store_path(dir, tmp)) {
            s.tmp_debris.push(tmp);
            s.issues.push(format!(
                "{tmp}: orphaned staging file (recovery deletes it)"
            ));
        }
    }
    for file in [SNAP_FILE, SNAP_PREV_FILE] {
        if io.exists(&store_path(dir, file)) {
            if let Some(base) = s.decode_slot(io, dir, file.to_string(), SnapFlavor::Base)? {
                s.base_file.get_or_insert(file);
                s.bases.push(base);
            }
        }
    }
    for seq in probe_deltas(io, dir) {
        if let Some(delta) = s.decode_slot(io, dir, delta_file(seq), SnapFlavor::Delta)? {
            s.deltas.push((seq, delta));
        }
    }

    let wal_path = store_path(dir, WAL_FILE);
    s.wal_present = io.exists(&wal_path);
    if s.wal_present {
        let bytes = io.read(&wal_path)?;
        s.wal_len = bytes.len() as u64;
        s.wal = scan_wal(&bytes);
        if s.wal.header.is_none() && !bytes.is_empty() {
            s.issues
                .push(format!("{WAL_FILE}: header unreadable (torn or corrupt)"));
        }
        if s.wal.discarded > 0 {
            s.issues.push(format!(
                "{WAL_FILE}: {} torn-tail bytes past the last committed unit (recovery discards them)",
                s.wal.discarded
            ));
        }
    }
    let wal_header = s.wal.header.map(|h| (h.epoch, h.fingerprint));

    let (Some(file), Some(base)) = (s.base_file, s.bases.first().map(|b| &b.snap)) else {
        // No usable base: any delta is unanchored, and a WAL that is not
        // at epoch 0 (or cannot say which epoch it is at, while a
        // checkpoint file was rejected) needs the checkpoint that is
        // gone. A rejected base slot is damage at rest whatever the WAL
        // says: a base is renamed into its slot only once complete, so
        // no crash leaves one unreadable, and starting from the empty
        // state would drop rows (bulk loads) that never entered the WAL.
        for (_, d) in &s.deltas {
            s.issues.push(format!(
                "{}: delta without a usable base checkpoint",
                d.file
            ));
        }
        let rejected_base = s
            .rejected
            .iter()
            .find(|(f, _)| f == SNAP_FILE || f == SNAP_PREV_FILE);
        s.corrupt = match (wal_header, rejected_base) {
            (Some((we, _)), _) if we != 0 => {
                Some(format!("WAL epoch {we} but no usable checkpoint found"))
            }
            (None, _) if s.wal_len > 0 && !s.rejected.is_empty() => {
                Some("no readable checkpoint and WAL header unreadable".into())
            }
            (_, Some((f, _))) => Some(format!("{f} rejected and no usable base checkpoint")),
            _ => None,
        };
        return Ok(s);
    };

    // The chain-link rule: `checkpoint.d{k}` belongs iff the deltas are
    // dense from 1, its epoch is exactly base.epoch + k, and fingerprint
    // + geometry match the base. The first gap, epoch skip or mismatch
    // ends the chain; later files are orphans.
    let chain_len = s
        .deltas
        .iter()
        .zip(1u32..)
        .take_while(|((seq, d), k)| {
            *seq == *k
                && d.snap.epoch == base.epoch + u64::from(*k)
                && d.snap.fingerprint == base.fingerprint
                && d.snap.geometry == base.geometry
        })
        .count();
    let head_epoch = base.epoch + chain_len as u64;
    s.chain_len = chain_len;
    for (_, d) in &s.deltas[chain_len..] {
        s.issues.push(format!(
            "{}: orphan delta (epoch {} cannot chain onto base epoch {})",
            d.file, d.snap.epoch, base.epoch
        ));
    }

    // The WAL-epoch rules. Below the chain head the log is stale (its
    // units are already inside the chain); above it, the checkpoint the
    // log applies to is gone, and replaying it against an older state
    // would corrupt it. A WAL written under another fingerprint than the
    // base can never be opened: recovery checks both against one schema.
    match wal_header {
        Some((we, _)) if we > head_epoch => {
            s.corrupt = Some(format!(
                "WAL epoch {we} requires a newer checkpoint than {file} (chain head epoch {head_epoch})"
            ));
        }
        Some((we, _)) if we < head_epoch => {
            s.stale_wal = true;
            s.issues.push(format!(
                "{WAL_FILE}: stale (epoch {we} predates chain head {head_epoch}); recovery discards its units"
            ));
        }
        _ => {}
    }
    if let Some((_, wal_fp)) = wal_header {
        if wal_fp != base.fingerprint && s.corrupt.is_none() {
            s.corrupt = Some(format!(
                "{WAL_FILE}: schema fingerprint {wal_fp:#018x} differs from checkpoint {:#018x}",
                base.fingerprint
            ));
        }
    }
    Ok(s)
}

/// Reads and validates a store directory: `survey`, refuse if the
/// survey found the store corrupt, merge the chain, then repair. I/O
/// errors propagate; cross-file inconsistencies that would force
/// replaying ops against the wrong base state come back as
/// [`CorruptError`].
///
/// The **repair hygiene** runs only once the store is known to be
/// recoverable, so a refused store is left exactly as found: an orphaned
/// `checkpoint.tmp`/`wal.tmp` (crash or failed checkpoint mid-write) is
/// deleted, and — when a base was chosen — so are delta files that did
/// not chain onto it and rejected checkpoint files other than
/// `checkpoint.prev` (a corrupt `checkpoint.snap` must not be rotated
/// into the fallback slot by the next base checkpoint).
pub fn read_store(io: &dyn DurableIo, dir: &Path) -> io::Result<Result<StoreScan, CorruptError>> {
    let mut s = survey(io, dir)?;
    if let Some(why) = s.corrupt {
        return Ok(Err(CorruptError(why)));
    }
    let mut out = StoreScan {
        snapshots_rejected: s.rejected.len(),
        wal: s.wal,
        wal_len: s.wal_len,
        stale_wal: s.stale_wal,
        fresh: !s.wal_present,
        ..StoreScan::default()
    };
    if out.stale_wal {
        out.wal.units.clear();
    }
    let mut doomed: Vec<String> = Vec::new();
    if let (Some(file), Some(base)) = (s.base_file, s.bases.into_iter().next()) {
        let orphans = s.deltas.split_off(s.chain_len);
        out.geometry = Some(base.snap.geometry.clone());
        let chain = s.deltas.into_iter().map(|(_, d)| d.snap).collect();
        let snapshot = Snapshot {
            epoch: base.snap.epoch + s.chain_len as u64,
            fingerprint: base.snap.fingerprint,
            state: match merge_chain(base.snap, chain) {
                Ok(state) => state,
                Err(e) => return Ok(Err(e)),
            },
        };
        out.snapshot = Some((snapshot, file));
        out.deltas_merged = s.chain_len;
        doomed.extend(orphans.into_iter().map(|(_, d)| d.file));
        let rejected = s.rejected.into_iter().map(|(f, _)| f);
        doomed.extend(rejected.filter(|f| f != SNAP_PREV_FILE));
    }

    // A tmp file is never meaningful at rest: it is either a fully
    // renamed checkpoint (then it no longer has this name) or an
    // abandoned write. Delete it so a retried checkpoint starts clean.
    for tmp in s.tmp_debris {
        io.remove(&store_path(dir, tmp))?;
    }
    // Orphan deltas can never chain again (epochs are monotone), and a
    // rejected `snap` must not be rotated into `prev` by the next base
    // checkpoint; removing them is best-effort.
    for file in doomed {
        let _ = io.remove(&store_path(dir, &file));
    }
    Ok(Ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyIo;
    use crate::inspect::inspect_store;
    use crate::wal::encode_unit;
    use ridl_brm::Value;
    use ridl_relational::{DeltaOp, TableId};

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    fn state_one_row() -> RelState {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![Some(Value::str("x"))]);
        st
    }

    /// Plants a one-row base checkpoint at `epoch` in `file`.
    fn plant_base(io: &FaultyIo, file: &str, epoch: u64) {
        let (bytes, _, _) = encode_base(epoch, 7, &state_one_row());
        io.poke(&store_path(&dir(), file), bytes);
    }

    /// Both readers' verdicts: recovery's refusal reason (if it refused)
    /// and the inspector's one-word verdict.
    fn verdicts(io: &FaultyIo) -> (Option<String>, &'static str) {
        let verdict = inspect_store(io, &dir()).unwrap().verdict();
        let refused = read_store(io, &dir()).unwrap().err().map(|e| e.0);
        (refused, verdict)
    }

    fn append_insert(io: &FaultyIo, text: &str) {
        io.append(
            &store_path(&dir(), WAL_FILE),
            &encode_unit(
                &[DeltaOp::Insert {
                    table: TableId(0),
                    row: vec![Some(Value::str(text))],
                }],
                true,
            ),
        )
        .unwrap();
        io.sync(&store_path(&dir(), WAL_FILE)).unwrap();
    }

    #[test]
    fn checkpoint_then_read_roundtrips_and_truncates() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "x");

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.wal.units.len(), 1);
        assert!(scan.snapshot.is_none());

        let outcome =
            write_checkpoint(&io, &dir(), 1, 7, &state_one_row(), CheckpointPlan::Base).unwrap();
        assert_eq!(outcome.stats.kind, CheckpointKind::Base);
        assert_eq!(outcome.stats.extents_written, outcome.stats.extents_total);
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        let (snap, file) = scan.snapshot.expect("checkpoint present");
        assert_eq!(file, SNAP_FILE);
        assert_eq!(scan.geometry.as_ref(), Some(&outcome.geometry));
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.state, state_one_row());
        assert!(scan.wal.units.is_empty(), "WAL truncated");
        assert!(!scan.stale_wal);
    }

    #[test]
    fn delta_chain_merges_and_advances_epoch() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;

        // Two delta checkpoints, each changing one row.
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            st.insert(TableId(0), row);
            let out = write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &st,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
            assert_eq!(out.stats.kind, CheckpointKind::Delta);
            assert!(io.exists(&store_path(&dir(), &delta_file(seq))));
        }

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        let (snap, _) = scan.snapshot.unwrap();
        assert_eq!(snap.epoch, 3, "chain head = base 1 + two deltas");
        assert_eq!(snap.state, st);
        assert_eq!(scan.deltas_merged, 2);
        assert!(scan.wal.units.is_empty());
    }

    #[test]
    fn base_checkpoint_garbage_collects_the_old_chain() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        st.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &st,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        assert!(io.exists(&store_path(&dir(), &delta_file(1))));

        write_checkpoint(&io, &dir(), 3, 7, &st, CheckpointPlan::Base).unwrap();
        assert!(
            !io.exists(&store_path(&dir(), &delta_file(1))),
            "old delta GC'd by the new base"
        );
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.snapshot.unwrap().0.epoch, 3);
        assert_eq!(scan.deltas_merged, 0);
    }

    #[test]
    fn stale_delta_from_an_older_chain_cannot_link() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        st.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &st,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        // Simulate an interrupted GC: keep a copy of the old d1, write a
        // new base (which GCs d1), then put the stale d1 back.
        let stale = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        write_checkpoint(&io, &dir(), 3, 7, &st, CheckpointPlan::Base).unwrap();
        io.poke(&store_path(&dir(), &delta_file(1)), stale);

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        // d1's epoch is 2, but chaining onto base(3) requires epoch 4.
        assert_eq!(scan.deltas_merged, 0);
        assert_eq!(scan.snapshot.unwrap().0.epoch, 3);
        assert!(
            !io.exists(&store_path(&dir(), &delta_file(1))),
            "orphan delta removed by scan hygiene"
        );
    }

    #[test]
    fn orphaned_tmp_files_are_deleted_by_read_store() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        io.poke(
            &store_path(&dir(), SNAP_TMP_FILE),
            b"half a checkpoint".to_vec(),
        );
        io.poke(&store_path(&dir(), "wal.tmp"), b"half a wal".to_vec());
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(!io.exists(&store_path(&dir(), SNAP_TMP_FILE)));
        assert!(!io.exists(&store_path(&dir(), "wal.tmp")));
        assert_eq!(scan.snapshots_rejected, 0, "tmp is not a candidate at all");
    }

    #[test]
    fn stale_wal_is_discarded_not_replayed() {
        let io = FaultyIo::new();
        // Simulate a crash after the snapshot renames but before the WAL
        // reset: snapshot at epoch 1, WAL still at epoch 0 with a unit.
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "old");
        plant_base(&io, SNAP_FILE, 1);

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(scan.stale_wal);
        assert!(scan.wal.units.is_empty());
        assert_eq!(scan.snapshot.unwrap().0.epoch, 1);
    }

    #[test]
    fn corrupt_snap_falls_back_to_prev_when_epochs_allow() {
        let io = FaultyIo::new();
        plant_base(&io, SNAP_PREV_FILE, 1);
        io.poke(&store_path(&dir(), SNAP_FILE), b"garbage".to_vec());
        reset_wal(&io, &dir(), 1, 7).unwrap();
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.snapshots_rejected, 1);
        assert_eq!(scan.snapshot.unwrap().1, SNAP_PREV_FILE);
        assert!(
            !io.exists(&store_path(&dir(), SNAP_FILE)),
            "corrupt snap removed so the next base cannot rotate it into prev"
        );
    }

    #[test]
    fn wal_ahead_of_every_checkpoint_is_corruption() {
        let io = FaultyIo::new();
        plant_base(&io, SNAP_PREV_FILE, 1);
        reset_wal(&io, &dir(), 2, 7).unwrap();
        assert!(read_store(&io, &dir()).unwrap().is_err());

        // Same with no checkpoint at all.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 3, 7).unwrap();
        assert!(read_store(&io, &dir()).unwrap().is_err());
    }

    #[test]
    fn corrupt_delta_truncates_the_chain_conservatively() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            st.insert(TableId(0), row);
            write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &st,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
        }
        // Corrupt d1: the chain now ends at the base, and the WAL (epoch
        // 3, ahead of the base) can no longer be replayed → corruption,
        // not a silent partial merge.
        let mut d1 = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        let mid = d1.len() / 2;
        d1[mid] ^= 0xff;
        io.poke(&store_path(&dir(), &delta_file(1)), d1);
        assert!(read_store(&io, &dir()).unwrap().is_err());
    }

    #[test]
    fn unreadable_snap_and_wal_header_are_refused_by_both_readers() {
        // A base at epoch 1 plus one committed unit; then `snap` rots at
        // rest (no `prev` to fall back to) and the WAL header frame takes
        // a flipped byte, so nothing says which epoch the log is at.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        write_checkpoint(&io, &dir(), 1, 7, &state_one_row(), CheckpointPlan::Base).unwrap();
        append_insert(&io, "committed");
        io.poke(&store_path(&dir(), SNAP_FILE), b"garbage".to_vec());
        let mut wal = io.peek(&store_path(&dir(), WAL_FILE)).unwrap();
        wal[20] ^= 0x01; // inside the header frame's payload
        io.poke(&store_path(&dir(), WAL_FILE), wal.clone());
        io.poke(&store_path(&dir(), SNAP_TMP_FILE), b"half".to_vec());

        let (refused, verdict) = verdicts(&io);
        assert_eq!(verdict, "corrupt");
        assert_eq!(
            refused.as_deref(),
            Some("no readable checkpoint and WAL header unreadable")
        );
        // A refused store is left as found: no hygiene ran.
        assert_eq!(io.peek(&store_path(&dir(), WAL_FILE)), Some(wal));
        assert!(io.exists(&store_path(&dir(), SNAP_TMP_FILE)));
        assert!(io.exists(&store_path(&dir(), SNAP_FILE)));
    }

    #[test]
    fn wal_fingerprint_differing_from_the_base_is_refused_by_both_readers() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        write_checkpoint(&io, &dir(), 1, 7, &state_one_row(), CheckpointPlan::Base).unwrap();
        reset_wal(&io, &dir(), 1, 8).unwrap();
        let (refused, verdict) = verdicts(&io);
        assert_eq!(verdict, "corrupt");
        assert!(
            refused
                .as_deref()
                .is_some_and(|r| r.contains("fingerprint")),
            "{refused:?}"
        );

        // Matching fingerprints on the same store: both readers accept.
        reset_wal(&io, &dir(), 1, 7).unwrap();
        assert_eq!(verdicts(&io), (None, "clean"));
    }

    #[test]
    fn rejected_only_base_is_refused_whatever_the_wal_epoch() {
        // A retired v1 `checkpoint.snap` (what a crash inside a v1 build's
        // first checkpoint leaves next to an epoch-0 WAL), and the same
        // file with no WAL at all: neither may open as the empty state.
        for with_wal in [true, false] {
            let io = FaultyIo::new();
            if with_wal {
                reset_wal(&io, &dir(), 0, 7).unwrap();
            }
            let v1 = b"RIDLSNAP 1\nepoch 1\nfingerprint 0000000000000007\ntables 0\nend\n";
            io.poke(&store_path(&dir(), SNAP_FILE), v1.to_vec());
            let wal = io.peek(&store_path(&dir(), WAL_FILE));

            let (refused, verdict) = verdicts(&io);
            assert_eq!(verdict, "corrupt", "with_wal={with_wal}");
            assert_eq!(
                refused.as_deref(),
                Some("checkpoint.snap rejected and no usable base checkpoint"),
                "with_wal={with_wal}"
            );
            assert_eq!(io.peek(&store_path(&dir(), SNAP_FILE)), Some(v1.to_vec()));
            assert_eq!(io.peek(&store_path(&dir(), WAL_FILE)), wal);
        }
    }

    #[test]
    fn fresh_directory_scans_empty() {
        let io = FaultyIo::new();
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(scan.fresh);
        assert!(scan.snapshot.is_none());
        assert!(scan.wal.units.is_empty());
    }
}
