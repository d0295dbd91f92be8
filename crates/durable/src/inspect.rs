//! Offline, read-only store inspection: the store survey (`store::survey`)
//! rendered as a report, without the repair half of
//! [`crate::store::read_store`].
//!
//! `ridl status` points this at a store directory and reports what is
//! there *without opening the database*: the checkpoint chain (base file,
//! epoch, delta links), WAL health (CRC-valid committed units, torn-tail
//! bytes), fingerprint/geometry consistency, and debris (orphaned tmp
//! files, unchained delta files, rejected snapshots). Unlike
//! `read_store`, which deletes tmp files and orphans as repair hygiene,
//! inspection never writes: it is safe to run against a store another
//! process owns, or against evidence you want preserved.
//!
//! Recovery and inspection read the same survey, so the verdict agrees
//! with what `Database::open` would find by construction:
//! [`StoreStatus::verdict`] says `corrupt` exactly when recovery refuses
//! the store, `recoverable` when recovery would succeed but had
//! something to clean up (torn tail, stale WAL, debris), `clean` when
//! there is nothing to do, and `fresh` for an empty directory.

use std::io;
use std::path::Path;

use ridl_obs::json::{or_null, quote};

use crate::io::DurableIo;
use crate::pagesnap::SnapFlavor;
use crate::store::{survey, Decoded};

/// What one checkpoint file (base, fallback, or delta) holds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointInfo {
    /// File name inside the store directory.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Snapshot format: always 2 (binary paged), the one readable format.
    pub format: u8,
    /// `base` or `delta`.
    pub flavor: &'static str,
    /// Epoch stamped in the file.
    pub epoch: u64,
    /// Schema fingerprint stamped in the file.
    pub fingerprint: u64,
    /// Extents carried by the file.
    pub extents_carried: u64,
    /// Total extents in the file's geometry.
    pub extents_total: u64,
    /// Whether this file participates in the live chain: true for the
    /// chosen base, and for each delta that links onto it.
    pub chained: bool,
}

/// WAL health as seen on disk.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WalStatus {
    /// Whether `wal.log` exists.
    pub present: bool,
    /// Total bytes on disk.
    pub bytes: u64,
    /// Header `(epoch, fingerprint)` if the header frame was readable.
    pub header: Option<(u64, u64)>,
    /// CRC-valid committed units.
    pub units: usize,
    /// Delta ops inside those units.
    pub ops: usize,
    /// Bytes up to the end of the last committed unit.
    pub committed_bytes: u64,
    /// Bytes past that point (torn/partial/corrupt tail).
    pub torn_bytes: u64,
    /// True when the WAL's epoch predates the chain head: its units are
    /// already inside the chain and recovery discards them wholesale.
    pub stale: bool,
}

/// Everything the offline inspector found in a store directory.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StoreStatus {
    /// The directory inspected.
    pub dir: String,
    /// The chain's head epoch (base epoch + chained deltas), if a base
    /// checkpoint was usable.
    pub epoch: Option<u64>,
    /// Which file the chain's base came from (`checkpoint.snap` or
    /// `checkpoint.prev`).
    pub base_file: Option<&'static str>,
    /// Chained delta count.
    pub chain_len: usize,
    /// Every checkpoint file that decoded, in layout order: `snap`,
    /// `prev`, then deltas. `chained` marks the live chain.
    pub checkpoints: Vec<CheckpointInfo>,
    /// Files present but undecodable: `(file, error)`.
    pub rejected: Vec<(String, String)>,
    /// Orphaned staging files present (`checkpoint.tmp`, `wal.tmp`).
    pub tmp_debris: Vec<String>,
    /// Delta files present that do not link onto the chain.
    pub orphan_deltas: Vec<String>,
    /// WAL health.
    pub wal: WalStatus,
    /// A store-level inconsistency that would make recovery refuse the
    /// directory (WAL ahead of every checkpoint, …).
    pub corrupt: Option<String>,
    /// Human-readable notes on everything recovery would repair or
    /// discard.
    pub issues: Vec<String>,
}

impl StoreStatus {
    /// One-word health verdict: `fresh`, `clean`, `recoverable`, or
    /// `corrupt` (see module docs).
    pub fn verdict(&self) -> &'static str {
        if self.corrupt.is_some() {
            "corrupt"
        } else if self.epoch.is_none()
            && !self.wal.present
            && self.checkpoints.is_empty()
            && self.rejected.is_empty()
            && self.tmp_debris.is_empty()
        {
            "fresh"
        } else if self.issues.is_empty() {
            "clean"
        } else {
            "recoverable"
        }
    }
}

fn info_of(d: &Decoded, chained: bool) -> CheckpointInfo {
    CheckpointInfo {
        file: d.file.clone(),
        bytes: d.bytes,
        format: 2,
        flavor: match d.snap.flavor {
            SnapFlavor::Base => "base",
            SnapFlavor::Delta => "delta",
        },
        epoch: d.snap.epoch,
        fingerprint: d.snap.fingerprint,
        extents_carried: d.snap.extents.len() as u64,
        extents_total: d.snap.geometry.total_extents(),
        chained,
    }
}

/// Inspects `dir` read-only. I/O errors propagate; everything else —
/// corruption included — is reported in the returned [`StoreStatus`],
/// never acted on.
pub fn inspect_store(io: &dyn DurableIo, dir: &Path) -> io::Result<StoreStatus> {
    let s = survey(io, dir)?;
    let (chained, orphans) = s.deltas.split_at(s.chain_len);
    let bases = s.bases.iter().enumerate().map(|(i, b)| info_of(b, i == 0));
    let chained_infos = chained.iter().map(|(_, d)| info_of(d, true));
    let orphan_infos = orphans.iter().map(|(_, d)| info_of(d, false));
    Ok(StoreStatus {
        dir: dir.display().to_string(),
        epoch: s.head_epoch(),
        base_file: s.base_file,
        chain_len: s.chain_len,
        checkpoints: bases.chain(chained_infos).chain(orphan_infos).collect(),
        tmp_debris: s.tmp_debris.iter().map(|t| t.to_string()).collect(),
        orphan_deltas: orphans.iter().map(|(_, d)| d.file.clone()).collect(),
        wal: WalStatus {
            present: s.wal_present,
            bytes: s.wal_len,
            header: s.wal.header.map(|h| (h.epoch, h.fingerprint)),
            units: s.wal.units.len(),
            ops: s.wal.units.iter().map(|u| u.ops.len()).sum(),
            committed_bytes: s.wal.committed_end,
            torn_bytes: s.wal.discarded,
            stale: s.stale_wal,
        },
        rejected: s.rejected,
        corrupt: s.corrupt,
        issues: s.issues,
    })
}

impl StoreStatus {
    /// Machine-readable JSON (one object, pretty enough to diff). The
    /// schema is stable for CI: `verdict`, `epoch`, `chain`, `wal`,
    /// `checkpoints`, `rejected`, `debris`, `orphans`, `issues`,
    /// `corrupt`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"dir\": {},\n", quote(&self.dir)));
        s.push_str(&format!("  \"verdict\": \"{}\",\n", self.verdict()));
        s.push_str(&format!("  \"epoch\": {},\n", or_null(self.epoch)));
        let base = self
            .checkpoints
            .iter()
            .find(|c| c.chained && c.flavor == "base");
        s.push_str(&format!(
            "  \"chain\": {{\"base_file\": {}, \"format\": {}, \"base_epoch\": {}, \"deltas\": {}}},\n",
            or_null(self.base_file.map(quote)),
            base.map_or(0, |b| b.format),
            or_null(base.map(|b| b.epoch)),
            self.chain_len
        ));
        s.push_str("  \"wal\": {");
        if self.wal.present {
            let (epoch, fingerprint) = self.wal.header.unzip();
            s.push_str(&format!(
                "\"present\": true, \"bytes\": {}, \"epoch\": {}, \"fingerprint\": {}, ",
                self.wal.bytes,
                or_null(epoch),
                or_null(fingerprint.map(|fp| format!("\"{fp:#018x}\"")))
            ));
            s.push_str(&format!(
                "\"units\": {}, \"ops\": {}, \"committed_bytes\": {}, \"torn_bytes\": {}, \"stale\": {}}},\n",
                self.wal.units,
                self.wal.ops,
                self.wal.committed_bytes,
                self.wal.torn_bytes,
                self.wal.stale
            ));
        } else {
            s.push_str("\"present\": false},\n");
        }
        s.push_str("  \"checkpoints\": [");
        for (i, c) in self.checkpoints.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"file\": {}, \"bytes\": {}, \"format\": {}, \"flavor\": {}, \"epoch\": {}, \"fingerprint\": \"{:#018x}\", \"extents_carried\": {}, \"extents_total\": {}, \"chained\": {}}}",
                quote(&c.file),
                c.bytes,
                c.format,
                quote(c.flavor),
                c.epoch,
                c.fingerprint,
                c.extents_carried,
                c.extents_total,
                c.chained
            ));
        }
        s.push_str("],\n");
        s.push_str("  \"rejected\": [");
        for (i, (f, e)) in self.rejected.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"file\": {}, \"error\": {}}}",
                quote(f),
                quote(e)
            ));
        }
        s.push_str("],\n");
        for (key, list) in [
            ("debris", &self.tmp_debris),
            ("orphans", &self.orphan_deltas),
            ("issues", &self.issues),
        ] {
            s.push_str(&format!("  \"{key}\": ["));
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote(item).to_string());
            }
            s.push_str("],\n");
        }
        s.push_str(&format!(
            "  \"corrupt\": {}\n",
            or_null(self.corrupt.as_deref().map(quote))
        ));
        s.push('}');
        s
    }
}

impl std::fmt::Display for StoreStatus {
    /// The human summary `ridl status` prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "store: {}", self.dir)?;
        writeln!(f, "verdict: {}", self.verdict())?;
        match (self.epoch, self.base_file) {
            (Some(epoch), Some(file)) => {
                let base = self
                    .checkpoints
                    .iter()
                    .find(|c| c.chained && c.flavor == "base");
                let format = match base.map(|b| b.format) {
                    Some(2) => "v2 paged",
                    _ => "unknown",
                };
                writeln!(
                    f,
                    "chain: epoch {epoch} = base {} ({file}, {format}) + {} delta(s)",
                    base.map(|b| b.epoch).unwrap_or(epoch),
                    self.chain_len
                )?;
                if let Some(b) = base {
                    writeln!(
                        f,
                        "base: {} bytes, {} extents, fingerprint {:#018x}",
                        b.bytes, b.extents_total, b.fingerprint
                    )?;
                }
                for c in self.checkpoints.iter().filter(|c| c.flavor == "delta") {
                    writeln!(
                        f,
                        "delta: {} epoch {} ({} bytes, {} extent(s)){}",
                        c.file,
                        c.epoch,
                        c.bytes,
                        c.extents_carried,
                        if c.chained { "" } else { " [orphan]" }
                    )?;
                }
            }
            _ => writeln!(f, "chain: no usable checkpoint")?,
        }
        if self.wal.present {
            match self.wal.header {
                Some((epoch, _)) => writeln!(
                    f,
                    "wal: epoch {epoch}, {} bytes, {} unit(s) / {} op(s) committed, {} torn byte(s){}",
                    self.wal.bytes,
                    self.wal.units,
                    self.wal.ops,
                    self.wal.torn_bytes,
                    if self.wal.stale { " [stale]" } else { "" }
                )?,
                None => writeln!(f, "wal: {} bytes, header unreadable", self.wal.bytes)?,
            }
        } else {
            writeln!(f, "wal: none")?;
        }
        for (file, err) in &self.rejected {
            writeln!(f, "rejected: {file}: {err}")?;
        }
        for d in &self.tmp_debris {
            writeln!(f, "debris: {d}")?;
        }
        if let Some(why) = &self.corrupt {
            writeln!(f, "corrupt: {why}")?;
        }
        for issue in &self.issues {
            writeln!(f, "note: {issue}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyIo;
    use crate::pagesnap::encode_base;
    use crate::store::{
        delta_file, reset_wal, store_path, write_checkpoint, CheckpointPlan, SNAP_FILE,
        SNAP_PREV_FILE, SNAP_TMP_FILE, WAL_FILE,
    };
    use crate::wal::encode_unit;
    use ridl_brm::Value;
    use ridl_relational::{DeltaOp, RelState, TableId};
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    fn state_one_row() -> RelState {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![Some(Value::str("x"))]);
        st
    }

    /// Plants a one-row base checkpoint at epoch 1 in `file`.
    fn plant_base(io: &FaultyIo, file: &str) {
        let (bytes, _, _) = encode_base(1, 7, &state_one_row());
        io.poke(&store_path(&dir(), file), bytes);
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
    fn fresh_directory_is_fresh() {
        let io = FaultyIo::new();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "fresh");
        assert!(st.epoch.is_none());
        assert!(!st.wal.present);
        let json = st.to_json();
        assert!(json.contains("\"verdict\": \"fresh\""));
        assert!(json.contains("\"epoch\": null"));
    }

    #[test]
    fn healthy_chain_reports_epoch_and_links() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut state = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &state, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            state.insert(TableId(0), row);
            write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &state,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
        }
        append_insert(&io, "tail");

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "clean");
        assert_eq!(st.epoch, Some(3), "base 1 + two deltas");
        assert_eq!(st.base_file, Some(SNAP_FILE));
        assert_eq!(st.chain_len, 2);
        assert_eq!(st.wal.units, 1);
        assert_eq!(st.wal.torn_bytes, 0);
        assert!(st.checkpoints.iter().all(|c| c.chained));
        // Read-only: nothing was deleted or created.
        assert!(io.exists(&store_path(&dir(), &delta_file(1))));
        let json = st.to_json();
        assert!(json.contains("\"deltas\": 2"));
        assert!(json.contains("\"units\": 1"));
        let human = st.to_string();
        assert!(human.contains("chain: epoch 3 = base 1"));
    }

    #[test]
    fn torn_tail_and_debris_are_reported_not_repaired() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "good");
        // A torn append: half a unit past the committed end.
        let unit = encode_unit(
            &[DeltaOp::Insert {
                table: TableId(0),
                row: vec![Some(Value::str("torn"))],
            }],
            true,
        );
        io.append(&store_path(&dir(), WAL_FILE), &unit[..unit.len() / 2])
            .unwrap();
        io.poke(&store_path(&dir(), SNAP_TMP_FILE), b"half".to_vec());

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.wal.units, 1);
        assert!(st.wal.torn_bytes > 0);
        assert_eq!(st.tmp_debris, vec![SNAP_TMP_FILE.to_string()]);
        // Inspection never repairs: debris survives.
        assert!(io.exists(&store_path(&dir(), SNAP_TMP_FILE)));
        assert!(st.corrupt.is_none());
        assert!(st.issues.iter().any(|i| i.contains("torn-tail")));
    }

    #[test]
    fn orphan_delta_is_flagged_but_kept() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut state = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &state, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        state.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &state,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        // Interrupted GC: stale d1 survives a new base.
        let stale = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        write_checkpoint(&io, &dir(), 3, 7, &state, CheckpointPlan::Base).unwrap();
        io.poke(&store_path(&dir(), &delta_file(1)), stale);

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.epoch, Some(3));
        assert_eq!(st.chain_len, 0);
        assert_eq!(st.orphan_deltas, vec![delta_file(1)]);
        assert!(io.exists(&store_path(&dir(), &delta_file(1))), "kept");
    }

    #[test]
    fn wal_ahead_of_the_chain_is_corrupt() {
        let io = FaultyIo::new();
        plant_base(&io, SNAP_PREV_FILE);
        reset_wal(&io, &dir(), 2, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "corrupt");
        assert!(st.corrupt.as_deref().unwrap().contains("WAL epoch 2"));

        // No checkpoint at all, WAL at a checkpointed epoch.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 3, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "corrupt");
    }

    #[test]
    fn stale_wal_and_corrupt_snap_fallback_match_recovery() {
        // Crash between checkpoint renames and WAL reset: snapshot at
        // epoch 1, WAL still at epoch 0.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "old");
        plant_base(&io, SNAP_FILE);
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert!(st.wal.stale);
        assert_eq!(st.epoch, Some(1));

        // Corrupt snap falls back to prev — and reports the rejection.
        let io = FaultyIo::new();
        plant_base(&io, SNAP_PREV_FILE);
        io.poke(&store_path(&dir(), SNAP_FILE), b"garbage".to_vec());
        reset_wal(&io, &dir(), 1, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.base_file, Some(SNAP_PREV_FILE));
        assert_eq!(st.rejected.len(), 1);
        assert!(io.exists(&store_path(&dir(), SNAP_FILE)), "not deleted");
    }
}
