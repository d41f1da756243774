//! Checkpoint/resume for long-running sweeps.
//!
//! The paper's evaluation ground per-destination routing trees for a
//! 36K-AS graph on a 200-node cluster; at that scale a mid-sweep crash
//! must not discard hours of finished work. A [`SweepCheckpoint`]
//! records every completed sweep unit (one `(adopter set, θ)` cell, one
//! census round, …) keyed by a caller-chosen string, and persists
//! itself with an **atomic write-rename** so a kill at any instant
//! leaves either the previous complete checkpoint or the new one —
//! never a torn file.
//!
//! # Bit-exact by construction
//!
//! Resume must be indistinguishable from an uninterrupted run (the
//! guarantee `tests/determinism.rs` pins down), so the codec
//! round-trips [`SimResult`]s exactly: every `f64` is stored as the
//! hex of its IEEE-754 bits, never through decimal formatting. The
//! format is a self-contained line-oriented text encoding
//! ([`codec`]) — persistence does not depend on any serialization
//! crate.
//!
//! Everything persists through a [`Store`] under a caller-chosen key;
//! over local disk that is one file per key beneath the store's root.
//!
//! A checkpoint also stores a fingerprint of the sweep parameters
//! (graph size, seed, thread-irrelevant knobs — whatever the caller
//! hashes via [`params_fingerprint`]); [`SweepCheckpoint::load_from`]
//! refuses to resume against a checkpoint written under different
//! parameters instead of silently mixing incompatible results.

use crate::sim::SimResult;
use crate::storage::{StorageError, Store};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

/// Map a storage failure onto the checkpoint error vocabulary, naming
/// the artifact by its key.
fn store_io(key: &str, e: StorageError) -> CheckpointError {
    CheckpointError::Io {
        path: PathBuf::from(key),
        message: e.to_string(),
    }
}

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file exists but does not parse as a checkpoint.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// 1-based line of the first offending record.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The checkpoint was written by a run with different parameters
    /// and cannot be resumed against this one.
    ParamsMismatch {
        /// The file involved.
        path: PathBuf,
        /// Fingerprint of the current run's parameters.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint i/o error on {}: {message}", path.display())
            }
            CheckpointError::Corrupt {
                path,
                line,
                message,
            } => write!(
                f,
                "corrupt checkpoint {} at line {line}: {message}",
                path.display()
            ),
            CheckpointError::ParamsMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {} was written with different sweep parameters \
                 (fingerprint {found:016x}, this run is {expected:016x}); \
                 delete it to start the sweep over",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Format header of the current checkpoint version. v2 added the task
/// fault kind to quarantine records plus the self-check and deadline
/// ledgers; older files are refused rather than half-read.
const HEADER: &str = "sbgp-checkpoint v2";

/// FNV-1a fingerprint of the parameter strings that define a sweep.
/// Order matters; include everything that changes the results (graph
/// size, seed, θ grid, model…) and nothing that doesn't (thread count).
pub fn params_fingerprint<S: AsRef<str>>(parts: &[S]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.as_ref().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Separator so ["ab", "c"] != ["a", "bc"].
        h ^= 0x1f;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Progress of one sweep: every completed unit's result, keyed by a
/// caller-chosen unit label (e.g. `"adopters=CP+5;theta=0.10"`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Fingerprint of the sweep parameters this progress belongs to.
    pub fingerprint: u64,
    units: Vec<(String, SimResult)>,
    index: HashMap<String, usize>,
}

impl SweepCheckpoint {
    /// Empty progress for a sweep with the given parameter fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        SweepCheckpoint {
            fingerprint,
            units: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of completed units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether no unit has completed yet.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The recorded result for `key`, if that unit already completed.
    pub fn get(&self, key: &str) -> Option<&SimResult> {
        self.index.get(key).map(|&i| &self.units[i].1)
    }

    /// Record a completed unit (overwrites a previous entry with the
    /// same key).
    pub fn insert(&mut self, key: impl Into<String>, result: SimResult) {
        let key = key.into();
        match self.index.get(&key) {
            Some(&i) => self.units[i].1 = result,
            None => {
                self.index.insert(key.clone(), self.units.len());
                self.units.push((key, result));
            }
        }
    }

    /// Completed units in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimResult)> {
        self.units.iter().map(|(k, r)| (k.as_str(), r))
    }

    /// Persist atomically under `key` in `store`
    /// ([`crate::storage::StorageBackend::put_atomic`]'s contract): a
    /// crash mid-save leaves the previous checkpoint intact.
    pub fn save_to(&self, store: &Store, key: &str) -> Result<(), CheckpointError> {
        let mut text = String::new();
        text.push_str(HEADER);
        text.push('\n');
        text.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        text.push_str(&format!("units {}\n", self.units.len()));
        for (unit, result) in &self.units {
            text.push_str(&format!("unit {}\n", codec::hex_str(unit)));
            codec::encode_result(&mut text, result);
        }
        text.push_str("end\n");

        // Encode/decode round-trip guard: never persist bytes the
        // decoder would not reproduce bit-for-bit (a codec bug caught
        // at save time costs one re-run; caught at resume time it costs
        // the whole checkpoint).
        let reread = Self::parse(&text, key, Some(self.fingerprint))?;
        if reread != *self {
            return Err(CheckpointError::Corrupt {
                path: PathBuf::from(key),
                line: 0,
                message: "encode/decode round-trip mismatch (codec bug); refusing to save".into(),
            });
        }

        store
            .put_atomic(key, text.as_bytes())
            .map_err(|e| store_io(key, e))
    }

    /// Parse checkpoint text. With `expected_fingerprint = Some(f)`,
    /// refuses a file whose stored fingerprint differs; with `None`,
    /// accepts any fingerprint (the `doctor` inspection path).
    fn parse(
        text: &str,
        key: &str,
        expected_fingerprint: Option<u64>,
    ) -> Result<Self, CheckpointError> {
        let corrupt = |line: usize, message: String| CheckpointError::Corrupt {
            path: PathBuf::from(key),
            line,
            message,
        };
        let mut p = codec::Parser::new(text);
        p.expect_line(HEADER)
            .map_err(|e| corrupt(e.line, e.message))?;
        let fingerprint = p
            .tagged_u64_hex("fingerprint")
            .map_err(|e| corrupt(e.line, e.message))?;
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(CheckpointError::ParamsMismatch {
                    path: PathBuf::from(key),
                    expected,
                    found: fingerprint,
                });
            }
        }
        let count = p
            .tagged_usize("units")
            .map_err(|e| corrupt(e.line, e.message))?;
        let mut ckpt = SweepCheckpoint::new(fingerprint);
        for _ in 0..count {
            let key = p
                .tagged_hex_str("unit")
                .map_err(|e| corrupt(e.line, e.message))?;
            let result = codec::decode_result(&mut p).map_err(|e| corrupt(e.line, e.message))?;
            ckpt.insert(key, result);
        }
        p.expect_line("end")
            .map_err(|e| corrupt(e.line, e.message))?;
        Ok(ckpt)
    }

    /// Read and decode the checkpoint at `key`, or `None` if it does
    /// not exist.
    fn read(
        store: &Store,
        key: &str,
        expected_fingerprint: Option<u64>,
    ) -> Result<Option<Self>, CheckpointError> {
        let Some(bytes) = store.get(key).map_err(|e| store_io(key, e))? else {
            return Ok(None);
        };
        let text = String::from_utf8(bytes).map_err(|e| CheckpointError::Corrupt {
            path: PathBuf::from(key),
            line: 0,
            message: format!("checkpoint is not UTF-8: {e}"),
        })?;
        Self::parse(&text, key, expected_fingerprint).map(Some)
    }

    fn missing(key: &str) -> CheckpointError {
        CheckpointError::Io {
            path: PathBuf::from(key),
            message: "no such checkpoint".into(),
        }
    }

    /// Load the checkpoint at `key`, verifying it belongs to a sweep
    /// whose parameters hash to `expected_fingerprint`.
    pub fn load_from(
        store: &Store,
        key: &str,
        expected_fingerprint: u64,
    ) -> Result<Self, CheckpointError> {
        Self::read(store, key, Some(expected_fingerprint))?.ok_or_else(|| Self::missing(key))
    }

    /// Validate and load a checkpoint without knowing the sweep
    /// parameters it was written under (fingerprint is reported, not
    /// checked) — the `repro doctor` inspection path.
    pub fn inspect_from(store: &Store, key: &str) -> Result<Self, CheckpointError> {
        Self::read(store, key, None)?.ok_or_else(|| Self::missing(key))
    }

    /// Resume if `key` exists, start fresh otherwise. Corrupt files
    /// and parameter mismatches are errors, not silent restarts.
    pub fn load_or_new_from(
        store: &Store,
        key: &str,
        fingerprint: u64,
    ) -> Result<Self, CheckpointError> {
        Ok(Self::read(store, key, Some(fingerprint))?.unwrap_or_else(|| Self::new(fingerprint)))
    }
}

/// What a journal replay recovered, and what (if anything) was torn.
///
/// A journal written by a process that was `SIGKILL`ed (or lost power)
/// mid-append ends in a partial record. Replay never fails on that: it
/// keeps every record whose checksum verifies and reports the torn
/// suffix here so callers can warn, and `salvage` can truncate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageReport {
    /// Complete, checksum-verified unit records recovered.
    pub records: usize,
    /// Byte offset one past the last valid record — the length the
    /// file should be truncated to.
    pub valid_bytes: u64,
    /// Bytes of torn/partial trailing data past `valid_bytes`
    /// (`0` means the journal is clean).
    pub torn_bytes: u64,
}

impl SalvageReport {
    /// Whether the journal ended cleanly at a record boundary.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0
    }
}

/// An append-only, per-unit write-ahead journal beside a checkpoint.
///
/// The checkpoint's atomic write-rename makes *saves* crash-safe, but a
/// save only happens every `--checkpoint-every` units; everything since
/// the last save dies with the process. The journal closes that window:
/// each completed unit is appended (and fsynced) as one self-delimiting
/// record
///
/// ```text
/// rec <payload-bytes> <fnv64-hex>\n
/// <payload>\n
/// ```
///
/// where the payload is `unit <hex key>\n` + the bit-exact
/// [`codec::encode_result`] text, and the checksum is FNV-1a over the
/// payload bytes. A crash mid-append leaves a torn tail that replay
/// detects (length or checksum mismatch) and salvages by truncating to
/// the last valid record — never by refusing the whole file. After a
/// successful checkpoint save the journal is truncated (compaction):
/// its records are now covered by the checkpoint.
///
/// Distributed sweeps add a second record type with the same framing:
/// a **lease**, payload `lease <hex key>\npeer <hex peer>\n`, appended
/// when a unit is dispatched to a worker. A unit record for the same
/// key discharges the lease; a lease with no later unit record marks
/// work that was in flight when the coordinator died — the resumed run
/// simply re-dispatches it (the unit was never merged), and `doctor`
/// can report which peer held it.
#[derive(Debug)]
pub struct UnitJournal {
    store: Store,
    key: String,
}

/// One replayed journal record: a completed unit, or a lease marking a
/// unit dispatched to a worker and not yet (at append time) completed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A completed unit with its bit-exact result (boxed: a result is
    /// orders of magnitude larger than a lease).
    Unit {
        /// The unit key.
        key: String,
        /// The deterministic result.
        result: Box<SimResult>,
    },
    /// A unit was dispatched to `peer` — in flight at append time.
    Lease {
        /// The unit key.
        key: String,
        /// Which worker held the lease (a peer address or process id).
        peer: String,
    },
}

/// FNV-1a over raw bytes (same constants as [`params_fingerprint`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl UnitJournal {
    /// Open (or create) the journal at `key` in `store` for appending:
    /// the journal exists (empty) after open, existing records survive.
    pub fn open_in(store: &Store, key: &str) -> Result<Self, CheckpointError> {
        if store.len(key).map_err(|e| store_io(key, e))?.is_none() {
            store
                .append_durable(key, b"")
                .map_err(|e| store_io(key, e))?;
        }
        Ok(UnitJournal {
            store: store.clone(),
            key: key.to_string(),
        })
    }

    /// The journal's storage key, for store-level operations (e.g.
    /// deleting a compacted journal through the same backend).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Append one completed unit and fsync, so the record survives any
    /// crash that happens after this returns.
    pub fn append(&mut self, key: &str, result: &SimResult) -> Result<(), CheckpointError> {
        let mut payload = String::new();
        payload.push_str(&format!("unit {}\n", codec::hex_str(key)));
        codec::encode_result(&mut payload, result);
        self.append_payload(&payload)
    }

    /// Append a lease record — `key` was just dispatched to `peer` —
    /// and fsync. Written *before* the assignment leaves the
    /// coordinator, so a resumed run can tell which units were in
    /// flight (and with whom) at the moment of death.
    pub fn append_lease(&mut self, key: &str, peer: &str) -> Result<(), CheckpointError> {
        let payload = format!(
            "lease {}\npeer {}\n",
            codec::hex_str(key),
            codec::hex_str(peer)
        );
        self.append_payload(&payload)
    }

    fn append_payload(&mut self, payload: &str) -> Result<(), CheckpointError> {
        let mut rec = format!("rec {} {:016x}\n", payload.len(), fnv1a(payload.as_bytes()));
        rec.push_str(payload);
        rec.push('\n');
        // Store::append_durable is record-safe under retry: a torn
        // first attempt is truncated back before the retry, so the
        // journal never ends up with a half-record *followed by* its
        // complete twin.
        self.store
            .append_durable(&self.key, rec.as_bytes())
            .map_err(|e| store_io(&self.key, e))
    }

    /// Drop every record (after its units were compacted into a saved
    /// checkpoint) and fsync the now-empty file.
    pub fn reset(&mut self) -> Result<(), CheckpointError> {
        self.store
            .truncate(&self.key, 0)
            .map_err(|e| store_io(&self.key, e))
    }

    /// Replay the journal at `key`'s *unit* records in write order
    /// (lease records are skipped — they mark dispatch, not
    /// completion), plus a [`SalvageReport`] describing any torn tail.
    /// A missing journal replays as empty. The only errors are real I/O
    /// failures and records whose checksum verifies but whose payload
    /// does not decode (a writer bug, not a torn write).
    pub fn replay_in(
        store: &Store,
        key: &str,
    ) -> Result<(Vec<(String, SimResult)>, SalvageReport), CheckpointError> {
        let (records, report) = Self::replay_records_in(store, key)?;
        let units = records
            .into_iter()
            .filter_map(|r| match r {
                JournalRecord::Unit { key, result } => Some((key, *result)),
                JournalRecord::Lease { .. } => None,
            })
            .collect();
        Ok((units, report))
    }

    /// Replay every checksum-verified record — units *and* leases — in
    /// write order. The lease view is what a resumed coordinator and
    /// `doctor` use: a lease with no later unit record for the same key
    /// was in flight when the writer died.
    pub fn replay_records_in(
        store: &Store,
        key: &str,
    ) -> Result<(Vec<JournalRecord>, SalvageReport), CheckpointError> {
        let bytes = match store.get(key).map_err(|e| store_io(key, e))? {
            Some(b) => b,
            None => {
                return Ok((
                    Vec::new(),
                    SalvageReport {
                        records: 0,
                        valid_bytes: 0,
                        torn_bytes: 0,
                    },
                ))
            }
        };
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut offset = 0usize;
        while let Some((payload, end)) = next_record(&bytes, offset) {
            records.push(decode_record(payload, key, records.len() + 1)?);
            offset = end;
        }
        let report = SalvageReport {
            records: records.len(),
            valid_bytes: offset as u64,
            torn_bytes: (bytes.len() - offset) as u64,
        };
        Ok((records, report))
    }

    /// The keys whose most recent journal mention is a lease — i.e.
    /// dispatched but never completed — with the peer that held each.
    /// Order is first-lease order; a unit record discharges every
    /// earlier lease on its key.
    pub fn outstanding_leases(records: &[JournalRecord]) -> Vec<(String, String)> {
        let mut open: Vec<(String, String)> = Vec::new();
        for rec in records {
            match rec {
                JournalRecord::Lease { key, peer } => {
                    if let Some(slot) = open.iter_mut().find(|(k, _)| k == key) {
                        slot.1 = peer.clone();
                    } else {
                        open.push((key.clone(), peer.clone()));
                    }
                }
                JournalRecord::Unit { key, .. } => {
                    open.retain(|(k, _)| k != key);
                }
            }
        }
        open
    }

    /// Truncate the journal at `key` to its last valid record, making a
    /// torn journal clean. Returns what was salvaged.
    pub fn salvage_in(store: &Store, key: &str) -> Result<SalvageReport, CheckpointError> {
        let (_, report) = Self::replay_in(store, key)?;
        if report.torn_bytes > 0 {
            store
                .truncate(key, report.valid_bytes)
                .map_err(|e| store_io(key, e))?;
        }
        Ok(report)
    }
}

/// Scan one record starting at `offset`. Returns the payload slice and
/// the offset one past the record, or `None` if the bytes from `offset`
/// on do not form a complete valid record (torn tail — or end of file).
fn next_record(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let rest = &bytes[offset..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&rest[..nl]).ok()?;
    let mut toks = header.split_whitespace();
    if toks.next() != Some("rec") {
        return None;
    }
    let len: usize = toks.next()?.parse().ok()?;
    let sum_tok = toks.next()?;
    if toks.next().is_some() || sum_tok.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum_tok, 16).ok()?;
    let body_start = nl + 1;
    // Payload plus its trailing newline must be fully present.
    if rest.len() < body_start + len + 1 {
        return None;
    }
    let payload = &rest[body_start..body_start + len];
    if rest[body_start + len] != b'\n' || fnv1a(payload) != sum {
        return None;
    }
    Some((payload, offset + body_start + len + 1))
}

/// Decode one record's payload into a [`JournalRecord`]. `journal` (the
/// journal's key) and `record` (the 1-based record number) name it in
/// error messages.
fn decode_record(
    payload: &[u8],
    journal: &str,
    record: usize,
) -> Result<JournalRecord, CheckpointError> {
    let corrupt = |line: usize, message: String| CheckpointError::Corrupt {
        path: PathBuf::from(journal),
        line,
        message: format!("journal record {record}: {message}"),
    };
    let text = std::str::from_utf8(payload)
        .map_err(|e| corrupt(0, format!("payload is not UTF-8: {e}")))?;
    let tag = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("");
    let mut p = codec::Parser::new(text);
    match tag {
        "lease" => {
            let key = p
                .tagged_hex_str("lease")
                .map_err(|e| corrupt(e.line, e.message))?;
            let peer = p
                .tagged_hex_str("peer")
                .map_err(|e| corrupt(e.line, e.message))?;
            Ok(JournalRecord::Lease { key, peer })
        }
        _ => {
            let key = p
                .tagged_hex_str("unit")
                .map_err(|e| corrupt(e.line, e.message))?;
            let result = codec::decode_result(&mut p).map_err(|e| corrupt(e.line, e.message))?;
            Ok(JournalRecord::Unit {
                key,
                result: Box::new(result),
            })
        }
    }
}

/// The self-contained, bit-exact text codec behind [`SweepCheckpoint`].
///
/// Line-oriented: every record is `tag value…`; every `f64` travels as
/// the 16-hex-digit IEEE-754 bit pattern, every string as hex-encoded
/// UTF-8, so decode(encode(x)) == x exactly.
pub mod codec {
    use crate::engine::SelfCheckViolation;
    use crate::sim::{Outcome, RoundRecord, SimResult};
    use sbgp_asgraph::AsId;
    use sbgp_routing::SecureSet;
    use std::fmt::Write as _;

    /// Why a destination task was left out of a run's totals. No run
    /// leaves one out; the codec keeps the record so that checkpoints
    /// and frames which carry one decode bit-exactly.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TaskFault {
        /// The task panicked on every attempt.
        Panic,
        /// The task overran its per-destination deadline.
        TimedOut,
    }

    impl std::fmt::Display for TaskFault {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TaskFault::Panic => f.write_str("panic"),
                TaskFault::TimedOut => f.write_str("timeout"),
            }
        }
    }

    /// A destination task left out of a run's totals (see
    /// [`TaskFault`]); codec data only.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct QuarantinedTask {
        /// The destination left out.
        pub dest: AsId,
        /// How many times the task was attempted.
        pub attempts: u32,
        /// Why it was left out.
        pub kind: TaskFault,
        /// The final attempt's panic or overrun, as text.
        pub message: String,
    }

    /// A decode failure: 1-based line and description.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DecodeError {
        /// 1-based line number in the encoded text.
        pub line: usize,
        /// What was wrong.
        pub message: String,
    }

    /// Hex-encode a string's UTF-8 bytes (empty string → `-`).
    pub fn hex_str(s: &str) -> String {
        if s.is_empty() {
            return "-".to_string();
        }
        let mut out = String::with_capacity(s.len() * 2);
        for b in s.bytes() {
            let _ = write!(out, "{b:02x}");
        }
        out
    }

    fn unhex_str(tok: &str) -> Option<String> {
        if tok == "-" {
            return Some(String::new());
        }
        if !tok.len().is_multiple_of(2) {
            return None;
        }
        let mut bytes = Vec::with_capacity(tok.len() / 2);
        for i in (0..tok.len()).step_by(2) {
            bytes.push(u8::from_str_radix(tok.get(i..i + 2)?, 16).ok()?);
        }
        String::from_utf8(bytes).ok()
    }

    fn push_f64s(out: &mut String, tag: &str, xs: &[f64]) {
        let _ = write!(out, "{tag} {}", xs.len());
        for x in xs {
            let _ = write!(out, " {:016x}", x.to_bits());
        }
        out.push('\n');
    }

    fn push_ids(out: &mut String, tag: &str, ids: &[AsId]) {
        let _ = write!(out, "{tag} {}", ids.len());
        for id in ids {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
    }

    fn push_state(out: &mut String, tag: &str, s: &SecureSet) {
        let _ = write!(out, "{tag} {}", s.capacity());
        for id in s.iter() {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
    }

    /// Append the encoding of one [`SimResult`].
    pub fn encode_result(out: &mut String, r: &SimResult) {
        push_f64s(out, "starting_utilities", &r.starting_utilities);
        push_state(out, "initial_state", &r.initial_state);
        let _ = writeln!(out, "rounds {}", r.rounds.len());
        for round in &r.rounds {
            let _ = writeln!(
                out,
                "round {} {} {}",
                round.round, round.secure_ases_after, round.secure_isps_after
            );
            push_f64s(out, "utilities", &round.utilities);
            let _ = write!(out, "projected {}", round.projected.len());
            for (n, p) in &round.projected {
                let _ = write!(out, " {}:{:016x}", n.0, p.to_bits());
            }
            out.push('\n');
            push_ids(out, "turned_on", &round.turned_on);
            push_ids(out, "turned_off", &round.turned_off);
            push_ids(out, "newly_secure_stubs", &round.newly_secure_stubs);
        }
        push_state(out, "final_state", &r.final_state);
        match r.outcome {
            Outcome::Stable { round } => {
                let _ = writeln!(out, "outcome stable {round}");
            }
            Outcome::Oscillation { first_seen, period } => {
                let _ = writeln!(out, "outcome oscillation {first_seen} {period}");
            }
            Outcome::MaxRounds => {
                let _ = writeln!(out, "outcome maxrounds");
            }
        }
        push_ids(out, "early_adopters", &r.early_adopters);
        let _ = writeln!(out, "completeness {:016x}", r.completeness.to_bits());
        let _ = writeln!(out, "quarantined {}", r.quarantined.len());
        for q in &r.quarantined {
            let _ = writeln!(
                out,
                "quarantine {} {} {} {}",
                q.dest.0,
                q.attempts,
                q.kind,
                hex_str(&q.message)
            );
        }
        let _ = writeln!(out, "self_checked {}", r.self_checked);
        let _ = writeln!(out, "violations {}", r.violations.len());
        for v in &r.violations {
            let _ = writeln!(
                out,
                "violation {} {} {}",
                v.dest.0,
                hex_str(&v.detail),
                hex_str(&v.artifact)
            );
        }
        push_ids(out, "deadline_skipped", &r.deadline_skipped);
    }

    /// Append the encoding of an [`EngineStats`](crate::engine::EngineStats)
    /// as one `stats` line — the 17 counters in declaration order.
    /// Checkpoints deliberately do *not* persist stats (they describe
    /// the producing run, not the result); this exists for the shard
    /// worker protocol, where the supervisor must sum per-worker
    /// counters to keep `[engine]` summaries accurate.
    pub fn encode_stats(out: &mut String, s: &crate::engine::EngineStats) {
        let _ = writeln!(
            out,
            "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.contexts_computed,
            s.trees_computed,
            s.dests_computed,
            s.dests_reused,
            s.passes,
            s.compute_ns,
            s.atlas_hits,
            s.atlas_misses,
            s.atlas_stored,
            s.atlas_evicted,
            s.atlas_bytes,
            s.atlas_raw_bytes,
            s.atlas_build_ns,
            s.delta_hits,
            s.delta_fallbacks,
            s.delta_touched_nodes,
            s.delta_full_nodes,
        );
    }

    /// Decode one `stats` line written by [`encode_stats`].
    pub fn decode_stats(p: &mut Parser<'_>) -> Result<crate::engine::EngineStats, DecodeError> {
        let vals = p.tagged_u64s("stats", 17)?;
        Ok(crate::engine::EngineStats {
            contexts_computed: vals[0],
            trees_computed: vals[1],
            dests_computed: vals[2],
            dests_reused: vals[3],
            passes: vals[4],
            compute_ns: vals[5],
            atlas_hits: vals[6],
            atlas_misses: vals[7],
            atlas_stored: vals[8],
            atlas_evicted: vals[9],
            atlas_bytes: vals[10],
            atlas_raw_bytes: vals[11],
            atlas_build_ns: vals[12],
            delta_hits: vals[13],
            delta_fallbacks: vals[14],
            delta_touched_nodes: vals[15],
            delta_full_nodes: vals[16],
        })
    }

    /// Line-cursor over encoded text, tracking 1-based line numbers
    /// for error reporting.
    pub struct Parser<'a> {
        lines: std::str::Lines<'a>,
        line_no: usize,
    }

    impl<'a> Parser<'a> {
        /// Parse from the start of `text`.
        pub fn new(text: &'a str) -> Self {
            Parser {
                lines: text.lines(),
                line_no: 0,
            }
        }

        fn err(&self, message: impl Into<String>) -> DecodeError {
            DecodeError {
                line: self.line_no,
                message: message.into(),
            }
        }

        fn next_line(&mut self) -> Result<&'a str, DecodeError> {
            self.line_no += 1;
            self.lines
                .next()
                .ok_or_else(|| self.err("unexpected end of file"))
        }

        /// Consume a line that must equal `expected` exactly.
        pub fn expect_line(&mut self, expected: &str) -> Result<(), DecodeError> {
            let line = self.next_line()?;
            if line != expected {
                return Err(self.err(format!("expected {expected:?}, found {line:?}")));
            }
            Ok(())
        }

        /// Consume `tag <rest>` and return the tokens after the tag.
        fn tagged(&mut self, tag: &str) -> Result<std::str::SplitWhitespace<'a>, DecodeError> {
            let line = self.next_line()?;
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some(t) if t == tag => Ok(toks),
                other => Err(self.err(format!("expected tag {tag:?}, found {other:?}"))),
            }
        }

        fn one_token(&mut self, tag: &str) -> Result<&'a str, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let tok = toks
                .next()
                .ok_or_else(|| self.err(format!("{tag}: missing value")))?;
            if toks.next().is_some() {
                return Err(self.err(format!("{tag}: trailing tokens")));
            }
            Ok(tok)
        }

        /// Consume `tag <decimal>`.
        pub fn tagged_usize(&mut self, tag: &str) -> Result<usize, DecodeError> {
            let tok = self.one_token(tag)?;
            tok.parse()
                .map_err(|_| self.err(format!("{tag}: bad count {tok:?}")))
        }

        /// Consume `tag <16-digit hex>`.
        pub fn tagged_u64_hex(&mut self, tag: &str) -> Result<u64, DecodeError> {
            let tok = self.one_token(tag)?;
            u64::from_str_radix(tok, 16).map_err(|_| self.err(format!("{tag}: bad hex {tok:?}")))
        }

        /// Consume `tag <v0> <v1> … <v(count-1)>` — exactly `count`
        /// decimal `u64` values.
        pub fn tagged_u64s(&mut self, tag: &str, count: usize) -> Result<Vec<u64>, DecodeError> {
            let toks = self.tagged(tag)?;
            let mut out = Vec::with_capacity(count);
            for tok in toks {
                let v: u64 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad value {tok:?}")))?;
                out.push(v);
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} values, got {}", out.len())));
            }
            Ok(out)
        }

        /// Consume `tag <hex string>` and decode it.
        pub fn tagged_hex_str(&mut self, tag: &str) -> Result<String, DecodeError> {
            let tok = self.one_token(tag)?;
            unhex_str(tok).ok_or_else(|| self.err(format!("{tag}: bad hex string")))
        }

        fn tagged_f64s(&mut self, tag: &str) -> Result<Vec<f64>, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let count: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad count")))?;
            let mut out = Vec::with_capacity(count);
            for tok in toks.by_ref() {
                let bits = u64::from_str_radix(tok, 16)
                    .map_err(|_| self.err(format!("{tag}: bad f64 bits {tok:?}")))?;
                out.push(f64::from_bits(bits));
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} values, got {}", out.len())));
            }
            Ok(out)
        }

        fn tagged_ids(&mut self, tag: &str) -> Result<Vec<AsId>, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let count: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad count")))?;
            let mut out = Vec::with_capacity(count);
            for tok in toks.by_ref() {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad node id {tok:?}")))?;
                out.push(AsId(id));
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} ids, got {}", out.len())));
            }
            Ok(out)
        }

        fn tagged_state(&mut self, tag: &str) -> Result<SecureSet, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let capacity: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad capacity")))?;
            let mut s = SecureSet::new(capacity);
            for tok in toks {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad node id {tok:?}")))?;
                if id as usize >= capacity {
                    return Err(self.err(format!("{tag}: id {id} out of capacity {capacity}")));
                }
                s.set(AsId(id), true);
            }
            Ok(s)
        }
    }

    /// Decode one [`SimResult`] from the cursor.
    pub fn decode_result(p: &mut Parser<'_>) -> Result<SimResult, DecodeError> {
        let starting_utilities = p.tagged_f64s("starting_utilities")?;
        let initial_state = p.tagged_state("initial_state")?;
        let n_rounds = p.tagged_usize("rounds")?;
        let mut rounds = Vec::with_capacity(n_rounds);
        for _ in 0..n_rounds {
            let mut toks = p.tagged("round")?;
            let next_usize = |what: &str, toks: &mut std::str::SplitWhitespace<'_>| {
                toks.next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| DecodeError {
                        line: 0,
                        message: format!("round: bad {what}"),
                    })
            };
            let round = next_usize("number", &mut toks)?;
            let secure_ases_after = next_usize("secure_ases_after", &mut toks)?;
            let secure_isps_after = next_usize("secure_isps_after", &mut toks)?;
            let utilities = p.tagged_f64s("utilities")?;
            let mut ptoks = p.tagged("projected")?;
            let count: usize = ptoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("projected: bad count"))?;
            let mut projected = Vec::with_capacity(count);
            for tok in ptoks {
                let (id, bits) = tok
                    .split_once(':')
                    .ok_or_else(|| p.err(format!("projected: bad pair {tok:?}")))?;
                let id: u32 = id
                    .parse()
                    .map_err(|_| p.err(format!("projected: bad node id {id:?}")))?;
                let bits = u64::from_str_radix(bits, 16)
                    .map_err(|_| p.err(format!("projected: bad f64 bits {bits:?}")))?;
                projected.push((AsId(id), f64::from_bits(bits)));
            }
            if projected.len() != count {
                return Err(p.err(format!(
                    "projected: expected {count} pairs, got {}",
                    projected.len()
                )));
            }
            let turned_on = p.tagged_ids("turned_on")?;
            let turned_off = p.tagged_ids("turned_off")?;
            let newly_secure_stubs = p.tagged_ids("newly_secure_stubs")?;
            rounds.push(RoundRecord {
                round,
                utilities,
                projected,
                turned_on,
                turned_off,
                newly_secure_stubs,
                secure_ases_after,
                secure_isps_after,
            });
        }
        let final_state = p.tagged_state("final_state")?;
        let mut otoks = p.tagged("outcome")?;
        let outcome = match otoks.next() {
            Some("stable") => Outcome::Stable {
                round: otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome stable: bad round"))?,
            },
            Some("oscillation") => {
                let first_seen = otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome oscillation: bad first_seen"))?;
                let period = otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome oscillation: bad period"))?;
                Outcome::Oscillation { first_seen, period }
            }
            Some("maxrounds") => Outcome::MaxRounds,
            other => return Err(p.err(format!("outcome: unknown kind {other:?}"))),
        };
        let early_adopters = p.tagged_ids("early_adopters")?;
        let completeness = f64::from_bits(p.tagged_u64_hex("completeness")?);
        let n_quarantined = p.tagged_usize("quarantined")?;
        let mut quarantined = Vec::with_capacity(n_quarantined);
        for _ in 0..n_quarantined {
            let mut qtoks = p.tagged("quarantine")?;
            let dest: u32 = qtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("quarantine: bad dest"))?;
            let attempts: u32 = qtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("quarantine: bad attempts"))?;
            let kind = match qtoks.next() {
                Some("panic") => TaskFault::Panic,
                Some("timeout") => TaskFault::TimedOut,
                other => return Err(p.err(format!("quarantine: unknown fault kind {other:?}"))),
            };
            let message = qtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("quarantine: bad message"))?;
            quarantined.push(QuarantinedTask {
                dest: AsId(dest),
                attempts,
                kind,
                message,
            });
        }
        let self_checked = p.tagged_usize("self_checked")?;
        let n_violations = p.tagged_usize("violations")?;
        let mut violations = Vec::with_capacity(n_violations);
        for _ in 0..n_violations {
            let mut vtoks = p.tagged("violation")?;
            let dest: u32 = vtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("violation: bad dest"))?;
            let detail = vtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("violation: bad detail"))?;
            let artifact = vtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("violation: bad artifact"))?;
            violations.push(SelfCheckViolation {
                dest: AsId(dest),
                detail,
                artifact,
            });
        }
        let deadline_skipped = p.tagged_ids("deadline_skipped")?;
        Ok(SimResult {
            starting_utilities,
            initial_state,
            rounds,
            final_state,
            outcome,
            early_adopters,
            completeness,
            quarantined,
            self_checked,
            violations,
            deadline_skipped,
            // Work counters are diagnostics of the producing run, not
            // results; they are not encoded and decode to zeros.
            stats: crate::engine::EngineStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::early::EarlyAdopters;
    use crate::sim::Simulation;
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::{AsId, Weights};
    use sbgp_routing::HashTieBreak;

    const JOURNAL: &str = "sweep.journal";

    /// A fresh, empty local-disk store for one test.
    fn disk(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("sbgp_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Store::localdisk(dir)
    }

    fn sample_result(seed: u64) -> SimResult {
        let g = generate(&GenParams::new(120, seed)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let cfg = SimConfig {
            theta: 0.05,
            ..SimConfig::default()
        };
        let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
        Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters)
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        use codec::{QuarantinedTask, TaskFault};
        let fresh = sample_result(42);
        // An engine run encodes the constant fields as they always
        // were for a healthy run: the bits of 1.0 and empty lists.
        let mut fresh_text = String::new();
        codec::encode_result(&mut fresh_text, &fresh);
        assert!(fresh_text.contains("\ncompleteness 3ff0000000000000\nquarantined 0\n"));
        assert!(fresh_text.ends_with("\ndeadline_skipped 0\n"));
        // A result as older runs wrote it, with destinations left out,
        // must still decode bit-exactly.
        let old = SimResult {
            completeness: 0.75,
            quarantined: vec![
                QuarantinedTask {
                    dest: AsId(7),
                    attempts: 2,
                    kind: TaskFault::Panic,
                    message: "index out of bounds".into(),
                },
                QuarantinedTask {
                    dest: AsId(9),
                    attempts: 1,
                    kind: TaskFault::TimedOut,
                    message: "destination task exceeded soft deadline".into(),
                },
            ],
            deadline_skipped: vec![AsId(11), AsId(40)],
            ..sample_result(43)
        };
        for r in [fresh, old] {
            let mut text = String::new();
            codec::encode_result(&mut text, &r);
            let mut p = codec::Parser::new(&text);
            let back = codec::decode_result(&mut p).unwrap();
            assert_eq!(back, r);
            // Bit-exact, not just PartialEq-equal.
            assert_eq!(back.completeness.to_bits(), r.completeness.to_bits());
            for (a, b) in r
                .starting_utilities
                .iter()
                .zip(back.starting_utilities.iter())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut again = String::new();
            codec::encode_result(&mut again, &back);
            assert_eq!(again, text, "re-encoding changes no byte");
        }
    }

    #[test]
    fn save_load_round_trip() {
        let store = disk("roundtrip");
        let fp = params_fingerprint(&["ases=120", "seed=42"]);
        let mut ckpt = SweepCheckpoint::new(fp);
        ckpt.insert("theta=0.05", sample_result(42));
        ckpt.insert("theta=0.10", sample_result(43));
        ckpt.save_to(&store, "sweep.ckpt").unwrap();
        let back = SweepCheckpoint::load_from(&store, "sweep.ckpt", fp).unwrap();
        assert_eq!(back, ckpt);
        assert!(back.get("theta=0.05").is_some());
        assert!(back.get("theta=0.20").is_none());
    }

    #[test]
    fn params_mismatch_is_refused() {
        let store = disk("mismatch");
        let mut ckpt = SweepCheckpoint::new(1);
        ckpt.insert("unit", sample_result(42));
        ckpt.save_to(&store, "sweep.ckpt").unwrap();
        match SweepCheckpoint::load_from(&store, "sweep.ckpt", 2) {
            Err(CheckpointError::ParamsMismatch {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected ParamsMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let store = disk("corrupt");
        store
            .put_atomic("bad.ckpt", b"sbgp-checkpoint v2\nfingerprint zzzz\n")
            .unwrap();
        assert!(matches!(
            SweepCheckpoint::load_from(&store, "bad.ckpt", 0),
            Err(CheckpointError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn load_or_new_on_missing_file() {
        let store = disk("never_written");
        let ckpt = SweepCheckpoint::load_or_new_from(&store, "sweep.ckpt", 9).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.fingerprint, 9);
    }

    #[test]
    fn journal_append_replay_round_trip() {
        let store = disk("journal_roundtrip");
        let r1 = sample_result(42);
        let r2 = sample_result(43);
        {
            let mut j = UnitJournal::open_in(&store, JOURNAL).unwrap();
            j.append("theta=0.05", &r1).unwrap();
            j.append("theta=0.10", &r2).unwrap();
        }
        let (units, report) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records, 2);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].0, "theta=0.05");
        assert_eq!(units[1].0, "theta=0.10");
        // Stats are not journaled (same contract as the checkpoint).
        let mut want = r1.clone();
        want.stats = crate::engine::EngineStats::default();
        assert_eq!(units[0].1, want);
    }

    #[test]
    fn journal_reset_empties_the_file() {
        let store = disk("journal_reset");
        let mut j = UnitJournal::open_in(&store, JOURNAL).unwrap();
        j.append("a", &sample_result(42)).unwrap();
        j.reset().unwrap();
        let (units, report) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert!(units.is_empty());
        assert!(report.is_clean());
        // Appends keep working after a reset.
        j.append("b", &sample_result(43)).unwrap();
        let (units, _) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].0, "b");
    }

    #[test]
    fn torn_journal_tail_is_salvaged_not_fatal() {
        let store = disk("journal_torn");
        {
            let mut j = UnitJournal::open_in(&store, JOURNAL).unwrap();
            j.append("good", &sample_result(42)).unwrap();
            j.append("doomed", &sample_result(43)).unwrap();
        }
        let full = store.get(JOURNAL).unwrap().unwrap();
        let (_, clean) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert_eq!(clean.records, 2);
        assert_eq!(clean.valid_bytes as usize, full.len());
        // Tear the second record's tail off, as a kill mid-append would.
        store.truncate(JOURNAL, full.len() as u64 - 10).unwrap();
        let (units, torn) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].0, "good");
        assert_eq!(torn.records, 1);
        assert!(torn.torn_bytes > 0);
        // Salvage truncates to the valid prefix; replay is then clean.
        let report = UnitJournal::salvage_in(&store, JOURNAL).unwrap();
        assert_eq!(report.records, 1);
        let (units, after) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert_eq!(units.len(), 1);
        assert!(after.is_clean());
    }

    #[test]
    fn journal_leases_replay_and_discharge() {
        let store = disk("journal_leases");
        {
            let mut j = UnitJournal::open_in(&store, JOURNAL).unwrap();
            j.append_lease("theta=0.05", "127.0.0.1:9001").unwrap();
            j.append_lease("theta=0.10", "process 4242").unwrap();
            j.append("theta=0.05", &sample_result(42)).unwrap();
            // Re-lease after a requeue: a second lease on the same key
            // updates the holder rather than duplicating the entry.
            j.append_lease("theta=0.10", "127.0.0.1:9002").unwrap();
        }
        let (records, report) = UnitJournal::replay_records_in(&store, JOURNAL).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records, 4);
        // The unit-only view skips leases (back-compat for resume).
        let (units, units_report) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].0, "theta=0.05");
        assert_eq!(units_report.records, 4);
        // The completed unit discharged its lease; the requeued unit's
        // lease survives with the latest holder.
        let open = UnitJournal::outstanding_leases(&records);
        assert_eq!(
            open,
            vec![("theta=0.10".to_string(), "127.0.0.1:9002".to_string())]
        );
    }

    #[test]
    fn missing_journal_replays_empty() {
        let store = disk("journal_never_written");
        let (units, report) = UnitJournal::replay_in(&store, JOURNAL).unwrap();
        assert!(units.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn stats_codec_round_trips() {
        let s = crate::engine::EngineStats {
            contexts_computed: 1,
            trees_computed: 2,
            dests_computed: 3,
            dests_reused: 4,
            passes: 5,
            compute_ns: 6,
            atlas_hits: 7,
            atlas_misses: 8,
            atlas_stored: 9,
            atlas_evicted: 10,
            atlas_bytes: 11,
            atlas_raw_bytes: 12,
            atlas_build_ns: 13,
            delta_hits: 14,
            delta_fallbacks: 15,
            delta_touched_nodes: 16,
            delta_full_nodes: 17,
        };
        let mut text = String::new();
        codec::encode_stats(&mut text, &s);
        let mut p = codec::Parser::new(&text);
        assert_eq!(codec::decode_stats(&mut p).unwrap(), s);
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(
            params_fingerprint(&["ab", "c"]),
            params_fingerprint(&["a", "bc"])
        );
        assert_eq!(
            params_fingerprint(&["x", "y"]),
            params_fingerprint(&["x", "y"])
        );
    }
}
