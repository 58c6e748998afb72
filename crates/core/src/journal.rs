//! The crash-safe checkpoint journal: append-only, schema-versioned cell
//! durability for the sweep engine.
//!
//! A sweep is a grid of hermetic, seed-deterministic cells (see
//! [`crate::par`]). When checkpointing is armed, the engine persists every
//! completed cell — its payload (the driver's row, encoded through
//! [`CellPayload`]) and its exact telemetry [`Snapshot`] — to a JSONL
//! journal. A later `--resume` run replays the journal, skips the cells it
//! already holds, and merges their restored snapshots in cell-index order,
//! so an interrupted-then-resumed run is byte-identical (modulo wall-clock
//! fields) to one that never died.
//!
//! # File format
//!
//! One JSON record per line, each wrapped as `{"body": ..., "hash": ...}`
//! where `hash` is the FNV-1a-64 of the body's canonical encoding — a torn
//! or bit-flipped record fails verification and resume **refuses** rather
//! than trusting it. The first record is the header:
//!
//! ```text
//! {"body":{"binary":"fig6","executable":"…","scale":{...},"fault_seed":0,
//!          "retries":1,"cell_budget":null},"hash":"…"}
//! {"body":{"sweep":"fig6","cell":0,"payload":…,"snapshot":…},"hash":"…"}
//! ```
//!
//! Record order in the file is completion order — nondeterministic under
//! parallelism — but resume is keyed by `(sweep, cell)`, so ordering never
//! leaks into merged reports.
//!
//! # Appending
//!
//! [`CheckpointContext::create`] writes the header to `<path>.tmp` and
//! renames it into place, once per journal. After that each completed cell
//! costs one append of its own record, whatever the journal's length:
//!
//! 1. **reserve** — `set_len` grows the file by the record plus one byte,
//!    zero-filled;
//! 2. **fill** — the record is written into that space;
//! 3. **terminate** — the `\n` is written last, as its own one-byte write.
//!
//! Until the third step lands the file ends in a NUL, and no sealed record
//! can contain one (the JSON encoder escapes control bytes). So a process
//! killed at any instant leaves either complete records only, or complete
//! records plus a NUL-terminated tail that resume recognises as an
//! interrupted append: it drops everything after the last `\n`, truncates
//! the file there, and the cell simply runs again. Any other damage — a
//! torn or edited line that ends without a NUL — is caught by the strict
//! loader below. A journal whose final record lacks its `\n` (as a hand
//! edit can leave it) resumes, and gets its `\n` back before the next
//! append so records never share a line.
//!
//! Durability covers process death (SIGKILL, OOM, panics), not power loss:
//! nothing calls `fsync`, so a machine crash can lose or tear the records
//! written just before it.
//!
//! # Trust policy
//!
//! The loader is strict: unparseable lines, hash mismatches, a header
//! that differs in any way from the one this run would write, and
//! duplicate cell keys all produce a typed [`Error::Journal`] whose
//! message starts with `resume refused:`. The header is compared as one
//! value, so a key added to [`JournalHeader`] is checked with no further
//! code, and the refusal names every differing key with both values.
//!
//! The header's `executable` is the FNV-1a of the running executable's
//! bytes, so a journal resumes only under the build that wrote it: cell
//! payloads and snapshots are whatever that build computed, and splicing
//! them into another build's report would mix two generations of the
//! code. A rebuild of the same source with another toolchain or profile
//! is refused too. The stamp is also why the header carries no journal
//! or report schema version: a build that changes either has other bytes,
//! so it refuses the old journal anyway. A process that cannot read its
//! own executable stamps `null` and refuses every resume. Write failures
//! *during* a run degrade instead:
//! the writer goes quiet, the sweep continues uncheckpointed, and one
//! warning lands in the report.
//!
//! # Payloads
//!
//! A cell's result crosses the journal through [`CellPayload`], always as
//! positional JSON: a struct gets its codec from `cell_payload!` (one array
//! of its fields' payloads), and the few hand-written impls (a tagged enum,
//! a type with private fields or checked construction, a type from another
//! crate) build theirs from the primitive, container and tuple impls here.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use penelope_telemetry::recorder::Snapshot;
use penelope_telemetry::{decode_snapshot, encode_snapshot, span, Json};

use crate::error::Error;
use nbti_model::duty::Duty;
use nbti_model::metric::BlockCost;
use uarch::scheduler::Field;

/// FNV-1a 64-bit over the canonical record body bytes. Not cryptographic —
/// it detects torn writes and bit rot, not adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64-bit hash over more bytes.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header's `executable` stamp: the FNV-1a of the running
/// executable's bytes as 16 hex digits, or `None` when the file cannot be
/// read. Computed once per process, streaming the file through a 64 KiB
/// buffer so the binary is never held in memory.
fn executable_stamp() -> Option<&'static str> {
    static STAMP: OnceLock<Option<String>> = OnceLock::new();
    STAMP
        .get_or_init(|| {
            let mut file = fs::File::open(std::env::current_exe().ok()?).ok()?;
            let mut buf = vec![0u8; 1 << 16];
            let mut hash = fnv1a64(&[]);
            loop {
                match file.read(&mut buf) {
                    Ok(0) => return Some(format!("{hash:016x}")),
                    Ok(n) => hash = fnv1a64_extend(hash, &buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return None,
                }
            }
        })
        .as_deref()
}

/// Wraps a record body into a hashed journal line. The body is encoded
/// once, straight into the line, and hashed in place: the result is
/// byte-for-byte the `{"body":…,"hash":…}` object's encoding.
fn seal(body: &Json) -> String {
    use std::fmt::Write as _;
    const OPEN: &str = "{\"body\":";
    let mut line = String::from(OPEN);
    body.write(&mut line);
    let hash = fnv1a64(&line.as_bytes()[OPEN.len()..]);
    let _ = write!(line, ",\"hash\":\"{hash:016x}\"}}");
    line
}

/// Parses and verifies one journal line, returning its body.
fn unseal(line: &str, number: usize) -> Result<Json, Error> {
    let record = penelope_telemetry::json::parse(line).map_err(|e| {
        Error::journal(format!(
            "resume refused: journal line {number} is not valid JSON ({e}); \
             the record is truncated or corrupt"
        ))
    })?;
    let body = record
        .get("body")
        .ok_or_else(|| malformed(number, "missing \"body\""))?;
    let stored = record
        .get("hash")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(number, "missing \"hash\""))?;
    let actual = format!("{:016x}", fnv1a64(body.encode().as_bytes()));
    if stored != actual {
        return Err(Error::journal(format!(
            "resume refused: journal line {number} fails its integrity hash \
             (stored {stored}, computed {actual}); the record is torn or corrupt"
        )));
    }
    Ok(body.clone())
}

fn malformed(number: usize, what: &str) -> Error {
    Error::journal(format!(
        "resume refused: journal line {number} is malformed ({what})"
    ))
}

/// The run identity stamped into a journal's header. Resume compares every
/// field, and the executable stamp the header record carries beside them;
/// any difference means the journal belongs to a different experiment or
/// build and is refused.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// The bench binary (e.g. `"fig6"`).
    pub binary: String,
    /// The run's [`crate::obs::scale_json`] encoding.
    pub scale: Json,
    /// The fault-injection seed (0 when faults are disabled).
    pub fault_seed: u64,
    /// The supervisor retry count the journal's cells ran under. A cell
    /// that quarantined at `retries: 0` might have succeeded at
    /// `retries: 2` (and vice versa), so mixing policies across a resume
    /// would merge results no single configuration could produce.
    pub retries: u32,
    /// The supervisor per-cell cycle budget (`None` when unbounded), for
    /// the same reason: budget-truncated cells are policy artifacts.
    pub cell_budget: Option<u64>,
}

impl JournalHeader {
    /// The header record's body: this run's identity.
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("binary", Json::Str(self.binary.clone()));
        obj.set(
            "executable",
            executable_stamp().map_or(Json::Null, Json::from),
        );
        obj.set("scale", self.scale.clone());
        obj.set("fault_seed", Json::UInt(self.fault_seed));
        obj.set("retries", Json::UInt(u64::from(self.retries)));
        obj.set(
            "cell_budget",
            self.cell_budget.map_or(Json::Null, Json::UInt),
        );
        obj
    }

    /// Accepts a stored header body only if it encodes exactly as the one
    /// this run would write, and only when this run has an executable
    /// stamp to prove the journal is its own.
    fn check(&self, loaded: &Json) -> Result<(), Error> {
        if executable_stamp().is_none() {
            return Err(Error::journal(
                "resume refused: this process cannot read its own executable, \
                 so no journal can be proven to be its own",
            ));
        }
        let expected = self.to_json();
        if loaded.encode() == expected.encode() {
            return Ok(());
        }
        let mut keys: Vec<&str> = Vec::new();
        for json in [&expected, loaded] {
            for (key, _) in json.as_object().unwrap_or_default() {
                if !keys.contains(&key.as_str()) {
                    keys.push(key);
                }
            }
        }
        let show = |json: &Json, key: &str| json.get(key).map_or("(absent)".into(), Json::encode);
        let mut differences: Vec<String> = keys
            .into_iter()
            .filter_map(|key| {
                let (written, this) = (show(loaded, key), show(&expected, key));
                (written != this).then(|| {
                    let name = key.replace('_', " ");
                    format!("{name}: journal {written}, this run {this}")
                })
            })
            .collect();
        if differences.is_empty() {
            // Same keys and values, but another order or a repeated key.
            differences.push(format!(
                "header: journal {}, this run {}",
                loaded.encode(),
                expected.encode()
            ));
        }
        Err(Error::journal(format!(
            "resume refused: the journal was written by another run ({}); \
             a journal resumes only under the executable and settings that wrote it",
            differences.join("; ")
        )))
    }
}

/// A completed cell restored from a journal: the driver's payload (still
/// encoded — the sweep's [`CellPayload`] impl decodes it) and the cell's
/// exact telemetry snapshot (`None` when the original run had no recorder).
#[derive(Debug, Clone)]
pub struct RestoredCell {
    /// The encoded driver row.
    pub payload: Json,
    /// The cell's private telemetry snapshot.
    pub snapshot: Option<Snapshot>,
}

/// The writer half: the journal's path and the length of the complete,
/// `\n`-terminated records on disk. Each append writes only its own record.
#[derive(Debug)]
struct JournalWriter {
    path: PathBuf,
    len: u64,
    /// First I/O failure; once set, appends stop and the message surfaces
    /// as a report warning at the next merge.
    fault: Option<String>,
    reported: bool,
}

impl JournalWriter {
    /// Reopens the journal (never creating it: a journal that vanished
    /// mid-run is a write failure, not a fresh file).
    fn open(&self) -> io::Result<fs::File> {
        fs::OpenOptions::new().write(true).open(&self.path)
    }

    /// Reserves `record + 1` zero bytes past the complete records, fills
    /// them with the record, and writes the terminating `\n` last, so the
    /// file ends in a NUL until the record is sealed.
    fn write_record(&self, record: &str) -> io::Result<u64> {
        let mut file = self.open()?;
        let end = self.len + record.len() as u64 + 1;
        file.set_len(end)?;
        file.seek(SeekFrom::Start(self.len))?;
        file.write_all(record.as_bytes())?;
        file.write_all(b"\n")?;
        Ok(end)
    }

    /// Cuts the file back to its complete records and terminates a final
    /// record that lacks its `\n`, so the next append starts on a fresh
    /// line right after the last complete record.
    fn repair(&mut self, terminate: bool) -> io::Result<()> {
        let mut file = self.open()?;
        file.set_len(self.len)?;
        if terminate {
            file.seek(SeekFrom::Start(self.len))?;
            file.write_all(b"\n")?;
            self.len += 1;
        }
        Ok(())
    }

    fn disable(&mut self, e: &io::Error) {
        self.fault = Some(format!(
            "checkpointing disabled: cannot write journal {}: {e}",
            self.path.display()
        ));
    }

    fn append(&mut self, record: &str) {
        if self.fault.is_some() {
            return;
        }
        match self.write_record(record) {
            Ok(len) => self.len = len,
            Err(e) => self.disable(&e),
        }
    }
}

/// A live checkpointing session, shared by the sweep engine's workers.
/// Cloning is cheap (both halves are `Arc`s); the engine holds one in a
/// process-wide slot armed by the bench CLI.
#[derive(Debug, Clone)]
pub struct CheckpointContext {
    writer: Arc<Mutex<JournalWriter>>,
    restored: Arc<HashMap<(String, usize), RestoredCell>>,
}

impl CheckpointContext {
    /// Starts a fresh journal at `path`, overwriting any existing file.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] when the header cannot be written (bad path,
    /// permissions) — a run asked to checkpoint must fail loudly if it
    /// can't, rather than silently running undurable.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Self, Error> {
        let path = path.into();
        let mut record = seal(&header.to_json());
        record.push('\n');
        let tmp = path.with_extension("jsonl.tmp");
        fs::write(&tmp, &record)
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| {
                Error::journal(format!(
                    "cannot create checkpoint journal {}: {e}",
                    path.display()
                ))
            })?;
        let writer = JournalWriter {
            path,
            len: record.len() as u64,
            fault: None,
            reported: false,
        };
        Ok(CheckpointContext {
            writer: Arc::new(Mutex::new(writer)),
            restored: Arc::new(HashMap::new()),
        })
    }

    /// Loads an existing journal for resumption: verifies every record,
    /// checks the header against this run's identity, and indexes the
    /// completed cells. New completions append to the same file.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] with a `resume refused: …` message for any
    /// corruption or identity mismatch — see the module docs.
    pub fn resume(path: impl AsRef<Path>, header: &JournalHeader) -> Result<Self, Error> {
        let path = path.as_ref();
        let mut contents = fs::read_to_string(path).map_err(|e| {
            Error::journal(format!(
                "resume refused: cannot read journal {}: {e}",
                path.display()
            ))
        })?;
        // A trailing NUL is an append's reservation that never got its
        // `\n`: the process died mid-append, so drop the unsealed tail.
        if contents.ends_with('\0') {
            contents.truncate(contents.rfind('\n').map_or(0, |i| i + 1));
        }
        if contents.trim().is_empty() {
            return Err(Error::journal(format!(
                "resume refused: journal {} is empty (no header record)",
                path.display()
            )));
        }
        let mut restored = HashMap::new();
        for (i, line) in contents.lines().enumerate() {
            let number = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let body = unseal(line, number)?;
            if number == 1 {
                header.check(&body)?;
            } else {
                let sweep = body
                    .get("sweep")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed(number, "missing \"sweep\""))?
                    .to_string();
                let cell = body
                    .get("cell")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| malformed(number, "missing \"cell\""))?
                    as usize;
                let payload = body
                    .get("payload")
                    .ok_or_else(|| malformed(number, "missing \"payload\""))?
                    .clone();
                let snapshot = match body.get("snapshot") {
                    None | Some(Json::Null) => None,
                    Some(encoded) => Some(decode_snapshot(encoded).map_err(|e| {
                        Error::journal(format!(
                            "resume refused: journal line {number} holds an undecodable snapshot ({e})"
                        ))
                    })?),
                };
                let key = (sweep, cell);
                if restored.contains_key(&key) {
                    return Err(Error::journal(format!(
                        "resume refused: duplicate record for {} cell {} at journal line {number}",
                        key.0, key.1
                    )));
                }
                restored.insert(key, RestoredCell { payload, snapshot });
            }
        }
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            len: contents.len() as u64,
            fault: None,
            reported: false,
        };
        if let Err(e) = writer.repair(!contents.ends_with('\n')) {
            writer.disable(&e);
        }
        Ok(CheckpointContext {
            writer: Arc::new(Mutex::new(writer)),
            restored: Arc::new(restored),
        })
    }

    /// The restored state for one cell, if the journal holds it.
    pub fn restored(&self, sweep: &str, cell: usize) -> Option<RestoredCell> {
        self.restored.get(&(sweep.to_string(), cell)).cloned()
    }

    /// How many completed cells the journal restored.
    pub fn restored_cells(&self) -> usize {
        self.restored.len()
    }

    /// Persists one freshly completed cell. Never fails the sweep: an I/O
    /// error mutes the writer and is reported once via [`Self::take_fault`].
    pub fn append(&self, sweep: &str, cell: usize, payload: Json, snapshot: Option<&Snapshot>) {
        let started = std::time::Instant::now();
        let mut body = Json::object();
        body.set("sweep", Json::Str(sweep.to_string()));
        body.set("cell", Json::UInt(cell as u64));
        body.set("payload", payload);
        body.set("snapshot", snapshot.map_or(Json::Null, encode_snapshot));
        let line = seal(&body);
        let bytes = line.len();
        self.writer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .append(&line);
        // Journal writes are the sweep's only hot-path I/O; stream their
        // timeline (encode + reserve + fill + terminate, lock wait included) so a
        // slow disk is observable live instead of showing up only as
        // missing throughput.
        if span::stream_active() {
            span::stream_event(
                "journal-append",
                &[
                    ("sweep", Json::from(sweep)),
                    ("cell", Json::UInt(cell as u64)),
                    ("bytes", Json::UInt(bytes as u64)),
                    (
                        "append_wall_seconds",
                        Json::Float(started.elapsed().as_secs_f64()),
                    ),
                ],
            );
        }
    }

    /// The first write failure, surfaced exactly once (the engine turns it
    /// into a report warning during the merge).
    pub fn take_fault(&self) -> Option<String> {
        let mut writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        if writer.reported {
            return None;
        }
        writer.fault.clone().inspect(|_| writer.reported = true)
    }
}

/// How a sweep's cell results cross the durability boundary: encode into
/// the journal on completion, decode on resume. The round trip must be
/// exact — restored rows feed the same report math as live ones.
pub trait CellPayload: Sized {
    /// Encodes the cell's result for the journal.
    fn to_payload(&self) -> Json;
    /// Decodes a journal payload back into the result.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    fn from_payload(json: &Json) -> Result<Self, String>;
}

/// Declares a struct and its [`CellPayload`] codec. The payload is an
/// array of the fields' payloads in declaration order, the same bytes as
/// the tuple of those fields. Decode binds the fields from that one list,
/// so encode and decode cannot disagree on the order, and refuses any
/// other shape with `"<Type> must be a N-element array"`. Attributes, docs
/// and visibility pass through to the struct.
macro_rules! cell_payload {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty),+
        }

        impl $crate::journal::CellPayload for $name {
            fn to_payload(&self) -> ::penelope_telemetry::Json {
                ::penelope_telemetry::Json::Array(vec![
                    $($crate::journal::CellPayload::to_payload(&self.$field)),+
                ])
            }
            fn from_payload(json: &::penelope_telemetry::Json) -> Result<Self, String> {
                match json.as_array() {
                    Some([$($field),+]) => Ok($name {
                        $($field: $crate::journal::CellPayload::from_payload($field)?),+
                    }),
                    _ => Err(format!(
                        "{} must be a {}-element array",
                        stringify!($name),
                        [$(stringify!($field)),+].len()
                    )),
                }
            }
        }
    };
}
pub(crate) use cell_payload;

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Null => Some(f64::NAN),
        other => other.as_f64(),
    }
}

impl CellPayload for f64 {
    fn to_payload(&self) -> Json {
        Json::Float(*self)
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        number(json).ok_or_else(|| format!("expected a number, got {}", json.type_name()))
    }
}

impl CellPayload for u64 {
    fn to_payload(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        json.as_u64()
            .ok_or_else(|| format!("expected an unsigned integer, got {}", json.type_name()))
    }
}

impl CellPayload for String {
    fn to_payload(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {}", json.type_name()))
    }
}

impl<T: CellPayload> CellPayload for Vec<T> {
    fn to_payload(&self) -> Json {
        Json::Array(self.iter().map(CellPayload::to_payload).collect())
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        json.as_array()
            .ok_or_else(|| format!("expected an array, got {}", json.type_name()))?
            .iter()
            .map(T::from_payload)
            .collect()
    }
}

impl<T: CellPayload> CellPayload for Option<T> {
    fn to_payload(&self) -> Json {
        // Some wraps in a singleton array so `Some(f64::NAN)` (encoded
        // null) stays distinguishable from `None`.
        match self {
            None => Json::Null,
            Some(value) => Json::Array(vec![value.to_payload()]),
        }
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            Json::Array(items) if items.len() == 1 => Ok(Some(T::from_payload(&items[0])?)),
            other => Err(format!(
                "expected null or a singleton array, got {}",
                other.type_name()
            )),
        }
    }
}

impl<A: CellPayload, B: CellPayload> CellPayload for (A, B) {
    fn to_payload(&self) -> Json {
        Json::Array(vec![self.0.to_payload(), self.1.to_payload()])
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        match json.as_array() {
            Some([a, b]) => Ok((A::from_payload(a)?, B::from_payload(b)?)),
            _ => Err("expected a 2-element array".to_string()),
        }
    }
}

impl<A: CellPayload, B: CellPayload, C: CellPayload> CellPayload for (A, B, C) {
    fn to_payload(&self) -> Json {
        Json::Array(vec![
            self.0.to_payload(),
            self.1.to_payload(),
            self.2.to_payload(),
        ])
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        match json.as_array() {
            Some([a, b, c]) => Ok((
                A::from_payload(a)?,
                B::from_payload(b)?,
                C::from_payload(c)?,
            )),
            _ => Err("expected a 3-element array".to_string()),
        }
    }
}

impl CellPayload for Duty {
    fn to_payload(&self) -> Json {
        Json::Float(self.fraction())
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        let fraction = f64::from_payload(json)?;
        Duty::new(fraction).map_err(|e| format!("duty: {e}"))
    }
}

impl CellPayload for BlockCost {
    fn to_payload(&self) -> Json {
        (self.delay(), self.tdp(), self.guardband()).to_payload()
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        let (delay, tdp, guardband) = <(f64, f64, f64)>::from_payload(json)
            .map_err(|e| format!("block cost [delay, tdp, guardband]: {e}"))?;
        BlockCost::try_new(delay, tdp, guardband).map_err(|e| format!("block cost: {e}"))
    }
}

impl CellPayload for Field {
    fn to_payload(&self) -> Json {
        Json::UInt(self.index() as u64)
    }
    fn from_payload(json: &Json) -> Result<Self, String> {
        let index = json.as_u64().ok_or("field must be an index")? as usize;
        Field::ALL
            .get(index)
            .copied()
            .ok_or_else(|| format!("field index {index} out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_telemetry::recorder::{self, Settings};

    fn tmp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "penelope-journal-{}-{name}.jsonl",
            std::process::id()
        ));
        path
    }

    fn header() -> JournalHeader {
        let mut scale = Json::object();
        scale.set("traces_per_suite", Json::UInt(1));
        JournalHeader {
            binary: "test".to_string(),
            scale,
            fault_seed: 7,
            retries: 1,
            cell_budget: None,
        }
    }

    fn sample_snapshot() -> Snapshot {
        recorder::install(Settings {
            sample_period: 64,
            series_capacity: 16,
        });
        let handle = recorder::worker_handle();
        let (_, snapshot) = handle.record_cell(|| {
            recorder::phase("unit", || recorder::record_run(10, 5));
        });
        let _ = recorder::finish();
        snapshot.expect("recorder was installed")
    }

    /// The sealing `seal` replaced: encode the body to hash it, then
    /// encode it again inside a `{"body","hash"}` object.
    fn two_encode_seal(body: Json) -> String {
        let hash = format!("{:016x}", fnv1a64(body.encode().as_bytes()));
        let mut record = Json::object();
        record.set("body", body);
        record.set("hash", Json::Str(hash));
        record.encode()
    }

    #[test]
    fn seal_matches_the_two_encode_record_byte_for_byte() {
        let mut header_body = header().to_json();
        header_body.set(
            "binary",
            Json::from("fleet \"q\" \\ tab\t nl\n bell\u{7} — ünïcode ✓ 🦀"),
        );
        let mut sketch = crate::fleet::FleetSketch::empty();
        for index in 0..40u64 {
            let x = index as f64 / 40.0;
            sketch.observe(index, 0.2 * x, 0.5 + 0.5 * x, 0.1 * x);
        }
        let mut cell_body = Json::object();
        cell_body.set("sweep", Json::from("fleet:mc"));
        cell_body.set("cell", Json::UInt(3));
        cell_body.set("payload", sketch.to_payload());
        cell_body.set("snapshot", Json::Null);
        for body in [header_body, cell_body] {
            let line = seal(&body);
            assert_eq!(line, two_encode_seal(body.clone()));
            let unsealed = unseal(&line, 1).expect("a sealed line verifies");
            assert_eq!(unsealed.encode(), body.encode());
            assert_eq!(seal(&unsealed), line, "resealing is a fixed point");
        }
    }

    #[test]
    fn a_journal_round_trips_cells_exactly() {
        let path = tmp_path("roundtrip");
        let snapshot = sample_snapshot();
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        ctx.append("fig6", 0, Json::Float(1.5), Some(&snapshot));
        ctx.append("fig6", 1, Json::Float(2.5), None);
        ctx.append("table3", 0, Json::Str("row".into()), None);

        let resumed = CheckpointContext::resume(&path, &header()).expect("resume");
        assert_eq!(resumed.restored_cells(), 3);
        let cell = resumed.restored("fig6", 0).expect("cell 0 journaled");
        assert_eq!(cell.payload, Json::Float(1.5));
        assert_eq!(cell.snapshot, Some(snapshot));
        assert!(resumed
            .restored("fig6", 1)
            .expect("cell 1")
            .snapshot
            .is_none());
        assert!(resumed.restored("fig6", 2).is_none());
        assert!(resumed.restored("table3", 0).is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_corruption() {
        let path = tmp_path("corrupt");
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        ctx.append("fig6", 0, Json::Float(1.0), None);
        let pristine = fs::read_to_string(&path).expect("journal readable");

        // Truncated record: chop the final line mid-way.
        fs::write(&path, &pristine[..pristine.len() - 10]).expect("write");
        let err = CheckpointContext::resume(&path, &header()).expect_err("truncated");
        assert!(
            err.to_string().contains("resume refused"),
            "unexpected: {err}"
        );

        // Flipped integrity hash.
        fs::write(&path, pristine.replacen("\"hash\":\"", "\"hash\":\"0", 1)).expect("write");
        let err = CheckpointContext::resume(&path, &header()).expect_err("bad hash");
        assert!(err.to_string().contains("integrity hash"), "{err}");

        // Mismatched run identity.
        fs::write(&path, &pristine).expect("write");
        let other = JournalHeader {
            fault_seed: 8,
            ..header()
        };
        let err = CheckpointContext::resume(&path, &other).expect_err("wrong seed");
        assert!(err.to_string().contains("fault seed"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_header_with_an_extra_or_a_missing_key() {
        let path = tmp_path("header-keys");
        let mut extra = header().to_json();
        extra.set("worker_count", Json::UInt(4));
        let Json::Object(mut missing) = header().to_json() else {
            unreachable!("the header is an object")
        };
        missing.retain(|(key, _)| key != "retries");
        for (body, key) in [
            (extra, "worker count: journal 4, this run (absent)"),
            (
                Json::Object(missing),
                "retries: journal (absent), this run 1",
            ),
        ] {
            fs::write(&path, seal(&body) + "\n").expect("write");
            match CheckpointContext::resume(&path, &header()) {
                Err(Error::Journal { message }) => {
                    assert!(message.starts_with("resume refused:"), "{message}");
                    assert!(message.contains(key), "{message}");
                }
                other => panic!("{} must be refused, got {other:?}", body.encode()),
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_another_executable() {
        let path = tmp_path("executable");
        let stamp = executable_stamp().expect("the test binary is readable");
        let other = format!("{:016x}", fnv1a64(stamp.as_bytes()));
        for written in [Some(other.as_str()), None] {
            let mut body = header().to_json();
            body.set("executable", written.map_or(Json::Null, Json::from));
            fs::write(&path, seal(&body) + "\n").expect("write");
            match CheckpointContext::resume(&path, &header()) {
                Err(Error::Journal { message }) => {
                    assert!(message.starts_with("resume refused:"), "{message}");
                    assert!(message.contains(stamp), "{message}");
                }
                other => panic!("executable {written:?} must be refused, got {other:?}"),
            }
        }
        // The header this process writes names this process's executable.
        fs::write(&path, seal(&header().to_json()) + "\n").expect("write");
        assert!(CheckpointContext::resume(&path, &header()).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_snapshot_span_with_a_forward_parent() {
        let path = tmp_path("forward-parent");
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        ctx.append("fig6", 0, Json::Null, Some(&sample_snapshot()));
        let journal = fs::read_to_string(&path).expect("journal readable");
        let (head, record) = journal.split_once('\n').expect("header line");
        // Point the cell's first span at a later index and reseal the
        // record, so only the snapshot decoder can catch it.
        let body = unseal(record.trim_end(), 2).expect("record verifies");
        let forged = body
            .encode()
            .replacen(r#""parent":null"#, r#""parent":7"#, 1);
        assert_ne!(forged, body.encode(), "the sample snapshot has a root span");
        let forged = penelope_telemetry::json::parse(&forged).expect("forged body parses");
        fs::write(&path, format!("{head}\n{}\n", seal(&forged))).expect("write");
        let err = CheckpointContext::resume(&path, &header()).expect_err("forward parent");
        let message = err.to_string();
        assert!(message.contains("resume refused:"), "{message}");
        assert!(message.contains("must precede"), "{message}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_different_supervisor_policy() {
        let path = tmp_path("policy");
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        ctx.append("fig6", 0, Json::Float(1.0), None);
        drop(ctx);

        let more_retries = JournalHeader {
            retries: 3,
            ..header()
        };
        let err = CheckpointContext::resume(&path, &more_retries).expect_err("retries differ");
        assert!(err.to_string().contains("resume refused"), "{err}");
        assert!(err.to_string().contains("retries"), "{err}");

        let budgeted = JournalHeader {
            cell_budget: Some(10_000),
            ..header()
        };
        let err = CheckpointContext::resume(&path, &budgeted).expect_err("budget differs");
        assert!(err.to_string().contains("cell budget"), "{err}");

        // The matching policy still resumes.
        let resumed = CheckpointContext::resume(&path, &header()).expect("same policy resumes");
        assert_eq!(resumed.restored_cells(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_duplicates_and_empty_journals() {
        let path = tmp_path("dupes");
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        ctx.append("fig6", 3, Json::Null, None);
        ctx.append("fig6", 3, Json::Null, None);
        let err = CheckpointContext::resume(&path, &header()).expect_err("duplicate");
        assert!(err.to_string().contains("duplicate record"), "{err}");

        fs::write(&path, "").expect("write");
        let err = CheckpointContext::resume(&path, &header()).expect_err("empty");
        assert!(err.to_string().contains("no header record"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_failures_degrade_instead_of_aborting() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("penelope-journal-vanishing-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.jsonl");
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        fs::remove_file(&path).expect("rm journal");
        fs::remove_dir(&dir).expect("rm dir");
        ctx.append("fig6", 0, Json::Null, None);
        let fault = ctx.take_fault().expect("write failure surfaced");
        assert!(fault.contains("checkpointing disabled"), "{fault}");
        assert!(ctx.take_fault().is_none(), "reported exactly once");
    }

    /// A journal holding the header plus `cells` data records, and its bytes.
    fn journal_with(name: &str, cells: usize) -> (PathBuf, Vec<u8>) {
        let path = tmp_path(name);
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        for cell in 0..cells {
            ctx.append("fig6", cell, Json::UInt(cell as u64), None);
        }
        let bytes = fs::read(&path).expect("journal readable");
        (path, bytes)
    }

    /// Resumes journal `name` after a damaged tail and checks that `cells`
    /// records come back, that the file is cut back to them, and that two
    /// more appends leave it equal to a journal that was never damaged.
    fn resume_repairs_tail(name: &str, cells: usize) {
        let path = &tmp_path(name);
        let reference = format!("{name}-reference");
        let ctx = CheckpointContext::resume(path, &header()).expect("tail is recoverable");
        assert_eq!(ctx.restored_cells(), cells);
        let (_, expected) = journal_with(&reference, cells);
        assert_eq!(fs::read(path).expect("journal readable"), expected);
        ctx.append("fig6", cells, Json::UInt(cells as u64), None);
        ctx.append("fig6", cells + 1, Json::UInt(cells as u64 + 1), None);
        assert!(ctx.take_fault().is_none());
        let (reference, expected) = journal_with(&reference, cells + 2);
        assert_eq!(fs::read(path).expect("journal readable"), expected);
        let resumed = CheckpointContext::resume(path, &header()).expect("resume again");
        assert_eq!(resumed.restored_cells(), cells + 2);
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(reference);
    }

    #[test]
    fn an_interrupted_reservation_resumes_to_the_last_complete_record() {
        let (path, mut bytes) = journal_with("reserved", 2);
        bytes.resize(bytes.len() + 40, 0);
        fs::write(&path, &bytes).expect("write");
        resume_repairs_tail("reserved", 2);
    }

    #[test]
    fn a_partly_filled_reservation_resumes_to_the_last_complete_record() {
        let (path, mut bytes) = journal_with("partial", 3);
        let (source, longer) = journal_with("partial-source", 4);
        let record = &longer[bytes.len()..];
        bytes.extend_from_slice(&record[..record.len() / 2]);
        bytes.resize(bytes.len() + record.len() - record.len() / 2, 0);
        fs::write(&path, &bytes).expect("write");
        resume_repairs_tail("partial", 3);
        let _ = fs::remove_file(source);
    }

    #[test]
    fn a_final_record_without_its_newline_gets_one_before_the_next_append() {
        let (path, mut bytes) = journal_with("unterminated", 2);
        assert_eq!(bytes.pop(), Some(b'\n'));
        fs::write(&path, &bytes).expect("write");
        resume_repairs_tail("unterminated", 2);
    }

    #[cfg(unix)]
    #[test]
    fn appends_never_rewrite_earlier_bytes() {
        use std::os::unix::fs::MetadataExt;
        let path = tmp_path("append-only");
        let inode = |path: &Path| fs::metadata(path).expect("journal exists").ino();
        let ctx = CheckpointContext::create(&path, &header()).expect("create");
        let created = fs::read(&path).expect("journal readable");
        let ino = inode(&path);
        ctx.append("fig6", 0, Json::Float(1.0), None);
        let appended = fs::read(&path).expect("journal readable");
        assert!(appended.len() > created.len() && appended.starts_with(&created));
        assert_eq!(inode(&path), ino, "append replaced the file");
        drop(ctx);

        let ctx = CheckpointContext::resume(&path, &header()).expect("resume");
        ctx.append("fig6", 1, Json::Float(2.0), None);
        let resumed = fs::read(&path).expect("journal readable");
        assert!(resumed.len() > appended.len() && resumed.starts_with(&appended));
        assert_eq!(inode(&path), ino, "append after resume replaced the file");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn payload_codecs_round_trip() {
        let duty = Duty::saturating(0.375);
        assert_eq!(Duty::from_payload(&duty.to_payload()), Ok(duty));
        let cost = BlockCost::new(1.25, 2.5, 0.0625);
        assert_eq!(
            BlockCost::from_payload(&cost.to_payload()).as_ref(),
            Ok(&cost)
        );
        let v = vec![1.0f64, f64::NAN, 3.5];
        let back = Vec::<f64>::from_payload(&v.to_payload()).expect("vec");
        assert!(back[1].is_nan() && back[0] == 1.0 && back[2] == 3.5);
        let opt: Option<f64> = Some(f64::NAN);
        let back = Option::<f64>::from_payload(&opt.to_payload()).expect("opt");
        assert!(
            back.expect("some").is_nan(),
            "Some(NaN) must not decay to None"
        );
        assert_eq!(
            Option::<f64>::from_payload(&None::<f64>.to_payload()),
            Ok(None)
        );
        let triple = (1.0f64, 2.0f64, 3.0f64);
        assert_eq!(
            <(f64, f64, f64)>::from_payload(&triple.to_payload()),
            Ok(triple)
        );
        let field = Field::Flags;
        assert_eq!(Field::from_payload(&field.to_payload()), Ok(field));
        assert!(Field::from_payload(&Json::UInt(99)).is_err());

        // Negative zero keeps its sign through the journal's text form.
        let text = (-0.0f64).to_payload().encode();
        let zero = f64::from_payload(&penelope_telemetry::json::parse(&text).expect("json"));
        assert_eq!(zero.map(f64::to_bits), Ok((-0.0f64).to_bits()), "{text}");

        cell_payload! {
            #[derive(Debug, Clone, PartialEq)]
            struct Row {
                label: String,
                loss: f64,
                bits: Vec<(Field, Vec<f64>)>,
            }
        }
        let row = Row {
            label: "dl0".into(),
            loss: 0.125,
            bits: vec![(Field::Latency, vec![0.5])],
        };
        let tuple = (row.label.clone(), row.loss, row.bits.clone());
        assert_eq!(row.to_payload().encode(), tuple.to_payload().encode());
        assert_eq!(Row::from_payload(&row.to_payload()), Ok(row));
        let short = Row::from_payload(&(1.0f64, 2.0f64).to_payload());
        assert_eq!(short, Err("Row must be a 3-element array".into()));
    }
}
