//! Self-validating append-only record journals.
//!
//! A journal is the crash-safe spine of a resumable computation: every
//! completed unit of work appends one record, and after a kill the
//! journal's valid prefix is exactly the work that does not have to be
//! redone. Records are one line each:
//!
//! ```text
//! <16 lowercase hex digits of FNV-1a over the payload> <payload JSON>\n
//! ```
//!
//! The payload is compact single-line JSON written and read with this
//! crate's serde-free [`parse_json`]/[`append_json_string`] machinery —
//! no new dependencies. The checksum prefix makes every record
//! *self-validating*: a truncated tail (the normal artifact of
//! `SIGKILL` mid-append), a flipped bit, or any other corruption is
//! detected on read and reported as a [`JournalDefect`] — never
//! silently absorbed. Reading stops at the first defective record; the
//! valid prefix is returned, and the defect names the line, the reason
//! and how many subsequent lines were dropped with it.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::faultio::IoPolicy;
use crate::json::{parse_json, JsonValue};

/// FNV-1a over `bytes` — the workspace's standard 64-bit digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// A streaming [`fnv1a`]: feeding the same bytes in any number of pieces
/// gives the same digest as one call over their concatenation. As a
/// [`std::fmt::Write`] it digests formatted text (`write!(h, "{x:?}")`)
/// without building the `String` first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` in place.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// An append-only journal writer. Every [`append`](Journal::append) is
/// issued as a single `write` call and flushed to the operating system
/// before returning — flush-before-ack — so a `SIGKILL` or disk-full
/// between appends loses at most the record being written, which the
/// reader then detects as a truncated tail.
///
/// All writes route through an [`IoPolicy`] (a no-op by default), so
/// durability tests can inject short writes and ENOSPC on the real
/// write path instead of mutilating the file afterwards.
pub struct Journal {
    out: Box<dyn Write + Send>,
}

fn ensure_parent(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

impl Journal {
    /// Creates (truncating) a journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(path, &IoPolicy::default())
    }

    /// [`create`](Journal::create) with writes routed through `policy`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create_with(path: impl AsRef<Path>, policy: &IoPolicy) -> io::Result<Self> {
        ensure_parent(path.as_ref())?;
        Ok(Journal {
            out: Box::new(policy.wrap(File::create(path)?)),
        })
    }

    /// Opens `path` for appending (creating it and its parent
    /// directories if missing), with writes routed through `policy`.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append_to_with(path: impl AsRef<Path>, policy: &IoPolicy) -> io::Result<Self> {
        ensure_parent(path.as_ref())?;
        Ok(Journal {
            out: Box::new(policy.wrap(OpenOptions::new().create(true).append(true).open(path)?)),
        })
    }

    /// Appends one record and flushes it. `payload` must be single-line
    /// JSON (the caller builds it with [`append_json_string`] and
    /// friends); a payload containing a newline is rejected because it
    /// would corrupt the line framing.
    ///
    /// The full `checksum payload\n` line is issued as one `write`
    /// call, then flushed, so the record either reaches the OS whole or
    /// the caller gets the error — there is no buffered half-record
    /// acknowledged as written.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a payload with a newline, otherwise I/O
    /// errors from the underlying file.
    ///
    /// [`append_json_string`]: crate::append_json_string
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        if payload.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal records must be single-line JSON",
            ));
        }
        let line = format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()));
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }
}

/// Why (and where) journal reading stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDefect {
    /// 1-based line number of the first defective record.
    pub line: usize,
    /// What was wrong with it.
    pub(crate) reason: String,
    /// How many lines (the defective one included) were dropped.
    pub dropped: usize,
}

impl std::fmt::Display for JournalDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "journal line {}: {} ({} record(s) dropped)",
            self.line, self.reason, self.dropped
        )
    }
}

/// The readable contents of a journal: the valid record prefix, plus
/// the defect that ended reading, if any.
#[derive(Debug)]
pub struct JournalContents {
    /// Parsed payloads of every valid record, in append order.
    pub records: Vec<JsonValue>,
    /// The first defective record, when the journal is damaged or was
    /// truncated by a kill. `None` for a fully valid journal.
    pub defect: Option<JournalDefect>,
}

/// Reads and validates the journal at `path`. Corruption is never an
/// `Err`: the valid prefix always comes back, with the defect reported
/// alongside so the caller can surface it.
///
/// # Errors
///
/// Only I/O errors (missing file, permissions). Checksum and format
/// violations are reported via [`JournalContents::defect`].
pub fn read_journal(path: impl AsRef<Path>) -> io::Result<JournalContents> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_journal(&text))
}

/// [`read_journal`] over in-memory text (exposed for tests and for
/// callers that already hold the bytes).
pub fn parse_journal(text: &str) -> JournalContents {
    let mut records = Vec::new();
    let mut lines: Vec<&str> = text.split('\n').collect();
    // `split` yields one trailing empty fragment when the text ends in
    // '\n' (the well-formed case). A non-empty final fragment is a
    // record that never got its newline: the truncated-tail artifact.
    let truncated_tail = match lines.last() {
        Some(&"") => {
            lines.pop();
            false
        }
        Some(_) => true,
        None => false,
    };
    let total = lines.len();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == total;
        let defect = |reason: String| {
            Some(JournalDefect {
                line: i + 1,
                reason,
                dropped: total - i,
            })
        };
        if last && truncated_tail {
            return JournalContents {
                records,
                defect: defect(format!(
                    "truncated record (no trailing newline, {} bytes)",
                    line.len()
                )),
            };
        }
        let (crc_text, payload) = match line.split_once(' ') {
            Some(parts) if parts.0.len() == 16 => parts,
            _ => {
                return JournalContents {
                    records,
                    defect: defect("malformed record framing (want '<16-hex> <json>')".into()),
                }
            }
        };
        let Ok(crc) = u64::from_str_radix(crc_text, 16) else {
            return JournalContents {
                records,
                defect: defect(format!("non-hex checksum {crc_text:?}")),
            };
        };
        let actual = fnv1a(payload.as_bytes());
        if crc != actual {
            return JournalContents {
                records,
                defect: defect(format!(
                    "checksum mismatch (recorded {crc:016x}, payload digests to {actual:016x})"
                )),
            };
        }
        match parse_json(payload) {
            Ok(value) => records.push(value),
            Err(e) => {
                return JournalContents {
                    records,
                    defect: defect(format!("checksummed payload is not valid JSON: {e}")),
                }
            }
        }
    }
    JournalContents {
        records,
        defect: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tve-obs-journal-{tag}-{}.tvj", std::process::id()))
    }

    #[test]
    fn round_trips_records() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::create(&path).unwrap();
        journal.append(r#"{"kind":"header","n":3}"#).unwrap();
        journal.append(r#"{"kind":"cell","index":0}"#).unwrap();
        drop(journal);
        // Re-open for append, like a resumed process would.
        let mut journal = Journal::append_to_with(&path, &IoPolicy::default()).unwrap();
        journal.append(r#"{"kind":"cell","index":1}"#).unwrap();
        drop(journal);

        let contents = read_journal(&path).unwrap();
        assert!(contents.defect.is_none());
        assert_eq!(contents.records.len(), 3);
        assert_eq!(
            contents.records[2].get("index").and_then(JsonValue::as_u64),
            Some(1)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_reported_not_absorbed() {
        let path = temp_path("truncated");
        let mut journal = Journal::create(&path).unwrap();
        journal.append(r#"{"kind":"cell","index":0}"#).unwrap();
        journal.append(r#"{"kind":"cell","index":1}"#).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7); // mid-record, newline gone
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "valid prefix survives");
        let defect = contents.defect.expect("truncation must be reported");
        assert_eq!(defect.line, 2);
        assert!(defect.reason.contains("truncated"), "{defect}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_detected_and_drops_the_rest() {
        let path = temp_path("bitflip");
        let mut journal = Journal::create(&path).unwrap();
        for i in 0..3 {
            journal.append(&format!(r#"{{"index":{i}}}"#)).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit inside record 2 (line 2), past its checksum.
        let line_len = bytes.len() / 3;
        bytes[line_len + 20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let contents = parse_journal(&String::from_utf8(bytes).unwrap());
        assert_eq!(contents.records.len(), 1);
        let defect = contents.defect.expect("bit flip must be reported");
        assert_eq!((defect.line, defect.dropped), (2, 2));
        assert!(defect.reason.contains("checksum mismatch"), "{defect}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn framing_and_json_violations_are_defects() {
        let bad_framing = "zzzz {\"a\":1}\n";
        let contents = parse_journal(bad_framing);
        assert!(contents.records.is_empty());
        assert!(contents.defect.unwrap().reason.contains("framing"));

        let payload = "{\"a\":"; // valid checksum over invalid JSON
        let line = format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()));
        let contents = parse_journal(&line);
        assert!(contents.defect.unwrap().reason.contains("not valid JSON"));

        assert!(parse_journal("").defect.is_none());
    }

    #[test]
    fn short_write_injection_leaves_a_detectable_torn_tail() {
        use crate::faultio::{IoPolicy, WriteFault};
        let path = temp_path("shortwrite");
        let policy = IoPolicy::new();
        // Each append is exactly one write; tear the second record after
        // 9 bytes (inside its checksum prefix).
        policy.fail_nth_write(2, WriteFault::Short { keep: 9 });
        let mut journal = Journal::create_with(&path, &policy).unwrap();
        journal.append(r#"{"index":0}"#).unwrap();
        let err = journal.append(r#"{"index":1}"#).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(journal);

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "valid prefix survives");
        let defect = contents.defect.expect("torn tail must be reported");
        assert_eq!(defect.line, 2);
        assert!(defect.reason.contains("truncated"), "{defect}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_injection_fails_cleanly_at_a_record_boundary() {
        use crate::faultio::{IoPolicy, WriteFault};
        let path = temp_path("enospc");
        let policy = IoPolicy::new();
        policy.fail_nth_write(2, WriteFault::Enospc);
        let mut journal = Journal::create_with(&path, &policy).unwrap();
        journal.append(r#"{"index":0}"#).unwrap();
        let err = journal.append(r#"{"index":1}"#).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(journal);

        // Nothing of the failed record reached the file: no defect.
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert!(contents.defect.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multiline_payloads_are_rejected() {
        let path = temp_path("multiline");
        let mut journal = Journal::create(&path).unwrap();
        let err = journal.append("{\n}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).unwrap();
    }
}
