//! Packed segment storage for the result cache.
//!
//! The original cache kept one `<digest>.json` file per point, which is
//! friendly to inspection but hostile to 10k+-point campaigns: every store
//! is a file creation, every warm run is one `open` per point, and a large
//! population exhausts inodes long before it exhausts bytes. This module
//! packs entries into a small number of append-only *segment* files with a
//! sidecar index:
//!
//! ```text
//! <cache>/segments/seg-<pid>-<n>.pack    framed entry payloads (append-only)
//! <cache>/segments/seg-<pid>-<n>.idx     one JSON line per entry: digest → span, checksum
//! ```
//!
//! Each entry in a `.pack` file is framed as `LTRF1 <digest> <len>\n`
//! followed by `<len>` bytes of payload and a newline, so segments are
//! self-describing and recoverable with standard tools. The `.idx` line
//! records the span and the payload's [`checksum64`]; a load whose bytes
//! fail the checksum is a miss, and lines without one (written before it
//! existed) are skipped. The `.idx` line for an entry is appended only
//! *after* the payload is written, which makes stores crash-ordered without
//! temp files or renames: a kill between the two writes leaves an
//! unreferenced (but well-framed) span that simply misses; a kill mid-line
//! leaves a torn `.idx` tail that the loader skips.
//! Segment names embed the writing process's id plus a counter, so
//! concurrent sweep processes never append to the same file.
//!
//! [`PackedStore::open`] builds an in-memory digest → span index from every
//! `.idx` file; duplicate digests (two processes computing the same point)
//! are harmless because entries are content-addressed — any copy is as good
//! as any other. Segments roll at [`SEGMENT_ROLL_BYTES`] so no single file
//! grows unboundedly. Each segment's read handle is opened on its first
//! load and kept, so a hit is one seek and read under the segment's lock.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::hash::checksum64;

/// A segment rolls over once its payload bytes pass this threshold, bounding
/// the cost of reading (or shipping) any single file.
pub const SEGMENT_ROLL_BYTES: u64 = 4 * 1024 * 1024;

/// Frame marker leading every packed entry.
const FRAME_MAGIC: &str = "LTRF1";

/// One `.idx` sidecar line: where a digest's payload lives, and the
/// payload's [`checksum64`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IndexLine {
    digest: String,
    segment: String,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// A `.pack` file and its read handle, shared by every span in it.
#[derive(Debug)]
struct Segment {
    name: String,
    /// Opened on the first load from this segment and kept; the lock makes
    /// each seek + read one step.
    reader: Mutex<Option<File>>,
}

impl Segment {
    fn new(name: String) -> Arc<Self> {
        Arc::new(Segment {
            name,
            reader: Mutex::new(None),
        })
    }
}

/// Where a payload lives, in memory, and what it must checksum to.
#[derive(Debug, Clone)]
struct Span {
    segment: Arc<Segment>,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// The open segment this process is appending to.
#[derive(Debug)]
struct SegmentWriter {
    segment: Arc<Segment>,
    data: File,
    idx: File,
    written: u64,
}

/// An append-only packed store of digest-addressed payloads.
#[derive(Debug)]
pub struct PackedStore {
    dir: PathBuf,
    index: Mutex<HashMap<String, Span>>,
    writer: Mutex<Option<SegmentWriter>>,
}

impl PackedStore {
    /// Opens (creating if needed) the packed store under `dir` and builds
    /// the digest index from every `.idx` sidecar. Torn or garbled index
    /// lines are skipped — their entries are unreachable and miss — and so
    /// are lines without a checksum.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created
    /// or listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut segments: HashMap<String, Arc<Segment>> = HashMap::new();
        for entry in fs::read_dir(&dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|ext| ext != "idx") {
                continue;
            }
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            for line in text.lines() {
                let Ok(parsed) = serde::from_json_str::<IndexLine>(line) else {
                    continue;
                };
                let segment = segments
                    .entry(parsed.segment)
                    .or_insert_with_key(|name| Segment::new(name.clone()));
                index.insert(
                    parsed.digest,
                    Span {
                        segment: Arc::clone(segment),
                        offset: parsed.offset,
                        len: parsed.len,
                        checksum: parsed.checksum,
                    },
                );
            }
        }
        Ok(PackedStore {
            dir,
            index: Mutex::new(index),
            writer: Mutex::new(None),
        })
    }

    /// Loads the payload stored under `digest_hex`, if the index knows it
    /// and the bytes still match their checksum.
    ///
    /// Any failure — missing segment, short read, checksum mismatch,
    /// non-UTF-8 bytes — is a miss; the caller treats the payload like any
    /// other untrusted cache text and re-verifies its key material.
    #[must_use]
    pub fn load(&self, digest_hex: &str) -> Option<String> {
        let span = self
            .index
            .lock()
            .expect("packed index poisoned")
            .get(digest_hex)
            .cloned()?;
        // The length comes from an index file: the buffer grows only as
        // bytes arrive, so a garbled length is a short read, not an abort.
        let mut payload =
            Vec::with_capacity(usize::try_from(span.len.min(SEGMENT_ROLL_BYTES)).ok()?);
        {
            let mut reader = span.segment.reader.lock().expect("segment reader poisoned");
            if reader.is_none() {
                *reader = Some(File::open(self.dir.join(&span.segment.name)).ok()?);
            }
            let file = reader.as_mut()?;
            file.seek(SeekFrom::Start(span.offset)).ok()?;
            Read::take(file, span.len).read_to_end(&mut payload).ok()?;
        }
        if payload.len() as u64 != span.len || checksum64(&payload) != span.checksum {
            return None;
        }
        String::from_utf8(payload).ok()
    }

    /// Appends `payload` under `digest_hex`: frame, payload and newline to
    /// the current segment in one write, then the index line
    /// (crash-ordering: an entry is reachable only once it is fully on
    /// disk).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store(&self, digest_hex: &str, payload: &str) -> io::Result<()> {
        let mut writer = self.writer.lock().expect("packed writer poisoned");
        let segment = match writer.as_mut() {
            Some(segment) if segment.written < SEGMENT_ROLL_BYTES => segment,
            _ => {
                *writer = Some(self.roll_segment()?);
                writer.as_mut().expect("segment just created")
            }
        };

        let mut record = format!("{FRAME_MAGIC} {digest_hex} {}\n", payload.len());
        let offset = segment.written + record.len() as u64;
        record.reserve_exact(payload.len() + 1);
        record.push_str(payload);
        record.push('\n');
        segment.data.write_all(record.as_bytes())?;
        segment.written += record.len() as u64;

        let checksum = checksum64(payload.as_bytes());
        let mut line = serde::to_json_string(&IndexLine {
            digest: digest_hex.to_string(),
            segment: segment.segment.name.clone(),
            offset,
            len: payload.len() as u64,
            checksum,
        });
        line.push('\n');
        segment.idx.write_all(line.as_bytes())?;

        self.index.lock().expect("packed index poisoned").insert(
            digest_hex.to_string(),
            Span {
                segment: Arc::clone(&segment.segment),
                offset,
                len: payload.len() as u64,
                checksum,
            },
        );
        Ok(())
    }

    /// Opens a fresh uniquely-named segment for this process.
    fn roll_segment(&self) -> io::Result<SegmentWriter> {
        let pid = std::process::id();
        for counter in 0u64.. {
            let name = format!("seg-{pid}-{counter}.pack");
            let data = match OpenOptions::new()
                .append(true)
                .create_new(true)
                .open(self.dir.join(&name))
            {
                Ok(file) => file,
                // A previous run of a recycled pid left this name behind;
                // never append to a file another process may index.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            };
            let idx = OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.dir.join(format!("seg-{pid}-{counter}.idx")))?;
            return Ok(SegmentWriter {
                segment: Segment::new(name),
                data,
                idx,
                written: 0,
            });
        }
        unreachable!("u64 segment counter space exhausted")
    }

    /// Number of reachable entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().expect("packed index poisoned").len()
    }

    /// Whether the store holds no reachable entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltrf-packed-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn only_file(dir: &std::path::Path, extension: &str) -> PathBuf {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|ext| ext == extension))
            .expect("one file with the extension")
    }

    #[test]
    fn store_load_round_trip_and_reopen() {
        let dir = temp_store("round-trip");
        let store = PackedStore::open(&dir).unwrap();
        assert!(store.load("aa").is_none());
        store.store("aa", "{\"x\":1}").unwrap();
        store.store("bb", "{\"y\":2}").unwrap();
        assert_eq!(store.load("aa").as_deref(), Some("{\"x\":1}"));
        assert_eq!(store.load("bb").as_deref(), Some("{\"y\":2}"));
        assert_eq!(store.len(), 2);
        // A fresh open rebuilds the index from the sidecars.
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(reopened.load("aa").as_deref(), Some("{\"x\":1}"));
        assert_eq!(reopened.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restores_overwrite_in_the_index() {
        let dir = temp_store("overwrite");
        let store = PackedStore::open(&dir).unwrap();
        store.store("aa", "old").unwrap();
        store.store("aa", "new").unwrap();
        assert_eq!(store.load("aa").as_deref(), Some("new"));
        assert_eq!(store.len(), 1);
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(
            reopened.load("aa").as_deref(),
            Some("new"),
            "later index lines win on reopen"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_index_lines_are_skipped() {
        let dir = temp_store("torn-idx");
        let store = PackedStore::open(&dir).unwrap();
        store.store("aa", "payload-a").unwrap();
        drop(store);
        // Simulate a kill mid-append on the sidecar: a dangling partial line.
        let idx_path = only_file(&dir, "idx");
        let mut text = fs::read_to_string(&idx_path).unwrap();
        text.push_str("{\"digest\":\"bb\",\"segm");
        fs::write(&idx_path, text).unwrap();
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(reopened.load("aa").as_deref(), Some("payload-a"));
        assert!(reopened.load("bb").is_none(), "the torn entry misses");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Index lines written before payload checksums existed carry none.
    /// They are skipped like torn lines, so their entries recompute once.
    #[test]
    fn index_lines_without_a_checksum_are_skipped() {
        let dir = temp_store("no-checksum");
        let store = PackedStore::open(&dir).unwrap();
        store.store("aa", "payload-a").unwrap();
        drop(store);
        let idx = only_file(&dir, "idx");
        let line = fs::read_to_string(&idx).unwrap();
        let start = line.find(",\"checksum\"").expect("a checksum field");
        let legacy = format!("{}}}\n", &line[..start]);
        assert!(legacy.ends_with("\"len\":9}\n"), "{legacy}");
        fs::write(&idx, legacy).unwrap();
        let reopened = PackedStore::open(&dir).unwrap();
        assert!(reopened.load("aa").is_none());
        assert!(reopened.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A garbled length in an index line is a miss, not an attempt to
    /// allocate that many bytes.
    #[test]
    fn a_garbled_span_length_misses() {
        let dir = temp_store("garbled-len");
        let store = PackedStore::open(&dir).unwrap();
        store.store("aa", "payload-a").unwrap();
        drop(store);
        let idx = only_file(&dir, "idx");
        let line = fs::read_to_string(&idx).unwrap();
        let huge = line
            .replace("\"aa\"", "\"zz\"")
            .replace("\"len\":9", "\"len\":1000000000000000");
        fs::write(&idx, format!("{line}{huge}")).unwrap();
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.load("zz").is_none());
        assert_eq!(reopened.load("aa").as_deref(), Some("payload-a"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment's read handle is opened on the first load and kept: the
    /// entries stay readable through it after the file's name is gone.
    #[cfg(unix)]
    #[test]
    fn loads_reuse_the_segment_read_handle() {
        let dir = temp_store("handle");
        let store = PackedStore::open(&dir).unwrap();
        store.store("aa", "payload-a").unwrap();
        store.store("bb", "payload-b").unwrap();
        assert_eq!(store.load("aa").as_deref(), Some("payload-a"));
        fs::remove_file(only_file(&dir, "pack")).unwrap();
        assert_eq!(store.load("bb").as_deref(), Some("payload-b"));
        assert_eq!(store.load("aa").as_deref(), Some("payload-a"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two threads appending through ONE store (the `sweep serve`
    /// shared-cache shape) must interleave without corrupting the sidecar
    /// index: every digest loads back live, a fresh open rebuilds the
    /// complete index, and every idx line parses.
    #[test]
    fn concurrent_writers_on_a_shared_store_never_corrupt_the_index() {
        use std::sync::Arc;
        let dir = temp_store("concurrent-shared");
        let store = Arc::new(PackedStore::open(&dir).unwrap());
        let per_thread = 64;
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let digest = format!("t{t}-{i:03}");
                        let payload = format!("{{\"writer\":{t},\"i\":{i}}}");
                        store.store(&digest, &payload).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(store.len(), 2 * per_thread);
        for t in 0..2 {
            for i in 0..per_thread {
                let digest = format!("t{t}-{i:03}");
                assert_eq!(
                    store.load(&digest).as_deref(),
                    Some(format!("{{\"writer\":{t},\"i\":{i}}}").as_str()),
                    "live load of {digest}"
                );
            }
        }
        // A fresh open sees everything: the sidecar index survived the
        // interleaving intact.
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2 * per_thread);
        // And byte-level: every idx line is well-formed JSON (no torn or
        // interleaved appends).
        for entry in fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "idx") {
                for (no, line) in fs::read_to_string(&path).unwrap().lines().enumerate() {
                    serde::Value::parse_json(line).unwrap_or_else(|e| {
                        panic!("{}:{} is torn: {line:?} ({e})", path.display(), no + 1)
                    });
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two *instances* on one directory (two processes in miniature — the
    /// `seg-<pid>-<n>` naming plus `create_new` is what keeps them apart)
    /// must also coexist: each appends to its own segment, and a fresh
    /// open merges both.
    #[test]
    fn concurrent_store_instances_on_one_directory_coexist() {
        let dir = temp_store("concurrent-instances");
        let a = PackedStore::open(&dir).unwrap();
        let b = PackedStore::open(&dir).unwrap();
        let handles: Vec<_> = [(0, a), (1, b)]
            .into_iter()
            .map(|(t, store)| {
                std::thread::spawn(move || {
                    for i in 0..32 {
                        store
                            .store(&format!("inst{t}-{i:02}"), &format!("p{t}-{i}"))
                            .unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let merged = PackedStore::open(&dir).unwrap();
        assert_eq!(merged.len(), 64);
        for t in 0..2 {
            for i in 0..32 {
                assert_eq!(
                    merged.load(&format!("inst{t}-{i:02}")).as_deref(),
                    Some(format!("p{t}-{i}").as_str())
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Concurrent appends with payloads big enough to force segment rolls
    /// mid-race: rolling must not tear the index or lose spans.
    #[test]
    fn concurrent_writers_survive_segment_rolls() {
        use std::sync::Arc;
        let dir = temp_store("concurrent-roll");
        let store = Arc::new(PackedStore::open(&dir).unwrap());
        let payload = "y".repeat((SEGMENT_ROLL_BYTES / 3) as usize);
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let store = Arc::clone(&store);
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for i in 0..4 {
                        store.store(&format!("roll{t}-{i}"), &payload).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let reopened = PackedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 8);
        for t in 0..2 {
            for i in 0..4 {
                assert_eq!(
                    reopened.load(&format!("roll{t}-{i}")).as_deref(),
                    Some(&payload[..]),
                    "roll{t}-{i} survived the roll race"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_remain_readable() {
        let dir = temp_store("roll");
        let store = PackedStore::open(&dir).unwrap();
        // Payloads big enough that a few pass the roll threshold.
        let payload = "x".repeat((SEGMENT_ROLL_BYTES / 2) as usize);
        for i in 0..5 {
            store.store(&format!("d{i}"), &payload).unwrap();
        }
        let packs = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "pack"))
            .count();
        assert!(packs > 1, "large stores roll across segments, got {packs}");
        for i in 0..5 {
            assert_eq!(store.load(&format!("d{i}")).as_deref(), Some(&payload[..]));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
