//! The durable-file rules every on-disk format shares: the study
//! checkpoint (`YAC-CHECKPOINT v3`), the sweep journal (`YAC-SWEEP v1`)
//! and the service's result cache (`YAC-CACHE v1`).
//!
//! Each file is a sequence of text lines. Every line ends with
//! ` CRC xxxxxxxx` — the IEEE CRC32 of the line's bytes before the
//! trailer — and a newline, and the first line's body is the format's
//! magic. A line is *bad* when it fails its CRC, is not valid UTF-8, or
//! lacks its newline. What a bad line means depends on how the file is
//! written, which the reader learns from its [`Policy`]:
//!
//! * [`Policy::Append`] — an append-only log written with [`Appender`].
//!   A crash mid-append can only tear the final line, so a bad final
//!   line is dropped (the caller cuts the file back to
//!   [`LogLines::valid_len`] before appending again); a bad line anywhere
//!   else is bit rot and refused as [`StudyError::Corrupt`]. A file with
//!   no good line yet — empty, or a torn magic line — holds nothing
//!   durable and reads as empty.
//! * [`Policy::Snapshot`] — a whole-file snapshot published by
//!   [`rewrite`]. The rename makes the file appear whole or not at all,
//!   so any bad line, and an empty file, is refused as corrupt.
//!
//! Both writers go through the chaos layer ([`crate::chaos`]) and fsync
//! the file and its parent directory before reporting success.

use crate::chaos::{intercept_write, IoSite};
use crate::checkpoint::StudyError;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The reflected IEEE polynomial (zlib/PNG).
const POLY: u32 = 0xedb8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight bit-serial steps, so [`crc32`] advances a whole byte per lookup.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the zlib/PNG polynomial), one table lookup per byte.
/// Also checks the service's wire frames and cached records.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xffff_ffff, |crc: u32, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize]
    })
}

/// One complete log line: `body`, its CRC trailer and a newline.
pub(crate) fn crc_line(body: &str) -> String {
    format!("{body} CRC {:08x}\n", crc32(body.as_bytes()))
}

/// The body of `line` (given without its newline) when its CRC trailer
/// checks out; `None` for a torn or rotted line.
pub(crate) fn check_crc_line(line: &str) -> Option<&str> {
    let (body, hex) = line.rsplit_once(" CRC ")?;
    let stated = u32::from_str_radix(hex, 16).ok()?;
    (crc32(body.as_bytes()) == stated).then_some(body)
}

/// Every line of `bytes` as the offset just past it and its verified
/// body, `None` when the line is bad.
fn lines(bytes: &[u8]) -> impl Iterator<Item = (usize, Option<&str>)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let rest = bytes.get(pos..).filter(|r| !r.is_empty())?;
        let (line, end) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (Some(&rest[..nl]), pos + nl + 1),
            None => (None, bytes.len()),
        };
        pos = end;
        let body = line
            .and_then(|l| std::str::from_utf8(l).ok())
            .and_then(check_crc_line);
        Some((end, body))
    })
}

/// How many lines of `bytes` are bad.
pub(crate) fn bad_lines(bytes: &[u8]) -> usize {
    lines(bytes).filter(|(_, body)| body.is_none()).count()
}

/// How a reader treats a bad line (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// An append-only log: a bad final line is a torn append, dropped.
    Append,
    /// A whole-file snapshot: every bad line is corruption.
    Snapshot,
}

/// The verified content of a log file.
#[derive(Debug)]
pub(crate) struct LogLines<'a> {
    /// `(1-based line number, body)` of every line after the magic.
    pub(crate) records: Vec<(usize, &'a str)>,
    /// A torn final line was dropped ([`Policy::Append`] only).
    pub(crate) torn_tail: bool,
    /// Byte length of the good prefix (magic included).
    pub(crate) valid_len: u64,
}

/// Verifies `bytes` line by line under `policy`, checking that the
/// first line is `magic`. Any other bad line, a wrong magic (line 1) or
/// an empty snapshot is [`StudyError::Corrupt`].
pub(crate) fn parse<'a>(
    bytes: &'a [u8],
    magic: &str,
    policy: Policy,
) -> Result<LogLines<'a>, StudyError> {
    let mut log = LogLines {
        records: Vec::new(),
        torn_tail: false,
        valid_len: 0,
    };
    for (index, (end, body)) in lines(bytes).enumerate() {
        let line = index + 1;
        let Some(body) = body else {
            if policy == Policy::Append && end == bytes.len() {
                log.torn_tail = true;
                break;
            }
            return Err(StudyError::Corrupt {
                line,
                what: "CRC mismatch (torn write or bit rot)".into(),
            });
        };
        if line == 1 {
            if body != magic {
                return Err(StudyError::Corrupt {
                    line,
                    what: format!("bad magic {body:?} (want {magic:?})"),
                });
            }
        } else {
            log.records.push((line, body));
        }
        log.valid_len = end as u64;
    }
    if policy == Policy::Snapshot && log.valid_len == 0 {
        return Err(StudyError::Corrupt {
            line: 1,
            what: "empty file (missing magic)".into(),
        });
    }
    Ok(log)
}

/// The raw bytes of `path`; `Ok(None)` when no file exists, and
/// [`StudyError::Io`] for any other read failure.
pub(crate) fn read(path: &Path) -> Result<Option<Vec<u8>>, StudyError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StudyError::io(path, e)),
    }
}

/// Syncs `path`'s parent directory, making a just-created or renamed
/// entry durable (on Unix a directory entry lives in the directory,
/// which has its own cache).
fn fsync_parent(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Replaces `path` with `text` atomically: write a sibling `.tmp` file
/// and `sync_all` it (chaos op at `write_site`), then rename it over
/// `path` and fsync the parent directory (chaos op at `rename_site`). A
/// crash at any point leaves the old file or the new one, never a mix,
/// and the rename cannot publish data still in the page cache.
pub(crate) fn rewrite(
    path: &Path,
    text: &str,
    write_site: IoSite,
    rename_site: IoSite,
) -> Result<(), StudyError> {
    let tmp = path.with_extension("tmp");
    intercept_write(write_site, &tmp, text.as_bytes(), |bytes| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    })
    .map_err(|e| StudyError::io(path, e))?;
    intercept_write(rename_site, path, &[], |_| {
        std::fs::rename(&tmp, path)?;
        fsync_parent(path)
    })
    .map_err(|e| StudyError::io(path, e))
}

/// An append-only log open for durable appends. Every write is one
/// chaos op at the log's [`IoSite`].
#[derive(Debug)]
pub(crate) struct Appender {
    path: PathBuf,
    site: IoSite,
    file: std::fs::File,
}

impl Appender {
    /// Creates `path` afresh holding `header` (magic first) as CRC
    /// lines, fsyncing the file and its parent directory. Recreating
    /// from scratch means a half-written header left by an earlier crash
    /// cannot linger ahead of this one.
    pub(crate) fn create(path: &Path, site: IoSite, header: &[&str]) -> Result<Self, StudyError> {
        let text: String = header.iter().map(|body| crc_line(body)).collect();
        intercept_write(site, path, text.as_bytes(), |bytes| {
            let mut file = std::fs::File::create(path)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            fsync_parent(path)
        })
        .map_err(|e| StudyError::io(path, e))?;
        Self::open(path, site)
    }

    /// Reopens an existing log for appending. `cut_to` is the log's
    /// [`LogLines::valid_len`] when it had a torn tail: the file is cut
    /// back to it first, or the next record would be glued onto the
    /// partial line and turn it into mid-file rot.
    pub(crate) fn resume(
        path: &Path,
        site: IoSite,
        cut_to: Option<u64>,
    ) -> Result<Self, StudyError> {
        if let Some(len) = cut_to {
            intercept_write(site, path, &[], |_| {
                let file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(len)?;
                file.sync_all()
            })
            .map_err(|e| StudyError::io(path, e))?;
        }
        Self::open(path, site)
    }

    fn open(path: &Path, site: IoSite) -> Result<Self, StudyError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StudyError::io(path, e))?;
        Ok(Appender {
            path: path.to_path_buf(),
            site,
            file,
        })
    }

    /// Appends `body` as one CRC line in a single `write_all`, fsynced
    /// before returning.
    pub(crate) fn append(&mut self, body: &str) -> Result<(), StudyError> {
        let line = crc_line(body);
        intercept_write(self.site, &self.path, line.as_bytes(), |bytes| {
            self.file.write_all(bytes)?;
            self.file.sync_all()
        })
        .map_err(|e| StudyError::io(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &str = "YAC-TEST v1";

    fn log_text(bodies: &[&str]) -> String {
        std::iter::once(MAGIC)
            .chain(bodies.iter().copied())
            .map(crc_line)
            .collect()
    }

    fn corrupt_line(result: Result<LogLines<'_>, StudyError>) -> usize {
        match result {
            Err(StudyError::Corrupt { line, .. }) => line,
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The IEEE CRC32 check value for "123456789" (ITU-T V.42 / zlib).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-serial CRC32 the table is derived from: the reference the
    /// table-driven [`crc32`] must match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_reference() {
        // A seeded xorshift byte stream: every length 0..=1024 at every
        // start offset 0..8, so unaligned heads and tails are covered.
        let mut state = 0x2006_u64;
        let bytes: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn journal_lines_carry_verifiable_crcs() {
        let line = crc_line("S 3 total 1");
        let body = check_crc_line(line.trim_end()).unwrap();
        assert_eq!(body, "S 3 total 1");
        assert!(check_crc_line("S 3 total 1 CRC 00000000").is_none());
        assert!(check_crc_line("no trailer at all").is_none());
    }

    #[test]
    fn good_logs_read_the_same_under_both_policies() {
        let text = log_text(&["a 1", "b 2"]);
        for policy in [Policy::Append, Policy::Snapshot] {
            let log = parse(text.as_bytes(), MAGIC, policy).unwrap();
            assert_eq!(log.records, vec![(2, "a 1"), (3, "b 2")]);
            assert!(!log.torn_tail);
            assert_eq!(log.valid_len, text.len() as u64);
        }
    }

    #[test]
    fn torn_final_line_without_newline_is_dropped_from_a_log_only() {
        let good = log_text(&["a 1"]);
        let torn = format!("{good}b 2 CRC");
        let log = parse(torn.as_bytes(), MAGIC, Policy::Append).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![(2, "a 1")]);
        assert_eq!(log.valid_len, good.len() as u64);
        // Even a good CRC does not make a newline-less line complete.
        let unterminated = good.trim_end_matches('\n');
        assert!(
            parse(unterminated.as_bytes(), MAGIC, Policy::Append)
                .unwrap()
                .torn_tail
        );
        assert_eq!(
            corrupt_line(parse(torn.as_bytes(), MAGIC, Policy::Snapshot)),
            3
        );
    }

    #[test]
    fn torn_final_line_with_a_bad_crc_is_dropped_from_a_log_only() {
        let good = log_text(&["a 1"]);
        let torn = format!("{good}b 2 CRC 12345678\n");
        let log = parse(torn.as_bytes(), MAGIC, Policy::Append).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.valid_len, good.len() as u64);
        let err = parse(torn.as_bytes(), MAGIC, Policy::Snapshot).unwrap_err();
        assert!(
            matches!(&err, StudyError::Corrupt { line: 3, what } if what.contains("CRC mismatch")),
            "{err:?}"
        );
    }

    #[test]
    fn mid_file_rot_is_fatal_under_both_policies() {
        let mut text = log_text(&[]);
        text.push_str("a 1 CRC 12345678\n");
        text.push_str(&crc_line("b 2"));
        for policy in [Policy::Append, Policy::Snapshot] {
            assert_eq!(corrupt_line(parse(text.as_bytes(), MAGIC, policy)), 2);
        }
    }

    #[test]
    fn a_wrong_magic_is_corrupt_at_line_one() {
        let text = crc_line("YAC-OTHER v1");
        for policy in [Policy::Append, Policy::Snapshot] {
            assert_eq!(corrupt_line(parse(text.as_bytes(), MAGIC, policy)), 1);
        }
        // A magic line without a trailer fails its CRC: still line 1.
        let bare = format!("{MAGIC}\n{}", crc_line("a 1"));
        assert_eq!(
            corrupt_line(parse(bare.as_bytes(), MAGIC, Policy::Snapshot)),
            1
        );
    }

    #[test]
    fn an_empty_file_is_fresh_for_a_log_and_corrupt_for_a_snapshot() {
        for empty in [&b""[..], b"YAC-TE"] {
            let log = parse(empty, MAGIC, Policy::Append).unwrap();
            assert!(log.records.is_empty());
            assert_eq!(log.valid_len, 0);
            assert_eq!(corrupt_line(parse(empty, MAGIC, Policy::Snapshot)), 1);
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_is_bad() {
        let text = log_text(&["a 1", "b 2"]);
        let mut bytes = text.into_bytes();
        let at = bytes.len() - 4;
        bytes[at] ^= 0x80;
        assert!(std::str::from_utf8(&bytes).is_err());
        // The final line: a torn tail for a log, corruption for a snapshot.
        let log = parse(&bytes, MAGIC, Policy::Append).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![(2, "a 1")]);
        assert_eq!(corrupt_line(parse(&bytes, MAGIC, Policy::Snapshot)), 3);
        assert_eq!(bad_lines(&bytes), 1);
        // Mid-file, it is rot for both.
        let mut mid = bytes.clone();
        mid.extend_from_slice(crc_line("c 3").as_bytes());
        assert_eq!(corrupt_line(parse(&mid, MAGIC, Policy::Append)), 3);
    }

    #[test]
    fn appender_and_rewrite_produce_lines_the_reader_accepts() {
        let dir = std::env::temp_dir().join("yac-crc-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.log");
        let mut log = Appender::create(&path, IoSite::SweepJournal, &[MAGIC, "h 0"]).unwrap();
        log.append("a 1").unwrap();
        drop(log);
        // A torn append, then a resume that cuts it off and appends again.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"b 2 CR");
        std::fs::write(&path, &bytes).unwrap();
        let valid_len = parse(&bytes, MAGIC, Policy::Append).unwrap().valid_len;
        let mut log = Appender::resume(&path, IoSite::SweepJournal, Some(valid_len)).unwrap();
        log.append("c 3").unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, log_text(&["h 0", "a 1", "c 3"]).into_bytes());

        let snapshot = dir.join("snapshot.log");
        let text = log_text(&["x 9"]);
        rewrite(&snapshot, &text, IoSite::CacheFile, IoSite::CacheFile).unwrap();
        assert!(!snapshot.with_extension("tmp").exists());
        let bytes = std::fs::read(&snapshot).unwrap();
        let read = parse(&bytes, MAGIC, Policy::Snapshot).unwrap();
        assert_eq!(read.records, vec![(2, "x 9")]);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&snapshot).unwrap();
    }
}
