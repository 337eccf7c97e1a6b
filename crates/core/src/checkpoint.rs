//! Checkpoint/resume for long population studies.
//!
//! The paper's studies evaluate 2000 chips; a killed run should not have
//! to recompute the chips it already finished.
//! [`crate::executor::run_checkpointed_workers`] writes the completed
//! shards' chip evaluations (and the quarantine ledger) to a plain-text
//! checkpoint file every `every` shards, and a later call with the same
//! configuration, shard layout and path resumes without recomputing
//! them.
//!
//! The format stores every `f64` as the 16-hex-digit image of its IEEE
//! bits, so a resumed run's population — and therefore every report
//! rendered from it — is byte-identical to an uninterrupted run's and
//! to [`crate::Population::generate_with`].
//!
//! # Format v3
//!
//! A `crc_log` snapshot (the line format shared with the sweep journal
//! and the result cache): every line carries its own
//! ` CRC xxxxxxxx` trailer, and the file is published whole by an atomic
//! rewrite, so a torn write or a bit-rotted line is rejected as
//! [`StudyError::Corrupt`] instead of resuming from silently wrong state.
//! After the `seed`/`chips`/`done` header lines come the records:
//!
//! * `C index <results>` — one completed chip evaluation;
//! * `Q index seed error` — one quarantined chip;
//! * `S start len` / `D start len attempts error` — a completed or
//!   degraded shard. `done` counts the chips covered by recorded shards
//!   (not necessarily a contiguous prefix). A file with `done > 0` but
//!   no shard records is chip-granular, written by the serial runner of
//!   earlier versions, and is refused as [`StudyError::Mismatch`].
//!
//! A final `END` line marks the file complete, so a file cut exactly at
//! a line boundary — every remaining line intact — is still refused.
//! Files from earlier versions are refused as corrupt at line 1.

use crate::chip::{ChipSample, PopulationConfig};
use crate::crc_log::{self, crc_line, Policy};
use crate::quarantine::QuarantineLedger;
use std::fmt;
use std::path::Path;
use yac_circuit::{CacheCircuitResult, WayCircuitResult};
use yac_variation::ConfigError;

/// Format version tag; bump when the line layout changes.
const MAGIC: &str = "YAC-CHECKPOINT v3";

/// An error from the checkpointed-study machinery and the durable files
/// it shares its line format with (sweep journal, result cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// A durable file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A durable file does not parse (or fails its CRC).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        what: String,
    },
    /// A durable file belongs to a different study or grid (seed, chip
    /// count, shard layout or grid fingerprint disagree with the
    /// configuration), or the request itself is inconsistent.
    Mismatch(String),
    /// The study configuration itself is invalid.
    Config(ConfigError),
    /// A supervised run degraded: some shards failed, so the population
    /// covers only part of the requested chips. Raised by entry points that promise a *full* study
    /// ([`crate::analysis::full_study_workers`]); callers that can use a
    /// partial result should call
    /// [`crate::executor::run_supervised`] and inspect
    /// [`crate::executor::StudyOutcome::degraded`] instead.
    Degraded {
        /// Chips missing because their shard degraded.
        missing: usize,
        /// Chips the study was asked for.
        requested: usize,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Io { path, message } => write!(f, "I/O error on {path}: {message}"),
            StudyError::Corrupt { line, what } => write!(f, "corrupt file at line {line}: {what}"),
            StudyError::Mismatch(what) => f.write_str(what),
            StudyError::Config(e) => write!(f, "invalid study configuration: {e}"),
            StudyError::Degraded { missing, requested } => write!(
                f,
                "degraded study: {missing} of {requested} chips missing \
                 (shards degraded)"
            ),
        }
    }
}

impl std::error::Error for StudyError {}

impl StudyError {
    /// An [`StudyError::Io`] for `path`.
    pub(crate) fn io(path: &Path, e: std::io::Error) -> Self {
        StudyError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

/// What became of one shard of a supervised parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// Every chip in the shard was computed (classified or quarantined).
    Done,
    /// The shard failed; its chips are missing.
    Degraded {
        /// Attempts made: 1 in records written now; files from when
        /// shards were retried carry larger counts.
        attempts: u32,
        /// The failure (panic message, deadline or stall report).
        error: String,
    },
}

/// One shard's outcome, as persisted in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// First chip index of the shard.
    pub start: u64,
    /// Number of chips in the shard.
    pub len: usize,
    /// Whether the shard completed or was recorded degraded.
    pub status: ShardStatus,
}

/// The persisted state of a partially completed study.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The study seed.
    pub seed: u64,
    /// The total chip count the study was asked for.
    pub chips: usize,
    /// Chips accounted for so far: those covered by
    /// [`CheckpointState::shards`].
    pub done: usize,
    /// Completed chip evaluations, ascending by index.
    pub completed: Vec<ChipSample>,
    /// Chips quarantined so far.
    pub quarantine: QuarantineLedger,
    /// Shard outcomes of a supervised run, ascending by start index.
    pub shards: Vec<ShardRecord>,
}

impl CheckpointState {
    /// A fresh state for a study of `chips` chips under `seed`.
    #[must_use]
    pub fn fresh(seed: u64, chips: usize) -> Self {
        CheckpointState {
            seed,
            chips,
            done: 0,
            completed: Vec::new(),
            quarantine: QuarantineLedger::new(),
            shards: Vec::new(),
        }
    }

    /// Whether every chip has been accounted for.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done >= self.chips
    }
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(token: &str, line: usize) -> Result<f64, StudyError> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| StudyError::Corrupt {
            line,
            what: format!("bad f64 bits {token:?}"),
        })
}

fn parse_usize(token: &str, line: usize) -> Result<usize, StudyError> {
    token.parse().map_err(|_| StudyError::Corrupt {
        line,
        what: format!("bad integer {token:?}"),
    })
}

fn push_result(out: &mut String, r: &CacheCircuitResult) {
    use fmt::Write;
    let _ = write!(
        out,
        " {} {} {} {}",
        f64_hex(r.delay),
        f64_hex(r.heat),
        f64_hex(r.leakage),
        r.ways.len()
    );
    for w in &r.ways {
        let _ = write!(
            out,
            " {} {} {} {}",
            f64_hex(w.delay),
            f64_hex(w.peripheral_leakage),
            f64_hex(w.leakage),
            w.region_delay.len()
        );
        for &d in &w.region_delay {
            let _ = write!(out, " {}", f64_hex(d));
        }
        for &l in &w.region_cell_leakage {
            let _ = write!(out, " {}", f64_hex(l));
        }
    }
}

fn take<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<&'a str, StudyError> {
    tokens.next().ok_or(StudyError::Corrupt {
        line,
        what: "truncated record".into(),
    })
}

fn parse_result<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<CacheCircuitResult, StudyError> {
    let delay = parse_f64(take(tokens, line)?, line)?;
    let heat = parse_f64(take(tokens, line)?, line)?;
    let leakage = parse_f64(take(tokens, line)?, line)?;
    let nways = parse_usize(take(tokens, line)?, line)?;
    let mut ways = Vec::with_capacity(nways);
    for _ in 0..nways {
        let way_delay = parse_f64(take(tokens, line)?, line)?;
        let peripheral_leakage = parse_f64(take(tokens, line)?, line)?;
        let way_leakage = parse_f64(take(tokens, line)?, line)?;
        let nregions = parse_usize(take(tokens, line)?, line)?;
        let mut region_delay = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            region_delay.push(parse_f64(take(tokens, line)?, line)?);
        }
        let mut region_cell_leakage = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            region_cell_leakage.push(parse_f64(take(tokens, line)?, line)?);
        }
        ways.push(WayCircuitResult {
            region_delay,
            delay: way_delay,
            region_cell_leakage,
            peripheral_leakage,
            leakage: way_leakage,
        });
    }
    Ok(CacheCircuitResult {
        ways,
        delay,
        heat,
        leakage,
    })
}

/// Serialises a state to the (v3) checkpoint text format.
#[must_use]
pub fn render_checkpoint(state: &CheckpointState) -> String {
    let mut out = String::new();
    let mut line = |body: &str| out.push_str(&crc_line(body));
    line(MAGIC);
    line(&format!("seed {:016x}", state.seed));
    line(&format!("chips {}", state.chips));
    line(&format!("done {}", state.done));
    for chip in &state.completed {
        let mut record = format!("C {}", chip.index);
        push_result(&mut record, &chip.regular);
        push_result(&mut record, &chip.horizontal);
        line(&record);
    }
    for q in state.quarantine.entries() {
        line(&format!(
            "Q {} {:016x} {}",
            q.index,
            q.seed,
            q.error.replace('\n', " ")
        ));
    }
    for s in &state.shards {
        match &s.status {
            ShardStatus::Done => line(&format!("S {} {}", s.start, s.len)),
            ShardStatus::Degraded { attempts, error } => line(&format!(
                "D {} {} {} {}",
                s.start,
                s.len,
                attempts,
                error.replace('\n', " ")
            )),
        }
    }
    line("END");
    out
}

/// Parses the checkpoint format back into a state. Takes raw file bytes
/// (or text): a line that is not valid UTF-8 fails its CRC like any
/// other rot.
///
/// # Errors
///
/// Returns [`StudyError::Corrupt`] naming the offending line — including
/// a failed line CRC, which rejects torn or bit-rotted files, and line 1
/// for a file of an earlier format version.
pub fn parse_checkpoint(text: impl AsRef<[u8]>) -> Result<CheckpointState, StudyError> {
    let log = crc_log::parse(text.as_ref(), MAGIC, Policy::Snapshot)?;
    let last_line = log.records.last().map_or(1, |&(n, _)| n);
    let mut lines = log.records.into_iter();
    let corrupt = |line: usize, what: &str| StudyError::Corrupt {
        line,
        what: what.to_string(),
    };

    let mut header = |name: &str| -> Result<(usize, &str), StudyError> {
        let (n, l) = lines
            .next()
            .ok_or_else(|| corrupt(last_line, "truncated header"))?;
        l.strip_prefix(name)
            .and_then(|v| v.strip_prefix(' '))
            .map(|v| (n, v))
            .ok_or_else(|| corrupt(n, &format!("expected {name} header")))
    };
    let (n, seed) = header("seed")?;
    let seed = u64::from_str_radix(seed, 16).map_err(|_| corrupt(n, "bad seed"))?;
    let (n, chips) = header("chips")?;
    let chips = chips.parse().map_err(|_| corrupt(n, "bad chip count"))?;
    let (n, done) = header("done")?;
    let done = done.parse().map_err(|_| corrupt(n, "bad done count"))?;

    let mut state = CheckpointState {
        seed,
        chips,
        done,
        completed: Vec::new(),
        quarantine: QuarantineLedger::new(),
        shards: Vec::new(),
    };
    let mut ended = false;
    for (line, l) in lines {
        if ended {
            return Err(corrupt(line, "content after END"));
        }
        if l == "END" {
            ended = true;
            continue;
        }
        if let Some(rest) = l.strip_prefix("C ") {
            let mut tokens = rest.split_ascii_whitespace();
            let index = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad chip index"))?;
            let regular = parse_result(&mut tokens, line)?;
            let horizontal = parse_result(&mut tokens, line)?;
            if tokens.next().is_some() {
                return Err(corrupt(line, "trailing tokens on chip record"));
            }
            state.completed.push(ChipSample {
                index,
                regular,
                horizontal,
            });
        } else if let Some(rest) = l.strip_prefix("Q ") {
            let mut tokens = rest.splitn(3, ' ');
            let index = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad quarantine index"))?;
            let q_seed = u64::from_str_radix(take(&mut tokens, line)?, 16)
                .map_err(|_| corrupt(line, "bad quarantine seed"))?;
            let error = take(&mut tokens, line)?.to_string();
            // Unobserved: these chips were counted in `ChipsQuarantined`
            // when first quarantined; re-parsing the checkpoint on resume
            // must not count them again.
            state.quarantine.record_unobserved(index, q_seed, error);
        } else if let Some(rest) = l.strip_prefix("S ") {
            let mut tokens = rest.split_ascii_whitespace();
            let start = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad shard start"))?;
            let len = parse_usize(take(&mut tokens, line)?, line)?;
            if tokens.next().is_some() {
                return Err(corrupt(line, "trailing tokens on shard record"));
            }
            state.shards.push(ShardRecord {
                start,
                len,
                status: ShardStatus::Done,
            });
        } else if let Some(rest) = l.strip_prefix("D ") {
            let mut tokens = rest.splitn(4, ' ');
            let start = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad shard start"))?;
            let len = parse_usize(take(&mut tokens, line)?, line)?;
            let attempts = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad attempt count"))?;
            let error = take(&mut tokens, line)?.to_string();
            state.shards.push(ShardRecord {
                start,
                len,
                status: ShardStatus::Degraded { attempts, error },
            });
        } else {
            return Err(corrupt(line, "unrecognised record"));
        }
    }
    if !ended {
        return Err(corrupt(last_line, "missing END marker"));
    }
    Ok(state)
}

pub(crate) fn read_state(path: &Path) -> Result<Option<CheckpointState>, StudyError> {
    crc_log::read(path)?.map(parse_checkpoint).transpose()
}

pub(crate) fn write_state(path: &Path, state: &CheckpointState) -> Result<(), StudyError> {
    // A kill mid-write leaves the previous checkpoint intact.
    crc_log::rewrite(
        path,
        &render_checkpoint(state),
        crate::chaos::IoSite::Checkpoint,
        crate::chaos::IoSite::CheckpointRename,
    )?;
    yac_obs::inc(yac_obs::Metric::CheckpointsWritten);
    yac_obs::trace_instant(
        yac_obs::TraceEventKind::CheckpointWritten,
        yac_obs::TraceCtx::default(),
    );
    Ok(())
}

/// Loads (or initialises) the state for `config` at `path`, verifying it
/// belongs to the same study. Parse and I/O errors are surfaced, never
/// swallowed into a fresh state — a corrupt checkpoint must be dealt
/// with explicitly, not silently recomputed over.
pub(crate) fn load_or_fresh(
    path: &Path,
    config: &PopulationConfig,
) -> Result<CheckpointState, StudyError> {
    match read_state(path)? {
        None => Ok(CheckpointState::fresh(config.seed, config.chips)),
        Some(state) => {
            if state.seed != config.seed {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint seed {:#x} != study seed {:#x}",
                    state.seed, config.seed
                )));
            }
            if state.chips != config.chips {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint is for {} chips, study wants {}",
                    state.chips, config.chips
                )));
            }
            Ok(state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::table2;
    use crate::chip::Population;
    use crate::constraints::{ConstraintSpec, YieldConstraints};
    use crate::executor::{
        run_checkpointed_workers, run_checkpointed_workers_budget, ExecutorConfig,
    };
    use crate::report::render_loss_table;
    use yac_variation::FaultPlan;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("yac-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_config(chips: usize, seed: u64) -> PopulationConfig {
        let mut cfg = PopulationConfig::paper(seed);
        cfg.chips = chips;
        cfg
    }

    /// The complete state of a `chips`-chip study, computed serially.
    fn computed_state(chips: usize, seed: u64) -> CheckpointState {
        let pop = Population::generate_with(&small_config(chips, seed));
        CheckpointState {
            done: chips,
            completed: pop.chips.clone(),
            quarantine: pop.quarantine().clone(),
            ..CheckpointState::fresh(seed, chips)
        }
    }

    /// One worker over `shard_chips`-chip shards.
    fn one_worker(shard_chips: usize) -> ExecutorConfig {
        ExecutorConfig {
            shard_chips,
            ..ExecutorConfig::with_workers(1)
        }
    }

    #[test]
    fn checkpoint_text_roundtrips_exactly() {
        let mut state = computed_state(6, 11);
        state.quarantine.record(99, 11, "synthetic entry".into());
        state.shards.push(ShardRecord {
            start: 0,
            len: 6,
            status: ShardStatus::Done,
        });
        state.shards.push(ShardRecord {
            start: 6,
            len: 6,
            status: ShardStatus::Degraded {
                attempts: 3,
                error: "injected shard fault".into(),
            },
        });
        let text = render_checkpoint(&state);
        let parsed = parse_checkpoint(&text).unwrap();
        assert_eq!(parsed, state);
        // Byte-identical re-render: the format is canonical.
        assert_eq!(render_checkpoint(&parsed), text);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_line_numbers() {
        assert!(matches!(
            parse_checkpoint("not a checkpoint\n"),
            Err(StudyError::Corrupt { line: 1, .. })
        ));
        let good = render_checkpoint(&CheckpointState::fresh(1, 2));
        // Dropping the END line leaves every other line intact.
        let truncated = good.replace(&crc_line("END"), "");
        assert!(matches!(
            parse_checkpoint(&truncated),
            Err(StudyError::Corrupt { .. })
        ));
        let garbled = good.replace("END", "X 1 2");
        assert!(parse_checkpoint(&garbled).is_err());
    }

    #[test]
    fn a_file_cut_at_a_line_boundary_before_end_is_corrupt() {
        let state = computed_state(3, 23);
        let good = render_checkpoint(&state);
        let lines: Vec<&str> = good.split_inclusive('\n').collect();
        // Every proper prefix of whole lines is refused, END or not.
        for keep in 1..lines.len() {
            let cut = lines[..keep].concat();
            let err = parse_checkpoint(&cut).unwrap_err();
            assert!(
                matches!(&err, StudyError::Corrupt { line, .. } if *line == keep),
                "cut after {keep} lines: {err}"
            );
        }
        assert_eq!(parse_checkpoint(&good).unwrap(), state);
    }

    #[test]
    fn an_earlier_format_version_is_refused_at_line_one() {
        // A v2 checkpoint: plain lines, one whole-file CRC trailer.
        let body = "YAC-CHECKPOINT v2\nseed 0000000000000001\nchips 2\ndone 0\nEND\n";
        let v2 = format!("{body}CRC {:08x}\n", crc_log::crc32(body.as_bytes()));
        assert!(matches!(
            parse_checkpoint(&v2),
            Err(StudyError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn single_bit_rot_fails_the_crc() {
        let state = computed_state(3, 19);
        let good = render_checkpoint(&state);
        assert!(parse_checkpoint(&good).is_ok());
        // Flip one hex digit inside a chip record. The line still parses
        // as a valid f64 image, so only the CRC can catch it.
        let at = good.find("C 0 ").unwrap() + 4;
        let mut rotted = good.clone().into_bytes();
        rotted[at] = if rotted[at] == b'0' { b'1' } else { b'0' };
        let rotted = String::from_utf8(rotted).unwrap();
        assert_ne!(rotted, good);
        let err = parse_checkpoint(&rotted).unwrap_err();
        assert!(
            matches!(&err, StudyError::Corrupt { what, .. } if what.contains("CRC mismatch")),
            "want CRC mismatch, got {err}"
        );
    }

    #[test]
    fn fresh_run_matches_generate_with() {
        let cfg = small_config(40, 5);
        let path = tmp_path("fresh.ckpt");
        let _ = std::fs::remove_file(&path);
        let pop = run_checkpointed_workers(&cfg, &one_worker(16), &path, 1)
            .unwrap()
            .population;
        let direct = Population::generate_with(&cfg);
        assert_eq!(pop.chips, direct.chips);
        assert_eq!(pop.quarantine(), direct.quarantine());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_run_resumes_to_byte_identical_report() {
        let plan = FaultPlan::new(0.08, 3).unwrap();
        let mut cfg = small_config(90, 13);
        cfg.faults = Some(plan);
        let path = tmp_path("killed.ckpt");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference run (no checkpoint file involved).
        let reference = Population::generate_with(&cfg);

        // "Kill" the study after 4 of its 9 shards, then resume it.
        let exec = one_worker(10);
        let partial = run_checkpointed_workers_budget(&cfg, &exec, &path, 1, Some(4)).unwrap();
        assert!(partial.is_none(), "study must not be complete yet");
        let resumed = run_checkpointed_workers(&cfg, &exec, &path, 1)
            .unwrap()
            .population;

        assert_eq!(resumed.chips, reference.chips);
        assert_eq!(resumed.quarantine(), reference.quarantine());
        let constraints = YieldConstraints::derive(&reference, ConstraintSpec::NOMINAL);
        let report_ref = render_loss_table(&table2(&reference, &constraints));
        let report_res = render_loss_table(&table2(&resumed, &constraints));
        assert_eq!(report_ref, report_res, "reports must be byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let cfg = small_config(12, 7);
        let path = tmp_path("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        let exec = one_worker(4);
        let _ = run_checkpointed_workers_budget(&cfg, &exec, &path, 1, Some(1)).unwrap();
        let other_seed = small_config(12, 8);
        assert!(matches!(
            run_checkpointed_workers(&other_seed, &exec, &path, 1),
            Err(StudyError::Mismatch(_))
        ));
        let other_count = small_config(13, 7);
        assert!(matches!(
            run_checkpointed_workers(&other_count, &exec, &path, 1),
            Err(StudyError::Mismatch(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_variation_config_is_an_error_not_a_panic() {
        let mut cfg = small_config(4, 7);
        cfg.variation.ways = 0;
        let path = tmp_path("invalid-config.ckpt");
        let _ = std::fs::remove_file(&path);
        let err = run_checkpointed_workers(&cfg, &one_worker(4), &path, 1).unwrap_err();
        assert!(matches!(err, StudyError::Config(_)), "got {err}");
        assert!(!path.exists(), "no checkpoint may be written");
    }
}
