//! The sweep orchestrator: a grid of studies (seed × constraint ×
//! scheme set) run through the supervised executor with per-study
//! failure isolation and crash-safe resume.
//!
//! The paper's numbers come from repeated Monte Carlo studies — the same
//! population shape evaluated under several constraint recipes and both
//! power-down organisations, across seeds for confidence. A multi-study
//! sweep is exactly the workload where a single lost multi-hour run is
//! the dominant failure mode, so the orchestrator is built around three
//! guarantees:
//!
//! * **Failure domains are per study.** Each grid cell runs behind
//!   `catch_unwind` on top of the supervised executor's own shard
//!   isolation; a poisoned study is recorded [`StudyStatus::Failed`] and
//!   the sweep continues.
//! * **Crash-safe journal.** Progress is appended to a `YAC-SWEEP v1`
//!   journal, every record CRC-trailed like the checkpoint format and
//!   fsynced (file *and* parent directory) before the sweep moves on. A
//!   torn final line — the signature of a crash mid-append — is detected
//!   and dropped; anything else corrupt is refused as
//!   [`StudyError::Corrupt`], never silently recomputed over.
//! * **Bit-identical resume.** Completed studies are restored from their
//!   journal records (every `f64` persisted as IEEE bit images); the
//!   interrupted study resumes shard-granularly from its own
//!   [`crate::executor::run_checkpointed_workers`] checkpoint. A killed
//!   sweep resumed any number of times produces the same loss tables and
//!   CPIs as an uninterrupted run, to the bit.
//!
//! Admission is bounded: at most [`SweepConfig::concurrent_studies`]
//! studies are in flight, each on its own supervised worker pool, so a
//! sweep never runs more than `concurrent_studies × exec.workers` worker
//! threads. Cooperative cancellation ([`SweepConfig::cancel`]) stops the
//! sweep between studies, leaving the journal resumable.
//!
//! # Journal format (`YAC-SWEEP v1`)
//!
//! A line-oriented append-only log. Every line ends with ` CRC xxxxxxxx`
//! — the IEEE CRC32 of the line's bytes before the trailer — so torn
//! appends are detectable per line:
//!
//! ```text
//! YAC-SWEEP v1 CRC xxxxxxxx
//! G <grid-hash 16 hex> <study-count> CRC xxxxxxxx
//! R <index> CRC xxxxxxxx                      # study started
//! S <index> <result...> CRC xxxxxxxx          # completed
//! D <index> <result...> CRC xxxxxxxx          # degraded (honest partial)
//! F <index> <error text> CRC xxxxxxxx         # failed (poisoned study)
//! ```
//!
//! A study's terminal state is its **last** `S`/`D`/`F` record; `R`
//! records only witness that a study was in flight when a crash hit.
//! `<result...>` serialises the study's full [`LossTable`] plus interval
//! and CPI with every float as its 16-hex-digit bit image — resume does
//! not recompute finished studies, it replays their recorded bits.
//!
//! # Examples
//!
//! ```
//! use yac_core::sweep::{run_sweep, SweepConfig, SweepGrid};
//!
//! let mut grid = SweepGrid::paper();
//! grid.chips = 16;
//! grid.seeds = vec![1];
//! let mut config = SweepConfig::default();
//! config.exec.workers = 2;
//! let dir = std::env::temp_dir().join("yac-sweep-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let journal = dir.join("doc.sweep");
//! let _ = std::fs::remove_file(&journal);
//! let outcome = run_sweep(&grid, &config, &journal).unwrap();
//! assert_eq!(outcome.completed(), grid.studies().len());
//! std::fs::remove_file(&journal).unwrap();
//! ```

use crate::analysis::{table2, table3, LossBreakdown, LossTable, SchemeLosses};
use crate::chaos::IoSite;
use crate::checkpoint::StudyError;
use crate::chip::PopulationConfig;
use crate::confidence::{yield_interval, YieldInterval};
use crate::constraints::{ConstraintSpec, YieldConstraints};
use crate::crc_log::{self, Appender, Policy};
use crate::executor::{panic_message, run_checkpointed_workers, ExecutorConfig};
use crate::perf::{suite_cpis_isolated, PerfOptions};
use crate::schemes::PowerDownKind;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use yac_cache::CacheConfig;
use yac_circuit::CacheVariant;
use yac_pipeline::PipelineConfig;
use yac_variation::FaultPlan;

/// Journal magic line content (before its CRC trailer).
const MAGIC: &str = "YAC-SWEEP v1";

/// The study grid: every combination of seed, constraint recipe and
/// power-down organisation, over one population shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Chips per study population.
    pub chips: usize,
    /// Monte Carlo seeds, one study set per seed.
    pub seeds: Vec<u64>,
    /// Constraint recipes to classify under.
    pub constraints: Vec<ConstraintSpec>,
    /// Power-down organisations (selects Table 2 vs Table 3 losses).
    pub kinds: Vec<PowerDownKind>,
}

impl SweepGrid {
    /// The paper's full grid: 2000 chips, three constraint recipes, both
    /// organisations, one seed (add more for confidence).
    #[must_use]
    pub fn paper() -> Self {
        SweepGrid {
            chips: 2000,
            seeds: vec![2006],
            constraints: vec![
                ConstraintSpec::NOMINAL,
                ConstraintSpec::RELAXED,
                ConstraintSpec::STRICT,
            ],
            kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        }
    }

    /// The grid cells in canonical order (seed-major, then constraint,
    /// then kind); [`StudySpec::index`] is the position in this list and
    /// the index the journal records.
    #[must_use]
    pub fn studies(&self) -> Vec<StudySpec> {
        let mut out = Vec::with_capacity(self.seeds.len() * self.constraints.len());
        for &seed in &self.seeds {
            for &constraint in &self.constraints {
                for &kind in &self.kinds {
                    out.push(StudySpec {
                        index: out.len(),
                        seed,
                        constraint,
                        kind,
                    });
                }
            }
        }
        out
    }

    /// A stable hash of everything that determines the sweep's results:
    /// the grid itself plus the result-shaping parts of the config (CPI
    /// budgets, fault plan). Deliberately excludes the executor tuning —
    /// worker count, shard size and deadline never change results,
    /// so a sweep may be resumed under a different executor.
    #[must_use]
    pub fn fingerprint(&self, config: &SweepConfig) -> u64 {
        results_key(
            self.chips,
            &self.seeds,
            &self.constraints,
            &self.kinds,
            config.cpi,
            config.faults,
        )
    }
}

/// The one key fold behind [`SweepGrid::fingerprint`] and the service's
/// per-query key: a SplitMix64-style fold over the result-shaping inputs
/// only. It reads no executor settings, so computing a key never probes
/// the host. Journals and cache files are keyed by its values, so they
/// must never change.
pub(crate) fn results_key(
    chips: usize,
    seeds: &[u64],
    constraints: &[ConstraintSpec],
    kinds: &[PowerDownKind],
    cpi: Option<CpiOptions>,
    faults: Option<FaultPlan>,
) -> u64 {
    let mut h = mix(0x59ac_5eed, chips as u64);
    h = mix(h, seeds.len() as u64);
    for &seed in seeds {
        h = mix(h, seed);
    }
    h = mix(h, constraints.len() as u64);
    for c in constraints {
        for &b in c.name.as_bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, c.delay_sigma_factor.to_bits());
        h = mix(h, c.leakage_mean_factor.to_bits());
    }
    h = mix(h, kinds.len() as u64);
    for &k in kinds {
        h = mix(h, matches!(k, PowerDownKind::Horizontal) as u64);
    }
    match cpi {
        None => h = mix(h, 0),
        Some(c) => {
            h = mix(h, 1);
            h = mix(h, c.warmup_uops);
            h = mix(h, c.measure_uops);
        }
    }
    match faults {
        None => h = mix(h, 0),
        Some(f) => {
            h = mix(h, 1);
            h = mix(h, f.rate().to_bits());
            h = mix(h, f.salt());
        }
    }
    h
}

fn mix(h: u64, v: u64) -> u64 {
    let mut z = h
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(v.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudySpec {
    /// Position in [`SweepGrid::studies`]; the journal's study index.
    pub index: usize,
    /// Monte Carlo seed for the population.
    pub seed: u64,
    /// Constraint recipe the population is classified under.
    pub constraint: ConstraintSpec,
    /// Which organisation's loss table the study builds.
    pub kind: PowerDownKind,
}

/// Per-study CPI measurement budgets (trace seed follows the study
/// seed). `None` in [`SweepConfig::cpi`] skips CPI measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpiOptions {
    /// Micro-ops committed before measurement starts.
    pub warmup_uops: u64,
    /// Micro-ops measured.
    pub measure_uops: u64,
}

impl Default for CpiOptions {
    /// The quick benchmark budget — sweeps multiply every cost by the
    /// grid size, so the default leans fast.
    fn default() -> Self {
        let quick = PerfOptions::quick();
        CpiOptions {
            warmup_uops: quick.warmup_uops,
            measure_uops: quick.measure_uops,
        }
    }
}

/// Tuning for a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Executor configuration used by every study.
    pub exec: ExecutorConfig,
    /// Studies admitted concurrently (each with its own `exec.workers`
    /// pool, so the sweep runs at most `concurrent_studies × workers`
    /// worker threads). Clamped to at least 1.
    pub concurrent_studies: usize,
    /// Shards between checkpoint writes within each study.
    pub checkpoint_every: usize,
    /// Measure mean suite CPI per study with these budgets; `None`
    /// skips CPI entirely.
    pub cpi: Option<CpiOptions>,
    /// Cooperative cancellation: set to `true` between studies to stop
    /// the sweep (finished studies stay journalled, the rest stay
    /// pending and a later run resumes them).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Optional per-chip fault injection, applied to every study.
    pub faults: Option<FaultPlan>,
}

impl Default for SweepConfig {
    /// One study at a time on the default executor, checkpoint every 4
    /// shards, no CPI, no cancellation, no faults.
    ///
    /// Builds [`ExecutorConfig::default`], which probes the host through
    /// `available_parallelism` (cgroup file reads, about 20 µs), so it
    /// must not be built per request. Keys come from
    /// [`SweepGrid::fingerprint`], which reads no executor settings.
    fn default() -> Self {
        SweepConfig {
            exec: ExecutorConfig::default(),
            concurrent_studies: 1,
            checkpoint_every: 4,
            cpi: None,
            cancel: None,
            faults: None,
        }
    }
}

/// Everything one finished (or degraded) study produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    /// The study's loss table (Table 2 or Table 3 shape).
    pub loss: LossTable,
    /// Yield interval under the study's own constraint, widened by any
    /// chips lost to degraded shards.
    pub yield_interval: YieldInterval,
    /// Chips that were actually evaluated (classified + quarantined).
    pub evaluated_chips: usize,
    /// Chips missing because their shard degraded.
    pub missing_chips: usize,
    /// Shards that failed and were recorded degraded.
    pub degraded_shards: usize,
    /// Mean suite CPI on the paper's L1D, when CPI was measured.
    pub mean_cpi: Option<f64>,
}

/// What became of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyStatus {
    /// Not yet run (sweep cancelled or crashed before reaching it).
    Pending,
    /// Ran to completion with every chip observed.
    Completed(StudyResult),
    /// Finished, but some shards degraded: the result covers the
    /// surviving chips and its interval is honestly widened.
    Degraded(StudyResult),
    /// The study was poisoned (bad config, panic, corrupt checkpoint);
    /// the sweep continued without it.
    Failed {
        /// What went wrong.
        error: String,
    },
}

impl StudyStatus {
    /// The result, for terminal states that carry one.
    #[must_use]
    pub fn result(&self) -> Option<&StudyResult> {
        match self {
            StudyStatus::Completed(r) | StudyStatus::Degraded(r) => Some(r),
            _ => None,
        }
    }
}

/// The aggregated outcome of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Every grid cell with its status, ascending by study index.
    pub studies: Vec<(StudySpec, StudyStatus)>,
    /// Whether an existing journal was found and honoured.
    pub resumed: bool,
    /// Studies restored from journal records instead of being rerun.
    pub recovered: usize,
    /// Whether cooperative cancellation stopped the sweep early.
    pub cancelled: bool,
}

impl SweepOutcome {
    fn count(&self, f: impl Fn(&StudyStatus) -> bool) -> usize {
        self.studies.iter().filter(|(_, s)| f(s)).count()
    }

    /// Studies that completed with every chip observed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.count(|s| matches!(s, StudyStatus::Completed(_)))
    }

    /// Studies that finished degraded.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.count(|s| matches!(s, StudyStatus::Degraded(_)))
    }

    /// Studies that failed outright.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, StudyStatus::Failed { .. }))
    }

    /// Studies never reached (cancellation or crash).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.count(|s| matches!(s, StudyStatus::Pending))
    }
}

// ---------------------------------------------------------------------
// Journal rendering and parsing
// ---------------------------------------------------------------------

fn name_token(name: &str) -> String {
    // Journal records are whitespace-tokenised; names with whitespace
    // (none of ours have any) are made token-safe, at the cost of exact
    // round-trip for those names only.
    name.split_whitespace().collect::<Vec<_>>().join("_")
}

fn render_breakdown(out: &mut String, b: &LossBreakdown) {
    let _ = write!(out, " {} {}", b.leakage, b.delay.len());
    for d in &b.delay {
        let _ = write!(out, " {d}");
    }
}

/// Serialises a [`StudyResult`] as journal tokens (floats as IEEE bit
/// images, so replaying the record is bit-identical to recomputing).
///
/// The rendering is **canonical**: re-rendering a parsed record
/// reproduces it byte for byte. The sweep journal's `S`/`D` records,
/// the service's result cache and its wire replies all carry exactly
/// this text, which is what makes "cached equals recomputed" a byte
/// comparison.
#[must_use]
pub fn render_result(r: &StudyResult) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "total {} quarantined {} variant {} spec {}",
        r.loss.total_chips,
        r.loss.quarantined,
        match r.loss.base_variant {
            CacheVariant::Regular => "R",
            CacheVariant::Horizontal => "H",
        },
        name_token(&r.loss.spec_name),
    );
    out.push_str(" base");
    render_breakdown(&mut out, &r.loss.base);
    let _ = write!(out, " schemes {}", r.loss.schemes.len());
    for s in &r.loss.schemes {
        let _ = write!(out, " {}", name_token(&s.name));
        render_breakdown(&mut out, &s.losses);
    }
    let _ = write!(
        out,
        " interval {:016x} {:016x} {:016x} evaluated {} missing {} shards {} cpi {}",
        r.yield_interval.estimate.to_bits(),
        r.yield_interval.lo.to_bits(),
        r.yield_interval.hi.to_bits(),
        r.evaluated_chips,
        r.missing_chips,
        r.degraded_shards,
        match r.mean_cpi {
            Some(c) => format!("{:016x}", c.to_bits()),
            None => "-".to_owned(),
        }
    );
    out
}

struct TokenReader<'a> {
    tokens: std::str::SplitAsciiWhitespace<'a>,
    line: usize,
}

impl<'a> TokenReader<'a> {
    fn corrupt(&self, what: impl Into<String>) -> StudyError {
        StudyError::Corrupt {
            line: self.line,
            what: what.into(),
        }
    }

    fn next(&mut self) -> Result<&'a str, StudyError> {
        self.tokens
            .next()
            .ok_or_else(|| self.corrupt("truncated record"))
    }

    fn keyword(&mut self, word: &str) -> Result<(), StudyError> {
        let got = self.next()?;
        if got == word {
            Ok(())
        } else {
            Err(self.corrupt(format!("expected {word:?}, got {got:?}")))
        }
    }

    fn usize(&mut self) -> Result<usize, StudyError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| self.corrupt(format!("bad integer {t:?}")))
    }

    fn f64_bits(&mut self) -> Result<f64, StudyError> {
        let t = self.next()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| self.corrupt(format!("bad f64 bits {t:?}")))
    }

    fn breakdown(&mut self) -> Result<LossBreakdown, StudyError> {
        let leakage = self.usize()?;
        let rows = self.usize()?;
        let mut delay = Vec::with_capacity(rows);
        for _ in 0..rows {
            delay.push(self.usize()?);
        }
        Ok(LossBreakdown { leakage, delay })
    }
}

/// Parses [`render_result`] tokens back into a [`StudyResult`] (bit
/// exact). `line` is folded into [`StudyError::Corrupt`] diagnostics.
///
/// # Errors
///
/// Returns [`StudyError::Corrupt`] when the tokens are truncated,
/// malformed or carry trailing garbage.
pub fn parse_result(tokens: &str, line: usize) -> Result<StudyResult, StudyError> {
    let mut r = TokenReader {
        tokens: tokens.split_ascii_whitespace(),
        line,
    };
    r.keyword("total")?;
    let total_chips = r.usize()?;
    r.keyword("quarantined")?;
    let quarantined = r.usize()?;
    r.keyword("variant")?;
    let base_variant = match r.next()? {
        "R" => CacheVariant::Regular,
        "H" => CacheVariant::Horizontal,
        other => return Err(r.corrupt(format!("bad variant {other:?}"))),
    };
    r.keyword("spec")?;
    let spec_name = r.next()?.to_owned();
    r.keyword("base")?;
    let base = r.breakdown()?;
    r.keyword("schemes")?;
    let nschemes = r.usize()?;
    let mut schemes = Vec::with_capacity(nschemes);
    for _ in 0..nschemes {
        let name = r.next()?.to_owned();
        let losses = r.breakdown()?;
        schemes.push(SchemeLosses { name, losses });
    }
    r.keyword("interval")?;
    let interval = YieldInterval {
        estimate: r.f64_bits()?,
        lo: r.f64_bits()?,
        hi: r.f64_bits()?,
    };
    r.keyword("evaluated")?;
    let evaluated_chips = r.usize()?;
    r.keyword("missing")?;
    let missing_chips = r.usize()?;
    r.keyword("shards")?;
    let degraded_shards = r.usize()?;
    r.keyword("cpi")?;
    let mean_cpi = match r.next()? {
        "-" => None,
        bits => Some(
            u64::from_str_radix(bits, 16)
                .map(f64::from_bits)
                .map_err(|_| r.corrupt(format!("bad cpi bits {bits:?}")))?,
        ),
    };
    if r.tokens.next().is_some() {
        return Err(r.corrupt("trailing tokens on study record"));
    }
    Ok(StudyResult {
        loss: LossTable {
            base_variant,
            spec_name,
            total_chips,
            base,
            schemes,
            quarantined,
        },
        yield_interval: interval,
        evaluated_chips,
        missing_chips,
        degraded_shards,
        mean_cpi,
    })
}

/// What a journal parse recovered.
#[derive(Debug)]
pub(crate) struct ParsedJournal {
    pub(crate) grid_hash: u64,
    pub(crate) studies: usize,
    /// Last terminal record per study index.
    pub(crate) terminal: Vec<(usize, StudyStatus)>,
    /// A torn (CRC-failing or newline-less) final line was dropped; the
    /// file must be truncated to `valid_len` before appending, or the
    /// next record would concatenate onto the partial line.
    pub(crate) torn_tail: bool,
    /// Byte length of the CRC-valid prefix.
    pub(crate) valid_len: u64,
}

impl ParsedJournal {
    /// Refuses a journal written for a different grid (or config) than
    /// the one with `fingerprint` and `studies` cells.
    ///
    /// # Errors
    ///
    /// [`StudyError::Mismatch`] naming both fingerprints.
    pub(crate) fn check_grid(&self, fingerprint: u64, studies: usize) -> Result<(), StudyError> {
        if self.grid_hash == fingerprint && self.studies == studies {
            return Ok(());
        }
        Err(StudyError::Mismatch(format!(
            "sweep journal belongs to a different grid \
             (journal {:016x}/{} studies, this grid {:016x}/{studies})",
            self.grid_hash, self.studies, fingerprint
        )))
    }
}

/// Parses a journal file's bytes. `Ok(None)` means the file holds no
/// complete header — the signature of a crash during creation — and the
/// sweep should start fresh (rewriting the file).
pub(crate) fn parse_journal(bytes: impl AsRef<[u8]>) -> Result<Option<ParsedJournal>, StudyError> {
    let log = crc_log::parse(bytes.as_ref(), MAGIC, Policy::Append)?;
    let Some(&(gline, grid)) = log.records.first() else {
        return Ok(None); // Nothing durable past the magic: fresh sweep.
    };
    let mut r = TokenReader {
        tokens: grid.split_ascii_whitespace(),
        line: gline,
    };
    r.keyword("G")?;
    let hex = r.next()?;
    let grid_hash =
        u64::from_str_radix(hex, 16).map_err(|_| r.corrupt(format!("bad grid hash {hex:?}")))?;
    let studies = r.usize()?;
    let mut terminal: Vec<(usize, StudyStatus)> = Vec::new();
    let mut record =
        |index: usize, status: StudyStatus| match terminal.iter_mut().find(|(i, _)| *i == index) {
            Some((_, s)) => *s = status,
            None => terminal.push((index, status)),
        };
    for &(line, body) in &log.records[1..] {
        let corrupt = |what: String| StudyError::Corrupt { line, what };
        let (tag, rest) = body
            .split_once(' ')
            .ok_or_else(|| corrupt("bare record tag".into()))?;
        let (index_token, payload) = rest.split_once(' ').unwrap_or((rest, ""));
        let index: usize = index_token
            .parse()
            .map_err(|_| corrupt(format!("bad study index {index_token:?}")))?;
        if index >= studies {
            return Err(corrupt(format!("study index {index} out of range")));
        }
        match tag {
            "R" => {} // In-flight witness only; terminal state comes later.
            "S" => record(index, StudyStatus::Completed(parse_result(payload, line)?)),
            "D" => record(index, StudyStatus::Degraded(parse_result(payload, line)?)),
            "F" => record(
                index,
                StudyStatus::Failed {
                    error: payload.to_owned(),
                },
            ),
            other => return Err(corrupt(format!("unknown record tag {other:?}"))),
        }
    }
    Ok(Some(ParsedJournal {
        grid_hash,
        studies,
        terminal,
        torn_tail: log.torn_tail,
        valid_len: log.valid_len,
    }))
}

// ---------------------------------------------------------------------
// The orchestrator
// ---------------------------------------------------------------------

/// The per-study checkpoint path: `<journal>.s<index>.ckpt` next to the
/// journal, so the interrupted study resumes shard-granularly.
fn study_checkpoint(journal: &Path, index: usize) -> PathBuf {
    journal.with_extension(format!("s{index}.ckpt"))
}

/// Turns a supervised-executor outcome into a [`StudyResult`]:
/// classification, loss table, interval, optional CPI. Shared verbatim
/// by the sweep orchestrator and the service's query path, so a
/// service-computed result is bit-identical to the sweep's for the same
/// grid cell by construction.
pub(crate) fn study_result_from_outcome(
    outcome: &crate::executor::StudyOutcome,
    constraint: ConstraintSpec,
    kind: PowerDownKind,
    seed: u64,
    cpi: Option<&CpiOptions>,
) -> Result<StudyResult, StudyError> {
    if outcome.population.is_empty() {
        // YieldConstraints::derive needs at least one surviving chip.
        return Err(StudyError::Degraded {
            missing: outcome.missing_chips() + outcome.population.quarantine().len(),
            requested: outcome.requested_chips,
        });
    }
    let constraints = YieldConstraints::derive(&outcome.population, constraint);
    let loss = match kind {
        PowerDownKind::Vertical => table2(&outcome.population, &constraints),
        PowerDownKind::Horizontal => table3(&outcome.population, &constraints),
    };
    let missing = outcome.missing_chips();
    let shipped = loss.total_chips - loss.base.total();
    let interval = yield_interval(shipped, loss.total_chips, missing);
    let mean_cpi = cpi.and_then(|c| {
        let opts = PerfOptions {
            warmup_uops: c.warmup_uops,
            measure_uops: c.measure_uops,
            trace_seed: seed,
        };
        let (cpis, _failures) =
            suite_cpis_isolated(&CacheConfig::l1d_paper(), &PipelineConfig::paper(), &opts);
        if cpis.is_empty() {
            None
        } else {
            Some(cpis.iter().map(|(_, c)| c).sum::<f64>() / cpis.len() as f64)
        }
    });
    Ok(StudyResult {
        evaluated_chips: loss.total_chips + loss.quarantined,
        missing_chips: missing,
        degraded_shards: outcome.degraded.len(),
        yield_interval: interval,
        loss,
        mean_cpi,
    })
}

/// Runs one grid cell end to end: population (checkpointed, supervised),
/// classification, loss table, interval, optional CPI.
fn run_one_study(
    grid: &SweepGrid,
    config: &SweepConfig,
    spec: &StudySpec,
    ckpt: &Path,
) -> Result<StudyResult, StudyError> {
    let mut pop_cfg = PopulationConfig::paper(spec.seed);
    pop_cfg.chips = grid.chips;
    pop_cfg.faults = config.faults;
    let outcome = run_checkpointed_workers(&pop_cfg, &config.exec, ckpt, config.checkpoint_every)?;
    study_result_from_outcome(
        &outcome,
        spec.constraint,
        spec.kind,
        spec.seed,
        config.cpi.as_ref(),
    )
}

/// Runs (or resumes) a sweep, journalling progress at `journal_path`.
///
/// An existing journal is honoured: its grid fingerprint must match
/// (else [`StudyError::Mismatch`]), studies with terminal records are
/// restored without recomputation, and the rest run — the interrupted
/// one resuming from its own shard-granular checkpoint.
///
/// # Errors
///
/// Returns [`StudyError::Io`] when the journal cannot be written (the
/// sweep cannot promise crash safety without it), [`StudyError::Corrupt`]
/// for a damaged journal, [`StudyError::Mismatch`] when the journal
/// belongs to a different grid. Per-study failures do **not** fail the
/// sweep; they surface as [`StudyStatus::Failed`] entries.
pub fn run_sweep(
    grid: &SweepGrid,
    config: &SweepConfig,
    journal_path: &Path,
) -> Result<SweepOutcome, StudyError> {
    let specs = grid.studies();
    if grid.chips == 0 || specs.is_empty() {
        return Err(StudyError::Mismatch(
            "empty sweep grid: chips, seeds, constraints and kinds must all be nonempty".into(),
        ));
    }
    let fingerprint = grid.fingerprint(config);

    let parsed = match crc_log::read(journal_path)? {
        Some(bytes) => parse_journal(bytes)?,
        None => None,
    };
    let mut statuses: Vec<StudyStatus> = vec![StudyStatus::Pending; specs.len()];
    let (resumed, recovered) = match &parsed {
        None => (false, 0),
        Some(journal) => {
            journal.check_grid(fingerprint, specs.len())?;
            for (index, status) in &journal.terminal {
                statuses[*index] = status.clone();
            }
            (true, journal.terminal.len())
        }
    };
    let journal = Mutex::new(match &parsed {
        None => Appender::create(
            journal_path,
            IoSite::SweepJournal,
            &[MAGIC, &format!("G {fingerprint:016x} {}", specs.len())],
        )?,
        Some(journal) => Appender::resume(
            journal_path,
            IoSite::SweepJournal,
            journal.torn_tail.then_some(journal.valid_len),
        )?,
    });
    if resumed {
        yac_obs::trace_instant(
            yac_obs::TraceEventKind::SweepResumed,
            yac_obs::TraceCtx::default(),
        );
        // Recovered studies no longer need their checkpoints.
        for (index, status) in specs.iter().zip(&statuses) {
            if !matches!(status, StudyStatus::Pending) {
                let _ = std::fs::remove_file(study_checkpoint(journal_path, index.index));
            }
        }
    }

    let pending: Vec<usize> = statuses
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, StudyStatus::Pending))
        .map(|(i, _)| i)
        .collect();
    let statuses = Mutex::new(statuses);
    let first_error: Mutex<Option<StudyError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let slots = config.concurrent_studies.clamp(1, pending.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..slots {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                if config
                    .cancel
                    .as_ref()
                    .is_some_and(|c| c.load(Ordering::Relaxed))
                {
                    cancelled.store(true, Ordering::Relaxed);
                    return;
                }
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = pending.get(slot) else {
                    return;
                };
                let spec = specs[index];
                let fail_sweep = |e: StudyError| {
                    let mut first = first_error.lock().unwrap_or_else(|p| p.into_inner());
                    first.get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                };
                {
                    let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
                    if let Err(e) = j.append(&format!("R {index}")) {
                        fail_sweep(e);
                        return;
                    }
                }
                let ctx = yac_obs::TraceCtx::study(index as u32);
                yac_obs::trace_instant(yac_obs::TraceEventKind::StudyStarted, ctx);
                let _span = yac_obs::phase_ctx(yac_obs::Phase::StudyExec, ctx);
                let ckpt = study_checkpoint(journal_path, index);
                let ran = std::panic::catch_unwind(|| run_one_study(grid, config, &spec, &ckpt));
                let status = match ran {
                    Ok(Ok(result)) if result.missing_chips == 0 => {
                        yac_obs::inc(yac_obs::Metric::StudiesCompleted);
                        yac_obs::trace_instant(yac_obs::TraceEventKind::StudyCompleted, ctx);
                        StudyStatus::Completed(result)
                    }
                    Ok(Ok(result)) => {
                        yac_obs::inc(yac_obs::Metric::StudiesDegraded);
                        yac_obs::trace_instant(yac_obs::TraceEventKind::StudyDegraded, ctx);
                        StudyStatus::Degraded(result)
                    }
                    Ok(Err(e)) => {
                        yac_obs::inc(yac_obs::Metric::StudiesFailed);
                        yac_obs::trace_instant(yac_obs::TraceEventKind::StudyDegraded, ctx);
                        StudyStatus::Failed {
                            error: e.to_string(),
                        }
                    }
                    Err(panic) => {
                        yac_obs::inc(yac_obs::Metric::StudiesFailed);
                        yac_obs::trace_instant(yac_obs::TraceEventKind::StudyDegraded, ctx);
                        StudyStatus::Failed {
                            error: format!("study panicked: {}", panic_message(&*panic)),
                        }
                    }
                };
                let record = match &status {
                    StudyStatus::Completed(r) => format!("S {index} {}", render_result(r)),
                    StudyStatus::Degraded(r) => format!("D {index} {}", render_result(r)),
                    StudyStatus::Failed { error } => {
                        format!("F {index} {}", error.replace('\n', " "))
                    }
                    StudyStatus::Pending => unreachable!("terminal statuses only"),
                };
                {
                    let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
                    if let Err(e) = j.append(&record) {
                        fail_sweep(e);
                        return;
                    }
                }
                // The terminal record is durable; the study's checkpoint
                // is now redundant.
                let _ = std::fs::remove_file(&ckpt);
                statuses.lock().unwrap_or_else(|p| p.into_inner())[index] = status;
            });
        }
    });

    if let Some(e) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    Ok(SweepOutcome {
        studies: specs
            .into_iter()
            .zip(statuses.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect(),
        resumed,
        recovered,
        cancelled: cancelled.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc_log::crc_line;

    #[test]
    fn grid_enumerates_seed_major_with_stable_indices() {
        let grid = SweepGrid {
            chips: 8,
            seeds: vec![1, 2],
            constraints: vec![ConstraintSpec::NOMINAL, ConstraintSpec::STRICT],
            kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        };
        let studies = grid.studies();
        assert_eq!(studies.len(), 8);
        for (i, s) in studies.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        assert_eq!(studies[0].seed, 1);
        assert_eq!(studies[0].constraint.name, "nominal");
        assert_eq!(studies[1].kind, PowerDownKind::Horizontal);
        assert_eq!(studies[4].seed, 2);
    }

    #[test]
    fn fingerprint_tracks_results_shaping_inputs_only() {
        let grid = SweepGrid {
            chips: 8,
            seeds: vec![1],
            constraints: vec![ConstraintSpec::NOMINAL],
            kinds: vec![PowerDownKind::Vertical],
        };
        let mut config = SweepConfig::default();
        let base = grid.fingerprint(&config);

        // Executor tuning must not disturb the fingerprint: a sweep may
        // be resumed under a different worker count.
        config.exec.workers = 7;
        config.concurrent_studies = 3;
        config.checkpoint_every = 99;
        assert_eq!(grid.fingerprint(&config), base);

        // Result-shaping knobs must.
        config.cpi = Some(CpiOptions::default());
        assert_ne!(grid.fingerprint(&config), base);
        config.cpi = None;
        config.faults = Some(FaultPlan::new(0.1, 3).unwrap());
        assert_ne!(grid.fingerprint(&config), base);
        config.faults = None;

        let mut other = grid.clone();
        other.seeds = vec![2];
        assert_ne!(other.fingerprint(&config), base);
        let mut other = grid.clone();
        other.chips = 9;
        assert_ne!(other.fingerprint(&config), base);
        let mut other = grid.clone();
        other.constraints = vec![ConstraintSpec::RELAXED];
        assert_ne!(other.fingerprint(&config), base);
        let mut other = grid.clone();
        other.kinds = vec![PowerDownKind::Horizontal];
        assert_ne!(other.fingerprint(&config), base);
    }

    fn sample_result(cpi: Option<f64>) -> StudyResult {
        StudyResult {
            loss: LossTable {
                base_variant: CacheVariant::Horizontal,
                spec_name: "strict".into(),
                total_chips: 100,
                base: LossBreakdown {
                    leakage: 7,
                    delay: vec![3, 2, 0, 1],
                },
                schemes: vec![
                    SchemeLosses {
                        name: "H-YAPD".into(),
                        losses: LossBreakdown {
                            leakage: 7,
                            delay: vec![0, 0, 0, 1],
                        },
                    },
                    SchemeLosses {
                        name: "VACA".into(),
                        losses: LossBreakdown {
                            leakage: 7,
                            delay: vec![1, 0, 0, 1],
                        },
                    },
                ],
                quarantined: 3,
            },
            yield_interval: YieldInterval {
                estimate: 0.87,
                lo: 0.81234567890123,
                hi: 0.93,
            },
            evaluated_chips: 103,
            missing_chips: 5,
            degraded_shards: 1,
            mean_cpi: cpi,
        }
    }

    #[test]
    fn study_records_round_trip_bit_exactly() {
        for r in [sample_result(None), sample_result(Some(1.2345678901234))] {
            let text = render_result(&r);
            let parsed = parse_result(&text, 3).unwrap();
            assert_eq!(parsed, r);
            assert_eq!(
                parsed.yield_interval.lo.to_bits(),
                r.yield_interval.lo.to_bits()
            );
            // Canonical: re-render matches byte for byte.
            assert_eq!(render_result(&parsed), text);
        }
    }

    fn journal_text(records: &[&str]) -> String {
        let mut out = String::new();
        out.push_str(&crc_line(MAGIC));
        out.push_str(&crc_line("G 00000000000000aa 4"));
        for r in records {
            out.push_str(&crc_line(r));
        }
        out
    }

    #[test]
    fn parse_journal_restores_last_terminal_record_per_study() {
        let ok = render_result(&sample_result(None));
        let text = journal_text(&[
            "R 0",
            &format!("S 0 {ok}"),
            "R 1",
            "F 1 study panicked: injected",
            "R 1",
            &format!("D 1 {ok}"),
            "R 2",
        ]);
        let parsed = parse_journal(&text).unwrap().unwrap();
        assert_eq!(parsed.grid_hash, 0xaa);
        assert_eq!(parsed.studies, 4);
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.terminal.len(), 2);
        assert!(matches!(parsed.terminal[0].1, StudyStatus::Completed(_)));
        // The retry's D record supersedes the earlier F.
        assert!(matches!(parsed.terminal[1].1, StudyStatus::Degraded(_)));
    }

    #[test]
    fn torn_final_line_is_dropped_but_mid_file_rot_is_fatal() {
        let ok = render_result(&sample_result(None));
        let mut text = journal_text(&[&format!("S 0 {ok}")]);
        // Crash mid-append: half a record, no newline.
        text.push_str("S 1 total 9");
        let parsed = parse_journal(&text).unwrap().unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.terminal.len(), 1);

        // A complete final line with a bad CRC is also a torn tail.
        let mut torn_crc = journal_text(&[&format!("S 0 {ok}")]);
        torn_crc.push_str("S 1 total 9 CRC 12345678\n");
        let parsed = parse_journal(&torn_crc).unwrap().unwrap();
        assert!(parsed.torn_tail);

        // The same damage mid-file is bit rot, not a crash: refuse.
        let mut rotted = journal_text(&[]);
        rotted.push_str("S 0 total 9 CRC 12345678\n");
        rotted.push_str(&crc_line(&format!("S 1 {ok}")));
        assert!(matches!(
            parse_journal(&rotted),
            Err(StudyError::Corrupt { line: 3, .. })
        ));
    }

    #[test]
    fn headerless_or_half_created_journals_read_as_fresh() {
        assert!(parse_journal("").unwrap().is_none());
        assert!(parse_journal("YAC-SW").unwrap().is_none());
        // Magic complete, grid line torn.
        let mut text = crc_line(MAGIC);
        text.push_str("G 00000000");
        assert!(parse_journal(&text).unwrap().is_none());
        // But a wrong magic is corruption, not freshness.
        assert!(parse_journal(crc_line("YAC-CHECKPOINT v2")).is_err());
    }

    #[test]
    fn out_of_range_indices_and_unknown_tags_are_corrupt() {
        assert!(matches!(
            parse_journal(journal_text(&["S 9 total 1"])),
            Err(StudyError::Corrupt { .. })
        ));
        assert!(matches!(
            parse_journal(journal_text(&["X 0 what"])),
            Err(StudyError::Corrupt { .. })
        ));
    }

    #[test]
    fn journal_bytes_match_the_pinned_yac_sweep_v1_text() {
        let dir = std::env::temp_dir().join("yac-sweep-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.sweep");
        let ok = render_result(&sample_result(Some(1.2345678901234)));
        let mut journal = Appender::create(
            &path,
            IoSite::SweepJournal,
            &[MAGIC, "G 00000000000000aa 4"],
        )
        .unwrap();
        for record in [
            "R 0",
            &format!("S 0 {ok}"),
            "R 1",
            "F 1 study panicked: injected",
        ] {
            journal.append(record).unwrap();
        }
        drop(journal);
        let golden = "YAC-SWEEP v1 CRC e2544178\n\
            G 00000000000000aa 4 CRC aa217e8a\n\
            R 0 CRC 232437c2\n\
            S 0 total 100 quarantined 3 variant H spec strict base 7 4 3 2 0 1 schemes 2 \
            H-YAPD 7 4 0 0 0 1 VACA 7 4 1 0 0 1 interval 3febd70a3d70a3d7 3fe9febc5d7dafb8 \
            3fedc28f5c28f5c3 evaluated 103 missing 5 shards 1 cpi 3ff3c0ca428c58fc CRC dcba97ac\n\
            R 1 CRC 54230754\n\
            F 1 study panicked: injected CRC 7f45511c\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), golden);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_final_line_flipped_to_invalid_utf8_resumes_as_a_torn_tail() {
        let grid = SweepGrid {
            chips: 16,
            seeds: vec![3],
            constraints: vec![ConstraintSpec::NOMINAL],
            kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        };
        let mut config = SweepConfig::default();
        config.exec.workers = 2;
        let dir = std::env::temp_dir().join("yac-sweep-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped-tail.sweep");
        let _ = std::fs::remove_file(&path);
        let clean = run_sweep(&grid, &config, &path).unwrap();

        // Flip bit 7 of a byte in the final (terminal) record.
        let mut bytes = std::fs::read(&path).unwrap();
        let last_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let at = (last_start + bytes.len()) / 2;
        bytes[at] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = run_sweep(&grid, &config, &path).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.recovered, 1, "the flipped record is dropped");
        assert_eq!(resumed.studies, clean.studies, "bit-identical to clean");
        let journal = parse_journal(std::fs::read(&path).unwrap())
            .unwrap()
            .unwrap();
        assert!(!journal.torn_tail, "the torn tail was cut before appending");
        assert_eq!(journal.terminal.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn name_tokens_stay_whitespace_free() {
        assert_eq!(name_token("H-YAPD"), "H-YAPD");
        assert_eq!(name_token("naive binning"), "naive_binning");
    }
}
