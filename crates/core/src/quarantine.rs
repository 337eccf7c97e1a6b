//! The quarantine ledger: where failed chips go instead of crashing the
//! study.
//!
//! Population generation, circuit evaluation and loss-table analysis all
//! run over thousands of independent chips; one bad die (a fault-injected
//! NaN, a panicking evaluator, an out-of-range classification) must not
//! abort the other 1999. Every layer that isolates such a failure records
//! a [`QuarantineEntry`] here, and reports carry the ledger forward so a
//! study's output always accounts for every requested chip:
//! `shipped + lost + quarantined == chips`.

use std::fmt;
use yac_variation::SampleFailure;

/// One quarantined chip: enough to reproduce the failure in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The chip's index in its population's Monte Carlo stream.
    pub index: u64,
    /// The study seed the stream was rooted at.
    pub seed: u64,
    /// Human-readable reason, from the typed error that quarantined it.
    pub error: String,
}

impl fmt::Display for QuarantineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chip {} (seed {}): {}",
            self.index, self.seed, self.error
        )
    }
}

/// An ordered record of every chip a study had to give up on.
///
/// Entries are kept sorted by chip index, so two ledgers built from the
/// same population — regardless of thread count or insertion order —
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuarantineLedger {
    entries: Vec<QuarantineEntry>,
}

impl QuarantineLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a ledger from the failures of a checked Monte Carlo run.
    #[must_use]
    pub fn from_failures(failures: &[SampleFailure]) -> Self {
        let mut ledger = Self::new();
        for f in failures {
            ledger.record(f.index, f.seed, f.error.to_string());
        }
        ledger
    }

    /// Records a failed chip, keeping the ledger sorted by index, and
    /// counts it in the `ChipsQuarantined` metric.
    pub fn record(&mut self, index: u64, seed: u64, error: String) {
        yac_obs::inc(yac_obs::Metric::ChipsQuarantined);
        self.record_unobserved(index, seed, error);
    }

    /// [`QuarantineLedger::record`] without the metric increment — for
    /// entries that are not (or not yet) part of an accepted study:
    /// running shards the supervisor may yet cancel,
    /// and checkpoint parsing, whose entries were already counted when
    /// first recorded. Whoever accepts such a ledger is responsible for
    /// counting it (the executor does, once per accepted shard).
    pub(crate) fn record_unobserved(&mut self, index: u64, seed: u64, error: String) {
        let entry = QuarantineEntry { index, seed, error };
        let at = self.entries.partition_point(|e| e.index <= entry.index);
        self.entries.insert(at, entry);
    }

    /// All quarantined chips, ascending by index.
    #[must_use]
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// The quarantined chip indices, ascending.
    #[must_use]
    pub fn indices(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.index).collect()
    }

    /// Whether `index` is quarantined.
    #[must_use]
    pub fn contains(&self, index: u64) -> bool {
        self.entries
            .binary_search_by_key(&index, |e| e.index)
            .is_ok()
    }

    /// Number of quarantined chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another ledger into this one.
    ///
    /// A pure splice of the two sorted entry lists: the `ChipsQuarantined`
    /// metric is *not* touched, because each entry was either already
    /// counted when recorded or is counted by whoever accepted the
    /// absorbed ledger — re-counting here would tally merged chips twice.
    pub fn absorb(&mut self, other: QuarantineLedger) {
        if self.entries.is_empty() {
            self.entries = other.entries;
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut ours = std::mem::take(&mut self.entries).into_iter().peekable();
        let mut theirs = other.entries.into_iter().peekable();
        while let (Some(a), Some(b)) = (ours.peek(), theirs.peek()) {
            // `<=` keeps existing entries ahead of absorbed ones on equal
            // indices, matching what repeated `record` calls produced.
            if a.index <= b.index {
                merged.push(ours.next().expect("peeked"));
            } else {
                merged.push(theirs.next().expect("peeked"));
            }
        }
        merged.extend(ours);
        merged.extend(theirs);
        self.entries = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_stays_sorted_regardless_of_insertion_order() {
        let mut a = QuarantineLedger::new();
        a.record(5, 1, "x".into());
        a.record(2, 1, "y".into());
        a.record(9, 1, "z".into());
        let mut b = QuarantineLedger::new();
        b.record(9, 1, "z".into());
        b.record(5, 1, "x".into());
        b.record(2, 1, "y".into());
        assert_eq!(a, b);
        assert_eq!(a.indices(), vec![2, 5, 9]);
    }

    #[test]
    fn contains_and_counts() {
        let mut l = QuarantineLedger::new();
        assert!(l.is_empty());
        l.record(7, 3, "bad".into());
        assert!(l.contains(7));
        assert!(!l.contains(8));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn absorb_merges_sorted() {
        let mut a = QuarantineLedger::new();
        a.record(1, 0, "a".into());
        let mut b = QuarantineLedger::new();
        b.record(0, 0, "b".into());
        b.record(2, 0, "c".into());
        a.absorb(b);
        assert_eq!(a.indices(), vec![0, 1, 2]);
    }

    #[test]
    fn absorb_keeps_existing_entries_first_on_equal_indices() {
        let mut a = QuarantineLedger::new();
        a.record(1, 0, "ours".into());
        a.record(2, 0, "mid".into());
        let mut b = QuarantineLedger::new();
        b.record(1, 0, "theirs".into());
        b.record(3, 0, "tail".into());
        a.absorb(b);
        assert_eq!(a.indices(), vec![1, 1, 2, 3]);
        assert_eq!(a.entries()[0].error, "ours");
        assert_eq!(a.entries()[1].error, "theirs");
    }

    #[test]
    fn display_names_the_chip() {
        let e = QuarantineEntry {
            index: 4,
            seed: 9,
            error: "sampler panicked: boom".into(),
        };
        assert_eq!(e.to_string(), "chip 4 (seed 9): sampler panicked: boom");
    }
}
