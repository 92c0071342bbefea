//! The content-addressed result cache.
//!
//! Values are the actual Rust results (scenario metrics, cell
//! outcomes, lint reports) — the cache lives inside one daemon
//! process, so nothing is serialized to store it. Correctness rests on
//! the keys (see [`crate::key`]): a key covers every input its result
//! consumed, so an edited plan *cannot* hit a stale entry — the edit
//! moves the key. Mask-based eviction ([`ResultCache::evict_tests`])
//! is an additional space reclamation that the `invalidate` protocol
//! command exposes; the lint-facts layer in [`crate::invalidate`]
//! computes which entries an edit can affect.

use std::collections::HashMap;
use std::sync::Mutex;

use tve_campaign::{CellOutcome, DiagnosisCheck};
use tve_soc::ScenarioMetrics;

/// One cached result.
#[derive(Debug, Clone)]
pub enum CachedValue {
    /// Full metrics of a fault-free scenario run (schedule jobs and
    /// campaign golden baselines share these entries).
    Metrics(Box<ScenarioMetrics>),
    /// The classified outcome of one (fault × schedule) cell.
    Cell(CellOutcome),
    /// A diagnosis check for one scan-cell fault.
    Diagnosis(Box<DiagnosisCheck>),
    /// A rendered lint report (JSON text) plus its error/warning counts.
    Lint {
        /// `reports_to_json`-compatible report text for one schedule.
        report: String,
        /// Error-severity diagnostics.
        errors: usize,
        /// Warning-severity diagnostics.
        warnings: usize,
    },
    /// A rendered certified static bounds report
    /// (`bounds_reports_to_json` text) — pure analysis, no simulation.
    Bounds {
        /// The report JSON text for the job's schedule set.
        report: String,
    },
}

impl CachedValue {
    /// Whether `fresh`, a re-execution of this value's computation,
    /// reproduces it bit for bit: both encode to the same snapshot
    /// record, which leaves host timings out.
    pub fn reproduces(&self, fresh: &CachedValue) -> bool {
        crate::persist::entry_payload(0, 0, self) == crate::persist::entry_payload(0, 0, fresh)
    }
}

struct Entry {
    value: CachedValue,
    /// Which plan tests the producing schedule ran (bit k = test k);
    /// 0 for entries no plan-test edit can affect.
    test_mask: u8,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries removed by mask eviction.
    pub evicted: u64,
    /// Cache hits re-executed by `--verify-cache` sampling.
    pub verified: u64,
    /// Verified hits whose re-execution did **not** reproduce the
    /// cached result (always a bug somewhere; the daemon reports it).
    pub verify_failures: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The daemon's shared cache: a keyed map plus counters, both behind
/// one mutex so stats snapshots are consistent.
#[derive(Default)]
pub struct ResultCache {
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<u64, Entry>,
    hits: u64,
    misses: u64,
    evicted: u64,
    verified: u64,
    verify_failures: u64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn lookup(&self, key: u64) -> Option<CachedValue> {
        let mut s = self.state.lock().expect("cache lock");
        match s.map.get(&key) {
            Some(entry) => {
                let value = entry.value.clone();
                s.hits += 1;
                Some(value)
            }
            None => {
                s.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching the hit/miss counters (used by
    /// impact prediction, which must not skew serving stats).
    pub fn peek(&self, key: u64) -> Option<CachedValue> {
        let s = self.state.lock().expect("cache lock");
        s.map.get(&key).map(|e| e.value.clone())
    }

    /// Stores `value` under `key`. `test_mask` names the plan tests the
    /// producing schedule ran (see [`crate::key::test_mask`]).
    pub fn insert(&self, key: u64, value: CachedValue, test_mask: u8) {
        let mut s = self.state.lock().expect("cache lock");
        s.map.insert(key, Entry { value, test_mask });
    }

    /// Evicts every entry whose test mask intersects `touched_mask`;
    /// returns how many were removed. Entries with a disjoint mask are
    /// untouched — an unrelated edit never evicts.
    pub fn evict_tests(&self, touched_mask: u8) -> u64 {
        let mut s = self.state.lock().expect("cache lock");
        let before = s.map.len();
        s.map.retain(|_, e| e.test_mask & touched_mask == 0);
        let removed = (before - s.map.len()) as u64;
        s.evicted += removed;
        removed
    }

    /// Every entry as `(key, test_mask, value)`, sorted by key — the
    /// snapshot [`crate::persist`](crate::save_cache) writes to disk.
    /// Counters are not exported: a reloaded cache starts its stats
    /// fresh, only the *results* survive the restart.
    pub fn export(&self) -> Vec<(u64, u8, CachedValue)> {
        let s = self.state.lock().expect("cache lock");
        let mut entries: Vec<(u64, u8, CachedValue)> = s
            .map
            .iter()
            .map(|(&key, e)| (key, e.test_mask, e.value.clone()))
            .collect();
        entries.sort_by_key(|&(key, _, _)| key);
        entries
    }

    /// Records one sampled hit re-executed by `--verify-cache`, and
    /// whether the fresh result reproduced it.
    pub fn record_verified(&self, reproduced: bool) {
        let mut s = self.state.lock().expect("cache lock");
        s.verified += 1;
        s.verify_failures += u64::from(!reproduced);
    }

    /// A consistent counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let s = self.state.lock().expect("cache lock");
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            entries: s.map.len() as u64,
            evicted: s.evicted,
            verified: s.verified,
            verify_failures: s.verify_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> CachedValue {
        CachedValue::Cell(CellOutcome::Escape)
    }

    #[test]
    fn lookup_counts_and_returns() {
        let cache = ResultCache::new();
        assert!(cache.lookup(1).is_none());
        cache.insert(1, outcome(), 0b11);
        assert!(matches!(
            cache.lookup(1),
            Some(CachedValue::Cell(CellOutcome::Escape))
        ));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_respects_masks() {
        let cache = ResultCache::new();
        cache.insert(1, outcome(), 0b000_0010); // runs test 1
        cache.insert(2, outcome(), 0b010_0001); // runs tests 0, 5
        cache.insert(3, outcome(), 0); // maskless (diagnosis)
        assert_eq!(cache.evict_tests(0b000_0010), 1, "only the test-1 user");
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.evict_tests(0b100_0000), 0, "test 6 touched nothing");
        assert_eq!(cache.evict_tests(0x7f), 1, "maskless entries survive");
        assert_eq!(cache.stats().evicted, 2);
    }

    #[test]
    fn peek_does_not_count() {
        let cache = ResultCache::new();
        cache.insert(7, outcome(), 0);
        assert!(cache.peek(7).is_some());
        assert!(cache.peek(8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
