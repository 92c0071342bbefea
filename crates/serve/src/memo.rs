//! The decode memo: `submit` frames the daemon has already decoded.
//!
//! The explore-then-validate loop sends the same jobs over and over, and
//! most of them are result-cache hits. Decoding such a hit — parsing the
//! JSON, building the workload's `SocConfig` and `SocTestPlan`, deriving
//! the content key — costs more than the cache lookup it leads to. The
//! memo keeps each decode under the exact frame text, so a frame seen
//! before goes straight to admission and the result cache.
//!
//! The memo holds decodes, never results: a result evicted from the
//! cache is simulated again, `--verify-cache` samples memoized hits like
//! any other, and a cached result cannot outlive `invalidate` through
//! it. A decode depends on the frame text alone, so serving the stored
//! one is serving what a fresh decode would build.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most frames the memo keeps; the oldest is evicted first. `serve_mix`
/// sends 146 distinct frames (48 each of schedule, bounds and lint, two
/// campaigns), so its whole working set fits.
pub(crate) const DECODE_MEMO_ENTRIES: usize = 256;

/// Longest frame the memo keeps, in bytes; longer frames (a lint job
/// carrying a large program, say) are decoded every time. Entries weigh
/// 2–15 KB. The heaviest decode a frame this short can ask for is about
/// 14 KB, a campaign over all four schedules with 64 faults per core: a
/// job names each schedule at most once, so a frame cannot multiply its
/// schedules. So a full memo holds at most ~4 MB.
pub(crate) const DECODE_MEMO_FRAME_BYTES: usize = 1 << 10;

/// Decodes of type `T` keyed by frame text, with oldest-first eviction.
pub(crate) struct DecodeMemo<T> {
    entries: Mutex<Entries<T>>,
    decoded: AtomicU64,
    reused: AtomicU64,
}

struct Entries<T> {
    by_frame: HashMap<Arc<str>, Arc<T>>,
    /// Insertion order, oldest first.
    order: VecDeque<Arc<str>>,
}

impl<T> DecodeMemo<T> {
    pub(crate) fn new() -> Self {
        DecodeMemo {
            entries: Mutex::new(Entries {
                by_frame: HashMap::new(),
                order: VecDeque::new(),
            }),
            decoded: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The stored decode of `frame`, counted as reused.
    pub(crate) fn get(&self, frame: &str) -> Option<Arc<T>> {
        let hit = self.lock().by_frame.get(frame).cloned();
        if hit.is_some() {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Counts a fresh decode of `frame` and keeps it unless the frame is
    /// too long. Another thread may have stored the same frame meanwhile;
    /// its decode is equal, and the first one stays.
    pub(crate) fn insert(&self, frame: &str, value: T) -> Arc<T> {
        self.decoded.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(value);
        if frame.len() > DECODE_MEMO_FRAME_BYTES {
            return value;
        }
        let mut entries = self.lock();
        if entries.by_frame.contains_key(frame) {
            return value;
        }
        if entries.order.len() == DECODE_MEMO_ENTRIES {
            if let Some(oldest) = entries.order.pop_front() {
                entries.by_frame.remove(&oldest);
            }
        }
        let frame: Arc<str> = frame.into();
        entries.order.push_back(Arc::clone(&frame));
        entries.by_frame.insert(frame, Arc::clone(&value));
        value
    }

    /// `(decoded, reused)` submits so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (
            self.decoded.load(Ordering::Relaxed),
            self.reused.load(Ordering::Relaxed),
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries<T>> {
        self.entries.lock().expect("decode memo lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: usize) -> String {
        format!("{{\"cmd\":\"submit\",\"job\":{{\"n\":{i}}}}}")
    }

    #[test]
    fn memo_stays_within_its_cap_and_evicts_the_oldest() {
        let memo = DecodeMemo::new();
        for i in 0..=DECODE_MEMO_ENTRIES {
            assert_eq!(*memo.insert(&frame(i), i), i);
            let entries = memo.lock();
            assert!(entries.by_frame.len() <= DECODE_MEMO_ENTRIES);
            assert_eq!(entries.by_frame.len(), entries.order.len());
        }
        assert_eq!(memo.lock().by_frame.len(), DECODE_MEMO_ENTRIES);
        assert!(memo.get(&frame(0)).is_none(), "the oldest frame is evicted");
        assert_eq!(memo.get(&frame(1)).as_deref(), Some(&1));
        assert_eq!(
            memo.get(&frame(DECODE_MEMO_ENTRIES)).as_deref(),
            Some(&DECODE_MEMO_ENTRIES)
        );
        assert_eq!(memo.counts(), (DECODE_MEMO_ENTRIES as u64 + 1, 2));
    }

    #[test]
    fn long_frames_and_repeats_are_not_stored_twice() {
        let memo = DecodeMemo::new();
        let long = "x".repeat(DECODE_MEMO_FRAME_BYTES + 1);
        assert_eq!(*memo.insert(&long, 1), 1);
        assert!(
            memo.get(&long).is_none(),
            "a long frame is decoded every time"
        );
        assert_eq!(*memo.insert("a", 2), 2);
        assert_eq!(*memo.insert("a", 3), 3);
        assert_eq!(memo.get("a").as_deref(), Some(&2), "the first decode stays");
        assert_eq!(memo.lock().order.len(), 1);
        assert_eq!(memo.counts(), (3, 1));
    }
}
