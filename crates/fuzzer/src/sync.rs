//! The corpus exchange: [`SyncHub`] and its contract.
//!
//! One in-memory, single-mutex store serves every fleet. The thread fleet
//! ([`crate::parallel::run_supervised`]) shares it directly; the process
//! fabric ([`crate::fabric::run_fleet`]) holds it in the parent, and one
//! service thread per worker translates protocol frames into hub calls.
//! Instances touch it only at sync boundaries, every few thousand
//! executions, so a single lock is not a bottleneck (the `fig9_fleet`
//! measurement in EXPERIMENTS.md found lock striping bought nothing).
//!
//! ## The contract
//!
//! * **Content-idempotent publish**: byte-identical inputs are stored
//!   once, whoever publishes them, whenever. Supervised restarts depend
//!   on this — a resumed worker may republish finds its dead predecessor
//!   already shared.
//! * **Publisher-filtered fetch**: `fetch_since(cursor, reader)` returns
//!   entries the reader did not publish itself, in publish order, and
//!   advances the cursor past everything (own entries are skipped, not
//!   deferred).
//! * **Typed cursor errors**: a cursor beyond the published count returns
//!   [`CursorError`] instead of clamping. A remote worker echoing back a
//!   corrupt cursor must get a hard error it can surface (the fabric's
//!   `FRAME_CURSOR_FAULT`), not a silent clamp that re-delivers or skips
//!   entries. Cursors are `u64` so the contract is identical across
//!   process boundaries and pointer widths.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A sync cursor pointed beyond the published corpus — broken cursor
/// accounting in the caller or a corrupt cursor echoed over a transport.
///
/// The store did not fetch anything and did not move the cursor; the
/// caller decides whether to reset, resync from zero, or kill the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorError {
    /// The cursor the caller presented.
    pub cursor: u64,
    /// How many entries the store has actually published.
    pub published: u64,
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sync cursor {} beyond published corpus ({} entries)",
            self.cursor, self.published
        )
    }
}

impl std::error::Error for CursorError {}

/// One published corpus entry: the payload plus who found it.
#[derive(Debug, Clone)]
struct SyncEntry {
    publisher: usize,
    input: Arc<[u8]>,
}

/// The hub's shared state, guarded by one mutex: the append-only entry
/// list plus the content set that makes `publish` idempotent.
#[derive(Debug, Default)]
struct HubState {
    entries: Vec<SyncEntry>,
    seen: HashSet<Arc<[u8]>>,
}

/// The shared in-memory corpus exchange.
///
/// Append-only list of discovered inputs; instances fetch from their own
/// cursor so every instance eventually sees every *other* instance's
/// published find exactly once.
///
/// Publishing is **content-idempotent**: an input that is byte-identical
/// to one already in the hub is silently dropped, whoever publishes it.
/// That makes a supervised restart safe — an instance resumed from a
/// checkpoint may rediscover and republish finds its dead predecessor
/// already shared, and the fleet must not re-import them as new entries.
/// (The dedup set stores `Arc` clones of the published payloads, so it
/// costs pointers, not copies.)
#[derive(Debug, Default)]
pub struct SyncHub {
    corpus: Mutex<HubState>,
}

impl SyncHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        SyncHub::default()
    }

    /// Publishes newly found inputs on behalf of instance `publisher`.
    /// Inputs the hub has already seen (from any publisher) are dropped.
    pub fn publish(&self, publisher: usize, inputs: Vec<Vec<u8>>) {
        if inputs.is_empty() {
            return;
        }
        let mut state = self.corpus.lock().expect("corpus mutex poisoned");
        for input in inputs {
            let input: Arc<[u8]> = Arc::from(input);
            if state.seen.insert(Arc::clone(&input)) {
                state.entries.push(SyncEntry { publisher, input });
            }
        }
    }

    /// Fetches inputs published since `cursor` by instances other than
    /// `reader`, advancing the cursor past everything seen (own entries
    /// included — they are skipped, not deferred).
    ///
    /// # Errors
    ///
    /// [`CursorError`] if `cursor` is beyond the published count (broken
    /// cursor accounting in the caller); the cursor is left untouched.
    pub fn fetch_since(
        &self,
        cursor: &mut u64,
        reader: usize,
    ) -> Result<Vec<Arc<[u8]>>, CursorError> {
        self.fetch_since_while(cursor, reader, |_| true)
    }

    /// [`SyncHub::fetch_since`], stopping before the first fetched entry
    /// that `admit` refuses: the cursor then points at that entry, so the
    /// next fetch resumes there. A transport with a size cap bounds its
    /// replies this way.
    ///
    /// # Errors
    ///
    /// Same contract as [`SyncHub::fetch_since`].
    pub fn fetch_since_while(
        &self,
        cursor: &mut u64,
        reader: usize,
        mut admit: impl FnMut(&[u8]) -> bool,
    ) -> Result<Vec<Arc<[u8]>>, CursorError> {
        let state = self.corpus.lock().expect("corpus mutex poisoned");
        let published = state.entries.len() as u64;
        if *cursor > published {
            return Err(CursorError {
                cursor: *cursor,
                published,
            });
        }
        let mut fresh = Vec::new();
        for (at, entry) in (*cursor..).zip(&state.entries[*cursor as usize..]) {
            if entry.publisher == reader {
                continue;
            }
            if !admit(&entry.input) {
                *cursor = at;
                return Ok(fresh);
            }
            fresh.push(Arc::clone(&entry.input));
        }
        *cursor = published;
        Ok(fresh)
    }

    /// Total distinct inputs ever published.
    pub fn published_count(&self) -> u64 {
        self.corpus
            .lock()
            .expect("corpus mutex poisoned")
            .entries
            .len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The remaining contract tests (idempotent publish, cursor errors and
    // recovery, restart replay, concurrency, payload sharing) run from the
    // root `tests/parallel_sync.rs`.

    #[test]
    fn publish_fetch_roundtrip() {
        let hub = SyncHub::new();
        let mut cursor = 0u64;
        assert!(hub.fetch_since(&mut cursor, 1).unwrap().is_empty());
        hub.publish(0, vec![vec![1], vec![2]]);
        let fetched = hub.fetch_since(&mut cursor, 1).unwrap();
        assert_eq!(fetched.len(), 2);
        assert_eq!(&*fetched[0], &[1][..], "order");
        assert_eq!(&*fetched[1], &[2][..], "order");
        assert!(hub.fetch_since(&mut cursor, 1).unwrap().is_empty());
        hub.publish(0, vec![vec![3]]);
        let fetched = hub.fetch_since(&mut cursor, 1).unwrap();
        assert_eq!(fetched.len(), 1);
        assert_eq!(hub.published_count(), 3);
        assert_eq!(cursor, 3);
    }

    #[test]
    fn refused_entry_is_left_for_the_next_fetch() {
        let hub = SyncHub::new();
        hub.publish(0, vec![vec![1]]);
        hub.publish(1, vec![vec![2]]);
        hub.publish(0, vec![vec![3], vec![4]]);
        let mut cursor = 0u64;
        // Refuse the second foreign entry: the cursor stops on it.
        let mut admitted = 0;
        let fetched = hub
            .fetch_since_while(&mut cursor, 1, |_| {
                admitted += 1;
                admitted < 2
            })
            .unwrap();
        assert_eq!(fetched.len(), 1);
        assert_eq!(&*fetched[0], &[1][..]);
        assert_eq!(cursor, 2, "stops on the refused entry, past own ones");
        let rest = hub.fetch_since(&mut cursor, 1).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(&*rest[0], &[3][..]);
        assert_eq!(cursor, 4);
    }

    #[test]
    fn own_publications_are_skipped_not_deferred() {
        let hub = SyncHub::new();
        hub.publish(0, vec![vec![10]]);
        hub.publish(1, vec![vec![11]]);
        hub.publish(0, vec![vec![12]]);
        let mut cursor = 0u64;
        let fetched = hub.fetch_since(&mut cursor, 0).unwrap();
        assert_eq!(fetched.len(), 1);
        assert_eq!(&*fetched[0], &[11][..]);
        assert!(hub.fetch_since(&mut cursor, 0).unwrap().is_empty());
        let mut other = 0u64;
        assert_eq!(hub.fetch_since(&mut other, 2).unwrap().len(), 3);
    }
}
