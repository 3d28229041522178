//! Exhaustive model-checking harness for the fleet crate's lock-free core.
//!
//! Runs only with `--features interleave` (see `crates/interleave` and the
//! sibling harness in `crates/telemetry/tests/interleave_harness.rs`).
//!
//! Subject: the executor's CAS-claimed device cursor
//! ([`fleet::executor::claim_chunk`]) — concurrent workers must tile the
//! device range exactly (disjoint, gap-free, in-bounds) in every
//! interleaving, even with all-Relaxed orderings and spurious weak-CAS
//! failures injected. That the checker catches a torn Release/Acquire
//! publication at all is proven by its own suite
//! (`crates/interleave/tests/model.rs::relaxed_publication_is_caught_and_replayable`).

#![cfg(feature = "interleave")]

use std::sync::Arc;

use fleet::executor::claim_chunk;
use fleet::sync::atomic::AtomicU64;

/// Devices in the simulated fleet; small enough to explore exhaustively,
/// large enough that two workers interleave mid-range.
const DEVICES: u64 = 5;
/// Chunk size; deliberately not a divisor of [`DEVICES`] so the final
/// chunk is short.
const CHUNK: u64 = 2;

/// Two workers race `claim_chunk` over one cursor: their claims must tile
/// `0..DEVICES` exactly — no overlap, no gap, no out-of-bounds range — in
/// every interleaving, including those with spurious `compare_exchange_weak`
/// failures injected by the checker.
#[test]
fn executor_cursor_claims_tile_the_device_range_exactly() {
    let stats = interleave::explore(&interleave::Options::default(), || {
        let cursor = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cursor = Arc::clone(&cursor);
                interleave::thread::spawn(move || {
                    let mut claimed = Vec::new();
                    while let Some(range) = claim_chunk(&cursor, DEVICES, CHUNK) {
                        assert!(range.start < range.end, "empty claim {range:?}");
                        assert!(range.end <= DEVICES, "out-of-bounds claim {range:?}");
                        claimed.push(range);
                    }
                    claimed
                })
            })
            .collect();
        let mut all: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker must not panic"))
            .collect();
        all.sort_by_key(|r| r.start);
        // Exact tiling: starts at 0, each claim begins where the previous
        // ended, ends at DEVICES. Any overlap or gap breaks the chain.
        let mut next = 0;
        for range in &all {
            assert_eq!(range.start, next, "gap or overlap at {range:?} in {all:?}");
            next = range.end;
        }
        assert_eq!(next, DEVICES, "devices left unclaimed: {all:?}");
    })
    .unwrap_or_else(|failure| panic!("{failure}"));
    assert!(stats.complete, "schedule space not exhausted: {stats:?}");
    assert!(
        stats.executions > 1,
        "expected many interleavings: {stats:?}"
    );
}
