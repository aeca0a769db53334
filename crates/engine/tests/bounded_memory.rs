//! The engine's memory stays flat under sustained load.
//!
//! A counting global allocator tracks the process's live heap bytes
//! (every thread, since the engine's workers allocate too). After a
//! warm-up, another 100k requests through the engine, with `stats()`
//! read before and after, must leave live memory where it was: nothing
//! the engine keeps may grow with the number of requests served.

use mpise_csidh::PublicKey;
use mpise_engine::{Engine, EngineConfig, Outcome, Request, Ticket};
use mpise_fp::FpFull;
use mpise_mpi::U512;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct LiveBytes;

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping is one atomic add that never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const IN_FLIGHT: usize = 64;

/// Validates `n` malformed keys with `IN_FLIGHT` requests pipelined,
/// asserting every verdict.
fn reject(engine: &Engine, n: u64) {
    // A = 2 is singular: rejected before any field arithmetic.
    let key = PublicKey {
        a: U512::from_u64(2),
    };
    let mut pending: VecDeque<Ticket> = VecDeque::with_capacity(IN_FLIGHT);
    let settle = |ticket: Ticket| {
        assert_eq!(ticket.wait(), Ok(Outcome::Validated(false)));
    };
    for seed in 0..n {
        if pending.len() == IN_FLIGHT {
            settle(pending.pop_front().expect("full window"));
        }
        let request = Request::ValidatePublicKey { key };
        pending.push_back(engine.submit(seed, request, None).expect("engine running"));
    }
    pending.into_iter().for_each(settle);
}

#[test]
fn live_memory_is_flat_over_100k_requests() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    reject(&engine, 20_000);
    assert_eq!(engine.stats().validate, 20_000);
    let before = LIVE_BYTES.load(Ordering::Relaxed);

    reject(&engine, 100_000);
    assert_eq!(engine.stats().validate, 120_000);
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        grown < 64 * 1024,
        "live heap grew by {grown} bytes over 100k requests"
    );
    engine.shutdown();
}
