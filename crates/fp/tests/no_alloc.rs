//! The host field arithmetic never touches the heap.
//!
//! A counting global allocator records every allocation in a
//! per-thread counter, so tests running in parallel on other threads
//! cannot disturb a measurement. Each test warms up the process-wide
//! parameters first, then asserts that a long run of field operations
//! made no allocation at all.

use mpise_fp::params::Csidh512;
use mpise_fp::{Fp, FpFull, FpRed};
use mpise_mpi::mul::{mul_ps, square_ps};
use mpise_mpi::{Reduced, U512};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by this thread while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn residue(hex: &str) -> U512 {
    U512::from_hex(hex).expect("valid hex")
}

fn assert_field_ops_do_not_allocate<F: Fp>(f: &F) {
    let av = residue("0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8");
    let bv = residue("0x243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89");
    black_box(f.mul(&f.from_uint(&av), &f.one())); // builds the parameters
    let n = allocations(|| {
        let (a, b) = (f.from_uint(&av), f.from_uint(&bv));
        let mut x = a;
        for _ in 0..100 {
            x = f.mul(&x, &b);
            x = f.sqr(&x);
            x = f.add(&x, &a);
            x = f.sub(&x, &b);
        }
        black_box(f.inv(&x));
        black_box(f.legendre(&x));
        black_box(f.to_uint(&x));
    });
    assert_eq!(n, 0, "field operations allocated {n} times");
}

#[test]
fn full_radix_field_ops_do_not_allocate() {
    assert_field_ops_do_not_allocate(&FpFull::new());
}

#[test]
fn reduced_radix_field_ops_do_not_allocate() {
    assert_field_ops_do_not_allocate(&FpRed::new());
}

#[test]
fn montgomery_reduction_and_products_do_not_allocate() {
    let c = Csidh512::get();
    let a = residue("0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8");
    let b = c.p.wrapping_sub(&U512::ONE);
    let (ra, rb) = (Reduced::from_uint(&a), Reduced::from_uint(&b));
    let n = allocations(|| {
        for _ in 0..100 {
            let (lo, hi) = mul_ps(black_box(&a), &b);
            black_box(c.mont.redc(&lo, &hi));
            let (lo, hi) = square_ps(black_box(&a));
            black_box(c.mont.redc(&lo, &hi));
            black_box(c.mont57.mul(black_box(&ra), &rb));
            black_box(c.mont57.from_mont(black_box(&ra)));
        }
    });
    assert_eq!(n, 0, "mpi products and reductions allocated {n} times");
}
