//! # mpise-fp — the CSIDH-512 prime-field layer
//!
//! Everything the paper's software evaluation (§4, Table 4) measures
//! lives here:
//!
//! * [`params`]: the CSIDH-512 prime `p = 4·ℓ₁⋯ℓ₇₄ − 1` and its
//!   Montgomery constants, in both radix representations;
//! * [`backend`]: the [`backend::Fp`] trait and the two host-speed
//!   backends ([`backend::FpFull`] on radix-2^64,
//!   [`backend::FpRed`] on radix-2^57), plus an op-counting adapter;
//! * [`kernels`]: generators that emit the fully unrolled RV64
//!   assembly kernels for every Table 4 operation in all four
//!   configurations (full/reduced radix × ISA-only/ISE-supported) —
//!   the Rust equivalent of the hand-written assembler functions the
//!   authors wrote "from scratch";
//! * [`measure`]: executes those kernels on the `mpise-sim` Rocket
//!   model, checks them against the host backends, and reports cycle
//!   counts;
//! * [`simfp`]: an [`backend::Fp`] backend whose every operation
//!   runs on the simulator — used for the direct (full-simulation)
//!   reproduction of the CSIDH group-action row.

// Carry-chain and multi-array arithmetic code indexes several slices in
// lockstep; iterator rewrites of those loops obscure the digit algebra.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod ctspec;
pub mod kernels;
pub mod measure;
pub mod params;
pub mod simfp;

pub use backend::{CountingFp, Fp, FpFull, FpRed, OpCounts};
pub use params::Csidh512;
