//! # mpise-csidh — the CSIDH-512 post-quantum key exchange
//!
//! The case-study workload of the paper (§2, "Basic CSIDH facts"):
//! Commutative Supersingular Isogeny Diffie-Hellman over the prime
//! `p = 4·ℓ₁⋯ℓ₇₄ − 1`. The crate implements, generically over any
//! [`Fp`](mpise_fp::Fp) field backend:
//!
//! * x-only Montgomery curve arithmetic ([`mont`]): `xDBL`, `xADD`,
//!   the Montgomery ladder;
//! * odd-degree Vélu isogenies with the Meyer–Reith twisted-Edwards
//!   codomain computation ([`isogeny`]);
//! * the class group action, key generation, key exchange and public
//!   key validation ([`action`]);
//!
//! mirroring the structure of the authors' software: one shared
//! high-level implementation, swappable constant-time field arithmetic
//! underneath (§4, "All implementations are based on the same code for
//! the high-level computations").
//!
//! ## Example
//!
//! ```
//! use mpise_csidh::{CsidhKeypair, PrivateKey};
//! use mpise_fp::FpFull;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let f = FpFull::new();
//! let mut rng = StdRng::seed_from_u64(1);
//! // Small exponent bound keeps the doc test fast; CSIDH-512 uses 5.
//! let alice = CsidhKeypair::generate_with_bound(&f, &mut rng, 1);
//! let bob = CsidhKeypair::generate_with_bound(&f, &mut rng, 1);
//! let s1 = alice.private.shared_secret(&f, &mut rng, &bob.public);
//! let s2 = bob.private.shared_secret(&f, &mut rng, &alice.public);
//! assert_eq!(s1, s2);
//! ```

// Carry-chain and multi-array arithmetic code indexes several slices in
// lockstep; iterator rewrites of those loops obscure the digit algebra.
#![allow(clippy::needless_range_loop)]

pub mod action;
pub mod ct_action;
pub mod elligator;
pub mod isogeny;
pub mod mont;
pub mod scalar;

pub use action::{group_action, validate, CsidhKeypair, PrivateKey, PublicKey};
pub use ct_action::{group_action_ct, CtPrivateKey, CtStats};
