//! Arbitrary-precision unsigned and modular integer arithmetic.
//!
//! This crate is the numeric substrate for the SINTRA threshold-cryptography
//! stack. It provides [`Ubig`], an arbitrary-precision unsigned integer with
//! value semantics, together with the modular machinery public-key
//! cryptography needs:
//!
//! * ring arithmetic: addition, subtraction, schoolbook multiplication,
//!   Knuth Algorithm D division, shifts and bit access;
//! * modular arithmetic: [`Ubig::mod_add`], [`Ubig::mod_mul`],
//!   [`Ubig::mod_pow`], [`Ubig::mod_inverse`], greatest common divisors and
//!   the extended Euclidean algorithm (see [`ibig::Ibig`] for the signed
//!   cofactors);
//! * a reusable [`Montgomery`] context for fast exponentiation modulo odd
//!   numbers, and [`Montgomery3`], which runs three exponentiations modulo
//!   three small moduli in lockstep on AVX-512 IFMA;
//! * probabilistic primality testing and (safe-)prime generation in
//!   [`prime`].
//!
//! # Examples
//!
//! ```
//! use sintra_bigint::Ubig;
//!
//! let p = Ubig::from_hex("ffffffffffffffc5").unwrap(); // a 64-bit prime
//! let g = Ubig::from(3u64);
//! let x = Ubig::from(12_345u64);
//! let y = g.mod_pow(&x, &p);
//! // Fermat: g^(p-1) = 1 (mod p)
//! assert_eq!(g.mod_pow(&(&p - &Ubig::one()), &p), Ubig::one());
//! assert!(y < p);
//! ```

// Two `unsafe` blocks are allowed: the 6-limb `mulx`/`adcx`/`adox` kernel
// in `montgomery.rs`, and the one call into the AVX-512 IFMA kernels in
// `ifma.rs`. Each runs only after its CPU check.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod bits;
mod convert;
mod fmt;
pub mod ibig;
mod ifma;
mod modular;
mod montgomery;
mod ops;
pub mod prime;
mod rng;
mod ubig;

pub use ibig::Ibig;
pub use ifma::Montgomery3;
pub use montgomery::{FixedBase, Montgomery};
pub use prime::{is_prime, PrimeConfig};
pub use rng::UbigRandom;
pub use ubig::{ParseUbigError, Ubig};

/// Number of bits in one limb of a [`Ubig`].
pub const LIMB_BITS: u32 = 64;

pub(crate) type Limb = u64;
pub(crate) type DoubleLimb = u128;
