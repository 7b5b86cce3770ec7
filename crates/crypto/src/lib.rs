//! Threshold cryptography for SINTRA.
//!
//! This crate implements every cryptographic scheme the SINTRA protocol
//! stack (Cachin & Poritz, DSN 2002) relies on, from scratch on top of
//! [`sintra_bigint`]:
//!
//! * [`hash`]: SHA-256, with a SHA-NI kernel where the CPU has one, plus
//!   [`hmac`] for link authentication;
//! * [`chacha`]: the ChaCha20 stream cipher used for bulk encryption inside
//!   the threshold cryptosystem (the paper used MARS; any symmetric cipher
//!   is interchangeable here);
//! * [`group`]: Schnorr groups — prime `p` with a prime-order-`q` subgroup —
//!   the discrete-log setting of the coin-tossing and encryption schemes;
//! * [`dleq`]: non-interactive Chaum–Pedersen proofs of discrete-log
//!   equality, the building block for share-validity proofs;
//! * [`rsa`]: plain RSA with full-domain-hash signatures and CRT;
//! * [`coin`]: the Cachin–Kursawe–Shoup dual-threshold common coin;
//! * [`thsig`]: threshold signatures — Shoup's RSA scheme and the
//!   multi-signature alternative behind one interface;
//! * [`thenc`]: the Shoup–Gennaro TDH2 threshold cryptosystem (CCA2-secure),
//!   hybridized with ChaCha20;
//! * [`dealer`]: the trusted dealer that generates all key material for a
//!   group (SINTRA's one-time trusted setup);
//! * [`cost`]: metering of modular-exponentiation work, which the
//!   discrete-event simulator converts into virtual CPU time;
//! * [`fixtures`]: precomputed group and RSA parameters at 128–1024 bits so
//!   tests and benchmarks skip expensive prime generation.
//!
//! # Example: tossing a common coin
//!
//! ```
//! use rand::SeedableRng;
//! use sintra_crypto::coin::CoinScheme;
//! use sintra_crypto::fixtures;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let group = fixtures::schnorr_group(512).expect("fixture exists");
//! // (n, k, t) = (4, 2, 1): 4 parties, 2 shares reconstruct, 1 corruption.
//! let (pub_key, secrets) = CoinScheme::deal(&group, 4, 2, &mut rng);
//! let scheme = CoinScheme::new(group, pub_key);
//!
//! let name = b"round 1 coin";
//! let s0 = scheme.release_share(name, &secrets[0]);
//! let s2 = scheme.release_share(name, &secrets[2]);
//! assert!(scheme.verify_share(name, &s0));
//! let value = scheme.assemble(name, &[s0, s2], 16).unwrap();
//! assert_eq!(value.len(), 16);
//! ```

// One `unsafe` block is allowed, in `hash.rs`: the call into the SHA-NI
// kernel after the CPU check.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha;
pub mod coin;
pub mod cost;
pub mod dealer;
pub mod dleq;
mod error;
pub mod fixtures;
pub mod group;
pub mod hash;
pub mod hmac;
pub mod polynomial;
pub mod rsa;
pub mod thenc;
pub mod thsig;

pub use error::CryptoError;

/// Convenient result alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
