//! Writes `fixtures_rsa.rs`, the party keys' RSA prime pools, to stdout:
//!
//! ```text
//! cargo run --release -p sintra-crypto --bin gen_fixtures > crates/crypto/src/fixtures_rsa.rs
//! ```
//!
//! The pools are drawn from fixed seeds by
//! [`sintra_crypto::fixtures::rsa_pools_source`], so the output is the
//! committed file byte for byte unless the drawing changed. The Schnorr
//! groups and safe-prime pairs in `fixtures_data.rs` are frozen and not
//! generated here.

#![forbid(unsafe_code)]

fn main() {
    print!("{}", sintra_crypto::fixtures::rsa_pools_source());
}
