//! Precomputed cryptographic parameters.
//!
//! Generating 1024-bit safe primes and Schnorr groups takes minutes; the
//! paper's key-size sweep (Fig. 6) needs parameters at 128–1024 bits. This
//! module embeds them so tests and benchmarks start instantly. The dealer
//! can still generate everything fresh at runtime; fixtures are a cache,
//! not a trust assumption — all structural properties are re-validated on
//! load.
//!
//! Two files hold them. `fixtures_data.rs` is frozen: its Schnorr groups
//! and safe-prime pairs were drawn once and nothing here reproduces them.
//! `fixtures_rsa.rs` holds the party keys' prime pools, which
//! [`rsa_pools_source`] draws from fixed seeds; regenerate it with
//! `cargo run --release -p sintra-crypto --bin gen_fixtures >
//! crates/crypto/src/fixtures_rsa.rs`, and a test checks that the two
//! agree.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sintra_bigint::{PrimeConfig, Ubig};

use crate::group::SchnorrGroup;
use crate::rsa::{self, RsaPrivateKey, RsaPublicKey, PARTY_PUBLIC_EXPONENT, PRIMES_PER_KEY};
use crate::thsig::ShoupModulus;
use crate::{CryptoError, Result};

mod data {
    include!("fixtures_data.rs");
    include!("fixtures_rsa.rs");
}

fn ub(hex: &str) -> Ubig {
    Ubig::from_hex(hex).expect("fixture hex is valid")
}

/// Each RSA pool size with the modulus length of its 8 parties' keys.
/// [`rsa_pools_source`] draws a key's [`PRIMES_PER_KEY`] primes at about a
/// third of that length and redraws them until the modulus is exactly as
/// long as that party's two-prime modulus was. Verifying is charged by the
/// modulus length, so redrawing a pool moves no modulus length.
pub const RSA_MODULUS_BITS: [(u32, [u32; 8]); 6] = [
    (128, [128, 128, 127, 127, 127, 128, 128, 127]),
    (256, [255, 256, 255, 256, 255, 255, 255, 256]),
    (384, [384, 383, 383, 384, 383, 384, 384, 384]),
    (512, [512, 512, 511, 512, 512, 512, 512, 512]),
    (768, [768, 767, 768, 767, 767, 768, 768, 768]),
    (1024, [1023, 1023, 1023, 1024, 1023, 1023, 1023, 1024]),
];

/// Modulus sizes (bits) with an embedded Schnorr group.
pub fn group_sizes() -> Vec<u32> {
    data::SCHNORR_GROUPS.iter().map(|g| g.0).collect()
}

/// Modulus sizes (bits) with an embedded safe-prime pair.
pub fn shoup_sizes() -> Vec<u32> {
    data::SAFE_PRIME_PAIRS.iter().map(|g| g.0).collect()
}

/// Modulus sizes (bits) with an embedded RSA prime pool.
pub fn rsa_sizes() -> Vec<u32> {
    data::RSA_PRIME_POOLS.iter().map(|g| g.0).collect()
}

/// Returns the embedded Schnorr group with a `p_bits`-bit modulus.
///
/// Groups are validated and cached on first access.
///
/// # Errors
///
/// [`CryptoError::UnsupportedParameters`] when no fixture of that size
/// exists; see [`group_sizes`].
pub fn schnorr_group(p_bits: u32) -> Result<SchnorrGroup> {
    static CACHE: OnceLock<HashMap<u32, SchnorrGroup>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        data::SCHNORR_GROUPS
            .iter()
            .map(|(bits, p, q, g, g_bar)| {
                let group = SchnorrGroup::from_parts(ub(p), ub(q), ub(g), ub(g_bar))
                    .expect("embedded group fixtures are structurally valid");
                (*bits, group)
            })
            .collect()
    });
    cache
        .get(&p_bits)
        .cloned()
        .ok_or(CryptoError::UnsupportedParameters(
            "no Schnorr group fixture at this size",
        ))
}

/// Returns the embedded safe-prime pair forming a `bits`-bit Shoup modulus.
///
/// # Errors
///
/// [`CryptoError::UnsupportedParameters`] when no fixture of that size
/// exists; see [`shoup_sizes`].
pub fn shoup_modulus(bits: u32) -> Result<ShoupModulus> {
    for (b, p, q) in data::SAFE_PRIME_PAIRS {
        if *b == bits {
            return Ok(ShoupModulus { p: ub(p), q: ub(q) });
        }
    }
    Err(CryptoError::UnsupportedParameters(
        "no safe-prime fixture at this size",
    ))
}

/// Builds party `index`'s RSA key of `bits`-bit modulus from the embedded
/// prime pool: [`PRIMES_PER_KEY`] primes each (deterministic: the same
/// `(bits, index)` always yields the same key).
///
/// # Errors
///
/// [`CryptoError::UnsupportedParameters`] when the size has no pool or the
/// pool has too few primes for the index.
pub fn rsa_key(bits: u32, index: usize) -> Result<RsaPrivateKey> {
    for (b, pool) in data::RSA_PRIME_POOLS {
        if *b == bits {
            let Some(primes) = pool.get(PRIMES_PER_KEY * index..PRIMES_PER_KEY * (index + 1))
            else {
                return Err(CryptoError::UnsupportedParameters(
                    "RSA prime pool exhausted for this party index",
                ));
            };
            let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
            return RsaPrivateKey::from_primes(primes.iter().map(|p| ub(p)).collect(), e).ok_or(
                CryptoError::MalformedInput("fixture primes incompatible with public exponent"),
            );
        }
    }
    Err(CryptoError::UnsupportedParameters(
        "no RSA prime pool at this size",
    ))
}

/// All parties' RSA keys at a size (convenience for dealers).
pub fn rsa_keys(bits: u32, n: usize) -> Result<Vec<RsaPrivateKey>> {
    (0..n).map(|i| rsa_key(bits, i)).collect()
}

/// Public halves of [`rsa_keys`].
pub fn rsa_public_keys(bits: u32, n: usize) -> Result<Vec<RsaPublicKey>> {
    Ok(rsa_keys(bits, n)?
        .iter()
        .map(|k| k.public().clone())
        .collect())
}

/// Draws the prime pool of one size from its fixed seed: for each party's
/// modulus length, [`PRIMES_PER_KEY`] primes of about a third of it, each
/// suited to [`PARTY_PUBLIC_EXPONENT`] and unused so far, redrawn together
/// until their product has exactly that length.
fn rsa_prime_pool(bits: u32, lengths: [u32; 8]) -> Vec<Ubig> {
    let config = PrimeConfig::default();
    let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
    let mut rng = StdRng::seed_from_u64(0x125A_0000 + u64::from(bits));
    let parts = PRIMES_PER_KEY as u32;
    let mut pool: Vec<Ubig> = Vec::new();
    for length in lengths {
        // A product of primes with their top bit set has the sum of their
        // lengths in bits, or one or two fewer; aim the sum one above the
        // target, the likeliest outcome.
        let key = loop {
            let mut key: Vec<Ubig> = Vec::new();
            for i in 0..parts {
                let p = loop {
                    let p = rsa::gen_prime_for((length + 1 + i) / parts, &e, &config, &mut rng);
                    if !pool.contains(&p) && !key.contains(&p) {
                        break p;
                    }
                };
                key.push(p);
            }
            let n = key.iter().fold(Ubig::one(), |n, p| &n * p);
            if n.bit_length() == length {
                break key;
            }
        };
        pool.extend(key);
    }
    pool
}

/// The Rust source of `fixtures_rsa.rs`: every size's prime pool, drawn
/// as [`RSA_MODULUS_BITS`] says. Deterministic.
pub fn rsa_pools_source() -> String {
    let mut out = String::from(
        "// Generated by `cargo run --release -p sintra-crypto --bin gen_fixtures`\n\
         // from fixed seeds (`fixtures::rsa_pools_source`); do not edit by hand.\n\n\
         /// (modulus_bits, primes) — party i uses primes[3i..3i+3].\n\
         pub(crate) static RSA_PRIME_POOLS: &[(u32, &[&str])] = &[\n",
    );
    for (bits, lengths) in RSA_MODULUS_BITS {
        out.push_str(&format!("    ({bits}, &[\n"));
        for p in rsa_prime_pool(bits, lengths) {
            out.push_str(&format!("        \"{}\",\n", p.to_hex()));
        }
        out.push_str("    ]),\n");
    }
    out.push_str("];\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_bigint::{is_prime, PrimeConfig};

    #[test]
    fn groups_load_and_validate() {
        for bits in group_sizes() {
            let g = schnorr_group(bits).unwrap();
            assert_eq!(g.modulus_bits(), bits, "size {bits}");
            assert!(g.is_element(g.generator()));
        }
    }

    #[test]
    fn group_fixture_primes_are_prime() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PrimeConfig::default();
        // Spot-check the smallest and largest fixtures.
        let sizes = group_sizes();
        for &bits in [sizes.first(), sizes.last()].into_iter().flatten() {
            let g = schnorr_group(bits).unwrap();
            assert!(is_prime(g.modulus(), &cfg, &mut rng), "p at {bits}");
            assert!(is_prime(g.order(), &cfg, &mut rng), "q at {bits}");
        }
    }

    #[test]
    fn shoup_moduli_are_safe_primes() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PrimeConfig::default();
        for bits in shoup_sizes() {
            let m = shoup_modulus(bits).unwrap();
            // The product of two (bits/2)-bit primes has bits or bits-1 bits.
            let got = m.n().bit_length();
            assert!(
                got == bits || got == bits - 1,
                "modulus size {bits}, got {got}"
            );
            for prime in [&m.p, &m.q] {
                assert!(is_prime(prime, &cfg, &mut rng));
                let half = &(prime - &Ubig::one()) >> 1;
                assert!(is_prime(&half, &cfg, &mut rng), "safe structure at {bits}");
            }
        }
    }

    #[test]
    fn rsa_keys_work_and_are_distinct() {
        for bits in rsa_sizes() {
            let k0 = rsa_key(bits, 0).unwrap();
            let k1 = rsa_key(bits, 1).unwrap();
            assert_ne!(k0.public().n(), k1.public().n());
            let sig = k0.sign(b"fixture test");
            assert!(k0.public().verify(b"fixture test", &sig));
            assert!(!k1.public().verify(b"fixture test", &sig));
        }
    }

    #[test]
    fn every_rsa_key_has_three_unshared_primes_and_its_committed_length() {
        use sintra_bigint::UbigRandom;
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PrimeConfig::default();
        let three = Ubig::from(3u64);
        assert_eq!(rsa_sizes(), RSA_MODULUS_BITS.map(|(bits, _)| bits));
        for (bits, lengths) in RSA_MODULUS_BITS {
            let mut seen: Vec<Ubig> = Vec::new();
            for (index, length) in lengths.into_iter().enumerate() {
                let key = rsa_key(bits, index).unwrap();
                let primes: Vec<&Ubig> = key.primes().collect();
                assert_eq!(primes.len(), 3, "{bits}-bit key {index}");
                for p in primes {
                    assert!(!seen.contains(p), "{bits}-bit key {index} shares a prime");
                    assert_eq!(p % &three, Ubig::two(), "{bits}-bit key {index}: e = 3");
                    assert!(is_prime(p, &cfg, &mut rng), "{bits}-bit key {index}");
                    seen.push(p.clone());
                }
                assert_eq!(
                    key.public().modulus_bits(),
                    length,
                    "{bits}-bit key {index}"
                );
                let x = rng.gen_ubig_below(key.public().n());
                assert_eq!(key.crt_pow(&x), key.plain_pow(&x), "{bits}-bit key {index}");
            }
        }
    }

    #[test]
    fn rsa_pools_regenerate_to_the_committed_file() {
        assert!(
            rsa_pools_source() == include_str!("fixtures_rsa.rs"),
            "fixtures_rsa.rs is not what `gen_fixtures` writes: regenerate it"
        );
    }

    #[test]
    fn rsa_keys_are_deterministic() {
        let bits = *rsa_sizes().first().expect("at least one size");
        assert_eq!(
            rsa_key(bits, 3).unwrap().public(),
            rsa_key(bits, 3).unwrap().public()
        );
    }

    #[test]
    fn unsupported_sizes_error() {
        assert!(matches!(
            schnorr_group(12345),
            Err(CryptoError::UnsupportedParameters(_))
        ));
        assert!(matches!(
            shoup_modulus(12345),
            Err(CryptoError::UnsupportedParameters(_))
        ));
        assert!(matches!(
            rsa_key(12345, 0),
            Err(CryptoError::UnsupportedParameters(_))
        ));
    }

    #[test]
    fn pool_exhaustion_detected() {
        let bits = *rsa_sizes().first().expect("at least one size");
        assert!(matches!(
            rsa_key(bits, 1000),
            Err(CryptoError::UnsupportedParameters(_))
        ));
    }
}
