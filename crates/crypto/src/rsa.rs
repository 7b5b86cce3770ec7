//! RSA with full-domain-hash signatures.
//!
//! This is SINTRA's "standard digital signature scheme": every server owns
//! an RSA key pair (dealer-generated), used to sign atomic-broadcast
//! payloads and as the building block of multi-signatures. Signing uses
//! the Chinese Remainder Theorem, which the paper notes gives the
//! multi-signature configuration its speed advantage.

use rand::Rng;
use sintra_bigint::{prime, PrimeConfig, Ubig};

use crate::{cost, hash, CryptoError};

/// Default public exponent (prime, larger than any practical group size).
pub const DEFAULT_PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// The modulus `n = p·q`.
    pub n: Ubig,
    /// The public exponent.
    pub e: Ubig,
}

/// An RSA private key with CRT precomputation.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Ubig,
    p: Ubig,
    q: Ubig,
    d_p: Ubig,
    d_q: Ubig,
    q_inv: Ubig,
}

/// An RSA full-domain-hash signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub Ubig);

/// Full-domain hash of a message into `Z_n` (random-oracle model, as all
/// SINTRA schemes assume).
pub fn fdh(message: &[u8], n: &Ubig) -> Ubig {
    hash::hash_to_ubig(b"sintra-rsa-fdh", message, n)
}

impl RsaPublicKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        if signature.0 >= self.n {
            return false;
        }
        let expected = fdh(message, &self.n);
        cost::mod_pow(&signature.0, &self.e, &self.n) == expected
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> u32 {
        self.n.bit_length()
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key with modulus of approximately `bits` bits.
    ///
    /// Expensive at large sizes; prefer [`crate::fixtures::rsa_key`] in
    /// tests and benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32`.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Self {
        assert!(bits >= 32, "modulus too small");
        let config = PrimeConfig::default();
        let e = Ubig::from(DEFAULT_PUBLIC_EXPONENT);
        loop {
            let p = prime::gen_prime(bits / 2, &config, rng);
            let q = prime::gen_prime(bits - bits / 2, &config, rng);
            if p == q {
                continue;
            }
            if let Some(key) = Self::from_primes(p, q, e.clone()) {
                return key;
            }
        }
    }

    /// Assembles a key from two distinct primes and a public exponent.
    /// Returns `None` if `e` is not invertible modulo `φ(n)`.
    pub fn from_primes(p: Ubig, q: Ubig, e: Ubig) -> Option<Self> {
        let n = &p * &q;
        let phi = &(&p - &Ubig::one()) * &(&q - &Ubig::one());
        let d = e.mod_inverse(&phi)?;
        let d_p = &d % &(&p - &Ubig::one());
        let d_q = &d % &(&q - &Ubig::one());
        let q_inv = q.mod_inverse(&p)?;
        Some(RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
            p,
            q,
            d_p,
            d_q,
            q_inv,
        })
    }

    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent (needed by the trusted dealer when deriving
    /// threshold sharings).
    pub fn private_exponent(&self) -> &Ubig {
        &self.d
    }

    /// Signs `message` (full-domain hash, CRT exponentiation).
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let x = fdh(message, &self.public.n);
        RsaSignature(self.crt_pow(&x))
    }

    /// Raw private-key operation `x^d mod n` via CRT.
    ///
    /// Metered as two half-size exponentiations, which is why the paper's
    /// multi-signature configuration ("benefits from fast modular
    /// exponentiation using Chinese remaindering") outpaces full-width
    /// threshold-RSA exponentiation.
    pub fn crt_pow(&self, x: &Ubig) -> Ubig {
        let m1 = cost::mod_pow(&(x % &self.p), &self.d_p, &self.p);
        let m2 = cost::mod_pow(&(x % &self.q), &self.d_q, &self.q);
        // h = q_inv * (m1 - m2) mod p ; result = m2 + h*q
        let h = self.q_inv.mod_mul(&m1.mod_sub(&m2, &self.p), &self.p);
        &m2 + &(&h * &self.q)
    }

    /// Decrypts/unsigns without CRT (reference implementation for tests).
    pub fn plain_pow(&self, x: &Ubig) -> Ubig {
        cost::mod_pow(x, &self.d, &self.public.n)
    }
}

/// Verifies that a set of `(index, signature)` pairs contains at least
/// `quorum` valid signatures from distinct signers, given all parties'
/// public keys. This is the multi-signature check used when threshold
/// signatures are configured as signature vectors.
///
/// `held(index, signature)` answers for a pair the caller has already
/// verified over this very `message`: such a pair is not exponentiated
/// again. The shape of the quorum — enough pairs, indices in range and
/// distinct — is checked whatever is held.
pub fn verify_distinct_quorum(
    keys: &[RsaPublicKey],
    message: &[u8],
    sigs: &[(usize, RsaSignature)],
    quorum: usize,
    mut held: impl FnMut(usize, &RsaSignature) -> bool,
) -> Result<(), CryptoError> {
    if sigs.len() < quorum {
        return Err(CryptoError::NotEnoughShares {
            needed: quorum,
            got: sigs.len(),
        });
    }
    // The shape first: a malformed quorum costs nothing, whatever it holds.
    let mut seen = vec![false; keys.len()];
    for (index, _) in sigs {
        if *index >= keys.len() {
            return Err(CryptoError::InvalidShare { index: *index });
        }
        if seen[*index] {
            return Err(CryptoError::DuplicateShare { index: *index });
        }
        seen[*index] = true;
    }
    for (index, sig) in sigs {
        if !held(*index, sig) && !keys[*index].verify(message, sig) {
            return Err(CryptoError::InvalidShare { index: *index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key() -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(31);
        RsaPrivateKey::generate(256, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"payload");
        assert!(key.public().verify(b"payload", &sig));
        assert!(!key.public().verify(b"other payload", &sig));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..5 {
            use sintra_bigint::UbigRandom;
            let x = rng.gen_ubig_below(&key.public().n);
            assert_eq!(key.crt_pow(&x), key.plain_pow(&x));
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let key = test_key();
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = test_key();
        let mut sig = key.sign(b"m");
        sig.0 = sig.0.mod_add(&Ubig::one(), &key.public().n);
        assert!(!key.public().verify(b"m", &sig));
        // Out-of-range signatures rejected outright.
        let oversized = RsaSignature(key.public().n.clone());
        assert!(!key.public().verify(b"m", &oversized));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(33);
        let k1 = RsaPrivateKey::generate(256, &mut rng);
        let k2 = RsaPrivateKey::generate(256, &mut rng);
        let sig = k1.sign(b"m");
        assert!(!k2.public().verify(b"m", &sig));
    }

    #[test]
    fn quorum_verification() {
        let mut rng = StdRng::seed_from_u64(34);
        let keys: Vec<RsaPrivateKey> = (0..3)
            .map(|_| RsaPrivateKey::generate(256, &mut rng))
            .collect();
        let publics: Vec<RsaPublicKey> = keys.iter().map(|k| k.public().clone()).collect();
        let sigs: Vec<(usize, RsaSignature)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (i, k.sign(b"m")))
            .collect();

        let none = |_: usize, _: &RsaSignature| false;
        assert!(verify_distinct_quorum(&publics, b"m", &sigs, 3, none).is_ok());
        assert!(matches!(
            verify_distinct_quorum(&publics, b"m", &sigs[..1], 2, none),
            Err(CryptoError::NotEnoughShares { .. })
        ));
        let dup = vec![sigs[0].clone(), sigs[0].clone()];
        assert!(matches!(
            verify_distinct_quorum(&publics, b"m", &dup, 2, none),
            Err(CryptoError::DuplicateShare { .. })
        ));
        let forged = vec![sigs[0].clone(), (1, sigs[2].1.clone())];
        assert!(matches!(
            verify_distinct_quorum(&publics, b"m", &forged, 2, none),
            Err(CryptoError::InvalidShare { index: 1 })
        ));
        // A held pair is not exponentiated; the others still are, and a
        // duplicate is refused for nothing even when every pair is held.
        let all = |_: usize, _: &RsaSignature| true;
        let scope = cost::CostScope::enter();
        assert!(verify_distinct_quorum(&publics, b"m", &sigs, 3, |i, _| i != 1).is_ok());
        let one = scope.elapsed();
        let scope = cost::CostScope::enter();
        assert!(publics[1].verify(b"m", &sigs[1].1));
        assert!((scope.elapsed() - one).abs() < 1e-12);
        let scope = cost::CostScope::enter();
        assert!(verify_distinct_quorum(&publics, b"m", &dup, 2, all).is_err());
        assert_eq!(scope.elapsed(), 0.0);
    }

    #[test]
    fn fdh_depends_on_modulus() {
        let key = test_key();
        let x = fdh(b"m", &key.public().n);
        assert!(x < key.public().n);
        let other = &key.public().n + &Ubig::from(4u64);
        assert_ne!(fdh(b"m", &other), x);
    }
}
