//! RSA with full-domain-hash signatures.
//!
//! This is SINTRA's "standard digital signature scheme": every server owns
//! an RSA key pair (dealer-generated), used to sign atomic-broadcast
//! payloads and as the building block of multi-signatures. Signing uses
//! the Chinese Remainder Theorem, which the paper notes gives the
//! multi-signature configuration its speed advantage; a key here has
//! three balanced primes (multi-prime RSA, RFC 8017 §3.2), so a signature
//! is three exponentiations at a third of the modulus width instead of
//! two at half; on a CPU with AVX-512 IFMA the three run in lockstep on
//! one vector kernel ([`Montgomery3`]). Verification is the same `(n, e)`
//! either way.

use std::fmt;

use rand::Rng;
use sintra_bigint::{prime, Montgomery, Montgomery3, PrimeConfig, Ubig};

use crate::{cost, hash, CryptoError};

/// Public exponent of every party key: generated, dealt or fixture.
///
/// Verifying is then one squaring and one multiplication modulo `n`, where
/// 65 537 takes 16 squarings and one multiplication. RSA-FDH is as hard to
/// forge as RSA with the same `e` is to invert, for any `e` coprime to
/// `φ(n)` (Bellare–Rogaway 1996, Coron 2000), and a signature is checked
/// as one whole residue against the hash, so none of the known `e = 3`
/// attacks applies (DESIGN.md §8). It needs every prime `≡ 2 (mod 3)`.
pub const PARTY_PUBLIC_EXPONENT: u64 = 3;

/// Public exponent of Shoup threshold RSA ([`crate::thsig`]).
///
/// Shoup's combining step needs `e` prime and coprime to `4Δ² = 4(n!)²`,
/// so `e` must be a prime larger than the number of parties `n`: 3 fails
/// from three parties on. 65 537 covers any practical group, and it is
/// invertible modulo `p'q'` (safe primes `p = 2p' + 1`, `q = 2q' + 1`)
/// whenever neither `p'` nor `q'` is 65 537 itself.
pub const SHOUP_PUBLIC_EXPONENT: u64 = 65_537;

/// Primes per generated or fixture key. Three 341-bit primes are the usual
/// limit at 1024 bits: the number field sieve on `n` stays cheaper than
/// the elliptic-curve method on one prime.
pub const PRIMES_PER_KEY: usize = 3;

/// An RSA public key `(n, e)`, with the Montgomery context of `n` built
/// once. Two keys are equal when `n` and `e` are.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: Ubig,
    e: Ubig,
    mont: Montgomery,
}

/// One prime of a private key with what CRT needs of it, built once.
#[derive(Clone)]
struct CrtPrime {
    /// Montgomery context of the prime `p_i` (which it holds).
    mont: Montgomery,
    /// The CRT exponent `d mod (p_i − 1)`.
    d: Ubig,
    /// `p_0 ⋯ p_{i−1}`, one for the first prime.
    below: Ubig,
    /// Garner's coefficient `(p_0 ⋯ p_{i−1})⁻¹ mod p_i`.
    coeff: Ubig,
}

/// An RSA private key with CRT precomputation over its primes.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Ubig,
    primes: Vec<CrtPrime>,
    /// The three primes' lockstep context, when the key has three primes
    /// and [`Montgomery3::new`] takes them (each below 2³⁴³, on a CPU with
    /// AVX-512 IFMA).
    lockstep: Option<Montgomery3>,
}

/// An RSA full-domain-hash signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub Ubig);

/// Full-domain hash of a message into `Z_n` (random-oracle model, as all
/// SINTRA schemes assume).
pub fn fdh(message: &[u8], n: &Ubig) -> Ubig {
    hash::hash_to_ubig(b"sintra-rsa-fdh", message, n)
}

/// Draws `bits`-bit primes until one has `p − 1` coprime to `e`, so that
/// `e` stays invertible modulo `φ(n)`: for `e = 3`, until `p ≡ 2 (mod 3)`.
pub(crate) fn gen_prime_for<R: Rng + ?Sized>(
    bits: u32,
    e: &Ubig,
    config: &PrimeConfig,
    rng: &mut R,
) -> Ubig {
    loop {
        let p = prime::gen_prime(bits, config, rng);
        if (&p - &Ubig::one()).gcd(e).is_one() {
            return p;
        }
    }
}

impl RsaPublicKey {
    /// The modulus `n`.
    pub fn n(&self) -> &Ubig {
        &self.n
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        if signature.0 >= self.n {
            return false;
        }
        let expected = fdh(message, &self.n);
        cost::mont_pow(&self.mont, &signature.0, &self.e) == expected
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> u32 {
        self.n.bit_length()
    }
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        (&self.n, &self.e) == (&other.n, &other.e)
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// Prints the public half only: the primes and exponents are secret.
impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key of [`PRIMES_PER_KEY`] balanced primes whose
    /// product has `bits` bits or slightly fewer.
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
        let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
        let parts = PRIMES_PER_KEY as u32;
        loop {
            let primes = (0..parts)
                .map(|i| gen_prime_for((bits + i) / parts, &e, &config, rng))
                .collect();
            // Only a repeated prime is refused here.
            if let Some(key) = Self::from_primes(primes, e.clone()) {
                return key;
            }
        }
    }

    /// Assembles a key from two or more distinct odd primes and a public
    /// exponent. Returns `None` if there are fewer than two primes, a
    /// prime repeats, or `e` is not invertible modulo `φ(n)`.
    pub fn from_primes(primes: Vec<Ubig>, e: Ubig) -> Option<Self> {
        if primes.len() < 2 {
            return None;
        }
        let one = Ubig::one();
        let n = primes.iter().fold(one.clone(), |n, p| &n * p);
        let phi = primes.iter().fold(one.clone(), |phi, p| &phi * &(p - &one));
        let d = e.mod_inverse(&phi)?;
        let mut below = one;
        let mut crt = Vec::with_capacity(primes.len());
        for p in &primes {
            // A repeated prime divides `below`, which then has no inverse.
            let coeff = below.mod_inverse(p)?;
            crt.push(CrtPrime {
                mont: Montgomery::new(p),
                d: &d % &(p - &Ubig::one()),
                below: below.clone(),
                coeff,
            });
            below = &below * p;
        }
        let lockstep = match primes.as_slice() {
            [p0, p1, p2] => Montgomery3::new([p0, p1, p2]),
            _ => None,
        };
        Some(RsaPrivateKey {
            public: RsaPublicKey {
                mont: Montgomery::new(&n),
                n,
                e,
            },
            d,
            primes: crt,
            lockstep,
        })
    }

    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The primes of the modulus, in the order CRT recombines them.
    pub fn primes(&self) -> impl Iterator<Item = &Ubig> {
        self.primes.iter().map(|p| p.mont.modulus())
    }

    /// Signs `message` (full-domain hash, CRT exponentiation).
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let x = fdh(message, &self.public.n);
        RsaSignature(self.crt_pow(&x))
    }

    /// Raw private-key operation `x^d mod n` via CRT: one exponentiation
    /// modulo each prime, then Garner's recombination. With a lockstep
    /// context the three exponentiations run together on it; otherwise
    /// one after another, each on its prime's `Montgomery` context.
    ///
    /// Metered as one exponentiation per prime at the prime's width
    /// whichever way they run, which is why the paper's multi-signature
    /// configuration ("benefits from fast modular exponentiation using
    /// Chinese remaindering") outpaces full-width threshold-RSA
    /// exponentiation: with three primes a signature is charged about 1/9
    /// of a full-width one.
    pub fn crt_pow(&self, x: &Ubig) -> Ubig {
        let residues: Vec<Ubig> = match (&self.lockstep, self.primes.as_slice()) {
            (Some(ctx), [p0, p1, p2]) => cost::mont_pow3(ctx, x, [&p0.d, &p1.d, &p2.d]).into(),
            _ => self
                .primes
                .iter()
                .map(|prime| cost::mont_pow(&prime.mont, x, &prime.d))
                .collect(),
        };
        // `acc` is `x^d` modulo the primes folded in so far. Each residue
        // `m` is already below its prime, so only `acc` is reduced, and
        // `m + p − (acc mod p)` is positive and `≡ m − acc`.
        let mut acc = Ubig::zero();
        for (prime, m) in self.primes.iter().zip(&residues) {
            let p = prime.mont.modulus();
            let h = prime.coeff.mod_mul(&(&(m + p) - &(&acc % p)), p);
            acc = &acc + &(&h * &prime.below);
        }
        acc
    }

    /// Decrypts/unsigns without CRT (reference implementation for tests).
    pub fn plain_pow(&self, x: &Ubig) -> Ubig {
        cost::mont_pow(&self.public.mont, x, &self.d)
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
        use sintra_bigint::UbigRandom;
        let mut rng = StdRng::seed_from_u64(32);
        let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
        let config = PrimeConfig::default();
        for count in [2, 3] {
            let primes = (0..count)
                .map(|_| gen_prime_for(256 / count as u32, &e, &config, &mut rng))
                .collect();
            let key = RsaPrivateKey::from_primes(primes, e.clone()).expect("distinct primes");
            assert_eq!(key.primes().count(), count);
            for _ in 0..5 {
                let x = rng.gen_ubig_below(key.public().n());
                assert_eq!(key.crt_pow(&x), key.plain_pow(&x), "{count} primes");
            }
        }
        // The dealt 1024-bit keys, whose primes the lockstep kernel takes
        // on a CPU with IFMA: the edges of `Z_n`, a multiple of each
        // prime, and random values.
        for index in 0..4 {
            let key = crate::fixtures::rsa_key(1024, index).expect("fixture key");
            let n = key.public().n();
            let mut values = vec![Ubig::zero(), Ubig::one(), Ubig::two(), n - &Ubig::one()];
            values.extend(key.primes().map(|p| p * &Ubig::from(7u64)));
            values.extend((0..8).map(|_| rng.gen_ubig_below(n)));
            for x in &values {
                assert_eq!(key.crt_pow(x), key.plain_pow(x), "key {index}, {x:?}");
            }
        }
    }

    /// Whether `/proc/cpuinfo` lists the three AVX-512 flags the lockstep
    /// kernel needs.
    #[cfg(target_os = "linux")]
    fn cpu_reports_ifma() -> bool {
        let info = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
        let flags = info
            .lines()
            .find(|l| l.starts_with("flags"))
            .and_then(|l| l.split_once(':'))
            .map_or("", |(_, flags)| flags);
        ["avx512f", "avx512vl", "avx512ifma"]
            .iter()
            .all(|want| flags.split_whitespace().any(|f| f == *want))
    }

    /// A three-prime 1024-bit key signs on the lockstep kernel exactly when
    /// the CPU reports IFMA; a two-prime key, a 2048-bit key (683-bit
    /// primes) and a key with a prime above 2³⁴³ stay on the per-prime
    /// loop. (A 343-bit prime, bit 342 set, is inside the kernel's bound.)
    #[cfg(target_os = "linux")]
    #[test]
    fn lockstep_runs_exactly_when_the_cpu_reports_it() {
        let key = crate::fixtures::rsa_key(1024, 0).expect("fixture key");
        assert_eq!(key.lockstep.is_some(), cpu_reports_ifma());
        let primes: Vec<Ubig> = key.primes().cloned().collect();
        let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
        let two = RsaPrivateKey::from_primes(primes[..2].to_vec(), e.clone()).expect("two primes");
        assert!(two.lockstep.is_none(), "two primes");
        let mut rng = StdRng::seed_from_u64(36);
        let config = PrimeConfig::default();
        for bits in [344, 683] {
            let mut primes = primes[..2].to_vec();
            primes.push(gen_prime_for(bits, &e, &config, &mut rng));
            let key = RsaPrivateKey::from_primes(primes, e.clone()).expect("three primes");
            assert!(key.lockstep.is_none(), "a {bits}-bit prime");
        }
        let wide = RsaPrivateKey::generate(2048, &mut rng);
        assert!(wide.lockstep.is_none(), "2048 bits");
        assert_eq!(wide.sign(b"m"), {
            let mut reference = wide.clone();
            reference.lockstep = None;
            reference.sign(b"m")
        });
    }

    /// A signature on the lockstep kernel is the per-prime loop's
    /// signature, and is charged exactly what that loop charges: one
    /// `exp_work(bits(pᵢ), bits(dᵢ))` per prime.
    #[test]
    fn lockstep_signs_and_charges_as_the_per_prime_loop() {
        for index in 0..4 {
            let key = crate::fixtures::rsa_key(1024, index).expect("fixture key");
            let mut per_prime = key.clone();
            per_prime.lockstep = None;
            let charged = |key: &RsaPrivateKey| {
                let scope = cost::CostScope::enter();
                let sig = key.sign(b"charged message");
                (sig, scope.elapsed())
            };
            let (sig, units) = charged(&key);
            let (want_sig, want_units) = charged(&per_prime);
            assert_eq!(sig, want_sig, "key {index}");
            assert_eq!(units, want_units, "key {index}");
            let formula: f64 = key
                .primes
                .iter()
                .map(|p| cost::exp_work(p.mont.modulus().bit_length(), p.d.bit_length()))
                .sum();
            assert_eq!(units, formula, "key {index}");
        }
    }

    #[test]
    fn from_primes_refuses_a_repeated_prime() {
        let key = test_key();
        let primes: Vec<Ubig> = key.primes().cloned().collect();
        let e = Ubig::from(PARTY_PUBLIC_EXPONENT);
        assert_eq!(primes.len(), PRIMES_PER_KEY);
        let repeated = vec![primes[0].clone(), primes[1].clone(), primes[0].clone()];
        assert!(RsaPrivateKey::from_primes(repeated, e.clone()).is_none());
        assert!(RsaPrivateKey::from_primes(vec![primes[0].clone()], e.clone()).is_none());
        assert!(RsaPrivateKey::from_primes(primes, e).is_some());
    }

    #[test]
    fn generated_keys_take_exponent_three_and_primes_two_mod_three() {
        let key = test_key();
        let three = Ubig::from(3u64);
        assert_eq!(key.public().e, three);
        for p in key.primes() {
            assert_eq!(p % &three, Ubig::two(), "{p:?}");
        }
        let sig = key.sign(b"payload");
        assert!(key.public().verify(b"payload", &sig));
    }

    #[test]
    fn exponent_three_refuses_a_prime_one_mod_three() {
        let mut rng = StdRng::seed_from_u64(35);
        let config = PrimeConfig::default();
        let three = Ubig::from(3u64);
        let one_mod_three = loop {
            let p = prime::gen_prime(86, &config, &mut rng);
            if (&p % &three).is_one() {
                break p;
            }
        };
        let mut primes: Vec<Ubig> = (0..2)
            .map(|_| gen_prime_for(85, &three, &config, &mut rng))
            .collect();
        assert!(RsaPrivateKey::from_primes(primes.clone(), three.clone()).is_some());
        primes.push(one_mod_three);
        assert!(RsaPrivateKey::from_primes(primes.clone(), three).is_none());
        // 65 537 divides none of their `p − 1`.
        assert!(RsaPrivateKey::from_primes(primes, Ubig::from(65_537u64)).is_some());
    }

    #[test]
    fn a_signature_verifies_only_under_its_own_exponent() {
        let key = test_key();
        let primes: Vec<Ubig> = key.primes().cloned().collect();
        let other = RsaPrivateKey::from_primes(primes, Ubig::from(65_537u64))
            .expect("65 537 divides no p − 1 of the test key");
        assert_eq!(other.public().n(), key.public().n());
        let (cubed, other_sig) = (key.sign(b"m"), other.sign(b"m"));
        assert_ne!(cubed, other_sig);
        assert!(other.public().verify(b"m", &other_sig));
        assert!(!other.public().verify(b"m", &cubed));
        assert!(!key.public().verify(b"m", &other_sig));
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
        sig.0 = sig.0.mod_add(&Ubig::one(), key.public().n());
        assert!(!key.public().verify(b"m", &sig));
        // Out-of-range signatures rejected outright, even one congruent
        // to a valid signature modulo `n`.
        let oversized = RsaSignature(key.public().n().clone());
        assert!(!key.public().verify(b"m", &oversized));
        let valid = key.sign(b"m");
        assert!(key.public().verify(b"m", &valid));
        let shifted = RsaSignature(&valid.0 + key.public().n());
        assert!(!key.public().verify(b"m", &shifted));
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
        let x = fdh(b"m", key.public().n());
        assert!(x < *key.public().n());
        let other = key.public().n() + &Ubig::from(4u64);
        assert_ne!(fdh(b"m", &other), x);
    }
}
