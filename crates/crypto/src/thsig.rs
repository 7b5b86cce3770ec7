//! Threshold signatures: Shoup's RSA scheme and multi-signatures.
//!
//! SINTRA uses `(n, k, t)` dual-threshold signatures to justify protocol
//! votes non-interactively: `k` signature shares assemble into one compact
//! object that any party can verify. Two interchangeable implementations
//! are provided, exactly as in the paper (§2.1):
//!
//! * **Shoup RSA** ([Shoup, EUROCRYPT 2000]): a true threshold signature
//!   over a safe-prime RSA modulus. Shares carry proofs of correctness;
//!   the assembled signature is a standard RSA signature on the squared
//!   full-domain hash. Constant-size but computationally heavy (full-width
//!   exponentiations).
//! * **Multi-signatures**: a vector of `k` ordinary RSA signatures from
//!   distinct parties. Larger on the wire but much cheaper to produce
//!   (CRT exponentiation), which is why the paper's measurements default
//!   to this configuration.
//!
//! The two share one API — [`ThresholdSigPublic`] / [`ThresholdSigKit`] —
//! so protocols are agnostic to the flavor, mirroring the paper's
//! "requires no change to the protocols" observation.

use rand::Rng;
use std::fmt;

use sintra_bigint::{prime, Ibig, Montgomery, PrimeConfig, Ubig, UbigRandom};

use crate::polynomial::{factorial, integer_lagrange_at_zero, Polynomial};
use crate::rsa::{self, RsaPrivateKey, RsaPublicKey, RsaSignature};
use crate::{cost, hash, CryptoError, Result};

/// Which threshold-signature construction a group is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SigFlavor {
    /// Vector of ordinary RSA signatures (the paper's default test setup).
    #[default]
    Multi,
    /// Shoup's RSA threshold-signature scheme.
    ShoupRsa,
}

/// A safe-prime RSA modulus `N = p·q` with `p = 2p' + 1`, `q = 2q' + 1`,
/// the setting Shoup's scheme requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShoupModulus {
    /// First safe prime.
    pub p: Ubig,
    /// Second safe prime.
    pub q: Ubig,
}

impl ShoupModulus {
    /// Generates fresh safe primes of `bits/2` each. Very expensive at
    /// 1024 bits; prefer [`crate::fixtures::shoup_modulus`].
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Self {
        let config = PrimeConfig::default();
        let (p, _) = prime::gen_safe_prime(bits / 2, &config, rng);
        loop {
            let (q, _) = prime::gen_safe_prime(bits - bits / 2, &config, rng);
            if q != p {
                return ShoupModulus { p, q };
            }
        }
    }

    /// The public modulus `N`.
    pub fn n(&self) -> Ubig {
        &self.p * &self.q
    }

    /// The secret order `m = p'·q'` of the squares subgroup.
    pub fn m(&self) -> Ubig {
        let p_prime = &(&self.p - &Ubig::one()) >> 1;
        let q_prime = &(&self.q - &Ubig::one()) >> 1;
        &p_prime * &q_prime
    }
}

/// Public key of a dealt Shoup RSA threshold signature, with the
/// Montgomery context of `N` built once. Two keys are equal when their
/// public fields are.
#[derive(Clone)]
pub struct ShoupRsaPublic {
    /// Number of parties.
    pub n_parties: usize,
    /// Shares required to assemble.
    pub k: usize,
    /// The RSA modulus `N`.
    pub modulus: Ubig,
    /// Public verification exponent `e`.
    pub e: Ubig,
    /// Proof base `v` (a generator of the squares).
    pub v: Ubig,
    /// Per-party verification keys `v_i = v^{s_i}`.
    pub vks: Vec<Ubig>,
    /// Every exponentiation of the scheme is modulo `N`.
    mont: Montgomery,
}

impl PartialEq for ShoupRsaPublic {
    fn eq(&self, other: &Self) -> bool {
        (
            self.n_parties,
            self.k,
            &self.modulus,
            &self.e,
            &self.v,
            &self.vks,
        ) == (
            other.n_parties,
            other.k,
            &other.modulus,
            &other.e,
            &other.v,
            &other.vks,
        )
    }
}

impl Eq for ShoupRsaPublic {}

impl fmt::Debug for ShoupRsaPublic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShoupRsaPublic")
            .field("n_parties", &self.n_parties)
            .field("k", &self.k)
            .field("modulus", &self.modulus)
            .field("e", &self.e)
            .field("v", &self.v)
            .field("vks", &self.vks)
            .finish()
    }
}

/// One party's Shoup secret share `s_i = f(i+1) mod m`.
#[derive(Debug, Clone)]
pub struct ShoupRsaShare {
    index: usize,
    s: Ubig,
}

/// Proof that a Shoup signature share was computed from the dealt key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShoupShareProof {
    /// Fiat–Shamir challenge.
    pub challenge: Ubig,
    /// Response `z = s_i·c + r` over the integers.
    pub response: Ubig,
}

/// A threshold-signature share, wire-transportable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigShare {
    /// 0-based index of the signing party.
    pub index: usize,
    /// Scheme-specific body.
    pub body: SigShareBody,
}

/// Scheme-specific share contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigShareBody {
    /// Shoup share `σ_i` with correctness proof.
    ShoupRsa {
        /// The share value `x̂^{2Δ·s_i}`.
        sigma: Ubig,
        /// Correctness proof.
        proof: ShoupShareProof,
    },
    /// Multi-signature share: an ordinary RSA signature.
    Multi {
        /// The party's standalone signature.
        sig: RsaSignature,
    },
}

/// An assembled threshold signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdSignature {
    /// A single RSA signature `y` with `y^e = FDH(M)^2 mod N`.
    ShoupRsa(Ubig),
    /// `k` ordinary signatures from distinct parties.
    Multi(Vec<(usize, RsaSignature)>),
}

/// The shared public side of a threshold-signature configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdSigPublic {
    /// Shoup RSA public key.
    ShoupRsa(ShoupRsaPublic),
    /// Multi-signature configuration: threshold plus everyone's RSA keys.
    Multi {
        /// Shares required.
        k: usize,
        /// All parties' standard RSA public keys.
        keys: Vec<RsaPublicKey>,
    },
}

/// One party's secret side.
#[derive(Debug, Clone)]
pub enum ThresholdSigSecret {
    /// Shoup secret share.
    ShoupRsa(ShoupRsaShare),
    /// Multi-signature secret: the party's own RSA key.
    Multi {
        /// 0-based party index.
        index: usize,
        /// The party's standard RSA private key.
        key: RsaPrivateKey,
    },
}

/// A party's complete threshold-signature capability: the shared public
/// key plus this party's secret share.
#[derive(Debug, Clone)]
pub struct ThresholdSigKit {
    /// Shared public parameters.
    pub public: ThresholdSigPublic,
    /// This party's secret.
    pub secret: ThresholdSigSecret,
}

/// Challenge length of the share-correctness proofs. Shoup's paper (and
/// SINTRA's SHA-1-based deployment) uses the hash length, 160 bits; the
/// nonce is padded by twice this amount for statistical hiding.
const PROOF_HASH_BITS: u32 = 160;

impl ShoupRsaPublic {
    /// Deals a Shoup threshold signature over `modulus` for `n` parties
    /// with threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= n`.
    pub fn deal<R: Rng + ?Sized>(
        modulus: &ShoupModulus,
        n: usize,
        k: usize,
        rng: &mut R,
    ) -> (ShoupRsaPublic, Vec<ShoupRsaShare>) {
        assert!(k >= 1 && k <= n, "threshold must satisfy 1 <= k <= n");
        let big_n = modulus.n();
        let m = modulus.m();
        let e = Ubig::from(rsa::SHOUP_PUBLIC_EXPONENT);
        let d = e.mod_inverse(&m).expect("e = 65 537 is prime and < p', q'");
        let poly = Polynomial::random_with_constant(d, k - 1, &m, rng);
        let shares: Vec<ShoupRsaShare> = poly
            .shares(n)
            .into_iter()
            .enumerate()
            .map(|(index, s)| ShoupRsaShare { index, s })
            .collect();
        // v: a random square (generator of QR_N with overwhelming prob.).
        let v = loop {
            let r = rng.gen_ubig_range(&Ubig::two(), &big_n);
            if r.gcd(&big_n).is_one() {
                break r.mod_mul(&r, &big_n);
            }
        };
        let mont = Montgomery::new(&big_n);
        let vks = shares
            .iter()
            .map(|s| cost::mont_pow(&mont, &v, &s.s))
            .collect();
        (
            ShoupRsaPublic {
                n_parties: n,
                k,
                modulus: big_n,
                e,
                v,
                vks,
                mont,
            },
            shares,
        )
    }

    /// `Δ = n!`.
    fn delta(&self) -> Ubig {
        factorial(self.n_parties as u64)
    }

    /// The squared full-domain hash `x̂ = FDH(M)^2 mod N` that assembled
    /// signatures verify against.
    pub fn digest(&self, message: &[u8]) -> Ubig {
        let x = rsa::fdh(message, &self.modulus);
        x.mod_mul(&x, &self.modulus)
    }

    fn x_tilde(&self, x_hat: &Ubig) -> Ubig {
        let exp = &self.delta() << 2; // 4Δ
        cost::mont_pow(&self.mont, x_hat, &exp)
    }

    fn proof_challenge(
        &self,
        x_tilde: &Ubig,
        vk: &Ubig,
        sigma_sq: &Ubig,
        v_commit: &Ubig,
        x_commit: &Ubig,
    ) -> Ubig {
        let mut data = Vec::new();
        for part in [&self.v, x_tilde, vk, sigma_sq, v_commit, x_commit] {
            let bytes = part.to_be_bytes();
            data.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            data.extend_from_slice(&bytes);
        }
        let bound = &Ubig::one() << PROOF_HASH_BITS;
        hash::hash_to_ubig(b"sintra-shoup-proof", &data, &bound)
    }

    /// Verifies a Shoup signature share over `message`.
    pub fn verify_share(&self, message: &[u8], share: &SigShare) -> bool {
        let SigShareBody::ShoupRsa { sigma, proof } = &share.body else {
            return false;
        };
        if share.index >= self.n_parties {
            return false;
        }
        if sigma.is_zero() || *sigma >= self.modulus {
            return false;
        }
        let x_hat = self.digest(message);
        let x_tilde = self.x_tilde(&x_hat);
        let vk = &self.vks[share.index];
        let sigma_sq = sigma.mod_mul(sigma, &self.modulus);
        // Recompute commitments: v^z · v_i^{-c}, x̃^z · (σ²)^{-c}.
        let Some(vk_inv) = vk.mod_inverse(&self.modulus) else {
            return false;
        };
        let Some(sig_sq_inv) = sigma_sq.mod_inverse(&self.modulus) else {
            return false;
        };
        let v_commit = cost::mont_pow(&self.mont, &self.v, &proof.response).mod_mul(
            &cost::mont_pow(&self.mont, &vk_inv, &proof.challenge),
            &self.modulus,
        );
        let x_commit = cost::mont_pow(&self.mont, &x_tilde, &proof.response).mod_mul(
            &cost::mont_pow(&self.mont, &sig_sq_inv, &proof.challenge),
            &self.modulus,
        );
        self.proof_challenge(&x_tilde, vk, &sigma_sq, &v_commit, &x_commit) == proof.challenge
    }

    /// Assembles `k` valid shares into a standard RSA signature.
    pub fn assemble(&self, message: &[u8], shares: &[SigShare]) -> Result<ThresholdSignature> {
        self.assemble_inner(message, shares, true)
    }

    /// Like [`Self::assemble`] but skips per-share proof verification;
    /// callers must have verified every share on receipt. Protocols use
    /// this to avoid paying the (dominant, for Shoup RSA) verification
    /// exponentiations twice.
    pub fn assemble_preverified(
        &self,
        message: &[u8],
        shares: &[SigShare],
    ) -> Result<ThresholdSignature> {
        self.assemble_inner(message, shares, false)
    }

    fn assemble_inner(
        &self,
        message: &[u8],
        shares: &[SigShare],
        verify: bool,
    ) -> Result<ThresholdSignature> {
        if shares.len() < self.k {
            return Err(CryptoError::NotEnoughShares {
                needed: self.k,
                got: shares.len(),
            });
        }
        let used = &shares[..self.k];
        let mut seen = vec![false; self.n_parties];
        for share in used {
            if share.index >= self.n_parties {
                return Err(CryptoError::InvalidShare { index: share.index });
            }
            if seen[share.index] {
                return Err(CryptoError::DuplicateShare { index: share.index });
            }
            seen[share.index] = true;
            if verify && !self.verify_share(message, share) {
                return Err(CryptoError::InvalidShare { index: share.index });
            }
        }
        let x_hat = self.digest(message);
        let points: Vec<u64> = used.iter().map(|s| s.index as u64 + 1).collect();
        let lambdas = integer_lagrange_at_zero(&points, self.n_parties as u64);
        // w = Π σ_i^{2λ'_i} mod N  (negative coefficients via inversion)
        let mut w = Ubig::one();
        for (share, lambda) in used.iter().zip(lambdas.iter()) {
            let SigShareBody::ShoupRsa { sigma, .. } = &share.body else {
                return Err(CryptoError::InvalidShare { index: share.index });
            };
            let exp = lambda.magnitude() << 1;
            let base = if lambda.is_negative() {
                sigma
                    .mod_inverse(&self.modulus)
                    .ok_or(CryptoError::InvalidShare { index: share.index })?
            } else {
                sigma.clone()
            };
            w = w.mod_mul(&cost::mont_pow(&self.mont, &base, &exp), &self.modulus);
        }
        // w^e = x̂^{e'} with e' = 4Δ²; gcd(e, e') = 1 since e is prime > n.
        let delta = self.delta();
        let e_prime = &(&delta * &delta) << 2;
        let (g, a, b) = e_prime.egcd(&self.e);
        debug_assert!(g.is_one(), "e is prime and does not divide 4Δ²");
        let pow_signed = |base: &Ubig, exp: &Ibig| -> Result<Ubig> {
            let raised = cost::mont_pow(&self.mont, base, exp.magnitude());
            if exp.is_negative() {
                raised
                    .mod_inverse(&self.modulus)
                    .ok_or(CryptoError::InvalidSignature)
            } else {
                Ok(raised)
            }
        };
        let y = pow_signed(&w, &a)?.mod_mul(&pow_signed(&x_hat, &b)?, &self.modulus);
        Ok(ThresholdSignature::ShoupRsa(y))
    }

    /// Verifies an assembled signature: `y^e = x̂ mod N`.
    pub fn verify(&self, message: &[u8], signature: &ThresholdSignature) -> bool {
        let ThresholdSignature::ShoupRsa(y) = signature else {
            return false;
        };
        if y.is_zero() || *y >= self.modulus {
            return false;
        }
        cost::mont_pow(&self.mont, y, &self.e) == self.digest(message)
    }
}

impl ThresholdSigPublic {
    /// Shares required to assemble a signature.
    pub fn threshold(&self) -> usize {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.k,
            ThresholdSigPublic::Multi { k, .. } => *k,
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.n_parties,
            ThresholdSigPublic::Multi { keys, .. } => keys.len(),
        }
    }

    /// The configured flavor.
    pub fn flavor(&self) -> SigFlavor {
        match self {
            ThresholdSigPublic::ShoupRsa(_) => SigFlavor::ShoupRsa,
            ThresholdSigPublic::Multi { .. } => SigFlavor::Multi,
        }
    }

    /// Verifies a single share over `message`.
    pub fn verify_share(&self, message: &[u8], share: &SigShare) -> bool {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.verify_share(message, share),
            ThresholdSigPublic::Multi { keys, .. } => {
                let SigShareBody::Multi { sig } = &share.body else {
                    return false;
                };
                share.index < keys.len() && keys[share.index].verify(message, sig)
            }
        }
    }

    /// Like [`Self::assemble`] for shares the caller has each verified
    /// over `message` on receipt, or signed itself: no share is verified
    /// again, in either flavor. What the shares cannot have told their
    /// verifier is still checked — that there are `k` of them, from
    /// distinct parties of the group.
    pub fn assemble_preverified(
        &self,
        message: &[u8],
        shares: &[SigShare],
    ) -> Result<ThresholdSignature> {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.assemble_preverified(message, shares),
            ThresholdSigPublic::Multi { k, keys } => multi_assemble(*k, keys, shares, None),
        }
    }

    /// Assembles at least `k` shares into a threshold signature.
    ///
    /// # Errors
    ///
    /// Fails on too few shares, duplicates, or invalid shares.
    pub fn assemble(&self, message: &[u8], shares: &[SigShare]) -> Result<ThresholdSignature> {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.assemble(message, shares),
            ThresholdSigPublic::Multi { k, keys } => {
                multi_assemble(*k, keys, shares, Some(message))
            }
        }
    }

    /// Verifies an assembled threshold signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &ThresholdSignature) -> bool {
        self.verify_beyond(message, signature, |_, _| false)
    }

    /// Verifies an assembled threshold signature over `message`, sparing
    /// the components `held(index, signature)` answers for: party
    /// `index`'s signature on this very `message`, verified before. The
    /// quorum's shape is checked whatever is held. A Shoup signature has
    /// no components and is verified whole.
    pub fn verify_beyond(
        &self,
        message: &[u8],
        signature: &ThresholdSignature,
        held: impl FnMut(usize, &RsaSignature) -> bool,
    ) -> bool {
        match self {
            ThresholdSigPublic::ShoupRsa(p) => p.verify(message, signature),
            ThresholdSigPublic::Multi { k, keys } => {
                let ThresholdSignature::Multi(sigs) = signature else {
                    return false;
                };
                rsa::verify_distinct_quorum(keys, message, sigs, *k, held).is_ok()
            }
        }
    }
}

/// The first `k` of `shares` as a multi-signature: from distinct parties
/// of the group, and each valid over `message` if one is given.
fn multi_assemble(
    k: usize,
    keys: &[RsaPublicKey],
    shares: &[SigShare],
    message: Option<&[u8]>,
) -> Result<ThresholdSignature> {
    if shares.len() < k {
        return Err(CryptoError::NotEnoughShares {
            needed: k,
            got: shares.len(),
        });
    }
    let mut out = Vec::with_capacity(k);
    let mut seen = vec![false; keys.len()];
    for share in &shares[..k] {
        if share.index >= keys.len() {
            return Err(CryptoError::InvalidShare { index: share.index });
        }
        if seen[share.index] {
            return Err(CryptoError::DuplicateShare { index: share.index });
        }
        seen[share.index] = true;
        let SigShareBody::Multi { sig } = &share.body else {
            return Err(CryptoError::InvalidShare { index: share.index });
        };
        if message.is_some_and(|message| !keys[share.index].verify(message, sig)) {
            return Err(CryptoError::InvalidShare { index: share.index });
        }
        out.push((share.index, sig.clone()));
    }
    Ok(ThresholdSignature::Multi(out))
}

impl ThresholdSigKit {
    /// Signs a share of `message` with this party's secret.
    pub fn sign_share(&self, message: &[u8]) -> SigShare {
        match (&self.public, &self.secret) {
            (ThresholdSigPublic::ShoupRsa(p), ThresholdSigSecret::ShoupRsa(share)) => {
                let x_hat = p.digest(message);
                let delta = p.delta();
                let exp = &(&delta * &share.s) << 1; // 2Δ·s_i
                let sigma = cost::mont_pow(&p.mont, &x_hat, &exp);
                // Correctness proof (Fiat–Shamir, deterministic nonce).
                let x_tilde = p.x_tilde(&x_hat);
                let sigma_sq = sigma.mod_mul(&sigma, &p.modulus);
                let nonce_bound = &Ubig::one() << (p.modulus.bit_length() + 2 * PROOF_HASH_BITS);
                let mut nonce_input = share.s.to_be_bytes();
                nonce_input.extend_from_slice(message);
                let r = hash::hash_to_ubig(b"sintra-shoup-nonce", &nonce_input, &nonce_bound);
                let v_commit = cost::mont_pow(&p.mont, &p.v, &r);
                let x_commit = cost::mont_pow(&p.mont, &x_tilde, &r);
                let c = p.proof_challenge(
                    &x_tilde,
                    &p.vks[share.index],
                    &sigma_sq,
                    &v_commit,
                    &x_commit,
                );
                let z = &(&share.s * &c) + &r;
                SigShare {
                    index: share.index,
                    body: SigShareBody::ShoupRsa {
                        sigma,
                        proof: ShoupShareProof {
                            challenge: c,
                            response: z,
                        },
                    },
                }
            }
            (ThresholdSigPublic::Multi { .. }, ThresholdSigSecret::Multi { index, key }) => {
                SigShare {
                    index: *index,
                    body: SigShareBody::Multi {
                        sig: key.sign(message),
                    },
                }
            }
            _ => unreachable!("kit flavor mismatch between public and secret"),
        }
    }

    /// This party's 0-based index.
    pub fn index(&self) -> usize {
        match &self.secret {
            ThresholdSigSecret::ShoupRsa(s) => s.index,
            ThresholdSigSecret::Multi { index, .. } => *index,
        }
    }
}

/// Deals a complete threshold-signature configuration of the requested
/// flavor. For [`SigFlavor::Multi`], `party_keys` must hold each party's
/// standard RSA private key (the dealer reuses them); for
/// [`SigFlavor::ShoupRsa`], a `modulus` must be supplied.
pub fn deal_kits<R: Rng + ?Sized>(
    flavor: SigFlavor,
    n: usize,
    k: usize,
    party_keys: &[RsaPrivateKey],
    modulus: Option<&ShoupModulus>,
    rng: &mut R,
) -> Vec<ThresholdSigKit> {
    match flavor {
        SigFlavor::Multi => {
            assert_eq!(party_keys.len(), n, "need one RSA key per party");
            let keys: Vec<RsaPublicKey> = party_keys.iter().map(|k| k.public().clone()).collect();
            party_keys
                .iter()
                .enumerate()
                .map(|(index, key)| ThresholdSigKit {
                    public: ThresholdSigPublic::Multi {
                        k,
                        keys: keys.clone(),
                    },
                    secret: ThresholdSigSecret::Multi {
                        index,
                        key: key.clone(),
                    },
                })
                .collect()
        }
        SigFlavor::ShoupRsa => {
            let modulus = modulus.expect("Shoup flavor needs a safe-prime modulus");
            let (public, shares) = ShoupRsaPublic::deal(modulus, n, k, rng);
            shares
                .into_iter()
                .map(|share| ThresholdSigKit {
                    public: ThresholdSigPublic::ShoupRsa(public.clone()),
                    secret: ThresholdSigSecret::ShoupRsa(share),
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shoup_setup(n: usize, k: usize) -> Vec<ThresholdSigKit> {
        let mut rng = StdRng::seed_from_u64(51);
        // Small safe primes for test speed: 2*q+1 structure at 64 bits.
        let modulus = ShoupModulus::generate(128, &mut rng);
        deal_kits(SigFlavor::ShoupRsa, n, k, &[], Some(&modulus), &mut rng)
    }

    fn multi_setup(n: usize, k: usize) -> Vec<ThresholdSigKit> {
        let mut rng = StdRng::seed_from_u64(52);
        let keys: Vec<RsaPrivateKey> = (0..n)
            .map(|_| RsaPrivateKey::generate(128, &mut rng))
            .collect();
        deal_kits(SigFlavor::Multi, n, k, &keys, None, &mut rng)
    }

    #[test]
    fn shoup_full_roundtrip() {
        let kits = shoup_setup(4, 3);
        let msg = b"agree on this";
        let shares: Vec<SigShare> = kits.iter().map(|k| k.sign_share(msg)).collect();
        for s in &shares {
            assert!(kits[0].public.verify_share(msg, s), "share {}", s.index);
        }
        let sig = kits[0].public.assemble(msg, &shares[..3]).unwrap();
        assert!(kits[0].public.verify(msg, &sig));
        assert!(!kits[0].public.verify(b"other message", &sig));
    }

    #[test]
    fn shoup_any_k_subset_assembles() {
        let kits = shoup_setup(4, 2);
        let msg = b"m";
        let shares: Vec<SigShare> = kits.iter().map(|k| k.sign_share(msg)).collect();
        for subset in [[0usize, 1], [1, 3], [2, 0], [3, 2]] {
            let sel = vec![shares[subset[0]].clone(), shares[subset[1]].clone()];
            let sig = kits[0].public.assemble(msg, &sel).unwrap();
            assert!(kits[0].public.verify(msg, &sig), "subset {subset:?}");
        }
    }

    #[test]
    fn shoup_rejects_bad_share() {
        let kits = shoup_setup(4, 2);
        let msg = b"m";
        let good = kits[0].sign_share(msg);
        // Share signed for another message fails verification for msg.
        let wrong_msg = kits[1].sign_share(b"not m");
        assert!(!kits[0].public.verify_share(msg, &wrong_msg));
        // Tampered sigma fails.
        let mut tampered = kits[1].sign_share(msg);
        if let SigShareBody::ShoupRsa { sigma, .. } = &mut tampered.body {
            *sigma = sigma.mod_add(
                &Ubig::one(),
                match &kits[0].public {
                    ThresholdSigPublic::ShoupRsa(p) => &p.modulus,
                    _ => unreachable!(),
                },
            );
        }
        assert!(!kits[0].public.verify_share(msg, &tampered));
        assert!(matches!(
            kits[0].public.assemble(msg, &[good, tampered]),
            Err(CryptoError::InvalidShare { index: 1 })
        ));
    }

    #[test]
    fn multi_full_roundtrip() {
        let kits = multi_setup(4, 3);
        let msg = b"batch 7";
        let shares: Vec<SigShare> = kits.iter().map(|k| k.sign_share(msg)).collect();
        for s in &shares {
            assert!(kits[0].public.verify_share(msg, s));
        }
        let sig = kits[0].public.assemble(msg, &shares[..3]).unwrap();
        assert!(kits[0].public.verify(msg, &sig));
        assert!(!kits[0].public.verify(b"x", &sig));
    }

    #[test]
    fn multi_rejects_duplicates_and_shortfalls() {
        let kits = multi_setup(3, 2);
        let msg = b"m";
        let s0 = kits[0].sign_share(msg);
        assert!(matches!(
            kits[0].public.assemble(msg, std::slice::from_ref(&s0)),
            Err(CryptoError::NotEnoughShares { needed: 2, got: 1 })
        ));
        assert!(matches!(
            kits[0].public.assemble(msg, &[s0.clone(), s0]),
            Err(CryptoError::DuplicateShare { index: 0 })
        ));
    }

    #[test]
    fn preverified_multi_assembly_checks_the_shape_and_nothing_else() {
        let kits = multi_setup(4, 3);
        let public = &kits[0].public;
        let msg = b"m";
        let shares: Vec<SigShare> = kits.iter().map(|k| k.sign_share(msg)).collect();
        let scope = cost::CostScope::enter();
        let sig = public.assemble_preverified(msg, &shares).unwrap();
        assert!(matches!(
            public.assemble_preverified(msg, &shares[..2]),
            Err(CryptoError::NotEnoughShares { needed: 3, got: 2 })
        ));
        let twice = [shares[0].clone(), shares[0].clone(), shares[1].clone()];
        assert!(matches!(
            public.assemble_preverified(msg, &twice),
            Err(CryptoError::DuplicateShare { index: 0 })
        ));
        assert_eq!(scope.elapsed(), 0.0, "no share is verified again");
        assert_eq!(sig, public.assemble(msg, &shares).unwrap());
        // Verification spares exactly the components it is told are held.
        let ThresholdSignature::Multi(components) = &sig else {
            panic!("multi flavor");
        };
        let scope = cost::CostScope::enter();
        assert!(public.verify_beyond(msg, &sig, |index, s| *s == components[index].1));
        assert_eq!(scope.elapsed(), 0.0);
        assert!(!public.verify_beyond(b"other", &sig, |index, _| index != 2));
        assert!(scope.elapsed() > 0.0);
    }

    #[test]
    fn cross_flavor_objects_rejected() {
        let multi = multi_setup(3, 2);
        let shoup = shoup_setup(3, 2);
        let msg = b"m";
        let multi_share = multi[0].sign_share(msg);
        let shoup_share = shoup[0].sign_share(msg);
        assert!(!multi[0].public.verify_share(msg, &shoup_share));
        assert!(!shoup[0].public.verify_share(msg, &multi_share));
        let multi_sig = multi[0]
            .public
            .assemble(msg, &[multi[0].sign_share(msg), multi[1].sign_share(msg)])
            .unwrap();
        assert!(!shoup[0].public.verify(msg, &multi_sig));
    }

    #[test]
    fn public_accessors() {
        let kits = multi_setup(5, 3);
        assert_eq!(kits[0].public.threshold(), 3);
        assert_eq!(kits[0].public.parties(), 5);
        assert_eq!(kits[0].public.flavor(), SigFlavor::Multi);
        assert_eq!(kits[2].index(), 2);
    }
}
