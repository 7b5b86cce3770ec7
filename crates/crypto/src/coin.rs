//! The Cachin–Kursawe–Shoup threshold coin-tossing scheme.
//!
//! An `(n, k, t)` dual-threshold coin: `n` parties each hold a share of an
//! unpredictable pseudorandom function `F`; any `k > t` shares evaluate
//! `F(name)` for an arbitrary bit-string `name`, while `t` corrupted
//! parties learn nothing. The construction works in a Schnorr group under
//! the computational Diffie–Hellman assumption in the random-oracle model:
//!
//! * dealing: Shamir-share a random `x ∈ Z_q` as `x_i = f(i)`; publish
//!   verification keys `V_i = g^{x_i}`;
//! * share for coin `name`: `σ_i = ĝ^{x_i}` where `ĝ = H(name)` is a
//!   full-domain hash into the group, plus a DLEQ proof that
//!   `log_g V_i = log_ĝ σ_i`;
//! * assembly: Lagrange interpolation in the exponent recovers
//!   `ĝ^x = ĝ^{f(0)}`, which is hashed to the coin value.
//!
//! This is the randomness source of SINTRA's binary Byzantine agreement —
//! the component that circumvents the FLP impossibility result.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::Rng;

use sintra_bigint::Ubig;

use crate::dleq::{self, BatchEntry, DleqProof, DleqStatement};
use crate::group::SchnorrGroup;
use crate::polynomial::{lagrange_at_zero, Polynomial};
use crate::{hash, CryptoError, Result};

/// Cap on memoized coin bases `ĝ = H(name)`. A binary-agreement instance
/// touches one name per round; the cap covers many concurrent instances
/// and the map is simply cleared when full.
const MAX_CACHED_COIN_BASES: usize = 64;

/// Public parameters of a dealt coin: thresholds and verification keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinPublicKey {
    /// Total number of parties.
    pub n: usize,
    /// Shares needed to assemble a coin (`t < k <= n - t`).
    pub k: usize,
    /// `V_i = g^{x_i}` for each party `i` (0-based).
    pub verification_keys: Vec<Ubig>,
}

/// One party's secret coin key `x_i = f(i+1)`.
#[derive(Debug, Clone)]
pub struct CoinSecretShare {
    /// The holder's 0-based party index.
    pub index: usize,
    key: Ubig,
}

/// A released coin share: `σ_i = ĝ^{x_i}` plus its validity proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinShare {
    /// 0-based index of the releasing party.
    pub index: usize,
    /// The share value `ĝ^{x_i}`.
    pub value: Ubig,
    /// DLEQ proof binding the share to the verification key.
    pub proof: DleqProof,
}

/// A threshold coin instance: group + public key, shared by all parties.
///
/// See the crate-level docs for a usage example.
///
/// The full-domain hash `ĝ = H(name)` costs a cofactor exponentiation —
/// nearly a full `p`-bit exponentiation — so the scheme memoizes it per
/// coin name (shared across clones): generating and verifying the `n`
/// shares of one round then hashes into the group once, not `2n` times.
#[derive(Debug, Clone)]
pub struct CoinScheme {
    group: SchnorrGroup,
    public: CoinPublicKey,
    bases: Arc<Mutex<HashMap<Vec<u8>, Ubig>>>,
}

const SHARE_DOMAIN: &[u8] = b"sintra-coin-share";

impl CoinScheme {
    /// Trusted-dealer key generation for `n` parties with reconstruction
    /// threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= n`.
    pub fn deal<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        n: usize,
        k: usize,
        rng: &mut R,
    ) -> (CoinPublicKey, Vec<CoinSecretShare>) {
        assert!(k >= 1 && k <= n, "threshold must satisfy 1 <= k <= n");
        let secret = group.random_exponent(rng);
        let poly = Polynomial::random_with_constant(secret, k - 1, group.order(), rng);
        let shares = poly.shares(n);
        let verification_keys = shares.iter().map(|x| group.pow_g(x)).collect();
        let secrets = shares
            .into_iter()
            .enumerate()
            .map(|(index, key)| CoinSecretShare { index, key })
            .collect();
        (
            CoinPublicKey {
                n,
                k,
                verification_keys,
            },
            secrets,
        )
    }

    /// Binds a scheme instance to a group and public key.
    pub fn new(group: SchnorrGroup, public: CoinPublicKey) -> Self {
        CoinScheme {
            group,
            public,
            bases: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &CoinPublicKey {
        &self.public
    }

    /// The underlying group.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Reconstruction threshold `k`.
    pub fn threshold(&self) -> usize {
        self.public.k
    }

    /// `ĝ = H(name)`, memoized per name, with a fixed-base table in the
    /// group's cache so every exponentiation of `ĝ` in this round (share
    /// generation *and* verification) is squaring-free. The group's cache
    /// may have dropped the table since the name was first seen; it is
    /// registered again then.
    fn coin_base(&self, name: &[u8]) -> Ubig {
        let mut bases = self.bases.lock().expect("coin base cache");
        let base = match bases.get(name) {
            Some(base) => base.clone(),
            None => {
                let base = self.group.hash_to_group(b"sintra-coin-base", name);
                if bases.len() >= MAX_CACHED_COIN_BASES {
                    bases.clear();
                }
                bases.insert(name.to_vec(), base.clone());
                base
            }
        };
        self.group.cache_base(&base);
        base
    }

    /// Releases this party's share of the coin `name`.
    pub fn release_share(&self, name: &[u8], secret: &CoinSecretShare) -> CoinShare {
        let g_hat = self.coin_base(name);
        let value = self.group.pow_cached(&g_hat, &secret.key);
        let stmt = DleqStatement {
            g: self.group.generator(),
            h: &self.public.verification_keys[secret.index],
            u: &g_hat,
            v: &value,
        };
        let proof = dleq::prove_deterministic(&self.group, SHARE_DOMAIN, &stmt, &secret.key);
        CoinShare {
            index: secret.index,
            value,
            proof,
        }
    }

    /// Verifies a putative share of coin `name`.
    ///
    /// The share value is subgroup-checked here (it arrives from an
    /// untrusted peer); the verification key is a dealer-published group
    /// member, so the proof itself runs in pre-verified mode.
    pub fn verify_share(&self, name: &[u8], share: &CoinShare) -> bool {
        if share.index >= self.public.n || !self.group.is_element(&share.value) {
            return false;
        }
        let g_hat = self.coin_base(name);
        let stmt = DleqStatement {
            g: self.group.generator(),
            h: &self.public.verification_keys[share.index],
            u: &g_hat,
            v: &share.value,
        };
        dleq::verify_preverified(&self.group, SHARE_DOMAIN, &stmt, &share.proof)
    }

    /// Verifies a batch of shares of coin `name` in (amortized) one
    /// multi-exponentiation, falling back to per-share verification when
    /// the combined check fails so invalid shares are attributed to their
    /// senders. Returns per-share validity, parallel to `shares`.
    pub fn verify_shares(&self, name: &[u8], shares: &[CoinShare]) -> Vec<bool> {
        let mut ok = vec![true; shares.len()];
        let mut entries = Vec::with_capacity(shares.len());
        let mut positions = Vec::with_capacity(shares.len());
        for (pos, share) in shares.iter().enumerate() {
            // Structural checks stay per-share; only the proof equations
            // are batched.
            if share.index >= self.public.n || !self.group.is_element(&share.value) {
                ok[pos] = false;
                continue;
            }
            entries.push(BatchEntry {
                h: &self.public.verification_keys[share.index],
                v: &share.value,
                proof: &share.proof,
            });
            positions.push(pos);
        }
        if entries.is_empty() {
            return ok;
        }
        let g_hat = self.coin_base(name);
        let verdicts = dleq::verify_batch_or_each(&self.group, SHARE_DOMAIN, &g_hat, &entries);
        for (pos, valid) in positions.into_iter().zip(verdicts) {
            ok[pos] = valid;
        }
        ok
    }

    /// Assembles `k` verified shares into `len` pseudorandom bytes.
    ///
    /// Shares are re-verified here (callers in BFT protocols may have
    /// collected them from untrusted peers).
    ///
    /// # Errors
    ///
    /// Fails when fewer than `k` shares are supplied, on duplicate holder
    /// indices, or when any share fails verification.
    pub fn assemble(&self, name: &[u8], shares: &[CoinShare], len: usize) -> Result<Vec<u8>> {
        if shares.len() < self.public.k {
            return Err(CryptoError::NotEnoughShares {
                needed: self.public.k,
                got: shares.len(),
            });
        }
        let used = &shares[..self.public.k];
        let mut seen = vec![false; self.public.n];
        for share in used {
            if share.index >= self.public.n {
                return Err(CryptoError::InvalidShare { index: share.index });
            }
            if seen[share.index] {
                return Err(CryptoError::DuplicateShare { index: share.index });
            }
            seen[share.index] = true;
        }
        for (share, valid) in used.iter().zip(self.verify_shares(name, used)) {
            if !valid {
                return Err(CryptoError::InvalidShare { index: share.index });
            }
        }
        // Lagrange interpolation in the exponent at the 1-based points,
        // as one simultaneous multi-exponentiation.
        let points: Vec<u64> = used.iter().map(|s| s.index as u64 + 1).collect();
        let lambdas = lagrange_at_zero(&points, self.group.order());
        let pairs: Vec<(&Ubig, &Ubig)> = used
            .iter()
            .zip(lambdas.iter())
            .map(|(share, lambda)| (&share.value, lambda))
            .collect();
        let acc = self.group.multi_pow(&pairs);
        // acc = ĝ^{f(0)}; expand to the requested output length.
        let mut input = acc.to_be_bytes();
        input.extend_from_slice(name);
        Ok(hash::expand(b"sintra-coin-out", &input, len))
    }

    /// Convenience: assembles the coin and returns its first bit, the form
    /// binary Byzantine agreement consumes.
    pub fn assemble_bit(&self, name: &[u8], shares: &[CoinShare]) -> Result<bool> {
        let bytes = self.assemble(name, shares, 1)?;
        Ok(bytes[0] & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, k: usize) -> (CoinScheme, Vec<CoinSecretShare>) {
        let mut rng = StdRng::seed_from_u64(41);
        let group = SchnorrGroup::generate(96, 32, &mut rng);
        let (public, secrets) = CoinScheme::deal(&group, n, k, &mut rng);
        (CoinScheme::new(group, public), secrets)
    }

    /// A coin name whose base the group's 16-table cache dropped (here,
    /// for 20 newer names) gets its table back: a warm release costs what
    /// it did before, and the release that found the table gone pays for
    /// building it once.
    #[test]
    fn evicted_coin_bases_are_registered_again() {
        let (scheme, secrets) = setup(4, 2);
        let charge = |name: &[u8]| {
            let scope = cost::CostScope::enter();
            scheme.release_share(name, &secrets[0]);
            scope.elapsed()
        };
        charge(b"kept");
        let warm = charge(b"kept");
        for i in 0..20u32 {
            charge(&i.to_be_bytes());
        }
        let rebuilt = charge(b"kept");
        assert!((charge(b"kept") - warm).abs() < 1e-12, "{warm}");
        let group = scheme.group();
        let table = group.cache_base(&scheme.coin_base(b"kept"));
        let build = table.entries() as f64 * cost::mul_work(group.modulus_bits());
        assert!(
            (rebuilt - warm - build).abs() < 1e-12,
            "{rebuilt} {warm} {build}"
        );
    }

    #[test]
    fn all_share_subsets_agree() {
        let (scheme, secrets) = setup(4, 2);
        let name = b"round 3";
        let shares: Vec<CoinShare> = secrets
            .iter()
            .map(|s| scheme.release_share(name, s))
            .collect();
        let reference = scheme.assemble(name, &shares[0..2], 32).unwrap();
        for subset in [[0usize, 2], [1, 3], [2, 3], [3, 0]] {
            let sel = [shares[subset[0]].clone(), shares[subset[1]].clone()];
            assert_eq!(
                scheme.assemble(name, &sel, 32).unwrap(),
                reference,
                "subset {subset:?}"
            );
        }
    }

    #[test]
    fn different_names_different_coins() {
        let (scheme, secrets) = setup(4, 2);
        let mk = |name: &[u8]| {
            let shares: Vec<CoinShare> = secrets
                .iter()
                .take(2)
                .map(|s| scheme.release_share(name, s))
                .collect();
            scheme.assemble(name, &shares, 16).unwrap()
        };
        assert_ne!(mk(b"coin-1"), mk(b"coin-2"));
    }

    #[test]
    fn share_verification_catches_forgery() {
        let (scheme, secrets) = setup(4, 2);
        let name = b"c";
        let mut share = scheme.release_share(name, &secrets[0]);
        assert!(scheme.verify_share(name, &share));
        // Tamper with the share value.
        share.value = scheme.group().mul(&share.value, scheme.group().generator());
        assert!(!scheme.verify_share(name, &share));
        // Share for a different coin name does not verify.
        let other = scheme.release_share(b"different", &secrets[0]);
        assert!(!scheme.verify_share(name, &other));
    }

    #[test]
    fn assemble_rejects_bad_inputs() {
        let (scheme, secrets) = setup(4, 3);
        let name = b"c";
        let shares: Vec<CoinShare> = secrets
            .iter()
            .map(|s| scheme.release_share(name, s))
            .collect();
        assert!(matches!(
            scheme.assemble(name, &shares[..2], 8),
            Err(CryptoError::NotEnoughShares { needed: 3, got: 2 })
        ));
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[1].clone()];
        assert!(matches!(
            scheme.assemble(name, &dup, 8),
            Err(CryptoError::DuplicateShare { index: 0 })
        ));
        let mut bad = shares[..3].to_vec();
        bad[1].value = Ubig::from(4u64);
        assert!(matches!(
            scheme.assemble(name, &bad, 8),
            Err(CryptoError::InvalidShare { index: 1 })
        ));
    }

    #[test]
    fn coin_bits_are_balanced_ish() {
        let (scheme, secrets) = setup(4, 2);
        let mut ones = 0;
        let total = 60;
        for i in 0..total {
            let name = format!("coin-{i}");
            let shares: Vec<CoinShare> = secrets
                .iter()
                .take(2)
                .map(|s| scheme.release_share(name.as_bytes(), s))
                .collect();
            if scheme.assemble_bit(name.as_bytes(), &shares).unwrap() {
                ones += 1;
            }
        }
        // Loose sanity bound: a constant coin would fail this.
        assert!(ones > 10 && ones < 50, "got {ones}/{total} ones");
    }

    #[test]
    fn batch_verification_accepts_honest_shares() {
        let (scheme, secrets) = setup(5, 3);
        let name = b"batch";
        let shares: Vec<CoinShare> = secrets
            .iter()
            .map(|s| scheme.release_share(name, s))
            .collect();
        assert_eq!(scheme.verify_shares(name, &shares), vec![true; 5]);
    }

    #[test]
    fn batch_verification_attributes_corrupted_share() {
        let (scheme, secrets) = setup(5, 3);
        let name = b"batch";
        let mut shares: Vec<CoinShare> = secrets
            .iter()
            .map(|s| scheme.release_share(name, s))
            .collect();
        // Corrupt one value (still a subgroup member) and one proof.
        shares[2].value = scheme
            .group()
            .mul(&shares[2].value, scheme.group().generator());
        shares[4].proof.response = shares[4]
            .proof
            .response
            .mod_add(&Ubig::one(), scheme.group().order());
        assert_eq!(
            scheme.verify_shares(name, &shares),
            vec![true, true, false, true, false]
        );
        // A non-member value is caught by the structural pre-check.
        shares[0].value = Ubig::from(4u64);
        assert!(!scheme.verify_shares(name, &shares)[0]);
        // Out-of-range index likewise.
        shares[1].index = 99;
        assert!(!scheme.verify_shares(name, &shares)[1]);
    }

    #[test]
    fn output_length_is_respected() {
        let (scheme, secrets) = setup(4, 2);
        let shares: Vec<CoinShare> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.release_share(b"c", s))
            .collect();
        for len in [0usize, 1, 16, 33, 100] {
            assert_eq!(scheme.assemble(b"c", &shares, len).unwrap().len(), len);
        }
    }
}
