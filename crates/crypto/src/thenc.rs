//! The Shoup–Gennaro TDH2 threshold cryptosystem.
//!
//! Secure causal atomic broadcast needs public-key encryption where
//! decryption requires a quorum: a client encrypts under the group's key,
//! the ciphertext is atomically ordered, and only then do `k` servers
//! cooperatively decrypt. TDH2 (Shoup & Gennaro, EUROCRYPT '98) provides
//! exactly this with security against adaptive chosen-ciphertext attacks —
//! necessary so an adversary cannot maul an ordered ciphertext into a
//! related one, which would break causality.
//!
//! The scheme lives in the same Schnorr-group setting as the coin and is
//! hybridized here with ChaCha20 for arbitrary-length payloads (the paper
//! used MARS).

use std::sync::Arc;

use rand::Rng;
use sintra_bigint::{FixedBase, Ubig};

use crate::dleq::{self, BatchEntry, DleqProof, DleqStatement, ManyStatement};
use crate::group::SchnorrGroup;
use crate::polynomial::{lagrange_at_zero, Polynomial};
use crate::{chacha, hash, CryptoError, Result};

/// Public key of a dealt TDH2 instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncPublicKey {
    /// Number of parties.
    pub n: usize,
    /// Decryption shares required.
    pub k: usize,
    /// The encryption key `h = g^x`.
    pub h: Ubig,
    /// Per-party verification keys `h_i = g^{x_i}`.
    pub verification_keys: Vec<Ubig>,
}

/// One party's secret decryption share `x_i`.
#[derive(Debug, Clone)]
pub struct EncSecretShare {
    /// The holder's 0-based index.
    pub index: usize,
    key: Ubig,
}

/// A TDH2 ciphertext.
///
/// `(data, label, u, ū, e, f)`: ChaCha20-sealed payload, a binding label
/// (SINTRA uses the protocol identifier), the ElGamal point `u = g^r`, and
/// the validity proof `(ū = ḡ^r, e, f)` that makes the scheme CCA2-secure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// Symmetrically sealed payload.
    pub data: Vec<u8>,
    /// Context label bound into the validity proof.
    pub label: Vec<u8>,
    /// `u = g^r`.
    pub u: Ubig,
    /// `ū = ḡ^r`.
    pub u_bar: Ubig,
    /// Proof challenge.
    pub e: Ubig,
    /// Proof response `f = s + r·e`.
    pub f: Ubig,
}

/// A decryption share `u_i = u^{x_i}` with its correctness proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptionShare {
    /// 0-based index of the releasing party.
    pub index: usize,
    /// The share value `u^{x_i}`.
    pub value: Ubig,
    /// DLEQ proof against the verification key.
    pub proof: DleqProof,
}

/// One party's decryption shares for several ciphertexts, `u_j^{x_i}` in
/// the order of the ciphertexts, under one batched DLEQ proof
/// ([`dleq::prove_many`]) against the verification key `h_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptionBatch {
    /// 0-based index of the releasing party.
    pub index: usize,
    /// The share values, one per ciphertext.
    pub values: Vec<Ubig>,
    /// One proof that every value has the exponent of `h_i`.
    pub proof: DleqProof,
}

/// A TDH2 scheme instance bound to a group and public key.
#[derive(Debug, Clone)]
pub struct EncScheme {
    group: SchnorrGroup,
    public: EncPublicKey,
    /// The fixed-base table of `h`, held here so that the group's capped
    /// table cache cannot take it away.
    h_table: Arc<FixedBase>,
}

const SHARE_DOMAIN: &[u8] = b"sintra-tdh2-share";

impl EncScheme {
    /// Trusted-dealer key generation.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= n`.
    pub fn deal<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        n: usize,
        k: usize,
        rng: &mut R,
    ) -> (EncPublicKey, Vec<EncSecretShare>) {
        assert!(k >= 1 && k <= n, "threshold must satisfy 1 <= k <= n");
        let x = group.random_exponent(rng);
        let h = group.pow_g(&x);
        let poly = Polynomial::random_with_constant(x, k - 1, group.order(), rng);
        let shares = poly.shares(n);
        let verification_keys = shares.iter().map(|xi| group.pow_g(xi)).collect();
        let secrets = shares
            .into_iter()
            .enumerate()
            .map(|(index, key)| EncSecretShare { index, key })
            .collect();
        (
            EncPublicKey {
                n,
                k,
                h,
                verification_keys,
            },
            secrets,
        )
    }

    /// Binds a scheme instance to its parameters.
    ///
    /// Registers a fixed-base table for the encryption key `h` and keeps
    /// it: every encryption exponentiates `h`, and the table makes that
    /// squaring-free like the generator exponentiations, however many
    /// other bases (coin bases) the group caches later.
    pub fn new(group: SchnorrGroup, public: EncPublicKey) -> Self {
        let h_table = group.cache_base(&public.h);
        EncScheme {
            group,
            public,
            h_table,
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &EncPublicKey {
        &self.public
    }

    /// The underlying group.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Decryption threshold `k`.
    pub fn threshold(&self) -> usize {
        self.public.k
    }

    fn validity_challenge(
        &self,
        data: &[u8],
        label: &[u8],
        u: &Ubig,
        w: &Ubig,
        u_bar: &Ubig,
        w_bar: &Ubig,
    ) -> Ubig {
        let mut input = Vec::new();
        input.extend_from_slice(&(data.len() as u32).to_be_bytes());
        input.extend_from_slice(data);
        input.extend_from_slice(&(label.len() as u32).to_be_bytes());
        input.extend_from_slice(label);
        for part in [u, w, u_bar, w_bar] {
            let bytes = part.to_be_bytes();
            input.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            input.extend_from_slice(&bytes);
        }
        self.group.hash_to_exponent(b"sintra-tdh2-validity", &input)
    }

    /// Encrypts `message` under the group key, bound to `label`.
    ///
    /// Anyone holding only the public key can encrypt — in SINTRA this is
    /// how external clients submit confidential requests.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        label: &[u8],
        message: &[u8],
        rng: &mut R,
    ) -> Ciphertext {
        let r = self.group.random_exponent(rng);
        let s = self.group.random_exponent(rng);
        let shared = self.group.pow_table(&self.h_table, &r);
        let data = chacha::seal(&shared.to_be_bytes(), message);
        let u = self.group.pow_g(&r);
        let w = self.group.pow_g(&s);
        let u_bar = self.group.pow_g_bar(&r);
        let w_bar = self.group.pow_g_bar(&s);
        let e = self.validity_challenge(&data, label, &u, &w, &u_bar, &w_bar);
        let f = s.mod_add(&r.mod_mul(&e, self.group.order()), self.group.order());
        Ciphertext {
            data,
            label: label.to_vec(),
            u,
            u_bar,
            e,
            f,
        }
    }

    /// Checks the ciphertext validity proof (the CCA2 barrier). All
    /// parties run this before releasing decryption shares.
    pub fn verify_ciphertext(&self, ct: &Ciphertext) -> bool {
        if !self.group.is_element(&ct.u) || !self.group.is_element(&ct.u_bar) {
            return false;
        }
        if ct.e >= *self.group.order() || ct.f >= *self.group.order() {
            return false;
        }
        // Recompute w = g^f·u^{-e} and w̄ = ḡ^f·ū^{-e}, each as one
        // multi-exponentiation; the negated exponents are sound because
        // u and ū passed the subgroup checks above.
        let neg_e = self.group.neg_exponent(&ct.e);
        let w = self
            .group
            .multi_pow(&[(self.group.generator(), &ct.f), (&ct.u, &neg_e)]);
        let w_bar = self
            .group
            .multi_pow(&[(self.group.generator_bar(), &ct.f), (&ct.u_bar, &neg_e)]);
        self.validity_challenge(&ct.data, &ct.label, &ct.u, &w, &ct.u_bar, &w_bar) == ct.e
    }

    /// Produces this party's decryption share for a *valid* ciphertext.
    ///
    /// Returns `None` if the ciphertext fails its validity proof — an
    /// honest party must not release shares for malformed ciphertexts.
    pub fn decryption_share(
        &self,
        ct: &Ciphertext,
        secret: &EncSecretShare,
    ) -> Option<DecryptionShare> {
        self.verify_ciphertext(ct)
            .then(|| self.decryption_share_prechecked(ct, secret))
    }

    /// [`EncScheme::decryption_share`] for a caller that has already run
    /// [`EncScheme::verify_ciphertext`] on `ct` and seen it pass.
    /// Releasing a share for an unchecked ciphertext breaks CCA2
    /// security.
    pub fn decryption_share_prechecked(
        &self,
        ct: &Ciphertext,
        secret: &EncSecretShare,
    ) -> DecryptionShare {
        let value = self.group.pow(&ct.u, &secret.key);
        let stmt = DleqStatement {
            g: self.group.generator(),
            h: &self.public.verification_keys[secret.index],
            u: &ct.u,
            v: &value,
        };
        let proof = dleq::prove_deterministic(&self.group, SHARE_DOMAIN, &stmt, &secret.key);
        DecryptionShare {
            index: secret.index,
            value,
            proof,
        }
    }

    /// Verifies a peer's decryption share against a ciphertext.
    ///
    /// The share value is subgroup-checked here; `ct.u` is assumed already
    /// validated (honest parties check [`EncScheme::verify_ciphertext`],
    /// which includes the membership test, before touching shares).
    pub fn verify_share(&self, ct: &Ciphertext, share: &DecryptionShare) -> bool {
        if share.index >= self.public.n || !self.group.is_element(&share.value) {
            return false;
        }
        let stmt = DleqStatement {
            g: self.group.generator(),
            h: &self.public.verification_keys[share.index],
            u: &ct.u,
            v: &share.value,
        };
        dleq::verify_preverified(&self.group, SHARE_DOMAIN, &stmt, &share.proof)
    }

    /// Verifies a batch of decryption shares for one ciphertext with a
    /// single combined check (falling back to per-share verification to
    /// attribute blame). Returns per-share validity, parallel to `shares`.
    ///
    /// Same precondition as [`EncScheme::verify_share`]: `ct` has already
    /// passed [`EncScheme::verify_ciphertext`].
    pub fn verify_shares(&self, ct: &Ciphertext, shares: &[DecryptionShare]) -> Vec<bool> {
        let mut ok = vec![true; shares.len()];
        let mut entries = Vec::with_capacity(shares.len());
        let mut positions = Vec::with_capacity(shares.len());
        for (pos, share) in shares.iter().enumerate() {
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
        let verdicts = dleq::verify_batch_or_each(&self.group, SHARE_DOMAIN, &ct.u, &entries);
        for (pos, valid) in positions.into_iter().zip(verdicts) {
            ok[pos] = valid;
        }
        ok
    }

    /// What holder `index`'s batched proof is bound to besides its pairs.
    fn bound(context: &[u8], index: usize) -> Vec<u8> {
        [context, &(index as u32).to_be_bytes()].concat()
    }

    /// This party's decryption shares for `cts`, every one of which has
    /// passed [`EncScheme::verify_ciphertext`], under one proof bound to
    /// `context` (in SINTRA the channel and the round that ordered them).
    /// With one ciphertext the value and proof are
    /// [`EncScheme::decryption_share_prechecked`]'s, at the same cost.
    ///
    /// # Panics
    ///
    /// Panics if `cts` is empty.
    pub fn batch_share_prechecked(
        &self,
        context: &[u8],
        cts: &[&Ciphertext],
        secret: &EncSecretShare,
    ) -> DecryptionBatch {
        let values: Vec<Ubig> = cts
            .iter()
            .map(|ct| self.group.pow(&ct.u, &secret.key))
            .collect();
        let us: Vec<&Ubig> = cts.iter().map(|ct| &ct.u).collect();
        let vs: Vec<&Ubig> = values.iter().collect();
        let stmt = ManyStatement {
            h: &self.public.verification_keys[secret.index],
            us: &us,
            vs: &vs,
            context: &Self::bound(context, secret.index),
        };
        let proof = dleq::prove_many(&self.group, SHARE_DOMAIN, &stmt, &secret.key);
        DecryptionBatch {
            index: secret.index,
            values,
            proof,
        }
    }

    /// Verifies a peer's batch for `cts` under `context`: one value per
    /// ciphertext, each a subgroup member (tested one by one, stopping at
    /// the first that is not), and the batched proof. A batch of one
    /// costs what [`EncScheme::verify_share`] does.
    ///
    /// Same precondition as [`EncScheme::verify_share`]: every ciphertext
    /// has passed [`EncScheme::verify_ciphertext`].
    pub fn verify_batch_share(
        &self,
        context: &[u8],
        cts: &[&Ciphertext],
        batch: &DecryptionBatch,
    ) -> bool {
        if batch.index >= self.public.n || cts.is_empty() || batch.values.len() != cts.len() {
            return false;
        }
        if !batch.values.iter().all(|v| self.group.is_element(v)) {
            return false;
        }
        let us: Vec<&Ubig> = cts.iter().map(|ct| &ct.u).collect();
        let vs: Vec<&Ubig> = batch.values.iter().collect();
        let stmt = ManyStatement {
            h: &self.public.verification_keys[batch.index],
            us: &us,
            vs: &vs,
            context: &Self::bound(context, batch.index),
        };
        dleq::verify_many_preverified(&self.group, SHARE_DOMAIN, &stmt, &batch.proof)
    }

    /// The plaintexts of `cts` from the first `k` of `batches`, each of
    /// which was verified against `cts` ([`EncScheme::verify_batch_share`])
    /// or produced here; the Lagrange coefficients are computed once for
    /// all of them.
    ///
    /// # Errors
    ///
    /// Fails on too few batches, an out-of-range or duplicate holder, or
    /// a batch whose length is not the number of ciphertexts.
    pub fn combine_batches_prechecked(
        &self,
        cts: &[&Ciphertext],
        batches: &[&DecryptionBatch],
    ) -> Result<Vec<Vec<u8>>> {
        let used = self.combining_set(batches, |b| b.index)?;
        if let Some(short) = used.iter().find(|b| b.values.len() != cts.len()) {
            return Err(CryptoError::InvalidShare { index: short.index });
        }
        let lambdas = self.lagrange(used.iter().map(|b| b.index));
        let plaintexts = cts.iter().enumerate().map(|(j, ct)| {
            let values = used.iter().map(|b| &b.values[j]);
            self.open(ct, values.zip(&lambdas).collect())
        });
        Ok(plaintexts.collect())
    }

    /// Combines `k` decryption shares and recovers the plaintext.
    ///
    /// # Errors
    ///
    /// Fails on an invalid ciphertext, too few shares, duplicate or
    /// invalid shares.
    pub fn combine(&self, ct: &Ciphertext, shares: &[DecryptionShare]) -> Result<Vec<u8>> {
        if !self.verify_ciphertext(ct) {
            return Err(CryptoError::InvalidCiphertext);
        }
        let used = self.combining_set(shares, |s| s.index)?;
        for (share, valid) in used.iter().zip(self.verify_shares(ct, used)) {
            if !valid {
                return Err(CryptoError::InvalidShare { index: share.index });
            }
        }
        Ok(self.recover(ct, used))
    }

    /// [`EncScheme::combine`] for a caller that has already verified `ct`
    /// ([`EncScheme::verify_ciphertext`]) and every share it passes
    /// ([`EncScheme::verify_share`] / [`EncScheme::verify_shares`], or
    /// produced it itself). Unverified input yields garbage plaintext.
    ///
    /// # Errors
    ///
    /// Fails on too few shares, an out-of-range or duplicate index.
    pub fn combine_prechecked(
        &self,
        ct: &Ciphertext,
        shares: &[DecryptionShare],
    ) -> Result<Vec<u8>> {
        Ok(self.recover(ct, self.combining_set(shares, |s| s.index)?))
    }

    /// The first `k` shares, provided they name `k` distinct holders.
    fn combining_set<'a, S>(
        &self,
        shares: &'a [S],
        index: impl Fn(&S) -> usize,
    ) -> Result<&'a [S]> {
        if shares.len() < self.public.k {
            return Err(CryptoError::NotEnoughShares {
                needed: self.public.k,
                got: shares.len(),
            });
        }
        let used = &shares[..self.public.k];
        let mut seen = vec![false; self.public.n];
        for share in used {
            let index = index(share);
            if index >= self.public.n {
                return Err(CryptoError::InvalidShare { index });
            }
            if seen[index] {
                return Err(CryptoError::DuplicateShare { index });
            }
            seen[index] = true;
        }
        Ok(used)
    }

    /// The Lagrange coefficients at zero of distinct holders.
    fn lagrange(&self, holders: impl Iterator<Item = usize>) -> Vec<Ubig> {
        let points: Vec<u64> = holders.map(|index| index as u64 + 1).collect();
        lagrange_at_zero(&points, self.group.order())
    }

    /// Lagrange-interpolates `h^r` from verified shares of distinct
    /// holders and opens the payload.
    fn recover(&self, ct: &Ciphertext, used: &[DecryptionShare]) -> Vec<u8> {
        let lambdas = self.lagrange(used.iter().map(|s| s.index));
        self.open(ct, used.iter().map(|s| &s.value).zip(&lambdas).collect())
    }

    /// Opens the payload with `h^r = ∏ value^λ`.
    fn open(&self, ct: &Ciphertext, pairs: Vec<(&Ubig, &Ubig)>) -> Vec<u8> {
        let shared = self.group.multi_pow(&pairs);
        chacha::open(&shared.to_be_bytes(), &ct.data)
    }
}

/// Derives a compact commitment to a ciphertext (used by protocols to name
/// ciphertexts in votes without shipping the whole body).
pub fn ciphertext_digest(ct: &Ciphertext) -> [u8; 32] {
    let mut input = Vec::new();
    input.extend_from_slice(&(ct.data.len() as u32).to_be_bytes());
    input.extend_from_slice(&ct.data);
    input.extend_from_slice(&ct.label);
    input.extend_from_slice(&ct.u.to_be_bytes());
    input.extend_from_slice(&ct.u_bar.to_be_bytes());
    input.extend_from_slice(&ct.e.to_be_bytes());
    input.extend_from_slice(&ct.f.to_be_bytes());
    hash::Sha256::digest(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::CoinScheme;
    use crate::cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, k: usize) -> (EncScheme, Vec<EncSecretShare>, StdRng) {
        let mut rng = StdRng::seed_from_u64(61);
        let group = SchnorrGroup::generate(96, 32, &mut rng);
        let (public, secrets) = EncScheme::deal(&group, n, k, &mut rng);
        (EncScheme::new(group, public), secrets, rng)
    }

    /// The group's table cache holds 16 bases; 20 coin names overflow it
    /// and empty it. The encryption key's table is the scheme's own, so
    /// encrypting afterwards is charged what it was before.
    #[test]
    fn coin_bases_leave_the_encryption_key_table_alone() {
        let (scheme, _, mut rng) = setup(4, 2);
        // The same randomness, so the same exponent lengths.
        let charge = || {
            let scope = cost::CostScope::enter();
            scheme.encrypt(b"label", b"message", &mut StdRng::seed_from_u64(7));
            scope.elapsed()
        };
        let first = charge();
        let (coin_public, coin_secrets) = CoinScheme::deal(scheme.group(), 4, 2, &mut rng);
        let coin = CoinScheme::new(scheme.group().clone(), coin_public);
        for i in 0..20u32 {
            coin.release_share(&i.to_be_bytes(), &coin_secrets[0]);
        }
        assert!((charge() - first).abs() < 1e-12, "{first}");
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let msg = b"a confidential transaction of arbitrary length........";
        let ct = scheme.encrypt(b"channel-1", msg, &mut rng);
        assert!(scheme.verify_ciphertext(&ct));
        let shares: Vec<DecryptionShare> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        assert_eq!(scheme.combine(&ct, &shares).unwrap(), msg);
    }

    #[test]
    fn any_k_subset_decrypts_identically() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"payload", &mut rng);
        let all: Vec<DecryptionShare> = secrets
            .iter()
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        for subset in [[0usize, 1], [1, 2], [2, 3], [3, 0]] {
            let sel = vec![all[subset[0]].clone(), all[subset[1]].clone()];
            assert_eq!(scheme.combine(&ct, &sel).unwrap(), b"payload");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected_everywhere() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"secret", &mut rng);
        // Flip a payload byte: validity proof must fail.
        let mut mauled = ct.clone();
        mauled.data[0] ^= 1;
        assert!(!scheme.verify_ciphertext(&mauled));
        assert!(scheme.decryption_share(&mauled, &secrets[0]).is_none());
        assert!(matches!(
            scheme.combine(&mauled, &[]),
            Err(CryptoError::InvalidCiphertext)
        ));
        // Changing the label also invalidates (label binding).
        let mut relabeled = ct.clone();
        relabeled.label = b"other".to_vec();
        assert!(!scheme.verify_ciphertext(&relabeled));
    }

    #[test]
    fn prechecked_paths_match_checked_ones() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"same bytes either way", &mut rng);
        assert!(scheme.verify_ciphertext(&ct));
        let shares: Vec<DecryptionShare> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.decryption_share_prechecked(&ct, s))
            .collect();
        for (share, secret) in shares.iter().zip(&secrets) {
            assert_eq!(Some(share), scheme.decryption_share(&ct, secret).as_ref());
        }
        assert_eq!(scheme.verify_shares(&ct, &shares), vec![true; 2]);
        assert_eq!(
            scheme.combine_prechecked(&ct, &shares).unwrap(),
            scheme.combine(&ct, &shares).unwrap()
        );
        // The structural checks stay: interpolating over a repeated
        // holder would be garbage, not an error.
        let twice = vec![shares[0].clone(), shares[0].clone()];
        assert!(matches!(
            scheme.combine_prechecked(&ct, &twice),
            Err(CryptoError::DuplicateShare { index: 0 })
        ));
        assert!(matches!(
            scheme.combine_prechecked(&ct, &shares[..1]),
            Err(CryptoError::NotEnoughShares { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn bad_share_detected() {
        let (scheme, secrets, mut rng) = setup(4, 3);
        let ct = scheme.encrypt(b"l", b"m", &mut rng);
        let mut shares: Vec<DecryptionShare> = secrets
            .iter()
            .take(3)
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        shares[1].value = scheme
            .group()
            .mul(&shares[1].value, scheme.group().generator());
        assert!(!scheme.verify_share(&ct, &shares[1]));
        assert!(matches!(
            scheme.combine(&ct, &shares),
            Err(CryptoError::InvalidShare { index: 1 })
        ));
    }

    #[test]
    fn batch_verification_attributes_bad_share() {
        let (scheme, secrets, mut rng) = setup(4, 3);
        let ct = scheme.encrypt(b"l", b"m", &mut rng);
        let mut shares: Vec<DecryptionShare> = secrets
            .iter()
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        assert_eq!(scheme.verify_shares(&ct, &shares), vec![true; 4]);
        shares[2].value = scheme
            .group()
            .mul(&shares[2].value, scheme.group().generator());
        assert_eq!(
            scheme.verify_shares(&ct, &shares),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn share_for_other_ciphertext_rejected() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct1 = scheme.encrypt(b"l", b"m1", &mut rng);
        let ct2 = scheme.encrypt(b"l", b"m2", &mut rng);
        let share_for_2 = scheme.decryption_share(&ct2, &secrets[0]).unwrap();
        assert!(!scheme.verify_share(&ct1, &share_for_2));
    }

    #[test]
    fn too_few_shares_fail() {
        let (scheme, secrets, mut rng) = setup(4, 3);
        let ct = scheme.encrypt(b"l", b"m", &mut rng);
        let shares: Vec<DecryptionShare> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        assert!(matches!(
            scheme.combine(&ct, &shares),
            Err(CryptoError::NotEnoughShares { needed: 3, got: 2 })
        ));
    }

    #[test]
    fn digest_is_stable_and_binding() {
        let (scheme, _, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"m", &mut rng);
        assert_eq!(ciphertext_digest(&ct), ciphertext_digest(&ct));
        let mut other = ct.clone();
        other.data.push(0);
        assert_ne!(ciphertext_digest(&ct), ciphertext_digest(&other));
    }

    /// `m` valid ciphertexts and every holder's batch for them.
    fn batches(
        scheme: &EncScheme,
        secrets: &[EncSecretShare],
        rng: &mut StdRng,
        m: usize,
    ) -> (Vec<Ciphertext>, Vec<DecryptionBatch>) {
        let cts: Vec<Ciphertext> = (0..m)
            .map(|j| scheme.encrypt(b"l", format!("message {j}").as_bytes(), rng))
            .collect();
        let refs: Vec<&Ciphertext> = cts.iter().collect();
        let batches = secrets
            .iter()
            .map(|s| scheme.batch_share_prechecked(b"round 7", &refs, s))
            .collect();
        (cts, batches)
    }

    #[test]
    fn batch_roundtrip() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        for m in [1, 2, 8] {
            let (cts, batches) = batches(&scheme, &secrets, &mut rng, m);
            let refs: Vec<&Ciphertext> = cts.iter().collect();
            for batch in &batches {
                assert!(
                    scheme.verify_batch_share(b"round 7", &refs, batch),
                    "m = {m}"
                );
            }
            for pair in [[0usize, 1], [3, 1], [2, 0]] {
                let used = [&batches[pair[0]], &batches[pair[1]]];
                let plaintexts = scheme.combine_batches_prechecked(&refs, &used).unwrap();
                let expected: Vec<Vec<u8>> = (0..m)
                    .map(|j| format!("message {j}").into_bytes())
                    .collect();
                assert_eq!(plaintexts, expected, "m = {m}, holders {pair:?}");
            }
            // Each value is the holder's single share of its ciphertext.
            for (j, ct) in cts.iter().enumerate() {
                let single = scheme.decryption_share_prechecked(ct, &secrets[1]);
                assert_eq!(batches[1].values[j], single.value);
            }
        }
    }

    #[test]
    fn batch_of_one_is_the_single_share_at_its_cost() {
        use crate::cost::CostScope;
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"alone", &mut rng);
        let priced = |f: &dyn Fn()| {
            let scope = CostScope::enter();
            f();
            scope.elapsed()
        };
        let single = scheme.decryption_share_prechecked(&ct, &secrets[2]);
        let batch = scheme.batch_share_prechecked(b"round 7", &[&ct], &secrets[2]);
        assert_eq!(
            (&batch.values[..], &batch.proof),
            (&[single.value.clone()][..], &single.proof)
        );
        let release_single = priced(&|| {
            scheme.decryption_share_prechecked(&ct, &secrets[2]);
        });
        let release_batch = priced(&|| {
            scheme.batch_share_prechecked(b"round 7", &[&ct], &secrets[2]);
        });
        assert_eq!(release_batch, release_single);
        let check_single = priced(&|| assert!(scheme.verify_share(&ct, &single)));
        let check_batch =
            priced(&|| assert!(scheme.verify_batch_share(b"round 7", &[&ct], &batch)));
        assert_eq!(check_batch, check_single);
    }

    #[test]
    fn forged_batches_refused() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let (cts, batches) = batches(&scheme, &secrets, &mut rng, 3);
        let refs: Vec<&Ciphertext> = cts.iter().collect();
        let good = &batches[1];
        let mut swapped = good.clone();
        swapped.values.swap(0, 2);
        let mut other_holder = good.clone();
        other_holder.values[1] = batches[2].values[1].clone();
        let mut renamed = batches[2].clone();
        renamed.index = 1;
        let mut truncated = good.clone();
        truncated.values.pop();
        let mut order_two = good.clone();
        order_two.values[0] = scheme.group().modulus() - &order_two.values[0];
        for (what, batch, context) in [
            ("swapped values", &swapped, &b"round 7"[..]),
            ("a value from another holder", &other_holder, b"round 7"),
            (
                "another holder's batch under this index",
                &renamed,
                b"round 7",
            ),
            ("a truncated vector", &truncated, b"round 7"),
            ("a value times p - 1", &order_two, b"round 7"),
            ("another round or channel", good, b"round 8"),
        ] {
            assert!(!scheme.verify_batch_share(context, &refs, batch), "{what}");
        }
        assert!(
            !scheme.verify_batch_share(b"round 7", &refs[..2], good),
            "fewer ciphertexts"
        );
        let reordered = [refs[1], refs[0], refs[2]];
        assert!(
            !scheme.verify_batch_share(b"round 7", &reordered, good),
            "reordered"
        );
        let mut short = batches[0].clone();
        short.values.pop();
        assert!(matches!(
            scheme.combine_batches_prechecked(&refs, &[good, &short]),
            Err(CryptoError::InvalidShare { index: 0 })
        ));
        assert!(matches!(
            scheme.combine_batches_prechecked(&refs, &[good, good]),
            Err(CryptoError::DuplicateShare { index: 1 })
        ));
    }

    #[test]
    fn empty_message_roundtrip() {
        let (scheme, secrets, mut rng) = setup(4, 2);
        let ct = scheme.encrypt(b"l", b"", &mut rng);
        let shares: Vec<DecryptionShare> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.decryption_share(&ct, s).unwrap())
            .collect();
        assert_eq!(scheme.combine(&ct, &shares).unwrap(), b"");
    }
}
