//! Non-interactive Chaum–Pedersen proofs of discrete-log equality.
//!
//! A DLEQ proof convinces a verifier that `log_g(h) = log_u(v)` without
//! revealing the exponent. SINTRA uses these to make threshold-coin shares
//! and threshold-decryption shares *robust*: a corrupted party cannot
//! submit a bad share without being detected.
//!
//! The proof is the Fiat–Shamir transform of the sigma protocol:
//! commit `(a₁, a₂) = (g^w, u^w)`, challenge `c = H(...)`, response
//! `z = w + c·x`. Proofs carry the *commitments* rather than the
//! challenge: verification recomputes `c` from them and checks the two
//! group equations `g^z = a₁·h^c` and `u^z = a₂·v^c` — an equivalent
//! check that additionally admits **batch verification**: the equations
//! of many proofs are combined into one multi-exponentiation with small
//! random exponents ([`verify_batch`]), amortizing nearly all squarings
//! and both generator exponentiations across the batch.

use rand::Rng;
use sintra_bigint::Ubig;

use crate::group::SchnorrGroup;
use crate::hash;

/// Bits of each small random exponent in [`verify_batch`]. A batch of
/// invalid proofs passes with probability `2^-64`; since the randomizers
/// are derived by hashing the batch contents (keeping verification
/// deterministic for reproducible simulation), an adversary may grind
/// candidate shares offline, so 64 bits is a *work* bound, not a
/// statistical one. Raise if proofs ever guard value beyond a protocol
/// round.
const BATCH_EXPONENT_BITS: usize = 64;

/// A non-interactive DLEQ proof `(a₁, a₂, z)` in commitment form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DleqProof {
    /// Sigma-protocol commitment `a₁ = g^w`.
    pub commit_g: Ubig,
    /// Sigma-protocol commitment `a₂ = u^w`.
    pub commit_u: Ubig,
    /// Sigma-protocol response `z = w + c·x mod q`.
    pub response: Ubig,
}

/// The statement being proven: `h = g^x` and `v = u^x` for the same `x`.
#[derive(Debug, Clone)]
pub struct DleqStatement<'a> {
    /// First base.
    pub g: &'a Ubig,
    /// First image, `g^x`.
    pub h: &'a Ubig,
    /// Second base.
    pub u: &'a Ubig,
    /// Second image, `u^x`.
    pub v: &'a Ubig,
}

fn challenge_input(domain: &[u8], stmt: &DleqStatement<'_>, a1: &Ubig, a2: &Ubig) -> Vec<u8> {
    let mut data = Vec::new();
    for part in [stmt.g, stmt.h, stmt.u, stmt.v, a1, a2] {
        let bytes = part.to_be_bytes();
        data.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        data.extend_from_slice(&bytes);
    }
    data.extend_from_slice(domain);
    data
}

/// Produces a proof that `stmt.h = stmt.g^x` and `stmt.v = stmt.u^x`.
///
/// `domain` separates proof contexts (e.g. coin shares vs decryption
/// shares) so proofs cannot be replayed across schemes.
pub fn prove<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &DleqStatement<'_>,
    x: &Ubig,
    rng: &mut R,
) -> DleqProof {
    let w = group.random_exponent(rng);
    let a1 = group.pow_cached(stmt.g, &w);
    let a2 = group.pow_cached(stmt.u, &w);
    let c = group.hash_to_exponent(b"sintra-dleq", &challenge_input(domain, stmt, &a1, &a2));
    // z = w + c*x mod q
    let z = w.mod_add(&c.mod_mul(x, group.order()), group.order());
    DleqProof {
        commit_g: a1,
        commit_u: a2,
        response: z,
    }
}

/// Produces a proof like [`prove`] but derives the commitment nonce
/// deterministically from the witness and statement (RFC-6979 style).
///
/// This keeps share generation deterministic, which the sans-IO protocol
/// state machines rely on for reproducible simulation. Security is
/// unaffected: the nonce is a pseudorandom function of secret material.
pub fn prove_deterministic(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &DleqStatement<'_>,
    x: &Ubig,
) -> DleqProof {
    let mut nonce_input = x.to_be_bytes();
    nonce_input.extend_from_slice(&challenge_input(domain, stmt, &Ubig::zero(), &Ubig::zero()));
    let w = group.hash_to_exponent(b"sintra-dleq-nonce", &nonce_input);
    let a1 = group.pow_cached(stmt.g, &w);
    let a2 = group.pow_cached(stmt.u, &w);
    let c = group.hash_to_exponent(b"sintra-dleq", &challenge_input(domain, stmt, &a1, &a2));
    let z = w.mod_add(&c.mod_mul(x, group.order()), group.order());
    DleqProof {
        commit_g: a1,
        commit_u: a2,
        response: z,
    }
}

/// Verifies a proof against the statement, including subgroup-membership
/// checks on `h` and `v`.
///
/// Prefer [`verify_preverified`] when the caller has already validated the
/// statement's images (e.g. once at share deserialization): each
/// membership test costs a full `q`-bit exponentiation.
pub fn verify(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &DleqStatement<'_>,
    proof: &DleqProof,
) -> bool {
    if !group.is_element(stmt.h) || !group.is_element(stmt.v) {
        return false;
    }
    verify_preverified(group, domain, stmt, proof)
}

/// Verifies a proof assuming the statement is well-formed: `g`, `h`, `u`,
/// `v` must all be subgroup members already validated by the caller
/// (generators and dealer-published verification keys are members by
/// construction; share values must be checked once on receipt).
///
/// Recomputes `c = H(..., a₁, a₂)` and checks `g^z·h^{-c} = a₁` and
/// `u^z·v^{-c} = a₂`, each as one simultaneous multi-exponentiation (the
/// negated exponent trick needs `h, v` of order `q`, hence the
/// precondition).
pub fn verify_preverified(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &DleqStatement<'_>,
    proof: &DleqProof,
) -> bool {
    if proof.response >= *group.order() {
        return false;
    }
    let p = group.modulus();
    if proof.commit_g.is_zero()
        || proof.commit_u.is_zero()
        || proof.commit_g >= *p
        || proof.commit_u >= *p
    {
        return false;
    }
    let c = group.hash_to_exponent(
        b"sintra-dleq",
        &challenge_input(domain, stmt, &proof.commit_g, &proof.commit_u),
    );
    let neg_c = group.neg_exponent(&c);
    let a1 = group.multi_pow(&[(stmt.g, &proof.response), (stmt.h, &neg_c)]);
    if a1 != proof.commit_g {
        return false;
    }
    let a2 = group.multi_pow(&[(stmt.u, &proof.response), (stmt.v, &neg_c)]);
    a2 == proof.commit_u
}

/// One proof of a common-base batch: all entries share the bases `(g, u)`
/// of their statements — the shape of both coin shares (`u = ĝ(name)`)
/// and decryption shares (`u` from the ciphertext).
#[derive(Debug, Clone, Copy)]
pub struct BatchEntry<'a> {
    /// First image `h = g^x` (a dealer-published verification key).
    pub h: &'a Ubig,
    /// Second image `v = u^x` (the share value, subgroup-validated by the
    /// caller).
    pub v: &'a Ubig,
    /// The share's proof.
    pub proof: &'a DleqProof,
}

/// Batch-verifies DLEQ proofs sharing the base pair `(g, u)` with one
/// small-exponent random-linear-combination multi-exponentiation.
///
/// Returns `true` iff every proof in the batch is valid (except with
/// probability ~`2^-64` per adversarial attempt; see
/// [`BATCH_EXPONENT_BITS`]). On `false`, callers fall back to per-proof
/// [`verify_preverified`] to identify culprits.
///
/// # Soundness
///
/// Each proof contributes the two equations `g^z·h^{-c}·a₁^{-1} = 1` and
/// `u^z·v^{-c}·a₂^{-1} = 1`; the batch combines them with independent
/// 64-bit exponents `δᵢ, δ'ᵢ` into one product, then raises it to the
/// subgroup cofactor. The cofactor power annihilates any component of the
/// adversarially chosen commitments `a₁, a₂` outside the order-`q`
/// subgroup (the group constructor rejects `q² | p-1`, so the
/// decomposition is unique), which is what lets the batch skip the two
/// per-proof subgroup-membership exponentiations entirely. `h` and `v`
/// must be order-`q` elements — the same precondition as
/// [`verify_preverified`].
///
/// # Preconditions
///
/// `u` and every entry's `h` and `v` are subgroup members.
pub fn verify_batch(
    group: &SchnorrGroup,
    domain: &[u8],
    u: &Ubig,
    entries: &[BatchEntry<'_>],
) -> bool {
    if entries.is_empty() {
        return true;
    }
    if entries.len() == 1 {
        // A single proof gains nothing from the combination; check directly.
        let stmt = DleqStatement {
            g: group.generator(),
            h: entries[0].h,
            u,
            v: entries[0].v,
        };
        return verify_preverified(group, domain, &stmt, entries[0].proof);
    }
    let q = group.order();
    let p = group.modulus();
    // Range checks and Fiat–Shamir challenges.
    let mut challenges = Vec::with_capacity(entries.len());
    for e in entries {
        if e.proof.response >= *q {
            return false;
        }
        if e.proof.commit_g.is_zero()
            || e.proof.commit_u.is_zero()
            || e.proof.commit_g >= *p
            || e.proof.commit_u >= *p
        {
            return false;
        }
        let stmt = DleqStatement {
            g: group.generator(),
            h: e.h,
            u,
            v: e.v,
        };
        challenges.push(group.hash_to_exponent(
            b"sintra-dleq",
            &challenge_input(domain, &stmt, &e.proof.commit_g, &e.proof.commit_u),
        ));
    }
    // Derive the randomizers from the whole batch (random-oracle style):
    // verification stays deterministic, and the δs are fixed only after
    // every proof in the batch is fixed.
    let mut seed = Vec::new();
    seed.extend_from_slice(domain);
    seed.extend_from_slice(&u.to_be_bytes());
    for e in entries {
        for part in [
            e.h,
            e.v,
            &e.proof.commit_g,
            &e.proof.commit_u,
            &e.proof.response,
        ] {
            let bytes = part.to_be_bytes();
            seed.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            seed.extend_from_slice(&bytes);
        }
    }
    let delta_bytes = BATCH_EXPONENT_BITS / 8;
    let raw = hash::expand(b"sintra-dleq-batch", &seed, entries.len() * 2 * delta_bytes);
    let deltas: Vec<Ubig> = raw
        .chunks_exact(delta_bytes)
        .map(Ubig::from_be_bytes)
        .collect();
    // Exponent of g: -Σ δᵢ·zᵢ mod q; exponent of u: -Σ δ'ᵢ·zᵢ mod q.
    let mut sum_g = Ubig::zero();
    let mut sum_u = Ubig::zero();
    let mut h_exps = Vec::with_capacity(entries.len());
    let mut v_exps = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let (d1, d2) = (&deltas[2 * i], &deltas[2 * i + 1]);
        sum_g = sum_g.mod_add(&d1.mod_mul(&e.proof.response, q), q);
        sum_u = sum_u.mod_add(&d2.mod_mul(&e.proof.response, q), q);
        // h and v have order q, so their δ·c exponents reduce mod q.
        h_exps.push(group.neg_exponent(&d1.mod_mul(&challenges[i], q)));
        v_exps.push(group.neg_exponent(&d2.mod_mul(&challenges[i], q)));
    }
    let g_exp = sum_g;
    let u_exp = sum_u;
    // P = g^{Σδz} · u^{Σδ'z} · ∏ hᵢ^{-δᵢcᵢ} vᵢ^{-δ'ᵢcᵢ} a₁ᵢ^{-δᵢ}a₂ᵢ^{-δ'ᵢ}
    // — except commitments are adversarial, so instead of inverting them we
    // move them across: check P' = g^{Σδz} u^{Σδ'z} ∏ h^{-δc} v^{-δ'c}
    // against ∏ a₁^{δ} a₂^{δ'}; equivalently fold the commitments in with
    // positive exponents and compare after the cofactor power.
    let mut pairs: Vec<(&Ubig, &Ubig)> = Vec::with_capacity(2 + 4 * entries.len());
    pairs.push((group.generator(), &g_exp));
    pairs.push((u, &u_exp));
    for (i, e) in entries.iter().enumerate() {
        pairs.push((e.h, &h_exps[i]));
        pairs.push((e.v, &v_exps[i]));
    }
    let lhs = group.multi_pow(&pairs);
    let mut commit_pairs: Vec<(&Ubig, &Ubig)> = Vec::with_capacity(2 * entries.len());
    for (i, e) in entries.iter().enumerate() {
        commit_pairs.push((&e.proof.commit_g, &deltas[2 * i]));
        commit_pairs.push((&e.proof.commit_u, &deltas[2 * i + 1]));
    }
    let rhs = group.multi_pow(&commit_pairs);
    if lhs == rhs {
        return true;
    }
    // The q-components may still agree while commitment junk outside the
    // subgroup differs; the cofactor power settles it.
    let ratio = group.div(&lhs, &rhs);
    group.pow(&ratio, group.cofactor()).is_one()
}

/// One exponent under many bases: the statement `h = g^x` and
/// `v_j = u_j^x` for every `j`, as a batched DLEQ (Davidson et al.,
/// "Privacy Pass", PETS 2018). The pairs are folded into
/// `U = ∏ u_j^{ρ_j}` and `V = ∏ v_j^{ρ_j}`, and one proof shows
/// `log_g h = log_U V`.
///
/// `ρ_1 = 1`, so one pair folds to itself and its proof is [`prove`]'s on
/// `(g, h, u_1, v_1)`, at the same cost. Each later `ρ_j` is a
/// [`BATCH_EXPONENT_BITS`]-bit value with its top bit set, hashed from
/// `context`, `h` and every `u_j` and `v_j`: they are fixed only after
/// every value is, and a `v_j ≠ u_j^x` folds into `V = U^x` for about
/// one choice of `ρ_j` in `2^63`. Hashing makes that a work bound, as in
/// [`verify_batch`].
#[derive(Debug, Clone, Copy)]
pub struct ManyStatement<'a> {
    /// First image, `g^x` (a dealer-published verification key).
    pub h: &'a Ubig,
    /// The bases `u_j`.
    pub us: &'a [&'a Ubig],
    /// The images `v_j = u_j^x`, parallel to `us`.
    pub vs: &'a [&'a Ubig],
    /// What the weights are bound to besides the pairs: the protocol
    /// instance and the releasing party.
    pub context: &'a [u8],
}

impl ManyStatement<'_> {
    /// The weights `ρ_j`, one per pair.
    fn weights(&self) -> Vec<Ubig> {
        let mut seed = Vec::new();
        let put = |seed: &mut Vec<u8>, bytes: &[u8]| {
            seed.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            seed.extend_from_slice(bytes);
        };
        put(&mut seed, self.context);
        put(&mut seed, &self.h.to_be_bytes());
        put(&mut seed, &(self.us.len() as u32).to_be_bytes());
        for part in self.us.iter().chain(self.vs) {
            put(&mut seed, &part.to_be_bytes());
        }
        let width = BATCH_EXPONENT_BITS / 8;
        let mut raw = hash::expand(
            b"sintra-dleq-many",
            &seed,
            self.us.len().saturating_sub(1) * width,
        );
        let later = raw.chunks_exact_mut(width).map(|chunk| {
            // The top bit set: every weight charges a full-width exponent.
            chunk[0] |= 0x80;
            Ubig::from_be_bytes(chunk)
        });
        std::iter::once(Ubig::one()).chain(later).collect()
    }

    /// Runs `f` on the folded statement `(g, h, U, V)`.
    fn folded<R>(&self, group: &SchnorrGroup, f: impl FnOnce(&DleqStatement<'_>) -> R) -> R {
        let weights = self.weights();
        let fold = |bases: &[&Ubig]| match bases {
            [only] => (*only).clone(),
            [first, rest @ ..] => {
                let pairs: Vec<(&Ubig, &Ubig)> = rest.iter().copied().zip(&weights[1..]).collect();
                group.mul(first, &group.multi_pow(&pairs))
            }
            [] => Ubig::one(),
        };
        let (u, v) = (fold(self.us), fold(self.vs));
        f(&DleqStatement {
            g: group.generator(),
            h: self.h,
            u: &u,
            v: &v,
        })
    }
}

/// Proves [`ManyStatement`] with the deterministic nonce of
/// [`prove_deterministic`].
///
/// # Panics
///
/// Panics unless `us` and `vs` are non-empty and of equal length.
pub fn prove_many(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &ManyStatement<'_>,
    x: &Ubig,
) -> DleqProof {
    assert!(
        !stmt.us.is_empty() && stmt.us.len() == stmt.vs.len(),
        "a batched DLEQ proves one or more pairs"
    );
    stmt.folded(group, |folded| {
        prove_deterministic(group, domain, folded, x)
    })
}

/// Verifies a [`prove_many`] proof. Every `u_j` and `v_j` must already be
/// a subgroup member, each tested on its own: a product test such as
/// `(∏ v_j^{r_j})^q = 1` passes `−v_j`, an order-2 component, whenever
/// `r_j` is even, and a hashed `r_j` can be ground for that. `U` and `V`
/// are then members, which [`verify_preverified`] needs.
pub fn verify_many_preverified(
    group: &SchnorrGroup,
    domain: &[u8],
    stmt: &ManyStatement<'_>,
    proof: &DleqProof,
) -> bool {
    if stmt.us.is_empty() || stmt.us.len() != stmt.vs.len() {
        return false;
    }
    stmt.folded(group, |folded| {
        verify_preverified(group, domain, folded, proof)
    })
}

/// Batch-verifies like [`verify_batch`], but on failure re-checks each
/// proof individually so callers can attribute blame. Returns per-entry
/// validity.
pub fn verify_batch_or_each(
    group: &SchnorrGroup,
    domain: &[u8],
    u: &Ubig,
    entries: &[BatchEntry<'_>],
) -> Vec<bool> {
    if verify_batch(group, domain, u, entries) {
        return vec![true; entries.len()];
    }
    entries
        .iter()
        .map(|e| {
            let stmt = DleqStatement {
                g: group.generator(),
                h: e.h,
                u,
                v: e.v,
            };
            verify_preverified(group, domain, &stmt, e.proof)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SchnorrGroup, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let group = SchnorrGroup::generate(96, 32, &mut rng);
        (group, rng)
    }

    #[test]
    fn proof_roundtrip() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &x);
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let proof = prove(&group, b"test", &stmt, &x, &mut rng);
        assert!(verify(&group, b"test", &stmt, &proof));
    }

    #[test]
    fn deterministic_proof_roundtrip_and_stable() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &x);
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let p1 = prove_deterministic(&group, b"test", &stmt, &x);
        let p2 = prove_deterministic(&group, b"test", &stmt, &x);
        assert_eq!(p1, p2, "deterministic proofs are reproducible");
        assert!(verify(&group, b"test", &stmt, &p1));
    }

    #[test]
    fn wrong_exponent_rejected() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let y = x.mod_add(&Ubig::one(), group.order());
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &y); // inconsistent exponent
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let proof = prove(&group, b"test", &stmt, &x, &mut rng);
        assert!(!verify(&group, b"test", &stmt, &proof));
    }

    #[test]
    fn domain_separation() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &x);
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let proof = prove(&group, b"domain-a", &stmt, &x, &mut rng);
        assert!(!verify(&group, b"domain-b", &stmt, &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &x);
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let mut proof = prove(&group, b"test", &stmt, &x, &mut rng);
        proof.response = proof.response.mod_add(&Ubig::one(), group.order());
        assert!(!verify(&group, b"test", &stmt, &proof));
    }

    #[test]
    fn many_pairs_under_one_proof() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let h = group.pow_g(&x);
        let us: Vec<Ubig> = (0..5u8)
            .map(|j| group.hash_to_group(b"base", &[j]))
            .collect();
        let honest: Vec<Ubig> = us.iter().map(|u| group.pow(u, &x)).collect();
        let mut forged = honest.clone();
        forged[3] = group.pow(&us[3], &x.mod_add(&Ubig::one(), group.order()));
        let us: Vec<&Ubig> = us.iter().collect();
        let (honest, forged): (Vec<&Ubig>, Vec<&Ubig>) =
            (honest.iter().collect(), forged.iter().collect());
        let stmt = |vs| ManyStatement {
            h: &h,
            us: &us,
            vs,
            context: b"ctx",
        };
        let weights = stmt(&honest).weights();
        assert_eq!(weights[0], Ubig::one());
        assert!(weights[1..].iter().all(|w| w.bit_length() == 64));
        let proof = prove_many(&group, b"test", &stmt(&honest), &x);
        assert_eq!(
            proof,
            prove_many(&group, b"test", &stmt(&honest), &x),
            "deterministic"
        );
        assert!(verify_many_preverified(
            &group,
            b"test",
            &stmt(&honest),
            &proof
        ));
        assert!(!verify_many_preverified(
            &group,
            b"other",
            &stmt(&honest),
            &proof
        ));
        // One image with another exponent spoils the whole statement.
        let proof = prove_many(&group, b"test", &stmt(&forged), &x);
        assert!(!verify_many_preverified(
            &group,
            b"test",
            &stmt(&forged),
            &proof
        ));
    }

    #[test]
    fn out_of_range_proof_rejected() {
        let (group, mut rng) = setup();
        let x = group.random_exponent(&mut rng);
        let u = group.hash_to_group(b"base", b"u");
        let h = group.pow_g(&x);
        let v = group.pow(&u, &x);
        let stmt = DleqStatement {
            g: group.generator(),
            h: &h,
            u: &u,
            v: &v,
        };
        let mut proof = prove(&group, b"test", &stmt, &x, &mut rng);
        proof.response = &proof.response + group.order();
        assert!(!verify(&group, b"test", &stmt, &proof));
    }
}
