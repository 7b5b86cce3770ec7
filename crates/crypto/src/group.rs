//! Schnorr groups: the discrete-log setting for coin-tossing and threshold
//! encryption.
//!
//! A Schnorr group is the order-`q` subgroup of `Z_p^*` for primes `p, q`
//! with `q | p - 1`. SINTRA's configuration uses a 1024-bit `p` whose order
//! has a 160-bit prime factor `q`; both sizes are parameters here.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::Rng;
use sintra_bigint::{FixedBase, Montgomery, PrimeConfig, Ubig, UbigRandom};

use crate::{cost, hash};

/// Cap on dynamically cached fixed-base tables (beyond `g` and `ḡ`, which
/// are always kept). Old tables are dropped wholesale once the cap is hit;
/// a caller that needs its table for good keeps the `Arc` that
/// [`SchnorrGroup::cache_base`] returns.
const MAX_CACHED_BASES: usize = 16;

/// A Schnorr group `(p, q, g, ḡ)` with precomputed reduction context.
///
/// Two independent generators are carried because the TDH2 threshold
/// cryptosystem needs a second one; `ḡ` is derived from `g` by hashing so
/// its discrete log is unknown to everyone ("nothing up my sleeve").
///
/// Exponentiations by the generators use fixed-base precomputed tables
/// (built once per group), and further bases can be registered with
/// [`SchnorrGroup::cache_base`]; the table cache is shared across clones
/// of the group, so a scheme instance and its per-party copies reuse the
/// same precomputation.
#[derive(Debug, Clone)]
pub struct SchnorrGroup {
    p: Ubig,
    q: Ubig,
    g: Ubig,
    g_bar: Ubig,
    cofactor: Ubig,
    mont: Montgomery,
    g_fixed: Arc<FixedBase>,
    g_bar_fixed: Arc<FixedBase>,
    tables: Arc<Mutex<HashMap<Ubig, Arc<FixedBase>>>>,
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.q == other.q && self.g == other.g && self.g_bar == other.g_bar
    }
}

impl Eq for SchnorrGroup {}

impl SchnorrGroup {
    /// Assembles a group from explicit parameters, validating the group
    /// structure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::MalformedInput`] if `q` does not divide
    /// `p - 1` or either generator is not an order-`q` element.
    pub fn from_parts(p: Ubig, q: Ubig, g: Ubig, g_bar: Ubig) -> crate::Result<Self> {
        if p <= Ubig::two() || q <= Ubig::two() {
            return Err(crate::CryptoError::MalformedInput("tiny group parameters"));
        }
        let p_minus_1 = &p - &Ubig::one();
        let (cofactor, rem) = p_minus_1.div_rem(&q);
        if !rem.is_zero() {
            return Err(crate::CryptoError::MalformedInput("q does not divide p-1"));
        }
        if (&cofactor % &q).is_zero() {
            // q² | p-1 would give the ambient group an order-q² component,
            // breaking the cofactor-annihilation argument batched DLEQ
            // verification relies on (and is never produced by honest
            // parameter generation).
            return Err(crate::CryptoError::MalformedInput("q^2 divides p-1"));
        }
        let mont = Montgomery::new(&p);
        let (g_fixed, g_bar_fixed) = Self::generator_tables(&mont, &g, &g_bar, &q);
        let group = SchnorrGroup {
            p,
            q,
            g,
            g_bar,
            cofactor,
            mont,
            g_fixed,
            g_bar_fixed,
            tables: Arc::new(Mutex::new(HashMap::new())),
        };
        if !group.is_element(&group.g) || group.g.is_one() {
            return Err(crate::CryptoError::MalformedInput("g is not a generator"));
        }
        if !group.is_element(&group.g_bar) || group.g_bar.is_one() {
            return Err(crate::CryptoError::MalformedInput(
                "g_bar is not a generator",
            ));
        }
        Ok(group)
    }

    /// Generates a fresh group with `p_bits`-bit modulus and `q_bits`-bit
    /// subgroup order. Expensive; prefer [`crate::fixtures::schnorr_group`]
    /// for standard sizes.
    pub fn generate<R: Rng + ?Sized>(p_bits: u32, q_bits: u32, rng: &mut R) -> Self {
        let config = PrimeConfig::default();
        let (p, q) = sintra_bigint::prime::gen_schnorr_group(p_bits, q_bits, &config, rng);
        Self::from_primes(p, q, rng)
    }

    /// Builds the generators for known-good primes `p, q` with `q | p-1`.
    pub fn from_primes<R: Rng + ?Sized>(p: Ubig, q: Ubig, rng: &mut R) -> Self {
        let p_minus_1 = &p - &Ubig::one();
        let cofactor = &p_minus_1 / &q;
        let mont = Montgomery::new(&p);
        let g = loop {
            let h = rng.gen_ubig_range(&Ubig::two(), &p_minus_1);
            let candidate = mont.pow(&h, &cofactor);
            if !candidate.is_one() && !candidate.is_zero() {
                break candidate;
            }
        };
        let mut seed = p.to_be_bytes();
        seed.extend_from_slice(&g.to_be_bytes());
        let g_bar = Self::map_to_subgroup(&mont, &p, &cofactor, b"sintra-gbar", &seed);
        let (g_fixed, g_bar_fixed) = Self::generator_tables(&mont, &g, &g_bar, &q);
        SchnorrGroup {
            p,
            q,
            g,
            g_bar,
            cofactor,
            mont,
            g_fixed,
            g_bar_fixed,
            tables: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Builds the generator fixed-base tables (exponents are always < `q`,
    /// or `q` itself in order checks) and meters the precomputation.
    fn generator_tables(
        mont: &Montgomery,
        g: &Ubig,
        g_bar: &Ubig,
        q: &Ubig,
    ) -> (Arc<FixedBase>, Arc<FixedBase>) {
        let bits = q.bit_length();
        let g_fixed = FixedBase::new(mont, g, bits);
        let g_bar_fixed = FixedBase::new(mont, g_bar, bits);
        let table_muls = (g_fixed.entries() + g_bar_fixed.entries()) as f64;
        cost::charge(table_muls * cost::mul_work(mont.modulus().bit_length()));
        (Arc::new(g_fixed), Arc::new(g_bar_fixed))
    }

    fn map_to_subgroup(
        mont: &Montgomery,
        p: &Ubig,
        cofactor: &Ubig,
        domain: &[u8],
        input: &[u8],
    ) -> Ubig {
        let mut counter: u32 = 0;
        loop {
            let mut data = input.to_vec();
            data.extend_from_slice(&counter.to_be_bytes());
            let x = hash::hash_to_ubig(domain, &data, p);
            if !x.is_zero() {
                let candidate = mont.pow(&x, cofactor);
                if !candidate.is_one() {
                    return candidate;
                }
            }
            counter += 1;
        }
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// The prime subgroup order `q`.
    pub fn order(&self) -> &Ubig {
        &self.q
    }

    /// The primary generator `g`.
    pub fn generator(&self) -> &Ubig {
        &self.g
    }

    /// The independent second generator `ḡ`.
    pub fn generator_bar(&self) -> &Ubig {
        &self.g_bar
    }

    /// Modulus size in bits (the "key size" of the paper's sweeps).
    pub fn modulus_bits(&self) -> u32 {
        self.p.bit_length()
    }

    /// Tests subgroup membership: `x != 0 mod p` and `x^q = 1 mod p`.
    pub fn is_element(&self, x: &Ubig) -> bool {
        if x.is_zero() || *x >= self.p {
            return false;
        }
        cost::mont_pow(&self.mont, x, &self.q).is_one()
    }

    /// Metered exponentiation `base^exp mod p`.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        cost::mont_pow(&self.mont, base, exp)
    }

    /// The fixed-base table for `base`, if one is available and covers
    /// `exp`.
    fn fixed_for(&self, base: &Ubig, exp: &Ubig) -> Option<Arc<FixedBase>> {
        let fb = if *base == self.g {
            self.g_fixed.clone()
        } else if *base == self.g_bar {
            self.g_bar_fixed.clone()
        } else {
            self.tables.lock().expect("table cache").get(base)?.clone()
        };
        fb.covers(exp).then_some(fb)
    }

    /// Precomputes and caches a fixed-base table for `base` (exponents up
    /// to `q` bits), making later [`SchnorrGroup::pow_cached`] and
    /// [`SchnorrGroup::multi_pow`] calls on that base squaring-free, and
    /// returns it. A base whose table is cached costs a lookup.
    ///
    /// The cache is shared across clones of the group and capped: the
    /// call that finds it full empties it first. A table evicted so is
    /// built (and charged) again only when its base is registered again,
    /// so a caller that uses a base for good keeps the returned table and
    /// exponentiates with [`SchnorrGroup::pow_table`].
    pub fn cache_base(&self, base: &Ubig) -> Arc<FixedBase> {
        if *base == self.g {
            return self.g_fixed.clone();
        }
        if *base == self.g_bar {
            return self.g_bar_fixed.clone();
        }
        let mut tables = self.tables.lock().expect("table cache");
        if let Some(fb) = tables.get(base) {
            return fb.clone();
        }
        if tables.len() >= MAX_CACHED_BASES {
            tables.clear();
        }
        let fb = Arc::new(FixedBase::new(&self.mont, base, self.q.bit_length()));
        cost::charge(fb.entries() as f64 * cost::mul_work(self.p.bit_length()));
        tables.insert(base.clone(), fb.clone());
        fb
    }

    /// Metered exponentiation that uses a fixed-base table when one is
    /// cached for `base` (see [`SchnorrGroup::cache_base`]) and falls back
    /// to a plain windowed ladder otherwise.
    pub fn pow_cached(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        match self.fixed_for(base, exp) {
            Some(fb) => self.pow_table(&fb, exp),
            None => self.pow(base, exp),
        }
    }

    /// Metered exponentiation by a table from [`SchnorrGroup::cache_base`].
    ///
    /// # Panics
    ///
    /// Panics if `exp` is longer than `q`.
    pub fn pow_table(&self, table: &FixedBase, exp: &Ubig) -> Ubig {
        cost::charge(cost::fixed_base_exp_work(
            self.p.bit_length(),
            exp.bit_length().max(1),
        ));
        table.pow(&self.mont, exp)
    }

    /// `g^exp mod p` (fixed-base accelerated).
    pub fn pow_g(&self, exp: &Ubig) -> Ubig {
        self.pow_cached(&self.g, exp)
    }

    /// `ḡ^exp mod p` (fixed-base accelerated).
    pub fn pow_g_bar(&self, exp: &Ubig) -> Ubig {
        self.pow_cached(&self.g_bar, exp)
    }

    /// Metered simultaneous multi-exponentiation `∏ bᵢ^eᵢ mod p`.
    ///
    /// Bases with cached fixed-base tables are folded in squaring-free;
    /// the remaining bases share one interleaved squaring chain
    /// (Straus/Shamir), so `k` same-size exponentiations cost roughly
    /// `0.8 + 0.2·k` plain exponentiations instead of `k`.
    pub fn multi_pow(&self, pairs: &[(&Ubig, &Ubig)]) -> Ubig {
        let mut fixed: Vec<(Arc<FixedBase>, &Ubig)> = Vec::new();
        let mut dynamic: Vec<(&Ubig, &Ubig)> = Vec::new();
        let mut dynamic_bits: Vec<u32> = Vec::new();
        for &(base, exp) in pairs {
            if exp.is_zero() {
                continue;
            }
            if let Some(fb) = self.fixed_for(base, exp) {
                cost::charge(cost::fixed_base_exp_work(
                    self.p.bit_length(),
                    exp.bit_length(),
                ));
                fixed.push((fb, exp));
            } else {
                dynamic.push((base, exp));
                dynamic_bits.push(exp.bit_length());
            }
        }
        if !dynamic.is_empty() {
            cost::charge(cost::multi_exp_work(self.p.bit_length(), &dynamic_bits));
        }
        let fixed: Vec<(&FixedBase, &Ubig)> = fixed.iter().map(|(fb, exp)| (&**fb, *exp)).collect();
        self.mont.multi_pow_fixed(&fixed, &dynamic)
    }

    /// Group operation `a * b mod p`, metered at the fractional weight of
    /// one modular multiplication.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        cost::charge(cost::mul_work(self.p.bit_length()));
        a.mod_mul(b, &self.p)
    }

    /// Multiplicative inverse in `Z_p^*` (metered).
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero mod `p` (never an element of the group).
    pub fn inv(&self, a: &Ubig) -> Ubig {
        cost::charge(cost::inv_work(self.p.bit_length()));
        a.mod_inverse(&self.p)
            .expect("group elements are invertible")
    }

    /// `a / b mod p`.
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.mul(a, &self.inv(b))
    }

    /// `-e mod q`: turns a division by `x^e` into a multiplication by
    /// `x^{-e mod q}` for order-`q` elements, avoiding modular inversion.
    pub fn neg_exponent(&self, e: &Ubig) -> Ubig {
        Ubig::zero().mod_sub(e, &self.q)
    }

    /// The subgroup cofactor `(p-1)/q`.
    pub fn cofactor(&self) -> &Ubig {
        &self.cofactor
    }

    /// Hashes arbitrary bytes onto a subgroup element (a full-domain hash
    /// into the group, modeled as a random oracle).
    pub fn hash_to_group(&self, domain: &[u8], input: &[u8]) -> Ubig {
        // The cofactor exponentiation is a real cost; meter it.
        cost::charge(cost::exp_work(
            self.p.bit_length(),
            self.cofactor.bit_length().max(1),
        ));
        Self::map_to_subgroup(&self.mont, &self.p, &self.cofactor, domain, input)
    }

    /// Uniformly random exponent in `[0, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        rng.gen_ubig_below(&self.q)
    }

    /// Reduces arbitrary bytes to an exponent in `[0, q)` (random oracle).
    pub fn hash_to_exponent(&self, domain: &[u8], input: &[u8]) -> Ubig {
        hash::hash_to_ubig(domain, input, &self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_group() -> SchnorrGroup {
        // p = 2*q*k + 1 small test group.
        let mut rng = StdRng::seed_from_u64(11);
        SchnorrGroup::generate(96, 32, &mut rng)
    }

    #[test]
    fn generator_has_order_q() {
        let g = small_group();
        assert!(g.is_element(g.generator()));
        assert!(g.is_element(g.generator_bar()));
        assert_ne!(g.generator(), g.generator_bar());
        assert_eq!(g.pow_g(g.order()), Ubig::one());
    }

    #[test]
    fn pow_homomorphism() {
        let g = small_group();
        let mut rng = StdRng::seed_from_u64(12);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let lhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        let rhs = g.pow_g(&a.mod_add(&b, g.order()));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn inverse_cancels() {
        let g = small_group();
        let mut rng = StdRng::seed_from_u64(13);
        let x = g.pow_g(&g.random_exponent(&mut rng));
        assert_eq!(g.mul(&x, &g.inv(&x)), Ubig::one());
        assert_eq!(g.div(&x, &x), Ubig::one());
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        let g = small_group();
        for input in [&b"a"[..], b"b", b"coin 17"] {
            let e = g.hash_to_group(b"test", input);
            assert!(g.is_element(&e), "input {input:?}");
            assert!(!e.is_one());
        }
        assert_eq!(
            g.hash_to_group(b"test", b"same"),
            g.hash_to_group(b"test", b"same")
        );
        assert_ne!(
            g.hash_to_group(b"test", b"x"),
            g.hash_to_group(b"other", b"x")
        );
    }

    #[test]
    fn from_parts_validates() {
        let g = small_group();
        let ok = SchnorrGroup::from_parts(
            g.modulus().clone(),
            g.order().clone(),
            g.generator().clone(),
            g.generator_bar().clone(),
        );
        assert!(ok.is_ok());
        let bad = SchnorrGroup::from_parts(
            g.modulus().clone(),
            g.order().clone(),
            Ubig::one(),
            g.generator_bar().clone(),
        );
        assert!(bad.is_err());
        let bad_order = SchnorrGroup::from_parts(
            g.modulus().clone(),
            &(g.order() + &Ubig::two()) - &Ubig::zero(),
            g.generator().clone(),
            g.generator_bar().clone(),
        );
        assert!(bad_order.is_err());
    }

    #[test]
    fn non_elements_rejected() {
        let g = small_group();
        assert!(!g.is_element(&Ubig::zero()));
        assert!(!g.is_element(g.modulus()));
        // p-1 has order 2, not q (for odd q).
        let p_minus_1 = g.modulus() - &Ubig::one();
        assert!(!g.is_element(&p_minus_1));
    }
}
