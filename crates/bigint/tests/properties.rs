//! Property-based tests for the bigint substrate: ring axioms, division
//! invariants, modular identities and codec round-trips.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sintra_bigint::{FixedBase, Montgomery, Ubig, UbigRandom};

/// Strategy producing Ubig values of widely varying sizes.
fn ubig() -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| Ubig::from_be_bytes(&bytes))
}

/// Strategy producing nonzero Ubig values.
fn ubig_nonzero() -> impl Strategy<Value = Ubig> {
    ubig().prop_map(|v| if v.is_zero() { Ubig::one() } else { v })
}

/// Strategy producing odd moduli >= 3.
fn odd_modulus() -> impl Strategy<Value = Ubig> {
    ubig().prop_map(|v| {
        let v = v.with_bit(0, true);
        if v.is_one() {
            Ubig::from(3u64)
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_sub_roundtrip(a in ubig(), b in ubig()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn square_matches_mul(a in ubig()) {
        prop_assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn division_invariant(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_left_is_mul_by_power_of_two(a in ubig(), s in 0u32..200) {
        prop_assert_eq!(&a << s, &a * &(&Ubig::one() << s));
    }

    #[test]
    fn shift_roundtrip(a in ubig(), s in 0u32..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn be_bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn dec_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_dec(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn mod_mul_matches_naive(a in ubig(), b in ubig(), m in ubig_nonzero()) {
        prop_assert_eq!(a.mod_mul(&b, &m), &(&a * &b) % &m);
    }

    #[test]
    fn montgomery_matches_generic_pow(a in ubig(), e in ubig(), m in odd_modulus()) {
        let mont = Montgomery::new(&m);
        // Reference: simple square-and-multiply with division.
        let mut base = &a % &m;
        let mut acc = &Ubig::one() % &m;
        for i in 0..e.bit_length() {
            if e.bit(i) {
                acc = acc.mod_mul(&base, &m);
            }
            base = base.mod_mul(&base, &m);
        }
        prop_assert_eq!(mont.pow(&a, &e), acc);
    }

    #[test]
    fn multi_pow_matches_separate_pows(
        parts in prop::collection::vec((ubig(), ubig()), 0..5),
        m in odd_modulus(),
    ) {
        let mont = Montgomery::new(&m);
        let pairs: Vec<(&Ubig, &Ubig)> = parts.iter().map(|(b, e)| (b, e)).collect();
        let mut want = &Ubig::one() % &m;
        for (b, e) in &parts {
            want = want.mod_mul(&mont.pow(b, e), &m);
        }
        prop_assert_eq!(mont.multi_pow(&pairs), want);
    }

    #[test]
    fn multi_pow_handles_mismatched_exponent_lengths(
        b1 in ubig(), b2 in ubig(), short in any::<u8>(), long in ubig(), m in odd_modulus(),
    ) {
        // One tiny exponent riding a potentially much longer one (and
        // degenerate 0/1 exponents via `short`).
        let mont = Montgomery::new(&m);
        let short = Ubig::from(short as u64);
        let want = mont.pow(&b1, &short).mod_mul(&mont.pow(&b2, &long), &m);
        prop_assert_eq!(mont.multi_pow(&[(&b1, &short), (&b2, &long)]), want);
    }

    #[test]
    fn multi_pow_with_extreme_bases(e1 in ubig(), e2 in ubig(), m in odd_modulus()) {
        // base = m-1 (order 2, all-ones residue pattern) mixed with base 1.
        let mont = Montgomery::new(&m);
        let top = &m - &Ubig::one();
        let one = Ubig::one();
        let want = mont.pow(&top, &e1).mod_mul(&mont.pow(&one, &e2), &m);
        prop_assert_eq!(mont.multi_pow(&[(&top, &e1), (&one, &e2)]), want);
    }

    #[test]
    fn fixed_base_table_matches_plain_pow(b in ubig(), e in ubig(), m in odd_modulus()) {
        let mont = Montgomery::new(&m);
        let table = FixedBase::new(&mont, &b, e.bit_length().max(1));
        prop_assert!(table.covers(&e));
        prop_assert_eq!(table.pow(&mont, &e), mont.pow(&b, &e));
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn gcd_matches_egcd(a in ubig(), b in ubig()) {
        let (g, _, _) = a.egcd(&b);
        prop_assert_eq!(g, a.gcd(&b));
    }

    #[test]
    fn inverse_is_inverse(a in ubig_nonzero(), m in odd_modulus()) {
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m), &Ubig::one() % &m);
            prop_assert!(inv < m);
        } else {
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn mod_sub_then_add_cancels(a in ubig(), b in ubig(), m in ubig_nonzero()) {
        let d = a.mod_sub(&b, &m);
        prop_assert_eq!(d.mod_add(&b, &m), &a % &m);
    }

    #[test]
    fn bit_length_consistent_with_shift(a in ubig_nonzero()) {
        let bits = a.bit_length();
        prop_assert!(a < (&Ubig::one() << bits));
        prop_assert!(a >= (&Ubig::one() << (bits - 1)));
    }

    #[test]
    fn random_below_in_range(bound in ubig_nonzero(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = rng.gen_ubig_below(&bound);
        prop_assert!(v < bound);
    }

    #[test]
    fn crt_reconstructs(r1 in ubig(), r2 in ubig()) {
        // Fixed coprime moduli.
        let m1 = Ubig::from(0xffff_fffb_u64); // prime
        let m2 = Ubig::from(0xffff_ffef_u64 << 1 | 1); // odd, coprime w.h.p.
        if m1.gcd(&m2).is_one() {
            let a = &r1 % &m1;
            let b = &r2 % &m2;
            let x = Ubig::crt(&a, &m1, &b, &m2).unwrap();
            prop_assert_eq!(&x % &m1, a);
            prop_assert_eq!(&x % &m2, b);
            prop_assert!(x < &m1 * &m2);
        }
    }
}

// Differential checks of the Montgomery kernel against arithmetic by
// division: at the two widths it unrolls (8 limbs: CRT halves; 16: the
// group and RSA moduli), at widths that run the same body with a run-time
// length (17 and 33: odd, not a power of two; 32: Fig. 6's 2048-bit keys)
// and at the degenerate ones (1, 2).

const KERNEL_LIMBS: [usize; 7] = [1, 2, 8, 16, 17, 32, 33];

/// An odd modulus of exactly `limbs` limbs.
fn kernel_modulus(rng: &mut StdRng, limbs: usize) -> Ubig {
    let bits = 64 * limbs as u32;
    rng.gen_ubig_bits(bits)
        .with_bit(bits - 1, true)
        .with_bit(0, true)
}

/// Operands at the edges of the residue range and inside it.
fn kernel_operands(rng: &mut StdRng, n: &Ubig, limbs: usize) -> Vec<Ubig> {
    let r = &Ubig::one() << (64 * limbs as u32);
    vec![
        Ubig::zero(),
        Ubig::one(),
        Ubig::two(),
        n - &Ubig::one(),
        &r % n,
        &rng.gen_ubig_bits(64) % n,
        rng.gen_ubig_below(n),
        rng.gen_ubig_below(n),
    ]
}

/// `base^exp mod n` one bit at a time, every step reduced by division.
fn bitwise_pow(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
    let mut acc = &Ubig::one() % n;
    for i in (0..exp.bit_length()).rev() {
        acc = acc.mod_mul(&acc, n);
        if exp.bit(i) {
            acc = acc.mod_mul(base, n);
        }
    }
    acc
}

#[test]
fn kernel_multiply_and_square_match_division() {
    let mut rng = StdRng::seed_from_u64(0x6d6f6e74);
    for limbs in KERNEL_LIMBS {
        let n = kernel_modulus(&mut rng, limbs);
        let ctx = Montgomery::new(&n);
        let operands = kernel_operands(&mut rng, &n, limbs);
        for a in &operands {
            let am = ctx.to_mont(a);
            assert_eq!(ctx.from_mont(&am), *a, "{limbs} limbs: round trip");
            for b in &operands {
                let want = a.mod_mul(b, &n);
                assert_eq!(ctx.mul(a, b), want, "{limbs} limbs: mul");
                let product = ctx.mont_mul(&am, &ctx.to_mont(b));
                assert_eq!(ctx.from_mont(&product), want, "{limbs} limbs: mont_mul");
            }
            let square = ctx.mont_sqr(&am);
            assert_eq!(square, ctx.mont_mul(&am, &am), "{limbs} limbs: sqr vs mul");
            // Equal values in distinct allocations take the same answer.
            let copy = Ubig::from_be_bytes(&am.to_be_bytes());
            assert_eq!(
                square,
                ctx.mont_mul(&am, &copy),
                "{limbs} limbs: sqr vs copy"
            );
            assert_eq!(
                ctx.from_mont(&square),
                a.mod_mul(a, &n),
                "{limbs} limbs: sqr"
            );
        }
    }
}

#[test]
fn kernel_window_paths_match_bitwise_ladder() {
    let mut rng = StdRng::seed_from_u64(0x77696e64);
    for limbs in KERNEL_LIMBS {
        let n = kernel_modulus(&mut rng, limbs);
        let ctx = Montgomery::new(&n);
        let bases = [rng.gen_ubig_below(&n), &n - &Ubig::one(), Ubig::two()];
        // Lengths on both sides of every window-width boundary.
        for bits in [0u32, 1, 17, 31, 32, 33, 160, 240, 241, 512, 1023, 1024] {
            let mut exponents = vec![Ubig::zero()];
            if bits > 0 {
                let top = &Ubig::one() << (bits - 1);
                let dense = rng.gen_ubig_bits(bits).with_bit(bits - 1, true);
                // Long zero runs: only the ends set, and a set bit every
                // 67 positions (windows that straddle limb boundaries).
                let mut sparse = top.with_bit(0, true);
                for i in (0..bits).step_by(67) {
                    sparse = sparse.with_bit(i, true);
                }
                let ones = &(&top << 1) - &Ubig::one();
                exponents = vec![dense, top.with_bit(0, true), top, sparse, ones];
            }
            for exp in &exponents {
                for base in &bases {
                    assert_eq!(
                        ctx.pow(base, exp),
                        bitwise_pow(base, exp, &n),
                        "{limbs} limbs, {bits}-bit exponent {exp:?}"
                    );
                }
            }
        }
        let e = Ubig::from(65_537u64);
        assert_eq!(ctx.pow(&bases[0], &e), bitwise_pow(&bases[0], &e, &n));
    }
}

#[test]
fn kernel_multi_pow_and_fixed_base_match_pow() {
    let mut rng = StdRng::seed_from_u64(0x7461626c);
    for limbs in KERNEL_LIMBS {
        let n = kernel_modulus(&mut rng, limbs);
        let ctx = Montgomery::new(&n);
        let operands = kernel_operands(&mut rng, &n, limbs);
        let exps: Vec<Ubig> = [160u32, 64, 0, 1, 17, 160, 33, 5]
            .iter()
            .map(|&bits| rng.gen_ubig_bits(bits))
            .collect();
        let pairs: Vec<(&Ubig, &Ubig)> = operands.iter().zip(&exps).collect();
        let mut want = Ubig::one();
        for (base, exp) in &pairs {
            want = want.mod_mul(&ctx.pow(base, exp), &n);
        }
        assert_eq!(ctx.multi_pow(&pairs), want, "{limbs} limbs: multi_pow");
        let first = FixedBase::new(&ctx, pairs[0].0, 160);
        assert_eq!(
            ctx.multi_pow_fixed(&[(&first, pairs[0].1)], &pairs[1..]),
            want,
            "{limbs} limbs: multi_pow_fixed"
        );
        for base in &operands {
            let table = FixedBase::new(&ctx, base, 160);
            for exp in &exps {
                assert_eq!(
                    table.pow(&ctx, exp),
                    ctx.pow(base, exp),
                    "{limbs} limbs: fixed base, {exp:?}"
                );
            }
        }
    }
}

#[test]
fn fermat_on_generated_prime() {
    let mut rng = StdRng::seed_from_u64(99);
    let cfg = sintra_bigint::PrimeConfig {
        miller_rabin_rounds: 16,
    };
    let p = sintra_bigint::prime::gen_prime(128, &cfg, &mut rng);
    let a = Ubig::from(2u64);
    assert_eq!(a.mod_pow(&(&p - &Ubig::one()), &p), Ubig::one());
}
