//! Almost-Montgomery multiplication in radix 2⁵² on AVX-512 IFMA
//! (Gueron–Krasnov): the kernels that an x86-64 CPU with `avx512f` and
//! `avx512ifma` runs in place of the limb kernels of `montgomery.rs`.
//!
//! A value is held as digits of 52 bits, one per 64-bit lane, and a row
//! of the multiplication adds `a·bᵢ` and `m·n` lane by lane with
//! `vpmadd52luq`/`vpmadd52huq` ([`amm_row`]). Two kernels share that row:
//!
//! * [`amm52x20`], for a 16-limb modulus: one residue of 20 digits in
//!   three registers, `R = 2¹⁰⁴⁰`. [`crate::Montgomery`] selects it.
//! * [`amm52x7x3`], for three moduli below 2³⁴³ (the primes of a
//!   three-prime 1024-bit RSA key): three residues of 7 digits, one
//!   register each, `R = 2³⁶⁴`, multiplied in lockstep so that their
//!   dependency chains overlap. [`Montgomery3::pow3`] runs three whole
//!   exponentiations on it.
//!
//! Both are `#[target_feature]` functions built from value intrinsics, so
//! they are safe to call from code compiled for the same extensions. The
//! one `unsafe` block of this file, in [`dispatch`], is the only way in
//! from ordinary code, and it only takes constants that exist after
//! [`ifma_detected`] has been asked.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m512i;

use crate::montgomery::{bits_at, neg_inverse};
#[cfg(target_arch = "x86_64")]
use crate::DoubleLimb;
use crate::{Limb, Ubig};

/// Bits per digit.
pub(crate) const DIGIT_BITS: usize = 52;
pub(crate) const DIGIT_MASK: Limb = (1 << DIGIT_BITS) - 1;
/// Digits per residue of a 16-limb modulus: 1040 bits, so `R = 2¹⁰⁴⁰`.
pub(crate) const DIGITS: usize = 20;
/// Digits per lockstep residue: 364 bits, so `R = 2³⁶⁴`.
const LOCKSTEP_DIGITS: usize = 7;
/// The moduli [`Montgomery3`] takes are below `2^LOCKSTEP_BITS`.
const LOCKSTEP_BITS: u32 = 343;
/// Bits per window of the lockstep exponentiation.
const WINDOW: u32 = 5;

/// One lockstep residue: 7 digits and a zero eighth lane.
type Digits8 = [Limb; 8];
/// A residue modulo each of the three moduli.
type Triple = [Digits8; 3];

/// Whether this CPU has the two extensions the kernels are written in:
/// AVX-512 Foundation and its 52-bit multiply-add (IFMA).
#[cfg(target_arch = "x86_64")]
pub(crate) fn ifma_detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Without x86-64 there is no IFMA kernel to run.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn ifma_detected() -> bool {
    false
}

/// `k₀ = -n⁻¹ mod 2⁵²` for an odd `n`.
fn digit_k0(n: &Ubig) -> Limb {
    neg_inverse(n.limbs()[0]) & DIGIT_MASK
}

/// `v < 2^(52·N)` (given as limbs) as `N` digits of 52 bits.
pub(crate) fn to_digits<const N: usize>(v: &[Limb]) -> [Limb; N] {
    let mut out = [0; N];
    for (i, d) in out.iter_mut().enumerate() {
        let (limb, shift) = (i * DIGIT_BITS / 64, i * DIGIT_BITS % 64);
        let mut x = v.get(limb).map_or(0, |l| l >> shift);
        if shift > 64 - DIGIT_BITS {
            x |= v.get(limb + 1).map_or(0, |l| l << (64 - shift));
        }
        *d = x & DIGIT_MASK;
    }
    out
}

/// The value of digits of 52 bits, as a `Ubig`.
pub(crate) fn from_digits(d: &[Limb]) -> Ubig {
    let mut limbs = vec![0; d.len() * DIGIT_BITS / 64 + 1];
    for (i, &x) in d.iter().enumerate() {
        let (limb, shift) = (i * DIGIT_BITS / 64, i * DIGIT_BITS % 64);
        limbs[limb] |= x << shift;
        if shift > 64 - DIGIT_BITS {
            limbs[limb + 1] |= x >> (64 - shift);
        }
    }
    Ubig::from_limbs(limbs)
}

/// The first twenty digits of a residue, for [`Ifma::mul_into`].
pub(crate) fn twenty(a: &[Limb]) -> &[Limb; DIGITS] {
    a.first_chunk().expect("a 20-digit residue")
}

/// The first twenty digits of a residue buffer, for [`Ifma::mul_into`].
pub(crate) fn twenty_mut(a: &mut [Limb]) -> &mut [Limb; DIGITS] {
    a.first_chunk_mut().expect("a 20-digit residue")
}

/// Lanes `8j .. 8j + 8` of a value in digits, zero past the last digit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lanes_in(v: &[Limb], j: usize) -> __m512i {
    let d = |i: usize| v.get(8 * j + i).map_or(0, |&x| x as i64);
    std::arch::x86_64::_mm512_set_epi64(d(7), d(6), d(5), d(4), d(3), d(2), d(1), d(0))
}

/// The first `N` lanes of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lanes_out<const N: usize>(v: __m512i) -> [Limb; N] {
    use std::arch::x86_64::{_mm512_extracti32x4_epi32 as quarter, *};
    let pairs = [
        quarter::<0>(v),
        quarter::<1>(v),
        quarter::<2>(v),
        quarter::<3>(v),
    ];
    let mut out = [0; N];
    for (two, pair) in out.chunks_exact_mut(2).zip(pairs) {
        two[0] = _mm_cvtsi128_si64(pair) as Limb;
        two[1] = _mm_extract_epi64::<1>(pair) as Limb;
    }
    out
}

/// An operand of [`amm_row`]: its digits in `L` registers, and its two
/// lowest digits again as scalars.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    v: [__m512i; L],
    d0: Limb,
    d1: Limb,
}

#[cfg(target_arch = "x86_64")]
impl<const L: usize> Lanes<L> {
    /// The first `8L` digits of `d`.
    #[target_feature(enable = "avx512f")]
    fn new(d: &[Limb]) -> Self {
        Lanes {
            v: std::array::from_fn(|j| lanes_in(d, j)),
            d0: d[0],
            d1: d[1],
        }
    }
}

/// The accumulator of [`amm_row`]: `L` registers of 8 lanes, whose lane 0
/// lives in scalar `low` alongside.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Acc<const L: usize> {
    t: [__m512i; L],
    low: Limb,
}

#[cfg(target_arch = "x86_64")]
impl<const L: usize> Acc<L> {
    #[target_feature(enable = "avx512f")]
    fn zero() -> Self {
        Acc {
            t: [std::arch::x86_64::_mm512_setzero_si512(); L],
            low: 0,
        }
    }

    /// The lanes of the accumulator, `low` put back into lane 0, settled
    /// into digits.
    #[target_feature(enable = "avx512f")]
    fn settle(self) -> [__m512i; L] {
        let mut t = self.t;
        t[0] = std::arch::x86_64::_mm512_mask_set1_epi64(t[0], 1, self.low as i64);
        settle(t)
    }
}

/// One row of almost-Montgomery multiplication in radix 2⁵², for the digit
/// `bᵢ` of `b`: `t = (t + a·bᵢ + m·n) / 2⁵²` with `k0 = -n⁻¹ mod 2⁵²`.
///
/// The row adds the low halves of `a·bᵢ` and `m·n` lane by lane
/// (`vpmadd52luq`), shifts the accumulator down one lane (`valignq`) and
/// adds the high halves, which so land one lane above their low halves
/// (`vpmadd52huq`). Lane 0 lives in scalar code alongside: it picks
/// `m = (t₀ + a₀·bᵢ)·k₀ mod 2⁵²`, so that lane 0 is a multiple of 2⁵²
/// that the shift turns into a carry, and takes its full products there;
/// the vector lane 0 is never read. The next lane 0 is that carry plus
/// lane 1, read before `m·n` is added to it and given `m·n₁`'s low half
/// in scalar code, so that the row-to-row chain runs through `m` once. A
/// lane gains at most four values below 2⁵² per row.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm_row<const L: usize>(acc: &mut Acc<L>, a: &Lanes<L>, n: &Lanes<L>, k0: Limb, bi: Limb) {
    use std::arch::x86_64::{
        _mm512_add_epi64 as add, _mm512_alignr_epi64 as down, _mm512_madd52hi_epu64 as hi,
        _mm512_madd52lo_epu64 as lo, *,
    };
    use std::array::from_fn;
    let zero = _mm512_setzero_si512();
    let bv = _mm512_set1_epi64(bi as i64);
    let u: [__m512i; L] = from_fn(|j| lo(acc.t[j], a.v[j], bv));
    let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(u[0])) as Limb;
    let x = acc.low as DoubleLimb + a.d0 as DoubleLimb * bi as DoubleLimb;
    let m = (x as Limb).wrapping_mul(k0) & DIGIT_MASK;
    let carry = ((x + m as DoubleLimb * n.d0 as DoubleLimb) >> DIGIT_BITS) as Limb;
    acc.low = carry + lane1 + (m.wrapping_mul(n.d1) & DIGIT_MASK);
    let mv = _mm512_set1_epi64(m as i64);
    let s: [__m512i; L] = from_fn(|j| add(u[j], lo(zero, n.v[j], mv)));
    let h: [__m512i; L] = from_fn(|j| hi(hi(zero, a.v[j], bv), n.v[j], mv));
    acc.t = from_fn(|j| {
        let above = if j + 1 < L { s[j + 1] } else { zero };
        add(down::<1>(above, s[j]), h[j])
    });
}

/// Almost-Montgomery multiplication modulo a 16-limb `n`:
/// `a · b · 2⁻¹⁰⁴⁰ mod n`, below `2¹⁰²⁵` but not necessarily below `n`,
/// for 20-digit `a`, `b < 2¹⁰²⁵` (`k0 = -n⁻¹ mod 2⁵²`). The accumulator is
/// 24 lanes in three registers, of which 20 carry digits; over 20 rows of
/// [`amm_row`] a lane stays below 2⁶⁰.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm52x20(
    n: &[Limb; DIGITS],
    k0: Limb,
    a: &[Limb; DIGITS],
    b: &[Limb; DIGITS],
) -> [Limb; DIGITS] {
    let (a, n) = (Lanes::<3>::new(a), Lanes::<3>::new(n));
    let mut acc = Acc::zero();
    for &bi in b {
        amm_row(&mut acc, &a, &n, k0, bi);
    }
    let r = acc.settle();
    debug_assert_eq!(lanes_out::<8>(r[2])[4..], [0; 4], "below 2^1040");
    let mut out = [0; DIGITS];
    out[..8].copy_from_slice(&lanes_out::<8>(r[0]));
    out[8..16].copy_from_slice(&lanes_out::<8>(r[1]));
    out[16..].copy_from_slice(&lanes_out::<4>(r[2]));
    out
}

/// Three almost-Montgomery multiplications in lockstep:
/// `aᵣ · bᵣ · 2⁻³⁶⁴ mod nᵣ` for `r = 0, 1, 2`, each below 2³⁴⁴, for 7-digit
/// `aᵣ`, `bᵣ < 2³⁴⁴` and `nᵣ < 2³⁴³`. Each residue is one register, and
/// the three take their rows of [`amm_row`] in turn, so that one's
/// row-to-row chain (scalar `m`, broadcast, multiply-add, shift, lane
/// extract) runs while the others' do. Over 7 rows a lane stays below 2⁵⁷.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm52x7x3(n: &[Lanes<1>; 3], k0: &[Limb; 3], a: &Triple, b: &Triple) -> Triple {
    let a = a.each_ref().map(|a| Lanes::<1>::new(a));
    let mut acc = [Acc::<1>::zero(); 3];
    for digits in (0..LOCKSTEP_DIGITS).map(|i| b.map(|b| b[i])) {
        for r in 0..3 {
            amm_row(&mut acc[r], &a[r], &n[r], k0[r], digits[r]);
        }
    }
    acc.map(|acc| {
        let [v] = acc.settle();
        let out = lanes_out::<8>(v);
        debug_assert_eq!(out[LOCKSTEP_DIGITS], 0, "below 2^364");
        out
    })
}

/// The lanes a carry enters, as a mask, when the lanes in `generate` carry
/// out and those in `propagate` carry out exactly when a carry enters
/// them: the carry bits of the binary sum `(generate << 1) + propagate`.
pub(crate) fn carried_into(generate: u32, propagate: u32) -> u32 {
    ((generate << 1) + propagate) ^ propagate
}

/// The 52-bit digits of the `8L` lanes `t` (each below 2⁶⁴, `L ≤ 3`) when
/// their value is below `2^(52·8L)`. One vector step moves each lane's
/// bits above 52 into the lane above, which leaves every lane at most
/// 2⁵² − 1 + 2¹²; the carries that are then left are single bits, and
/// adding the mask of lanes at or above 2⁵² (shifted one up) to the mask
/// of lanes at exactly 2⁵² − 1 ripples them as binary addition does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn settle<const L: usize>(t: [__m512i; L]) -> [__m512i; L] {
    use std::arch::x86_64::{_mm512_alignr_epi64 as align, *};
    use std::array::from_fn;
    let zero = _mm512_setzero_si512();
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    let c = t.map(|x| _mm512_srli_epi64::<52>(x));
    let up: [__m512i; L] = from_fn(|j| align::<7>(c[j], if j == 0 { zero } else { c[j - 1] }));
    let r: [__m512i; L] = from_fn(|j| _mm512_add_epi64(_mm512_and_si512(t[j], mask), up[j]));
    let lanes_where = |test: &dyn Fn(__m512i) -> u8| {
        r.iter()
            .rev()
            .fold(0u32, |acc, &x| acc << 8 | test(x) as u32)
    };
    let generate = lanes_where(&|x| _mm512_cmpgt_epu64_mask(x, mask));
    let propagate = lanes_where(&|x| _mm512_cmpeq_epu64_mask(x, mask));
    let carries = carried_into(generate, propagate);
    let one = _mm512_set1_epi64(1);
    from_fn(|j| {
        let plus = _mm512_mask_add_epi64(r[j], (carries >> (8 * j)) as u8, r[j], one);
        _mm512_and_si512(plus, mask)
    })
}

/// The constants of the 20-digit kernel for a 16-limb `n`.
#[derive(Debug, Clone)]
pub(crate) struct Ifma {
    /// `n` in digits.
    n: [Limb; DIGITS],
    /// `k₀ = -n⁻¹ mod 2⁵²`.
    k0: Limb,
}

impl Ifma {
    /// The kernel's constants for `n`, when `n` has exactly 16 limbs and
    /// this CPU runs the kernel; `None` otherwise.
    ///
    /// The residues are below 2¹⁰²⁵, in 20 digits. For a, b < 2¹⁰²⁵ the
    /// kernel returns (a·b + m·n) / 2¹⁰⁴⁰ with m < 2¹⁰⁴⁰, which is below
    /// 2²⁰⁵⁰ / 2¹⁰⁴⁰ + n = 2¹⁰¹⁰ + n < 2¹⁰²⁵ for any 16-limb n: every
    /// output is again an input, so no multiplication needs a subtraction.
    /// Leaving Montgomery form multiplies by 1, which gives at most
    /// a / 2¹⁰⁴⁰ + n < n + 1, and one subtraction ends it.
    pub(crate) fn new(n: &Ubig) -> Option<Self> {
        (n.limbs().len() == 16 && ifma_detected()).then(|| Ifma {
            n: to_digits(n.limbs()),
            k0: digit_k0(n),
        })
    }

    /// `out = a · b · 2⁻¹⁰⁴⁰ mod n`, below `2¹⁰²⁵`.
    pub(crate) fn mul_into(
        &self,
        out: &mut [Limb; DIGITS],
        a: &[Limb; DIGITS],
        b: &[Limb; DIGITS],
    ) {
        dispatch(Call::Mul(self, a, b, out));
    }

    /// `a · b · 2⁻¹⁰⁴⁰ mod n`, below `2¹⁰²⁵`.
    pub(crate) fn mul(&self, a: &[Limb; DIGITS], b: &[Limb; DIGITS]) -> [Limb; DIGITS] {
        let mut out = [0; DIGITS];
        self.mul_into(&mut out, a, b);
        out
    }
}

/// Exponentiation modulo three moduli at once, on the lockstep AVX-512
/// IFMA kernel (`amm52x7x3`): what the three CRT exponentiations of a
/// three-prime RSA signature need.
///
/// The three exponentiations run in lockstep, one multiplication of each
/// per kernel call, so they share one fixed-window schedule over the
/// longest exponent.
///
/// ```
/// use sintra_bigint::{Montgomery, Montgomery3, Ubig};
///
/// let p = ["ffffffffffffffc5", "fffffffffffffe95", "ffffffffffffff43"]
///     .map(|hex| Ubig::from_hex(hex).unwrap());
/// let (x, e) = (Ubig::from(123_456u64), Ubig::from(65_537u64));
/// // `None` on a CPU without AVX-512 IFMA.
/// if let Some(ctx) = Montgomery3::new([&p[0], &p[1], &p[2]]) {
///     let got = ctx.pow3([&x, &x, &x], [&e, &e, &e]);
///     for (got, p) in got.iter().zip(&p) {
///         assert_eq!(*got, Montgomery::new(p).pow(&x, &e));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery3(Box<Lockstep>);

/// The constants of the lockstep kernel.
#[derive(Debug, Clone)]
struct Lockstep {
    moduli: [Ubig; 3],
    /// The moduli in digits.
    n: Triple,
    /// `k₀ = -nᵣ⁻¹ mod 2⁵²` per modulus.
    k0: [Limb; 3],
    /// `R mod nᵣ` and `R² mod nᵣ`, `R = 2³⁶⁴`.
    r1: Triple,
    r2: Triple,
}

impl Montgomery3 {
    /// A lockstep context for three odd moduli, each at least 3 and below
    /// 2³⁴³, on a CPU that runs AVX-512 IFMA; `None` otherwise.
    ///
    /// The bound: residues stay below 2³⁴⁴, in 7 digits. For a, b < 2³⁴⁴
    /// and n < 2³⁴³ the kernel returns (a·b + m·n) / 2³⁶⁴ with m < 2³⁶⁴,
    /// which is below 2⁶⁸⁸ / 2³⁶⁴ + n = 2³²⁴ + n < 2³⁴⁴: every output is
    /// again an input, so no multiplication subtracts. A lane gains at
    /// most four values below 2⁵² per row, so over 7 rows it stays below
    /// 2⁵⁷. Leaving Montgomery form multiplies by 1, which gives at most
    /// a / 2³⁶⁴ + n < n + 1, and one subtraction ends it.
    pub fn new(moduli: [&Ubig; 3]) -> Option<Self> {
        let fits = |n: &Ubig| n.is_odd() && *n > Ubig::two() && n.bit_length() <= LOCKSTEP_BITS;
        if !moduli.iter().all(|n| fits(n)) || !ifma_detected() {
            return None;
        }
        let r = &Ubig::one() << (LOCKSTEP_DIGITS * DIGIT_BITS) as u32;
        let residue = |v: Ubig| to_digits::<8>(v.limbs());
        Some(Montgomery3(Box::new(Lockstep {
            n: moduli.map(|n| residue(n.clone())),
            k0: moduli.map(digit_k0),
            r1: moduli.map(|n| residue(&r % n)),
            r2: moduli.map(|n| residue(&(&r * &r) % n)),
            moduli: moduli.map(Ubig::clone),
        })))
    }

    /// The three moduli.
    pub fn moduli(&self) -> [&Ubig; 3] {
        self.0.moduli.each_ref()
    }

    /// `[bᵣ^eᵣ mod nᵣ]` for the three `(bases[r], exps[r])`; a base need
    /// not be below its modulus.
    ///
    /// Fixed 5-bit windows over the longest exponent, since sliding
    /// windows cannot run in lockstep: a table of `x⁰ … x³¹` per modulus
    /// (31 calls), then per window five squarings and, unless all three
    /// windows are zero, one multiplication. A shorter exponent's leading
    /// windows are zero and multiply by `x⁰`. The residues stay in digits
    /// from the entry (`x mod nᵣ`, then `·R²`) to the exit (`·1`, then one
    /// conditional subtraction).
    pub fn pow3(&self, bases: [&Ubig; 3], exps: [&Ubig; 3]) -> [Ubig; 3] {
        let ctx = &*self.0;
        let mut x = [[0; 8]; 3];
        for ((x, base), n) in x.iter_mut().zip(bases).zip(&ctx.moduli) {
            *x = to_digits((base % n).limbs());
        }
        let mut out = [[0; 8]; 3];
        dispatch(Call::Pow3(ctx, &x, exps, &mut out));
        let mut values = out.map(|d| from_digits(&d));
        for (v, n) in values.iter_mut().zip(&ctx.moduli) {
            if *v >= *n {
                *v = &*v - n;
            }
        }
        values
    }
}

/// The three exponentiations of [`Montgomery3::pow3`], from the bases'
/// residues to the exponentiations' results in digits (each at most its
/// modulus).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn pow3_lockstep(ctx: &Lockstep, x: &Triple, exps: [&Ubig; 3]) -> Triple {
    let n = ctx.n.each_ref().map(|n| Lanes::<1>::new(n));
    let mul = |a: &Triple, b: &Triple| amm52x7x3(&n, &ctx.k0, a, b);
    let mut table = [[[0; 8]; 3]; 1 << WINDOW];
    table[0] = ctx.r1;
    table[1] = mul(x, &ctx.r2);
    for i in 2..table.len() {
        table[i] = mul(&table[i - 1], &table[1]);
    }
    let window = |w: u32| exps.map(|e| bits_at(e, w * WINDOW, WINDOW));
    let pick = |v: [usize; 3]| -> Triple { std::array::from_fn(|r| table[v[r]][r]) };
    let bits = exps.iter().map(|e| e.bit_length()).max().unwrap_or(0);
    let windows = bits.div_ceil(WINDOW).max(1);
    let mut acc = pick(window(windows - 1));
    for w in (0..windows - 1).rev() {
        for _ in 0..WINDOW {
            acc = mul(&acc, &acc);
        }
        let v = window(w);
        if v != [0; 3] {
            acc = mul(&acc, &pick(v));
        }
    }
    let mut one = [0; 8];
    one[0] = 1;
    mul(&acc, &[one; 3])
}

/// A call into the IFMA kernels, with the constants it runs on and the
/// buffer it writes. Only [`Ifma::new`] and [`Montgomery3::new`] build
/// those constants, each after [`ifma_detected`].
enum Call<'a> {
    /// One product on the 20-digit kernel.
    Mul(
        &'a Ifma,
        &'a [Limb; DIGITS],
        &'a [Limb; DIGITS],
        &'a mut [Limb; DIGITS],
    ),
    /// Three exponentiations on the lockstep kernel.
    Pow3(&'a Lockstep, &'a Triple, [&'a Ubig; 3], &'a mut Triple),
}

/// Runs `call` on its kernel.
#[cfg(target_arch = "x86_64")]
fn dispatch(call: Call<'_>) {
    // SAFETY: `run` is only unsafe to call because it is compiled for
    // AVX-512F and AVX-512 IFMA; it reads its operands through references
    // and writes only the output buffer its call names. Every `Call`
    // borrows an `Ifma` or a `Lockstep`, which only `Ifma::new` and
    // `Montgomery3::new` build, each after `ifma_detected()` has confirmed
    // that this CPU runs both extensions.
    #[allow(unsafe_code)]
    unsafe {
        run(call)
    }
}

/// Without x86-64 nothing builds the constants a call needs.
#[cfg(not(target_arch = "x86_64"))]
fn dispatch(_call: Call<'_>) {
    unreachable!("the IFMA kernels are only selected on x86-64")
}

/// The kernels behind [`dispatch`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn run(call: Call<'_>) {
    match call {
        Call::Mul(ifma, a, b, out) => *out = amm52x20(&ifma.n, ifma.k0, a, b),
        Call::Pow3(ctx, x, exps, out) => *out = pow3_lockstep(ctx, x, exps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Montgomery;
    use proptest::prelude::*;

    /// Holds [`Montgomery3::pow3`] on `moduli` to three portable
    /// exponentiations, for every base of `bases` (plus 0, 1, each
    /// `nᵣ − 1` and a multiple of `n₀`) against every exponent of `exps`
    /// (plus 0 and 1), the exponents rotated among the moduli so that
    /// their lengths differ. Returns whether the CPU ran the kernel, that
    /// is, whether it compared anything at all.
    fn lockstep_matches_portable(moduli: &[Ubig; 3], bases: &[Ubig], exps: &[Ubig]) -> bool {
        let Some(ctx) = Montgomery3::new(moduli.each_ref()) else {
            return false;
        };
        let portable = moduli
            .each_ref()
            .map(|n| Montgomery::with_kernels(n, false));
        let mut bases: Vec<Ubig> = bases.to_vec();
        bases.extend([Ubig::zero(), Ubig::one(), &moduli[0] * &Ubig::from(5u64)]);
        bases.extend(moduli.iter().map(|n| n - &Ubig::one()));
        let mut exps: Vec<Ubig> = exps.to_vec();
        exps.extend([Ubig::zero(), Ubig::one()]);
        for x in &bases {
            for shift in 0..exps.len() {
                let e: [&Ubig; 3] = std::array::from_fn(|r| &exps[(shift + r) % exps.len()]);
                let got = ctx.pow3([x, x, x], e);
                for r in 0..3 {
                    let want = portable[r].pow(x, e[r]);
                    assert_eq!(got[r], want, "{x:?}^{:?} mod {:?}", e[r], moduli[r]);
                }
            }
        }
        let distinct = ctx.pow3([&bases[0], &bases[1], &bases[2]], [&exps[0]; 3]);
        for r in 0..3 {
            assert_eq!(distinct[r], portable[r].pow(&bases[r], &exps[0]));
        }
        true
    }

    /// One case of the lockstep differential test: three odd moduli from
    /// `limbs` below 2³⁴³ (the first with bit 342 set, the second of 128
    /// bits, longer than the primes of the 128-bit test keys), then the
    /// fixture key's three primes; 2 bases of 512 bits, mostly above the
    /// moduli, and exponents of up to 343, 341, 170 and 17 bits.
    fn lockstep_case(limbs: &[u64], operands: &[u64], exps: &[u64]) -> bool {
        let odd = |l: &[u64], bits: u32| {
            let v = Ubig::from_limbs(l.to_vec()).with_bit(0, true);
            &v % &(&Ubig::one() << bits)
        };
        let random = [
            odd(&limbs[..6], 343).with_bit(342, true),
            odd(&limbs[6..8], 128).with_bit(127, true),
            odd(&limbs[8..14], 343),
        ];
        let fixture = RSA_PRIMES.map(|hex| Ubig::from_hex(hex).unwrap());
        let bases: Vec<Ubig> = operands
            .chunks(8)
            .map(|l| Ubig::from_limbs(l.to_vec()))
            .collect();
        let exps = [
            odd(&exps[..6], 343),
            odd(&exps[6..12], 341),
            odd(&exps[12..15], 170),
            Ubig::from(exps[15] & 0x1ffff),
        ];
        [random, fixture]
            .iter()
            .all(|moduli| lockstep_matches_portable(moduli, &bases, &exps))
    }

    /// The three 341-bit primes of party 0's 1024-bit fixture RSA key.
    const RSA_PRIMES: [&str; 3] = [
        "1d5f2e1b5efbffb44e0615b9afcd49bcf0e5fd8eafb6eb252855db37f2003910e9371132d0bd4d30f23aa1",
        "11f06d0adadbd512d57c3226004e7c51059daa66f88336228bcb18700b1d8aacda13bfbfd7ab3af7d59155",
        "39923b74324aebbb7eb6f0fb46099d1c9b61429d9d4bc2f31be80488fdf9d284526cf8ef4f58988de689db",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn lockstep_kernel_agrees_with_portable(
            moduli in prop::collection::vec(any::<u64>(), 14),
            operands in prop::collection::vec(any::<u64>(), 16),
            exps in prop::collection::vec(any::<u64>(), 16),
        ) {
            if !lockstep_case(&moduli, &operands, &exps) {
                eprintln!("lockstep_kernel_agrees_with_portable: this CPU has no IFMA; compared nothing");
                return;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        // The weekly job's depth; run it in release.
        #[test]
        #[ignore]
        fn lockstep_kernel_agrees_with_portable_deep(
            moduli in prop::collection::vec(any::<u64>(), 14),
            operands in prop::collection::vec(any::<u64>(), 16),
            exps in prop::collection::vec(any::<u64>(), 16),
        ) {
            if !lockstep_case(&moduli, &operands, &exps) {
                eprintln!("lockstep_kernel_agrees_with_portable_deep: this CPU has no IFMA; compared nothing");
                return;
            }
        }
    }

    /// A modulus outside the kernel's bound or an even one gets no context.
    #[test]
    fn lockstep_refuses_what_its_bound_does_not_cover() {
        let p = RSA_PRIMES.map(|hex| Ubig::from_hex(hex).unwrap());
        let top = &(&Ubig::one() << 343) - &Ubig::one();
        let above = &(&Ubig::one() << 343) + &Ubig::one();
        let ok = Montgomery3::new([&p[0], &p[1], &top]).is_some();
        assert_eq!(ok, ifma_detected(), "2^343 - 1 is in bounds");
        for bad in [above, Ubig::from(4u64), Ubig::one()] {
            assert!(Montgomery3::new([&p[0], &bad, &p[2]]).is_none(), "{bad:?}");
        }
    }
}
