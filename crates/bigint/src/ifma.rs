//! Almost-Montgomery multiplication in radix 2⁵² on AVX-512 IFMA
//! (Gueron–Krasnov): the kernels that an x86-64 CPU with `avx512f`,
//! `avx512vl` and `avx512ifma` runs in place of the limb kernels of
//! `montgomery.rs`. A value is held as digits of 52 bits, each in a 64-bit
//! lane, and multiplied with `vpmadd52luq`/`vpmadd52huq`. There are two
//! kernels:
//!
//! * [`amm52x20`], for a 16-limb modulus: one residue of 20 digits in
//!   three `zmm` registers, `R = 2¹⁰⁴⁰`, one row per digit of `b`
//!   ([`amm_row`]). [`crate::Montgomery`] selects it.
//! * The digit-sliced kernel under [`Montgomery3::pow3`], for three
//!   moduli below 2³⁴³ (the primes of a three-prime 1024-bit RSA key):
//!   digit `i` of the three residues sits in lanes 0, 1 and 2 of one
//!   256-bit register, so that every step is lane-wise and the three
//!   multiplications are one, `R = 2³⁶⁴`. Its body ([`sliced_kernel`]) is
//!   written once and expanded over the vector unit (`ymm`) and, in the
//!   tests, over plain integers (`twin`), which runs on every CPU.
//!
//! The vector functions are `#[target_feature]` functions built from value
//! intrinsics, so they are safe to call from code compiled for the same
//! extensions. The one `unsafe` block of this file, in [`dispatch`], is
//! the only way in from ordinary code, and it only takes constants that
//! exist after [`ifma_detected`] has been asked.

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
/// `zmm` registers per 20-digit residue.
#[cfg(target_arch = "x86_64")]
const REGS: usize = 3;
/// Digits per lockstep residue: 364 bits, so `R = 2³⁶⁴`.
const LOCKSTEP_DIGITS: usize = 7;
/// The moduli [`Montgomery3`] takes are below `2^LOCKSTEP_BITS`.
const LOCKSTEP_BITS: u32 = 343;
/// Bits per window of the lockstep exponentiation.
const WINDOW: u32 = 5;

/// Three lockstep residues, digit-sliced: entry `i` holds digit `i` of
/// residue `r` in lane `r`, and zero in lane 3.
type Sliced = [[Limb; 4]; LOCKSTEP_DIGITS];

/// Whether this CPU has the three extensions the kernels are written in:
/// AVX-512 Foundation, its 256-bit forms (VL) and its 52-bit multiply-add
/// (IFMA). Every CPU that has IFMA has VL; both kernels are reached
/// through one [`run`], compiled for all three.
#[cfg(target_arch = "x86_64")]
pub(crate) fn ifma_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512ifma")
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

/// An operand of [`amm_row`]: its digits in three registers, and its two
/// lowest digits again as scalars.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Lanes {
    v: [__m512i; REGS],
    d0: Limb,
    d1: Limb,
}

#[cfg(target_arch = "x86_64")]
impl Lanes {
    /// The first 24 digits of `d`.
    #[target_feature(enable = "avx512f")]
    fn new(d: &[Limb]) -> Self {
        Lanes {
            v: std::array::from_fn(|j| lanes_in(d, j)),
            d0: d[0],
            d1: d[1],
        }
    }
}

/// The accumulator of [`amm_row`]: three registers of 8 lanes, whose lane
/// 0 lives in scalar `low` alongside.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Acc {
    t: [__m512i; REGS],
    low: Limb,
}

#[cfg(target_arch = "x86_64")]
impl Acc {
    #[target_feature(enable = "avx512f")]
    fn zero() -> Self {
        Acc {
            t: [std::arch::x86_64::_mm512_setzero_si512(); REGS],
            low: 0,
        }
    }

    /// The lanes of the accumulator, `low` put back into lane 0, settled
    /// into digits.
    #[target_feature(enable = "avx512f")]
    fn settle(self) -> [__m512i; REGS] {
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
fn amm_row(acc: &mut Acc, a: &Lanes, n: &Lanes, k0: Limb, bi: Limb) {
    use std::arch::x86_64::{
        _mm512_add_epi64 as add, _mm512_alignr_epi64 as down, _mm512_madd52hi_epu64 as hi,
        _mm512_madd52lo_epu64 as lo, *,
    };
    use std::array::from_fn;
    let zero = _mm512_setzero_si512();
    let bv = _mm512_set1_epi64(bi as i64);
    let u: [__m512i; REGS] = from_fn(|j| lo(acc.t[j], a.v[j], bv));
    let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(u[0])) as Limb;
    let x = acc.low as DoubleLimb + a.d0 as DoubleLimb * bi as DoubleLimb;
    let m = (x as Limb).wrapping_mul(k0) & DIGIT_MASK;
    let carry = ((x + m as DoubleLimb * n.d0 as DoubleLimb) >> DIGIT_BITS) as Limb;
    acc.low = carry + lane1 + (m.wrapping_mul(n.d1) & DIGIT_MASK);
    let mv = _mm512_set1_epi64(m as i64);
    let s: [__m512i; REGS] = from_fn(|j| add(u[j], lo(zero, n.v[j], mv)));
    let h: [__m512i; REGS] = from_fn(|j| hi(hi(zero, a.v[j], bv), n.v[j], mv));
    acc.t = from_fn(|j| {
        let above = if j + 1 < REGS { s[j + 1] } else { zero };
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
    let (a, n) = (Lanes::new(a), Lanes::new(n));
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

/// The lanes a carry enters, as a mask, when the lanes in `generate` carry
/// out and those in `propagate` carry out exactly when a carry enters
/// them: the carry bits of the binary sum `(generate << 1) + propagate`.
pub(crate) fn carried_into(generate: u32, propagate: u32) -> u32 {
    ((generate << 1) + propagate) ^ propagate
}

/// The 52-bit digits of the 24 lanes `t` (each below 2⁶⁴) when their value
/// is below 2¹²⁴⁸. One vector step moves each lane's bits above 52 into
/// the lane above, which leaves every lane at most 2⁵² − 1 + 2¹²; the
/// carries that are then left are single bits, and adding the mask of
/// lanes at or above 2⁵² (shifted one up) to the mask of lanes at exactly
/// 2⁵² − 1 ripples them as binary addition does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn settle(t: [__m512i; REGS]) -> [__m512i; REGS] {
    use std::arch::x86_64::{_mm512_alignr_epi64 as align, *};
    use std::array::from_fn;
    let zero = _mm512_setzero_si512();
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    let c = t.map(|x| _mm512_srli_epi64::<52>(x));
    let up: [__m512i; REGS] = from_fn(|j| align::<7>(c[j], if j == 0 { zero } else { c[j - 1] }));
    let r: [__m512i; REGS] = from_fn(|j| _mm512_add_epi64(_mm512_and_si512(t[j], mask), up[j]));
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

/// The digit-sliced lockstep kernel, written once. Expanded inside a
/// module that provides a lane type `V` of four 64-bit lanes and `load`,
/// `store`, `zero`, `add`, `and`, `min`, `srli`, `blend`, `lo` and `hi`
/// with the semantics of the AVX-512 intrinsics they stand for
/// (`lo(t, a, b)` and `hi(t, a, b)` add the low and the high 52 bits of
/// the 104-bit product of the low 52 bits of `a` and `b` to `t`), it
/// defines that module's `product`, `square`, `reduce` and `pow3`.
/// Every step is lane by lane: no value crosses from one lane into
/// another.
///
/// The arguments are the attributes of every function it defines.
macro_rules! sliced_kernel {
    ($(#[$attr:meta])*) => {
        use super::*;
        use std::array::from_fn;

        /// Three residues: digit `i` of residue `r` in lane `r` of entry `i`.
        pub(super) type Digits = [V; LOCKSTEP_DIGITS];
        /// Three double-width products, column by column.
        pub(super) type Columns = [V; 2 * LOCKSTEP_DIGITS];

        /// The schoolbook products `aᵣ·bᵣ` in 14 columns: column `k` sums
        /// the low halves of `aᵢ·bⱼ` with `i + j = k` and the high halves
        /// with `i + j = k − 1`, which gather in separate accumulators so
        /// that a column's multiply-adds do not wait on one another.
        $(#[$attr])*
        #[inline]
        pub(super) fn product(a: &Digits, b: &Digits) -> Columns {
            let (mut l, mut h) = ([zero(); 2 * LOCKSTEP_DIGITS], [zero(); 2 * LOCKSTEP_DIGITS]);
            for i in 0..LOCKSTEP_DIGITS {
                for j in 0..LOCKSTEP_DIGITS {
                    l[i + j] = lo(l[i + j], a[i], b[j]);
                    h[i + j + 1] = hi(h[i + j + 1], a[i], b[j]);
                }
            }
            from_fn(|k| add(l[k], h[k]))
        }

        /// `product(a, a)` with each cross product computed once and
        /// doubled: 21 of them and 7 squares, 56 multiply-adds in place
        /// of 98.
        $(#[$attr])*
        #[inline]
        pub(super) fn square(a: &Digits) -> Columns {
            let (mut l, mut h) = ([zero(); 2 * LOCKSTEP_DIGITS], [zero(); 2 * LOCKSTEP_DIGITS]);
            for i in 0..LOCKSTEP_DIGITS {
                for j in i + 1..LOCKSTEP_DIGITS {
                    l[i + j] = lo(l[i + j], a[i], a[j]);
                    h[i + j + 1] = hi(h[i + j + 1], a[i], a[j]);
                }
            }
            let mut t: Columns = from_fn(|k| {
                let cross = add(l[k], h[k]);
                add(cross, cross)
            });
            for i in 0..LOCKSTEP_DIGITS {
                t[2 * i] = lo(t[2 * i], a[i], a[i]);
                t[2 * i + 1] = hi(t[2 * i + 1], a[i], a[i]);
            }
            t
        }

        /// Montgomery reduction of the columns `t`: `(t + m·n) / 2³⁶⁴` in
        /// 7 digits, with `m < 2³⁶⁴` chosen digit by digit,
        /// `mᵢ = tᵢ·k₀ mod 2⁵²`. Row `i` adds `m·n` shifted `i` digits
        /// up and drops column `i`, whose low 52 bits then are zero: as
        /// `tᵢ + lo(mᵢ·n₀) ≡ 0 (mod 2⁵²)`, it carries
        /// `(tᵢ >> 52) + [lo₅₂(tᵢ) ≠ 0]` into column `i + 1`, and
        /// `lo(mᵢ·n₀)` is never computed. The next `mᵢ₊₁` waits for only
        /// one multiply-add into column `i + 1`.
        $(#[$attr])*
        #[inline]
        pub(super) fn reduce(mut t: Columns, n: &Digits, k0: V) -> Digits {
            let (mask, one) = (load([DIGIT_MASK; 4]), load([1; 4]));
            for i in 0..LOCKSTEP_DIGITS {
                let m = lo(zero(), t[i], k0);
                let carry = add(srli::<52>(t[i]), min(and(t[i], mask), one));
                t[i + 1] = add(lo(add(t[i + 1], carry), m, n[1]), hi(zero(), m, n[0]));
                for j in 2..LOCKSTEP_DIGITS {
                    t[i + j] = lo(t[i + j], m, n[j]);
                }
                for j in 1..LOCKSTEP_DIGITS {
                    t[i + j + 1] = hi(t[i + j + 1], m, n[j]);
                }
            }
            let mut carry = zero();
            from_fn(|d| {
                let x = add(t[LOCKSTEP_DIGITS + d], carry);
                carry = srli::<52>(x);
                and(x, mask)
            })
        }

        /// The three exponentiations of [`Montgomery3::pow3`], from the
        /// bases' residues to the results (each at most its modulus).
        $(#[$attr])*
        pub(super) fn pow3(ctx: &Lockstep, x: &Sliced, exps: [&Ubig; 3]) -> Sliced {
            let (n, k0) = (ctx.n.map(|d| load(d)), load(ctx.k0));
            let mul = |a: &Digits, b: &Digits| reduce(product(a, b), &n, k0);
            let mut table = [[zero(); LOCKSTEP_DIGITS]; 1 << WINDOW];
            table[0] = ctx.r1.map(|d| load(d));
            table[1] = mul(&x.map(|d| load(d)), &ctx.r2.map(|d| load(d)));
            for i in 2..table.len() {
                table[i] = mul(&table[i - 1], &table[1]);
            }
            // Lane `r` of row `v[r]`, for each digit.
            let pick = |v: [usize; 3]| -> Digits {
                from_fn(|i| {
                    let low = blend(0b010, table[v[0]][i], table[v[1]][i]);
                    blend(0b100, low, table[v[2]][i])
                })
            };
            let window = |w: u32| exps.map(|e| bits_at(e, w * WINDOW, WINDOW));
            let bits = exps.iter().map(|e| e.bit_length()).max().unwrap_or(0);
            let windows = bits.div_ceil(WINDOW).max(1);
            let mut acc = pick(window(windows - 1));
            for w in (0..windows - 1).rev() {
                for _ in 0..WINDOW {
                    acc = reduce(square(&acc), &n, k0);
                }
                let v = window(w);
                if v != [0; 3] {
                    acc = mul(&acc, &pick(v));
                }
            }
            let unit = from_fn(|i| {
                let one = (i == 0) as Limb;
                load([one, one, one, 0])
            });
            mul(&acc, &unit).map(|v| store(v))
        }
    };
}

/// The digit-sliced kernel on 256-bit registers.
#[cfg(target_arch = "x86_64")]
mod ymm {
    use std::arch::x86_64::{
        __m256i as V, _mm256_add_epi64 as add, _mm256_and_si256 as and,
        _mm256_madd52hi_epu64 as hi, _mm256_madd52lo_epu64 as lo, _mm256_mask_blend_epi64 as blend,
        _mm256_min_epu64 as min, _mm256_setzero_si256 as zero, _mm256_srli_epi64 as srli,
    };

    /// The lanes `d`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
    fn load(d: [Limb; 4]) -> V {
        let [d0, d1, d2, d3] = d.map(|x| x as i64);
        std::arch::x86_64::_mm256_set_epi64x(d3, d2, d1, d0)
    }

    /// The lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
    fn store(v: V) -> [Limb; 4] {
        use std::arch::x86_64::_mm256_extract_epi64 as lane;
        [lane::<0>(v), lane::<1>(v), lane::<2>(v), lane::<3>(v)].map(|x| x as Limb)
    }

    sliced_kernel!(#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]);
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

/// Exponentiation modulo three moduli at once, on the digit-sliced
/// AVX-512 IFMA kernel: what the three CRT exponentiations of a
/// three-prime RSA signature need.
///
/// The three exponentiations run in lockstep, one multiplication of each
/// per kernel step, so they share one fixed-window schedule over the
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

/// The constants of the lockstep kernel, digit-sliced.
#[derive(Debug, Clone)]
struct Lockstep {
    moduli: [Ubig; 3],
    /// The moduli.
    n: Sliced,
    /// `k₀ = -nᵣ⁻¹ mod 2⁵²` in lane `r`.
    k0: [Limb; 4],
    /// `R mod nᵣ` and `R² mod nᵣ`, `R = 2³⁶⁴`.
    r1: Sliced,
    r2: Sliced,
}

/// Three values below 2³⁶⁴, digit-sliced.
fn slice(values: [Ubig; 3]) -> Sliced {
    let d = values.map(|v| to_digits::<LOCKSTEP_DIGITS>(v.limbs()));
    std::array::from_fn(|i| [d[0][i], d[1][i], d[2][i], 0])
}

impl Lockstep {
    /// The kernel's constants for three odd moduli, each at least 3 and
    /// below 2³⁴³; `None` otherwise.
    ///
    /// The bound: residues stay below 2³⁴⁴, in 7 digits. For a, b < 2³⁴⁴
    /// and n < 2³⁴³ the kernel returns (a·b + m·n) / 2³⁶⁴ with m < 2³⁶⁴,
    /// which is below 2⁶⁸⁸ / 2³⁶⁴ + n = 2³²⁴ + n < 2³⁴⁴: every output is
    /// again an input, so no multiplication subtracts. A column of the
    /// kernel gathers at most 13 halves of products `a·b` (6 low and 7
    /// high, or 7 and 6), 13 of `m·n` and the carry of the column below,
    /// each below 2⁵², so it stays below 2⁵⁸ (the tests' twin asserts it
    /// of every lane). Leaving Montgomery form multiplies by 1, which
    /// gives at most a / 2³⁶⁴ + n < n + 1, and one subtraction ends it.
    fn new(moduli: [&Ubig; 3]) -> Option<Self> {
        let fits = |n: &Ubig| n.is_odd() && *n > Ubig::two() && n.bit_length() <= LOCKSTEP_BITS;
        if !moduli.iter().all(|n| fits(n)) {
            return None;
        }
        let r = &Ubig::one() << (LOCKSTEP_DIGITS * DIGIT_BITS) as u32;
        let [k0, k1, k2] = moduli.map(digit_k0);
        Some(Lockstep {
            n: slice(moduli.map(Ubig::clone)),
            k0: [k0, k1, k2, 0],
            r1: slice(moduli.map(|n| &r % n)),
            r2: slice(moduli.map(|n| &(&r * &r) % n)),
            moduli: moduli.map(Ubig::clone),
        })
    }

    /// The bases' residues, digit-sliced.
    fn entry(&self, bases: [&Ubig; 3]) -> Sliced {
        slice(std::array::from_fn(|r| bases[r] % &self.moduli[r]))
    }

    /// The values of the kernel's results, each at most its modulus,
    /// reduced below it.
    fn exit(&self, out: &Sliced) -> [Ubig; 3] {
        std::array::from_fn(|r| {
            let v = from_digits(&out.map(|d| d[r]));
            let n = &self.moduli[r];
            if v >= *n {
                &v - n
            } else {
                v
            }
        })
    }
}

impl Montgomery3 {
    /// A lockstep context for three odd moduli, each at least 3 and below
    /// 2³⁴³, on a CPU that runs AVX-512 IFMA; `None` otherwise. The bound
    /// is written at `Lockstep::new`.
    pub fn new(moduli: [&Ubig; 3]) -> Option<Self> {
        if !ifma_detected() {
            return None;
        }
        Lockstep::new(moduli).map(|ctx| Montgomery3(Box::new(ctx)))
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
    /// (31 multiplications), then per window five squarings and, unless
    /// all three windows are zero, one multiplication by a row of the
    /// table picked lane by lane. A shorter exponent's leading windows are
    /// zero and multiply by `x⁰`. The residues stay in digits from the
    /// entry (`x mod nᵣ`, then `·R²`) to the exit (`·1`, then one
    /// conditional subtraction).
    pub fn pow3(&self, bases: [&Ubig; 3], exps: [&Ubig; 3]) -> [Ubig; 3] {
        let ctx = &*self.0;
        let x = ctx.entry(bases);
        let mut out = [[0; 4]; LOCKSTEP_DIGITS];
        dispatch(Call::Pow3(ctx, &x, exps, &mut out));
        ctx.exit(&out)
    }
}

/// The three exponentiations of [`Montgomery3::pow3`] on the vector unit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn pow3_lockstep(ctx: &Lockstep, x: &Sliced, exps: [&Ubig; 3]) -> Sliced {
    ymm::pow3(ctx, x, exps)
}

/// A call into the IFMA kernels, with the constants it runs on and the
/// buffer it writes. Only [`Ifma::new`] and [`Montgomery3::new`] build
/// those constants for a call, each after [`ifma_detected`]; the tests
/// build a `Lockstep` for the twin anywhere, and call the vector unit on
/// it only after the same check.
enum Call<'a> {
    /// One product on the 20-digit kernel.
    Mul(
        &'a Ifma,
        &'a [Limb; DIGITS],
        &'a [Limb; DIGITS],
        &'a mut [Limb; DIGITS],
    ),
    /// Three exponentiations on the lockstep kernel.
    Pow3(&'a Lockstep, &'a Sliced, [&'a Ubig; 3], &'a mut Sliced),
}

/// Runs `call` on its kernel.
#[cfg(target_arch = "x86_64")]
fn dispatch(call: Call<'_>) {
    // SAFETY: `run` is only unsafe to call because it is compiled for
    // AVX-512F, AVX-512VL and AVX-512 IFMA; it reads its operands through
    // references and writes only the output buffer its call names. Every
    // `Call` borrows an `Ifma` or a `Lockstep` that `Ifma::new` or
    // `Montgomery3::new` built (or a test, after the same check), each
    // after `ifma_detected()` confirmed that this CPU runs all three
    // extensions.
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
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn run(call: Call<'_>) {
    match call {
        Call::Mul(ifma, a, b, out) => *out = amm52x20(&ifma.n, ifma.k0, a, b),
        Call::Pow3(ctx, x, exps, out) => *out = pow3_lockstep(ctx, x, exps),
    }
}

/// The digit-sliced kernel over plain integers: the same body as the
/// vector unit's, on every CPU. Every lane it computes is asserted below
/// 2⁵⁸, the column bound at `Lockstep::new`.
#[cfg(test)]
mod twin {
    /// Four 64-bit lanes.
    type V = [Limb; 4];

    /// `v`, once every lane is known to be below 2⁵⁸.
    fn bounded(v: V) -> V {
        assert!(
            v.iter().all(|&x| x >> 58 == 0),
            "twin: a lane reached 2^58: {v:x?}"
        );
        v
    }

    /// The 104-bit products of the low 52 bits of `a` and `b`, lane by lane.
    fn products(a: V, b: V) -> [u128; 4] {
        from_fn(|i| (a[i] & DIGIT_MASK) as u128 * (b[i] & DIGIT_MASK) as u128)
    }

    fn lo(t: V, a: V, b: V) -> V {
        let p = products(a, b);
        bounded(from_fn(|i| t[i].wrapping_add(p[i] as Limb & DIGIT_MASK)))
    }

    fn hi(t: V, a: V, b: V) -> V {
        let p = products(a, b);
        bounded(from_fn(|i| t[i].wrapping_add((p[i] >> DIGIT_BITS) as Limb)))
    }

    fn add(a: V, b: V) -> V {
        bounded(from_fn(|i| a[i].wrapping_add(b[i])))
    }

    fn and(a: V, b: V) -> V {
        from_fn(|i| a[i] & b[i])
    }

    fn min(a: V, b: V) -> V {
        from_fn(|i| a[i].min(b[i]))
    }

    fn srli<const S: u32>(a: V) -> V {
        a.map(|x| x >> S)
    }

    /// Lane `i` of `b` where bit `i` of `k` is set, of `a` elsewhere.
    fn blend(k: u8, a: V, b: V) -> V {
        from_fn(|i| if k >> i & 1 == 1 { b[i] } else { a[i] })
    }

    fn zero() -> V {
        [0; 4]
    }

    fn load(d: [Limb; 4]) -> V {
        d
    }

    fn store(v: V) -> [Limb; 4] {
        v
    }

    sliced_kernel!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Montgomery;
    use proptest::prelude::*;

    /// The lockstep kernels' digits for `bases` to `exps`: the twin's,
    /// after asserting that the vector unit's (when this CPU runs it) are
    /// the same, lane by lane.
    fn sliced_pow3(ctx: &Lockstep, bases: [&Ubig; 3], exps: [&Ubig; 3]) -> Sliced {
        let x = ctx.entry(bases);
        let twin = twin::pow3(ctx, &x, exps);
        if ifma_detected() {
            let mut vector = [[0; 4]; LOCKSTEP_DIGITS];
            dispatch(Call::Pow3(ctx, &x, exps, &mut vector));
            assert_eq!(
                vector, twin,
                "vector unit and twin differ: {bases:?}^{exps:?}"
            );
        }
        twin
    }

    /// Holds the lockstep kernels to three portable exponentiations on
    /// `moduli`, for every base of `bases` (plus 0, 1, each `nᵣ − 1` and a
    /// multiple of `n₀`) against every exponent of `exps` (plus 0 and 1),
    /// the exponents rotated among the moduli so that their lengths
    /// differ.
    fn lockstep_matches_portable(moduli: &[Ubig; 3], bases: &[Ubig], exps: &[Ubig]) {
        let ctx = Lockstep::new(moduli.each_ref()).expect("moduli in bounds");
        let portable = moduli
            .each_ref()
            .map(|n| Montgomery::with_kernels(n, false));
        let mut bases: Vec<Ubig> = bases.to_vec();
        bases.extend([Ubig::zero(), Ubig::one(), &moduli[0] * &Ubig::from(5u64)]);
        bases.extend(moduli.iter().map(|n| n - &Ubig::one()));
        let mut exps: Vec<Ubig> = exps.to_vec();
        exps.extend([Ubig::zero(), Ubig::one()]);
        let check = |x: [&Ubig; 3], e: [&Ubig; 3]| {
            let got = ctx.exit(&sliced_pow3(&ctx, x, e));
            for r in 0..3 {
                let want = portable[r].pow(x[r], e[r]);
                assert_eq!(
                    got[r], want,
                    "lockstep: {:?}^{:?} mod {:?}",
                    x[r], e[r], moduli[r]
                );
            }
        };
        for x in &bases {
            for shift in 0..exps.len() {
                check(
                    [x; 3],
                    std::array::from_fn(|r| &exps[(shift + r) % exps.len()]),
                );
            }
        }
        check([&bases[0], &bases[1], &bases[2]], [&exps[0]; 3]);
    }

    /// One case of the lockstep differential test: three odd moduli from
    /// `limbs` below 2³⁴³ (the first with bit 342 set, the second of 128
    /// bits, longer than the primes of the 128-bit test keys), then the
    /// fixture key's three primes; 2 bases of 512 bits, mostly above the
    /// moduli, and exponents of up to 343, 341, 170 and 17 bits.
    fn lockstep_case(limbs: &[u64], operands: &[u64], exps: &[u64]) {
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
        for moduli in [random, fixture] {
            lockstep_matches_portable(&moduli, &bases, &exps);
        }
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
            lockstep_case(&moduli, &operands, &exps);
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
            lockstep_case(&moduli, &operands, &exps);
        }
    }

    /// The squaring path is the multiplication path with `a = b`, and both
    /// are `a²·2⁻³⁶⁴` modulo `n` below 2³⁴⁴, for the extreme inputs: every
    /// digit 2⁵² − 1 up to just below 2³⁴⁴, 0, 1 and `n − 1`, modulo 3, 7
    /// (3 bits) and a 343-bit `n` with bit 342 set.
    #[test]
    fn squaring_is_multiplication_by_itself() {
        let top = &(&Ubig::one() << 343) - &Ubig::from(0x1234_5677u64);
        let moduli = [Ubig::from(3u64), Ubig::from(7u64), top.with_bit(342, true)];
        let ctx = Lockstep::new(moduli.each_ref()).expect("moduli in bounds");
        let (n, k0) = (ctx.n, ctx.k0);
        let r_inv = moduli.each_ref().map(|n| {
            let r = &Ubig::one() << (LOCKSTEP_DIGITS * DIGIT_BITS) as u32;
            r.mod_inverse(n).expect("odd modulus")
        });
        let below_r = &(&Ubig::one() << 344) - &Ubig::one();
        let values = |n: &Ubig| [below_r.clone(), Ubig::zero(), Ubig::one(), n - &Ubig::one()];
        for (i, a) in values(&moduli[0]).iter().enumerate() {
            for (j, b) in values(&moduli[1]).iter().enumerate() {
                let c = &values(&moduli[2])[(i + j) % 4];
                let a = slice([a.clone(), b.clone(), c.clone()]);
                let squared = twin::reduce(twin::square(&a), &n, k0);
                assert_eq!(squared, twin::reduce(twin::product(&a, &a), &n, k0));
                let value = |d: &Sliced, r: usize| from_digits(&d.map(|d| d[r]));
                for r in 0..3 {
                    let (got, a) = (value(&squared, r), value(&a, r));
                    assert!(got.bit_length() <= 344, "{got:?} not below 2^344");
                    let want = (&a * &a).mod_mul(&r_inv[r], &moduli[r]);
                    assert_eq!(&got % &moduli[r], want, "{a:?}^2 mod {:?}", moduli[r]);
                }
            }
        }
    }

    /// A modulus outside the kernel's bound or an even one gets no context;
    /// a modulus inside it gets one exactly where this CPU runs IFMA.
    #[test]
    fn lockstep_refuses_what_its_bound_does_not_cover() {
        let p = RSA_PRIMES.map(|hex| Ubig::from_hex(hex).unwrap());
        let top = &(&Ubig::one() << 343) - &Ubig::one();
        let above = &(&Ubig::one() << 343) + &Ubig::one();
        assert!(
            Lockstep::new([&p[0], &p[1], &top]).is_some(),
            "2^343 - 1 is in bounds"
        );
        let ok = Montgomery3::new([&p[0], &p[1], &top]).is_some();
        assert_eq!(ok, ifma_detected());
        for bad in [above, Ubig::from(4u64), Ubig::one()] {
            assert!(Lockstep::new([&p[0], &bad, &p[2]]).is_none(), "{bad:?}");
        }
    }
}
