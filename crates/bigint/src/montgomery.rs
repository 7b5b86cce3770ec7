//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Everything here bottoms out in one limb-level kernel that works on
//! *residues*: values `< n` held in exactly `k` limbs (`k` = limbs of the
//! modulus), in buffers the caller owns. Three operations make it up —
//! `mul_into` (multiply and reduce fused into one pass), `sqr` (each
//! off-diagonal product once) and `reduce` — and the exponentiation loops
//! ([`Montgomery::pow`], [`Montgomery::multi_pow_fixed`],
//! [`FixedBase::pow`]) run on a few scratch buffers allocated once
//! per call. The `Ubig`-level methods are thin wrappers that bring their
//! operands into that shape first.
//!
//! Two widths run a kernel of their own on an x86-64 CPU that has the
//! extensions it is written in: at 6 limbs with BMI2 and ADX, one
//! assembly kernel ([`mul_reduce_adx`]); at 16 limbs with AVX-512 IFMA,
//! almost-Montgomery multiplication in radix 2⁵² (`ifma.rs`), whose
//! residues are 20 digits of 52 bits rather than 16 limbs. The context
//! decides once, in [`Montgomery::new`], and the portable kernel stays
//! the fallback and the reference the tests hold both to.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::ifma::{from_digits, to_digits, twenty, twenty_mut, Ifma, DIGITS, DIGIT_BITS};
use crate::{DoubleLimb, Limb, Ubig};

/// A reusable Montgomery reduction context for a fixed odd modulus.
///
/// Constructing the context performs the one-time setup (computing `-n^-1
/// mod 2^64`, `R mod n` and `R^2 mod n`); afterwards [`Montgomery::pow`]
/// and [`Montgomery::mul`] avoid all trial division.
///
/// # Operand contract
///
/// Inside, every value is a residue: `< n`, exactly as many limbs as `n`.
/// (A context on the IFMA kernel holds 20 digits of 52 bits instead, and
/// its residues stay below `2¹⁰²⁵` rather than `n`; see `amm52x20`.)
/// The methods taking `Ubig`s accept *any* value and reduce it modulo `n`
/// on entry (a comparison when it is already reduced), so a caller cannot
/// obtain a wrong residue by passing an operand `>= n` or one with fewer
/// limbs than the modulus. The Montgomery-form values they return are
/// below `n`. `R` is `2^(64 · limbs)` on the limb kernels and `2¹⁰⁴⁰` on
/// the IFMA kernel, so only values from the same context combine.
///
/// ```
/// use sintra_bigint::{Montgomery, Ubig};
///
/// let m = Ubig::from_hex("ffffffffffffffc5").unwrap();
/// let ctx = Montgomery::new(&m);
/// let a = Ubig::from(123456u64);
/// assert_eq!(ctx.pow(&a, &Ubig::from(2u64)), a.mod_mul(&a, &m));
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Ubig,
    /// `-n^{-1} mod 2^64`
    n_prime: Limb,
    /// `R mod n`: the residue of `1` in Montgomery form.
    r1: Vec<Limb>,
    /// `R^2 mod n`
    r2: Vec<Limb>,
    kernel: Kernel,
}

/// The kernel a context multiplies with. The constants of the two CPU
/// kernels are boxed, so that the keys and groups that embed a context
/// stay a pointer larger.
#[derive(Debug, Clone)]
enum Kernel {
    /// [`mul_reduce`] and [`square_wide`] + [`reduce_wide`], at any width.
    Portable,
    /// `n‖n′` for the 6-limb ADX kernel ([`mul_reduce_adx`]).
    Adx(Box<[Limb; 7]>),
    /// The 16-limb IFMA kernel (`ifma.rs`).
    Ifma(Box<Ifma>),
}

/// `-n⁻¹ mod 2⁶⁴` for an odd limb `n0`, by Newton iteration.
pub(crate) fn neg_inverse(n0: Limb) -> Limb {
    let mut inv: Limb = n0; // correct mod 2^3 for odd n0
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// The limbs of `v < 2^(64 * k)`, zero-extended to exactly `k`.
fn fixed_width(v: Ubig, k: usize) -> Vec<Limb> {
    let mut limbs = v.limbs;
    limbs.resize(k, 0);
    limbs
}

/// The last step of a reduction: `acc` (with `top` as its limb `k`) is
/// below `2n`; brings it below `n`.
fn reduce_once(acc: &mut [Limb], top: Limb, n: &[Limb]) {
    if top == 0 && Ubig::cmp_magnitude(acc, n) == Ordering::Less {
        return;
    }
    // The borrow out of limb `k - 1` cancels `top`.
    let mut borrow = false;
    for (x, &y) in acc.iter_mut().zip(n) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as Limb);
        *x = d;
        borrow = b1 | b2;
    }
}

/// `wide = a * a`: the `k(k-1)/2` off-diagonal products once, doubled,
/// plus the `k` diagonal squares. `wide` has twice the limbs of `a`.
#[inline(always)]
fn square_wide(wide: &mut [Limb], a: &[Limb]) {
    let k = a.len();
    let wide = &mut wide[..2 * k];
    wide.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry: DoubleLimb = 0;
        for (w, &aj) in wide[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
            let t = *w as DoubleLimb + ai as DoubleLimb * aj as DoubleLimb + carry;
            *w = t as Limb;
            carry = t >> 64;
        }
        // Rows `< i` reach limb `i + k - 1` at most, so this limb is fresh.
        wide[i + k] = carry as Limb;
    }
    let mut shifted_out: Limb = 0;
    let mut carry: DoubleLimb = 0;
    for (pair, &ai) in wide.chunks_exact_mut(2).zip(a) {
        let diag = ai as DoubleLimb * ai as DoubleLimb;
        let lo = (pair[0] << 1) | shifted_out;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let t = lo as DoubleLimb + (diag as Limb) as DoubleLimb + carry;
        pair[0] = t as Limb;
        let t = hi as DoubleLimb + (diag >> 64) + (t >> 64);
        pair[1] = t as Limb;
        carry = t >> 64;
    }
    debug_assert!(shifted_out == 0 && carry == 0);
}

/// `out = a * b * R^-1 mod n` for residues `a`, `b` (`n_prime` is
/// `-n^-1 mod 2^64`): multiplication and Montgomery reduction
/// interleaved limb by limb, so the accumulator never grows past `k + 1`
/// limbs and memory is swept once per limb of `b`. Two carry chains (one
/// per product) keep every intermediate inside a `u128`.
#[inline(always)]
fn mul_reduce(n: &[Limb], n_prime: Limb, out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let k = n.len();
    // Equal, known lengths let the inner loop run without bounds checks.
    let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
    out.fill(0);
    // Limb `k` of the accumulator; it stays below `2n`, so 0 or 1.
    let mut top: Limb = 0;
    for &bi in b {
        let x = out[0] as DoubleLimb + a[0] as DoubleLimb * bi as DoubleLimb;
        let m = (x as Limb).wrapping_mul(n_prime);
        let y = (x as Limb) as DoubleLimb + m as DoubleLimb * n[0] as DoubleLimb;
        let (mut carry_ab, mut carry_mn) = (x >> 64, y >> 64);
        for j in 1..k {
            let x = out[j] as DoubleLimb + a[j] as DoubleLimb * bi as DoubleLimb + carry_ab;
            carry_ab = x >> 64;
            let y = (x as Limb) as DoubleLimb + m as DoubleLimb * n[j] as DoubleLimb + carry_mn;
            carry_mn = y >> 64;
            out[j - 1] = y as Limb;
        }
        let t = top as DoubleLimb + carry_ab + carry_mn;
        out[k - 1] = t as Limb;
        top = (t >> 64) as Limb;
    }
    reduce_once(out, top, n);
}

/// `out = wide * R^-1 mod n` for a `2k`-limb `wide < n * R` (which it
/// consumes as scratch).
#[inline(always)]
fn reduce_wide(n: &[Limb], n_prime: Limb, out: &mut [Limb], wide: &mut [Limb]) {
    let k = n.len();
    let (out, wide) = (&mut out[..k], &mut wide[..2 * k]);
    // The carry out of limb `i + k`, owed to limb `i + k + 1`.
    let mut top: Limb = 0;
    for i in 0..k {
        let m = wide[i].wrapping_mul(n_prime);
        let mut carry: DoubleLimb = 0;
        for (w, &nj) in wide[i..i + k].iter_mut().zip(n) {
            let t = *w as DoubleLimb + m as DoubleLimb * nj as DoubleLimb + carry;
            *w = t as Limb;
            carry = t >> 64;
        }
        let t = wide[i + k] as DoubleLimb + carry + top as DoubleLimb;
        wide[i + k] = t as Limb;
        top = (t >> 64) as Limb;
    }
    out.copy_from_slice(&wide[k..]);
    reduce_once(out, top, n);
}

/// Whether this CPU has the two extensions the 6-limb kernel is written
/// in: `mulx` (BMI2) and `adcx`/`adox` (ADX).
#[cfg(target_arch = "x86_64")]
fn adx_detected() -> bool {
    is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx")
}

/// Without x86-64 there is no ADX kernel to run.
#[cfg(not(target_arch = "x86_64"))]
fn adx_detected() -> bool {
    false
}

/// Assembly text for the 6-limb kernel. `row` is one CIOS row of
/// [`mul_reduce_adx`] for the limb of `b` at byte offset `$off`:
/// `t += a·bᵢ`, then `m = t₀·n′ mod 2⁶⁴` and `t = (t + m·n) / 2⁶⁴`.
/// `$t0 … $t6` name the accumulator's registers from low to high; the
/// next row names them one further on, so `$t0`, which the reduction
/// leaves zero, becomes its top register. `sum` adds `p · rdx` into
/// `t₀ … t₆` on two carry chains side by side: the low product halves on
/// OF (`adox`), the high ones on CF (`adcx`).
#[cfg(target_arch = "x86_64")]
macro_rules! adx6 {
    (row $off:literal; $t0:ident $t1:ident $t2:ident $t3:ident $t4:ident $t5:ident $t6:ident) => {
        concat!(
            "mov rdx, qword ptr [{b} + ", $off, "]\n",
            "xor {lo:e}, {lo:e}\n",
            adx6!(sum a; $t0 $t1 $t2 $t3 $t4 $t5 $t6),
            "mov rdx, {", stringify!($t0), "}\n",
            "imul rdx, qword ptr [{n} + 48]\n",
            "xor {lo:e}, {lo:e}\n",
            adx6!(sum n; $t0 $t1 $t2 $t3 $t4 $t5 $t6),
        )
    };
    (sum $p:ident; $t0:ident $t1:ident $t2:ident $t3:ident $t4:ident $t5:ident $t6:ident) => {
        concat!(
            adx6!(limb $p 0; $t0 $t1),
            adx6!(limb $p 8; $t1 $t2),
            adx6!(limb $p 16; $t2 $t3),
            adx6!(limb $p 24; $t3 $t4),
            adx6!(limb $p 32; $t4 $t5),
            adx6!(limb $p 40; $t5 $t6),
            // The OF chain's last carry; `mov` leaves the flags alone.
            "mov {lo:e}, 0\n",
            "adox {", stringify!($t6), "}, {lo}\n",
        )
    };
    (limb $p:ident $off:literal; $lo:ident $hi:ident) => {
        concat!(
            "mulx {hi}, {lo}, qword ptr [{", stringify!($p), "} + ", $off, "]\n",
            "adox {", stringify!($lo), "}, {lo}\n",
            "adcx {", stringify!($hi), "}, {hi}\n",
        )
    };
}

/// `a * b * R^-1 mod 2n` for 6-limb residues `a`, `b` modulo the `n` of
/// `nn = n‖n′` (`n′ = -n^-1 mod 2^64`), in `mulx`/`adcx`/`adox`
/// assembly: the CIOS rows of [`mul_reduce`] with the accumulator in
/// seven registers. The caller finishes with [`reduce_once`]. Only a
/// context whose `new` saw `adx_detected()` and `n < 2^383` calls it.
#[cfg(target_arch = "x86_64")]
fn mul_reduce_adx(nn: &[Limb; 7], a: &[Limb; 6], b: &[Limb; 6]) -> [Limb; 6] {
    let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6]: [Limb; 7] = [0; 7];
    // SAFETY: `Montgomery::new` stores `nn` only after `adx_detected()`
    // has confirmed that this CPU runs `mulx`, `adcx` and `adox`; `nn`,
    // `a` and `b` are `&[Limb; 7]`/`&[Limb; 6]`, so every load below
    // (offsets 0 to 40 of `a` and `b`, 0 to 48 of `nn`) is in bounds; and
    // the block only reads them: it writes no memory and touches no stack
    // (`readonly`, `nostack`), only the registers it declares.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::asm!(
            adx6!(row 0; r0 r1 r2 r3 r4 r5 r6),
            adx6!(row 8; r1 r2 r3 r4 r5 r6 r0),
            adx6!(row 16; r2 r3 r4 r5 r6 r0 r1),
            adx6!(row 24; r3 r4 r5 r6 r0 r1 r2),
            adx6!(row 32; r4 r5 r6 r0 r1 r2 r3),
            adx6!(row 40; r5 r6 r0 r1 r2 r3 r4),
            a = in(reg) a.as_ptr(),
            b = in(reg) b.as_ptr(),
            n = in(reg) nn.as_ptr(),
            r0 = inout(reg) r0,
            r1 = inout(reg) r1,
            r2 = inout(reg) r2,
            r3 = inout(reg) r3,
            r4 = inout(reg) r4,
            r5 = inout(reg) r5,
            r6 = inout(reg) r6,
            hi = out(reg) _,
            lo = out(reg) _,
            out("rdx") _,
            options(readonly, nostack),
        );
    }
    // Row 5 zeroed `r5`; `t < 2n < 2^384` fills the other six.
    debug_assert_eq!(r5, 0);
    [r6, r0, r1, r2, r3, r4]
}

/// Without x86-64 no context selects the ADX kernel.
#[cfg(not(target_arch = "x86_64"))]
fn mul_reduce_adx(_nn: &[Limb; 7], _a: &[Limb; 6], _b: &[Limb; 6]) -> [Limb; 6] {
    unreachable!("the ADX kernel is only selected on x86-64")
}

/// The first six limbs of a residue, for the ADX kernel.
fn six(a: &[Limb]) -> &[Limb; 6] {
    a.first_chunk().expect("a 6-limb residue")
}

/// Runs a kernel body with the modulus re-sliced to a literal length at
/// the two widths the stack lives at — 6 limbs (the 341- and 342-bit
/// primes of a three-prime 1024-bit RSA key) and 16 (the group and RSA
/// moduli) — so the optimiser unrolls that copy of the body; every other
/// width runs the same body with the length read at run time.
macro_rules! at_width {
    ($n:expr, |$m:ident| $body:expr) => {
        match $n.len() {
            6 => {
                let $m = &$n[..6];
                $body
            }
            16 => {
                let $m = &$n[..16];
                $body
            }
            _ => {
                let $m = $n;
                $body
            }
        }
    };
}

/// Bits `lo .. lo + width` of `exp` (`width <= 8`); bits beyond its
/// length read as zero.
pub(crate) fn bits_at(exp: &Ubig, lo: u32, width: u32) -> usize {
    let limbs = exp.limbs();
    let (index, shift) = ((lo / 64) as usize, lo % 64);
    let mut v = limbs.get(index).map_or(0, |l| l >> shift);
    if shift + width > 64 {
        v |= limbs.get(index + 1).map_or(0, |l| l << (64 - shift));
    }
    (v & ((1 << width) - 1)) as usize
}

/// The sliding window whose top is the set bit `top - 1` of `exp`: at
/// most `width` bits, trimmed to end in a set bit. Returns the index of
/// its lowest bit and its (odd) value.
fn window_below(exp: &Ubig, top: u32, width: u32) -> (u32, usize) {
    let lo = top.saturating_sub(width);
    let chunk = bits_at(exp, lo, top - lo);
    let trim = chunk.trailing_zeros();
    (lo + trim, chunk >> trim)
}

/// Sliding-window width for an exponent of `bits` bits. A `w`-bit window
/// costs `2^(w-1)` operations for its table of odd powers and then one
/// multiplication per `w + 1` exponent bits on average, so short
/// exponents (the RSA public exponent) take none, the 160-bit group
/// exponents four bits and the CRT and Shoup exponents five.
fn window_bits(bits: u32) -> u32 {
    match bits {
        0..=32 => 1,
        33..=240 => 4,
        _ => 5,
    }
}

impl Montgomery {
    /// Creates a context for modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or less than 3.
    pub fn new(n: &Ubig) -> Self {
        Self::with_kernels(n, true)
    }

    /// A context for `n` on the CPU kernel for its width when `cpu` is set
    /// and this CPU runs one, on the portable kernel otherwise.
    pub(crate) fn with_kernels(n: &Ubig, cpu: bool) -> Self {
        assert!(n.is_odd(), "Montgomery modulus must be odd");
        assert!(*n > Ubig::two(), "Montgomery modulus must be >= 3");
        let limbs = n.limbs().len();
        let n_prime = neg_inverse(n.limbs()[0]);
        // The ADX kernel's accumulator is seven registers. After every row
        // t < 2n, so t + a·bᵢ + m·n < 2n + 2·(2⁶⁴ − 1)·n < n·2⁶⁵, which is
        // below 2⁴⁴⁸ when n < 2³⁸³: the seventh register never carries
        // out. A modulus with bit 383 set stays on the portable kernel.
        // The IFMA kernel's bound is written at `Ifma::new`.
        let kernel = if !cpu {
            Kernel::Portable
        } else if limbs == 6 && !n.bit(383) && adx_detected() {
            let mut nn = Box::new([n_prime; 7]);
            nn[..6].copy_from_slice(n.limbs());
            Kernel::Adx(nn)
        } else if let Some(ifma) = Ifma::new(n) {
            Kernel::Ifma(Box::new(ifma))
        } else {
            Kernel::Portable
        };
        let r_bits = match kernel {
            Kernel::Ifma(_) => DIGITS * DIGIT_BITS,
            _ => 64 * limbs,
        };
        let r = &(&Ubig::one() << r_bits as u32) % n;
        let r2 = &(&r * &r) % n;
        let mut ctx = Montgomery {
            n: n.clone(),
            n_prime,
            r1: Vec::new(),
            r2: Vec::new(),
            kernel,
        };
        ctx.r1 = ctx.residue(&r).into_owned();
        ctx.r2 = ctx.residue(&r2).into_owned();
        ctx
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Words per residue: the limbs of `n`, or 20 digits on the IFMA
    /// kernel.
    fn width(&self) -> usize {
        match self.kernel {
            Kernel::Ifma(_) => DIGITS,
            _ => self.n.limbs().len(),
        }
    }

    /// `out = a * b * R^-1 mod n` for residues `a`, `b`; `out` is a third
    /// buffer.
    fn mul_into(&self, out: &mut [Limb], a: &[Limb], b: &[Limb]) {
        match &self.kernel {
            Kernel::Portable => {
                at_width!(self.n.limbs(), |n| mul_reduce(n, self.n_prime, out, a, b))
            }
            Kernel::Adx(nn) => {
                out[..6].copy_from_slice(&mul_reduce_adx(nn, six(a), six(b)));
                reduce_once(&mut out[..6], 0, &nn[..6])
            }
            Kernel::Ifma(ifma) => ifma.mul_into(twenty_mut(out), twenty(a), twenty(b)),
        }
    }

    /// `out = wide * R^-1 mod n` for a `2k`-limb `wide < n * R` (which it
    /// consumes as scratch), on the limb kernels.
    fn reduce(&self, out: &mut [Limb], wide: &mut [Limb]) {
        at_width!(self.n.limbs(), |n| reduce_wide(n, self.n_prime, out, wide))
    }

    /// `a = a * a * R^-1 mod n` in place, through the `2k`-limb scratch
    /// `wide`: `k(k+1)/2 + k²` limb products where `mul_into` spends
    /// `2k²`. The CPU kernels square as `a·a`.
    fn sqr(&self, a: &mut [Limb], wide: &mut [Limb]) {
        match &self.kernel {
            Kernel::Portable => at_width!(self.n.limbs(), |n| {
                square_wide(wide, &a[..n.len()]);
                reduce_wide(n, self.n_prime, a, wide)
            }),
            Kernel::Adx(_) => {
                let a6 = *six(a);
                self.mul_into(a, &a6, &a6)
            }
            Kernel::Ifma(ifma) => {
                let a20 = *twenty(a);
                ifma.mul_into(twenty_mut(a), &a20, &a20)
            }
        }
    }

    /// Completes a table of residues whose first entry is set: every
    /// further entry is the one before it times `step`.
    fn fill_powers(&self, table: &mut [Limb], step: &[Limb]) {
        let k = self.width();
        for i in 1..table.len() / k {
            let (done, rest) = table.split_at_mut(i * k);
            self.mul_into(&mut rest[..k], &done[(i - 1) * k..], step);
        }
    }

    /// `a mod n` as a residue; borrowed when `a` already has that shape.
    fn residue<'a>(&self, a: &'a Ubig) -> Cow<'a, [Limb]> {
        let k = self.n.limbs().len();
        let limbs = if a.limbs().len() == k && *a < self.n {
            Cow::Borrowed(a.limbs())
        } else {
            Cow::Owned(fixed_width(a % &self.n, k))
        };
        match self.kernel {
            Kernel::Ifma(_) => Cow::Owned(to_digits::<DIGITS>(&limbs).to_vec()),
            _ => limbs,
        }
    }

    /// The value of a residue, below `n`.
    fn value(&self, residue: Vec<Limb>) -> Ubig {
        if !matches!(self.kernel, Kernel::Ifma(_)) {
            return Ubig::from_limbs(residue);
        }
        // Below 2¹⁰¹⁰ + n: one subtraction when n > 2¹⁰¹⁰.
        let mut v = from_digits(&residue[..DIGITS]);
        if v >= self.n {
            v = &v - &self.n;
        }
        if v >= self.n {
            v = &v % &self.n;
        }
        v
    }

    /// `a` in Montgomery form, as a residue.
    fn enter_mont(&self, a: &Ubig) -> Vec<Limb> {
        let mut out = vec![0; self.width()];
        self.mul_into(&mut out, &self.residue(a), &self.r2);
        out
    }

    /// Takes the residue `a` out of Montgomery form.
    fn leave_mont(&self, a: &[Limb]) -> Ubig {
        if let Kernel::Ifma(ifma) = &self.kernel {
            let mut one = [0; DIGITS];
            one[0] = 1;
            return self.value(ifma.mul(twenty(a), &one).to_vec());
        }
        let k = self.width();
        let mut wide = vec![0; 2 * k];
        wide[..k].copy_from_slice(a);
        let mut out = vec![0; k];
        self.reduce(&mut out, &mut wide);
        Ubig::from_limbs(out)
    }

    /// Converts into Montgomery form (`a * R mod n`).
    pub fn to_mont(&self, a: &Ubig) -> Ubig {
        self.value(self.enter_mont(a))
    }

    /// Converts out of Montgomery form (`a * R^-1 mod n`); `a` is reduced
    /// modulo `n` first if it is not a residue.
    pub fn from_mont(&self, a: &Ubig) -> Ubig {
        self.leave_mont(&self.residue(a))
    }

    /// Modular multiplication of two values in Montgomery form
    /// (`a * b * R^-1 mod n`); an operand that is not a residue is
    /// reduced modulo `n` first.
    pub fn mont_mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let mut out = vec![0; self.width()];
        self.mul_into(&mut out, &self.residue(a), &self.residue(b));
        self.value(out)
    }

    /// Modular squaring of a value in Montgomery form: the result of
    /// `mont_mul(a, a)`, by the dedicated squaring the exponentiation
    /// loops use.
    pub fn mont_sqr(&self, a: &Ubig) -> Ubig {
        let mut out = self.residue(a).into_owned();
        self.sqr(&mut out, &mut vec![0; 2 * self.width()]);
        self.value(out)
    }

    /// Plain modular multiplication `a * b mod n`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        // (a R) * b * R^-1 = a b: one operand in Montgomery form is enough.
        let mut out = vec![0; self.width()];
        self.mul_into(&mut out, &self.enter_mont(a), &self.residue(b));
        self.value(out)
    }

    /// `1` in Montgomery form (`R mod n`).
    pub fn one_mont(&self) -> Ubig {
        self.value(self.r1.clone())
    }

    /// Simultaneous multi-exponentiation: `∏ bᵢ^eᵢ mod n` for the given
    /// `(base, exponent)` pairs (Straus/Shamir interleaving, 4-bit
    /// windows).
    ///
    /// All squarings are shared across the product, so `k` exponentiations
    /// of `e`-bit exponents cost roughly `e` squarings plus `k·e/4`
    /// multiplications instead of `k·(e + e/4)` — the asymptotic win the
    /// threshold-crypto verification path is built on. Pairs with a zero
    /// exponent contribute `1` and are skipped.
    pub fn multi_pow(&self, pairs: &[(&Ubig, &Ubig)]) -> Ubig {
        self.multi_pow_fixed(&[], pairs)
    }

    /// `∏ tᵢ^eᵢ · ∏ bⱼ^fⱼ mod n` for fixed-base tables `tᵢ` (of bases
    /// `tᵢ`, built on this context) with their exponents, and `(bⱼ, fⱼ)`
    /// pairs as [`Montgomery::multi_pow`] takes them: the pairs'
    /// multi-exponentiation, then each table's factor multiplied into the
    /// same residue, which leaves Montgomery form once.
    ///
    /// # Panics
    ///
    /// Panics if an exponent `eᵢ` exceeds its table's covered bit length.
    pub fn multi_pow_fixed(&self, fixed: &[(&FixedBase, &Ubig)], pairs: &[(&Ubig, &Ubig)]) -> Ubig {
        let mut acc = self.multi_pow_residue(pairs);
        let mut tmp = vec![0; self.width()];
        for (table, exp) in fixed {
            table.mul_pow_into(self, &mut acc, &mut tmp, exp);
        }
        self.leave_mont(&acc)
    }

    /// The multi-exponentiation of [`Montgomery::multi_pow`] as a residue
    /// in Montgomery form.
    fn multi_pow_residue(&self, pairs: &[(&Ubig, &Ubig)]) -> Vec<Limb> {
        let k = self.width();
        let active: Vec<(&Ubig, &Ubig)> = pairs
            .iter()
            .filter(|(_, exp)| !exp.is_zero())
            .copied()
            .collect();
        // Per-base tables of b^1..b^15 in Montgomery form, 15 residues each.
        let mut tables = vec![0; active.len() * 15 * k];
        for ((base, _), table) in active.iter().zip(tables.chunks_exact_mut(15 * k)) {
            let base = self.enter_mont(base);
            table[..k].copy_from_slice(&base);
            self.fill_powers(table, &base);
        }
        let max_bits = active
            .iter()
            .map(|(_, exp)| exp.bit_length())
            .max()
            .unwrap_or(0);
        let mut acc = self.r1.clone();
        let mut tmp = vec![0; k];
        let mut wide = vec![0; 2 * k];
        let mut started = false;
        for w in (0..max_bits.div_ceil(4)).rev() {
            if started {
                for _ in 0..4 {
                    self.sqr(&mut acc, &mut wide);
                }
            }
            for ((_, exp), table) in active.iter().zip(tables.chunks_exact(15 * k)) {
                let nibble = bits_at(exp, w * 4, 4);
                if nibble != 0 {
                    self.mul_into(&mut tmp, &acc, &table[(nibble - 1) * k..nibble * k]);
                    std::mem::swap(&mut acc, &mut tmp);
                    started = true;
                }
            }
        }
        acc
    }

    /// Modular exponentiation `base^exp mod n`: left-to-right sliding
    /// window over a table of odd powers, the width chosen from the
    /// exponent's length (`window_bits`; below 33 bits this is
    /// plain square-and-multiply).
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one();
        }
        let k = self.width();
        let width = window_bits(exp.bit_length());
        let mut acc = self.enter_mont(base);
        let mut tmp = vec![0; k];
        let mut wide = vec![0; 2 * k];
        // base^1, base^3, …, base^(2^width − 1) in Montgomery form.
        let mut table = vec![0; k << (width - 1)];
        table[..k].copy_from_slice(&acc);
        if width > 1 {
            self.sqr(&mut acc, &mut wide);
            self.fill_powers(&mut table, &acc);
        }
        // Exponent bits at and above `next` are folded into `acc`.
        let (mut next, odd) = window_below(exp, exp.bit_length(), width);
        acc.copy_from_slice(&table[(odd >> 1) * k..][..k]);
        while next > 0 {
            if !exp.bit(next - 1) {
                self.sqr(&mut acc, &mut wide);
                next -= 1;
                continue;
            }
            let (lo, odd) = window_below(exp, next, width);
            for _ in lo..next {
                self.sqr(&mut acc, &mut wide);
            }
            self.mul_into(&mut tmp, &acc, &table[(odd >> 1) * k..][..k]);
            std::mem::swap(&mut acc, &mut tmp);
            next = lo;
        }
        self.leave_mont(&acc)
    }
}

/// A fixed-base exponentiation table: per-window precomputed powers of one
/// base for exponents up to a declared bit length.
///
/// For window width 4, entry `(j, v)` holds `base^(v · 16^j)` in
/// Montgomery form (`v ∈ 1..=15`). An exponentiation then needs **no
/// squarings** — only one multiplication per non-zero nibble of the
/// exponent — which cuts a `e`-bit exponentiation from ~`1.25·e`
/// multiplications to at most `e/4`. The table costs `15 · ⌈e/4⌉`
/// multiplications to build and `⌈e/4⌉ · 15` stored elements, so it pays
/// off once a base is reused a handful of times (generators, public keys,
/// per-coin bases).
#[derive(Debug, Clone)]
pub struct FixedBase {
    /// Residue `(j * 15 + v - 1)` is `base^(v · 16^j)` in Montgomery
    /// form; `width` words each.
    table: Vec<Limb>,
    width: usize,
    /// Largest exponent bit length the table covers.
    max_bits: u32,
}

impl FixedBase {
    /// Precomputes the table for `base` covering exponents of up to
    /// `max_exp_bits` bits.
    pub fn new(ctx: &Montgomery, base: &Ubig, max_exp_bits: u32) -> Self {
        let k = ctx.width();
        let windows = max_exp_bits.div_ceil(4).max(1);
        let mut table = vec![0; windows as usize * 15 * k];
        // `cur` walks through base^(16^j).
        let mut cur = ctx.enter_mont(base);
        let mut next = vec![0; k];
        for row in table.chunks_exact_mut(15 * k) {
            row[..k].copy_from_slice(&cur);
            ctx.fill_powers(row, &cur);
            ctx.mul_into(&mut next, &row[14 * k..], &cur);
            std::mem::swap(&mut cur, &mut next);
        }
        FixedBase {
            table,
            width: k,
            max_bits: windows * 4,
        }
    }

    /// Largest exponent bit length this table covers.
    pub fn max_exp_bits(&self) -> u32 {
        self.max_bits
    }

    /// Whether `exp` is small enough for this table.
    pub fn covers(&self, exp: &Ubig) -> bool {
        exp.bit_length() <= self.max_bits
    }

    /// Number of precomputed table entries (memory-accounting hook).
    pub fn entries(&self) -> usize {
        self.table.len() / self.width
    }

    /// `base^exp mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `exp` exceeds the table's covered bit length.
    pub fn pow(&self, ctx: &Montgomery, exp: &Ubig) -> Ubig {
        let mut acc = ctx.r1.clone();
        self.mul_pow_into(ctx, &mut acc, &mut vec![0; self.width], exp);
        ctx.leave_mont(&acc)
    }

    /// `acc = acc · base^exp` for a residue `acc` in Montgomery form, with
    /// `tmp` a second residue's scratch.
    fn mul_pow_into(&self, ctx: &Montgomery, acc: &mut Vec<Limb>, tmp: &mut Vec<Limb>, exp: &Ubig) {
        assert!(
            self.covers(exp),
            "exponent of {} bits exceeds fixed-base table ({} bits)",
            exp.bit_length(),
            self.max_bits
        );
        let k = self.width;
        for (j, row) in self.table.chunks_exact(15 * k).enumerate() {
            let nibble = bits_at(exp, j as u32 * 4, 4);
            if nibble != 0 {
                ctx.mul_into(tmp, acc, &row[(nibble - 1) * k..nibble * k]);
                std::mem::swap(acc, tmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifma::{carried_into, DIGIT_MASK};
    use proptest::prelude::*;

    /// The three 341-bit primes of party 0's 1024-bit fixture RSA key.
    const RSA_PRIMES: [&str; 3] = [
        "1d5f2e1b5efbffb44e0615b9afcd49bcf0e5fd8eafb6eb252855db37f2003910e9371132d0bd4d30f23aa1",
        "11f06d0adadbd512d57c3226004e7c51059daa66f88336228bcb18700b1d8aacda13bfbfd7ab3af7d59155",
        "39923b74324aebbb7eb6f0fb46099d1c9b61429d9d4bc2f31be80488fdf9d284526cf8ef4f58988de689db",
    ];

    /// The 1024-bit prime of the fixture Schnorr group.
    const GROUP_PRIME: &str = "8f508e0ac4f5d98d42899d3aee525d18c45745386c73d1a7fd0c2318d5f9acd32a53ba217a20199bb23cc7092d0ad6b0ba6e4ce4fdfbaaa8839684a94c6f2e2bb9d1091d3a0c1e995b9d197566d6bdf8a682a8098f597768ec905cd991a8fdef8ccbb7a70566a4d22d7e202152e1c31272928b370e2e21395390fcdf5b3dfd03";

    /// Party 0's 1024-bit fixture RSA modulus: the product of its primes.
    fn rsa_modulus() -> Ubig {
        RSA_PRIMES
            .iter()
            .map(|hex| Ubig::from_hex(hex).unwrap())
            .fold(Ubig::one(), |acc, p| &acc * &p)
    }

    /// Checks the context's `mul_into` and `sqr` on every pair of
    /// `operands` (reduced modulo `n`, plus 0, 1 and `n − 1`) against the
    /// portable `mul_reduce` and `square_wide` + `reduce_wide`. Returns
    /// whether the context runs the ADX kernel, that is, whether it
    /// compared two kernels at all.
    fn adx_matches_portable(n: &Ubig, operands: &[Ubig]) -> bool {
        let ctx = Montgomery::new(n);
        let residues: Vec<Vec<Limb>> = [Ubig::zero(), Ubig::one(), n - &Ubig::one()]
            .iter()
            .chain(operands)
            .map(|a| fixed_width(a % n, 6))
            .collect();
        let (mut want, mut got, mut wide) = (vec![0; 6], vec![0; 6], vec![0; 12]);
        for a in &residues {
            for b in &residues {
                mul_reduce(n.limbs(), ctx.n_prime, &mut want, a, b);
                ctx.mul_into(&mut got, a, b);
                assert_eq!(got, want, "mul of {a:x?} and {b:x?} modulo {n:?}");
            }
            square_wide(&mut wide, a);
            reduce_wide(n.limbs(), ctx.n_prime, &mut want, &mut wide);
            got.copy_from_slice(a);
            ctx.sqr(&mut got, &mut wide);
            assert_eq!(got, want, "square of {a:x?} modulo {n:?}");
        }
        matches!(ctx.kernel, Kernel::Adx(_))
    }

    /// A 6-limb modulus the kernel's bound does not cover (bit 383 set)
    /// takes the portable kernel and still computes the right powers.
    #[test]
    fn a_modulus_with_bit_383_set_stays_portable() {
        let n = &(&Ubig::one() << 384) - &Ubig::from(317u64);
        let ctx = Montgomery::new(&n);
        assert!(matches!(ctx.kernel, Kernel::Portable));
        let base = Ubig::from_hex(RSA_PRIMES[0]).unwrap();
        let exp = Ubig::from_hex(RSA_PRIMES[1]).unwrap();
        let mut want = Ubig::one();
        for i in (0..exp.bit_length()).rev() {
            want = want.mod_mul(&want, &n);
            if exp.bit(i) {
                want = want.mod_mul(&base, &n);
            }
        }
        assert_eq!(ctx.pow(&base, &exp), want);
        assert_eq!(base.mod_pow(&exp, &n), want);
        assert_eq!(ctx.mul(&base, &exp), base.mod_mul(&exp, &n));
    }

    /// A 6-limb context takes the ADX kernel exactly when the CPU's flags
    /// list `bmi2` and `adx`, and a 16-limb one the IFMA kernel exactly
    /// when they list `avx512f`, `avx512vl` and `avx512ifma`; every other
    /// width stays portable.
    #[cfg(target_os = "linux")]
    #[test]
    fn adx_runs_exactly_when_the_cpu_reports_it() {
        let info = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
        let flags = info
            .lines()
            .find(|l| l.starts_with("flags"))
            .and_then(|l| l.split_once(':'))
            .map_or("", |(_, flags)| flags);
        let reported = |wanted: &[&str]| {
            wanted
                .iter()
                .all(|want| flags.split_whitespace().any(|f| f == *want))
        };
        let prime = Ubig::from_hex(RSA_PRIMES[0]).unwrap();
        let adx = matches!(Montgomery::new(&prime).kernel, Kernel::Adx(_));
        assert_eq!(adx, reported(&["bmi2", "adx"]));
        for n in [Ubig::from_hex(GROUP_PRIME).unwrap(), rsa_modulus()] {
            let ifma = matches!(Montgomery::new(&n).kernel, Kernel::Ifma(_));
            assert_eq!(ifma, reported(&["avx512f", "avx512vl", "avx512ifma"]));
        }
        for bits in [320, 448, 512, 1088] {
            let n = &(&Ubig::one() << (bits - 2)) + &Ubig::one();
            let ctx = Montgomery::new(&n);
            assert!(matches!(ctx.kernel, Kernel::Portable), "{bits} bits");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // A random odd 6-limb modulus below 2^383, the fixture primes and
        // 2^383 − 1, each with the same random operands.
        #[test]
        fn kernels_agree(
            modulus in prop::collection::vec(any::<u64>(), 6),
            operands in prop::collection::vec(any::<u64>(), 24),
        ) {
            let mut modulus = modulus;
            modulus[0] |= 1;
            modulus[5] = (modulus[5] >> 1).max(1);
            let moduli = RSA_PRIMES
                .iter()
                .map(|hex| Ubig::from_hex(hex).unwrap())
                .chain([Ubig::from_limbs(modulus), &(&Ubig::one() << 383) - &Ubig::one()]);
            let operands: Vec<Ubig> =
                operands.chunks(6).map(|l| Ubig::from_limbs(l.to_vec())).collect();
            for n in moduli {
                if !adx_matches_portable(&n, &operands) {
                    eprintln!("kernels_agree: this CPU has no ADX; compared nothing");
                    return;
                }
            }
        }
    }

    /// Holds a context on `n` to a portable one in normal form: `mul`,
    /// `mont_mul`, `mont_sqr`, `pow`, `multi_pow`, `FixedBase::pow` and the
    /// `to_mont`/`from_mont` round trip, on `operands` plus 0, 1 and
    /// `n − 1`. Every Montgomery-form value returned is below `n`. Returns
    /// whether the context runs the IFMA kernel, that is, whether it
    /// compared two kernels at all.
    fn ifma_matches_portable(n: &Ubig, operands: &[Ubig], exps: &[Ubig]) -> bool {
        let ctx = Montgomery::new(n);
        if !matches!(ctx.kernel, Kernel::Ifma(_)) {
            return false;
        }
        let portable = Montgomery::with_kernels(n, false);
        assert!(matches!(portable.kernel, Kernel::Portable));
        let values: Vec<Ubig> = [Ubig::zero(), Ubig::one(), n - &Ubig::one()]
            .into_iter()
            .chain(operands.iter().cloned())
            .collect();
        let below_n = |v: Ubig| {
            assert!(v < *n, "a Montgomery-form value {v:?} is not below {n:?}");
            v
        };
        assert_eq!(ctx.from_mont(&below_n(ctx.one_mont())), Ubig::one());
        for a in &values {
            let am = below_n(ctx.to_mont(a));
            assert_eq!(
                ctx.from_mont(&am),
                a % n,
                "round trip of {a:?} modulo {n:?}"
            );
            for b in &values {
                let want = portable.mul(a, b);
                assert_eq!(ctx.mul(a, b), want, "mul of {a:?} and {b:?} modulo {n:?}");
                let product = below_n(ctx.mont_mul(&am, &ctx.to_mont(b)));
                assert_eq!(ctx.from_mont(&product), want, "mont_mul modulo {n:?}");
            }
            let square = below_n(ctx.mont_sqr(&am));
            assert_eq!(ctx.from_mont(&square), portable.mul(a, a), "mont_sqr");
            for e in exps {
                assert_eq!(ctx.pow(a, e), portable.pow(a, e), "{a:?}^{e:?} mod {n:?}");
            }
        }
        let pairs: Vec<(&Ubig, &Ubig)> = values.iter().zip(exps.iter().cycle()).collect();
        assert_eq!(ctx.multi_pow(&pairs), portable.multi_pow(&pairs));
        let table = FixedBase::new(&ctx, &values[3], 160);
        for e in exps.iter().filter(|e| table.covers(e)) {
            assert_eq!(table.pow(&ctx, e), portable.pow(&values[3], e));
            let want = portable
                .pow(&values[3], e)
                .mod_mul(&portable.multi_pow(&pairs), n);
            assert_eq!(ctx.multi_pow_fixed(&[(&table, e)], &pairs), want);
        }
        true
    }

    /// The 16-limb moduli the IFMA kernel is held to: `random` made odd,
    /// once as it is, once with bit 1023 set and once with its top limb 1
    /// (the shortest 16-limb moduli, whose outputs reach past `2n`), then
    /// `2¹⁰²⁴ − 105`, the fixture group prime and the fixture RSA modulus.
    fn ifma_moduli(random: &[u64]) -> Vec<Ubig> {
        let mut limbs = random.to_vec();
        limbs[0] |= 1;
        limbs[15] = limbs[15].max(1);
        let mut top_bit = limbs.clone();
        top_bit[15] |= 1 << 63;
        let mut shortest = limbs.clone();
        shortest[15] = 1;
        vec![
            Ubig::from_limbs(limbs),
            Ubig::from_limbs(top_bit),
            Ubig::from_limbs(shortest),
            &(&Ubig::one() << 1024) - &Ubig::from(105u64),
            Ubig::from_hex(GROUP_PRIME).unwrap(),
            rsa_modulus(),
        ]
    }

    /// One case of the IFMA differential test: every modulus of
    /// `ifma_moduli`, the same operands (16 limbs, so most are `>= n` for
    /// the shortest moduli) and exponents of 1024, 160 and 17 bits.
    fn ifma_case(modulus: &[u64], operands: &[u64], exps: &[u64]) -> bool {
        let operands: Vec<Ubig> = operands
            .chunks(16)
            .map(|l| Ubig::from_limbs(l.to_vec()))
            .collect();
        let exps = [
            Ubig::from_limbs(exps[..16].to_vec()),
            Ubig::from_limbs(exps[16..19].to_vec()).with_bit(159, true),
            Ubig::from(exps[19] & 0x1ffff),
        ];
        ifma_moduli(modulus)
            .iter()
            .all(|n| ifma_matches_portable(n, &operands, &exps))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ifma_kernel_agrees_with_portable(
            modulus in prop::collection::vec(any::<u64>(), 16),
            operands in prop::collection::vec(any::<u64>(), 32),
            exps in prop::collection::vec(any::<u64>(), 20),
        ) {
            if !ifma_case(&modulus, &operands, &exps) {
                eprintln!("ifma_kernel_agrees_with_portable: this CPU has no IFMA; compared nothing");
                return;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        // The weekly job's depth; run it in release.
        #[test]
        #[ignore]
        fn ifma_kernel_agrees_with_portable_deep(
            modulus in prop::collection::vec(any::<u64>(), 16),
            operands in prop::collection::vec(any::<u64>(), 32),
            exps in prop::collection::vec(any::<u64>(), 20),
        ) {
            if !ifma_case(&modulus, &operands, &exps) {
                eprintln!("ifma_kernel_agrees_with_portable_deep: this CPU has no IFMA; compared nothing");
                return;
            }
        }
    }

    /// Unreduced values fed back in: a chain of 1 000 multiplications
    /// by `b ∈ [n, 2¹⁰²⁵)` whose every other input is lifted to the top
    /// of its class below `2¹⁰²⁵`, and whose other inputs are the raw
    /// outputs before them, stays below `2¹⁰²⁵` in 52-bit digits and
    /// computes `a · bⁱ · R⁻ⁱ mod n`. On the short moduli most raw
    /// outputs that come back in are at or above `n`.
    #[test]
    fn ifma_chains_unreduced_outputs() {
        let limit = &Ubig::one() << 1025;
        let moduli = [
            &(&Ubig::one() << 960) + &Ubig::from(0x2du64),
            &(&Ubig::one() << 1000) - &Ubig::from(0x3u64),
            Ubig::from_hex(GROUP_PRIME).unwrap(),
        ];
        for n in &moduli {
            let ctx = Montgomery::new(n);
            let Kernel::Ifma(ifma) = &ctx.kernel else {
                eprintln!("ifma_chains_unreduced_outputs: this CPU has no IFMA; compared nothing");
                return;
            };
            // The largest value of `v`'s class below 2¹⁰²⁵.
            let lift = |v: &Ubig| {
                let v = v % n;
                &v + &(&(&(&(&limit - &Ubig::one()) - &v) / n) * n)
            };
            let b = lift(&Ubig::from_hex(RSA_PRIMES[2]).unwrap());
            assert!(b >= *n && b < limit);
            let b_digits = to_digits(b.limbs());
            let factor = b.mod_mul(&(&Ubig::one() << 1040).mod_inverse(n).unwrap(), n);
            let (mut x, mut want) = (Ubig::from(3u64), Ubig::from(3u64));
            let mut unreduced = 0;
            for step in 0..1000 {
                if step % 2 == 0 {
                    x = lift(&x);
                } else {
                    unreduced += usize::from(x >= *n);
                }
                let digits = ifma.mul(&to_digits(x.limbs()), &b_digits);
                want = want.mod_mul(&factor, n);
                assert!(
                    digits.iter().all(|&d| d <= DIGIT_MASK),
                    "step {step}: digits"
                );
                x = from_digits(&digits);
                assert!(x < limit, "step {step}: {x:?} is not below 2^1025");
                assert_eq!(&x % n, want, "step {step} modulo {n:?}");
            }
            if n.bit_length() <= 1001 {
                assert!(unreduced > 450, "{unreduced} raw outputs at or above {n:?}");
            }
        }
    }

    /// The settling step's mask arithmetic ripples carries as a lane-by-lane
    /// loop does, through runs of propagating lanes of every length.
    #[test]
    fn carries_ripple_through_full_lanes() {
        let mut rng = 0x9e37_79b9_u32;
        for case in 0..20_000 {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            // Few generating lanes and long propagating runs.
            let generate = rng & (rng >> 8) & (rng >> 16) & 0x7f_ffff;
            let propagate =
                !generate & if case % 2 == 0 { rng >> 3 } else { 0xff_ffff } & 0x7f_ffff;
            let mut want = 0;
            let mut carry = false;
            for lane in 0..24 {
                if carry {
                    want |= 1 << lane;
                }
                carry = generate >> lane & 1 == 1 || (carry && propagate >> lane & 1 == 1);
            }
            assert_eq!(
                carried_into(generate, propagate) & 0xff_ffff,
                want,
                "generate {generate:024b}, propagate {propagate:024b}"
            );
        }
    }

    #[test]
    fn redc_identity() {
        let n = Ubig::from_hex("f000000000000001f").unwrap();
        let ctx = Montgomery::new(&n);
        for hex in ["0", "1", "deadbeef", "e000000000000001e"] {
            let a = Ubig::from_hex(hex).unwrap();
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), &a % &n, "value {hex}");
        }
    }

    #[test]
    fn operands_outside_the_residue_range_are_reduced() {
        // Two limbs, so `R = 2^128`.
        let n = Ubig::from_hex("f000000000000001f").unwrap();
        let ctx = Montgomery::new(&n);
        let r_inv = (&Ubig::one() << 128).mod_inverse(&n).unwrap();
        let b = Ubig::from_hex("123456789abcdef01").unwrap();
        let operands = [
            &n - &Ubig::one(),              // the largest residue
            n.clone(),                      // == n
            &(&n << 3) + &Ubig::from(5u64), // >= n, same limb count
            Ubig::from_hex("ffffffffffffffffffffffffffffffffffffff").unwrap(), // more limbs than n
            &(&n << 128) + &Ubig::from(7u64), // above n * R
            Ubig::from(9u64),               // top limb zero: shorter than k
            Ubig::zero(),
        ];
        for a in &operands {
            let want = a.mod_mul(&b, &n).mod_mul(&r_inv, &n);
            assert_eq!(ctx.mont_mul(a, &b), want, "mont_mul({a:?}, b)");
            assert_eq!(ctx.mont_mul(&b, a), want, "mont_mul(b, {a:?})");
            assert_eq!(ctx.mont_sqr(a), a.mod_mul(a, &n).mod_mul(&r_inv, &n));
            assert_eq!(ctx.from_mont(a), a.mod_mul(&r_inv, &n), "from_mont({a:?})");
            assert_eq!(
                ctx.from_mont(&ctx.to_mont(a)),
                a % &n,
                "round trip of {a:?}"
            );
            assert_eq!(ctx.mul(a, &b), a.mod_mul(&b, &n), "mul({a:?}, b)");
        }
        assert_eq!(ctx.from_mont(&ctx.one_mont()), Ubig::one());
    }

    #[test]
    fn mul_matches_naive() {
        let n = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // odd
        let ctx = Montgomery::new(&n);
        let a = Ubig::from_hex("123456789abcdef123456789abcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210fedcba987654321").unwrap();
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &n));
    }

    #[test]
    fn pow_matches_small_modulus() {
        let n = Ubig::from(1_000_003u64); // odd prime
        let ctx = Montgomery::new(&n);
        let mut expect = 1u64;
        let base = 7u64;
        for e in 0..50u64 {
            assert_eq!(
                ctx.pow(&Ubig::from(base), &Ubig::from(e)),
                Ubig::from(expect),
                "7^{e}"
            );
            expect = expect * base % 1_000_003;
        }
    }

    #[test]
    fn pow_exponent_zero_and_large() {
        let n = Ubig::from_hex("ffffffffffffffc5").unwrap();
        let ctx = Montgomery::new(&n);
        assert_eq!(ctx.pow(&Ubig::from(5u64), &Ubig::zero()), Ubig::one());
        // Fermat's little theorem at 64 bits.
        let p_minus_1 = &n - &Ubig::one();
        assert_eq!(ctx.pow(&Ubig::from(2u64), &p_minus_1), Ubig::one());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        Montgomery::new(&Ubig::from(100u64));
    }

    #[test]
    fn multi_pow_matches_separate_pows() {
        let n = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let ctx = Montgomery::new(&n);
        let b1 = Ubig::from_hex("123456789abcdef").unwrap();
        let b2 = Ubig::from_hex("fedcba987654321").unwrap();
        let b3 = Ubig::from(2u64);
        let e1 = Ubig::from_hex("deadbeefcafebabe1122334455").unwrap();
        let e2 = Ubig::from(3u64);
        let e3 = Ubig::from_hex("ffffffffffffffff").unwrap();
        let expect = ctx
            .pow(&b1, &e1)
            .mod_mul(&ctx.pow(&b2, &e2), &n)
            .mod_mul(&ctx.pow(&b3, &e3), &n);
        assert_eq!(ctx.multi_pow(&[(&b1, &e1), (&b2, &e2), (&b3, &e3)]), expect);
    }

    #[test]
    fn multi_pow_edge_cases() {
        let n = Ubig::from_hex("ffffffffffffffc5").unwrap();
        let ctx = Montgomery::new(&n);
        // Empty product and all-zero exponents are 1.
        assert_eq!(ctx.multi_pow(&[]), Ubig::one());
        let b = Ubig::from(7u64);
        assert_eq!(ctx.multi_pow(&[(&b, &Ubig::zero())]), Ubig::one());
        // Single pair equals plain pow.
        let e = Ubig::from_hex("123456789").unwrap();
        assert_eq!(ctx.multi_pow(&[(&b, &e)]), ctx.pow(&b, &e));
        // base ≡ n - 1 (order 2) with even and odd exponents.
        let n_minus_1 = &n - &Ubig::one();
        assert_eq!(ctx.multi_pow(&[(&n_minus_1, &Ubig::two())]), Ubig::one());
        assert_eq!(ctx.multi_pow(&[(&n_minus_1, &Ubig::from(3u64))]), n_minus_1);
    }

    /// Fixed-base tables and dynamic pairs folded into one accumulator give
    /// the product of separate `pow`s: on the portable kernel at 2 limbs,
    /// the ADX width and the IFMA width, with zero, one-bit and full-length
    /// exponents, tables on repeated bases, and either part empty.
    #[test]
    fn multi_pow_fixed_matches_separate_pows() {
        let moduli = [
            Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap(),
            Ubig::from_hex(RSA_PRIMES[0]).unwrap(),
            Ubig::from_hex(GROUP_PRIME).unwrap(),
        ];
        for n in &moduli {
            let ctx = Montgomery::new(n);
            let bases = [
                Ubig::from_hex(RSA_PRIMES[1]).unwrap(),
                n - &Ubig::one(),
                Ubig::from(2u64),
                Ubig::from_hex(RSA_PRIMES[2]).unwrap(),
            ];
            let exps = [
                Ubig::from_hex("deadbeefcafebabe1122334455667788990").unwrap(),
                Ubig::zero(),
                Ubig::one(),
                Ubig::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap(),
            ];
            let tables: Vec<FixedBase> =
                bases.iter().map(|b| FixedBase::new(&ctx, b, 160)).collect();
            let product = |parts: &[(&Ubig, &Ubig)]| {
                parts
                    .iter()
                    .fold(Ubig::one(), |acc, (b, e)| acc.mod_mul(&ctx.pow(b, e), n))
            };
            for split in 0..=bases.len() {
                let fixed: Vec<(&FixedBase, &Ubig)> = tables[..split]
                    .iter()
                    .zip(exps.iter().rev())
                    .chain([(&tables[0], &exps[0])])
                    .collect();
                let pairs: Vec<(&Ubig, &Ubig)> =
                    bases[split..].iter().zip(&exps[split..]).collect();
                let mut want: Vec<(&Ubig, &Ubig)> =
                    bases[..split].iter().zip(exps.iter().rev()).collect();
                want.push((&bases[0], &exps[0]));
                want.extend(&pairs);
                assert_eq!(
                    ctx.multi_pow_fixed(&fixed, &pairs),
                    product(&want),
                    "{split} fixed parts modulo {n:?}"
                );
            }
            assert_eq!(ctx.multi_pow_fixed(&[], &[]), Ubig::one());
        }
    }

    #[test]
    fn fixed_base_matches_pow() {
        let n = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let ctx = Montgomery::new(&n);
        let base = Ubig::from_hex("123456789abcdef0f").unwrap();
        let fb = FixedBase::new(&ctx, &base, 70);
        for hex in [
            "0",
            "1",
            "2",
            "f00f",
            "deadbeefcafebabe",
            "3fffffffffffffffff",
        ] {
            let e = Ubig::from_hex(hex).unwrap();
            assert!(fb.covers(&e), "exponent {hex}");
            assert_eq!(fb.pow(&ctx, &e), ctx.pow(&base, &e), "exponent {hex}");
        }
        // 72 bits of coverage (rounded up to whole windows).
        assert_eq!(fb.max_exp_bits(), 72);
        assert!(!fb.covers(&(&Ubig::one() << 72)));
    }

    #[test]
    #[should_panic(expected = "exceeds fixed-base table")]
    fn fixed_base_rejects_oversized_exponent() {
        let n = Ubig::from_hex("ffffffffffffffc5").unwrap();
        let ctx = Montgomery::new(&n);
        let fb = FixedBase::new(&ctx, &Ubig::from(3u64), 8);
        fb.pow(&ctx, &Ubig::from_hex("1ffffffffff").unwrap());
    }
}
