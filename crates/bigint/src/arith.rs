//! Low-level limb arithmetic: addition, subtraction, multiplication and
//! division on little-endian limb slices.

use crate::{DoubleLimb, Limb, Ubig};

/// `a += b`, returning the final carry.
pub(crate) fn add_assign(a: &mut Vec<Limb>, b: &[Limb]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (i, &bl) in b.iter().enumerate() {
        let (s1, c1) = a[i].overflowing_add(bl);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut i = b.len();
    while carry != 0 && i < a.len() {
        let (s, c) = a[i].overflowing_add(carry);
        a[i] = s;
        carry = c as u64;
        i += 1;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// `a -= b`; requires `a >= b` (checked by the caller).
///
/// # Panics
///
/// Panics in debug builds if the subtraction underflows.
pub(crate) fn sub_assign(a: &mut Vec<Limb>, b: &[Limb]) {
    debug_assert!(Ubig::cmp_magnitude(a, b) != std::cmp::Ordering::Less);
    let mut borrow = 0u64;
    for i in 0..b.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    let mut i = b.len();
    while borrow != 0 {
        let (d, bo) = a[i].overflowing_sub(borrow);
        a[i] = d;
        borrow = bo as u64;
        i += 1;
    }
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Full product of two limb slices into a fresh vector, schoolbook: no
/// operation on a request path multiplies operands long enough for a
/// sub-quadratic method to pay.
pub(crate) fn mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &al) in a.iter().enumerate() {
        if al == 0 {
            continue;
        }
        let mut carry: DoubleLimb = 0;
        for (j, &bl) in b.iter().enumerate() {
            let t = (al as DoubleLimb) * (bl as DoubleLimb) + (out[i + j] as DoubleLimb) + carry;
            out[i + j] = t as Limb;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = (out[k] as DoubleLimb) + carry;
            out[k] = t as Limb;
            carry = t >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Multiplies a limb slice by a single limb in place, returning any overflow
/// as an extra pushed limb.
pub(crate) fn mul_limb_assign(a: &mut Vec<Limb>, m: Limb) {
    if m == 0 {
        a.clear();
        return;
    }
    let mut carry: DoubleLimb = 0;
    for l in a.iter_mut() {
        let t = (*l as DoubleLimb) * (m as DoubleLimb) + carry;
        *l = t as Limb;
        carry = t >> 64;
    }
    if carry != 0 {
        a.push(carry as Limb);
    }
}

/// Adds a single limb in place.
pub(crate) fn add_limb_assign(a: &mut Vec<Limb>, v: Limb) {
    let mut carry = v;
    let mut i = 0;
    while carry != 0 {
        if i == a.len() {
            a.push(carry);
            return;
        }
        let (s, c) = a[i].overflowing_add(carry);
        a[i] = s;
        carry = c as u64;
        i += 1;
    }
}

/// Divides `u` by a single limb `d`, returning (quotient, remainder).
pub(crate) fn div_rem_limb(u: &[Limb], d: Limb) -> (Vec<Limb>, Limb) {
    assert!(d != 0, "division by zero");
    let mut q = vec![0u64; u.len()];
    let mut rem: DoubleLimb = 0;
    for i in (0..u.len()).rev() {
        let cur = (rem << 64) | (u[i] as DoubleLimb);
        q[i] = (cur / d as DoubleLimb) as Limb;
        rem = cur % d as DoubleLimb;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    (q, rem as Limb)
}

/// Knuth Algorithm D: divides `u` by `v`, returning (quotient, remainder).
///
/// `v` must have at least two limbs and be normalized (top limb nonzero);
/// single-limb divisors are handled by [`div_rem_limb`].
pub(crate) fn div_rem_knuth(u: &[Limb], v: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    debug_assert!(v.len() >= 2);
    debug_assert!(*v.last().unwrap() != 0);
    let n = v.len();
    let m = u.len() - n; // u.len() >= v.len() ensured by caller

    // D1: normalize so the top limb of v has its high bit set.
    let shift = v.last().unwrap().leading_zeros();
    let vn = shl_bits(v, shift);
    let mut un = shl_bits(u, shift);
    un.resize(u.len() + 1, 0); // extra high limb

    let mut q = vec![0u64; m + 1];
    let v_hi = vn[n - 1];
    let v_lo = vn[n - 2];

    for j in (0..=m).rev() {
        // D3: estimate q̂ from the top two limbs of the current remainder.
        let num = ((un[j + n] as DoubleLimb) << 64) | (un[j + n - 1] as DoubleLimb);
        let mut qhat = num / (v_hi as DoubleLimb);
        let mut rhat = num % (v_hi as DoubleLimb);
        loop {
            if qhat >> 64 != 0
                || (qhat as Limb as DoubleLimb) * (v_lo as DoubleLimb)
                    > ((rhat << 64) | (un[j + n - 2] as DoubleLimb))
            {
                qhat -= 1;
                rhat += v_hi as DoubleLimb;
                if rhat >> 64 == 0 {
                    continue;
                }
            }
            break;
        }
        // D4: multiply-and-subtract qhat * v from the window of un.
        let mut borrow: i128 = 0;
        let mut carry: DoubleLimb = 0;
        for i in 0..n {
            let p = (qhat as Limb as DoubleLimb) * (vn[i] as DoubleLimb) + carry;
            carry = p >> 64;
            let t = (un[j + i] as i128) - (p as Limb as i128) + borrow;
            un[j + i] = t as u64;
            borrow = t >> 64;
        }
        let t = (un[j + n] as i128) - (carry as i128) + borrow;
        un[j + n] = t as u64;

        let mut qj = qhat as Limb;
        if t < 0 {
            // D6: estimate was one too large, add v back.
            qj -= 1;
            let mut c: DoubleLimb = 0;
            for i in 0..n {
                let s = (un[j + i] as DoubleLimb) + (vn[i] as DoubleLimb) + c;
                un[j + i] = s as Limb;
                c = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(c as Limb);
        }
        q[j] = qj;
    }

    while q.last() == Some(&0) {
        q.pop();
    }
    // D8: denormalize the remainder.
    un.truncate(n);
    let r = shr_bits(&un, shift);
    (q, r)
}

/// Shifts limbs left by `shift` bits (`shift < 64`), growing as needed.
pub(crate) fn shl_bits(a: &[Limb], shift: u32) -> Vec<Limb> {
    if shift == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &l in a {
        out.push((l << shift) | carry);
        carry = l >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Shifts limbs right by `shift` bits (`shift < 64`).
pub(crate) fn shr_bits(a: &[Limb], shift: u32) -> Vec<Limb> {
    if shift == 0 {
        let mut v = a.to_vec();
        while v.last() == Some(&0) {
            v.pop();
        }
        return v;
    }
    let mut out = vec![0u64; a.len()];
    let mut carry = 0u64;
    for i in (0..a.len()).rev() {
        out[i] = (a[i] >> shift) | carry;
        carry = a[i] << (64 - shift);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

impl Ubig {
    /// Computes quotient and remainder in one division.
    ///
    /// ```
    /// use sintra_bigint::Ubig;
    /// let (q, r) = Ubig::from(17u64).div_rem(&Ubig::from(5u64));
    /// assert_eq!((q, r), (Ubig::from(3u64), Ubig::from(2u64)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Ubig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = div_rem_limb(&self.limbs, divisor.limbs[0]);
            return (Ubig::from_limbs(q), Ubig::from(r));
        }
        let (q, r) = div_rem_knuth(&self.limbs, &divisor.limbs);
        (Ubig::from_limbs(q), Ubig::from_limbs(r))
    }

    /// Subtraction that returns `None` on underflow instead of panicking.
    ///
    /// ```
    /// use sintra_bigint::Ubig;
    /// assert!(Ubig::from(1u64).checked_sub(&Ubig::from(2u64)).is_none());
    /// ```
    pub fn checked_sub(&self, other: &Ubig) -> Option<Ubig> {
        if self < other {
            None
        } else {
            let mut limbs = self.limbs.clone();
            sub_assign(&mut limbs, &other.limbs);
            Some(Ubig { limbs })
        }
    }

    /// Squares the value (slightly cheaper call-site than `self * self`).
    pub fn square(&self) -> Ubig {
        Ubig::from_limbs(mul(&self.limbs, &self.limbs))
    }

    /// Raises the value to a small power.
    ///
    /// ```
    /// use sintra_bigint::Ubig;
    /// assert_eq!(Ubig::from(3u64).pow(4), Ubig::from(81u64));
    /// ```
    pub fn pow(&self, mut exp: u32) -> Ubig {
        let mut base = self.clone();
        let mut acc = Ubig::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = base.square();
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ub(v: u128) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn add_with_carry_chains() {
        let a = ub(u128::from(u64::MAX));
        let one = ub(1);
        let sum = &a + &one;
        assert_eq!(sum, ub(u128::from(u64::MAX) + 1));
    }

    #[test]
    fn sub_borrow_chains() {
        let a = ub(u128::from(u64::MAX) + 1);
        let b = ub(1);
        assert_eq!(&a - &b, ub(u128::from(u64::MAX)));
    }

    #[test]
    fn mul_matches_u128() {
        for (x, y) in [
            (0u128, 5),
            (7, 9),
            (u64::MAX as u128, 2),
            (123456789, 987654321),
        ] {
            assert_eq!(&ub(x) * &ub(y), ub(x * y));
        }
    }

    /// Operands of 64 and 70 limbs, past any width a request multiplies:
    /// the product divides back into each factor with no remainder, and
    /// adding less than a factor leaves it as the remainder.
    #[test]
    fn large_products_divide_back() {
        let a = Ubig::from_limbs(
            (1..=64u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        );
        let b = Ubig::from_limbs((1..=70u64).map(|i| i ^ 0xDEAD_BEEF_CAFE_F00D).collect());
        let product = &a * &b;
        assert_eq!(product.div_rem(&a), (b.clone(), Ubig::zero()));
        assert_eq!(product.div_rem(&b), (a.clone(), Ubig::zero()));
        let r = &b - &Ubig::one();
        assert_eq!((&product + &r).div_rem(&b), (a, r));
    }

    #[test]
    fn division_identity_multi_limb() {
        let a = Ubig::from_hex("1fffffffffffffffffffffffffffffffffffffabcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210ff").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn division_small_cases() {
        assert_eq!(ub(0).div_rem(&ub(7)), (ub(0), ub(0)));
        assert_eq!(ub(6).div_rem(&ub(7)), (ub(0), ub(6)));
        assert_eq!(ub(7).div_rem(&ub(7)), (ub(1), ub(0)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = ub(1).div_rem(&ub(0));
    }

    #[test]
    fn checked_sub_handles_underflow() {
        assert_eq!(ub(5).checked_sub(&ub(3)), Some(ub(2)));
        assert_eq!(ub(3).checked_sub(&ub(5)), None);
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(ub(5).pow(0), ub(1));
        assert_eq!(ub(0).pow(3), ub(0));
        assert_eq!(ub(2).pow(100).bit_length(), 101);
    }

    #[test]
    fn shift_helpers_roundtrip() {
        let a = vec![0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210];
        for s in [0u32, 1, 13, 63] {
            let up = shl_bits(&a, s);
            assert_eq!(shr_bits(&up, s), a);
        }
    }

    #[test]
    fn knuth_add_back_case() {
        // A divisor crafted so the q̂ estimate overshoots (exercises step D6).
        let u = Ubig::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = Ubig::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }
}
