//! Metering of public-key computation cost.
//!
//! SINTRA's evaluation charges protocol latency to two resources: network
//! round-trips and modular exponentiations (the paper's per-machine `exp`
//! column). This module counts the exponentiations each piece of code
//! performs, normalized so that **1.0 work unit = one full 1024-bit
//! exponentiation** (1024-bit modulus, 1024-bit exponent, no CRT).
//!
//! The discrete-event simulator opens a [`CostScope`] around each step
//! of a party and converts the work charged inside it into virtual CPU
//! time using that party's machine profile, reproducing the paper's
//! timing methodology without 2002-era hardware.
//!
//! Cost model: a modular exponentiation with `m`-bit modulus and `e`-bit
//! exponent costs `(m/1024)^2 * (e/1024)` units — schoolbook modular
//! multiplication is quadratic in `m` and the number of multiplications is
//! linear in `e`. This matches the paper's observation that full-size RSA
//! exponentiation scales cubically while fixed-160-bit-exponent operations
//! scale quadratically in the key size.
//!
//! # Scopes
//!
//! The meter is a monotone thread-local total. [`CostScope`] captures the
//! total at construction and reports the delta, so independent consumers
//! (the simulator's per-step meter and the telemetry layer's per-instance
//! attribution) can measure the same work concurrently, and nested,
//! without clearing each other's readings.

use std::cell::Cell;

use sintra_bigint::Ubig;

thread_local! {
    /// Monotone total of all work ever charged on this thread.
    static TOTAL: Cell<f64> = const { Cell::new(0.0) };
}

/// Work units of one exponentiation (see module docs for the model).
pub fn exp_work(modulus_bits: u32, exponent_bits: u32) -> f64 {
    let m = modulus_bits as f64 / 1024.0;
    let e = exponent_bits as f64 / 1024.0;
    m * m * e
}

/// Multiplications performed per exponent bit by the 4-bit-window ladder:
/// one squaring per bit plus one table multiplication per 4 bits.
///
/// This anchors the sub-exponentiation cost shapes below to [`exp_work`]:
/// a plain `e`-bit exponentiation is `1.25·e` modular multiplications, so
/// one multiplication is `exp_work / (1.25·e)` and the fractional factors
/// for shared-squaring and squaring-free ladders follow arithmetically.
const MULS_PER_EXP_BIT: f64 = 1.25;

/// Work units of a single modular multiplication (or squaring).
///
/// Multiplications used to be unmetered; batched verification replaces
/// many exponentiations with a few multiplications, so leaving them free
/// would overstate the win in RunReports.
pub fn mul_work(modulus_bits: u32) -> f64 {
    let m = modulus_bits as f64 / 1024.0;
    m * m / (MULS_PER_EXP_BIT * 1024.0)
}

/// Work units of a modular inversion (extended Euclid), charged as a
/// fixed multiple of a multiplication: the binary/Lehmer GCD is `O(m²)`
/// like a multiplication with a larger constant; 30× is a conservative
/// middle ground for 0.5–2 Kbit operands.
pub fn inv_work(modulus_bits: u32) -> f64 {
    30.0 * mul_work(modulus_bits)
}

/// Work units of a fixed-base (precomputed-table) exponentiation: no
/// squarings, one multiplication per 4-bit window, i.e. `e/4` of the
/// `1.25·e` multiplications of a plain exponentiation = 0.2×.
pub fn fixed_base_exp_work(modulus_bits: u32, exponent_bits: u32) -> f64 {
    0.2 * exp_work(modulus_bits, exponent_bits)
}

/// Work units of a simultaneous multi-exponentiation over the given
/// exponent sizes: the squarings (`0.8` of a plain exponentiation) are
/// paid once for the longest exponent, each base adds only its window
/// multiplications (`0.2` each).
pub fn multi_exp_work(modulus_bits: u32, exponent_bits: &[u32]) -> f64 {
    let max = exponent_bits.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 0.0;
    }
    let mut work = 0.8 * exp_work(modulus_bits, max);
    for &e in exponent_bits {
        work += 0.2 * exp_work(modulus_bits, e.max(1));
    }
    work
}

/// Measures the crypto work performed on this thread while the scope is
/// alive, without disturbing other scopes.
///
/// ```
/// use sintra_crypto::cost::{self, CostScope};
///
/// let outer = CostScope::enter();
/// cost::charge(0.5);
/// let inner = CostScope::enter();
/// cost::charge(0.25);
/// assert!((inner.elapsed() - 0.25).abs() < 1e-12);
/// assert!((outer.elapsed() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostScope {
    start: f64,
}

impl CostScope {
    /// Opens a scope at the current meter position.
    pub fn enter() -> Self {
        CostScope {
            start: TOTAL.with(|t| t.get()),
        }
    }

    /// Work units charged on this thread since the scope was opened.
    pub fn elapsed(&self) -> f64 {
        TOTAL.with(|t| t.get()) - self.start
    }
}

/// Adds raw work units to the meter (for operations other than plain
/// exponentiation, e.g. CRT halves).
pub fn charge(units: f64) {
    TOTAL.with(|t| t.set(t.get() + units));
}

/// Metered modular exponentiation: computes `base^exp mod m` and charges
/// the meter for it. All crypto code in this crate routes exponentiations
/// through here.
pub fn mod_pow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    charge(exp_work(m.bit_length(), exp.bit_length().max(1)));
    base.mod_pow(exp, m)
}

/// Metered exponentiation reusing a Montgomery context.
pub fn mont_pow(ctx: &sintra_bigint::Montgomery, base: &Ubig, exp: &Ubig) -> Ubig {
    charge(exp_work(
        ctx.modulus().bit_length(),
        exp.bit_length().max(1),
    ));
    ctx.pow(base, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reference_point() {
        assert!((exp_work(1024, 1024) - 1.0).abs() < 1e-12);
        // 160-bit exponent in a 1024-bit group: 160/1024 of a unit.
        assert!((exp_work(1024, 160) - 160.0 / 1024.0).abs() < 1e-12);
        // Halving the modulus at full exponent gives the cubic scaling.
        assert!((exp_work(512, 512) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn sub_exponentiation_shapes_are_consistent() {
        // 1280 multiplications make up one full 1024-bit exponentiation.
        assert!((mul_work(1024) * 1280.0 - 1.0).abs() < 1e-9);
        assert!((inv_work(1024) - 30.0 * mul_work(1024)).abs() < 1e-12);
        // Fixed-base is 20% of plain.
        assert!((fixed_base_exp_work(1024, 160) - 0.2 * exp_work(1024, 160)).abs() < 1e-12);
        // A 1-element multi-exp costs exactly one plain exponentiation;
        // each extra same-size base adds a fifth.
        assert!((multi_exp_work(1024, &[160]) - exp_work(1024, 160)).abs() < 1e-12);
        assert!((multi_exp_work(1024, &[160, 160]) - 1.2 * exp_work(1024, 160)).abs() < 1e-12);
        assert_eq!(multi_exp_work(1024, &[]), 0.0);
        // Shorter exponents ride the longest exponent's squaring chain.
        let mixed = multi_exp_work(1024, &[160, 64]);
        assert!(mixed < 2.0 * exp_work(1024, 160));
        assert!(mixed > exp_work(1024, 160));
    }

    #[test]
    fn mod_pow_charges_and_computes() {
        let scope = CostScope::enter();
        let m = Ubig::from(1_000_003u64);
        let r = mod_pow(&Ubig::from(2u64), &Ubig::from(10u64), &m);
        assert_eq!(r, Ubig::from(1024u64));
        assert!(scope.elapsed() > 0.0);
    }

    #[test]
    fn scopes_nest_without_clobbering() {
        let outer = CostScope::enter();
        charge(0.5);
        let inner = CostScope::enter();
        charge(0.25);
        assert!((inner.elapsed() - 0.25).abs() < 1e-12);
        assert!((outer.elapsed() - 0.75).abs() < 1e-12);
        // Reading a scope is non-destructive.
        assert!((outer.elapsed() - 0.75).abs() < 1e-12);
    }
}
