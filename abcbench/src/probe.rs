//! The host-speed probe: a fixed unit of benchmark-owned work, timed
//! every few milliseconds while a window runs, so that time can be
//! counted at a reference speed instead of at whatever speed the host
//! happened to run.
//!
//! This sandbox is a microVM whose user-mode speed wanders by 20–50 %
//! for seconds to minutes with no steal reported: a fixed replay of two
//! requests took 49–116 ms over four minutes. Everything the stack runs
//! slows together, and so does this unit (correlation 0.95–0.99 with
//! the replay, slope 0.9–1.1, per second and per ten seconds), so a
//! duration multiplied by `NOMINAL_US / unit time` is a duration at the
//! speed at which the unit takes [`NOMINAL_US`]. The unit is the
//! benchmark's own code on purpose: were it a call into the stack, an
//! optimisation there would cancel itself out of every metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The unit's duration at the reference speed, in µs. Arbitrary but
/// fixed: it only sets the scale of the normalised numbers (this host,
/// in a calm phase, runs the unit in about this time).
pub const NOMINAL_US: f64 = 100.0;

/// Wall time between two samples of a running [`Sampler`]: ~2.5 % of
/// one core for the probe.
const EVERY: Duration = Duration::from_millis(4);

const LIMBS: usize = 16;

/// One unit of work shaped like the stack's: 1024-bit schoolbook
/// multiplications (multiplier-bound, like its modular exponentiation),
/// then buffers built, hashed, formatted and kept in a map (allocation
/// and byte shuffling, like its envelope handling). The halves were
/// chosen because one is a little less and the other a little more
/// sensitive to the host's slow phases than the stack itself.
pub fn unit() -> u64 {
    let mut a: Vec<u64> = (1..=LIMBS as u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i))
        .collect();
    let b: Vec<u64> = (3..3 + LIMBS as u64)
        .map(|i| 0xc2b2_ae3d_27d4_eb4fu64.wrapping_mul(i) | 1)
        .collect();
    for _ in 0..black_box(150) {
        let mut t = vec![0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let p = a[i] as u128 * b[j] as u128 + t[i + j] as u128 + carry;
                t[i + j] = p as u64;
                carry = p >> 64;
            }
            t[i + LIMBS] = carry as u64;
        }
        a = (0..LIMBS)
            .map(|i| t[i] ^ t[i + LIMBS].rotate_left(17))
            .collect();
    }
    let mut kept = BTreeMap::new();
    let mut total = a[0];
    for r in 0..black_box(25usize) {
        let bytes: Vec<u8> = (0..64 + (r * 37) % 700)
            .map(|i| (i as u8).wrapping_mul(31) ^ r as u8)
            .collect();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let hex: String = bytes.iter().take(24).map(|b| format!("{b:02x}")).collect();
        total = total.wrapping_add(hex.len() as u64 + hash);
        kept.insert(hash % 97, bytes);
    }
    total.wrapping_add(kept.len() as u64)
}

fn timed_unit_us() -> f64 {
    let begin = Instant::now();
    black_box(unit());
    begin.elapsed().as_secs_f64() * 1e6
}

/// `NOMINAL_US` over the median of `times_us`: above 1 when the host is
/// faster than the reference. The median, because a sample the
/// scheduler interrupted is long, not short. 1 for no samples.
fn speed(times_us: &mut [f64]) -> f64 {
    if times_us.is_empty() {
        return 1.0;
    }
    times_us.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    NOMINAL_US / times_us[times_us.len() / 2]
}

/// Samples the host's speed while something else runs on this thread's
/// core: call [`Sampler::tick`] from the driving loop as often as it
/// turns, and a unit runs at most every [`EVERY`]; or call
/// [`Sampler::sample`] between the pieces of work being timed.
#[derive(Debug)]
pub struct Sampler {
    last: Instant,
    times_us: Vec<f64>,
}

impl Sampler {
    pub fn start() -> Self {
        Sampler {
            last: Instant::now(),
            times_us: Vec::new(),
        }
    }

    /// Takes a sample now.
    pub fn sample(&mut self) {
        self.times_us.push(timed_unit_us());
        self.last = Instant::now();
    }

    /// Takes a sample if one is due.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// The host's speed since the last call (or the start), from the
    /// samples taken in between.
    pub fn take_speed(&mut self) -> f64 {
        let speed = speed(&mut self.times_us);
        self.times_us.clear();
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_median() {
        assert_eq!(speed(&mut [50.0, 400.0, 40.0]), NOMINAL_US / 50.0);
        assert_eq!(speed(&mut []), 1.0);
        // Repeats exactly: the unit has no input.
        assert_eq!(unit(), unit());
    }

    #[test]
    fn sampler_samples_on_its_schedule() {
        let mut sampler = Sampler::start();
        sampler.tick();
        assert!(sampler.times_us.is_empty(), "not before the first interval");
        std::thread::sleep(EVERY);
        sampler.tick();
        sampler.tick();
        assert_eq!(sampler.times_us.len(), 1);
        assert!(sampler.take_speed() > 0.0);
        assert_eq!(sampler.take_speed(), 1.0, "taking clears the samples");
    }
}
