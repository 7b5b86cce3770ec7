//! The measured window cut into slices of about a second, each with the
//! wall time, the process CPU time, the hypervisor steal and the host
//! speed it saw. A slice's durations count at the reference speed
//! (`× speed`, see [`crate::probe`]), so a run that fell into one of the
//! host's slow phases reports what it would have measured outside it.

use std::time::Instant;

use crate::host;
use crate::probe::Sampler;

/// One slice of the window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Bounds on the driver's clock (wall or virtual seconds).
    pub from: f64,
    pub to: f64,
    pub wall_s: f64,
    /// Process CPU time (all threads) spent in the slice.
    pub cpu_ms: f64,
    /// Time the hypervisor withheld this process's CPU(s) in the slice.
    pub steal_ms: f64,
    /// Host speed over the slice against the probe's reference speed.
    pub speed: f64,
}

/// Cuts slices as the driver reports the passing of its clock.
#[derive(Debug)]
pub struct Slicer {
    slices: Vec<Slice>,
    from: f64,
    wall: Instant,
    cpu_ms: f64,
    steal_ms: f64,
    sampler: Sampler,
}

impl Slicer {
    /// Starts the first slice at `now` on the driver's clock.
    pub fn start(now: f64) -> Self {
        Slicer {
            slices: Vec::new(),
            from: now,
            wall: Instant::now(),
            cpu_ms: host::cpu_time_ms(),
            steal_ms: host::steal_ms(),
            sampler: Sampler::start(),
        }
    }

    /// Lets the speed probe take a sample if one is due; the driver
    /// calls this every time its loop turns.
    pub fn tick(&mut self) {
        self.sampler.tick();
    }

    /// Wall seconds since the current slice began.
    pub fn wall_since_cut(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Ends the current slice at `now` and begins the next.
    pub fn cut(&mut self, now: f64) {
        let (wall, cpu_ms, steal_ms) = (Instant::now(), host::cpu_time_ms(), host::steal_ms());
        self.slices.push(Slice {
            from: self.from,
            to: now,
            wall_s: (wall - self.wall).as_secs_f64(),
            cpu_ms: cpu_ms - self.cpu_ms,
            steal_ms: steal_ms - self.steal_ms,
            speed: self.sampler.take_speed(),
        });
        (self.from, self.wall, self.cpu_ms, self.steal_ms) = (now, wall, cpu_ms, steal_ms);
    }

    pub fn finish(self) -> Vec<Slice> {
        self.slices
    }
}

/// Steal as a share of wall time over a set of slices.
pub fn steal_share(slices: &[Slice]) -> f64 {
    let wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let steal: f64 = slices.iter().map(|s| s.steal_ms / 1000.0).sum();
    if wall > 0.0 {
        steal / wall
    } else {
        0.0
    }
}

/// Wall seconds of a set of slices at the reference speed.
pub fn reference_s(slices: &[Slice]) -> f64 {
    slices.iter().map(|s| s.wall_s * s.speed).sum()
}

/// Wall-time-weighted mean host speed over a set of slices.
pub fn host_speed(slices: &[Slice]) -> f64 {
    let wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    if wall > 0.0 {
        reference_s(slices) / wall
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicer_tiles_the_driver_clock() {
        let mut slicer = Slicer::start(10.0);
        slicer.tick();
        slicer.cut(11.5);
        slicer.cut(12.0);
        let slices = slicer.finish();
        assert_eq!(slices.len(), 2);
        assert_eq!((slices[0].from, slices[0].to), (10.0, 11.5));
        assert_eq!((slices[1].from, slices[1].to), (11.5, 12.0));
        assert!(slices
            .iter()
            .all(|s| s.wall_s >= 0.0 && s.cpu_ms >= 0.0 && s.speed > 0.0));
    }

    #[test]
    fn shares_are_weighted_by_wall_time() {
        let slice = |wall_s: f64, steal_ms: f64, speed: f64| Slice {
            from: 0.0,
            to: wall_s,
            wall_s,
            cpu_ms: 0.0,
            steal_ms,
            speed,
        };
        let slices = [slice(1.0, 100.0, 1.0), slice(3.0, 300.0, 0.5)];
        assert!((steal_share(&slices) - 0.1).abs() < 1e-12);
        assert!((reference_s(&slices) - 2.5).abs() < 1e-12);
        assert!((host_speed(&slices) - 0.625).abs() < 1e-12);
        assert_eq!((steal_share(&[]), host_speed(&[])), (0.0, 1.0));
    }
}
