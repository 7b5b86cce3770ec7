//! The simulator driver: the same closed loop in virtual time. Latency
//! and throughput count sequential message delays under the paper's
//! round-trip-time matrices; the real CPU spent computing them is
//! reported alongside, so a crypto change shows here only as CPU.

use std::sync::Arc;

use sintra_core::{Event, ProtocolId};
use sintra_net::sim::{LatencyModel, MachineProfile, SimConfig, Simulation};
use sintra_telemetry::Recorder;

use crate::load::{Load, Run};
use crate::slices::{self, Slice, Slicer};
use crate::workload::{Runtime, Spec};
use crate::RunOpts;

/// Wall seconds of simulating after which a slice is cut.
const SLICE_WALL_S: f64 = 0.5;

/// The paper reports ~10 % variation around its measured RTTs.
const JITTER: f64 = 0.10;

/// One machine profile for every party: 1.5 ms per 1024-bit
/// exponentiation (this host's order of magnitude) and 20 µs per
/// message, so virtual latency is message delays, not CPU.
fn machine() -> MachineProfile {
    MachineProfile::new("bench", 1.5).with_msg_overhead(0.02)
}

struct Session {
    sim: Simulation,
    pid: ProtocolId,
    load: Load,
    /// Records of `sim` already fed to `load`.
    seen: usize,
    /// Requests still to be issued; completions stop triggering sends
    /// once it reaches zero.
    quota: u64,
    /// Cuts whatever is running — the set-up, then the measured phase —
    /// into slices of wall time.
    slicer: Slicer,
}

impl Session {
    /// Builds the simulation, opens the channel and runs the first
    /// request to every party. Returns the session and how long that
    /// took since `opts.process_start`, in seconds at the reference
    /// speed.
    fn start(spec: &Spec, opts: &RunOpts, recorder: Option<Arc<dyn Recorder>>) -> (Session, f64) {
        let before = opts.process_start.elapsed().as_secs_f64();
        let slicer = Slicer::start(0.0);
        let Runtime::Sim { rtt_ms, .. } = spec.runtime else {
            panic!("{} is not a simulator workload", spec.name);
        };
        assert!(
            spec.crash.is_none(),
            "no simulator workload injects a crash"
        );
        let config = SimConfig {
            latency: LatencyModel::Matrix {
                rtt_ms: rtt_ms(),
                jitter: JITTER,
            },
            machines: vec![machine()],
            seed: opts.seed,
        };
        let mut sim = Simulation::new(spec.deal_keys(opts.key_bits), config);
        if let Some(recorder) = recorder {
            sim.set_recorder(recorder);
        }
        let pid = ProtocolId::new(spec.name);
        for party in 0..spec.n {
            spec.open_channel(sim.node_mut(party), &pid);
        }
        let mut session = Session {
            sim,
            pid,
            load: Load::new(spec, opts.seed),
            seen: 0,
            quota: 1,
            slicer,
        };
        session.issue(0, 0);
        session.run_to_quiescence();
        assert!(
            session.load.quiescent(),
            "{}: the simulation stopped before the first request was delivered everywhere",
            spec.name
        );
        let took = session.cut_and_take(session.sim.now() as f64 / 1e6);
        let setup_s = before * took[0].speed + slices::reference_s(&took);
        (session, setup_s)
    }

    /// Closes the current slice at `now` and hands out all slices cut so
    /// far; the next slice starts there.
    fn cut_and_take(&mut self, now: f64) -> Vec<Slice> {
        self.slicer.cut(now);
        std::mem::replace(&mut self.slicer, Slicer::start(now)).finish()
    }

    /// Schedules `sender`'s next request at virtual time `at_us` if its
    /// window and the quota allow.
    fn issue(&mut self, sender: usize, at_us: u64) {
        if self.quota == 0 {
            return;
        }
        if let Some(data) = self.load.next_request(sender, at_us as f64 / 1e6) {
            self.quota -= 1;
            let pid = self.pid.clone();
            self.sim.schedule(at_us, sender, move |node, out| {
                node.channel_send(&pid, data, out);
            });
        }
    }

    /// Steps the simulation, feeding deliveries to the load generator
    /// and issuing the follow-up request of every completion, until all
    /// issued requests are delivered everywhere or nothing is scheduled.
    fn run_to_quiescence(&mut self) {
        while self.sim.step() {
            let mut reopened = Vec::new();
            for record in &self.sim.records()[self.seen..] {
                if let Event::ChannelDelivered { payload, .. } = &record.event {
                    let at = record.time_us as f64 / 1e6;
                    if let Some(sender) = self.load.on_delivery(record.party, payload, at) {
                        reopened.push((sender, record.time_us));
                    }
                }
            }
            self.seen = self.sim.records().len();
            let now = self.sim.now() as f64 / 1e6;
            for (sender, at_us) in reopened {
                self.issue(sender, at_us);
            }
            self.slicer.tick();
            if self.slicer.wall_since_cut() >= SLICE_WALL_S {
                self.slicer.cut(now);
            }
            if self.quota == 0 && self.load.quiescent() {
                break;
            }
        }
    }
}

/// Sets the simulation up and runs the request quota on it.
pub fn run(spec: &Spec, opts: &RunOpts, recorder: Option<Arc<dyn Recorder>>) -> Run {
    let Runtime::Sim {
        payloads_per_second,
        ..
    } = spec.runtime
    else {
        panic!("{} is not a simulator workload", spec.name);
    };
    let (mut session, setup_s) = Session::start(spec, opts, recorder);

    session.quota = (payloads_per_second as f64 * opts.seconds).round().max(1.0) as u64;
    let from_us = session.sim.now();
    let traffic_from = session.sim.stats();
    for sender in 0..spec.senders {
        for _ in 0..spec.window {
            session.issue(sender, from_us);
        }
    }
    session.run_to_quiescence();
    // Deliveries are stamped when the party's CPU frees up, which may
    // lie past the clock: close the last slice beyond all of them.
    let slices = session.cut_and_take(f64::INFINITY);
    let traffic_to = session.sim.stats();
    // The window ends when the last request came back to its origin;
    // the stragglers' deliveries elsewhere are not the client's wait.
    let to_us = session
        .sim
        .records()
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            Event::ChannelDelivered { payload, .. } if payload.origin.0 == r.party => {
                Some(r.time_us)
            }
            _ => None,
        })
        .unwrap_or(from_us)
        .max(from_us + 1);
    Run {
        outcome: session
            .load
            .finish(from_us as f64 / 1e6, to_us as f64 / 1e6),
        slices,
        setup_s,
        sim_traffic: Some((
            traffic_to.messages - traffic_from.messages,
            traffic_to.bytes - traffic_from.bytes,
        )),
    }
}

/// Sets the simulation up and returns how long that took, as
/// [`Run::setup_s`] counts it.
pub fn setup_s(spec: &Spec, opts: &RunOpts) -> f64 {
    Session::start(spec, opts, None).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str, seed: u64) -> Run {
        let opts = RunOpts {
            seconds: 1.0,
            key_bits: 128,
            ..RunOpts::new(seed)
        };
        run(Spec::by_name(name).unwrap(), &opts, None)
    }

    /// Both simulator workloads, twice on one seed: every virtual-time
    /// result and every count is bit-identical; another seed differs.
    #[test]
    fn equal_seeds_repeat_exactly() {
        for (name, quota) in [("abc4_wan", 40), ("abc7_wan", 21)] {
            let a = quick(name, 5);
            let b = quick(name, 5);
            assert!(a.outcome.correct(), "{name}: {:?}", a.outcome.violations);
            assert_eq!(a.outcome.completed(), quota, "{name}");
            assert_eq!(a.outcome.attempted, quota + 1, "{name}: quota plus set-up");
            let latencies = |run: &Run| run.latencies_ms();
            assert_eq!(
                latencies(&a).len() as u64,
                quota,
                "{name}: slices cover the window"
            );
            assert_eq!(latencies(&a), latencies(&b), "{name}");
            assert_eq!(a.outcome.window_s.to_bits(), b.outcome.window_s.to_bits());
            assert_eq!(a.sim_traffic, b.sim_traffic, "{name}");
            let c = quick(name, 6);
            assert_ne!(latencies(&a), latencies(&c), "{name}");
            // Latency is message delays: several RTTs of >= 93 ms.
            assert!(latencies(&a)[quota as usize / 2] > 200.0, "{name}");
        }
    }
}
