//! The loopback-TCP driver: a real `TcpGroup`, one generator thread
//! (this one) polling every party's handle round-robin.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sintra_core::channel::AtomicChannelConfig;
use sintra_core::ProtocolId;
use sintra_net::tcp::{TcpConfig, TcpGroup, TcpHandle};
use sintra_net::PartyHandle;
use sintra_telemetry::Recorder;

use crate::load::{Load, Outcome, Run, DRAIN_LIMIT_S};
use crate::slices::{self, Slice, Slicer};
use crate::workload::{Channel, Spec};
use crate::RunOpts;

/// How long the generator sleeps when a full round over the handles
/// found nothing: short against a ~20 ms protocol round, long enough
/// that idle polling stays a small share of the one core.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Longest a group may take to deliver its first request everywhere.
const SETUP_LIMIT_S: f64 = 60.0;

/// One spawned group with its channel open and its generator state.
struct Session {
    group: TcpGroup,
    handles: Vec<TcpHandle>,
    pid: ProtocolId,
    load: Load,
    epoch: Instant,
}

impl Session {
    /// Deals keys, spawns the group, opens the channel and waits until
    /// the first request has been delivered by every party. Returns the
    /// session and how long that took since `opts.process_start`, in
    /// seconds at the reference speed.
    fn start(
        spec: &Spec,
        opts: &RunOpts,
        config: TcpConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> (Session, f64) {
        let before = opts.process_start.elapsed().as_secs_f64();
        let mut slicer = Slicer::start(0.0);
        let keys = spec.deal_keys(opts.key_bits);
        let (group, handles) =
            TcpGroup::spawn_with(keys, config, recorder).expect("spawn loopback group");
        let pid = ProtocolId::new(spec.name);
        for handle in &handles {
            match spec.channel {
                Channel::Atomic => {
                    handle.create_atomic_channel(pid.clone(), AtomicChannelConfig::default())
                }
                Channel::SecureCausal => {
                    handle.create_secure_channel(pid.clone(), AtomicChannelConfig::default())
                }
            }
        }
        let mut session = Session {
            group,
            handles,
            pid,
            load: Load::new(spec, opts.seed),
            epoch: Instant::now(),
        };
        let first = session
            .load
            .next_request(0, 0.0)
            .expect("sender 0 has an open window");
        session.handles[0].send(&session.pid, first);
        while !session.load.quiescent() {
            assert!(
                session.now() < SETUP_LIMIT_S,
                "{}: first request not delivered everywhere within {SETUP_LIMIT_S} s",
                spec.name
            );
            slicer.tick();
            if !session.poll() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        slicer.cut(session.now());
        let took = slicer.finish();
        let setup_s = before * took[0].speed + slices::reference_s(&took);
        (session, setup_s)
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Drains every live party's deliveries; true if anything arrived.
    fn poll(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.load.live().len() {
            let party = self.load.live()[i];
            while let Some(payload) = self.handles[party].try_receive(&self.pid) {
                let now = self.epoch.elapsed().as_secs_f64();
                self.load.on_delivery(party, &payload, now);
                progressed = true;
            }
        }
        progressed
    }

    /// Sends until every sender's window is full.
    fn refill(&mut self) {
        for sender in 0..self.load.senders() {
            while let Some(data) = self.load.next_request(sender, self.now()) {
                self.handles[sender].send(&self.pid, data);
            }
        }
    }

    /// Polls and refills until `deadline`, letting `slicer`'s probe
    /// sample the host as the loop turns.
    fn pump_until(&mut self, deadline: f64, slicer: &mut Slicer) {
        while self.now() < deadline {
            slicer.tick();
            let progressed = self.poll();
            self.refill();
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Warm-up, the measured window in slices of about a second, then a
    /// drain with sending off.
    fn measure(mut self, spec: &Spec, opts: &RunOpts) -> (Outcome, Vec<Slice>) {
        let mut warmup = Slicer::start(self.now());
        self.pump_until(self.now() + opts.warmup_s, &mut warmup);
        if let Some(party) = spec.crash {
            self.handles[party].shutdown_server();
            self.load.crash(party);
        }
        let from = self.now();
        let mut slicer = Slicer::start(from);
        let count = opts.seconds.round().max(1.0);
        for k in 1..=count as usize {
            self.pump_until(from + opts.seconds * k as f64 / count, &mut slicer);
            slicer.cut(self.now());
        }
        let to = self.now();
        let drain_end = to + DRAIN_LIMIT_S;
        while !self.load.quiescent() && self.now() < drain_end {
            if !self.poll() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.group.shutdown();
        (self.load.finish(from, to), slicer.finish())
    }
}

/// Sets the group up and measures the window on it.
pub fn run(
    spec: &Spec,
    opts: &RunOpts,
    config: TcpConfig,
    recorder: Option<Arc<dyn Recorder>>,
) -> Run {
    let (session, setup_s) = Session::start(spec, opts, config, recorder);
    let (outcome, slices) = session.measure(spec, opts);
    Run {
        outcome,
        slices,
        setup_s,
        sim_traffic: None,
    }
}

/// Sets the group up, tears it down again and returns how long the
/// set-up took, as [`Run::setup_s`] counts it.
pub fn setup_s(spec: &Spec, opts: &RunOpts) -> f64 {
    let (session, setup_s) = Session::start(spec, opts, TcpConfig::default(), None);
    session.group.shutdown();
    setup_s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick mode: 128-bit keys, a 1 s window. Exercises set-up, the
    /// closed loop, the crash hook and the oracle over real sockets.
    #[test]
    fn quick_smoke_passes_the_oracle() {
        let spec = Spec::by_name("abc4_crash").unwrap();
        let opts = RunOpts {
            seconds: 1.0,
            warmup_s: 0.2,
            key_bits: 128,
            ..RunOpts::new(3)
        };
        let run = run(spec, &opts, TcpConfig::default(), None);
        assert!(run.outcome.correct(), "{:?}", run.outcome.violations);
        assert!(run.outcome.completed() > 10);
        assert_eq!(run.slices.len(), 1);
        assert!(run.setup_s > 0.0 && run.latencies_ms()[0] > 0.0);
        assert!(setup_s(spec, &opts) > 0.0);
    }
}
