//! The discrete-event simulation engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_core::message::Envelope;
use sintra_core::node::Node;
use sintra_core::{Event, GroupContext, Outgoing, PartyId, Recipient};
use sintra_crypto::dealer::PartyKeys;
use sintra_telemetry::{root_scope, Recorder};

use super::byzantine::ByzantineActor;
use super::latency::LatencyModel;
use super::machine::MachineProfile;
use crate::step::{stamp, targets, Effects, Input, PartyCore};
use sintra_core::invariant_violated;

/// Virtual time in microseconds since simulation start.
pub type VirtualTime = u64;

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The network latency model.
    pub latency: LatencyModel,
    /// One CPU profile per party (a single entry is replicated).
    pub machines: Vec<MachineProfile>,
    /// RNG seed: identical seeds give identical runs.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::lan(),
            machines: vec![MachineProfile::instant()],
            seed: 0,
        }
    }
}

/// A party's failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fault {
    /// Behaves correctly.
    #[default]
    Honest,
    /// Stops processing and sending at the given virtual time.
    Crash {
        /// Crash instant (µs).
        at_us: VirtualTime,
    },
    /// Receives but never sends (from the start).
    Mute,
}

/// A timestamped protocol output observed at a party.
#[derive(Debug, Clone)]
pub struct DeliveryRecord {
    /// Virtual time at which the output became visible (µs).
    pub time_us: VirtualTime,
    /// The observing party.
    pub party: usize,
    /// The protocol event.
    pub event: Event,
}

/// A deferred application action on a node.
type NodeAction = crate::step::Action<'static>;

/// A pluggable per-message link rule.
type LinkFilterFn = Box<dyn FnMut(usize, usize, VirtualTime) -> LinkDecision>;

enum Work {
    Net {
        from: PartyId,
        to: usize,
        env: Envelope,
    },
    Action {
        party: usize,
        run: NodeAction,
    },
    Timer {
        party: usize,
        pid: sintra_core::ProtocolId,
        token: u64,
    },
}

struct Scheduled {
    time: VirtualTime,
    seq: u64,
    work: Work,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[allow(clippy::large_enum_variant)]
enum Actor {
    Honest(PartyCore),
    /// A Byzantine actor and the next `send_seq` it stamps.
    Byzantine(Box<dyn ByzantineActor>, u64),
}

/// Aggregate traffic statistics of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Point-to-point messages transmitted.
    pub messages: u64,
    /// Total payload bytes transmitted (wire encoding).
    pub bytes: u64,
}

/// A deterministic simulation of one SINTRA group.
pub struct Simulation {
    actors: Vec<Actor>,
    faults: Vec<Fault>,
    machines: Vec<MachineProfile>,
    latency: LatencyModel,
    rng: StdRng,
    clock: VirtualTime,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    busy_until: Vec<VirtualTime>,
    records: Vec<DeliveryRecord>,
    stats: Stats,
    /// Decides the fate of each `(from, to)` message at a given time.
    link_filter: Option<LinkFilterFn>,
    /// Telemetry sink; traces carry virtual timestamps when installed.
    recorder: Option<Arc<dyn Recorder>>,
}

/// What a link filter decides about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Deliver normally.
    Deliver,
    /// Drop the message (models a crashed link or a Byzantine network
    /// *permanently* suppressing traffic — note this leaves the reliable-
    /// link model, so only use it against parties counted as faulty).
    Drop,
    /// Hold the message until the given virtual time (a partition that
    /// heals — the faithful way to model a partition under asynchrony).
    DelayUntil(VirtualTime),
}

impl Simulation {
    /// Builds a simulation hosting one honest node per set of party keys.
    ///
    /// # Panics
    ///
    /// Panics if `config.machines` is neither 1 nor `n` entries long.
    pub fn new(party_keys: Vec<Arc<PartyKeys>>, config: SimConfig) -> Self {
        let n = party_keys.len();
        let machines = if config.machines.len() == 1 {
            vec![config.machines[0].clone(); n]
        } else {
            assert_eq!(config.machines.len(), n, "one machine profile per party");
            config.machines.clone()
        };
        let actors = party_keys
            .into_iter()
            .enumerate()
            .map(|(i, keys)| {
                Actor::Honest(PartyCore::new(Node::new(
                    GroupContext::new(keys),
                    config.seed ^ (i as u64) << 32,
                )))
            })
            .collect();
        Simulation {
            actors,
            faults: vec![Fault::Honest; n],
            machines,
            latency: config.latency,
            rng: StdRng::seed_from_u64(config.seed),
            clock: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            busy_until: vec![0; n],
            records: Vec::new(),
            stats: Stats::default(),
            link_filter: None,
            recorder: None,
        }
    }

    /// Installs a telemetry recorder: every honest node attributes crypto
    /// work and message counts to it, protocol trace events are stamped
    /// with virtual time, and the simulator itself accounts per-channel
    /// `msgs_sent` / `msgs_delivered` / `msgs_dropped` / `bytes_sent` so
    /// that `msgs_sent == msgs_delivered + msgs_dropped` holds at
    /// quiescence.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        for actor in &mut self.actors {
            if let Actor::Honest(core) = actor {
                core.set_recorder(recorder.clone());
            }
        }
        self.recorder = Some(recorder);
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// The current virtual time (µs).
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// All recorded protocol outputs.
    pub fn records(&self) -> &[DeliveryRecord] {
        &self.records
    }

    /// Direct access to an honest party's node, for registering protocol
    /// instances before the run.
    ///
    /// # Panics
    ///
    /// Panics if the party has been replaced by a Byzantine actor.
    pub fn node_mut(&mut self, party: usize) -> &mut Node {
        match &mut self.actors[party] {
            Actor::Honest(core) => core.node_mut(),
            Actor::Byzantine(..) => {
                invariant_violated!("cannot drive party {party}: it is Byzantine")
            }
        }
    }

    /// Assigns a failure mode to a party.
    pub fn set_fault(&mut self, party: usize, fault: Fault) {
        self.faults[party] = fault;
    }

    /// Replaces a party with a Byzantine actor.
    pub fn set_byzantine(&mut self, party: usize, actor: Box<dyn ByzantineActor>) {
        self.actors[party] = Actor::Byzantine(actor, 1);
    }

    /// Installs a link filter deciding per-message delivery, drop or
    /// delay. The asynchronous model assumes eventual delivery between
    /// honest parties; prefer [`LinkDecision::DelayUntil`] over
    /// [`LinkDecision::Drop`] unless an endpoint is counted as faulty.
    pub fn set_link_filter(
        &mut self,
        rule: impl FnMut(usize, usize, VirtualTime) -> LinkDecision + 'static,
    ) {
        self.link_filter = Some(Box::new(rule));
    }

    /// Schedules an application action (send, propose, close, ...) on a
    /// party's node at a virtual time.
    pub fn schedule(
        &mut self,
        time_us: VirtualTime,
        party: usize,
        run: impl FnOnce(&mut Node, &mut Outgoing) + 'static,
    ) {
        let seq = self.next_seq();
        self.heap.push(Scheduled {
            time: time_us,
            seq,
            work: Work::Action {
                party,
                run: Box::new(run),
            },
        });
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn is_crashed(&self, party: usize, at: VirtualTime) -> bool {
        matches!(self.faults[party], Fault::Crash { at_us } if at >= at_us)
    }

    /// Schedules timer requests drained from a party's step.
    fn schedule_timers(
        &mut self,
        party: usize,
        now: VirtualTime,
        timers: Vec<sintra_core::TimerRequest>,
    ) {
        for t in timers {
            let seq = self.next_seq();
            self.heap.push(Scheduled {
                time: now + t.delay_ms * 1000,
                seq,
                work: Work::Timer {
                    party,
                    pid: t.pid,
                    token: t.token,
                },
            });
        }
    }

    /// Puts a step's stamped envelopes on the links, each copy with its
    /// own sampled latency, unless the sender is mute or crashed by then.
    fn dispatch(&mut self, from: usize, depart: VirtualTime, sends: Vec<(Recipient, Envelope)>) {
        if matches!(self.faults[from], Fault::Mute) || self.is_crashed(from, depart) {
            return;
        }
        for (recipient, env) in sends {
            let size = sintra_core::wire::Wire::to_bytes(&env).len() as u64;
            for to in targets(recipient, self.n()) {
                let mut not_before = depart;
                let mut dropped = false;
                if let Some(rule) = &mut self.link_filter {
                    match rule(from, to, depart) {
                        LinkDecision::Deliver => {}
                        LinkDecision::Drop => dropped = true,
                        LinkDecision::DelayUntil(t) => not_before = not_before.max(t),
                    }
                }
                if let Some(rec) = &self.recorder {
                    let scope = root_scope(env.pid.as_str());
                    rec.counter_add(scope, "msgs_sent", 1);
                    rec.counter_add(scope, "bytes_sent", size);
                    if dropped {
                        rec.counter_add(scope, "msgs_dropped", 1);
                    }
                }
                if dropped {
                    continue;
                }
                self.stats.messages += 1;
                self.stats.bytes += size;
                let lat = self.latency.sample_us(from, to, &mut self.rng);
                let seq = self.next_seq();
                self.heap.push(Scheduled {
                    time: not_before + lat,
                    seq,
                    work: Work::Net {
                        from: PartyId(from),
                        to,
                        env: env.clone(),
                    },
                });
            }
        }
    }

    /// Executes one scheduled item. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(item) = self.heap.pop() else {
            return false;
        };
        self.clock = self.clock.max(item.time);
        let clock = self.clock;
        match item.work {
            Work::Net { from, to, env } => {
                if self.is_crashed(to, clock) {
                    if let Some(rec) = &self.recorder {
                        rec.counter_add(root_scope(env.pid.as_str()), "msgs_dropped", 1);
                    }
                    return true;
                }
                if let Some(rec) = &self.recorder {
                    rec.counter_add(root_scope(env.pid.as_str()), "msgs_delivered", 1);
                }
                match &mut self.actors[to] {
                    Actor::Honest(core) => {
                        let effects = core.step(Input::Envelope { from, env: &env });
                        let msg_us = self.machines[to].msg_us();
                        self.release(to, effects, msg_us);
                    }
                    Actor::Byzantine(actor, next_send_seq) => {
                        let mut replies = actor.on_message(from, &env, clock);
                        stamp(next_send_seq, &mut replies);
                        self.dispatch(to, clock, replies);
                    }
                }
            }
            Work::Timer { party, pid, token } => {
                if self.is_crashed(party, clock) {
                    return true;
                }
                if let Actor::Honest(core) = &mut self.actors[party] {
                    let effects = core.step(Input::Timer { pid: &pid, token });
                    self.release(party, effects, 0);
                }
            }
            Work::Action { party, run } => {
                if self.is_crashed(party, clock) {
                    return true;
                }
                match &mut self.actors[party] {
                    Actor::Honest(core) => {
                        let effects = core.step(Input::Act(run));
                        self.release(party, effects, 0);
                    }
                    Actor::Byzantine(actor, next_send_seq) => {
                        let mut msgs = actor.on_start(clock);
                        stamp(next_send_seq, &mut msgs);
                        self.dispatch(party, clock, msgs);
                    }
                }
            }
        }
        true
    }

    /// Charges an honest step's work (plus `overhead_us`) to the party's
    /// machine, after whatever it is still busy with, and releases the
    /// step's effects at the instant it finishes: events become records,
    /// traces are stamped with that instant, timers and messages leave
    /// then.
    fn release(&mut self, party: usize, effects: Effects, overhead_us: u64) {
        let start = self.clock.max(self.busy_until[party]);
        let done = start + self.machines[party].cpu_us(effects.work) + overhead_us;
        self.busy_until[party] = done;
        for event in effects.events {
            self.records.push(DeliveryRecord {
                time_us: done,
                party,
                event,
            });
        }
        if let Some(rec) = &self.recorder {
            for mut ev in effects.traces {
                ev.time_us = done;
                rec.trace(ev);
            }
        }
        self.schedule_timers(party, done, effects.timers);
        self.dispatch(party, done, effects.sends);
    }

    /// Runs until no scheduled work remains, returning the final virtual
    /// time.
    ///
    /// # Panics
    ///
    /// Panics after an excessive number of steps (a protocol that fails to
    /// quiesce indicates a liveness bug).
    pub fn run(&mut self) -> VirtualTime {
        let mut steps: u64 = 0;
        while self.step() {
            steps += 1;
            assert!(steps < 200_000_000, "simulation did not quiesce");
        }
        self.clock
    }

    /// Runs until the virtual clock passes `deadline_us` or the queue
    /// drains.
    pub fn run_until(&mut self, deadline_us: VirtualTime) {
        while let Some(next) = self.heap.peek() {
            if next.time > deadline_us {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline_us);
    }

    /// Convenience: the channel deliveries observed at `party` for the
    /// instance `pid`, in delivery order with timestamps.
    pub fn channel_deliveries(
        &self,
        party: usize,
        pid: &sintra_core::ProtocolId,
    ) -> Vec<(VirtualTime, sintra_core::message::Payload)> {
        self.records
            .iter()
            .filter_map(|r| match &r.event {
                Event::ChannelDelivered { pid: epid, payload }
                    if r.party == party && epid == pid =>
                {
                    Some((r.time_us, payload.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_core::channel::AtomicChannelConfig;
    use sintra_core::ProtocolId;
    use sintra_crypto::dealer::{deal, DealerConfig};

    fn keys(n: usize, t: usize) -> Vec<Arc<PartyKeys>> {
        let mut rng = StdRng::seed_from_u64(53);
        deal(&DealerConfig::small(n, t), &mut rng)
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    fn atomic_sim(n: usize, t: usize, seed: u64) -> (Simulation, ProtocolId) {
        let pid = ProtocolId::new("sim-ac");
        let mut sim = Simulation::new(
            keys(n, t),
            SimConfig {
                latency: LatencyModel::lan(),
                machines: vec![MachineProfile::new("test", 1.0)],
                seed,
            },
        );
        for p in 0..n {
            let pid = pid.clone();
            sim.node_mut(p)
                .create_atomic_channel(pid, AtomicChannelConfig::default());
        }
        (sim, pid)
    }

    #[test]
    fn atomic_channel_runs_under_simulation() {
        let (mut sim, pid) = atomic_sim(4, 1, 7);
        let spid = pid.clone();
        sim.schedule(0, 0, move |node, out| {
            node.channel_send(&spid, b"one".to_vec(), out);
        });
        let spid = pid.clone();
        sim.schedule(100, 2, move |node, out| {
            node.channel_send(&spid, b"two".to_vec(), out);
        });
        let end = sim.run();
        assert!(end > 0);
        for p in 0..4 {
            let deliveries = sim.channel_deliveries(p, &pid);
            let datas: Vec<&[u8]> = deliveries.iter().map(|(_, p)| p.data.as_slice()).collect();
            assert_eq!(datas.len(), 2, "party {p}");
            assert_eq!(
                datas,
                sim.channel_deliveries(0, &pid)
                    .iter()
                    .map(|(_, p)| p.data.as_slice())
                    .collect::<Vec<_>>(),
                "total order"
            );
        }
        assert!(sim.stats().messages > 0);
        assert!(sim.stats().bytes > 0);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let (mut sim, pid) = atomic_sim(4, 1, seed);
            let spid = pid.clone();
            sim.schedule(0, 1, move |node, out| {
                node.channel_send(&spid, b"x".to_vec(), out);
            });
            sim.run();
            sim.channel_deliveries(0, &pid)
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "determinism");
        assert_ne!(run(42), run(43), "seed sensitivity");
    }

    #[test]
    fn crash_fault_tolerated() {
        let (mut sim, pid) = atomic_sim(4, 1, 11);
        sim.set_fault(3, Fault::Crash { at_us: 0 });
        let spid = pid.clone();
        sim.schedule(0, 0, move |node, out| {
            node.channel_send(&spid, b"survives".to_vec(), out);
        });
        sim.run();
        for p in 0..3 {
            assert_eq!(sim.channel_deliveries(p, &pid).len(), 1, "party {p}");
        }
        assert!(sim.channel_deliveries(3, &pid).is_empty());
    }

    #[test]
    fn cpu_cost_advances_virtual_time() {
        // With nonzero exp time the run must take visibly longer than the
        // pure network latency.
        let (mut sim_fast, pid) = atomic_sim(4, 1, 13);
        let spid = pid.clone();
        sim_fast.schedule(0, 0, move |node, out| {
            node.channel_send(&spid, b"m".to_vec(), out);
        });
        sim_fast.run();
        let fast = sim_fast.channel_deliveries(0, &pid)[0].0;

        let keys4 = keys(4, 1);
        let pid2 = ProtocolId::new("sim-ac");
        let mut sim_slow = Simulation::new(
            keys4,
            SimConfig {
                latency: LatencyModel::lan(),
                machines: vec![MachineProfile::new("slow", 100.0)],
                seed: 13,
            },
        );
        for p in 0..4 {
            sim_slow
                .node_mut(p)
                .create_atomic_channel(pid2.clone(), AtomicChannelConfig::default());
        }
        let spid = pid2.clone();
        sim_slow.schedule(0, 0, move |node, out| {
            node.channel_send(&spid, b"m".to_vec(), out);
        });
        sim_slow.run();
        let slow = sim_slow.channel_deliveries(0, &pid2)[0].0;
        // At the 128-bit test key size crypto is cheap, but a 100x slower
        // machine must still be measurably slower.
        assert!(slow > fast, "slow={slow} fast={fast}");
    }

    #[test]
    fn metered_work_converts_to_virtual_time() {
        let (mut sim, pid) = atomic_sim(4, 1, 19);
        // An action that burns exactly 2.0 work units on a 1 ms/unit
        // machine must push that party's outputs past 2000 µs.
        let spid = pid.clone();
        sim.schedule(0, 0, move |node, out| {
            sintra_crypto::cost::charge(2.0);
            node.channel_send(&spid, b"m".to_vec(), out);
        });
        sim.run();
        let t0 = sim.channel_deliveries(0, &pid)[0].0;
        assert!(t0 >= 2_000, "cpu charge must advance virtual time: {t0}");
    }

    #[test]
    fn healed_partition_preserves_liveness() {
        let (mut sim, pid) = atomic_sim(4, 1, 17);
        // Party 0's links stall for the first 2 virtual seconds: messages
        // are held, not lost (the faithful asynchronous partition).
        sim.set_link_filter(|from, to, t| {
            if (from == 0 || to == 0) && from != to && t < 2_000_000 {
                LinkDecision::DelayUntil(2_000_000)
            } else {
                LinkDecision::Deliver
            }
        });
        let spid = pid.clone();
        sim.schedule(0, 1, move |node, out| {
            node.channel_send(&spid, b"during-partition".to_vec(), out);
        });
        sim.run();
        // Everyone, including the partitioned party, delivers it; the
        // remaining n - t parties never needed party 0 to make progress.
        for p in 0..4 {
            let datas: Vec<Vec<u8>> = sim
                .channel_deliveries(p, &pid)
                .iter()
                .map(|(_, pl)| pl.data.clone())
                .collect();
            assert_eq!(datas, vec![b"during-partition".to_vec()], "party {p}");
        }
        // The unpartitioned majority finished before the heal.
        assert!(sim.channel_deliveries(1, &pid)[0].0 < 2_000_000);
        assert!(sim.channel_deliveries(0, &pid)[0].0 >= 2_000_000);
    }
}
