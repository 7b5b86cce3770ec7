//! The sans-IO step every driver runs.
//!
//! A [`PartyCore`] owns one party's [`Node`], its send sequence and its
//! telemetry recorder. [`PartyCore::step`] feeds it one input — an
//! envelope, a timer expiry or an application action — and returns the
//! step's [`Effects`]: the stamped sends, the timer requests, the
//! protocol events, the trace events and the work units the step
//! metered. It performs no IO and reads no clock, so the simulator and the
//! TCP server loop drive the same code and keep only their own concerns:
//! virtual time, latency and faults in one, sockets, wall-clock stamps
//! and the flight recorder in the other.

use std::ops::Range;
use std::sync::Arc;

use sintra_core::message::Envelope;
use sintra_core::node::Node;
use sintra_core::{Event, Outgoing, PartyId, ProtocolId, Recipient, TimerRequest};
use sintra_crypto::cost::CostScope;
use sintra_telemetry::{root_scope, Recorder, TraceEvent};

/// An application action on a node: create an instance, send, propose,
/// close. The simulator schedules them; the server loop receives them
/// from its handle.
pub type Action<'a> = Box<dyn FnOnce(&mut Node, &mut Outgoing) + 'a>;

/// What one step processes.
pub enum Input<'a> {
    /// An authenticated envelope from `from`.
    Envelope {
        /// The sending party.
        from: PartyId,
        /// The envelope, as decoded from the wire.
        env: &'a Envelope,
    },
    /// A timer this party's node armed has expired.
    Timer {
        /// The instance that armed it.
        pid: &'a ProtocolId,
        /// The token it armed it with.
        token: u64,
    },
    /// An application action.
    Act(Action<'a>),
}

/// Everything one step produced, for its driver to carry out.
#[derive(Debug, Default)]
pub struct Effects {
    /// Envelopes to transmit, each stamped with its own `send_seq`; a
    /// [`Recipient::All`] envelope goes to every party of [`targets`].
    pub sends: Vec<(Recipient, Envelope)>,
    /// Wake-up calls to schedule, delays unchanged.
    pub timers: Vec<TimerRequest>,
    /// Protocol outputs (deliveries, decisions, closings).
    pub events: Vec<Event>,
    /// Trace events, unstamped unless the driver stamped them beforehand.
    pub traces: Vec<TraceEvent>,
    /// The step's causal origin: the `(sender, send_seq)` of the envelope
    /// it processed, `None` for timers and actions.
    pub cause: Option<(usize, u64)>,
    /// Crypto work units the step metered.
    pub work: f64,
}

/// The parties an envelope addressed to `to` goes to, in a group of
/// `parties`.
pub fn targets(to: Recipient, parties: usize) -> Range<usize> {
    match to {
        Recipient::All => 0..parties,
        Recipient::One(p) => p.0..p.0 + 1,
    }
}

/// Stamps each envelope with the next `send_seq` of its sender. One
/// number per envelope, shared by every copy of a fan-out, so that a
/// receiver can attribute the work a message triggers to the exact send.
pub fn stamp(next_send_seq: &mut u64, sends: &mut [(Recipient, Envelope)]) {
    for (_, env) in sends {
        env.send_seq = *next_send_seq;
        *next_send_seq += 1;
    }
}

/// One party's protocol state and the bookkeeping every step shares.
pub struct PartyCore {
    node: Node,
    next_send_seq: u64,
    recorder: Option<Arc<dyn Recorder>>,
    tracing: bool,
}

impl PartyCore {
    /// Wraps a node. Sends are numbered from 1; no recorder, no tracing.
    pub fn new(node: Node) -> Self {
        PartyCore {
            node,
            next_send_seq: 1,
            recorder: None,
            tracing: false,
        }
    }

    /// Installs a telemetry recorder on the node and the core. Steps
    /// collect trace events while the recorder is enabled.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.node.set_recorder(recorder.clone());
        self.tracing = recorder.enabled();
        self.recorder = Some(recorder);
    }

    /// Switches trace collection on or off, whatever the recorder says
    /// (a flight recorder wants traces without a metrics recorder).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The party's node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The party's node, for registering instances outside a step.
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Runs one input through the node and collects what it produced.
    ///
    /// `round` and `epoch` trace events count into the recorder's `rounds`
    /// counter and `batch` events into its `batch_size` histogram, under
    /// the event's root instance.
    pub fn step(&mut self, input: Input<'_>) -> Effects {
        let scope = CostScope::enter();
        let mut out = Outgoing::new();
        out.set_tracing(self.tracing);
        match input {
            Input::Envelope { from, env } => {
                // Everything this step emits descends from this exact
                // transmission.
                out.set_cause(Some((from.0, env.send_seq)));
                self.node.handle_envelope(from, env, &mut out);
            }
            Input::Timer { pid, token } => self.node.handle_timer(pid, token, &mut out),
            Input::Act(run) => run(&mut self.node, &mut out),
        }
        let work = scope.elapsed();
        let mut sends = out.drain();
        stamp(&mut self.next_send_seq, &mut sends);
        let traces = out.drain_traces();
        if let Some(rec) = &self.recorder {
            for ev in &traces {
                let scope = root_scope(&ev.protocol);
                match ev.phase {
                    "round" | "epoch" => rec.counter_add(scope, "rounds", 1),
                    "batch" => rec.observe(scope, "batch_size", ev.bytes),
                    _ => {}
                }
            }
        }
        Effects {
            sends,
            timers: out.drain_timers(),
            events: self.node.take_events(),
            traces,
            cause: out.cause(),
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_core::channel::OptimisticChannelConfig;
    use sintra_core::GroupContext;
    use sintra_crypto::dealer::{deal, DealerConfig};
    use sintra_telemetry::MetricsRegistry;

    fn core(n: usize, t: usize) -> PartyCore {
        let mut rng = StdRng::seed_from_u64(61);
        let keys = deal(&DealerConfig::small(n, t), &mut rng).unwrap();
        let ctx = GroupContext::new(Arc::new(keys[0].clone()));
        PartyCore::new(Node::new(ctx, 1))
    }

    #[test]
    fn a_fan_out_shares_one_send_seq_and_the_next_step_gets_the_next() {
        let mut core = core(4, 1);
        let pid = ProtocolId::new("step-rb");
        core.node_mut()
            .create_reliable_broadcast(pid.clone(), PartyId(0));
        let effects = core.step(Input::Act(Box::new(|node, out| {
            node.broadcast_send(&pid, b"fan-out".to_vec(), out)
        })));
        assert_eq!(effects.sends.len(), 1, "one rb-send to all");
        let (to, env) = &effects.sends[0];
        assert_eq!(*to, Recipient::All);
        assert_eq!(env.send_seq, 1);
        assert_eq!(targets(*to, 4), 0..4, "n copies of one stamped envelope");
        assert_eq!(effects.cause, None, "an action has no causal parent");

        // The party's own copy comes back: its echo is the next send.
        let env = env.clone();
        let effects = core.step(Input::Envelope {
            from: PartyId(0),
            env: &env,
        });
        assert_eq!(effects.cause, Some((0, 1)));
        let seqs: Vec<u64> = effects.sends.iter().map(|(_, e)| e.send_seq).collect();
        assert_eq!(seqs, vec![2]);
        assert_eq!(targets(Recipient::One(PartyId(2)), 4), 2..3);
    }

    #[test]
    fn a_batch_event_adds_one_batch_size_observation() {
        let mut core = core(4, 1);
        let registry = Arc::new(MetricsRegistry::new());
        core.set_recorder(registry.clone());
        let effects = core.step(Input::Act(Box::new(|_, out| {
            out.trace(
                TraceEvent::new(0, "step-ac/3", "atomic")
                    .phase("batch")
                    .bytes(5),
            );
            out.trace(TraceEvent::new(0, "step-ac/3", "atomic").phase("round"));
        })));
        assert_eq!(effects.traces.len(), 2, "traces pass through");
        let sizes = registry
            .histogram("step-ac", "batch_size")
            .expect("observed");
        assert_eq!((sizes.count, sizes.sum), (1, 5));
        assert_eq!(registry.counter("step-ac", "rounds"), 1);
    }

    #[test]
    fn work_equals_what_a_surrounding_scope_measured() {
        let mut core = core(4, 1);
        let outer = CostScope::enter();
        let effects = core.step(Input::Act(Box::new(|_, _| {
            sintra_crypto::cost::charge(0.75);
        })));
        assert_eq!(effects.work, outer.elapsed());
        assert_eq!(effects.work, 0.75);
    }

    #[test]
    fn a_timer_request_comes_back_unscheduled() {
        let mut core = core(4, 1);
        let pid = ProtocolId::new("step-opt");
        core.node_mut()
            .create_optimistic_channel(pid.clone(), OptimisticChannelConfig::default());
        let effects = core.step(Input::Act(Box::new(|_, out| out.set_timer(&pid, 9, 250))));
        assert_eq!(
            effects.timers,
            vec![TimerRequest {
                pid: pid.clone(),
                token: 9,
                delay_ms: 250
            }]
        );
        assert!(effects.sends.is_empty());
        // Its expiry is a step of its own.
        let effects = core.step(Input::Timer {
            pid: &pid,
            token: 9,
        });
        assert_eq!(effects.cause, None);
    }
}
