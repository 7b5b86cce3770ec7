//! Byzantine party behaviours for failure-injection testing.
//!
//! A Byzantine actor replaces a party's honest node in the simulation: it
//! sees every message addressed to the party and emits arbitrary messages
//! in return. The honest parties' safety must hold against *any* such
//! actor with at most `t` of them; the actors here implement the classic
//! attack patterns the test suite exercises.

use std::collections::BTreeSet;
use std::sync::Arc;

use sintra_core::message::{
    Body, Entry, Envelope, Payload, PayloadKind, MAX_ENTRY_BYTES, MAX_ENTRY_PAYLOADS,
};
use sintra_core::{PartyId, ProtocolId, Recipient};
use sintra_crypto::dealer::PartyKeys;

use super::runner::VirtualTime;

/// A Byzantine replacement for a party.
pub trait ByzantineActor {
    /// Reacts to an incoming message.
    fn on_message(
        &mut self,
        from: PartyId,
        env: &Envelope,
        clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)>;

    /// Produces the actor's initial traffic when a scheduled action fires
    /// on it (defaults to nothing).
    fn on_start(&mut self, _clock: VirtualTime) -> Vec<(Recipient, Envelope)> {
        Vec::new()
    }
}

/// Receives everything, says nothing. Indistinguishable from a crash to
/// the rest of the group.
#[derive(Debug, Default)]
pub struct Silent;

impl ByzantineActor for Silent {
    fn on_message(
        &mut self,
        _from: PartyId,
        _env: &Envelope,
        _clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)> {
        Vec::new()
    }
}

/// A broadcast sender that equivocates: it sends payload `a` to the
/// parties in `group_a` and payload `b` to everyone else. Reliable
/// broadcast must prevent honest parties from delivering different
/// payloads.
#[derive(Debug)]
pub struct EquivocatingSender {
    /// The broadcast instance to attack.
    pub pid: ProtocolId,
    /// Payload shown to `group_a`.
    pub payload_a: Vec<u8>,
    /// Payload shown to the rest.
    pub payload_b: Vec<u8>,
    /// Parties receiving `payload_a`.
    pub group_a: Vec<usize>,
    /// Total group size.
    pub n: usize,
}

impl ByzantineActor for EquivocatingSender {
    fn on_message(
        &mut self,
        _from: PartyId,
        _env: &Envelope,
        _clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)> {
        Vec::new()
    }

    fn on_start(&mut self, _clock: VirtualTime) -> Vec<(Recipient, Envelope)> {
        (0..self.n)
            .map(|p| {
                let payload = if self.group_a.contains(&p) {
                    self.payload_a.clone()
                } else {
                    self.payload_b.clone()
                };
                (
                    Recipient::One(PartyId(p)),
                    Envelope {
                        pid: self.pid.clone(),
                        send_seq: 0,
                        body: Body::RbSend(payload),
                    },
                )
            })
            .collect()
    }
}

/// Replays every message it receives back to all parties (a crude
/// amplification / confusion attack; protocols must ignore the garbage
/// because replayed messages carry the wrong sender identity). Each
/// distinct message is reflected once — reflecting reflections of its own
/// reflections would model an infinitely fast adversary, which even the
/// asynchronous model does not grant.
#[derive(Debug, Default)]
pub struct Reflector {
    seen: std::collections::HashSet<Vec<u8>>,
}

impl ByzantineActor for Reflector {
    fn on_message(
        &mut self,
        _from: PartyId,
        env: &Envelope,
        _clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)> {
        // The send-seq is restamped at every hop, so it must not count
        // toward message identity — otherwise a reflection of our own
        // reflection always looks new and the storm never terminates.
        let mut canonical = env.clone();
        canonical.send_seq = 0;
        let fingerprint = sintra_core::wire::Wire::to_bytes(&canonical);
        if self.seen.insert(fingerprint) {
            vec![(Recipient::All, env.clone())]
        } else {
            Vec::new()
        }
    }
}

/// How an [`EntryRelay`] rewrites an honest entry's payload vector
/// before signing it as its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mangle {
    /// Drops the first payload: `[c2]` of an honest `[c1, c2]`.
    Suffix,
    /// Prepends the first payload the relay ever saw, long delivered.
    Stale,
    /// Repeats the first payload at the end: one `(origin, seq)` twice.
    Duplicate,
    /// Signs an empty vector.
    Empty,
    /// One payload more than an entry may carry.
    OverCount,
    /// Two payloads that together exceed the byte budget.
    OverBytes,
}

/// An atomic-channel member that answers the first honest entry it sees
/// in each round with a *validly signed* entry of its own whose payload
/// vector is a mangled copy. Signatures cannot stop it — it is a group
/// member — so honest parties must reject the malformed shapes and
/// deliver the well-formed ones (suffix, stale prefix) without breaking
/// per-origin order or exactly-once.
#[derive(Debug)]
pub struct EntryRelay {
    keys: Arc<PartyKeys>,
    mangle: Mangle,
    answered: BTreeSet<u64>,
    first_seen: Option<Payload>,
}

impl EntryRelay {
    /// A relay signing with `keys` (the replaced party's own).
    pub fn new(keys: Arc<PartyKeys>, mangle: Mangle) -> Self {
        EntryRelay {
            keys,
            mangle,
            answered: BTreeSet::new(),
            first_seen: None,
        }
    }

    fn mangled(&mut self, payloads: &[Payload]) -> Option<Vec<Payload>> {
        let first = payloads.first()?;
        let stale = self.first_seen.get_or_insert_with(|| first.clone()).clone();
        let own = |seq: u64, len: usize| Payload {
            origin: PartyId(self.keys.index),
            seq: 1_000 + seq,
            kind: PayloadKind::App,
            data: vec![0xBD; len],
        };
        Some(match self.mangle {
            Mangle::Suffix if payloads.len() < 2 => return None,
            Mangle::Suffix => payloads[1..].to_vec(),
            Mangle::Stale if stale == *first => return None,
            Mangle::Stale => std::iter::once(stale)
                .chain(payloads.iter().cloned())
                .collect(),
            Mangle::Duplicate => payloads.iter().chain([first]).cloned().collect(),
            Mangle::Empty => Vec::new(),
            Mangle::OverCount => (0..=MAX_ENTRY_PAYLOADS as u64).map(|s| own(s, 1)).collect(),
            Mangle::OverBytes => vec![own(0, MAX_ENTRY_BYTES / 2), own(1, MAX_ENTRY_BYTES / 2 + 1)],
        })
    }
}

impl ByzantineActor for EntryRelay {
    fn on_message(
        &mut self,
        from: PartyId,
        env: &Envelope,
        _clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)> {
        let Body::AcEntry { round, entry } = &env.body else {
            return Vec::new();
        };
        if from.0 == self.keys.index || self.answered.contains(round) {
            return Vec::new();
        }
        let Some(payloads) = self.mangled(entry.payloads()) else {
            return Vec::new();
        };
        self.answered.insert(*round);
        let entry = Entry::sign(
            &env.pid,
            *round,
            payloads,
            PartyId(self.keys.index),
            &self.keys.sig_key,
        );
        let body = Body::AcEntry {
            round: *round,
            entry: entry.into(),
        };
        vec![(
            Recipient::All,
            Envelope {
                pid: env.pid.clone(),
                send_seq: 0,
                body,
            },
        )]
    }
}

/// An atomic-channel member that shows its entries to a quorum only: in
/// every round it signs payloads of its own and sends the entry to
/// `⌈(n+t+1)/2⌉` parties — itself and the lowest-numbered others — and
/// never to the rest. It takes no other part in the protocol and answers
/// no fetch, so the parties left out must pull the payload from the
/// honest parties that hold it: from a proposer before they echo, from
/// anybody once a batch naming it is decided.
#[derive(Debug)]
pub struct EntryWithhold {
    keys: Arc<PartyKeys>,
    answered: BTreeSet<u64>,
}

impl EntryWithhold {
    /// A withholder signing with `keys` (the replaced party's own).
    pub fn new(keys: Arc<PartyKeys>) -> Self {
        EntryWithhold {
            keys,
            answered: BTreeSet::new(),
        }
    }
}

impl ByzantineActor for EntryWithhold {
    fn on_message(
        &mut self,
        _from: PartyId,
        env: &Envelope,
        _clock: VirtualTime,
    ) -> Vec<(Recipient, Envelope)> {
        let Body::AcEntry { round, .. } = &env.body else {
            return Vec::new();
        };
        if !self.answered.insert(*round) {
            return Vec::new();
        }
        let me = self.keys.index;
        // The consistent-broadcast echo quorum, itself counted in.
        let others = self.keys.common.thsig_broadcast.threshold() - 1;
        // Eight more of its own payloads every round, behind all the
        // earlier ones: whatever part of them has been delivered by now,
        // the rest makes this the entry a proposer gains most from.
        let count = (8 * self.answered.len()).min(MAX_ENTRY_PAYLOADS);
        let own = (0..count as u64)
            .map(|seq| Payload {
                origin: PartyId(me),
                seq,
                kind: PayloadKind::App,
                data: format!("withheld-{seq}").into_bytes(),
            })
            .collect();
        let entry = Entry::sign(&env.pid, *round, own, PartyId(me), &self.keys.sig_key);
        (0..self.keys.n())
            .filter(|p| *p != me)
            .take(others)
            .map(|p| {
                let body = Body::AcEntry {
                    round: *round,
                    entry: entry.clone().into(),
                };
                (
                    Recipient::One(PartyId(p)),
                    Envelope {
                        pid: env.pid.clone(),
                        send_seq: 0,
                        body,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_actor_says_nothing() {
        let mut s = Silent;
        let env = Envelope {
            pid: ProtocolId::new("x"),
            send_seq: 0,
            body: Body::RbSend(vec![1]),
        };
        assert!(s.on_message(PartyId(0), &env, 0).is_empty());
        assert!(s.on_start(0).is_empty());
    }

    #[test]
    fn equivocator_splits_the_group() {
        let mut e = EquivocatingSender {
            pid: ProtocolId::new("rb"),
            payload_a: b"a".to_vec(),
            payload_b: b"b".to_vec(),
            group_a: vec![1],
            n: 4,
        };
        let msgs = e.on_start(0);
        assert_eq!(msgs.len(), 4);
        let payload_of = |idx: usize| match &msgs[idx].1.body {
            Body::RbSend(p) => p.clone(),
            _ => panic!("wrong body"),
        };
        assert_eq!(payload_of(1), b"a");
        assert_eq!(payload_of(2), b"b");
    }

    #[test]
    fn reflector_reflects() {
        let mut r = Reflector::default();
        let env = Envelope {
            pid: ProtocolId::new("x"),
            send_seq: 0,
            body: Body::RbSend(vec![9]),
        };
        let out = r.on_message(PartyId(2), &env, 5);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, env);
    }

    #[test]
    fn entry_relay_signs_what_it_mangles() {
        use rand::SeedableRng;
        use sintra_core::message::statement_entry;
        use sintra_crypto::dealer::{deal, DealerConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let keys: Vec<Arc<PartyKeys>> = deal(&DealerConfig::small(4, 1), &mut rng)
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect();
        let pid = ProtocolId::new("ac");
        let payload = |seq: u64| Payload {
            origin: PartyId(2),
            seq,
            kind: PayloadKind::App,
            data: vec![seq as u8],
        };
        let honest = |round: u64, payloads: Vec<Payload>| Envelope {
            pid: pid.clone(),
            send_seq: 0,
            body: Body::AcEntry {
                round,
                entry: Entry::sign(&pid, round, payloads, PartyId(2), &keys[2].sig_key).into(),
            },
        };
        let mut relay = EntryRelay::new(keys[0].clone(), Mangle::Suffix);
        // Nothing to cut from a one-payload entry.
        assert!(relay
            .on_message(PartyId(2), &honest(0, vec![payload(0)]), 0)
            .is_empty());
        let out = relay.on_message(PartyId(2), &honest(1, vec![payload(1), payload(2)]), 0);
        let Body::AcEntry { round: 1, entry } = &out[0].1.body else {
            panic!("expected a round-1 entry");
        };
        assert_eq!(entry.payloads(), [payload(2)]);
        assert_eq!(entry.signer(), PartyId(0));
        // It signs what honest parties check: the digest of its vector.
        let statement = statement_entry(&pid, 1, entry.digest());
        assert!(keys[0].common.sig_publics[0].verify(&statement, entry.sig()));
        // One entry per round, like an honest party.
        assert!(relay
            .on_message(PartyId(3), &honest(1, vec![payload(1), payload(2)]), 0)
            .is_empty());
        for mangle in [
            Mangle::Empty,
            Mangle::OverCount,
            Mangle::OverBytes,
            Mangle::Duplicate,
        ] {
            let mut relay = EntryRelay::new(keys[0].clone(), mangle);
            let out = relay.on_message(PartyId(2), &honest(0, vec![payload(0), payload(1)]), 0);
            let Body::AcEntry { entry, .. } = &out[0].1.body else {
                panic!("expected an entry");
            };
            assert!(!entry.well_formed(), "{mangle:?}");
        }
        // The withholder: one entry a round, to a quorum of the others.
        let mut withhold = EntryWithhold::new(keys[3].clone());
        let out = withhold.on_message(PartyId(2), &honest(0, vec![payload(0)]), 0);
        let to: Vec<Recipient> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(
            to,
            [0, 1].map(|p| Recipient::One(PartyId(p))),
            "itself and two others: the quorum of 3 at n = 4"
        );
        assert!(withhold
            .on_message(PartyId(1), &honest(0, vec![payload(0)]), 0)
            .is_empty());
    }
}
