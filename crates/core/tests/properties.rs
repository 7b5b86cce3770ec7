//! Property-based tests for the protocol layer: wire-codec round-trips
//! and fuzzing, statement-collision freedom, and protocol safety under
//! randomized message schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sintra_core::agreement::{BinaryAgreement, CandidateOrder, MultiValuedAgreement};
use sintra_core::broadcast::ClosingMessage;
use sintra_core::channel::{AtomicChannel, AtomicChannelConfig};
use sintra_core::checked::{Thsig, Unchecked};
use sintra_core::message::{
    payload_digest, statement_cb, statement_entry, statement_pre_vote, Body, Entry, EntryRef,
    Envelope, MainVote, MainVoteJust, Payload, PayloadKind,
};
use sintra_core::pump::{Choice, Delivery, Overrun, Pump};
use sintra_core::wire::Wire;
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::dealer::{deal, DealerConfig};
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thsig::{SigShare, SigShareBody, ThresholdSignature};

fn group(n: usize, t: usize, seed: u64) -> Vec<GroupContext> {
    let mut rng = StdRng::seed_from_u64(seed);
    deal(&DealerConfig::small(n, t), &mut rng)
        .unwrap()
        .into_iter()
        .map(|k| GroupContext::new(Arc::new(k)))
        .collect()
}

/// A strategy over structurally interesting message bodies.
fn body_strategy() -> impl Strategy<Value = Body> {
    let bytes = prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        bytes.clone().prop_map(Body::RbSend),
        bytes.clone().prop_map(Body::RbEcho),
        any::<[u8; 32]>().prop_map(Body::RbReady),
        bytes.clone().prop_map(Body::CbSend),
        (any::<u32>(), any::<bool>(), prop::option::of(bytes.clone())).prop_map(
            |(iteration, yes, closing)| Body::VbaVote {
                iteration,
                yes,
                closing,
            }
        ),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            bytes,
            any::<bool>(),
            0u8..3
        )
            .prop_map(|(round, origin, seq, data, close, shape)| {
                let entry = Entry::new(
                    vec![Payload {
                        origin: PartyId(origin as usize),
                        seq,
                        kind: if close {
                            PayloadKind::Close
                        } else {
                            PayloadKind::App
                        },
                        data,
                    }],
                    PartyId(origin as usize),
                    RsaSignature(sintra_bigint::Ubig::from(seq)),
                );
                match shape {
                    0 => Body::AcEntry {
                        round,
                        entry: entry.into(),
                    },
                    1 => Body::AcFetched {
                        round,
                        entry: entry.into(),
                    },
                    _ => Body::AcFetch {
                        round,
                        signer: entry.signer(),
                        digest: *entry.digest(),
                    },
                }
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrip(body in body_strategy(), pid in "[a-z]{1,12}(/[a-z0-9]{1,6}){0,3}") {
        let env = Envelope {
            pid: ProtocolId::new(pid),
            send_seq: 0,
            body,
        };
        prop_assert_eq!(Envelope::from_bytes(&env.to_bytes()).unwrap(), env);
    }

    #[test]
    fn decoder_never_panics_on_fuzz(data in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must decode to a value or a clean error; the
        // decoder is directly exposed to Byzantine input.
        let _ = Envelope::from_bytes(&data);
        let _ = Body::from_bytes(&data);
        let _ = Payload::from_bytes(&data);
        let _ = Entry::from_bytes(&data);
        let _ = Vec::<Unchecked<EntryRef>>::from_bytes(&data);
    }

    #[test]
    fn decode_of_truncation_errors_cleanly(body in body_strategy()) {
        let env = Envelope {
            pid: ProtocolId::new("p"),
            send_seq: 0,
            body,
        };
        let bytes = env.to_bytes();
        for cut in 0..bytes.len().min(48) {
            match Envelope::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) if cut == bytes.len() => {}
                Ok(v) => prop_assert!(false, "truncated decode succeeded: {v:?}"),
            }
        }
    }

    #[test]
    fn statements_never_collide_across_contexts(
        round_a in 1u32..100,
        round_b in 1u32..100,
        value_a in any::<bool>(),
        value_b in any::<bool>(),
    ) {
        let pid = ProtocolId::new("x");
        if (round_a, value_a) != (round_b, value_b) {
            prop_assert_ne!(
                statement_pre_vote(&pid, round_a, value_a),
                statement_pre_vote(&pid, round_b, value_b)
            );
        }
        // Different statement families never collide even on equal fields.
        prop_assert_ne!(
            statement_pre_vote(&pid, round_a, value_a),
            statement_cb(&pid, &[value_a as u8])
        );
    }

    #[test]
    fn entry_statement_binds_every_field(
        round in any::<u64>(),
        seq_a in any::<u64>(),
        seq_b in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        prop_assume!(seq_a != seq_b);
        let pid = ProtocolId::new("ch");
        let digest = |seq| {
            let payload = Payload {
                origin: PartyId(0),
                seq,
                kind: PayloadKind::App,
                data: data.clone(),
            };
            *Entry::new(vec![payload], PartyId(0), RsaSignature(0u64.into())).digest()
        };
        prop_assert_ne!(
            statement_entry(&pid, round, &digest(seq_a)),
            statement_entry(&pid, round, &digest(seq_b))
        );
        prop_assert_ne!(
            statement_entry(&pid, round, &digest(seq_a)),
            statement_entry(&pid, round.wrapping_add(1), &digest(seq_a))
        );
    }

    #[test]
    fn payload_digest_is_injective_on_samples(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        if a != b {
            prop_assert_ne!(payload_digest(&a), payload_digest(&b));
        } else {
            prop_assert_eq!(payload_digest(&a), payload_digest(&b));
        }
    }
}

/// Runs one binary agreement per party of `ctxs`, party `i` proposing
/// `proposals[i]`, to quiescence under `choice`, and returns each
/// party's decision after checking that it decides exactly once.
fn run_ba(ctxs: &[GroupContext], pid: &str, proposals: &[bool], choice: Choice) -> Vec<bool> {
    let mut instances: Vec<BinaryAgreement> = ctxs
        .iter()
        .map(|c| BinaryAgreement::new(ProtocolId::new(pid), c.clone()))
        .collect();
    let mut pump = Pump::new(ctxs.len(), choice);
    for (i, inst) in instances.iter_mut().enumerate() {
        let mut out = Outgoing::new();
        inst.propose(&|_, _| true, proposals[i], Vec::new(), &mut out);
        pump.push(i, &mut out);
    }
    let handle = |inst: &mut BinaryAgreement, from, env: &Envelope, out: &mut Outgoing| {
        inst.handle(&|_, _| true, from, &env.body, out)
    };
    if let Err(overrun) = pump.run(&mut instances, handle, 2_000_000) {
        panic!("{pid}: no termination under {choice:?}: {overrun:?}");
    }
    let decide = |inst: &mut BinaryAgreement| {
        let (value, _) = inst.take_decision().expect("decided");
        assert!(inst.take_decision().is_none(), "{pid}: decided twice");
        value
    };
    instances.iter_mut().map(decide).collect()
}

/// Runs a full binary-agreement group under a randomly shuffled message
/// schedule and checks agreement + validity.
fn run_ba_with_schedule(proposals: &[bool], seed: u64) -> Vec<bool> {
    let n = proposals.len();
    let ctxs = group(n, (n - 1) / 3, seed);
    let pid = format!("ba-sched-{seed}");
    // Deliver a random queued message: an adversarial scheduler.
    run_ba(&ctxs, &pid, proposals, Choice::Seeded(seed ^ 0xDEAD))
}

/// Runs one multi-valued agreement per party of `ctxs` to quiescence
/// under `choice`, and returns each party's decision after checking
/// that it decides exactly once.
fn run_vba(
    ctxs: &[GroupContext],
    pid: &str,
    order: CandidateOrder,
    proposals: &[Vec<u8>],
    valid: &dyn Fn(&[u8]) -> bool,
    choice: Choice,
) -> Vec<Vec<u8>> {
    let mut instances: Vec<MultiValuedAgreement> = ctxs
        .iter()
        .map(|c| MultiValuedAgreement::new(ProtocolId::new(pid), c.clone(), order))
        .collect();
    let mut pump = Pump::new(ctxs.len(), choice);
    for (i, inst) in instances.iter_mut().enumerate() {
        let mut out = Outgoing::new();
        inst.propose(valid, proposals[i].clone(), &mut out);
        pump.push(i, &mut out);
    }
    let handle = |inst: &mut MultiValuedAgreement, from, env: &Envelope, out: &mut Outgoing| {
        inst.handle(valid, from, &env.pid, &env.body, out)
    };
    if let Err(overrun) = pump.run(&mut instances, handle, 3_000_000) {
        panic!("{pid}, {order:?}: no termination under {choice:?}: {overrun:?}");
    }
    let decide = |inst: &mut MultiValuedAgreement| {
        let value = inst.take_decision().expect("decided");
        assert!(inst.take_decision().is_none(), "{pid}, {order:?}: twice");
        value
    };
    instances.iter_mut().map(decide).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn binary_agreement_safe_under_random_schedules(
        proposals in prop::collection::vec(any::<bool>(), 4..=4),
        seed in any::<u64>(),
    ) {
        let decisions = run_ba_with_schedule(&proposals, seed);
        // Agreement.
        prop_assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
        // Validity.
        prop_assert!(proposals.contains(&decisions[0]));
    }
}

#[test]
fn mvba_safe_under_shuffled_schedule() {
    // One adversarially shuffled run of multi-valued agreement.
    let ctxs = group(4, 1, 4242);
    let proposals: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
    let (order, choice) = (CandidateOrder::LocalRandom, Choice::Seeded(99));
    let decisions = run_vba(&ctxs, "vba-shuffle", order, &proposals, &|_| true, choice);
    assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    assert!(proposals.contains(&decisions[0]));
}

#[test]
fn vba_binary_agreement_waits_for_n_minus_t_proper_votes() {
    // Step 2b: a party starts its candidate's binary agreement on exactly
    // `n - t` proper votes. Every proposal reaches every party; every
    // vote is held back, then party 0 gets its first iteration's votes
    // one at a time.
    let (n, t) = (4, 1);
    let ctxs = group(n, t, 4343);
    let pid = ProtocolId::new("vba-vote-gate");
    let ba0 = pid.child("ba/0");
    let mut instances: Vec<MultiValuedAgreement> = ctxs
        .iter()
        .map(|c| MultiValuedAgreement::new(pid.clone(), c.clone(), CandidateOrder::Fixed))
        .collect();
    let valid = |_: &[u8]| true;
    let mut pump = Pump::new(n, Choice::Fifo);
    for (i, inst) in instances.iter_mut().enumerate() {
        let mut out = Outgoing::new();
        inst.propose(&valid, vec![i as u8; 8], &mut out);
        pump.push(i, &mut out);
    }
    let mut votes = Vec::new();
    while let Some(d) = pump.next() {
        assert_ne!(d.env.pid, ba0, "agreement message before any vote");
        if matches!(d.env.body, Body::VbaVote { .. }) {
            votes.push(d);
            continue;
        }
        pump.deliver(&mut instances, d, |inst, from, env, out| {
            inst.handle(&valid, from, &env.pid, &env.body, out)
        });
    }
    let to_zero: Vec<Delivery> = votes.into_iter().filter(|d| d.to == 0).collect();
    assert_eq!(to_zero.len(), n, "every party voted on its first candidate");
    for (k, d) in to_zero.into_iter().enumerate() {
        let k = k + 1;
        let mut out = Outgoing::new();
        instances[0].handle(&valid, PartyId(d.from), &d.env.pid, &d.env.body, &mut out);
        let started = out
            .iter()
            .any(|(_, e)| e.pid == ba0 && matches!(e.body, Body::BaPreVote { .. }));
        assert_eq!(started, k == n - t, "after {k} proper votes");
    }
}

/// `(from, to, kind)` of each delivery, in the order a pump under
/// `choice` hands them out, of a broadcast and an echo from each of four
/// parties.
fn pump_order(choice: Choice) -> Vec<(usize, usize, &'static str)> {
    let pid = ProtocolId::new("pump");
    let mut pump = Pump::new(4, choice);
    for from in 0..4 {
        let mut out = Outgoing::new();
        out.send_all(&pid, Body::RbSend(vec![1]));
        out.send_to(PartyId(3 - from), &pid, Body::RbEcho(vec![0; 32]));
        pump.push(from, &mut out);
        assert!(out.is_empty(), "pushing drains the sink");
    }
    pump.map(|d| (d.from, d.to, d.env.body.kind())).collect()
}

#[test]
fn fifo_pump_delivers_in_push_order() {
    let order = pump_order(Choice::Fifo);
    let expected: Vec<_> = (0..4)
        .flat_map(|from| {
            let all = (0..4).map(move |to| (from, to, "rb-send"));
            all.chain([(from, 3 - from, "rb-echo")])
        })
        .collect();
    assert_eq!(order, expected);
    // A group that answers nothing: one delivery per recipient.
    let mut pump = Pump::new(4, Choice::Fifo);
    let mut out = Outgoing::new();
    out.send_all(&ProtocolId::new("pump"), Body::RbSend(vec![2]));
    pump.push(1, &mut out);
    assert_eq!(pump.run(&mut [(); 4], |_, _, _, _| {}, 4), Ok(4));
}

#[test]
fn seeded_pump_repeats_its_seed_and_only_its_seed() {
    let one = pump_order(Choice::Seeded(1));
    assert_eq!(
        one,
        pump_order(Choice::Seeded(1)),
        "one seed, two schedules"
    );
    assert_ne!(
        one,
        pump_order(Choice::Seeded(2)),
        "two seeds, one schedule"
    );
    let mut sorted = one.clone();
    sorted.sort();
    let mut fifo = pump_order(Choice::Fifo);
    fifo.sort();
    assert_eq!(sorted, fifo, "every delivery exactly once");
}

#[test]
fn pump_run_stops_at_its_limit() {
    // Every party answers every message with a broadcast: it never ends.
    let mut pump = Pump::new(2, Choice::Fifo);
    let mut out = Outgoing::new();
    out.send_all(&ProtocolId::new("pump-echo"), Body::RbSend(vec![0]));
    pump.push(0, &mut out);
    let echo = |_: &mut (), _, env: &Envelope, out: &mut Outgoing| {
        out.send_all(&env.pid, env.body.clone());
    };
    assert_eq!(
        pump.run(&mut [(), ()], echo, 50),
        Err(Overrun { limit: 50 })
    );
    assert!(!pump.is_empty(), "stopped with messages in flight");
}

/// One dealt group for the seeded sweeps: what a seed varies is the
/// proposals, the instance (so the coin and candidate order) and the
/// schedule.
fn sweep_group() -> &'static [GroupContext] {
    static GROUP: OnceLock<Vec<GroupContext>> = OnceLock::new();
    GROUP.get_or_init(|| group(4, 1, 2002))
}

/// One binary agreement per seed under `Choice::Seeded(seed)`, party `i`
/// proposing bit `i` of the seed: agreement, validity (someone proposed
/// the decision) and, in `run_ba`, exactly one decision per party.
fn sweep_abba(seeds: Range<u64>) {
    for seed in seeds {
        let proposals: Vec<bool> = (0..4).map(|i| seed >> i & 1 == 1).collect();
        let pid = format!("ba-sweep-{seed}");
        let decisions = run_ba(sweep_group(), &pid, &proposals, Choice::Seeded(seed));
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "{pid}: disagreement {decisions:?} on {proposals:?}"
        );
        assert!(proposals.contains(&decisions[0]), "{pid}: validity");
    }
}

/// One multi-valued agreement per seed and candidate order under
/// `Choice::Seeded(seed)`: agreement, external validity (the decision is
/// a proposal that satisfies the predicate) and, in `run_vba`, exactly
/// one decision per party.
fn sweep_vba(seeds: Range<u64>) {
    let valid = |value: &[u8]| value.starts_with(b"ok:");
    for seed in seeds {
        let proposals: Vec<Vec<u8>> = (0..4).map(|i| format!("ok:{seed}:{i}").into()).collect();
        let pid = format!("vba-sweep-{seed}");
        for order in [CandidateOrder::Fixed, CandidateOrder::LocalRandom] {
            let choice = Choice::Seeded(seed);
            let decisions = run_vba(sweep_group(), &pid, order, &proposals, &valid, choice);
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "{pid}, {order:?}: disagreement"
            );
            let decided = &decisions[0];
            assert!(
                proposals.contains(decided) && valid(decided),
                "{pid}, {order:?}: external validity"
            );
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn binary_agreement_safe_under_a_thousand_seeded_schedules() {
    sweep_abba(0..1_000);
}

#[test]
#[cfg_attr(miri, ignore)]
fn multi_valued_agreement_safe_under_a_thousand_seeded_schedules() {
    sweep_vba(0..1_000);
}

/// The sweeps a hundred times deeper, for a scheduled job in release:
/// `cargo test --release -p sintra-core --test properties -- --ignored`.
#[test]
#[ignore]
fn agreements_safe_under_a_hundred_thousand_seeded_schedules() {
    sweep_abba(1_000..101_000);
    sweep_vba(1_000..101_000);
}

/// The `index`-th request of `party`, `len` bytes long (or as long as its
/// label, if that is longer).
fn request(party: usize, index: u64, len: usize) -> Vec<u8> {
    let mut data = format!("{party}:{index}").into_bytes();
    data.resize(len.max(data.len()), b'.');
    data
}

/// A group member that runs the honest protocol and shows the odd-numbered
/// parties other signatures than the even-numbered ones — so that what an
/// honest party receives is *almost* what it holds, which is where a
/// party that compares before it verifies could be fooled:
///
/// * as a consistent-broadcast sender it closes its broadcast towards
///   the odd parties with a different valid quorum of echo shares, so
///   honest parties hold, and vote with, two distinct valid closing
///   messages of one broadcast;
/// * towards the odd parties its yes-votes' closings and its main-votes'
///   justifications have one component replaced by a valid share of its
///   own on another statement — the rest being shares they hold.
struct TwoFaced {
    ctx: GroupContext,
    /// Echo shares it was sent, by broadcast instance.
    echoes: BTreeMap<ProtocolId, Vec<SigShare>>,
    /// Finals the odd parties are still owed, until a spare echo is in.
    owed: BTreeMap<ProtocolId, OwedFinal>,
}

/// A final as sent to the even parties, and the odd ones waiting for it.
struct OwedFinal {
    payload: Vec<u8>,
    components: Vec<(usize, RsaSignature)>,
    odd: Vec<usize>,
}

impl TwoFaced {
    fn component(share: &SigShare) -> Option<(usize, RsaSignature)> {
        match &share.body {
            SigShareBody::Multi { sig } => Some((share.index, sig.clone())),
            SigShareBody::ShoupRsa { .. } => None,
        }
    }

    /// `sig` with one component replaced by this party's valid share on
    /// `elsewhere`, under its own index.
    fn spoiled(
        &self,
        key: Thsig,
        elsewhere: &[u8],
        sig: &Unchecked<ThresholdSignature>,
    ) -> Unchecked<ThresholdSignature> {
        let ThresholdSignature::Multi(components) = &**sig else {
            return sig.clone();
        };
        let own = Self::component(&self.ctx.sign_share(key, elsewhere)).expect("multi flavor");
        let mut components = components.clone();
        let at = components.iter().position(|(index, _)| *index == own.0);
        components[at.unwrap_or(0)] = own;
        ThresholdSignature::Multi(components).into()
    }

    /// Takes note of a message sent to this party; returns the finals it
    /// can now send to the odd parties.
    fn observe(&mut self, pid: &ProtocolId, body: &Body) -> Vec<(usize, Envelope)> {
        let Body::CbEcho(share) = body else {
            return Vec::new();
        };
        let shares = self.echoes.entry(pid.clone()).or_default();
        if shares.iter().all(|s| s.index != share.index) {
            shares.push((**share).clone());
        }
        self.other_quorum(pid)
    }

    /// The owed finals of broadcast `pid`, if an echo share is held that
    /// the sent final does not use.
    fn other_quorum(&mut self, pid: &ProtocolId) -> Vec<(usize, Envelope)> {
        let Some(OwedFinal {
            components: used, ..
        }) = self.owed.get(pid)
        else {
            return Vec::new();
        };
        let spare = self.echoes.get(pid).and_then(|shares| {
            let unused = |s: &&SigShare| used.iter().all(|(index, _)| *index != s.index);
            shares.iter().find(unused).and_then(Self::component)
        });
        let Some(spare) = spare else {
            return Vec::new();
        };
        let mut owed = self.owed.remove(pid).expect("looked up above");
        owed.components[0] = spare;
        let body = Body::CbFinal {
            payload: owed.payload,
            sig: ThresholdSignature::Multi(owed.components).into(),
        };
        let env = Envelope {
            pid: pid.clone(),
            send_seq: 0,
            body,
        };
        owed.odd.into_iter().map(|to| (to, env.clone())).collect()
    }

    /// What party `to` gets in place of `env`, which this party's honest
    /// self wants to send it; nothing if it has to wait.
    fn rewrite(&mut self, to: usize, env: Envelope) -> Vec<(usize, Envelope)> {
        if to.is_multiple_of(2) {
            return vec![(to, env)];
        }
        let Envelope { pid, body, .. } = env;
        let elsewhere = statement_cb(&pid, b"another statement");
        let body = match body {
            Body::CbFinal { payload, sig } => {
                let ThresholdSignature::Multi(components) = &*sig else {
                    unreachable!("multi flavor");
                };
                let owed = OwedFinal {
                    payload,
                    components: components.clone(),
                    odd: Vec::new(),
                };
                self.owed.entry(pid.clone()).or_insert(owed).odd.push(to);
                return self.other_quorum(&pid);
            }
            Body::VbaVote {
                iteration,
                yes: true,
                closing: Some(closing),
            } => {
                let mut closing = ClosingMessage::from_bytes(&closing).expect("its own closing");
                closing.sig = self.spoiled(Thsig::Broadcast, &elsewhere, &closing.sig);
                Body::VbaVote {
                    iteration,
                    yes: true,
                    closing: Some(closing.to_bytes()),
                }
            }
            Body::BaMainVote {
                round,
                vote: vote @ MainVote::Value(_),
                just: MainVoteJust::Value(sig),
                share,
                proof,
            } => Body::BaMainVote {
                round,
                vote,
                just: MainVoteJust::Value(self.spoiled(Thsig::Agreement, &elsewhere, &sig)),
                share,
                proof,
            },
            honest => honest,
        };
        let env = Envelope {
            pid,
            send_seq: 0,
            body,
        };
        vec![(to, env)]
    }
}

/// Runs an atomic channel group in which party `p` issues `bursts[p]`
/// back-to-back send bursts of `len`-byte requests at random points of a
/// randomly scheduled run, and returns every party's delivered
/// `(origin, seq, data)` log. With `proposals_first` the scheduler
/// delivers a pending `cb-send` before anything else, so proposals
/// overtake the entries they name whenever they can. With `two_faced`
/// the last party is a [`TwoFaced`] one.
fn run_atomic_with_schedule(
    n: usize,
    fairness: usize,
    bursts: &[Vec<usize>],
    len: usize,
    proposals_first: bool,
    two_faced: bool,
    seed: u64,
) -> Vec<Vec<(usize, u64, Vec<u8>)>> {
    enum Action {
        Deliver(PartyId, usize, ProtocolId, Body),
        Burst(usize, usize),
    }
    let ctxs = group(n, (n - 1) / 3, seed);
    let pid = ProtocolId::new(format!("ac-sched-{seed}"));
    let config = AtomicChannelConfig {
        fairness: Some(fairness),
        ..AtomicChannelConfig::default()
    };
    let mut chans: Vec<AtomicChannel> = ctxs
        .iter()
        .map(|c| AtomicChannel::new(pid.clone(), c.clone(), config))
        .collect();
    let mut liar = two_faced.then(|| TwoFaced {
        ctx: ctxs[n - 1].clone(),
        echoes: BTreeMap::new(),
        owed: BTreeMap::new(),
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut pool: Vec<Action> = Vec::new();
    for (party, sizes) in bursts.iter().enumerate() {
        pool.extend(sizes.iter().map(|&size| Action::Burst(party, size)));
    }
    let mut sent = vec![0u64; n];
    let mut steps = 0;
    while !pool.is_empty() {
        steps += 1;
        assert!(steps < 5_000_000, "no quiescence under schedule {seed}");
        let proposals: Vec<usize> = pool
            .iter()
            .enumerate()
            .filter(|(_, action)| {
                proposals_first && matches!(action, Action::Deliver(.., Body::CbSend(_)))
            })
            .map(|(idx, _)| idx)
            .collect();
        let idx = match proposals.as_slice() {
            [] => rng.gen_range(0..pool.len()),
            some => some[rng.gen_range(0..some.len())],
        };
        let mut out = Outgoing::new();
        let mut sends: Vec<(usize, Envelope)> = Vec::new();
        let at = match pool.swap_remove(idx) {
            Action::Deliver(from, to, pid, body) => {
                chans[to].handle(from, &pid, &body, &mut out);
                if let (Some(liar), true) = (&mut liar, to == n - 1) {
                    sends.extend(liar.observe(&pid, &body));
                }
                to
            }
            Action::Burst(party, size) => {
                for _ in 0..size {
                    chans[party].send(request(party, sent[party], len), &mut out);
                    sent[party] += 1;
                }
                party
            }
        };
        for (recipient, env) in out.drain() {
            let targets = match recipient {
                Recipient::All => 0..n,
                Recipient::One(p) => p.0..p.0 + 1,
            };
            for to in targets {
                match &mut liar {
                    Some(liar) if at == n - 1 => sends.extend(liar.rewrite(to, env.clone())),
                    _ => sends.push((to, env.clone())),
                }
            }
        }
        let deliveries = sends
            .into_iter()
            .map(|(to, env)| Action::Deliver(PartyId(at), to, env.pid, env.body));
        pool.extend(deliveries);
    }
    chans
        .iter_mut()
        .map(|chan| {
            std::iter::from_fn(|| chan.take_delivery())
                .map(|p| (p.origin.0, p.seq, p.data))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn atomic_channel_orders_random_bursts(
        big in any::<bool>(),
        wide_batch in any::<bool>(),
        bulk in any::<bool>(),
        proposals_first in any::<bool>(),
        bursts in prop::collection::vec(prop::collection::vec(1usize..6, 0..3), 7..=7),
        seed in any::<u64>(),
    ) {
        let (n, t) = if big { (7, 2) } else { (4, 1) };
        // f = t + 1 (batch n - t) or f = n - t (batch t + 1, the paper's).
        let fairness = if wide_batch { t + 1 } else { n - t };
        let bursts = &bursts[..n];
        // 16 KiB requests: a burst of five overflows an entry's byte budget.
        let len = if bulk { 16 * 1024 } else { 0 };
        let logs =
            run_atomic_with_schedule(n, fairness, bursts, len, proposals_first, false, seed);
        // Agreement and total order.
        for (p, log) in logs.iter().enumerate().skip(1) {
            prop_assert_eq!(log, &logs[0], "party {} disagrees", p);
        }
        // Exactly once, per-origin FIFO, nothing lost, bytes intact.
        for (origin, sizes) in bursts.iter().enumerate() {
            let got: Vec<(u64, Vec<u8>)> = logs[0]
                .iter()
                .filter(|(o, _, _)| *o == origin)
                .map(|(_, seq, data)| (*seq, data.clone()))
                .collect();
            let sent = sizes.iter().sum::<usize>() as u64;
            let expected: Vec<(u64, Vec<u8>)> =
                (0..sent).map(|s| (s, request(origin, s, len))).collect();
            prop_assert_eq!(got, expected, "origin {}", origin);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A miss falls back to the check: with a member that shows half the
    // group signatures that differ from the ones they hold in one valid
    // or one invalid component, the honest parties agree on one order
    // and deliver every honest request once, in order.
    #[test]
    fn atomic_channel_survives_a_two_faced_member(
        big in any::<bool>(),
        proposals_first in any::<bool>(),
        bursts in prop::collection::vec(prop::collection::vec(1usize..4, 1..3), 7..=7),
        seed in any::<u64>(),
    ) {
        let (n, t) = if big { (7, 2) } else { (4, 1) };
        let bursts = &bursts[..n];
        let logs = run_atomic_with_schedule(n, n - t, bursts, 0, proposals_first, true, seed);
        let honest = &logs[..n - 1];
        for (p, log) in honest.iter().enumerate().skip(1) {
            prop_assert_eq!(log, &honest[0], "party {} disagrees", p);
        }
        for (origin, sizes) in bursts.iter().enumerate().take(n - 1) {
            let got: Vec<u64> = honest[0]
                .iter()
                .filter(|(o, _, _)| *o == origin)
                .map(|(_, seq, _)| *seq)
                .collect();
            let sent = sizes.iter().sum::<usize>() as u64;
            prop_assert_eq!(got, (0..sent).collect::<Vec<u64>>(), "origin {}", origin);
        }
    }
}
