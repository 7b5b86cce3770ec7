//! Handlers filter on their own state before they verify anything.
//!
//! A message that can no longer matter — a decision for an instance that
//! has decided, a second vote from a sender, a final after delivery, an
//! entry for a past round or with nothing undelivered in it, a fetch reply
//! nobody asked for — is dropped by a free state test, however validly it
//! is signed. So is a proposal whose shape no batch can have: one signer
//! named twice, or more references than there are parties. That is why there is no verification stage in front of
//! dispatch (DESIGN.md §11): a stateless stage would pay for the signature
//! of every one of these. Whoever puts a check ahead of these filters sees
//! its cost here.
//!
//! The second table is the other half, the one a type cannot carry: a
//! message that passes every state filter but whose signature, share or
//! closing does not verify costs exactly its check and changes nothing —
//! no field, flag or counter of the instance, and nothing sent. (That the
//! check comes before the store is `Checked<T>`'s to say; that a failed
//! check leaves no trace is said here.)
//!
//! The third table is what a party does not pay twice: a closing, a
//! proof, a justification, a final or a reference equal to what the
//! instance already holds under the same statement costs nothing and is
//! counted as it always was; whatever of a message is new costs exactly
//! itself; and equality under *another* statement vouches for nothing.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_core::agreement::{BinaryAgreement, CandidateOrder, MultiValuedAgreement};
use sintra_core::broadcast::{ClosingMessage, ConsistentBroadcast, VerifiableConsistentBroadcast};
use sintra_core::channel::{
    AtomicChannel, AtomicChannelConfig, EpochState, OptimisticChannel, SecureAtomicChannel,
};
use sintra_core::checked::{Checked, Thsig, Unchecked};
use sintra_core::message::{
    coin_name, payload_digest, statement_cb, statement_main_vote, statement_opt_ack,
    statement_opt_state, statement_pre_vote, Body, Entry, EntryRef, Envelope, MainVote,
    MainVoteJust, Payload, PayloadKind, PreVoteJust,
};
use sintra_core::pump::{Choice, Pump};
use sintra_core::wire::Wire;
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::{deal, DealerConfig};
use sintra_crypto::thenc::{Ciphertext, DecryptionBatch};
use sintra_crypto::thsig::{SigShare, SigShareBody, ThresholdSignature};
use sintra_telemetry::StateSnapshot;

fn group() -> Vec<GroupContext> {
    let mut rng = StdRng::seed_from_u64(20);
    deal(&DealerConfig::small(4, 1), &mut rng)
        .unwrap()
        .into_iter()
        .map(|k| GroupContext::new(Arc::new(k)))
        .collect()
}

/// What offering one message to an instance did.
struct Offer {
    /// Public-key work charged while the handler ran.
    work: f64,
    /// Whether the instance sent anything or differs in any field.
    changed: bool,
}

fn offer<S: Debug>(inst: &mut S, deliver: impl FnOnce(&mut S, &mut Outgoing)) -> Offer {
    let before = format!("{inst:?}");
    let mut out = Outgoing::new();
    let scope = CostScope::enter();
    deliver(inst, &mut out);
    let work = scope.elapsed();
    Offer {
        work,
        changed: !out.is_empty() || format!("{inst:?}") != before,
    }
}

/// One row of the table: a validly signed message meets an instance whose
/// state has no use for it.
struct Row {
    what: &'static str,
    /// What checking the message's signatures costs, measured by checking
    /// them — which also shows they are valid.
    check_work: f64,
    late: Offer,
}

fn priced(check: impl FnOnce() -> bool) -> f64 {
    let scope = CostScope::enter();
    assert!(check(), "the message must be validly signed");
    scope.elapsed()
}

/// The whole group's threshold signature on `statement` under `key`.
fn group_sig(ctxs: &[GroupContext], key: Thsig, statement: &[u8]) -> Unchecked<ThresholdSignature> {
    let shares: Vec<Checked<SigShare>> =
        ctxs.iter().map(|c| c.sign_share(key, statement)).collect();
    ctxs[0]
        .assemble_sig(key, statement, &shares)
        .unwrap()
        .forget()
}

fn decide_after_decision(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-decided");
    let statement = statement_main_vote(&pid, 1, MainVote::Value(true));
    let sig = group_sig(ctxs, Thsig::Agreement, &statement);
    let decide = Body::BaDecide {
        round: 1,
        value: true,
        sig: sig.clone(),
        proof: None,
    };
    let mut inst = BinaryAgreement::new(pid, ctxs[0].clone());
    inst.propose(&any, true, Vec::new(), &mut Outgoing::new());
    let first = offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &decide, out));
    assert!(first.changed && first.work > 0.0);
    assert_eq!(inst.decision(), Some(true));
    Row {
        what: "ba-decide after the instance decided",
        check_work: priced(|| {
            ctxs[0]
                .check_sig(Thsig::Agreement, &statement, &sig)
                .is_some()
        }),
        late: offer(&mut inst, |i, out| i.handle(&any, PartyId(2), &decide, out)),
    }
}

fn second_pre_vote(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-pre");
    // Party 1 pre-votes 1, then (equivocating, under a good share) 0.
    let pre_vote = |value: bool| {
        let statement = statement_pre_vote(&pid, 1, value);
        let share = ctxs[1].sign_share(Thsig::Agreement, &statement).forget();
        let body = Body::BaPreVote {
            round: 1,
            value,
            just: PreVoteJust::Initial,
            share: share.clone(),
            proof: None,
        };
        (statement, share, body)
    };
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
    inst.propose(&any, true, Vec::new(), &mut Outgoing::new());
    let (_, _, first) = pre_vote(true);
    let first = offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &first, out));
    assert!(first.changed && first.work > 0.0);
    let (statement, share, second) = pre_vote(false);
    Row {
        what: "second ba-pre-vote from the same sender",
        check_work: priced(|| {
            ctxs[0]
                .check_share(Thsig::Agreement, &statement, &share)
                .is_some()
        }),
        late: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &second, out)),
    }
}

fn second_main_vote(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-main");
    // A main-vote for `b` carries the group's signature on the round's
    // pre-vote statement for `b` and the sender's share on the vote.
    let main_vote = |b: bool| {
        let just_statement = statement_pre_vote(&pid, 1, b);
        let just = group_sig(ctxs, Thsig::Agreement, &just_statement);
        let statement = statement_main_vote(&pid, 1, MainVote::Value(b));
        let share = ctxs[1].sign_share(Thsig::Agreement, &statement).forget();
        let body = Body::BaMainVote {
            round: 1,
            vote: MainVote::Value(b),
            just: MainVoteJust::Value(just.clone()),
            share: share.clone(),
            proof: None,
        };
        (just_statement, just, statement, share, body)
    };
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
    inst.propose(&any, true, Vec::new(), &mut Outgoing::new());
    let first = main_vote(true).4;
    let first = offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &first, out));
    assert!(first.changed && first.work > 0.0);
    let (just_statement, just, statement, share, second) = main_vote(false);
    let checks = &ctxs[0];
    Row {
        what: "second ba-main-vote from the same sender",
        check_work: priced(|| {
            checks
                .check_sig(Thsig::Agreement, &just_statement, &just)
                .is_some()
                && checks
                    .check_share(Thsig::Agreement, &statement, &share)
                    .is_some()
        }),
        late: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &second, out)),
    }
}

fn final_after_delivery(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("cb-delivered");
    let statement = statement_cb(&pid, b"payload");
    let sig = group_sig(ctxs, Thsig::Broadcast, &statement);
    let fin = Body::CbFinal {
        payload: b"payload".to_vec(),
        sig: sig.clone(),
    };
    let mut inst = ConsistentBroadcast::new(pid, ctxs[0].clone(), PartyId(1));
    let first = offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out));
    assert!(first.changed && first.work > 0.0);
    assert_eq!(inst.delivered(), Some(&b"payload"[..]));
    Row {
        what: "cb-final after delivery",
        check_work: priced(|| {
            ctxs[0]
                .check_sig(Thsig::Broadcast, &statement, &sig)
                .is_some()
        }),
        late: offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out)),
    }
}

/// Runs a group to quiescence in FIFO order from what the parties sent
/// into `outs`, in that order, without the messages that `lost` names by
/// recipient.
fn run<C>(
    chans: &mut [C],
    outs: Vec<(usize, Outgoing)>,
    mut handle: impl FnMut(&mut C, PartyId, &Envelope, &mut Outgoing),
    lost: impl Fn(usize, &Body) -> bool,
) {
    let mut pump = Pump::new(chans.len(), Choice::Fifo);
    pump.extend(outs);
    while let Some(d) = pump.next() {
        if !lost(d.to, &d.env.body) {
            pump.deliver(chans, d, &mut handle);
        }
    }
}

/// Party 0's endpoint of a channel on which party 1's first request has
/// been delivered everywhere: round 1, `(1, 0)` behind the watermark.
fn channel_after_one_round(ctxs: &[GroupContext], pid: &ProtocolId) -> AtomicChannel {
    let mut chans: Vec<AtomicChannel> = ctxs
        .iter()
        .map(|c| AtomicChannel::new(pid.clone(), c.clone(), AtomicChannelConfig::default()))
        .collect();
    let mut out = Outgoing::new();
    chans[1].send(b"first".to_vec(), &mut out);
    let handle = |chan: &mut AtomicChannel, from, env: &Envelope, out: &mut Outgoing| {
        chan.handle(from, &env.pid, &env.body, out)
    };
    run(&mut chans, vec![(1, out)], handle, |_, _| false);
    let mut chan = chans.swap_remove(0);
    assert_eq!(chan.round(), 1);
    let delivered = chan.take_delivery().map(|p| (p.origin.0, p.seq));
    assert_eq!(delivered, Some((1, 0)));
    chan
}

fn late_entries(ctxs: &[GroupContext]) -> [Row; 3] {
    let pid = ProtocolId::new("ac-late");
    let mut chan = channel_after_one_round(ctxs, &pid);
    // (what, signer, the round it signs for, its one payload's (origin,
    // seq), sender, whether it comes as a fetch reply)
    let cases = [
        ("ac-entry for a past round", 2, 0, (2, 0), 2, false),
        (
            "ac-entry whose payloads are all delivered",
            1,
            1,
            (1, 0),
            1,
            false,
        ),
        ("ac-fetched nobody asked for", 2, 1, (2, 0), 3, true),
    ];
    cases.map(|(what, signer, round, (origin, seq), from, fetched)| {
        let payload = Payload {
            origin: PartyId(origin),
            seq,
            kind: PayloadKind::App,
            data: b"request".to_vec(),
        };
        let entry = ctxs[signer].sign_entry(&pid, round, vec![payload]).forget();
        let check_work = priced(|| ctxs[0].check_entry(&pid, round, &entry).is_some());
        let body = if fetched {
            Body::AcFetched { round, entry }
        } else {
            Body::AcEntry { round, entry }
        };
        let late = offer(&mut chan, |c, out| {
            c.handle(PartyId(from), &pid, &body, out)
        });
        Row {
            what,
            check_work,
            late,
        }
    })
}

/// Proposals to party 0's fresh channel whose every reference is validly
/// signed, but that no batch can be: the shape is judged before any
/// signature, so none of them is checked.
fn misshapen_proposals(ctxs: &[GroupContext]) -> [Row; 3] {
    let pid = ProtocolId::new("ac-shape");
    let refs: Vec<Unchecked<EntryRef>> = (0..4)
        .map(|signer| {
            let entry = ctxs[signer].sign_entry(&pid, 0, app(signer, b"request"));
            entry.to_ref().into()
        })
        .collect();
    let (a, b) = (refs[1].clone(), refs[2].clone());
    let cases = [
        (
            "cb-send naming one signer twice",
            vec![a.clone(), a.clone()],
        ),
        (
            "cb-send of n - t references naming one signer twice",
            vec![a.clone(), b, a.clone()],
        ),
        (
            "cb-send of n + 1 references",
            [refs.clone(), vec![a]].concat(),
        ),
    ];
    cases.map(|(what, proposal)| {
        let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
        let bc = pid.child("vba/0/bc/1");
        let body = Body::CbSend(proposal.to_bytes());
        let check_work = priced(|| {
            let mut checked = proposal.iter().map(|r| ctxs[0].check_entry_ref(&pid, 0, r));
            checked.all(|r| r.is_some())
        });
        Row {
            what,
            check_work,
            late: offer(&mut chan, |c, out| c.handle(PartyId(1), &bc, &body, out)),
        }
    })
}

#[test]
fn late_messages_are_dropped_before_any_signature_check() {
    let ctxs = group();
    let mut table = vec![
        decide_after_decision(&ctxs),
        second_pre_vote(&ctxs),
        second_main_vote(&ctxs),
        final_after_delivery(&ctxs),
    ];
    table.extend(late_entries(&ctxs));
    table.extend(late_dec_batches(&ctxs));
    table.extend(misshapen_proposals(&ctxs));
    for row in table {
        assert!(row.check_work > 0.0, "{}: the check is not free", row.what);
        assert_eq!(row.late.work, 0.0, "{}: work before the filter", row.what);
        assert!(!row.late.changed, "{}: state changed", row.what);
    }
}

/// One row of the second table: a message that passes every state filter
/// of a live instance and carries something that does not verify.
struct Forged {
    what: &'static str,
    /// What the checks the handler owes the message cost, measured by
    /// running them — the last of them fails.
    check_work: f64,
    offered: Offer,
}

fn refused(check: impl FnOnce() -> bool) -> f64 {
    let scope = CostScope::enter();
    assert!(!check(), "the message must not verify");
    scope.elapsed()
}

fn forged_echo(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("cb-forged-echo");
    let mut inst = ConsistentBroadcast::new(pid.clone(), ctxs[0].clone(), PartyId(0));
    inst.send(b"payload".to_vec(), &mut Outgoing::new());
    let statement = statement_cb(&pid, b"payload");
    let elsewhere = statement_cb(&ProtocolId::new("cb-elsewhere"), b"payload");
    let share = ctxs[1].sign_share(Thsig::Broadcast, &elsewhere).forget();
    let echo = Body::CbEcho(share.clone());
    Forged {
        what: "cb-echo with a share on another instance's statement",
        offered: offer(&mut inst, |i, out| i.handle(PartyId(1), &echo, out)),
        check_work: refused(|| {
            ctxs[0]
                .check_share(Thsig::Broadcast, &statement, &share)
                .is_some()
        }),
    }
}

fn forged_final(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("cb-forged-final");
    let mut inst = ConsistentBroadcast::new(pid.clone(), ctxs[2].clone(), PartyId(1));
    let statement = statement_cb(&pid, b"payload");
    let elsewhere = statement_cb(&ProtocolId::new("cb-elsewhere"), b"payload");
    let sig = group_sig(ctxs, Thsig::Broadcast, &elsewhere);
    let fin = Body::CbFinal {
        payload: b"payload".to_vec(),
        sig: sig.clone(),
    };
    Forged {
        what: "cb-final with another instance's signature",
        offered: offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out)),
        check_work: refused(|| {
            ctxs[2]
                .check_sig(Thsig::Broadcast, &statement, &sig)
                .is_some()
        }),
    }
}

/// The predicate of [`validated`]'s agreements: free, so a row's work is
/// signatures.
fn ok(_: bool, proof: &[u8]) -> bool {
    proof == b"ok"
}

/// A validated agreement at party 0 that proposed 1 and holds validation
/// data for 1 only.
fn validated(ctxs: &[GroupContext], pid: &ProtocolId) -> BinaryAgreement {
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone()).validated();
    inst.propose(&ok, true, b"ok".to_vec(), &mut Outgoing::new());
    inst
}

/// The predicate a plain agreement is passed, and never calls.
fn any(_: bool, _: &[u8]) -> bool {
    true
}

fn forged_pre_vote(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ba-forged-pre");
    let mut inst = validated(ctxs, &pid);
    // A justified pre-vote for 0, with data for 0 the instance lacks,
    // under party 1's share on the pre-vote for 1.
    let statement = statement_pre_vote(&pid, 1, false);
    let transplanted = statement_pre_vote(&pid, 1, true);
    let share = ctxs[1].sign_share(Thsig::Agreement, &transplanted).forget();
    let pre_vote = Body::BaPreVote {
        round: 1,
        value: false,
        just: PreVoteJust::Initial,
        share: share.clone(),
        proof: Some(b"ok".to_vec()),
    };
    Forged {
        what: "ba-pre-vote with a share on the other value's statement",
        offered: offer(&mut inst, |i, out| {
            i.handle(&ok, PartyId(1), &pre_vote, out)
        }),
        check_work: refused(|| {
            ctxs[0]
                .check_share(Thsig::Agreement, &statement, &share)
                .is_some()
        }),
    }
}

fn forged_main_vote(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ba-forged-main");
    let mut inst = validated(ctxs, &pid);
    // Justified by the group's signature on the pre-vote for 0, and again
    // with data for 0; the share is on the main-vote for 1.
    let just_statement = statement_pre_vote(&pid, 1, false);
    let just = group_sig(ctxs, Thsig::Agreement, &just_statement);
    let statement = statement_main_vote(&pid, 1, MainVote::Value(false));
    let transplanted = statement_main_vote(&pid, 1, MainVote::Value(true));
    let share = ctxs[1].sign_share(Thsig::Agreement, &transplanted).forget();
    let main_vote = Body::BaMainVote {
        round: 1,
        vote: MainVote::Value(false),
        just: MainVoteJust::Value(just.clone()),
        share: share.clone(),
        proof: Some(b"ok".to_vec()),
    };
    let checks = &ctxs[0];
    Forged {
        what: "ba-main-vote with a share on the other value's statement",
        offered: offer(&mut inst, |i, out| {
            i.handle(&ok, PartyId(1), &main_vote, out)
        }),
        check_work: refused(|| {
            checks
                .check_sig(Thsig::Agreement, &just_statement, &just)
                .is_some()
                && checks
                    .check_share(Thsig::Agreement, &statement, &share)
                    .is_some()
        }),
    }
}

fn forged_decide(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ba-forged-decide");
    let mut inst = validated(ctxs, &pid);
    let statement = statement_main_vote(&pid, 1, MainVote::Value(false));
    let other_value = statement_main_vote(&pid, 1, MainVote::Value(true));
    let sig = group_sig(ctxs, Thsig::Agreement, &other_value);
    let decide = Body::BaDecide {
        round: 1,
        value: false,
        sig: sig.clone(),
        proof: Some(b"ok".to_vec()),
    };
    Forged {
        what: "ba-decide with the signature on the other value",
        offered: offer(&mut inst, |i, out| i.handle(&ok, PartyId(1), &decide, out)),
        check_work: refused(|| {
            ctxs[0]
                .check_sig(Thsig::Agreement, &statement, &sig)
                .is_some()
        }),
    }
}

fn forged_coin_share(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ba-forged-coin");
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
    let share_on = |from: usize, statement: Vec<u8>| {
        ctxs[from].sign_share(Thsig::Agreement, &statement).forget()
    };
    let pre_vote = |from: usize, value: bool| Body::BaPreVote {
        round: 1,
        value,
        just: PreVoteJust::Initial,
        share: share_on(from, statement_pre_vote(&pid, 1, value)),
        proof: None,
    };
    let abstain = |from: usize| Body::BaMainVote {
        round: 1,
        vote: MainVote::Abstain,
        just: MainVoteJust::Abstain {
            just0: Box::new(PreVoteJust::Initial),
            just1: Box::new(PreVoteJust::Initial),
            proof0: None,
            proof1: None,
        },
        share: share_on(from, statement_main_vote(&pid, 1, MainVote::Abstain)),
        proof: None,
    };
    // Pre-votes 1 (its own), 1 and 0, then three abstentions: nothing to
    // decide or adopt, so it releases its coin share and waits for one
    // more. Its own broadcasts come back as the network brings them.
    let mut out = Outgoing::new();
    inst.propose(&any, true, Vec::new(), &mut out);
    let mut script = VecDeque::from([
        (1, pre_vote(1, true)),
        (2, pre_vote(2, false)),
        (1, abstain(1)),
        (2, abstain(2)),
    ]);
    loop {
        for (_, env) in out.drain().into_iter().rev() {
            script.push_front((0, env.body));
        }
        let Some((from, body)) = script.pop_front() else {
            break;
        };
        inst.handle(&any, PartyId(from), &body, &mut out);
    }
    assert!(inst.snapshot_json().contains("collecting-coin"));
    // Party 1's share of the next round's coin: parked for free, and
    // with it the threshold is in sight, so the quarantine is flushed.
    let share = ctxs[1].release_coin_share(&coin_name(&pid, 2)).forget();
    let coin_share = Body::BaCoinShare {
        round: 1,
        share: share.clone(),
    };
    let name = coin_name(&pid, 1);
    Forged {
        what: "ba-coin-share of another round's coin, flushed",
        offered: offer(&mut inst, |i, out| {
            i.handle(&any, PartyId(1), &coin_share, out)
        }),
        check_work: refused(|| !ctxs[0].check_coin_shares(&name, [share]).is_empty()),
    }
}

fn app(origin: usize, data: &[u8]) -> Vec<Payload> {
    vec![Payload {
        origin: PartyId(origin),
        seq: 0,
        kind: PayloadKind::App,
        data: data.to_vec(),
    }]
}

fn forged_entry(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ac-forged-entry");
    let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
    // Party 2's own entry, signed for round 5 and sent for round 0.
    let entry = ctxs[2].sign_entry(&pid, 5, app(2, b"request")).forget();
    let body = Body::AcEntry {
        round: 0,
        entry: entry.clone(),
    };
    Forged {
        what: "ac-entry signed for another round",
        offered: offer(&mut chan, |c, out| c.handle(PartyId(2), &pid, &body, out)),
        check_work: refused(|| ctxs[0].check_entry(&pid, 0, &entry).is_some()),
    }
}

fn forged_fetched(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("ac-forged-fetched");
    let mut chan = AtomicChannel::new(pid.clone(), ctxs[1].clone(), Default::default());
    // Entries of parties 2 and 3 arrive; party 1 adopts, holds n - t and
    // proposes. With its own proposal back from the network and two more
    // seen that name an entry of party 0 nobody broadcast, it asks.
    let held = ctxs[2].sign_entry(&pid, 0, app(2, b"held"));
    let too = ctxs[3].sign_entry(&pid, 0, app(3, b"too"));
    let mut own = Outgoing::new();
    for (signer, entry) in [(2, held.clone()), (3, too)] {
        let entry = entry.forget();
        chan.handle(
            PartyId(signer),
            &pid,
            &Body::AcEntry { round: 0, entry },
            &mut own,
        );
    }
    for (_, env) in own.drain() {
        if matches!(env.body, Body::CbSend(_)) {
            chan.handle(PartyId(1), &env.pid, &env.body, &mut Outgoing::new());
        }
    }
    let wanted = ctxs[0].sign_entry(&pid, 0, app(0, b"wanted"));
    let refs: Vec<Unchecked<EntryRef>> = vec![wanted.to_ref().into(), held.to_ref().into()];
    let mut out = Outgoing::new();
    for proposer in [0, 3] {
        let proposal = Body::CbSend(refs.to_bytes());
        let bc = pid.child(format!("vba/0/bc/{proposer}"));
        chan.handle(PartyId(proposer), &bc, &proposal, &mut out);
    }
    let asked = |(_, env): &(Recipient, Envelope)| matches!(env.body, Body::AcFetch { .. });
    assert!(out.drain().iter().any(asked), "it asks for the entry");
    // The reply names the wanted entry — party 0's, the wanted digest —
    // under party 3's signature.
    let by_another = ctxs[3].sign_entry(&pid, 0, wanted.payloads().to_vec());
    let payloads = wanted.payloads().to_vec();
    let entry: Unchecked<Entry> = Entry::new(payloads, PartyId(0), by_another.sig().clone()).into();
    let body = Body::AcFetched {
        round: 0,
        entry: entry.clone(),
    };
    Forged {
        what: "ac-fetched that was asked for, under another party's signature",
        offered: offer(&mut chan, |c, out| c.handle(PartyId(3), &pid, &body, out)),
        check_work: refused(|| ctxs[1].check_entry(&pid, 0, &entry).is_some()),
    }
}

/// Party 0's endpoint of a secure channel on which `requests`, one each
/// from parties 1, 2, …, have been ordered in round 0, with no decryption
/// batch reaching party 0: it has released its own and waits for one
/// more. Returns the round's ciphertexts with it.
fn secure_waiting(
    ctxs: &[GroupContext],
    pid: &ProtocolId,
    requests: &[&[u8]],
) -> (SecureAtomicChannel, Vec<Ciphertext>) {
    let mut chans: Vec<SecureAtomicChannel> = ctxs
        .iter()
        .map(|c| SecureAtomicChannel::new(pid.clone(), c.clone(), Default::default()))
        .collect();
    let mut rng = StdRng::seed_from_u64(9);
    let mut outs = Vec::new();
    for (sender, request) in (1..).zip(requests) {
        let mut out = Outgoing::new();
        chans[sender].send(request.to_vec(), &mut rng, &mut out);
        outs.push((sender, out));
    }
    let handle = |chan: &mut SecureAtomicChannel, from, env: &Envelope, out: &mut Outgoing| {
        chan.handle(from, &env.pid, &env.body, out)
    };
    let lost = |to: usize, body: &Body| to == 0 && matches!(body, Body::ScShares { .. });
    run(&mut chans, outs, handle, lost);
    let mut chan = chans.swap_remove(0);
    let cts: Vec<Ciphertext> = std::iter::from_fn(|| chan.take_ordered_ciphertext())
        .map(|(_, _, ordered)| Ciphertext::from_bytes(&ordered).unwrap())
        .collect();
    assert_eq!(cts.len(), requests.len(), "one round orders them all");
    assert!(!chan.can_receive(), "still encrypted");
    (chan, cts)
}

fn shares_body(round: u64, batch: Unchecked<DecryptionBatch>) -> Body {
    Body::ScShares { round, batch }
}

fn late_dec_batches(ctxs: &[GroupContext]) -> [Row; 3] {
    let pid = ProtocolId::new("sc-late");
    let (mut chan, cts) = secure_waiting(ctxs, &pid, &[b"secret"]);
    let cts: Vec<&Ciphertext> = cts.iter().collect();
    let batch_of = |party: usize, cts: &[&Ciphertext]| ctxs[party].release_dec_batch(&pid, 0, cts);
    let checked = |cts: &[&Ciphertext], batch: &Unchecked<DecryptionBatch>| {
        priced(|| ctxs[0].check_dec_batch(&pid, 0, cts, batch).is_some())
    };
    // Party 2's batch, sent by party 1.
    let relayed = batch_of(2, &cts).forget();
    let relayed = Row {
        what: "sc-shares whose index is not its sender's",
        check_work: checked(&cts, &relayed),
        late: offer(&mut chan, |c, out| {
            c.handle(PartyId(1), &pid, &shares_body(0, relayed.clone()), out)
        }),
    };
    // Party 1's batch over the round's ciphertext and one more.
    let enc = &ctxs[1].keys().common.enc;
    let other = enc.encrypt(pid.as_bytes(), b"other", &mut StdRng::seed_from_u64(10));
    let two = [cts[0], &other];
    let longer = batch_of(1, &two).forget();
    let longer = Row {
        what: "sc-shares with one value more than the round ordered",
        check_work: checked(&two, &longer),
        late: offer(&mut chan, |c, out| {
            c.handle(PartyId(1), &pid, &shares_body(0, longer.clone()), out)
        }),
    };
    // Party 2's batch resolves the round; party 3's comes after.
    let resolving = shares_body(0, batch_of(2, &cts).forget());
    chan.handle(PartyId(2), &pid, &resolving, &mut Outgoing::new());
    assert_eq!(
        chan.take_delivery().map(|p| p.data),
        Some(b"secret".to_vec())
    );
    let after = batch_of(3, &cts).forget();
    let after = Row {
        what: "sc-shares for a round already resolved",
        check_work: checked(&cts, &after),
        late: offer(&mut chan, |c, out| {
            c.handle(PartyId(3), &pid, &shares_body(0, after.clone()), out)
        }),
    };
    [relayed, longer, after]
}

fn forged_dec_batches(ctxs: &[GroupContext]) -> [Forged; 3] {
    let pid = ProtocolId::new("sc-forged");
    let requests: [&[u8]; 2] = [b"secret", b"another"];
    let (mut chan, cts) = secure_waiting(ctxs, &pid, &requests);
    let cts: Vec<&Ciphertext> = cts.iter().collect();
    let refused_batch = |batch: &Unchecked<DecryptionBatch>| {
        refused(|| ctxs[0].check_dec_batch(&pid, 0, &cts, batch).is_some())
    };
    let mut offered = |batch: &Unchecked<DecryptionBatch>| {
        let body = shares_body(0, batch.clone());
        offer(&mut chan, |c, out| c.handle(PartyId(1), &pid, &body, out))
    };
    // Party 1's batch for two other ciphertexts of this channel.
    let mut rng = StdRng::seed_from_u64(10);
    let enc = &ctxs[1].keys().common.enc;
    let others: Vec<Ciphertext> = requests
        .iter()
        .map(|r| enc.encrypt(pid.as_bytes(), r, &mut rng))
        .collect();
    let others: Vec<&Ciphertext> = others.iter().collect();
    let elsewhere = ctxs[1].release_dec_batch(&pid, 0, &others).forget();
    let elsewhere = Forged {
        what: "sc-shares for other ciphertexts, its round pending",
        check_work: refused_batch(&elsewhere),
        offered: offered(&elsewhere),
    };
    // Party 1's valid batch for these ciphertexts in round 5.
    let later = ctxs[1].release_dec_batch(&pid, 5, &cts).forget();
    let later = Forged {
        what: "sc-shares carrying a valid proof for another round",
        check_work: refused_batch(&later),
        offered: offered(&later),
    };
    // Party 1's own batch with its second value times p - 1, an order-2
    // component: a product test of membership would let it through with
    // an even weight.
    let mut negated = (*ctxs[1].release_dec_batch(&pid, 0, &cts)).clone();
    let p = enc.group().modulus();
    negated.values[1] = p - &negated.values[1];
    let negated: Unchecked<DecryptionBatch> = negated.into();
    let negated = Forged {
        what: "sc-shares with one value times p - 1",
        check_work: refused_batch(&negated),
        offered: offered(&negated),
    };
    // Refused whole, and the plaintexts still arrive with party 2's.
    let resolving = shares_body(0, ctxs[2].release_dec_batch(&pid, 0, &cts).forget());
    chan.handle(PartyId(2), &pid, &resolving, &mut Outgoing::new());
    let delivered: Vec<Vec<u8>> = std::iter::from_fn(|| chan.take_delivery())
        .map(|p| p.data)
        .collect();
    assert_eq!(delivered, requests.map(<[u8]>::to_vec));
    [elsewhere, later, negated]
}

fn forged_ack(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("opt-forged-ack");
    let mut chan = OptimisticChannel::new(pid.clone(), ctxs[1].clone(), Default::default());
    let digest = [7; 32];
    let statement = statement_opt_ack(&pid, 1, 0, 0, &digest);
    let other_slot = statement_opt_ack(&pid, 1, 0, 1, &digest);
    let sig: Unchecked<_> = ctxs[2].keys().sig_key.sign(&other_slot).into();
    let ack = Body::OptAck {
        phase: 1,
        epoch: 0,
        seq: 0,
        digest,
        sig: sig.clone(),
    };
    Forged {
        what: "opt-ack signed for another slot",
        offered: offer(&mut chan, |c, out| c.handle(PartyId(2), &pid, &ack, out)),
        check_work: refused(|| {
            ctxs[1]
                .check_party_sig(PartyId(2), &statement, &sig)
                .is_some()
        }),
    }
}

fn forged_state(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("opt-forged-state");
    let mut chan = OptimisticChannel::new(pid.clone(), ctxs[1].clone(), Default::default());
    // Signed over the digest of no entries: the encoding of an empty
    // sequence is its count.
    let no_entries = payload_digest(&0u32.to_bytes());
    let statement = statement_opt_state(&pid, 0, &no_entries);
    let other_epoch = statement_opt_state(&pid, 1, &no_entries);
    let sig: Unchecked<_> = ctxs[2].keys().sig_key.sign(&other_epoch).into();
    let state = EpochState {
        epoch: 0,
        sender: PartyId(2),
        entries: Vec::new(),
        sig: sig.clone(),
    };
    let body = Body::OptState {
        epoch: 0,
        state: state.to_bytes(),
    };
    Forged {
        what: "opt-state signed for another epoch",
        offered: offer(&mut chan, |c, out| c.handle(PartyId(2), &pid, &body, out)),
        check_work: refused(|| {
            ctxs[1]
                .check_party_sig(PartyId(2), &statement, &sig)
                .is_some()
        }),
    }
}

fn forged_closing(ctxs: &[GroupContext]) -> Forged {
    let pid = ProtocolId::new("vba-forged-closing");
    let mut inst = MultiValuedAgreement::new(pid.clone(), ctxs[0].clone(), CandidateOrder::Fixed);
    // Iteration 0 examines party 0's broadcast; the closing is of
    // another agreement's.
    let statement = statement_cb(&pid.child("bc/0"), b"candidate");
    let elsewhere = statement_cb(&ProtocolId::new("vba-elsewhere/bc/0"), b"candidate");
    let sig = group_sig(ctxs, Thsig::Broadcast, &elsewhere);
    let closing = ClosingMessage {
        payload: b"candidate".to_vec(),
        sig: sig.clone(),
    };
    let vote = Body::VbaVote {
        iteration: 0,
        yes: true,
        closing: Some(closing.to_bytes()),
    };
    Forged {
        what: "vba-vote whose closing is of another instance",
        offered: offer(&mut inst, |i, out| {
            i.handle(&|_| true, PartyId(1), &pid, &vote, out)
        }),
        check_work: refused(|| {
            ctxs[0]
                .check_sig(Thsig::Broadcast, &statement, &sig)
                .is_some()
        }),
    }
}

#[test]
fn forged_messages_cost_their_check_and_change_nothing() {
    let ctxs = group();
    let mut table = vec![
        forged_echo(&ctxs),
        forged_final(&ctxs),
        forged_pre_vote(&ctxs),
        forged_main_vote(&ctxs),
        forged_decide(&ctxs),
        forged_coin_share(&ctxs),
        forged_entry(&ctxs),
        forged_fetched(&ctxs),
        forged_ack(&ctxs),
        forged_state(&ctxs),
        forged_closing(&ctxs),
    ];
    table.extend(forged_dec_batches(&ctxs));
    for row in table {
        let (spent, owed) = (row.offered.work, row.check_work);
        assert!(owed > 0.0, "{}: the check is not free", row.what);
        assert!(
            (spent - owed).abs() < 1e-9,
            "{}: {spent} work units for checks worth {owed}",
            row.what
        );
        assert!(!row.offered.changed, "{}: state changed", row.what);
    }
}

/// One row of the third table: a message of which the instance holds
/// some part, checked or produced by itself under the same statement.
struct Held {
    what: &'static str,
    /// What checking the parts it does *not* hold costs, measured by
    /// checking them; 0 when it holds everything.
    owed: f64,
    offered: Offer,
    /// Whether the message is valid, and so has to count.
    counts: bool,
}

/// A multi-signature of exactly these shares, in this order.
fn multi_sig(shares: &[&Checked<SigShare>]) -> Unchecked<ThresholdSignature> {
    let component = |share: &&Checked<SigShare>| match &share.body {
        SigShareBody::Multi { sig } => (share.index, sig.clone()),
        SigShareBody::ShoupRsa { .. } => unreachable!("the fixtures deal multi-signatures"),
    };
    ThresholdSignature::Multi(shares.iter().map(component).collect()).into()
}

/// Party 0's agreement that proposed 1 and has accepted the pre-votes
/// for 1 of itself and parties 1 and 2 — so it has sent its main-vote —
/// with every party's share on that pre-vote statement.
fn holding_pre_votes(
    ctxs: &[GroupContext],
    pid: &ProtocolId,
) -> (BinaryAgreement, Vec<Checked<SigShare>>) {
    let statement = statement_pre_vote(pid, 1, true);
    let shares: Vec<Checked<SigShare>> = ctxs
        .iter()
        .map(|c| c.sign_share(Thsig::Agreement, &statement))
        .collect();
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone());
    let mut out = Outgoing::new();
    inst.propose(&any, true, Vec::new(), &mut out);
    let (_, own) = out.drain().remove(0);
    inst.handle(&any, PartyId(0), &own.body, &mut out);
    for from in [1, 2] {
        let pre_vote = Body::BaPreVote {
            round: 1,
            value: true,
            just: PreVoteJust::Initial,
            share: shares[from].clone().forget(),
            proof: None,
        };
        inst.handle(&any, PartyId(from), &pre_vote, &mut out);
    }
    assert!(inst.snapshot_json().contains("collecting-main-votes"));
    (inst, shares)
}

/// Party `from`'s main-vote for `vote` in round 1 under `just`, with the
/// statement its share is on.
fn main_vote_from(
    ctxs: &[GroupContext],
    pid: &ProtocolId,
    from: usize,
    vote: bool,
    just: Unchecked<ThresholdSignature>,
) -> (Vec<u8>, Unchecked<SigShare>, Body) {
    let statement = statement_main_vote(pid, 1, MainVote::Value(vote));
    let share = ctxs[from].sign_share(Thsig::Agreement, &statement).forget();
    let body = Body::BaMainVote {
        round: 1,
        vote: MainVote::Value(vote),
        just: MainVoteJust::Value(just),
        share: share.clone(),
        proof: None,
    };
    (statement, share, body)
}

/// Main-votes for 1 from party 1 whose justification is, by `pick`, made
/// of pre-vote shares the instance holds and of others.
fn justified_main_votes(ctxs: &[GroupContext]) -> Vec<Held> {
    let check = &ctxs[0];
    let pre = |pid: &ProtocolId| statement_pre_vote(pid, 1, true);
    let mut rows = Vec::new();

    // (a) every component is a pre-vote share it holds: only the
    // sender's own share on the main-vote is new.
    let pid = ProtocolId::new("ba-held-just");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    let just = multi_sig(&[&shares[0], &shares[1], &shares[2]]);
    let (statement, share, body) = main_vote_from(ctxs, &pid, 1, true, just);
    rows.push(Held {
        what: "ba-main-vote justified by three held pre-vote shares",
        owed: priced(|| {
            check
                .check_share(Thsig::Agreement, &statement, &share)
                .is_some()
        }),
        offered: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &body, out)),
        counts: true,
    });

    // (b) party 3's pre-vote has not arrived: its component costs one
    // share check.
    let pid = ProtocolId::new("ba-one-new");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    let just = multi_sig(&[&shares[1], &shares[3], &shares[2]]);
    let (statement, share, body) = main_vote_from(ctxs, &pid, 1, true, just);
    let new = shares[3].clone().forget();
    rows.push(Held {
        what: "ba-main-vote justified by two held shares and one new one",
        owed: priced(|| {
            let new = check.check_share(Thsig::Agreement, &pre(&pid), &new);
            let own = check.check_share(Thsig::Agreement, &statement, &share);
            new.is_some() && own.is_some()
        }),
        offered: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &body, out)),
        counts: true,
    });

    // (c) two held components and party 3's share on the other bit's
    // statement: refused for the price of that one.
    let pid = ProtocolId::new("ba-one-bad");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    let other_bit = statement_pre_vote(&pid, 1, false);
    let bad = ctxs[3].sign_share(Thsig::Agreement, &other_bit);
    let just = multi_sig(&[&shares[1], &shares[2], &bad]);
    let (_, _, body) = main_vote_from(ctxs, &pid, 1, true, just);
    let bad = bad.forget();
    rows.push(Held {
        what: "ba-main-vote justified by two held shares and a forged one",
        owed: refused(|| {
            check
                .check_share(Thsig::Agreement, &pre(&pid), &bad)
                .is_some()
        }),
        offered: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &body, out)),
        counts: false,
    });

    // (e) the shape of a quorum is not for sale: held components twice,
    // or too few of them, are refused before anything is compared.
    let pid = ProtocolId::new("ba-misshapen");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    for (what, just) in [
        (
            "ba-main-vote justified by a held share twice",
            multi_sig(&[&shares[1], &shares[1], &shares[2]]),
        ),
        (
            "ba-main-vote justified by k - 1 held shares",
            multi_sig(&[&shares[1], &shares[2]]),
        ),
    ] {
        let (_, _, body) = main_vote_from(ctxs, &pid, 1, true, just);
        rows.push(Held {
            what,
            owed: 0.0,
            offered: offer(&mut inst, |i, out| i.handle(&any, PartyId(1), &body, out)),
            counts: false,
        });
    }
    rows
}

/// A decision whose signature is made of two main-vote shares the
/// instance holds and one it does not.
fn decide_with_one_new_share(ctxs: &[GroupContext]) -> Held {
    let pid = ProtocolId::new("ba-held-decide");
    let (mut inst, pre_shares) = holding_pre_votes(ctxs, &pid);
    let just = multi_sig(&[&pre_shares[0], &pre_shares[1], &pre_shares[2]]);
    let statement = statement_main_vote(&pid, 1, MainVote::Value(true));
    let shares: Vec<Checked<SigShare>> = ctxs
        .iter()
        .map(|c| c.sign_share(Thsig::Agreement, &statement))
        .collect();
    // Its own main-vote is in the first network's hands; party 1's has
    // arrived.
    let (_, _, body) = main_vote_from(ctxs, &pid, 1, true, just);
    inst.handle(&any, PartyId(1), &body, &mut Outgoing::new());
    let decide = Body::BaDecide {
        round: 1,
        value: true,
        sig: multi_sig(&[&shares[1], &shares[2], &shares[3]]),
        proof: None,
    };
    let new = [shares[2].clone().forget(), shares[3].clone().forget()];
    let check = &ctxs[0];
    let owed = priced(|| {
        let checked = |share| check.check_share(Thsig::Agreement, &statement, share);
        new.iter().all(|share| checked(share).is_some())
    });
    let offered = offer(&mut inst, |i, out| i.handle(&any, PartyId(2), &decide, out));
    assert_eq!(inst.decision(), Some(true));
    Held {
        what: "ba-decide signed by one held main-vote share and two new ones",
        owed,
        offered,
        counts: true,
    }
}

/// (d) Equality under another statement vouches for nothing: the
/// signature is made of shares the instance holds, and is offered for
/// the other bit, for another round, to another instance.
fn held_under_another_statement(ctxs: &[GroupContext]) -> Vec<Held> {
    let check = &ctxs[0];
    let mut rows = Vec::new();

    let pid = ProtocolId::new("ba-other-bit");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    let just = multi_sig(&[&shares[0], &shares[1], &shares[2]]);
    let (_, _, body) = main_vote_from(ctxs, &pid, 3, false, just.clone());
    let claimed = statement_pre_vote(&pid, 1, false);
    rows.push(Held {
        what: "ba-main-vote for 0 justified by the held shares for 1",
        owed: refused(|| check.check_sig(Thsig::Agreement, &claimed, &just).is_some()),
        offered: offer(&mut inst, |i, out| i.handle(&any, PartyId(3), &body, out)),
        counts: false,
    });

    // A round-3 pre-vote hard-justified by "round 2's" signature, which
    // is round 1's.
    let pid = ProtocolId::new("ba-other-round");
    let (mut inst, shares) = holding_pre_votes(ctxs, &pid);
    let just = multi_sig(&[&shares[0], &shares[1], &shares[2]]);
    let statement = statement_pre_vote(&pid, 3, true);
    let pre_vote = Body::BaPreVote {
        round: 3,
        value: true,
        just: PreVoteJust::Hard(just.clone()),
        share: ctxs[3].sign_share(Thsig::Agreement, &statement).forget(),
        proof: None,
    };
    let claimed = statement_pre_vote(&pid, 2, true);
    rows.push(Held {
        what: "ba-pre-vote of round 3 justified by round 1's held shares",
        owed: refused(|| check.check_sig(Thsig::Agreement, &claimed, &just).is_some()),
        offered: offer(&mut inst, |i, out| {
            i.handle(&any, PartyId(3), &pre_vote, out)
        }),
        counts: false,
    });

    // A sender that has assembled its own final is offered the final of
    // another instance's broadcast of the same payload.
    let pid = ProtocolId::new("cb-other-pid");
    let (mut inst, _) = sender_with_final(ctxs, &pid);
    let elsewhere = statement_cb(&ProtocolId::new("cb-elsewhere"), b"payload");
    let sig = group_sig(ctxs, Thsig::Broadcast, &elsewhere);
    let fin = Body::CbFinal {
        payload: b"payload".to_vec(),
        sig: sig.clone(),
    };
    let claimed = statement_cb(&pid, b"payload");
    rows.push(Held {
        what: "cb-final of another instance at a sender holding its own",
        owed: refused(|| check.check_sig(Thsig::Broadcast, &claimed, &sig).is_some()),
        offered: offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out)),
        counts: false,
    });
    rows
}

/// Party 0 as the sender of a broadcast of `b"payload"`, with its own
/// echo and those of parties 1 and 2 in: the final it has just sent.
fn sender_with_final(ctxs: &[GroupContext], pid: &ProtocolId) -> (ConsistentBroadcast, Body) {
    let mut inst = ConsistentBroadcast::new(pid.clone(), ctxs[0].clone(), PartyId(0));
    let mut out = Outgoing::new();
    inst.send(b"payload".to_vec(), &mut out);
    let (_, send) = out.drain().remove(0);
    inst.handle(PartyId(0), &send.body, &mut out);
    let (_, own_echo) = out.drain().remove(0);
    // Its own echo comes back: the share it signed a moment ago.
    let own = offer(&mut inst, |i, out| {
        i.handle(PartyId(0), &own_echo.body, out)
    });
    assert!(
        own.changed && own.work.abs() < 1e-9,
        "own echo: {}",
        own.work
    );
    let statement = statement_cb(pid, b"payload");
    for from in [1, 2] {
        let share = ctxs[from].sign_share(Thsig::Broadcast, &statement).forget();
        inst.handle(PartyId(from), &Body::CbEcho(share), &mut out);
    }
    let (_, fin) = out.drain().remove(0);
    assert!(matches!(fin.body, Body::CbFinal { .. }));
    (inst, fin.body)
}

fn own_final(ctxs: &[GroupContext]) -> Held {
    let (mut inst, fin) = sender_with_final(ctxs, &ProtocolId::new("cb-own-final"));
    let offered = offer(&mut inst, |i, out| i.handle(PartyId(0), &fin, out));
    assert_eq!(inst.delivered(), Some(&b"payload"[..]));
    Held {
        what: "cb-final come back to the sender that assembled it",
        owed: 0.0,
        offered,
        counts: true,
    }
}

/// A final that another party assembled from this party's echo share and
/// two it has never seen.
fn final_with_own_echo(ctxs: &[GroupContext]) -> Held {
    let pid = ProtocolId::new("cb-own-echo");
    let mut inst = ConsistentBroadcast::new(pid.clone(), ctxs[0].clone(), PartyId(1));
    let mut out = Outgoing::new();
    inst.handle(PartyId(1), &Body::CbSend(b"payload".to_vec()), &mut out);
    let (_, echo) = out.drain().remove(0);
    assert!(matches!(echo.body, Body::CbEcho(_)), "it echoes the send");
    let statement = statement_cb(&pid, b"payload");
    let others: Vec<Checked<SigShare>> = [1, 2]
        .iter()
        .map(|&p: &usize| ctxs[p].sign_share(Thsig::Broadcast, &statement))
        .collect();
    let own = ctxs[0].sign_share(Thsig::Broadcast, &statement);
    let fin = Body::CbFinal {
        payload: b"payload".to_vec(),
        sig: multi_sig(&[&others[0], &own, &others[1]]),
    };
    let check = &ctxs[0];
    Held {
        what: "cb-final holding this party's own echo share",
        owed: priced(|| {
            let checked = |share: &Checked<SigShare>| {
                check.check_share(Thsig::Broadcast, &statement, &share.clone().forget())
            };
            others.iter().all(|share| checked(share).is_some())
        }),
        offered: offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out)),
        counts: true,
    }
}

/// The closing message of party 0's broadcast under agreement `pid`.
fn closing_of_candidate_0(ctxs: &[GroupContext], pid: &ProtocolId) -> ClosingMessage {
    let statement = statement_cb(&pid.child("bc/0"), b"candidate");
    ClosingMessage {
        payload: b"candidate".to_vec(),
        sig: group_sig(ctxs, Thsig::Broadcast, &statement),
    }
}

/// Yes-votes for a candidate whose broadcast the instance has delivered:
/// one with the closing it holds, one with another valid closing of the
/// same broadcast (a different quorum's signature).
fn votes_with_closings(ctxs: &[GroupContext]) -> [Held; 2] {
    let pid = ProtocolId::new("vba-held-closing");
    let order = CandidateOrder::Fixed;
    let mut inst = MultiValuedAgreement::new(pid.clone(), ctxs[0].clone(), order);
    let valid = |_: &[u8]| true;
    let held = closing_of_candidate_0(ctxs, &pid);
    let fin = Body::CbFinal {
        payload: held.payload.clone(),
        sig: held.sig.clone(),
    };
    inst.handle(
        &valid,
        PartyId(0),
        &pid.child("bc/0"),
        &fin,
        &mut Outgoing::new(),
    );
    let vote = |closing: &ClosingMessage| Body::VbaVote {
        iteration: 0,
        yes: true,
        closing: Some(closing.to_bytes()),
    };
    let same = vote(&held);
    let same = offer(&mut inst, |i, out| {
        i.handle(&valid, PartyId(1), &pid, &same, out)
    });
    assert!(
        format!("{inst:?}").contains("votes: {0: {PartyId(1)}}"),
        "the vote counts"
    );
    // Parties 1, 2 and 3 signed this one; the held one is of 0, 1 and 2.
    let statement = statement_cb(&pid.child("bc/0"), b"candidate");
    let other = ClosingMessage {
        payload: held.payload.clone(),
        sig: group_sig(&ctxs[1..], Thsig::Broadcast, &statement),
    };
    assert_ne!(other, held);
    let differs = vote(&other);
    let differs = offer(&mut inst, |i, out| {
        i.handle(&valid, PartyId(2), &pid, &differs, out)
    });
    assert!(
        format!("{inst:?}").contains("votes: {0: {PartyId(1), PartyId(2)}}"),
        "and so does this"
    );
    let full = priced(|| {
        ctxs[0]
            .check_sig(Thsig::Broadcast, &statement, &other.sig)
            .is_some()
    });
    [
        Held {
            what: "vba-vote with the closing the instance holds",
            owed: 0.0,
            offered: same,
            counts: true,
        },
        Held {
            what: "vba-vote with another valid closing of the same broadcast",
            owed: full,
            offered: differs,
            counts: true,
        },
    ]
}

/// A pre-vote for 1 carrying, as validation data, the closing message the
/// instance proposed with — under a validator that checks closings.
fn pre_vote_with_held_proof(ctxs: &[GroupContext]) -> Held {
    let pid = ProtocolId::new("ba-held-proof");
    let closing = closing_of_candidate_0(ctxs, &pid).to_bytes();
    let bc = VerifiableConsistentBroadcast::new(pid.child("bc/0"), ctxs[0].clone(), PartyId(0));
    let valid = |value: bool, proof: &[u8]| !value || bc.check_closing(proof).is_some();
    let mut inst = BinaryAgreement::new(pid.clone(), ctxs[0].clone()).validated();
    inst.propose(&valid, true, closing.clone(), &mut Outgoing::new());
    let statement = statement_pre_vote(&pid, 1, true);
    let share = ctxs[1].sign_share(Thsig::Agreement, &statement).forget();
    let pre_vote = Body::BaPreVote {
        round: 1,
        value: true,
        just: PreVoteJust::Initial,
        share: share.clone(),
        proof: Some(closing),
    };
    Held {
        what: "ba-pre-vote carrying validation data the instance holds",
        owed: priced(|| {
            ctxs[0]
                .check_share(Thsig::Agreement, &statement, &share)
                .is_some()
        }),
        offered: offer(&mut inst, |i, out| {
            i.handle(&valid, PartyId(1), &pre_vote, out)
        }),
        counts: true,
    }
}

/// The final of a proposal that names two entries the channel holds: the
/// final's signature is new, the entries' signatures are not.
fn proposal_of_held_entries(ctxs: &[GroupContext]) -> Held {
    let pid = ProtocolId::new("ac-held-refs");
    let mut chan = AtomicChannel::new(pid.clone(), ctxs[0].clone(), Default::default());
    let entries = [1, 2, 3].map(|signer| ctxs[signer].sign_entry(&pid, 0, app(signer, b"held")));
    for entry in &entries {
        let (signer, entry) = (entry.signer(), entry.clone().forget());
        let body = Body::AcEntry { round: 0, entry };
        chan.handle(signer, &pid, &body, &mut Outgoing::new());
    }
    let refs: Vec<Unchecked<EntryRef>> =
        vec![entries[0].to_ref().into(), entries[2].to_ref().into()];
    let bc = pid.child("vba/0/bc/2");
    let statement = statement_cb(&bc, &refs.to_bytes());
    let sig = group_sig(&ctxs[1..], Thsig::Broadcast, &statement);
    let fin = Body::CbFinal {
        payload: refs.to_bytes(),
        sig: sig.clone(),
    };
    Held {
        what: "cb-final of a proposal naming two held entries",
        owed: priced(|| {
            ctxs[0]
                .check_sig(Thsig::Broadcast, &statement, &sig)
                .is_some()
        }),
        offered: offer(&mut chan, |c, out| c.handle(PartyId(2), &bc, &fin, out)),
        counts: true,
    }
}

#[test]
fn what_is_held_is_free_and_what_is_new_costs_itself() {
    let ctxs = group();
    let mut table = justified_main_votes(&ctxs);
    table.push(decide_with_one_new_share(&ctxs));
    table.extend(held_under_another_statement(&ctxs));
    table.push(own_final(&ctxs));
    table.push(final_with_own_echo(&ctxs));
    table.extend(votes_with_closings(&ctxs));
    table.push(pre_vote_with_held_proof(&ctxs));
    table.push(proposal_of_held_entries(&ctxs));
    for row in table {
        let (spent, owed) = (row.offered.work, row.owed);
        assert!(
            (spent - owed).abs() < 1e-9,
            "{}: {spent} work units where {owed} are owed",
            row.what
        );
        assert_eq!(row.offered.changed, row.counts, "{}: state", row.what);
    }
}
