//! Handlers filter on their own state before they verify anything.
//!
//! A message that can no longer matter — a decision for an instance that
//! has decided, a second vote from a sender, a final after delivery, an
//! entry for a past round or with nothing undelivered in it, a fetch reply
//! nobody asked for — is dropped by a free state test, however validly it
//! is signed. That is why there is no verification stage in front of
//! dispatch (DESIGN.md §11): a stateless stage would pay for the signature
//! of every one of these. Whoever puts a check ahead of these filters sees
//! its cost here.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_core::agreement::BinaryAgreement;
use sintra_core::broadcast::ConsistentBroadcast;
use sintra_core::channel::{AtomicChannel, AtomicChannelConfig};
use sintra_core::message::{
    statement_cb, statement_entry, statement_main_vote, statement_pre_vote, Body, Entry, MainVote,
    MainVoteJust, Payload, PayloadKind, PreVoteJust,
};
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::{deal, DealerConfig};
use sintra_crypto::thsig::{SigShare, ThresholdSignature};

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

/// The agreement key's signature of the whole group on `statement`.
fn agreement_sig(ctxs: &[GroupContext], statement: &[u8]) -> ThresholdSignature {
    let shares: Vec<SigShare> = ctxs
        .iter()
        .map(|c| c.keys().thsig_agreement.sign_share(statement))
        .collect();
    ctxs[0]
        .keys()
        .common
        .thsig_agreement
        .assemble_preverified(statement, &shares)
        .unwrap()
}

fn decide_after_decision(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-decided");
    let statement = statement_main_vote(&pid, 1, MainVote::Value(true));
    let sig = agreement_sig(ctxs, &statement);
    let decide = Body::BaDecide {
        round: 1,
        value: true,
        sig: sig.clone(),
        proof: None,
    };
    let mut inst = BinaryAgreement::new(pid, ctxs[0].clone());
    inst.propose(true, Vec::new(), &mut Outgoing::new());
    let first = offer(&mut inst, |i, out| i.handle(PartyId(1), &decide, out));
    assert!(first.changed && first.work > 0.0);
    assert_eq!(inst.decision(), Some(true));
    Row {
        what: "ba-decide after the instance decided",
        check_work: priced(|| ctxs[0].verify_agreement_sig(&statement, &sig)),
        late: offer(&mut inst, |i, out| i.handle(PartyId(2), &decide, out)),
    }
}

fn second_pre_vote(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-pre");
    // Party 1 pre-votes 1, then (equivocating, under a good share) 0.
    let pre_vote = |value: bool| {
        let statement = statement_pre_vote(&pid, 1, value);
        let share = ctxs[1].keys().thsig_agreement.sign_share(&statement);
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
    inst.propose(true, Vec::new(), &mut Outgoing::new());
    let (_, _, first) = pre_vote(true);
    let first = offer(&mut inst, |i, out| i.handle(PartyId(1), &first, out));
    assert!(first.changed && first.work > 0.0);
    let (statement, share, second) = pre_vote(false);
    let public = &ctxs[0].keys().common.thsig_agreement;
    Row {
        what: "second ba-pre-vote from the same sender",
        check_work: priced(|| public.verify_share(&statement, &share)),
        late: offer(&mut inst, |i, out| i.handle(PartyId(1), &second, out)),
    }
}

fn second_main_vote(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("ba-main");
    // A main-vote for `b` carries the group's signature on the round's
    // pre-vote statement for `b` and the sender's share on the vote.
    let main_vote = |b: bool| {
        let just_statement = statement_pre_vote(&pid, 1, b);
        let just = agreement_sig(ctxs, &just_statement);
        let statement = statement_main_vote(&pid, 1, MainVote::Value(b));
        let share = ctxs[1].keys().thsig_agreement.sign_share(&statement);
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
    inst.propose(true, Vec::new(), &mut Outgoing::new());
    let first = main_vote(true).4;
    let first = offer(&mut inst, |i, out| i.handle(PartyId(1), &first, out));
    assert!(first.changed && first.work > 0.0);
    let (just_statement, just, statement, share, second) = main_vote(false);
    let public = &ctxs[0].keys().common.thsig_agreement;
    Row {
        what: "second ba-main-vote from the same sender",
        check_work: priced(|| {
            ctxs[0].verify_agreement_sig(&just_statement, &just)
                && public.verify_share(&statement, &share)
        }),
        late: offer(&mut inst, |i, out| i.handle(PartyId(1), &second, out)),
    }
}

fn final_after_delivery(ctxs: &[GroupContext]) -> Row {
    let pid = ProtocolId::new("cb-delivered");
    let statement = statement_cb(&pid, b"payload");
    let shares: Vec<SigShare> = ctxs
        .iter()
        .map(|c| c.keys().thsig_broadcast.sign_share(&statement))
        .collect();
    let sig = ctxs[0]
        .keys()
        .common
        .thsig_broadcast
        .assemble_preverified(&statement, &shares)
        .unwrap();
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
        check_work: priced(|| ctxs[0].verify_broadcast_sig(&statement, &sig)),
        late: offer(&mut inst, |i, out| i.handle(PartyId(1), &fin, out)),
    }
}

/// Party 0's endpoint of a channel on which party 1's first request has
/// been delivered everywhere: round 1, `(1, 0)` behind the watermark.
fn channel_after_one_round(ctxs: &[GroupContext], pid: &ProtocolId) -> AtomicChannel {
    let mut chans: Vec<AtomicChannel> = ctxs
        .iter()
        .map(|c| AtomicChannel::new(pid.clone(), c.clone(), AtomicChannelConfig::default()))
        .collect();
    let mut queue = VecDeque::new();
    let mut out = Outgoing::new();
    chans[1].send(b"first".to_vec(), &mut out);
    let mut at = 1;
    loop {
        for (recipient, env) in out.drain() {
            let targets = match recipient {
                Recipient::All => 0..ctxs.len(),
                Recipient::One(p) => p.0..p.0 + 1,
            };
            queue.extend(targets.map(|to| (at, to, env.clone())));
        }
        let Some((from, to, env)) = queue.pop_front() else {
            break;
        };
        at = to;
        chans[to].handle(PartyId(from), &env.pid, &env.body, &mut out);
    }
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
        let key = &ctxs[signer].keys().sig_key;
        let entry = Entry::sign(&pid, round, vec![payload], PartyId(signer), key);
        let statement = statement_entry(&pid, round, entry.digest());
        let check_work =
            priced(|| ctxs[0].verify_party_sig(entry.signer(), &statement, entry.sig()));
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
    for row in table {
        assert!(row.check_work > 0.0, "{}: the check is not free", row.what);
        assert_eq!(row.late.work, 0.0, "{}: work before the filter", row.what);
        assert!(!row.late.changed, "{}: state changed", row.what);
    }
}
