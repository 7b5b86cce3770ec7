//! What one round costs, as counts that repeat exactly.
//!
//! One lone request goes through one atomic-channel round — four (or
//! seven) entries, as many consistent broadcasts, one biased agreement —
//! on an in-memory FIFO network, with the paper's 1024-bit keys. The
//! messages handled and the public-key work units charged, all parties
//! together, are functions of the code alone: no host, no schedule, no
//! clock. They are committed here, so a change that makes a round dearer
//! (or cheaper) fails `cargo test` on any machine and has to move the
//! constant in the same diff, where a reviewer sees it.
//!
//! The secure row does the same for the secure channel: one encrypted
//! request from each of four parties, ordered and decrypted
//! ([`SECURE_BUDGET`]). The three-sender row is one round that orders a
//! request from each of three parties ([`THREE_SENDERS_BUDGET`]).
//!
//! The n = 4 multi-signature row is the `abc4_lone` round of
//! `BENCHMARK.json` (128 messages, and at this commit the same 4.24 work
//! units per payload as its traced pass). Before a party stopped
//! re-verifying the shares, closings and justifications it already holds
//! the four rows read 11.495236, 36.251827, 208.020303 and 590.723628
//! work units, with the same message counts.
//!
//! Before the party keys became three-prime they read 8.131503,
//! 22.826405, 177.423781 and 536.303032. Only the signing charge moved:
//! party `i`'s signature went from `s_i` (two 512-bit CRT halves, 0.2485
//! to 0.2498 units) to `s'_i` (three 341/342-bit primes, 0.1105 to 0.1111),
//! and every party signs 7 times in an n = 4 multi-signature round (4 echo
//! shares, its entry, a pre-vote and a main-vote share), 10 times at n = 7
//! (7 echo shares), and once, its entry, with Shoup threshold signatures.
//! So the multi-signature rows moved by exactly `7·Σ(s'_i − s_i)` and
//! `10·Σ(s'_i − s_i)`, −3.886774 and −9.702092. The Shoup rows moved by
//! `Σ(s'_i − s_i)`, −0.555253 and −0.970209, plus +0.033202 and −0.039061:
//! a Shoup share's proof is charged by the lengths of its challenge and
//! response, which hash the statement, and the statements name entries by
//! their (new) signatures. One byte more in the request moves those rows
//! by as much (+0.021 and −0.014 at the parent) and the multi-signature
//! rows not at all.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_core::channel::{AtomicChannel, AtomicChannelConfig, SecureAtomicChannel};
use sintra_core::message::Envelope;
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::{deal, DealerConfig};
use sintra_crypto::thsig::SigFlavor;

fn endpoints<C>(n: usize, t: usize, flavor: SigFlavor, open: impl Fn(GroupContext) -> C) -> Vec<C> {
    let mut rng = StdRng::seed_from_u64(24);
    let config = DealerConfig::new(n, t).flavor(flavor);
    let ctxs = deal(&config, &mut rng).expect("fixture keys");
    let ctxs = ctxs
        .into_iter()
        .map(|keys| GroupContext::new(Arc::new(keys)));
    ctxs.map(open).collect()
}

/// Runs the group to quiescence on a FIFO network from what the parties
/// sent into `outs`, in that order; returns the messages handled.
fn run<C>(
    chans: &mut [C],
    outs: Vec<(usize, Outgoing)>,
    handle: impl Fn(&mut C, PartyId, &Envelope, &mut Outgoing),
) -> usize {
    let n = chans.len();
    let mut queue: VecDeque<(usize, usize, Envelope)> = VecDeque::new();
    let enqueue = |queue: &mut VecDeque<_>, at: usize, out: &mut Outgoing| {
        for (recipient, env) in out.drain() {
            let targets = match recipient {
                Recipient::All => 0..n,
                Recipient::One(p) => p.0..p.0 + 1,
            };
            queue.extend(targets.map(|to| (at, to, env.clone())));
        }
    };
    for (at, mut out) in outs {
        enqueue(&mut queue, at, &mut out);
    }
    let mut handled = 0;
    let mut out = Outgoing::new();
    while let Some((from, to, env)) = queue.pop_front() {
        handled += 1;
        handle(&mut chans[to], PartyId(from), &env, &mut out);
        enqueue(&mut queue, to, &mut out);
    }
    handled
}

/// Messages handled and work units charged by the round that orders one
/// request from each of parties `0..senders` (the same bytes from each).
fn one_round(n: usize, t: usize, flavor: SigFlavor, senders: usize) -> (usize, f64) {
    let pid = ProtocolId::new("budget");
    let mut chans = endpoints(n, t, flavor, |ctx| {
        AtomicChannel::new(pid.clone(), ctx, AtomicChannelConfig::default())
    });
    let scope = CostScope::enter();
    let outs = (0..senders)
        .map(|p| {
            let mut out = Outgoing::new();
            chans[p].send(b"lone request".to_vec(), &mut out);
            (p, out)
        })
        .collect();
    let handled = run(&mut chans, outs, |chan, from, env, out| {
        chan.handle(from, &env.pid, &env.body, out)
    });
    let work = scope.elapsed();
    for (party, chan) in chans.iter_mut().enumerate() {
        assert_eq!(chan.round(), 1, "party {party}: one round");
        let delivered: Vec<(usize, u64)> = std::iter::from_fn(|| chan.take_delivery())
            .map(|p| (p.origin.0, p.seq))
            .collect();
        let requests: Vec<(usize, u64)> = (0..senders).map(|p| (p, 0)).collect();
        assert_eq!(delivered, requests, "party {party}");
    }
    (handled, work)
}

/// `(n, t, flavor, messages, work units)`.
const BUDGET: [(usize, usize, SigFlavor, usize, f64); 4] = [
    (4, 1, SigFlavor::Multi, 128, 4.244729),
    (7, 2, SigFlavor::Multi, 392, 13.124313),
    (4, 1, SigFlavor::ShoupRsa, 128, 176.901730),
    (7, 2, SigFlavor::ShoupRsa, 392, 535.293761),
];

#[test]
fn a_lone_request_costs_what_is_committed() {
    // Every row is measured before any is judged, so that a change which
    // moves them all reads all four new constants off one failing run.
    let measured = BUDGET.map(|(n, t, flavor, ..)| {
        let (handled, charged) = one_round(n, t, flavor, 1);
        println!("    ({n}, {t}, SigFlavor::{flavor:?}, {handled}, {charged:.6}),");
        (handled, charged)
    });
    for ((n, _, flavor, messages, work), (handled, charged)) in BUDGET.into_iter().zip(measured) {
        assert_eq!(handled, messages, "n = {n}, {flavor:?}: messages per round");
        assert!(
            (charged - work).abs() < 5e-7,
            "n = {n}, {flavor:?}: {charged:.6} work units per round, committed {work:.6}"
        );
    }
}

/// `(messages, work units)` of one round ordering a request from each of
/// three parties, n = 4, multi-signatures: exactly what a lone request's
/// round costs (the n = 4 multi-signature row of [`BUDGET`]), since the
/// proposals name the three senders' entries instead of two of them and
/// nothing else changes. With batches of exactly `t + 1` entries it took
/// two rounds.
const THREE_SENDERS_BUDGET: (usize, f64) = (128, 4.244729);

#[test]
fn three_requests_share_one_round() {
    let (handled, charged) = one_round(4, 1, SigFlavor::Multi, 3);
    println!("    ({handled}, {charged:.6})");
    assert_eq!(handled, THREE_SENDERS_BUDGET.0, "messages");
    assert!(
        (charged - THREE_SENDERS_BUDGET.1).abs() < 5e-7,
        "{charged:.6} work units, committed {:.6}",
        THREE_SENDERS_BUDGET.1
    );
}

/// Messages handled and work units charged while the secure channel
/// orders and decrypts one request from each party.
fn secure_requests() -> (usize, f64) {
    let pid = ProtocolId::new("budget-secure");
    let mut chans = endpoints(4, 1, SigFlavor::Multi, |ctx| {
        SecureAtomicChannel::new(pid.clone(), ctx, AtomicChannelConfig::default())
    });
    // Encrypted by clients, outside the group's budget.
    let mut rng = StdRng::seed_from_u64(25);
    let ctx = endpoints(4, 1, SigFlavor::Multi, |ctx| ctx).remove(0);
    let cts: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            SecureAtomicChannel::encrypt(&ctx, &pid, format!("request {i}").as_bytes(), &mut rng)
        })
        .collect();
    let scope = CostScope::enter();
    let outs = chans
        .iter_mut()
        .zip(cts)
        .enumerate()
        .map(|(i, (chan, ct))| {
            let mut out = Outgoing::new();
            chan.send_ciphertext(ct, &mut out);
            (i, out)
        });
    let outs = outs.collect();
    let handled = run(&mut chans, outs, |chan, from, env, out| {
        chan.handle(from, &env.pid, &env.body, out)
    });
    let work = scope.elapsed();
    for (party, chan) in chans.iter_mut().enumerate() {
        let delivered = std::iter::from_fn(|| chan.take_delivery()).count();
        assert_eq!(delivered, 4, "party {party}: every request is decrypted");
    }
    (handled, work)
}

/// `(messages, work units)` of [`secure_requests`]: two atomic rounds of
/// 128 messages, the first ordering the three ciphertexts its proposals
/// found (each proposer holds `n − t` entries when it proposes) and the
/// second the last one, and one `sc-shares` batch from every party to every
/// party per round, 32 in all.
///
/// With batches of exactly `t + 1` entries each round ordered two, and it
/// read 288 messages and 33.632036 units. In the model below only the
/// folds moved: a round's 4 releases and 4 batch checks pay `2F` each, and
/// `F` is 0 at `m = 1`, so the rounds of 3 + 1 ciphertexts pay `16·F(3)`
/// where those of 2 + 2 paid `32·F(2)`: −0.8125 units in the model,
/// −0.837891 measured.
///
/// With one `sc-share` per ciphertext it read 320 messages and 38.137505
/// units. The messages moved by `16·(m − 1)` per round of `m`
/// ciphertexts, −32 here. In `cost.rs`'s model, with
/// `E = exp_work(1024, 160)` and `F = multi_exp_work(1024, [64; m − 1]) +
/// mul_work(1024)` (one fold, `U` or `V`; 0 at `m = 1`), a party's release
/// per round went from `m·2.2E` (per ciphertext a value, and a proof's
/// `g^w` and `u^w`) to `m·E + 1.2E + 2F`, and a peer's check from `3.4E`
/// per share (a membership test and two 2-base multi-exponentiations) to
/// `m·E + 2.4E + 2F` per batch. Here 8 releases and 8 batch checks replace
/// 16 releases and 20 share checks (the parked shares were all checked,
/// 1.25 per ciphertext): −4.600 units in the model, −4.505469 measured,
/// as an exponent that hashes to fewer than 160 bits charges less.
const SECURE_BUDGET: (usize, f64) = (288, 32.794145);

#[test]
fn secure_requests_cost_what_is_committed() {
    let (handled, charged) = secure_requests();
    println!("    ({handled}, {charged:.6})");
    assert_eq!(handled, SECURE_BUDGET.0, "messages");
    assert!(
        (charged - SECURE_BUDGET.1).abs() < 5e-7,
        "{charged:.6} work units, committed {:.6}",
        SECURE_BUDGET.1
    );
}
