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

use sintra_core::channel::{AtomicChannel, AtomicChannelConfig};
use sintra_core::message::Envelope;
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId, Recipient};
use sintra_crypto::cost::CostScope;
use sintra_crypto::dealer::{deal, DealerConfig};
use sintra_crypto::thsig::SigFlavor;

/// Messages handled and work units charged by one lone request's round.
fn one_round(n: usize, t: usize, flavor: SigFlavor) -> (usize, f64) {
    let mut rng = StdRng::seed_from_u64(24);
    let config = DealerConfig::new(n, t).flavor(flavor);
    let ctxs = deal(&config, &mut rng).expect("fixture keys");
    let pid = ProtocolId::new("budget");
    let mut chans: Vec<AtomicChannel> = ctxs
        .into_iter()
        .map(|keys| GroupContext::new(Arc::new(keys)))
        .map(|ctx| AtomicChannel::new(pid.clone(), ctx, AtomicChannelConfig::default()))
        .collect();
    let scope = CostScope::enter();
    let mut out = Outgoing::new();
    chans[0].send(b"lone request".to_vec(), &mut out);
    let mut queue: VecDeque<(usize, usize, Envelope)> = VecDeque::new();
    let mut at = 0;
    let mut handled = 0;
    loop {
        for (recipient, env) in out.drain() {
            let targets = match recipient {
                Recipient::All => 0..n,
                Recipient::One(p) => p.0..p.0 + 1,
            };
            queue.extend(targets.map(|to| (at, to, env.clone())));
        }
        let Some((from, to, env)) = queue.pop_front() else {
            break;
        };
        at = to;
        handled += 1;
        chans[to].handle(PartyId(from), &env.pid, &env.body, &mut out);
    }
    let work = scope.elapsed();
    for (party, chan) in chans.iter_mut().enumerate() {
        assert_eq!(chan.round(), 1, "party {party}: one round");
        let delivered = chan.take_delivery().expect("the request is delivered");
        assert_eq!((delivered.origin, delivered.seq), (PartyId(0), 0));
        assert!(chan.take_delivery().is_none());
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
        let (handled, charged) = one_round(n, t, flavor);
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
