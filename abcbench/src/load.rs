//! The closed-loop load generator's bookkeeping and the correctness
//! oracle, shared by the TCP, simulator and replay drivers. Time is
//! passed in as seconds on whatever clock the driver runs (wall or
//! virtual); this module never reads a clock.
//!
//! Closed loop, because a client of a replicated service waits for its
//! reply before it sends the next request: a slower stack receives less
//! load instead of growing a queue, and throughput and latency stay tied
//! by `outstanding = throughput × latency`.

use std::collections::HashMap;

use sintra_core::message::{Payload, PayloadKind};

use crate::slices::{self, Slice};
use crate::stats;
use crate::workload::{PayloadPool, Spec};

/// A request counts as failed when it is still outstanding this long
/// after the generator stopped sending.
pub const DRAIN_LIMIT_S: f64 = 5.0;

/// Checks, on every delivery of every party, what atomic broadcast
/// promises: agreement and total order (all live parties deliver the
/// same `(origin, seq)` sequence), integrity (each request exactly
/// once, bytes equal to what was sent — plaintext equality on the
/// secure channel), per-sender FIFO, and no loss from a live sender.
#[derive(Debug)]
pub struct Oracle {
    pool: PayloadPool,
    /// Per party: the delivered `(origin, seq)` sequence.
    logs: Vec<Vec<(usize, u64)>>,
    /// Per party and sender: the counter expected next.
    next: Vec<Vec<u64>>,
    violations: Vec<String>,
}

impl Oracle {
    fn new(pool: PayloadPool, n: usize) -> Self {
        Oracle {
            pool,
            logs: vec![Vec::new(); n],
            next: vec![vec![0; n]; n],
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 32 {
            eprintln!("sintra-bench: ORACLE VIOLATION: {what}");
        }
        self.violations.push(what);
    }

    /// Checks one delivery at `party`; returns the request's identity
    /// when the bytes are a well-formed request of this run.
    fn observe(&mut self, party: usize, payload: &Payload) -> Option<(usize, u64)> {
        if payload.kind != PayloadKind::App {
            self.violation(format!("party {party} delivered a non-application payload"));
            return None;
        }
        let Some((sender, counter)) = PayloadPool::identity(&payload.data) else {
            self.violation(format!("party {party} delivered bytes without an identity"));
            return None;
        };
        if sender >= self.next.len() || payload.origin.0 != sender {
            self.violation(format!(
                "party {party}: payload of sender {sender} attributed to origin {}",
                payload.origin.0
            ));
            return None;
        }
        if payload.data != self.pool.payload(sender, counter) {
            self.violation(format!(
                "party {party}: bytes of request ({sender},{counter}) differ from what was sent"
            ));
        }
        // Channels deliver each sender's requests in send order, so a
        // duplicate, a gap and a reordering all show as a counter that
        // is not the next one.
        let expected = self.next[party][sender];
        if counter != expected {
            self.violation(format!(
                "party {party}: request ({sender},{counter}) delivered where ({sender},{expected}) was due"
            ));
        }
        self.next[party][sender] = counter + 1;
        self.logs[party].push((payload.origin.0, payload.seq));
        Some((sender, counter))
    }

    /// Requests of `sender` delivered at `party` so far.
    pub fn delivered(&self, party: usize, sender: usize) -> u64 {
        self.next[party][sender]
    }

    /// End-of-run checks. `live` parties must hold identical logs; a
    /// crashed party's log must be a prefix of theirs.
    fn finish(&mut self, live: &[usize]) {
        let reference = self.logs[live[0]].clone();
        for party in 0..self.logs.len() {
            let log = &self.logs[party];
            let agrees = if live.contains(&party) {
                *log == reference
            } else {
                reference.starts_with(log)
            };
            if !agrees {
                let at = log
                    .iter()
                    .zip(&reference)
                    .position(|(a, b)| a != b)
                    .unwrap_or(log.len().min(reference.len()));
                self.violation(format!(
                    "party {party} disagrees with party {} on the delivery order at position {at} \
                     (lengths {} and {})",
                    live[0],
                    log.len(),
                    reference.len()
                ));
            }
        }
    }
}

/// What a finished run measured, on the driver's clock.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent over the whole run (set-up and warm-up included).
    pub attempted: u64,
    /// Requests never delivered at their origin within
    /// [`DRAIN_LIMIT_S`], requests lost at a live party, and oracle
    /// violations.
    pub failed: u64,
    /// Requests that came back to their origin over the whole run.
    pub returned: u64,
    /// `(completed_at, latency)` in seconds of the requests completed at
    /// their origin inside the window, in completion order.
    completions: Vec<(f64, f64)>,
    /// Length of the window in seconds.
    pub window_s: f64,
    /// Longest pause between two consecutive completions in the window.
    pub delivery_gap_max_ms: f64,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Requests completed at their origin inside the window.
    pub fn completed(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Over the whole window.
    pub fn throughput_pps(&self) -> f64 {
        self.completed() as f64 / self.window_s
    }

    /// Origin-to-origin latencies of the window in ms, ascending, each
    /// multiplied by `scale(completed_at)`.
    pub fn latencies_ms(&self, scale: impl Fn(f64) -> f64) -> Vec<f64> {
        let scaled: Vec<f64> = self
            .completions
            .iter()
            .map(|(at, latency)| latency * 1000.0 * scale(*at))
            .collect();
        stats::sorted(&scaled)
    }
}

/// One driver's run of a workload: the outcome on the driver's clock
/// plus what it cost this process, slice by slice. Every duration it
/// reports is at the probe's reference speed (see [`crate::probe`]):
/// each slice's wall and CPU time and each latency is multiplied by the
/// host speed of the slice it fell into. Virtual time is left alone.
#[derive(Debug, Clone)]
pub struct Run {
    pub outcome: Outcome,
    /// The window, cut into slices of about a second of wall time.
    pub slices: Vec<Slice>,
    /// Process start (in the traced pass: the driver's call) until the
    /// first request was delivered at every party — key dealing from
    /// fixtures, group or simulation construction, handshakes, channel
    /// creation — in seconds at the reference speed.
    pub setup_s: f64,
    /// Simulator only: point-to-point messages and wire bytes of the
    /// measured phase. The outcome's clock is then virtual.
    pub sim_traffic: Option<(u64, u64)>,
}

impl Run {
    fn virtual_time(&self) -> bool {
        self.sim_traffic.is_some()
    }

    /// Requests per second of the window: virtual seconds on the
    /// simulator, wall seconds at the reference speed otherwise.
    pub fn throughput_pps(&self) -> f64 {
        if self.virtual_time() {
            self.outcome.throughput_pps()
        } else {
            self.outcome.completed() as f64 / slices::reference_s(&self.slices)
        }
    }

    /// Origin-to-origin latencies of the window, ascending, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        if self.virtual_time() {
            return self.outcome.latencies_ms(|_| 1.0);
        }
        self.outcome.latencies_ms(|at| {
            let slice = self.slices.iter().find(|s| at < s.to);
            slice.or(self.slices.last()).map_or(1.0, |s| s.speed)
        })
    }

    /// Real CPU of the whole process over the window per completed
    /// request, on either runtime.
    pub fn cpu_ms_per_payload(&self) -> f64 {
        let cpu_ms: f64 = self.slices.iter().map(|s| s.cpu_ms * s.speed).sum();
        cpu_ms / self.outcome.completed() as f64
    }
}

/// Generator state: who may send, what is outstanding, what completed.
#[derive(Debug)]
pub struct Load {
    pool: PayloadPool,
    senders: usize,
    window: usize,
    live: Vec<usize>,
    /// Per sender: requests sent.
    sent: Vec<u64>,
    /// Per sender: requests that came back.
    returned: Vec<u64>,
    sent_at: HashMap<(usize, u64), f64>,
    /// `(completed_at, latency)` of every request that came back.
    completions: Vec<(f64, f64)>,
    oracle: Oracle,
}

impl Load {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let pool = PayloadPool::new(seed, spec.payload_len);
        Load {
            oracle: Oracle::new(pool.clone(), spec.n),
            pool,
            senders: spec.senders,
            window: spec.window,
            live: (0..spec.n).collect(),
            sent: vec![0; spec.n],
            returned: vec![0; spec.n],
            sent_at: HashMap::new(),
            completions: Vec::new(),
        }
    }

    /// Marks `party` as crashed: it is no longer expected to deliver.
    pub fn crash(&mut self, party: usize) {
        self.live.retain(|p| *p != party);
    }

    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Number of sending parties.
    pub fn senders(&self) -> usize {
        self.senders
    }

    /// The next request of `sender` if its window has room.
    pub fn next_request(&mut self, sender: usize, now: f64) -> Option<Vec<u8>> {
        let outstanding = self.sent[sender] - self.returned[sender];
        if sender >= self.senders || outstanding as usize >= self.window {
            return None;
        }
        let counter = self.sent[sender];
        self.sent[sender] += 1;
        self.sent_at.insert((sender, counter), now);
        Some(self.pool.payload(sender, counter))
    }

    /// Records a delivery at `party`; returns the sender whose window
    /// it reopened (the request came back to its origin).
    pub fn on_delivery(&mut self, party: usize, payload: &Payload, now: f64) -> Option<usize> {
        let (sender, counter) = self.oracle.observe(party, payload)?;
        if sender != party {
            return None;
        }
        let sent_at = self.sent_at.remove(&(sender, counter))?;
        self.returned[sender] += 1;
        self.completions.push((now, now - sent_at));
        Some(sender)
    }

    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Whether every request sent so far has been delivered by every
    /// live party.
    pub fn quiescent(&self) -> bool {
        self.live.iter().all(|&party| {
            (0..self.senders).all(|s| self.oracle.delivered(party, s) == self.sent[s])
        })
    }

    /// Closes the books: `[from, to)` is the measured window, the run is
    /// over and everything that will ever arrive has arrived.
    pub fn finish(mut self, from: f64, to: f64) -> Outcome {
        self.oracle.finish(&self.live);
        let mut lost = 0;
        for &party in &self.live {
            for sender in 0..self.senders {
                lost +=
                    self.sent[sender] - self.oracle.delivered(party, sender).min(self.sent[sender]);
            }
        }
        let completions: Vec<(f64, f64)> = self
            .completions
            .iter()
            .copied()
            .filter(|(at, _)| *at >= from && *at <= to)
            .collect();
        let gap = completions
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .fold(0.0, f64::max);
        Outcome {
            attempted: self.total_sent(),
            returned: self.completions.len() as u64,
            failed: lost + self.oracle.violations.len() as u64,
            completions,
            window_s: to - from,
            delivery_gap_max_ms: gap * 1000.0,
            violations: self.oracle.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_core::PartyId;

    fn spec() -> Spec {
        Spec {
            senders: 2,
            window: 1,
            ..*Spec::by_name("abc4_sat").unwrap()
        }
    }

    fn payload(origin: usize, seq: u64, data: Vec<u8>) -> Payload {
        Payload {
            origin: PartyId(origin),
            seq,
            kind: PayloadKind::App,
            data,
        }
    }

    /// Delivers `data` (of `origin`) at all four parties at time `at`.
    fn deliver_everywhere(load: &mut Load, origin: usize, seq: u64, data: &[u8], at: f64) {
        for party in 0..4 {
            load.on_delivery(party, &payload(origin, seq, data.to_vec()), at);
        }
    }

    #[test]
    fn window_closes_and_reopens() {
        let mut load = Load::new(&spec(), 1);
        let a = load.next_request(0, 0.0).expect("window open");
        assert!(load.next_request(0, 0.0).is_none(), "window of one is full");
        assert!(
            load.next_request(2, 0.0).is_none(),
            "party 2 is not a sender"
        );
        assert!(!load.quiescent());
        assert_eq!(load.on_delivery(1, &payload(0, 0, a.clone()), 0.5), None);
        assert_eq!(load.on_delivery(0, &payload(0, 0, a.clone()), 0.5), Some(0));
        assert!(load.next_request(0, 0.5).is_some(), "window reopened");
    }

    #[test]
    fn clean_run_accounts_latency_and_failed_share() {
        let mut load = Load::new(&spec(), 1);
        // Warm-up request at t=0, back at t=1 (outside the window).
        let w = load.next_request(0, 0.0).unwrap();
        deliver_everywhere(&mut load, 0, 0, &w, 1.0);
        // Two measured requests: 100 ms and 300 ms.
        let a = load.next_request(0, 2.0).unwrap();
        let b = load.next_request(1, 2.0).unwrap();
        deliver_everywhere(&mut load, 0, 1, &a, 2.1);
        deliver_everywhere(&mut load, 1, 0, &b, 2.3);
        assert!(load.quiescent());
        let out = load.finish(2.0, 4.0);
        assert!(out.correct(), "{:?}", out.violations);
        assert_eq!((out.attempted, out.failed, out.completed()), (3, 0, 2));
        assert_eq!(out.throughput_pps(), 1.0);
        assert!((out.delivery_gap_max_ms - 200.0).abs() < 1e-6);
        // Two slices of the window: the host ran [2, 2.2) at the
        // reference speed and [2.2, 4) at half of it, so what happened
        // there counts half.
        let slice = |from: f64, to: f64, speed: f64| Slice {
            from,
            to,
            wall_s: to - from,
            cpu_ms: 50.0,
            steal_ms: 0.0,
            speed,
        };
        let mut run = Run {
            outcome: out,
            slices: vec![slice(2.0, 2.2, 1.0), slice(2.2, 4.0, 0.5)],
            setup_s: 0.1,
            sim_traffic: None,
        };
        let raw = run.outcome.latencies_ms(|_| 1.0);
        assert!((stats::percentile(&raw, 0.5) - 100.0).abs() < 1e-6);
        assert!((stats::percentile(&raw, 0.9) - 300.0).abs() < 1e-6);
        let latencies = run.latencies_ms();
        assert!((latencies[0] - 100.0).abs() < 1e-6, "completed at 2.1");
        assert!((latencies[1] - 150.0).abs() < 1e-6, "completed at 2.3");
        assert!((run.throughput_pps() - 2.0 / (0.2 + 0.9)).abs() < 1e-9);
        assert!((run.cpu_ms_per_payload() - (50.0 + 25.0) / 2.0).abs() < 1e-9);
        // The simulator's clock is virtual: only CPU is corrected.
        run.sim_traffic = Some((0, 0));
        assert_eq!(run.throughput_pps(), 1.0);
        assert_eq!(run.latencies_ms(), raw);
        assert!((run.cpu_ms_per_payload() - 37.5).abs() < 1e-9);
    }

    #[test]
    fn outstanding_and_lost_requests_fail() {
        let mut load = Load::new(&spec(), 1);
        let a = load.next_request(0, 0.0).unwrap();
        let _never = load.next_request(1, 0.0).unwrap();
        // Request a reaches everyone but party 3; b reaches no one.
        for party in 0..3 {
            load.on_delivery(party, &payload(0, 0, a.clone()), 0.1);
        }
        let out = load.finish(0.0, 1.0);
        assert!(!out.correct());
        // a: lost at party 3 (1). b: lost at all four (4). Party 3's
        // shorter log is also an order disagreement (1).
        assert_eq!(out.attempted, 2);
        assert_eq!(out.failed, 6);
        assert_eq!(out.completed(), 1);
    }

    #[test]
    fn crashed_party_is_excused_but_must_hold_a_prefix() {
        let mut load = Load::new(&spec(), 1);
        let a = load.next_request(0, 0.0).unwrap();
        deliver_everywhere(&mut load, 0, 0, &a, 0.1);
        load.crash(3);
        let b = load.next_request(0, 0.2).unwrap();
        for party in 0..3 {
            load.on_delivery(party, &payload(0, 1, b.clone()), 0.3);
        }
        assert!(load.quiescent());
        let out = load.finish(0.0, 1.0);
        assert!(out.correct(), "{:?}", out.violations);
    }

    #[test]
    fn oracle_catches_each_kind_of_violation() {
        /// Two requests in flight, delivered as `tamper` sees fit.
        fn run(tamper: impl Fn(&mut Load, Vec<u8>, Vec<u8>)) -> Outcome {
            let mut load = Load::new(&spec(), 1);
            let a = load.next_request(0, 0.0).unwrap();
            let b = load.next_request(1, 0.0).unwrap();
            tamper(&mut load, a, b);
            load.finish(0.0, 1.0)
        }
        // Baseline: both everywhere, same order.
        let clean = run(|load, a, b| {
            deliver_everywhere(load, 0, 0, &a, 0.1);
            deliver_everywhere(load, 1, 0, &b, 0.1);
        });
        assert!(clean.correct());
        // Total order: party 2 sees them the other way round.
        let reordered = run(|load, a, b| {
            for party in 0..4 {
                let (first, second) = if party == 2 {
                    ((1, &b), (0, &a))
                } else {
                    ((0, &a), (1, &b))
                };
                load.on_delivery(party, &payload(first.0, 0, first.1.clone()), 0.1);
                load.on_delivery(party, &payload(second.0, 0, second.1.clone()), 0.1);
            }
        });
        assert!(!reordered.correct());
        assert!(reordered.violations[0].contains("delivery order"));
        // Integrity: a duplicate delivery.
        let duplicated = run(|load, a, b| {
            deliver_everywhere(load, 0, 0, &a, 0.1);
            deliver_everywhere(load, 1, 0, &b, 0.1);
            load.on_delivery(1, &payload(0, 0, a.clone()), 0.2);
        });
        assert!(!duplicated.correct());
        // Integrity: a flipped byte.
        let corrupted = run(|load, a, b| {
            deliver_everywhere(load, 0, 0, &a, 0.1);
            let mut bad = b.clone();
            *bad.last_mut().unwrap() ^= 1;
            deliver_everywhere(load, 1, 0, &bad, 0.1);
        });
        assert!(corrupted.violations.iter().any(|v| v.contains("differ")));
        // Wrong origin.
        let misattributed = run(|load, a, b| {
            deliver_everywhere(load, 0, 0, &a, 0.1);
            deliver_everywhere(load, 2, 0, &b, 0.1);
        });
        assert!(misattributed
            .violations
            .iter()
            .any(|v| v.contains("origin")));
    }
}
