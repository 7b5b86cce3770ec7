//! The seven workloads and the metric tables. `/BENCHMARK.json` restates
//! the names, units, directions and bounds found here (a unit test
//! keeps the two in step); `BENCHMARK.md` gives the reasoning.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sintra_core::channel::AtomicChannelConfig;
use sintra_core::node::Node;
use sintra_core::ProtocolId;
use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
use sintra_testbed::setups::{hybrid_rtt_ms, internet_rtt_ms};

/// The dealer seed is fixed: `--seed` varies the inputs (payload bytes,
/// simulated jitter), never the key material the layers are timed on.
const DEALER_SEED: u64 = 0x51_47_52_41;

/// Which environment drives the protocol stack.
#[derive(Debug, Clone, Copy)]
pub enum Runtime {
    /// Real loopback sockets, real threads, wall-clock time.
    Tcp,
    /// The deterministic simulator under a round-trip-time matrix;
    /// latency and throughput are in virtual time.
    Sim {
        /// Pairwise RTTs in ms.
        rtt_ms: fn() -> Vec<Vec<f64>>,
        /// A sim run has no wall-clock window: it delivers
        /// `payloads_per_second × --seconds` payloads, so equal
        /// `(seed, seconds)` repeat exactly.
        payloads_per_second: usize,
    },
}

/// Which channel of the stack carries the payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    Atomic,
    SecureCausal,
}

/// One workload: a fixed traffic shape against a fixed group.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub runtime: Runtime,
    pub n: usize,
    pub t: usize,
    pub channel: Channel,
    /// Parties `0..senders` each keep `window` requests outstanding
    /// (closed loop: the next is sent when one comes back).
    pub senders: usize,
    pub window: usize,
    pub payload_len: usize,
    /// A party whose server is shut down when warm-up ends.
    pub crash: Option<usize>,
}

pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "abc4_sat",
        why: "4 senders x 2 outstanding, 64 B: every round is full, public-key work per round sets throughput; batching must show here",
        runtime: Runtime::Tcp,
        n: 4,
        t: 1,
        channel: Channel::Atomic,
        senders: 4,
        window: 2,
        payload_len: 64,
        crash: None,
    },
    Spec {
        name: "abc4_lone",
        why: "1 sender x 1 outstanding: one request per round, nothing to amortise; the latency floor, where a batching delay or extra step shows as a loss",
        runtime: Runtime::Tcp,
        n: 4,
        t: 1,
        channel: Channel::Atomic,
        senders: 1,
        window: 1,
        payload_len: 64,
        crash: None,
    },
    Spec {
        name: "abc4_bulk",
        why: "4 senders x 1, 16 KiB payloads: bytes dominate (wire encode/decode, link HMAC and framing, hashing, copies), crypto and agreement are the minority",
        runtime: Runtime::Tcp,
        n: 4,
        t: 1,
        channel: Channel::Atomic,
        senders: 4,
        window: 1,
        payload_len: 16 * 1024,
        crash: None,
    },
    Spec {
        name: "sac4_sat",
        why: "secure causal atomic channel, 4 x 2, 64 B: same ordering path plus TDH2 encrypt, ciphertext check, n decryption shares and combine after ordering",
        runtime: Runtime::Tcp,
        n: 4,
        t: 1,
        channel: Channel::SecureCausal,
        senders: 4,
        window: 2,
        payload_len: 64,
        crash: None,
    },
    Spec {
        name: "abc4_crash",
        why: "party 3 stops after warm-up, 3 live senders x 2: agreement skips a dead candidate, quorums have no slack, links queue and redial to a dead peer",
        runtime: Runtime::Tcp,
        n: 4,
        t: 1,
        channel: Channel::Atomic,
        senders: 3,
        window: 2,
        payload_len: 64,
        crash: Some(3),
    },
    Spec {
        name: "abc4_wan",
        why: "simulator, paper Fig. 3 RTTs (93-373 ms), t+1 senders x 1: latency is the count of sequential message delays, CPU nearly free; where pipelining or a step more or less shows; exact per seed",
        runtime: Runtime::Sim {
            rtt_ms: internet_rtt_ms,
            payloads_per_second: 40,
        },
        n: 4,
        t: 1,
        channel: Channel::Atomic,
        senders: 2,
        window: 1,
        payload_len: 64,
        crash: None,
    },
    Spec {
        name: "abc7_wan",
        why: "simulator, the paper's third setup (n=7, t=2, LAN plus three remote sites), t+1 senders x 1: quorums of 5, growth of messages and bytes with n; exact per seed",
        runtime: Runtime::Sim {
            rtt_ms: hybrid_rtt_ms,
            payloads_per_second: 21,
        },
        n: 7,
        t: 2,
        channel: Channel::Atomic,
        senders: 3,
        window: 1,
        payload_len: 64,
        crash: None,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Opens this workload's channel on a sans-IO node.
    pub fn open_channel(&self, node: &mut Node, pid: &ProtocolId) {
        let config = AtomicChannelConfig::default();
        match self.channel {
            Channel::Atomic => node.create_atomic_channel(pid.clone(), config),
            Channel::SecureCausal => node.create_secure_channel(pid.clone(), config),
        }
    }

    /// Deals the group's keys from the embedded fixtures: the paper's
    /// defaults (multi-signatures) at `key_bits` (1024 outside tests).
    pub fn deal_keys(&self, key_bits: u32) -> Vec<Arc<PartyKeys>> {
        let config = DealerConfig::new(self.n, self.t).key_bits(key_bits, key_bits);
        deal(&config, &mut StdRng::seed_from_u64(DEALER_SEED))
            .expect("fixture key sizes")
            .into_iter()
            .map(Arc::new)
            .collect()
    }
}

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a client of the replicated service sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The same five on every workload; every duration is at the probe's
/// reference speed (see [`crate::probe`]). The bounds are set from the
/// spreads measured on this host (`BENCHMARK.md`): each is at least
/// three times the typical spread and twice the worst one seen.
pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "throughput_pps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndMetric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "cpu_ms_per_payload",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, produced by the traced pass. No bound:
/// it explains a movement of an end-to-end metric, it is not judged.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Outside in: what the runtime adds, what the links and the wire
/// format cost, what the protocol core spends per message family, and
/// the unit costs of the crypto and bigint primitives underneath.
/// `BENCHMARK.md` says which end-to-end metric each should move.
pub const PER_LAYER: [LayerMetric; 55] = [
    // The ledger: share of end-to-end CPU no layer or counter explains.
    layer("ledger.gap_share", "ratio", Better::Lower),
    layer("telemetry.trace_overhead_ratio", "ratio", Better::Lower),
    // Runtime (traced run of the workload itself).
    layer("net.runtime_overhead_ms_per_payload", "ms", Better::Lower),
    layer("net.server_dispatch_ms_per_payload", "ms", Better::Lower),
    layer("net.server_flush_ms_per_payload", "ms", Better::Lower),
    layer("net.link_acks_per_frame", "ratio", Better::Lower),
    layer("net.link_retransmits", "count", Better::Lower),
    layer("net.link_dup_frames", "count", Better::Lower),
    layer("net.link_drops", "count", Better::Lower),
    layer("net.delivery_gap_max_ms", "ms", Better::Lower),
    // Critical-path shares from `sintra_testbed::profile::analyze`.
    layer("prof.link_share", "ratio", Better::Lower),
    layer("prof.verify-wait_share", "ratio", Better::Lower),
    layer("prof.rb-quorum_share", "ratio", Better::Lower),
    layer("prof.cb-final_share", "ratio", Better::Lower),
    layer("prof.vba-propose_share", "ratio", Better::Lower),
    layer("prof.abba-vote_share", "ratio", Better::Lower),
    layer("prof.abba-coin_share", "ratio", Better::Lower),
    layer("prof.abc-deliver_share", "ratio", Better::Lower),
    layer("prof.dispatch_share", "ratio", Better::Lower),
    layer("prof.coverage", "ratio", Better::Higher),
    // Link and wire hops (replay driver).
    layer("net.link_seal_us_per_payload", "us", Better::Lower),
    layer("net.link_open_us_per_payload", "us", Better::Lower),
    layer("net.link_frame_bytes_per_payload", "B", Better::Lower),
    layer("core.wire_encode_us_per_payload", "us", Better::Lower),
    layer("core.wire_decode_us_per_payload", "us", Better::Lower),
    layer("core.wire_bytes_per_payload", "B", Better::Lower),
    // Protocol core (replay driver).
    layer("core.handle_ms_per_payload", "ms", Better::Lower),
    layer("core.channel_ms_per_payload", "ms", Better::Lower),
    layer("core.broadcast_ms_per_payload", "ms", Better::Lower),
    layer("core.agreement_ms_per_payload", "ms", Better::Lower),
    layer("core.self_ms_per_payload", "ms", Better::Lower),
    layer("core.msgs_per_payload", "count", Better::Lower),
    layer("core.rounds_per_payload", "count", Better::Lower),
    layer("core.payloads_per_round", "count", Better::Higher),
    layer("crypto.work_units_per_payload", "count", Better::Lower),
    // Threshold primitives and bigint (isolated drives).
    layer("crypto.rsa_sign_us", "us", Better::Lower),
    layer("crypto.rsa_verify_us", "us", Better::Lower),
    layer("crypto.thsig_sign_share_us", "us", Better::Lower),
    layer("crypto.thsig_verify_share_us", "us", Better::Lower),
    layer("crypto.thsig_assemble_us", "us", Better::Lower),
    layer("crypto.thsig_verify_us", "us", Better::Lower),
    layer("crypto.coin_release_us", "us", Better::Lower),
    layer("crypto.coin_verify_batch_us", "us", Better::Lower),
    layer("crypto.coin_assemble_us", "us", Better::Lower),
    layer("crypto.tdh2_encrypt_us", "us", Better::Lower),
    layer("crypto.tdh2_verify_ct_us", "us", Better::Lower),
    layer("crypto.tdh2_dec_share_us", "us", Better::Lower),
    layer("crypto.tdh2_verify_batch_us", "us", Better::Lower),
    layer("crypto.tdh2_combine_us", "us", Better::Lower),
    layer("crypto.sha256_16k_us", "us", Better::Lower),
    layer("crypto.hmac_16k_us", "us", Better::Lower),
    layer("bigint.modexp_1024x1024_us", "us", Better::Lower),
    layer("bigint.modexp_1024x160_us", "us", Better::Lower),
    layer("bigint.multi_pow2_us", "us", Better::Lower),
    layer("bigint.fixed_base_us", "us", Better::Lower),
];

/// The direction of a metric of either table.
pub fn better(name: &str) -> Better {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.better));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.better));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map_or(Better::Lower, |(_, better)| better)
}

/// Seeded payload bytes. Every payload starts with its identity
/// `(sender, counter)` so the oracle can tell what it is looking at, and
/// continues with a slice of a seeded random pool at an offset derived
/// from that identity: distinct contents without spending the
/// generator thread's CPU (which is inside the measured process) on
/// random bytes per request.
#[derive(Debug, Clone)]
pub struct PayloadPool {
    pool: Vec<u8>,
    len: usize,
}

/// Bytes of `(sender: u32, counter: u64)` at the front of a payload.
pub const HEADER_LEN: usize = 12;

impl PayloadPool {
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len >= HEADER_LEN, "payload too short for its identity");
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..len + 4096).map(|_| rng.gen::<u8>()).collect();
        PayloadPool { pool, len }
    }

    /// The bytes of `sender`'s `counter`-th request.
    pub fn payload(&self, sender: usize, counter: u64) -> Vec<u8> {
        let mut data = Vec::with_capacity(self.len);
        data.extend_from_slice(&(sender as u32).to_be_bytes());
        data.extend_from_slice(&counter.to_be_bytes());
        let body = self.len - HEADER_LEN;
        let offset =
            (sender as u64 * 7919 + counter * 104_729) as usize % (self.pool.len() - body + 1);
        data.extend_from_slice(&self.pool[offset..offset + body]);
        data
    }

    /// Reads the identity back out of delivered bytes.
    pub fn identity(data: &[u8]) -> Option<(usize, u64)> {
        let sender = u32::from_be_bytes(data.get(0..4)?.try_into().ok()?);
        let counter = u64::from_be_bytes(data.get(4..HEADER_LEN)?.try_into().ok()?);
        Some((sender as usize, counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_seeded_and_self_describing() {
        let a = PayloadPool::new(7, 64);
        let b = PayloadPool::new(7, 64);
        let c = PayloadPool::new(8, 64);
        assert_eq!(a.payload(2, 5), b.payload(2, 5));
        assert_ne!(a.payload(2, 5), c.payload(2, 5));
        assert_ne!(a.payload(2, 5), a.payload(2, 6));
        assert_eq!(a.payload(3, 9).len(), 64);
        assert_eq!(PayloadPool::identity(&a.payload(3, 9)), Some((3, 9)));
        assert_eq!(PayloadPool::identity(&[0; 5]), None);
        assert_eq!(
            PayloadPool::new(1, 16 * 1024).payload(0, 1).len(),
            16 * 1024
        );
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert!(w.n > 3 * w.t);
            assert!(w.senders <= w.n);
            assert_eq!(Spec::by_name(w.name).map(|s| s.name), Some(w.name));
            assert!(w.why.len() <= 200, "{}", w.name);
            assert_eq!(
                WORKLOADS.iter().filter(|o| o.name == w.name).count(),
                1,
                "{}",
                w.name
            );
        }
        assert!(Spec::by_name("nope").is_none());
    }
}
