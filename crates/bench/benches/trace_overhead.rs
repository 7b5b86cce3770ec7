//! Streaming-trace sink overhead: the same atomic-broadcast batch at
//! n = 4 over loopback TCP with the sink off vs streaming to disk.
//!
//! The sink's contract is bounded overhead on the hot path: the party's
//! loop renders each event as one JSON line into a write buffer it owns
//! (no lock, no extra thread) and writes the buffer out when it fills,
//! before the loop parks and when the party stops. This bench measures
//! the end-to-end cost of that contract: `trace-n4/off` runs with
//! observability disabled entirely, `trace-n4/streaming` runs the
//! identical workload while every party spills its full causal trace to
//! rotating `.jsonl` segments. CI's `trace-smoke` job runs the quick
//! mode three times and asserts that the median streaming/off ratio is
//! ≤ 1.10; `BENCH_trace.json` holds a full-mode run.
//!
//! Keys are 512-bit Shoup RSA so the loop carries a realistic
//! verification load; the trace cost must stay in the noise next to it,
//! which is exactly the always-on claim.
//!
//! Run with: `cargo bench -p sintra-bench --bench trace_overhead`
//! Environment: `SINTRA_BENCH_QUICK`, `SINTRA_BENCH_JSON` (see
//! `crates/compat/criterion`), `SINTRA_MESSAGES`, `SINTRA_CHANNELS`.

use std::sync::Arc;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_core::channel::AtomicChannelConfig;
use sintra_core::ProtocolId;
use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
use sintra_crypto::thsig::SigFlavor;
use sintra_net::tcp::{TcpConfig, TcpGroup, TcpHandle};
use sintra_net::{ObservabilityConfig, PartyHandle};

fn keys() -> Vec<Arc<PartyKeys>> {
    let mut rng = StdRng::seed_from_u64(23);
    let config = DealerConfig::new(4, 1)
        .key_bits(512, 512)
        .flavor(SigFlavor::ShoupRsa);
    deal(&config, &mut rng)
        .expect("dealer")
        .into_iter()
        .map(Arc::new)
        .collect()
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// One throughput batch: every party sends `per_party` payloads on every
/// channel and drains all deliveries.
fn batch(handles: &mut [TcpHandle], channels: &[ProtocolId], per_party: usize) {
    let n = handles.len();
    std::thread::scope(|scope| {
        for (i, handle) in handles.iter_mut().enumerate() {
            scope.spawn(move || {
                for m in 0..per_party {
                    for pid in channels {
                        handle.send(pid, format!("p{i}-m{m}").into_bytes());
                    }
                }
                let mut remaining = vec![n * per_party; channels.len()];
                while remaining.iter().any(|&r| r > 0) {
                    let mut progressed = false;
                    for (k, pid) in channels.iter().enumerate() {
                        while remaining[k] > 0 && handle.try_receive(pid).is_some() {
                            remaining[k] -= 1;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            });
        }
    });
}

fn bench_variant(
    c: &mut Criterion,
    id: &str,
    keys: &[Arc<PartyKeys>],
    observability: Option<ObservabilityConfig>,
) {
    let per_party = env_usize("SINTRA_MESSAGES", 2);
    let n_channels = env_usize("SINTRA_CHANNELS", 4);
    let config = TcpConfig {
        observability,
        ..TcpConfig::default()
    };
    let (group, mut handles) =
        TcpGroup::spawn_with(keys.to_vec(), config, None).expect("spawn tcp group");
    let channels: Vec<ProtocolId> = (0..n_channels)
        .map(|k| ProtocolId::new(format!("trace-bench-{k}")))
        .collect();
    for handle in &handles {
        for pid in &channels {
            handle.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
        }
    }
    // Establish sessions (and the sink's segment files) off the clock.
    batch(&mut handles, &channels, 1);
    c.bench_function(id, |b| b.iter(|| batch(&mut handles, &channels, per_party)));
    group.shutdown();
}

fn bench_trace_overhead(c: &mut Criterion) {
    let keys = keys();
    bench_variant(c, "trace-n4/off", &keys, None);

    let dir = std::env::temp_dir().join(format!("sintra-trace-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let obs = ObservabilityConfig::with_trace_dir(&dir);
    bench_variant(c, "trace-n4/streaming", &keys, Some(obs));
    // Report how much actually hit disk — a suspiciously small number
    // here would mean the "streaming" variant measured an idle sink.
    let written: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    eprintln!("trace bench: streaming variant wrote {written} bytes of trace segments");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut criterion = Criterion::default();
    bench_trace_overhead(&mut criterion);
    criterion::finalize();
}
