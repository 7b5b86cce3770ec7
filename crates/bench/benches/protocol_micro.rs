//! Criterion micro-benchmarks of whole protocol instances: the wall-clock
//! computation cost (all real cryptography, zero network latency) of one
//! broadcast, one binary agreement, and one atomic-broadcast round at
//! n = 4.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use sintra_core::channel::AtomicChannelConfig;
use sintra_core::node::Node;
use sintra_core::pump::{Choice, Pump};
use sintra_core::{GroupContext, Outgoing, PartyId, ProtocolId};
use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};

fn keys(key_bits: u32) -> Vec<Arc<PartyKeys>> {
    let mut rng = StdRng::seed_from_u64(61);
    let config = DealerConfig::new(4, 1).key_bits(key_bits, key_bits);
    deal(&config, &mut rng)
        .unwrap()
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Synchronously pumps all messages to quiescence (zero-latency network).
fn pump(nodes: &mut [Node], outs: Vec<(usize, Outgoing)>) {
    let mut pump = Pump::new(nodes.len(), Choice::Fifo);
    pump.extend(outs);
    pump.run(nodes, Node::handle_envelope, 1_000_000)
        .expect("group did not quiesce");
}

fn fresh_nodes(keys: &[Arc<PartyKeys>]) -> Vec<Node> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| Node::new(GroupContext::new(Arc::clone(k)), i as u64))
        .collect()
}

fn bench_protocols(c: &mut Criterion) {
    let keys_1024 = keys(1024);
    let mut group = c.benchmark_group("protocol-n4-1024");
    group.sample_size(10);

    let mut counter = 0u64;
    group.bench_function("reliable-broadcast", |b| {
        b.iter(|| {
            counter += 1;
            let pid = ProtocolId::new(format!("rb-{counter}"));
            let mut nodes = fresh_nodes(&keys_1024);
            for node in nodes.iter_mut() {
                node.create_reliable_broadcast(pid.clone(), PartyId(0));
            }
            let mut out = Outgoing::new();
            nodes[0].broadcast_send(&pid, b"payload".to_vec(), &mut out);
            pump(&mut nodes, vec![(0, out)]);
        })
    });

    group.bench_function("consistent-broadcast", |b| {
        b.iter(|| {
            counter += 1;
            let pid = ProtocolId::new(format!("cb-{counter}"));
            let mut nodes = fresh_nodes(&keys_1024);
            for node in nodes.iter_mut() {
                node.create_consistent_broadcast(pid.clone(), PartyId(0));
            }
            let mut out = Outgoing::new();
            nodes[0].broadcast_send(&pid, b"payload".to_vec(), &mut out);
            pump(&mut nodes, vec![(0, out)]);
        })
    });

    group.bench_function("binary-agreement-unanimous", |b| {
        b.iter(|| {
            counter += 1;
            let pid = ProtocolId::new(format!("ba-{counter}"));
            let mut nodes = fresh_nodes(&keys_1024);
            for node in nodes.iter_mut() {
                node.create_binary_agreement(pid.clone(), None, None);
            }
            let mut outs = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let mut out = Outgoing::new();
                node.propose_binary(&pid, true, Vec::new(), &mut out);
                outs.push((i, out));
            }
            pump(&mut nodes, outs);
        })
    });

    group.bench_function("binary-agreement-split", |b| {
        b.iter(|| {
            counter += 1;
            let pid = ProtocolId::new(format!("bas-{counter}"));
            let mut nodes = fresh_nodes(&keys_1024);
            for node in nodes.iter_mut() {
                node.create_binary_agreement(pid.clone(), None, None);
            }
            let mut outs = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let mut out = Outgoing::new();
                node.propose_binary(&pid, i % 2 == 0, Vec::new(), &mut out);
                outs.push((i, out));
            }
            pump(&mut nodes, outs);
        })
    });

    group.bench_function("atomic-round-one-payload", |b| {
        b.iter(|| {
            counter += 1;
            let pid = ProtocolId::new(format!("ac-{counter}"));
            let mut nodes = fresh_nodes(&keys_1024);
            for node in nodes.iter_mut() {
                node.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
            }
            let mut out = Outgoing::new();
            nodes[0].channel_send(&pid, b"payload".to_vec(), &mut out);
            pump(&mut nodes, vec![(0, out)]);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
