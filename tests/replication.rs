//! End-to-end state-machine replication: the paper's raison d'être.
//! A bank-ledger state machine is replicated over the atomic channel in
//! the simulator and over real threads and loopback sockets, with and
//! without faults, and all replicas must converge to the same state.

mod common;

use std::collections::BTreeMap;

use common::{delivered_data, group_keys, lan_sim, wan_sim};
use sintra::protocols::channel::AtomicChannelConfig;
use sintra::runtime::sim::Fault;
use sintra::runtime::tcp::TcpGroup;
use sintra::runtime::PartyHandle;
use sintra::ProtocolId;

/// A deterministic state machine: account balances with transfers.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Ledger {
    balances: BTreeMap<String, i64>,
    /// Per account, the transfers out of it that were applied.
    transfers_out: BTreeMap<String, usize>,
}

impl Ledger {
    fn apply(&mut self, command: &[u8]) {
        let text = String::from_utf8_lossy(command);
        let parts: Vec<&str> = text.split(' ').collect();
        match parts.as_slice() {
            ["deposit", account, amount] => {
                if let Ok(v) = amount.parse::<i64>() {
                    *self.balances.entry(account.to_string()).or_insert(0) += v;
                }
            }
            ["transfer", from, to, amount] => {
                if let Ok(v) = amount.parse::<i64>() {
                    let available = self.balances.get(*from).copied().unwrap_or(0);
                    // Deterministic business rule: reject overdrafts.
                    if available >= v {
                        *self.balances.entry(from.to_string()).or_insert(0) -= v;
                        *self.balances.entry(to.to_string()).or_insert(0) += v;
                        *self.transfers_out.entry(from.to_string()).or_insert(0) += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

fn replay(commands: &[Vec<u8>]) -> Ledger {
    let mut ledger = Ledger::default();
    for c in commands {
        ledger.apply(c);
    }
    ledger
}

#[test]
fn replicated_ledger_converges_in_simulation() {
    let pid = ProtocolId::new("ledger");
    let mut sim = wan_sim(4, 1, 3000);
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    // Conflicting concurrent commands through different servers: the
    // outcome depends on the order, so convergence proves total order.
    let commands: Vec<(usize, &str)> = vec![
        (0, "deposit alice 100"),
        (1, "deposit bob 50"),
        (2, "transfer alice bob 80"),
        (3, "transfer alice carol 80"), // at most one of the two transfers succeeds
        (0, "transfer bob alice 10"),
    ];
    for (server, cmd) in commands {
        let spid = pid.clone();
        let bytes = cmd.as_bytes().to_vec();
        sim.schedule(0, server, move |node, out| {
            node.channel_send(&spid, bytes, out);
        });
    }
    sim.run();
    let order = delivered_data(&sim, 0, &pid);
    let reference = replay(&order);
    assert_eq!(order.len(), 5);
    for p in 1..4 {
        let state = replay(&delivered_data(&sim, p, &pid));
        assert_eq!(state, reference, "replica {p} diverged");
    }
    // Money conservation: deposits put 150 into the system.
    let total: i64 = reference.balances.values().sum();
    assert_eq!(total, 150);
    // The outcome the agreed order dictates: alice holds at most 110, so
    // the first transfer of 80 after her deposit succeeds and the other
    // fails; before it, neither can.
    let at = |cmd: &str| order.iter().position(|c| c == cmd.as_bytes()).unwrap();
    let deposit = at("deposit alice 100");
    let funded = [at("transfer alice bob 80"), at("transfer alice carol 80")]
        .into_iter()
        .any(|transfer| transfer > deposit);
    let out_of_alice = reference.transfers_out.get("alice").copied().unwrap_or(0);
    assert_eq!(out_of_alice, usize::from(funded), "transfers out of alice");
}

#[test]
fn replicated_ledger_converges_with_crash() {
    let pid = ProtocolId::new("ledger-crash");
    let mut sim = lan_sim(4, 1, 3100);
    for p in 0..4 {
        sim.node_mut(p)
            .create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    sim.set_fault(1, Fault::Crash { at_us: 100_000 });
    for k in 0..6u64 {
        let spid = pid.clone();
        sim.schedule(k * 40_000, 0, move |node, out| {
            node.channel_send(&spid, format!("deposit acct{k} 1").into_bytes(), out);
        });
    }
    sim.run();
    let reference = replay(&delivered_data(&sim, 0, &pid));
    assert_eq!(reference.balances.len(), 6, "all deposits applied");
    for p in [2usize, 3] {
        assert_eq!(
            replay(&delivered_data(&sim, p, &pid)),
            reference,
            "replica {p}"
        );
    }
}

#[test]
fn replicated_ledger_over_real_threads() {
    let keys = group_keys(4, 1, 3200);
    let (group, mut servers) = TcpGroup::spawn(keys).expect("bind loopback");
    let pid = ProtocolId::new("ledger-threads");
    for s in &servers {
        s.create_atomic_channel(pid.clone(), AtomicChannelConfig::default());
    }
    let commands = [
        (0usize, "deposit alice 10"),
        (1, "deposit alice 20"),
        (2, "deposit bob 5"),
        (3, "transfer alice bob 15"),
    ];
    for (server, cmd) in commands {
        servers[server].send(&pid, cmd.as_bytes().to_vec());
    }
    let mut ledgers = Vec::new();
    for server in servers.iter_mut() {
        let mut ledger = Ledger::default();
        for _ in 0..commands.len() {
            let payload = server.receive(&pid).expect("delivery");
            ledger.apply(&payload.data);
        }
        ledgers.push(ledger);
    }
    for (i, l) in ledgers.iter().enumerate().skip(1) {
        assert_eq!(l, &ledgers[0], "replica {i}");
    }
    assert_eq!(ledgers[0].balances.values().sum::<i64>(), 35);
    group.shutdown();
}

#[test]
fn confidential_replication_over_secure_channel() {
    // The same ledger but commands stay encrypted until ordered.
    let pid = ProtocolId::new("ledger-secure");
    let mut sim = lan_sim(4, 1, 3300);
    for p in 0..4 {
        sim.node_mut(p)
            .create_secure_channel(pid.clone(), AtomicChannelConfig::default());
    }
    for (k, cmd) in ["deposit alice 7", "deposit bob 3", "transfer alice bob 2"]
        .iter()
        .enumerate()
    {
        let spid = pid.clone();
        let bytes = cmd.as_bytes().to_vec();
        sim.schedule(0, k % 4, move |node, out| {
            node.channel_send(&spid, bytes, out);
        });
    }
    sim.run();
    let reference = replay(&delivered_data(&sim, 0, &pid));
    assert_eq!(reference.balances.values().sum::<i64>(), 10);
    for p in 1..4 {
        assert_eq!(
            replay(&delivered_data(&sim, p, &pid)),
            reference,
            "replica {p}"
        );
    }
}
