//! A sealed-bid auction over the *secure causal* atomic broadcast channel
//! (paper §2.6) — the use case threshold encryption exists for.
//!
//! Bidders encrypt their bids under the group's threshold public key and
//! submit the ciphertexts. The channel fixes each bid's position in the
//! total order *before* any server (or eavesdropper, or `t` colluding
//! servers) can read it — so nobody can observe a rival's bid in flight
//! and outbid it by one dollar. Only after ordering do the servers
//! jointly decrypt (any `t + 1` of them suffice).
//!
//! Run with: `cargo run --release --example sealed_bid_auction`

use std::sync::Arc;

use rand::SeedableRng;
use sintra::crypto::dealer::{deal, DealerConfig};
use sintra::protocols::channel::{AtomicChannelConfig, SecureAtomicChannel};
use sintra::runtime::tcp::TcpGroup;
use sintra::runtime::PartyHandle;
use sintra::{GroupContext, ProtocolId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (4, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1789);
    let keys = deal(&DealerConfig::small(n, t), &mut rng)?;
    // Keep one context around to play the "external client" role: clients
    // only need the *public* channel key to encrypt.
    let client_view = GroupContext::new(Arc::new(keys[0].clone()));
    let (group, mut servers) = TcpGroup::spawn(keys.into_iter().map(Arc::new).collect())?;

    let channel = ProtocolId::new("auction-lot-17");
    for s in &servers {
        s.create_secure_channel(channel.clone(), AtomicChannelConfig::default());
    }

    // --- Bidders encrypt off-platform and submit ciphertexts --------------
    // Each bidder encrypts under the channel public key and hands the
    // ciphertext to some server, which forwards it WITHOUT seeing the bid.
    let bids: &[(&str, u64, usize)] = &[
        ("alice", 4200, 0), // bidder, amount, server they submit through
        ("bob", 3900, 1),
        ("carol", 4350, 2),
        ("dave", 4100, 3),
    ];
    for (bidder, amount, via) in bids {
        let sealed = SecureAtomicChannel::encrypt(
            &client_view,
            &channel,
            format!("{bidder}:{amount}").as_bytes(),
            &mut rng,
        );
        println!(
            "{bidder} submits a sealed bid ({} bytes) via server {via}",
            sealed.len()
        );
        servers[*via].send_ciphertext(&channel, sealed);
    }

    // --- Every server opens the bids in the agreed order ------------------
    let mut winner: Option<(String, u64)> = None;
    let mut reference_order: Option<Vec<String>> = None;
    for (i, server) in servers.iter_mut().enumerate() {
        let mut order = Vec::new();
        for _ in 0..bids.len() {
            let payload = server.receive(&channel).expect("decrypted bid");
            let text = String::from_utf8_lossy(&payload.data).into_owned();
            order.push(text);
        }
        match &reference_order {
            None => {
                println!("\nbids as opened, in the agreed total order:");
                for (rank, bid) in order.iter().enumerate() {
                    println!("  {}. {}", rank + 1, bid);
                }
                // Determine the winner (highest bid; order breaks ties).
                for bid in &order {
                    let (name, amount) = bid.split_once(':').expect("well-formed bid");
                    let amount: u64 = amount.parse().expect("numeric bid");
                    if winner.as_ref().is_none_or(|(_, best)| amount > *best) {
                        winner = Some((name.to_string(), amount));
                    }
                }
                reference_order = Some(order);
            }
            Some(reference) => {
                assert_eq!(&order, reference, "server {i} saw a different order!");
            }
        }
    }

    let (name, amount) = winner.expect("at least one bid");
    println!("\nall servers agree: {name} wins at {amount} ✓");
    println!("(no server could read any bid before its position was fixed)");

    group.shutdown();
    Ok(())
}
