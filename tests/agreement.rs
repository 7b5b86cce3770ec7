//! Integration tests for binary and multi-valued Byzantine agreement
//! across realistic (jittered, reordered) simulated schedules.

mod common;

use common::{binary_decisions, lan_sim, multi_decisions, wan_sim};
use sintra::protocols::agreement::CandidateOrder;
use sintra::protocols::validator::{ArrayValidator, BinaryValidator};
use sintra::runtime::sim::byzantine::Silent;
use sintra::ProtocolId;

#[test]
fn binary_agreement_unanimity_under_jitter() {
    for seed in 0..5u64 {
        let pid = ProtocolId::new("ba-u");
        let mut sim = wan_sim(4, 1, 400 + seed);
        for p in 0..4 {
            sim.node_mut(p)
                .create_binary_agreement(pid.clone(), None, None);
        }
        for p in 0..4 {
            let spid = pid.clone();
            sim.schedule(0, p, move |node, out| {
                node.propose_binary(&spid, true, Vec::new(), out);
            });
        }
        sim.run();
        let decisions = binary_decisions(&sim, &pid, 4);
        for (p, d) in decisions.iter().enumerate() {
            assert_eq!(*d, Some(true), "seed {seed} party {p}");
        }
    }
}

#[test]
fn binary_agreement_split_proposals_agree() {
    for seed in 0..6u64 {
        let pid = ProtocolId::new("ba-s");
        let mut sim = wan_sim(4, 1, 500 + seed);
        for p in 0..4 {
            sim.node_mut(p)
                .create_binary_agreement(pid.clone(), None, None);
        }
        for p in 0..4 {
            let spid = pid.clone();
            let value = p % 2 == 0;
            sim.schedule((p as u64) * 50_000, p, move |node, out| {
                node.propose_binary(&spid, value, Vec::new(), out);
            });
        }
        sim.run();
        let decisions = binary_decisions(&sim, &pid, 4);
        let first = decisions[0].expect("decided");
        for (p, d) in decisions.iter().enumerate() {
            assert_eq!(*d, Some(first), "seed {seed} party {p}: {decisions:?}");
        }
    }
}

#[test]
fn binary_agreement_with_silent_party() {
    // One party is silent (Byzantine-crash); the other n - t = 3 decide.
    let pid = ProtocolId::new("ba-silent");
    let mut sim = lan_sim(4, 1, 600);
    for p in 0..3 {
        sim.node_mut(p)
            .create_binary_agreement(pid.clone(), None, None);
    }
    sim.set_byzantine(3, Box::new(Silent));
    for p in 0..3 {
        let spid = pid.clone();
        let value = p == 0;
        sim.schedule(0, p, move |node, out| {
            node.propose_binary(&spid, value, Vec::new(), out);
        });
    }
    sim.run();
    let decisions = binary_decisions(&sim, &pid, 4);
    let first = decisions[0].expect("decided");
    for (p, d) in decisions.iter().enumerate().take(3) {
        assert_eq!(*d, Some(first), "party {p}");
    }
    assert_eq!(decisions[3], None);
}

#[test]
fn validated_biased_agreement_from_node_api() {
    let pid = ProtocolId::new("ba-vb");
    let mut sim = lan_sim(4, 1, 601);
    let validator = BinaryValidator::new(|value, proof| !value || proof == b"ticket");
    for p in 0..4 {
        sim.node_mut(p)
            .create_binary_agreement(pid.clone(), Some(validator.clone()), Some(true));
    }
    // Two parties propose the biased value 1 (with the "ticket" proving
    // its validity), two propose 0. Every quorum of n - t = 3 pre-votes
    // then contains a 1, so the protocol *detects* an honest proposal of
    // the preferred value — the paper's bias property requires it to
    // decide 1, and the proof must propagate to every decider.
    for p in 0..4 {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            if p % 2 == 0 {
                node.propose_binary(&spid, true, b"ticket".to_vec(), out);
            } else {
                node.propose_binary(&spid, false, Vec::new(), out);
            }
        });
    }
    sim.run();
    let decisions = binary_decisions(&sim, &pid, 4);
    for (p, d) in decisions.iter().enumerate() {
        assert_eq!(*d, Some(true), "party {p}");
    }
}

#[test]
fn invalid_candidate_cannot_win_its_binary_agreement() {
    // Party 0 judges with a predicate that accepts anything and proposes
    // a value the others' predicate refuses. With candidate 0 examined
    // first, the honest parties echo its broadcast, so its closing is
    // valid; a yes-vote or a 1 backed by it must still not count for
    // them, or the 1-biased agreement could decide a value they cannot
    // deliver, and they would never decide.
    for seed in 0..12u64 {
        let pid = ProtocolId::new(format!("vba-invalid-{seed}"));
        let mut sim = wan_sim(4, 1, 950 + seed);
        let ok = ArrayValidator::new(|value| value.starts_with(b"ok:"));
        for p in 0..4 {
            let validator = if p == 0 {
                ArrayValidator::always()
            } else {
                ok.clone()
            };
            sim.node_mut(p)
                .create_multi_valued(pid.clone(), validator, CandidateOrder::Fixed);
        }
        for p in 0..4 {
            let spid = pid.clone();
            let value = if p == 0 {
                b"bad:0".to_vec()
            } else {
                format!("ok:{p}").into_bytes()
            };
            sim.schedule(0, p, move |node, out| {
                node.propose_multi(&spid, value, out);
            });
        }
        sim.run();
        let decisions = multi_decisions(&sim, &pid, 4);
        let first = decisions[1].clone();
        let first = first.unwrap_or_else(|| panic!("seed {seed}: undecided {decisions:?}"));
        assert!(first.starts_with(b"ok:"), "seed {seed}: external validity");
        for (p, d) in decisions.iter().enumerate().skip(1) {
            assert_eq!(d.as_ref(), Some(&first), "seed {seed} party {p}");
        }
    }
}

#[test]
fn multi_valued_agreement_under_jitter() {
    for order in [CandidateOrder::Fixed, CandidateOrder::LocalRandom] {
        for seed in 0..3u64 {
            let pid = ProtocolId::new(format!("vba-{order:?}-{seed}"));
            let mut sim = wan_sim(4, 1, 700 + seed);
            for p in 0..4 {
                sim.node_mut(p)
                    .create_multi_valued(pid.clone(), ArrayValidator::always(), order);
            }
            let proposals: Vec<Vec<u8>> = (0..4)
                .map(|p| format!("proposal-{p}").into_bytes())
                .collect();
            for (p, proposal) in proposals.iter().enumerate() {
                let spid = pid.clone();
                let value = proposal.clone();
                sim.schedule(0, p, move |node, out| {
                    node.propose_multi(&spid, value, out);
                });
            }
            sim.run();
            let decisions = multi_decisions(&sim, &pid, 4);
            let first = decisions[0].clone().expect("decided");
            assert!(proposals.contains(&first), "external validity");
            for (p, d) in decisions.iter().enumerate() {
                assert_eq!(d.as_ref(), Some(&first), "{order:?} seed {seed} party {p}");
            }
        }
    }
}

#[test]
fn multi_valued_agreement_with_crashed_party() {
    let pid = ProtocolId::new("vba-crash");
    let mut sim = lan_sim(4, 1, 800);
    for p in 0..4 {
        sim.node_mut(p).create_multi_valued(
            pid.clone(),
            ArrayValidator::always(),
            CandidateOrder::LocalRandom,
        );
    }
    sim.set_fault(2, sintra::runtime::sim::Fault::Crash { at_us: 0 });
    for p in [0usize, 1, 3] {
        let spid = pid.clone();
        sim.schedule(0, p, move |node, out| {
            node.propose_multi(&spid, format!("v{p}").into_bytes(), out);
        });
    }
    sim.run();
    let decisions = multi_decisions(&sim, &pid, 4);
    let first = decisions[0].clone().expect("decided despite crash");
    for p in [0usize, 1, 3] {
        assert_eq!(decisions[p].as_ref(), Some(&first), "party {p}");
    }
}

#[test]
fn seven_party_group_agreement() {
    // The paper's hybrid scale: n = 7, t = 2, two silent parties.
    let pid = ProtocolId::new("ba-7");
    let mut sim = lan_sim(7, 2, 900);
    for p in 0..5 {
        sim.node_mut(p)
            .create_binary_agreement(pid.clone(), None, None);
    }
    sim.set_byzantine(5, Box::new(Silent));
    sim.set_byzantine(6, Box::new(Silent));
    for p in 0..5 {
        let spid = pid.clone();
        let value = p < 2;
        sim.schedule(0, p, move |node, out| {
            node.propose_binary(&spid, value, Vec::new(), out);
        });
    }
    sim.run();
    let decisions = binary_decisions(&sim, &pid, 7);
    let first = decisions[0].expect("decided");
    for (p, d) in decisions.iter().enumerate().take(5) {
        assert_eq!(*d, Some(first), "party {p}");
    }
}
