//! Property-based tests for the threshold-cryptography layer: scheme
//! round-trips over random inputs, share-subset independence, and
//! rejection of malformed material.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_crypto::chacha;
use sintra_crypto::coin::CoinScheme;
use sintra_crypto::fixtures;
use sintra_crypto::hash::{expand, Sha256};
use sintra_crypto::hmac::HmacKey;
use sintra_crypto::thenc::EncScheme;
use sintra_crypto::thsig::{deal_kits, SigFlavor, ThresholdSigKit};

fn coin_setup(seed: u64) -> (CoinScheme, Vec<sintra_crypto::coin::CoinSecretShare>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = fixtures::schnorr_group(128).expect("fixture");
    let (public, secrets) = CoinScheme::deal(&group, 4, 2, &mut rng);
    (CoinScheme::new(group, public), secrets)
}

fn enc_setup(seed: u64) -> (EncScheme, Vec<sintra_crypto::thenc::EncSecretShare>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = fixtures::schnorr_group(128).expect("fixture");
    let (public, secrets) = EncScheme::deal(&group, 4, 2, &mut rng);
    (EncScheme::new(group, public), secrets, rng)
}

fn multi_setup(seed: u64) -> Vec<ThresholdSigKit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<_> = (0..4)
        .map(|i| fixtures::rsa_key(128, i).expect("fixture"))
        .collect();
    deal_kits(SigFlavor::Multi, 4, 3, &keys, None, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hashes_are_deterministic_and_length_correct(data in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(Sha256::digest(&data), Sha256::digest(&data));
    }

    #[test]
    fn incremental_hash_matches_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn expand_has_prefix_property(
        input in prop::collection::vec(any::<u8>(), 0..64),
        short in 1usize..32,
        long in 32usize..128,
    ) {
        let a = expand(b"dom", &input, short);
        let b = expand(b"dom", &input, long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn hmac_verifies_only_exact_message(
        key in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 0..128),
        flip in 0usize..128,
    ) {
        let k = HmacKey::new(key);
        let tag = k.sign(&msg);
        prop_assert!(k.verify(&msg, &tag));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 1;
            prop_assert!(!k.verify(&tampered, &tag));
        }
    }

    #[test]
    fn chacha_seal_open_roundtrip(
        key_material in prop::collection::vec(any::<u8>(), 0..64),
        msg in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let ct = chacha::seal(&key_material, &msg);
        prop_assert_eq!(chacha::open(&key_material, &ct), msg);
    }

    #[test]
    fn coin_value_independent_of_share_subset(
        name in prop::collection::vec(any::<u8>(), 1..32),
        pick in 0usize..6,
    ) {
        let (scheme, secrets) = coin_setup(77);
        let shares: Vec<_> = secrets.iter().map(|s| scheme.release_share(&name, s)).collect();
        let subsets = [[0usize, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];
        let s = subsets[pick % subsets.len()];
        let a = scheme
            .assemble(&name, &[shares[s[0]].clone(), shares[s[1]].clone()], 16)
            .expect("valid shares");
        let b = scheme
            .assemble(&name, &[shares[0].clone(), shares[1].clone()], 16)
            .expect("valid shares");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn tdh2_roundtrip_any_payload(
        label in prop::collection::vec(any::<u8>(), 0..16),
        msg in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (scheme, secrets, mut rng) = enc_setup(78);
        let ct = scheme.encrypt(&label, &msg, &mut rng);
        prop_assert!(scheme.verify_ciphertext(&ct));
        let shares: Vec<_> = secrets
            .iter()
            .take(2)
            .map(|s| scheme.decryption_share(&ct, s).expect("valid ct"))
            .collect();
        prop_assert_eq!(scheme.combine(&ct, &shares).expect("combine"), msg);
    }

    #[test]
    fn tdh2_mauled_ciphertext_rejected(
        msg in prop::collection::vec(any::<u8>(), 1..64),
        flip in any::<u8>(),
    ) {
        let (scheme, _, mut rng) = enc_setup(79);
        let ct = scheme.encrypt(b"l", &msg, &mut rng);
        let mut mauled = ct.clone();
        let idx = flip as usize % mauled.data.len();
        mauled.data[idx] ^= 1;
        prop_assert!(!scheme.verify_ciphertext(&mauled));
    }

    #[test]
    fn threshold_signature_any_quorum(
        msg in prop::collection::vec(any::<u8>(), 0..64),
        pick in 0usize..4,
    ) {
        let kits = multi_setup(80);
        let subsets = [[0usize, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]];
        let subset = subsets[pick % subsets.len()];
        let shares: Vec<_> = subset.iter().map(|&i| kits[i].sign_share(&msg)).collect();
        let sig = kits[0].public.assemble(&msg, &shares).expect("quorum");
        prop_assert!(kits[0].public.verify(&msg, &sig));
        // The signature binds the exact message.
        let mut other = msg.clone();
        other.push(0);
        prop_assert!(!kits[0].public.verify(&other, &sig));
    }

    #[test]
    fn coin_share_for_other_name_rejected(
        name_a in prop::collection::vec(any::<u8>(), 1..16),
        name_b in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        prop_assume!(name_a != name_b);
        let (scheme, secrets) = coin_setup(81);
        let share = scheme.release_share(&name_a, &secrets[0]);
        prop_assert!(scheme.verify_share(&name_a, &share));
        prop_assert!(!scheme.verify_share(&name_b, &share));
    }
}

#[test]
fn shoup_signature_subset_equivalence() {
    // Any k-subset assembles a verifying signature (not necessarily
    // byte-identical, but always valid and bound to the message).
    let mut rng = StdRng::seed_from_u64(82);
    let modulus = fixtures::shoup_modulus(128).expect("fixture");
    let kits = deal_kits(SigFlavor::ShoupRsa, 4, 2, &[], Some(&modulus), &mut rng);
    let msg = b"subset equivalence";
    let shares: Vec<_> = kits.iter().map(|k| k.sign_share(msg)).collect();
    for a in 0..4 {
        for b in 0..4 {
            if a == b {
                continue;
            }
            let sig = kits[0]
                .public
                .assemble(msg, &[shares[a].clone(), shares[b].clone()])
                .expect("any 2 shares");
            assert!(kits[0].public.verify(msg, &sig), "subset ({a},{b})");
        }
    }
}
