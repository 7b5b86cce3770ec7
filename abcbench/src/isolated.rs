//! Isolated drives: public functions of the bigint and crypto layers
//! timed one at a time on the workload's own key material. These are
//! the unit costs the replay ledger multiplies by counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sintra_bigint::{FixedBase, Montgomery, Ubig};
use sintra_crypto::dealer::PartyKeys;
use sintra_crypto::hash::Sha256;

use crate::probe::Sampler;
use crate::span::SpanLog;
use crate::stats;

/// Repetitions per drive; each drive reports its median.
const REPS: u64 = 15;

/// Times `REPS` calls of `op` under `name` and returns the median in µs
/// at the probe's reference speed (a probe sample follows every call).
fn drive<T>(log: &mut SpanLog, name: &'static str, mut op: impl FnMut(u64) -> T) -> f64 {
    let mut sampler = Sampler::start();
    let samples: Vec<f64> = (0..REPS)
        .map(|i| {
            let (result, ns) = log.time(name, i, |_| op(i));
            std::hint::black_box(result);
            sampler.sample();
            ns as f64 / 1000.0
        })
        .collect();
    stats::median(&samples) * sampler.take_speed()
}

/// A `bits`-bit exponent with its top bit set.
fn exponent(rng: &mut StdRng, bits: u32) -> Ubig {
    let mut bytes: Vec<u8> = (0..bits.div_ceil(8)).map(|_| rng.gen()).collect();
    bytes[0] |= 0x80;
    Ubig::from_be_bytes(&bytes)
}

/// Runs every isolated drive; returns `(metric name, median µs)`.
pub fn run(keys: &[std::sync::Arc<PartyKeys>], seed: u64, log: &mut SpanLog) -> Vec<(String, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let common = &keys[0].common;
    let (n, t) = (common.n, common.t);
    let group = common.coin.group();
    let p = group.modulus();
    let base = group.hash_to_group(b"sintra-bench", b"base");
    let base2 = group.hash_to_group(b"sintra-bench", b"base2");
    let full = exponent(&mut rng, group.modulus_bits());
    let short = group.random_exponent(&mut rng);
    let short2 = group.random_exponent(&mut rng);
    let ctx = Montgomery::new(p);
    let table = FixedBase::new(&ctx, group.generator(), group.order().bit_length());
    let block = vec![0xA5u8; 16 * 1024];
    let message = b"sintra-bench isolated drive statement";
    let mut out = Vec::new();
    let mut put = |name: &str, us: f64| out.push((name.to_string(), us));

    put(
        "bigint.modexp_1024x1024_us",
        drive(log, "bigint.modexp_1024x1024", |_| base.mod_pow(&full, p)),
    );
    put(
        "bigint.modexp_1024x160_us",
        drive(log, "bigint.modexp_1024x160", |_| base.mod_pow(&short, p)),
    );
    put(
        "bigint.multi_pow2_us",
        drive(log, "bigint.multi_pow2", |_| {
            ctx.multi_pow(&[(&base, &short), (&base2, &short2)])
        }),
    );
    put(
        "bigint.fixed_base_us",
        drive(log, "bigint.fixed_base", |_| table.pow(&ctx, &short)),
    );

    let signer = &keys[0].sig_key;
    put(
        "crypto.rsa_sign_us",
        drive(log, "crypto.rsa_sign", |_| signer.sign(message)),
    );
    let signature = signer.sign(message);
    put(
        "crypto.rsa_verify_us",
        drive(log, "crypto.rsa_verify", |_| {
            signer.public().verify(message, &signature)
        }),
    );

    // The n - t quorum kit: the one agreement justifications use.
    let kit = &keys[0].thsig_agreement;
    put(
        "crypto.thsig_sign_share_us",
        drive(log, "crypto.thsig_sign_share", |_| kit.sign_share(message)),
    );
    let sig_shares: Vec<_> = keys
        .iter()
        .take(n - t)
        .map(|k| k.thsig_agreement.sign_share(message))
        .collect();
    put(
        "crypto.thsig_verify_share_us",
        drive(log, "crypto.thsig_verify_share", |_| {
            kit.public.verify_share(message, &sig_shares[1])
        }),
    );
    put(
        "crypto.thsig_assemble_us",
        drive(log, "crypto.thsig_assemble", |_| {
            kit.public.assemble(message, &sig_shares)
        }),
    );
    let threshold_sig = kit
        .public
        .assemble(message, &sig_shares)
        .expect("n - t valid shares assemble");
    put(
        "crypto.thsig_verify_us",
        drive(log, "crypto.thsig_verify", |_| {
            kit.public.verify(message, &threshold_sig)
        }),
    );

    // Coin: a fresh name per repetition, in protocol order (release,
    // batch-verify n - t shares, assemble from t + 1), so the per-name
    // base is derived cold exactly once, as in a real round.
    let coin = &common.coin;
    let coin_name = |i: u64| format!("sintra-bench/coin/{seed}/{i}").into_bytes();
    put(
        "crypto.coin_release_us",
        drive(log, "crypto.coin_release", |i| {
            coin.release_share(&coin_name(i), &keys[0].coin_secret)
        }),
    );
    let coin_shares = |i: u64| -> Vec<_> {
        keys.iter()
            .take(n - t)
            .map(|k| coin.release_share(&coin_name(i), &k.coin_secret))
            .collect()
    };
    let all_coin_shares: Vec<_> = (0..REPS).map(coin_shares).collect();
    put(
        "crypto.coin_verify_batch_us",
        drive(log, "crypto.coin_verify_batch", |i| {
            coin.verify_shares(&coin_name(i), &all_coin_shares[i as usize])
        }),
    );
    put(
        "crypto.coin_assemble_us",
        drive(log, "crypto.coin_assemble", |i| {
            coin.assemble_bit(&coin_name(i), &all_coin_shares[i as usize][..t + 1])
        }),
    );

    let enc = &common.enc;
    let label = b"sintra-bench/label";
    put(
        "crypto.tdh2_encrypt_us",
        drive(log, "crypto.tdh2_encrypt", |_| {
            enc.encrypt(label, &block[..64], &mut rng)
        }),
    );
    let ciphertext = enc.encrypt(label, &block[..64], &mut rng);
    put(
        "crypto.tdh2_verify_ct_us",
        drive(log, "crypto.tdh2_verify_ct", |_| {
            enc.verify_ciphertext(&ciphertext)
        }),
    );
    put(
        "crypto.tdh2_dec_share_us",
        drive(log, "crypto.tdh2_dec_share", |_| {
            enc.decryption_share(&ciphertext, &keys[0].enc_secret)
        }),
    );
    let dec_shares: Vec<_> = keys
        .iter()
        .take(t + 1)
        .map(|k| {
            enc.decryption_share(&ciphertext, &k.enc_secret)
                .expect("valid ciphertext")
        })
        .collect();
    put(
        "crypto.tdh2_verify_batch_us",
        drive(log, "crypto.tdh2_verify_batch", |_| {
            enc.verify_shares(&ciphertext, &dec_shares)
        }),
    );
    put(
        "crypto.tdh2_combine_us",
        drive(log, "crypto.tdh2_combine", |_| {
            enc.combine(&ciphertext, &dec_shares)
        }),
    );

    put(
        "crypto.sha256_16k_us",
        drive(log, "crypto.sha256_16k", |_| Sha256::digest(&block)),
    );
    let mac = &keys[0].mac_keys[1];
    put(
        "crypto.hmac_16k_us",
        drive(log, "crypto.hmac_16k", |_| mac.sign(&block)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Spec;

    #[test]
    fn every_drive_reports_a_positive_time() {
        let keys = Spec::by_name("abc7_wan").unwrap().deal_keys(128);
        let mut log = SpanLog::default();
        let metrics = run(&keys, 1, &mut log);
        assert_eq!(metrics.len(), 20);
        for (name, us) in &metrics {
            assert!(*us > 0.0, "{name}");
            assert!(name.ends_with("_us"), "{name}");
        }
        assert_eq!(log.spans().len(), 20 * REPS as usize);
    }
}
