//! Criterion micro-benchmarks of the threshold-cryptography layer: the
//! primitive operation costs behind every protocol timing in the paper.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_bigint::{Montgomery, UbigRandom};
use sintra_crypto::coin::CoinScheme;
use sintra_crypto::hash::Sha256;
use sintra_crypto::thenc::EncScheme;
use sintra_crypto::thsig::{deal_kits, SigFlavor};
use sintra_crypto::{fixtures, hmac::HmacKey};

/// The bottom layer: one Montgomery multiplication and squaring at the
/// group modulus, and exponentiations at the exponent lengths the stack
/// uses — 17 bits (RSA verification), 160 (group exponents), 341 at a
/// 341-bit prime of a 1024-bit RSA key (one of a signature's three CRT
/// exponentiations), 1024 (Shoup shares, hashing into the group).
fn bench_bigint(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let group = fixtures::schnorr_group(1024).expect("fixture");
    let p = group.modulus();
    let ctx = Montgomery::new(p);
    let a = ctx.to_mont(&rng.gen_ubig_below(p));
    let b = ctx.to_mont(&rng.gen_ubig_below(p));
    let mut g = c.benchmark_group("bigint");
    g.bench_function("mont-mul/1024", |bench| bench.iter(|| ctx.mont_mul(&a, &b)));
    g.bench_function("mont-sqr/1024", |bench| bench.iter(|| ctx.mont_sqr(&a)));
    let key = fixtures::rsa_key(1024, 0).expect("fixture");
    let prime = key.primes().next().expect("a prime");
    for (modulus, exp_bits) in [(p, 17), (p, 160), (prime, 341), (p, 1024)] {
        let base = rng.gen_ubig_below(modulus);
        let exp = rng.gen_ubig_bits(exp_bits).with_bit(exp_bits - 1, true);
        let id = format!("{}x{exp_bits}", modulus.bit_length());
        g.bench_with_input(BenchmarkId::new("modexp", id), &exp, |bench, exp| {
            bench.iter(|| base.mod_pow(exp, modulus))
        });
    }
    g.finish();
}

/// SHA-256 and the link MAC; 576 B is the mean frame on `abc4_lone`
/// (73 736 B over 128 frames per request).
fn bench_hash(c: &mut Criterion) {
    let data = vec![0xABu8; 4096];
    c.bench_function("sha256/4KiB", |b| b.iter(|| Sha256::digest(&data)));
    let key = HmacKey::new(vec![7; 16]);
    c.bench_function("hmac-sha256/4KiB", |b| b.iter(|| key.sign(&data)));
    c.bench_function("hmac-sha256/576B", |b| b.iter(|| key.sign(&data[..576])));
}

fn bench_rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa");
    for bits in [512u32, 1024] {
        let key = fixtures::rsa_key(bits, 0).expect("fixture");
        group.bench_with_input(BenchmarkId::new("sign-crt", bits), &bits, |b, _| {
            b.iter(|| key.sign(b"benchmark message"))
        });
        let sig = key.sign(b"benchmark message");
        group.bench_with_input(BenchmarkId::new("verify", bits), &bits, |b, _| {
            b.iter(|| key.public().verify(b"benchmark message", &sig))
        });
    }
    group.finish();
}

fn bench_coin(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("coin");
    for bits in [512u32, 1024] {
        let g = fixtures::schnorr_group(bits).expect("fixture");
        let (public, secrets) = CoinScheme::deal(&g, 4, 2, &mut rng);
        let scheme = CoinScheme::new(g, public);
        group.bench_with_input(BenchmarkId::new("release", bits), &bits, |b, _| {
            b.iter(|| scheme.release_share(b"bench coin", &secrets[0]))
        });
        let share = scheme.release_share(b"bench coin", &secrets[0]);
        group.bench_with_input(BenchmarkId::new("verify", bits), &bits, |b, _| {
            b.iter(|| scheme.verify_share(b"bench coin", &share))
        });
        let shares = vec![
            scheme.release_share(b"bench coin", &secrets[0]),
            scheme.release_share(b"bench coin", &secrets[1]),
        ];
        group.bench_with_input(BenchmarkId::new("assemble", bits), &bits, |b, _| {
            b.iter(|| scheme.assemble(b"bench coin", &shares, 16).expect("valid"))
        });
    }
    group.finish();
}

/// Batch DLEQ verification of one round's coin shares (n = 16), against
/// an emulation of the pre-batching per-share path: a fresh full-domain
/// hash of the coin name, two subgroup-membership checks, and four plain
/// exponentiations plus two divisions per share.
fn bench_dleq_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let g = fixtures::schnorr_group(1024).expect("fixture");
    let n = 16usize;
    let (public, secrets) = CoinScheme::deal(&g, n, 11, &mut rng);
    let scheme = CoinScheme::new(g.clone(), public.clone());
    let name = b"bench batch coin";
    let shares: Vec<_> = secrets
        .iter()
        .map(|s| scheme.release_share(name, s))
        .collect();
    let mut group = c.benchmark_group("dleq-1024");
    group.sample_size(10);
    group.bench_function("verify-16-naive-per-share", |b| {
        b.iter(|| {
            let mut all = true;
            for share in &shares {
                // Pre-PR coin_base recomputed the hash per verification.
                let g_hat = g.hash_to_group(b"sintra-coin-base", name);
                let vk = &public.verification_keys[share.index];
                all &= g.is_element(vk) && g.is_element(&share.value);
                let cc = g.hash_to_exponent(b"sintra-dleq", &share.value.to_be_bytes());
                let z = &share.proof.response;
                let a1 = g.div(&g.pow(g.generator(), z), &g.pow(vk, &cc));
                let a2 = g.div(&g.pow(&g_hat, z), &g.pow(&share.value, &cc));
                all &= !a1.is_zero() && !a2.is_zero();
            }
            black_box(all)
        })
    });
    group.bench_function("verify-16-per-share", |b| {
        b.iter(|| shares.iter().all(|s| scheme.verify_share(name, s)))
    });
    group.bench_function("verify-16-batched", |b| {
        b.iter(|| scheme.verify_shares(name, &shares))
    });
    group.finish();
}

fn bench_thsig(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let bits = 1024u32;
    let mut group = c.benchmark_group("thsig-1024");

    // Multi-signature flavor.
    let rsa_keys: Vec<_> = (0..4)
        .map(|i| fixtures::rsa_key(bits, i).expect("fixture"))
        .collect();
    let multi = deal_kits(SigFlavor::Multi, 4, 3, &rsa_keys, None, &mut rng);
    group.bench_function("multi/sign-share", |b| {
        b.iter(|| multi[0].sign_share(b"statement"))
    });
    let shares: Vec<_> = multi
        .iter()
        .take(3)
        .map(|k| k.sign_share(b"statement"))
        .collect();
    group.bench_function("multi/assemble", |b| {
        b.iter(|| multi[0].public.assemble(b"statement", &shares).expect("ok"))
    });
    let sig = multi[0].public.assemble(b"statement", &shares).expect("ok");
    group.bench_function("multi/verify", |b| {
        b.iter(|| multi[0].public.verify(b"statement", &sig))
    });

    // Shoup RSA flavor.
    let modulus = fixtures::shoup_modulus(bits).expect("fixture");
    let shoup = deal_kits(SigFlavor::ShoupRsa, 4, 3, &[], Some(&modulus), &mut rng);
    group.bench_function("shoup/sign-share", |b| {
        b.iter(|| shoup[0].sign_share(b"statement"))
    });
    let sshares: Vec<_> = shoup
        .iter()
        .take(3)
        .map(|k| k.sign_share(b"statement"))
        .collect();
    group.bench_function("shoup/verify-share", |b| {
        b.iter(|| shoup[0].public.verify_share(b"statement", &sshares[1]))
    });
    group.sample_size(10);
    group.bench_function("shoup/assemble", |b| {
        b.iter(|| {
            shoup[0]
                .public
                .assemble(b"statement", &sshares)
                .expect("ok")
        })
    });
    let ssig = shoup[0]
        .public
        .assemble(b"statement", &sshares)
        .expect("ok");
    group.bench_function("shoup/verify", |b| {
        b.iter(|| shoup[0].public.verify(b"statement", &ssig))
    });
    group.finish();
}

fn bench_thenc(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let g = fixtures::schnorr_group(1024).expect("fixture");
    let (public, secrets) = EncScheme::deal(&g, 4, 2, &mut rng);
    let scheme = EncScheme::new(g, public);
    let mut group = c.benchmark_group("tdh2-1024");
    group.bench_function("encrypt", |b| {
        b.iter(|| scheme.encrypt(b"label", b"a short confidential payload", &mut rng))
    });
    let ct = scheme.encrypt(b"label", b"a short confidential payload", &mut rng);
    group.bench_function("verify-ciphertext", |b| {
        b.iter(|| scheme.verify_ciphertext(&ct))
    });
    group.bench_function("decryption-share", |b| {
        b.iter(|| scheme.decryption_share(&ct, &secrets[0]).expect("valid"))
    });
    let shares: Vec<_> = secrets
        .iter()
        .take(2)
        .map(|s| scheme.decryption_share(&ct, s).expect("valid"))
        .collect();
    group.bench_function("combine", |b| {
        b.iter(|| scheme.combine(&ct, &shares).expect("ok"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bigint,
    bench_hash,
    bench_rsa,
    bench_coin,
    bench_dleq_batch,
    bench_thsig,
    bench_thenc
);
criterion_main!(benches);
