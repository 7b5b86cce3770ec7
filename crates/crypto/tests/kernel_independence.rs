//! Results and charges of the public-key layer do not depend on the
//! arithmetic kernel underneath it.
//!
//! The known answers below were recorded before `sintra-bigint`'s
//! Montgomery kernel was rewritten; an exponentiation that is off by one
//! carry fails here, on the committed fixtures, and not in a benchmark's
//! correctness oracle. (The party keys' answers were re-recorded when the
//! keys became three-prime and when their public exponent became 3; the
//! group and Shoup answers were not.) The
//! charges are the cost model's formulas written out: how many
//! multiplications an exponentiation really runs (window width,
//! short-exponent path, squaring) must never reach the meter, or the
//! simulator's virtual time and EXPERIMENTS.md would move with it.
//! (The party keys' charges moved when their public exponent became 3: a
//! verification is charged `exp_work(1023, 2)` where 65 537 was
//! `exp_work(1023, 17)`, and the new primes changed the CRT exponents'
//! lengths, which the signing charge follows.)

use rand::rngs::StdRng;
use rand::SeedableRng;

use sintra_bigint::Ubig;
use sintra_crypto::coin::{CoinScheme, CoinShare};
use sintra_crypto::cost::{self, CostScope};
use sintra_crypto::dealer::{deal, DealerConfig, PartyKeys};
use sintra_crypto::dleq::DleqProof;
use sintra_crypto::fixtures;
use sintra_crypto::group::SchnorrGroup;
use sintra_crypto::hash::Sha256;
use sintra_crypto::thsig::{deal_kits, SigFlavor, SigShare, SigShareBody, ThresholdSignature};

const MESSAGE: &[u8] = b"kernel-independence statement";
const COIN_NAME: &[u8] = b"kernel-independence coin";
const LABEL: &[u8] = b"kernel-independence label";

/// Length-prefixed big-endian encoding, so concatenation is injective.
fn put(out: &mut Vec<u8>, v: &Ubig) {
    let bytes = v.to_be_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

fn put_proof(out: &mut Vec<u8>, proof: &DleqProof) {
    put(out, &proof.commit_g);
    put(out, &proof.commit_u);
    put(out, &proof.response);
}

fn put_sig_share(out: &mut Vec<u8>, share: &SigShare) {
    out.push(share.index as u8);
    match &share.body {
        SigShareBody::Multi { sig } => put(out, &sig.0),
        SigShareBody::ShoupRsa { sigma, proof } => {
            put(out, sigma);
            put(out, &proof.challenge);
            put(out, &proof.response);
        }
    }
}

fn put_signature(out: &mut Vec<u8>, signature: &ThresholdSignature) {
    match signature {
        ThresholdSignature::ShoupRsa(y) => put(out, y),
        ThresholdSignature::Multi(sigs) => {
            for (index, sig) in sigs {
                out.push(*index as u8);
                put(out, &sig.0);
            }
        }
    }
}

fn put_coin_share(out: &mut Vec<u8>, share: &CoinShare) {
    out.push(share.index as u8);
    put(out, &share.value);
    put_proof(out, &share.proof);
}

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn dealt(n: usize, t: usize) -> Vec<PartyKeys> {
    deal(&DealerConfig::new(n, t), &mut StdRng::seed_from_u64(2002)).expect("fixture sizes")
}

/// What the party keys do, on a dealt 1024-bit kit: an RSA signature, a
/// multi-signature share and the assembled signature.
fn rsa_transcript(keys: &[PartyKeys]) -> String {
    let common = &keys[0].common;
    let (n, t) = (common.n, common.t);
    let mut out = Vec::new();

    let sig = keys[0].sig_key.sign(MESSAGE);
    assert!(common.sig_publics[0].verify(MESSAGE, &sig));
    put(&mut out, &sig.0);

    let shares: Vec<SigShare> = keys
        .iter()
        .take(n - t)
        .map(|k| k.thsig_agreement.sign_share(MESSAGE))
        .collect();
    put_sig_share(&mut out, &shares[1]);
    let signature = common
        .thsig_agreement
        .assemble(MESSAGE, &shares)
        .expect("n - t valid shares");
    assert!(common.thsig_agreement.verify(MESSAGE, &signature));
    put_signature(&mut out, &signature);
    hex(&Sha256::digest(&out))
}

/// What the group keys do, on the same kit: a coin share and the
/// assembled coin, a TDH2 ciphertext, a decryption share and the combined
/// plaintext.
fn group_transcript(keys: &[PartyKeys]) -> String {
    let common = &keys[0].common;
    let t = common.t;
    let mut out = Vec::new();

    let coin_shares: Vec<CoinShare> = keys
        .iter()
        .take(t + 1)
        .map(|k| common.coin.release_share(COIN_NAME, &k.coin_secret))
        .collect();
    put_coin_share(&mut out, &coin_shares[0]);
    let coin = common
        .coin
        .assemble(COIN_NAME, &coin_shares, 32)
        .expect("t + 1 valid shares");
    out.extend_from_slice(&coin);

    let mut rng = StdRng::seed_from_u64(7);
    let ct = common.enc.encrypt(LABEL, MESSAGE, &mut rng);
    out.extend_from_slice(&ct.data);
    for part in [&ct.u, &ct.u_bar, &ct.e, &ct.f] {
        put(&mut out, part);
    }
    let dec_shares: Vec<_> = keys
        .iter()
        .take(t + 1)
        .map(|k| {
            common
                .enc
                .decryption_share(&ct, &k.enc_secret)
                .expect("valid ciphertext")
        })
        .collect();
    out.push(dec_shares[0].index as u8);
    put(&mut out, &dec_shares[0].value);
    put_proof(&mut out, &dec_shares[0].proof);
    let plain = common.enc.combine(&ct, &dec_shares).expect("t + 1 shares");
    assert_eq!(plain, MESSAGE);
    out.extend_from_slice(&plain);

    hex(&Sha256::digest(&out))
}

/// A Shoup threshold-RSA share and the assembled signature (full-width
/// exponents: the widest window path).
fn shoup_transcript() -> String {
    let modulus = fixtures::shoup_modulus(1024).expect("fixture");
    let mut rng = StdRng::seed_from_u64(2002);
    let kits = deal_kits(SigFlavor::ShoupRsa, 4, 3, &[], Some(&modulus), &mut rng);
    let shares: Vec<SigShare> = kits.iter().take(3).map(|k| k.sign_share(MESSAGE)).collect();
    let signature = kits[0]
        .public
        .assemble(MESSAGE, &shares)
        .expect("three valid shares");
    assert!(kits[0].public.verify(MESSAGE, &signature));
    let mut out = Vec::new();
    put_sig_share(&mut out, &shares[0]);
    put_signature(&mut out, &signature);
    hex(&Sha256::digest(&out))
}

#[test]
fn fixture_results_match_the_recorded_answers() {
    // Recorded at the parent of the three-prime keys, whose group half did
    // not move with them.
    assert_eq!(
        group_transcript(&dealt(4, 1)),
        "0694c7e9ba6c42965e503a35a65c78a169269a59ed920b70bc357bb1936493e3"
    );
    assert_eq!(
        group_transcript(&dealt(7, 2)),
        "bd4b9b4064e082d9bea33b4e1e8b449a02c097c5cf3375582136d1686dd4845f"
    );
    // Re-recorded with the three-prime keys, and again with the `e = 3`
    // keys: new primes are new keys, and an RSA-FDH signature is a
    // function of the key. On the two-prime keys these read
    // 29cacb70…1ca45b9a and 5c1dd15a…d5184fa5, on the three-prime keys
    // under `e = 65 537` 251334a6…3294fb8d and 8d8ec467…537dafac; every
    // signature in them is checked under its public key before it is
    // hashed.
    assert_eq!(
        rsa_transcript(&dealt(4, 1)),
        "c0c5e3704609e2cd345cb828fd063e35f1a96ed803f50c279f8ff4e6336fba5f"
    );
    assert_eq!(
        rsa_transcript(&dealt(7, 2)),
        "52fbab60f56bdab2b8443f7b4e4f4a7f610642939fa8bf279368136f26f3cb14"
    );
    assert_eq!(
        shoup_transcript(),
        "1ad6e00976dacee1ed535b96d288c0fb8119539034602a09c4a31feec8e8690d"
    );
}

/// Work units charged while `op` runs.
fn charged<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let scope = CostScope::enter();
    let result = op();
    (result, scope.elapsed())
}

#[track_caller]
fn assert_charge(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() < 1e-12,
        "{what}: charged {got} work units, the model says {want}"
    );
}

/// Group operations at the fixture's 1024-bit `p`: a plain
/// exponentiation, one through a fixed-base table, a multi-exponentiation.
fn ex(exponent_bits: u32) -> f64 {
    cost::exp_work(1024, exponent_bits)
}
fn fb(exponent_bits: u32) -> f64 {
    cost::fixed_base_exp_work(1024, exponent_bits)
}

#[test]
fn rsa_charges_are_the_models_formulas() {
    let keys = dealt(4, 1);
    let common = &keys[0].common;
    // The fixture keys have 1023-bit moduli over three primes: one CRT
    // exponentiation per prime, at the prime's length with its exponent
    // `d mod (p_i − 1)`. Party 0's primes have 341, 341 and 342 bits and
    // their exponents 341, 341 and 341; party 1's exponents 341, 340 and
    // 342. (Under `e = 65 537`, with other primes, party 0's exponents
    // were 341, 340 and 341 and party 1's 337, 341 and 341; over two
    // 512-bit primes both signatures were 0.25: `exp_work(512, 512) +
    // exp_work(512, 511)`.) A verification raises to `e = 3`, a 2-bit
    // exponent, where 65 537 had 17 bits.
    let sign = [
        cost::exp_work(341, 341) + cost::exp_work(341, 341) + cost::exp_work(342, 341),
        cost::exp_work(341, 341) + cost::exp_work(341, 340) + cost::exp_work(342, 342),
    ];
    let verify = cost::exp_work(1023, 2);
    for key in &keys[..2] {
        assert_eq!(key.sig_key.public().modulus_bits(), 1023);
        let primes: Vec<u32> = key.sig_key.primes().map(|p| p.bit_length()).collect();
        assert_eq!(primes, [341, 341, 342]);
    }

    let (sig, w) = charged(|| keys[0].sig_key.sign(MESSAGE));
    assert_charge("rsa sign", w, sign[0]);
    let (ok, w) = charged(|| keys[0].sig_key.public().verify(MESSAGE, &sig));
    assert!(ok);
    assert_charge("rsa verify", w, verify);

    let (share, w) = charged(|| keys[1].thsig_agreement.sign_share(MESSAGE));
    assert_charge("multi-signature share", w, sign[1]);
    let shares = [
        keys[0].thsig_agreement.sign_share(MESSAGE),
        share,
        keys[2].thsig_agreement.sign_share(MESSAGE),
    ];
    let (ok, w) = charged(|| common.thsig_agreement.verify_share(MESSAGE, &shares[1]));
    assert!(ok);
    assert_charge("multi-signature share check", w, verify);
    let (signature, w) = charged(|| common.thsig_agreement.assemble(MESSAGE, &shares));
    assert_charge("multi-signature assembly", w, 3.0 * verify);
    let (ok, w) = charged(|| {
        common
            .thsig_agreement
            .verify(MESSAGE, &signature.expect("three valid shares"))
    });
    assert!(ok);
    assert_charge("multi-signature check", w, 3.0 * verify);
}

#[test]
fn coin_charges_are_the_models_formulas() {
    let keys = dealt(4, 1);
    let dealt_coin = &keys[0].common.coin;
    // The fixture group shares its fixed-base table cache with the tests
    // running beside this one; what a first use charges needs a cold one.
    let shared = dealt_coin.group();
    let group = SchnorrGroup::from_parts(
        shared.modulus().clone(),
        shared.order().clone(),
        shared.generator().clone(),
        shared.generator_bar().clone(),
    )
    .expect("the fixture's parts");
    assert_eq!(
        (group.modulus_bits(), group.order().bit_length()),
        (1024, 160)
    );
    let q = 160;
    let coin = CoinScheme::new(group.clone(), dealt_coin.public_key().clone());
    let name = COIN_NAME;

    // First use of a name hashes it into the group (a cofactor
    // exponentiation) and builds its fixed-base table: 15 entries for each
    // of the q/4 windows, one multiplication each. The share and the two
    // proof commitments then come out of tables.
    let (_, w) = charged(|| coin.release_share(name, &keys[0].coin_secret));
    let cold = ex(group.cofactor().bit_length()) + 600.0 * cost::mul_work(1024);
    assert_charge("coin release, new name", w, cold + 3.0 * fb(q));
    // Party 1's key has 159 bits; its nonce 160.
    let (share, w) = charged(|| coin.release_share(name, &keys[1].coin_secret));
    assert_charge("coin release", w, fb(159) + 2.0 * fb(q));

    // Subgroup check of the share value, then g^z·V^-c and ĝ^z·σ^-c: g and
    // ĝ have tables, the verification key and the share do not.
    let z = share.proof.response.bit_length();
    let (ok, w) = charged(|| coin.verify_share(name, &share));
    assert!(ok);
    assert_charge("coin share check", w, ex(q) + 2.0 * (fb(z) + ex(159)));
}

#[test]
fn tdh2_charges_are_the_models_formulas() {
    let keys = dealt(4, 1);
    let enc = &keys[0].common.enc;
    let group = enc.group();

    // encrypt draws r then s; h, g and ḡ all have tables.
    let mut rng = StdRng::seed_from_u64(7);
    let r = group.random_exponent(&mut rng).bit_length();
    let s = group.random_exponent(&mut rng).bit_length();
    let mut rng = StdRng::seed_from_u64(7);
    let (ct, w) = charged(|| enc.encrypt(LABEL, MESSAGE, &mut rng));
    assert_charge("tdh2 encrypt", w, 3.0 * fb(r) + 2.0 * fb(s));

    // Two subgroup checks, then g^f·u^-e and ḡ^f·ū^-e.
    let f = ct.f.bit_length();
    let neg_e = group.neg_exponent(&ct.e).bit_length();
    let (ok, w) = charged(|| enc.verify_ciphertext(&ct));
    assert!(ok);
    assert_charge(
        "tdh2 ciphertext check",
        w,
        2.0 * ex(160) + 2.0 * (fb(f) + ex(neg_e)),
    );

    // u^x_i without a table (157-bit key), then the proof commitments g^w
    // from the table and u^w without (159-bit nonce).
    let (first, w) = charged(|| enc.decryption_share_prechecked(&ct, &keys[0].enc_secret));
    assert_charge("tdh2 decryption share", w, ex(157) + fb(159) + ex(159));

    // Lagrange coefficients for the points {1, 2} are 2 and q - 1.
    let shares = [
        first,
        enc.decryption_share_prechecked(&ct, &keys[1].enc_secret),
    ];
    let (plain, w) = charged(|| enc.combine_prechecked(&ct, &shares));
    assert_eq!(plain.expect("two shares"), MESSAGE);
    assert_charge("tdh2 combine", w, cost::multi_exp_work(1024, &[2, 160]));
}

#[test]
fn shoup_charges_are_the_models_formulas() {
    let modulus = fixtures::shoup_modulus(1024).expect("fixture");
    let mut rng = StdRng::seed_from_u64(2002);
    let kits = deal_kits(SigFlavor::ShoupRsa, 4, 3, &[], Some(&modulus), &mut rng);
    let n_bits = modulus.n().bit_length();
    let shoup = |exponent_bits: u32| cost::exp_work(n_bits, exponent_bits);

    // x̂^(2Δ·s_i) with Δ = 4! (a 1028-bit exponent for this share), x̃ =
    // x̂^(4Δ) (7 bits), and two commitments under a nonce of
    // |N| + 320 bits.
    let (share, w) = charged(|| kits[0].sign_share(MESSAGE));
    let SigShareBody::ShoupRsa { proof, .. } = &share.body else {
        panic!("Shoup kit produced a {:?}", share.body);
    };
    let (c, z) = (proof.challenge.bit_length(), proof.response.bit_length());
    assert_eq!(z, n_bits + 320);
    assert_charge("shoup share", w, shoup(1028) + shoup(7) + 2.0 * shoup(z));

    // x̃ again, then v^z·v_i^-c and x̃^z·σ^-2c.
    let (ok, w) = charged(|| kits[0].public.verify_share(MESSAGE, &share));
    assert!(ok);
    assert_charge(
        "shoup share check",
        w,
        shoup(7) + 2.0 * (shoup(z) + shoup(c)),
    );
}
