//! Verify-before-mutate as a type.
//!
//! The decoder yields every signature, share, entry and entry reference
//! as an [`Unchecked<T>`]: anyone may build one and read it — a handler's
//! free filters look at `share.index` or `entry.signer()` — but no
//! protocol state accepts one. State holds [`Checked<T>`], and the only
//! code that can build a `Checked` is in this file. A `Checked` value
//! remembers what it was checked under — the key and the digest of the
//! signed statement — and there are three ways to one:
//!
//! 1. a check that returned true on that very value — the `check_*`
//!    methods of [`GroupContext`];
//! 2. this party produced the value itself — `sign_*`, `release_*`,
//!    `assemble_sig`;
//! 3. the value equals one the handler holds that was checked or produced
//!    under the same key and statement — the `check_*_holding` methods,
//!    which compare before they exponentiate. A multi-signature is
//!    compared whole and then component by component with held shares;
//!    whatever equals nothing held gets the full check of (1), never a
//!    refusal. Verify a signature once: a party does not pay again for a
//!    share, closing or justification it already holds.
//!
//! A quarantine (coin shares parked until a quorum is in, decryption
//! batches ahead of their round) is an `Unchecked<T>` in a bounded
//! buffer; only a `check_*` drains it. The checks run where a
//! handler asks for them, behind its state filters: nothing here is a
//! stage in front of dispatch (`tests/drop_before_crypto.rs`).
//!
//! ```
//! use sintra_core::checked::{Checked, Unchecked};
//! let off_the_wire = Unchecked::from(7u8);
//! assert_eq!(*off_the_wire, 7);
//! let state: Vec<Checked<u8>> = Vec::new(); // and nothing here can fill it
//! # drop(state);
//! ```
//!
//! There is no constructor:
//! ```compile_fail
//! let forged = sintra_core::checked::Checked::new(7u8);
//! ```
//! no way to write one down, its fields being private:
//! ```compile_fail
//! let forged = sintra_core::checked::Checked { value: 7u8, under: todo!() };
//! ```
//! no conversion:
//! ```compile_fail
//! use sintra_core::checked::{Checked, Unchecked};
//! let forged: Checked<u8> = Unchecked::from(7u8).into();
//! ```
//! no way to the inner value other than by reference:
//! ```compile_fail
//! let bare: u8 = sintra_core::checked::Unchecked::from(7u8).into_inner();
//! ```
//! and state that holds checked values refuses an unchecked one:
//! ```compile_fail
//! use sintra_core::checked::{Checked, Unchecked};
//! let mut shares: Vec<Checked<u8>> = Vec::new();
//! shares.push(Unchecked::from(7u8));
//! ```

use std::ops::Deref;

use sintra_crypto::coin::CoinShare;
use sintra_crypto::hash::Sha256;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thenc::{Ciphertext, DecryptionBatch};
use sintra_crypto::thsig::{SigShare, SigShareBody, ThresholdSigPublic, ThresholdSignature};

use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::message::{statement_entry, statement_sc_shares, Entry, EntryRef, Payload};
use crate::wire::put_bytes;

/// A value nobody has checked: off the wire, or forgotten for sending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unchecked<T>(T);

/// A value that was checked, produced here, or equals one that was, with
/// what it stands under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked<T> {
    value: T,
    under: Under,
}

/// What a value was checked under: the digest of the key's domain and the
/// signed statement (a coin's name, a round's ciphertexts). Two values stand
/// under the same statement exactly if these are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Under([u8; 32]);

impl Under {
    // One domain per key family; a party's signature key is picked by
    // the signer the value names.
    const BROADCAST: u8 = b'B';
    const AGREEMENT: u8 = b'A';
    const PARTY: u8 = b'P';
    const COIN: u8 = b'C';
    const DECRYPTION: u8 = b'D';

    fn new(domain: u8, statement: &[u8]) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(&[domain]);
        hasher.update(statement);
        Under(hasher.finalize())
    }

    fn entry(pid: &ProtocolId, round: u64, digest: &[u8; 32]) -> (Vec<u8>, Self) {
        let statement = statement_entry(pid, round, digest);
        let under = Under::new(Under::PARTY, &statement);
        (statement, under)
    }

    /// A decryption batch's: the channel, the round and the `u` of every
    /// ciphertext it decrypts, in order. Returns the context its proof is
    /// bound to as well.
    fn ciphertexts(pid: &ProtocolId, round: u64, cts: &[&Ciphertext]) -> (Vec<u8>, Self) {
        let context = statement_sc_shares(pid, round);
        let mut statement = context.clone();
        for ct in cts {
            put_bytes(&mut statement, &ct.u.to_be_bytes());
        }
        (context, Under::new(Under::DECRYPTION, &statement))
    }
}

impl<T> From<T> for Unchecked<T> {
    fn from(value: T) -> Self {
        Unchecked(value)
    }
}

impl<T> Deref for Unchecked<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> Unchecked<T> {
    /// This value as checked under `under`, given the verdict of a check
    /// of it.
    fn checked_if(&self, verified: bool, under: Under) -> Option<Checked<T>> {
        verified.then(|| self.stands(under))
    }

    fn stands(&self, under: Under) -> Checked<T> {
        let value = self.0.clone();
        Checked { value, under }
    }

    /// This value as checked under `under`, if one of `held` equals it
    /// and stands under that very statement.
    fn vouched<'a, H: PartialEq<T> + 'a>(
        &self,
        under: Under,
        held: impl IntoIterator<Item = &'a Checked<H>>,
    ) -> Option<Checked<T>> {
        let mut held = held.into_iter();
        let equal = held.any(|held| held.under == under && held.value == self.0);
        equal.then(|| self.stands(under))
    }
}

impl<T> Deref for Checked<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Checked<T> {
    /// Forgets the check, for putting the value into a message.
    pub fn forget(self) -> Unchecked<T> {
        Unchecked(self.value)
    }
}

/// The unwrapped copies a scheme's slice-taking functions want.
fn bare<'a, T: Clone + 'a, W: Deref<Target = T> + 'a>(
    items: impl IntoIterator<Item = &'a W>,
) -> Vec<T> {
    items.into_iter().map(|item| (**item).clone()).collect()
}

/// The members of a quarantine that pass `check`, a batched check with a
/// verdict per member.
fn drained<T>(
    quarantine: impl IntoIterator<Item = Unchecked<T>>,
    under: Under,
    check: impl FnOnce(&[T]) -> Vec<bool>,
) -> Vec<Checked<T>> {
    let items: Vec<T> = quarantine.into_iter().map(|item| item.0).collect();
    let verdicts = check(&items);
    let kept = items.into_iter().zip(verdicts).filter(|(_, ok)| *ok);
    kept.map(|(value, _)| Checked { value, under }).collect()
}

/// Which of the group's two threshold-signature keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Thsig {
    /// The broadcast quorum's (consistent-broadcast echoes and finals).
    Broadcast,
    /// The `n - t` quorum's (binary-agreement votes and decisions).
    Agreement,
}

impl Thsig {
    fn under(self, statement: &[u8]) -> Under {
        let domain = match self {
            Thsig::Broadcast => Under::BROADCAST,
            Thsig::Agreement => Under::AGREEMENT,
        };
        Under::new(domain, statement)
    }
}

impl GroupContext {
    fn thsig(&self, key: Thsig) -> &ThresholdSigPublic {
        match key {
            Thsig::Broadcast => &self.keys().common.thsig_broadcast,
            Thsig::Agreement => &self.keys().common.thsig_agreement,
        }
    }

    /// This party's share of the threshold signature on `statement`.
    pub fn sign_share(&self, key: Thsig, statement: &[u8]) -> Checked<SigShare> {
        let value = match key {
            Thsig::Broadcast => self.keys().thsig_broadcast.sign_share(statement),
            Thsig::Agreement => self.keys().thsig_agreement.sign_share(statement),
        };
        let under = key.under(statement);
        Checked { value, under }
    }

    /// A peer's signature share, if it verifies over `statement`.
    pub fn check_share(
        &self,
        key: Thsig,
        statement: &[u8],
        share: &Unchecked<SigShare>,
    ) -> Option<Checked<SigShare>> {
        self.check_share_holding(key, statement, share, None)
    }

    /// [`Self::check_share`] by a handler that holds `held`: a share equal
    /// to one of those under this key and statement is not verified again.
    pub fn check_share_holding<'a>(
        &self,
        key: Thsig,
        statement: &[u8],
        share: &Unchecked<SigShare>,
        held: impl IntoIterator<Item = &'a Checked<SigShare>>,
    ) -> Option<Checked<SigShare>> {
        let under = key.under(statement);
        let vouched = share.vouched(under, held);
        vouched.or_else(|| share.checked_if(self.thsig(key).verify_share(statement, share), under))
    }

    /// The threshold signature on `statement` from shares that are each
    /// checked under that very statement or this party's own for it;
    /// none is verified again.
    pub fn assemble_sig<'a>(
        &self,
        key: Thsig,
        statement: &[u8],
        shares: impl IntoIterator<Item = &'a Checked<SigShare>>,
    ) -> Option<Checked<ThresholdSignature>> {
        let under = key.under(statement);
        let bare = |share: &Checked<SigShare>| (share.under == under).then(|| share.value.clone());
        let bare: Vec<SigShare> = shares.into_iter().map(bare).collect::<Option<_>>()?;
        let value = self.thsig(key).assemble_preverified(statement, &bare);
        Some(Checked {
            value: value.ok()?,
            under,
        })
    }

    /// An assembled threshold signature, if it verifies over `statement`.
    pub fn check_sig(
        &self,
        key: Thsig,
        statement: &[u8],
        sig: &Unchecked<ThresholdSignature>,
    ) -> Option<Checked<ThresholdSignature>> {
        self.check_sig_holding(key, statement, sig, None, None)
    }

    /// [`Self::check_sig`] by a handler that holds `held_sigs` and
    /// `held_shares`, whatever they stand under. A signature equal to a
    /// held one under this key and statement is not verified at all (a
    /// Shoup signature is unique, so that is its whole route); of a
    /// multi-signature that is not, each component equal to a held share
    /// of its signer under this key and statement is spared and the rest
    /// are verified, behind the checks of the quorum's shape.
    pub fn check_sig_holding<'a, S>(
        &self,
        key: Thsig,
        statement: &[u8],
        sig: &Unchecked<ThresholdSignature>,
        held_sigs: impl IntoIterator<Item = &'a Checked<ThresholdSignature>>,
        held_shares: S,
    ) -> Option<Checked<ThresholdSignature>>
    where
        S: IntoIterator<Item = &'a Checked<SigShare>>,
        S::IntoIter: Clone,
    {
        let under = key.under(statement);
        if let Some(vouched) = sig.vouched(under, held_sigs) {
            return Some(vouched);
        }
        let held_shares = held_shares.into_iter();
        let held = |index: usize, component: &RsaSignature| {
            held_shares.clone().any(|held| {
                let same = matches!(&held.body, SigShareBody::Multi { sig } if sig == component);
                held.under == under && held.index == index && same
            })
        };
        let verified = self.thsig(key).verify_beyond(statement, sig, held);
        sig.checked_if(verified, under)
    }

    fn party_signed(&self, signer: PartyId, statement: &[u8], sig: &RsaSignature) -> bool {
        let key = self.keys().common.sig_publics.get(signer.0);
        key.is_some_and(|key| key.verify(statement, sig))
    }

    /// `signer`'s standard RSA signature, if it verifies over
    /// `statement`; an unknown signer verifies nothing.
    pub fn check_party_sig(
        &self,
        signer: PartyId,
        statement: &[u8],
        sig: &Unchecked<RsaSignature>,
    ) -> Option<Checked<RsaSignature>> {
        let under = Under::new(Under::PARTY, statement);
        sig.checked_if(self.party_signed(signer, statement, sig), under)
    }

    /// This party's entry over `payloads` for `round` of channel `pid`.
    pub fn sign_entry(
        &self,
        pid: &ProtocolId,
        round: u64,
        payloads: Vec<Payload>,
    ) -> Checked<Entry> {
        let key = &self.keys().sig_key;
        let value = Entry::sign(pid, round, payloads, self.me(), key);
        let (_, under) = Under::entry(pid, round, value.digest());
        Checked { value, under }
    }

    /// An entry, if its signer's signature verifies over
    /// `(pid, round, digest)`.
    pub fn check_entry(
        &self,
        pid: &ProtocolId,
        round: u64,
        entry: &Unchecked<Entry>,
    ) -> Option<Checked<Entry>> {
        let (statement, under) = Under::entry(pid, round, entry.digest());
        let signed = self.party_signed(entry.signer(), &statement, entry.sig());
        entry.checked_if(signed, under)
    }

    /// An entry reference, if its signer's signature verifies over
    /// `(pid, round, digest)`.
    pub fn check_entry_ref(
        &self,
        pid: &ProtocolId,
        round: u64,
        entry: &Unchecked<EntryRef>,
    ) -> Option<Checked<EntryRef>> {
        self.check_entry_ref_holding(pid, round, entry, None)
    }

    /// [`Self::check_entry_ref`] by a handler that holds the entries
    /// `held`: a reference to one of them for this channel and round,
    /// under the signature it is held with, is not verified again.
    pub fn check_entry_ref_holding<'a>(
        &self,
        pid: &ProtocolId,
        round: u64,
        entry: &Unchecked<EntryRef>,
        held: impl IntoIterator<Item = &'a Checked<Entry>>,
    ) -> Option<Checked<EntryRef>> {
        let (statement, under) = Under::entry(pid, round, &entry.digest);
        let vouched = entry.vouched(under, held);
        vouched.or_else(|| {
            let signed = self.party_signed(entry.signer, &statement, &entry.sig);
            entry.checked_if(signed, under)
        })
    }

    /// This party's share of the coin `name`.
    pub fn release_coin_share(&self, name: &[u8]) -> Checked<CoinShare> {
        let coin = &self.keys().common.coin;
        let value = coin.release_share(name, &self.keys().coin_secret);
        let under = Under::new(Under::COIN, name);
        Checked { value, under }
    }

    /// Drains a quarantine of shares of the coin `name` with one batched
    /// check; what fails is dropped.
    pub fn check_coin_shares(
        &self,
        name: &[u8],
        shares: impl IntoIterator<Item = Unchecked<CoinShare>>,
    ) -> Vec<Checked<CoinShare>> {
        let coin = &self.keys().common.coin;
        let under = Under::new(Under::COIN, name);
        drained(shares, under, |shares| coin.verify_shares(name, shares))
    }

    /// The bit of the coin `name` as `shares` open it, with the
    /// threshold's worth of them that the opening verified (it verifies
    /// what it uses, whoever checked before).
    pub fn open_coin<'a, W: Deref<Target = CoinShare> + 'a>(
        &self,
        name: &[u8],
        shares: impl IntoIterator<Item = &'a W>,
    ) -> Option<(bool, Vec<Checked<CoinShare>>)> {
        let coin = &self.keys().common.coin;
        let mut shares = bare(shares);
        let bit = coin.assemble_bit(name, &shares).ok()?;
        shares.truncate(coin.threshold());
        let under = Under::new(Under::COIN, name);
        let used = shares.into_iter().map(|value| Checked { value, under });
        Some((bit, used.collect()))
    }

    /// This party's decryption shares for `cts`, the valid ciphertexts
    /// that round `round` of channel `pid` ordered (each has passed
    /// `verify_ciphertext`), under one proof.
    pub fn release_dec_batch(
        &self,
        pid: &ProtocolId,
        round: u64,
        cts: &[&Ciphertext],
    ) -> Checked<DecryptionBatch> {
        let (context, under) = Under::ciphertexts(pid, round, cts);
        let enc = &self.keys().common.enc;
        let value = enc.batch_share_prechecked(&context, cts, &self.keys().enc_secret);
        Checked { value, under }
    }

    /// A peer's decryption shares for the same ciphertexts, if there is
    /// one per ciphertext and its proof verifies.
    pub fn check_dec_batch(
        &self,
        pid: &ProtocolId,
        round: u64,
        cts: &[&Ciphertext],
        batch: &Unchecked<DecryptionBatch>,
    ) -> Option<Checked<DecryptionBatch>> {
        let (context, under) = Under::ciphertexts(pid, round, cts);
        let verified = self
            .keys()
            .common
            .enc
            .verify_batch_share(&context, cts, batch);
        batch.checked_if(verified, under)
    }

    /// The plaintexts of `cts` from batches that are each checked for
    /// those very ciphertexts of that round, or this party's own; none is
    /// verified again.
    pub fn combine_dec_batches<'a>(
        &self,
        pid: &ProtocolId,
        round: u64,
        cts: &[&Ciphertext],
        batches: impl IntoIterator<Item = &'a Checked<DecryptionBatch>>,
    ) -> Option<Vec<Vec<u8>>> {
        let (_, under) = Under::ciphertexts(pid, round, cts);
        let bare =
            |batch: &'a Checked<DecryptionBatch>| (batch.under == under).then_some(&batch.value);
        let bare: Vec<&DecryptionBatch> = batches.into_iter().map(bare).collect::<Option<_>>()?;
        let enc = &self.keys().common.enc;
        enc.combine_batches_prechecked(cts, &bare).ok()
    }
}
