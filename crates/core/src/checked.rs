//! Verify-before-mutate as a type.
//!
//! The decoder yields every signature, share, entry and entry reference
//! as an [`Unchecked<T>`]: anyone may build one and read it — a handler's
//! free filters look at `share.index` or `entry.signer()` — but no
//! protocol state accepts one. State holds [`Checked<T>`], and the only
//! code that can build a `Checked` is in this file. There are three ways:
//!
//! 1. a check that returned true on that very value — the `check_*`
//!    methods of [`GroupContext`];
//! 2. this party produced the value itself — `sign_*`, `release_*`,
//!    `assemble_sig`;
//! 3. the value equals one already checked under the same statement —
//!    [`Checked::vouches_for`].
//!
//! A quarantine (coin shares parked until a quorum is in, decryption
//! shares ahead of their ciphertext) is an `Unchecked<T>` in a bounded
//! buffer; only a batched `check_*` drains it. The checks run where a
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
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thenc::{Ciphertext, DecryptionShare};
use sintra_crypto::thsig::{SigShare, ThresholdSigPublic, ThresholdSignature};

use crate::config::GroupContext;
use crate::ids::{PartyId, ProtocolId};
use crate::message::{statement_entry, Entry, EntryRef, Payload};

/// A value nobody has checked: off the wire, or forgotten for sending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unchecked<T>(T);

/// A value that was checked, produced here, or equals one that was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked<T>(T);

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
    /// This value as checked, given the verdict of a check of it.
    fn checked_if(&self, verified: bool) -> Option<Checked<T>> {
        verified.then(|| Checked(self.0.clone()))
    }
}

impl<T> Deref for Checked<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Checked<T> {
    /// Forgets the check, for putting the value into a message.
    pub fn forget(self) -> Unchecked<T> {
        Unchecked(self.0)
    }

    /// `other` as checked, if it equals this value. The caller vouches
    /// that both stand under the same statement: a held entry and a
    /// reference to it in the same channel and round.
    pub fn vouches_for<U: Clone>(&self, other: &Unchecked<U>) -> Option<Checked<U>>
    where
        T: PartialEq<U>,
    {
        (self.0 == other.0).then(|| Checked(other.0.clone()))
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
    check: impl FnOnce(&[T]) -> Vec<bool>,
) -> Vec<Checked<T>> {
    let items: Vec<T> = quarantine.into_iter().map(|item| item.0).collect();
    let verdicts = check(&items);
    let kept = items.into_iter().zip(verdicts).filter(|(_, ok)| *ok);
    kept.map(|(item, _)| Checked(item)).collect()
}

/// Which of the group's two threshold-signature keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Thsig {
    /// The broadcast quorum's (consistent-broadcast echoes and finals).
    Broadcast,
    /// The `n - t` quorum's (binary-agreement votes and decisions).
    Agreement,
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
        Checked(match key {
            Thsig::Broadcast => self.keys().thsig_broadcast.sign_share(statement),
            Thsig::Agreement => self.keys().thsig_agreement.sign_share(statement),
        })
    }

    /// A peer's signature share, if it verifies over `statement`.
    pub fn check_share(
        &self,
        key: Thsig,
        statement: &[u8],
        share: &Unchecked<SigShare>,
    ) -> Option<Checked<SigShare>> {
        share.checked_if(self.thsig(key).verify_share(statement, share))
    }

    /// The threshold signature on `statement` from shares that are each
    /// checked or this party's own.
    pub fn assemble_sig<'a>(
        &self,
        key: Thsig,
        statement: &[u8],
        shares: impl IntoIterator<Item = &'a Checked<SigShare>>,
    ) -> Option<Checked<ThresholdSignature>> {
        let sig = self
            .thsig(key)
            .assemble_preverified(statement, &bare(shares));
        sig.ok().map(Checked)
    }

    /// An assembled threshold signature, if it verifies over `statement`.
    pub fn check_sig(
        &self,
        key: Thsig,
        statement: &[u8],
        sig: &Unchecked<ThresholdSignature>,
    ) -> Option<Checked<ThresholdSignature>> {
        sig.checked_if(self.thsig(key).verify(statement, sig))
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
        sig.checked_if(self.party_signed(signer, statement, sig))
    }

    /// This party's entry over `payloads` for `round` of channel `pid`.
    pub fn sign_entry(
        &self,
        pid: &ProtocolId,
        round: u64,
        payloads: Vec<Payload>,
    ) -> Checked<Entry> {
        let key = &self.keys().sig_key;
        Checked(Entry::sign(pid, round, payloads, self.me(), key))
    }

    /// An entry, if its signer's signature verifies over
    /// `(pid, round, digest)`.
    pub fn check_entry(
        &self,
        pid: &ProtocolId,
        round: u64,
        entry: &Unchecked<Entry>,
    ) -> Option<Checked<Entry>> {
        let statement = statement_entry(pid, round, entry.digest());
        entry.checked_if(self.party_signed(entry.signer(), &statement, entry.sig()))
    }

    /// An entry reference, if its signer's signature verifies over
    /// `(pid, round, digest)`.
    pub fn check_entry_ref(
        &self,
        pid: &ProtocolId,
        round: u64,
        entry: &Unchecked<EntryRef>,
    ) -> Option<Checked<EntryRef>> {
        let statement = statement_entry(pid, round, &entry.digest);
        entry.checked_if(self.party_signed(entry.signer, &statement, &entry.sig))
    }

    /// This party's share of the coin `name`.
    pub fn release_coin_share(&self, name: &[u8]) -> Checked<CoinShare> {
        let coin = &self.keys().common.coin;
        Checked(coin.release_share(name, &self.keys().coin_secret))
    }

    /// A peer's share of the coin `name`, if its proof verifies.
    pub fn check_coin_share(
        &self,
        name: &[u8],
        share: &Unchecked<CoinShare>,
    ) -> Option<Checked<CoinShare>> {
        share.checked_if(self.keys().common.coin.verify_share(name, share))
    }

    /// Drains a quarantine of shares of the coin `name` with one batched
    /// check; what fails is dropped.
    pub fn check_coin_shares(
        &self,
        name: &[u8],
        shares: impl IntoIterator<Item = Unchecked<CoinShare>>,
    ) -> Vec<Checked<CoinShare>> {
        let coin = &self.keys().common.coin;
        drained(shares, |shares| coin.verify_shares(name, shares))
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
        Some((bit, shares.into_iter().map(Checked).collect()))
    }

    /// This party's decryption share for `ct`, which has passed
    /// `verify_ciphertext`.
    pub fn release_dec_share(&self, ct: &Ciphertext) -> Checked<DecryptionShare> {
        let enc = &self.keys().common.enc;
        Checked(enc.decryption_share_prechecked(ct, &self.keys().enc_secret))
    }

    /// A peer's decryption share for `ct`, if its proof verifies.
    pub fn check_dec_share(
        &self,
        ct: &Ciphertext,
        share: &Unchecked<DecryptionShare>,
    ) -> Option<Checked<DecryptionShare>> {
        share.checked_if(self.keys().common.enc.verify_share(ct, share))
    }

    /// Drains a quarantine of decryption shares for `ct` with one batched
    /// check; what fails is dropped.
    pub fn check_dec_shares(
        &self,
        ct: &Ciphertext,
        shares: impl IntoIterator<Item = Unchecked<DecryptionShare>>,
    ) -> Vec<Checked<DecryptionShare>> {
        let enc = &self.keys().common.enc;
        drained(shares, |shares| enc.verify_shares(ct, shares))
    }

    /// The plaintext of `ct`, which has passed `verify_ciphertext`, from
    /// shares that are each checked or this party's own.
    pub fn combine_dec_shares<'a>(
        &self,
        ct: &Ciphertext,
        shares: impl IntoIterator<Item = &'a Checked<DecryptionShare>>,
    ) -> Option<Vec<u8>> {
        let enc = &self.keys().common.enc;
        enc.combine_prechecked(ct, &bare(shares)).ok()
    }
}
