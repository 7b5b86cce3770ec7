//! A compact, self-describing-free binary codec for protocol messages.
//!
//! SINTRA's Java implementation hand-serialized its messages; no serde
//! format crate is available offline, so this crate does the same. The
//! codec is deliberately simple: fixed-width big-endian integers,
//! length-prefixed byte strings, and a one-byte discriminant per enum.
//! Everything that crosses the (simulated or real) network implements
//! [`Wire`], and the encoding doubles as the byte string that MACs and
//! signatures are computed over.

use std::error::Error;
use std::fmt;

use crate::invariant::OrInvariant;

use sintra_bigint::Ubig;

/// Maximum accepted length prefix (16 MiB), bounding allocation from
/// malicious inputs.
pub const MAX_LEN: usize = 16 * 1024 * 1024;

/// An error produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded [`MAX_LEN`].
    LengthOverflow,
    /// An enum discriminant byte was not recognized.
    BadDiscriminant(u8),
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes,
    /// An atomic-channel entry's payload vector was empty, over its byte
    /// budget, or named an `(origin, seq)` twice.
    MalformedEntry,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::LengthOverflow => write!(f, "length prefix exceeds limit"),
            WireError::BadDiscriminant(d) => write!(f, "unknown discriminant byte {d}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::MalformedEntry => write!(f, "malformed entry payload vector"),
        }
    }
}

impl Error for WireError {}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Takes exactly `N` raw bytes as an array.
    pub fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The bytes not yet consumed, without consuming them: a decoder that
    /// hashes what it reads takes this first and cuts it at what
    /// [`Reader::remaining`] says afterwards.
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Takes every byte not yet consumed (cannot fail).
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = self.data;
        self.data = &[];
        rest
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_arr()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_arr()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow);
        }
        self.take(len)
    }
}

/// Types with a canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes from a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or leftovers.
    fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

/// Writes a `u32` big-endian length prefix, checked rather than
/// truncated: a length that does not fit the prefix is a protocol
/// invariant violation, never a silent wrap-around.
pub fn put_len(buf: &mut Vec<u8>, len: usize) {
    let len32 = u32::try_from(len).or_invariant("length exceeds the u32 wire prefix");
    buf.extend_from_slice(&len32.to_be_bytes());
}

/// Writes a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_len(buf, data.len());
    buf.extend_from_slice(data);
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// Version of the wire format described by `WIRE_SCHEMA.json`.
///
/// `sintra-lint`'s `wire-schema` rule extracts the codec schema from the
/// `Wire` impls and diffs it against the committed golden; any schema
/// change must bump this constant in the same commit, making wire breaks
/// an explicit, reviewable event rather than a silent drift.
pub const WIRE_FORMAT_VERSION: u32 = 3;

/// Wire discriminants. Explicit and append-only: renumbering or reusing
/// a tag byte is a wire-format break (`sintra-lint`'s `wire-stability`
/// rule bans raw tag literals so every tag lives here, under a name).
const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_NONE: u8 = 0;
const TAG_SOME: u8 = 1;
const TAG_SIGSHARE_SHOUP: u8 = 0;
const TAG_SIGSHARE_MULTI: u8 = 1;
const TAG_THSIG_SHOUP: u8 = 0;
const TAG_THSIG_MULTI: u8 = 1;

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(if *self { TAG_TRUE } else { TAG_FALSE });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.bytes()?.to_vec())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::BadDiscriminant(0xFF))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(TAG_NONE),
            Some(v) => {
                buf.push(TAG_SOME);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_NONE => Ok(None),
            TAG_SOME => Ok(Some(T::decode(r)?)),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// Vectors of non-byte elements (byte vectors have a dedicated impl).
macro_rules! impl_wire_vec {
    ($($t:ty),*) => {$(
        impl Wire for Vec<$t> {
            fn encode(&self, buf: &mut Vec<u8>) {
                put_len(buf, self.len());
                for item in self {
                    item.encode(buf);
                }
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let len = r.u32()? as usize;
                if len > MAX_LEN {
                    return Err(WireError::LengthOverflow);
                }
                let mut out = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    out.push(<$t>::decode(r)?);
                }
                Ok(out)
            }
        }
    )*};
}

impl Wire for Ubig {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, &self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ubig::from_be_bytes(r.bytes()?))
    }
}

impl Wire for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_arr()
    }
}

// --- crypto types ---------------------------------------------------------

use crate::message::EntryRef;
use sintra_crypto::coin::CoinShare;
use sintra_crypto::dleq::DleqProof;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thenc::{Ciphertext, DecryptionShare};
use sintra_crypto::thsig::{ShoupShareProof, SigShare, SigShareBody, ThresholdSignature};

impl Wire for DleqProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.commit_g.encode(buf);
        self.commit_u.encode(buf);
        self.response.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DleqProof {
            commit_g: Ubig::decode(r)?,
            commit_u: Ubig::decode(r)?,
            response: Ubig::decode(r)?,
        })
    }
}

impl Wire for CoinShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.index as u32).encode(buf);
        self.value.encode(buf);
        self.proof.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CoinShare {
            index: r.u32()? as usize,
            value: Ubig::decode(r)?,
            proof: DleqProof::decode(r)?,
        })
    }
}

impl Wire for RsaSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RsaSignature(Ubig::decode(r)?))
    }
}

impl Wire for ShoupShareProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.challenge.encode(buf);
        self.response.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShoupShareProof {
            challenge: Ubig::decode(r)?,
            response: Ubig::decode(r)?,
        })
    }
}

impl Wire for SigShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.index as u32).encode(buf);
        match &self.body {
            SigShareBody::ShoupRsa { sigma, proof } => {
                buf.push(TAG_SIGSHARE_SHOUP);
                sigma.encode(buf);
                proof.encode(buf);
            }
            SigShareBody::Multi { sig } => {
                buf.push(TAG_SIGSHARE_MULTI);
                sig.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let index = r.u32()? as usize;
        let body = match r.u8()? {
            TAG_SIGSHARE_SHOUP => SigShareBody::ShoupRsa {
                sigma: Ubig::decode(r)?,
                proof: ShoupShareProof::decode(r)?,
            },
            TAG_SIGSHARE_MULTI => SigShareBody::Multi {
                sig: RsaSignature::decode(r)?,
            },
            d => return Err(WireError::BadDiscriminant(d)),
        };
        Ok(SigShare { index, body })
    }
}

impl_wire_vec!(CoinShare, SigShare, DecryptionShare, Ubig, EntryRef);

impl Wire for ThresholdSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ThresholdSignature::ShoupRsa(y) => {
                buf.push(TAG_THSIG_SHOUP);
                y.encode(buf);
            }
            ThresholdSignature::Multi(sigs) => {
                buf.push(TAG_THSIG_MULTI);
                put_len(buf, sigs.len());
                for (index, sig) in sigs {
                    (*index as u32).encode(buf);
                    sig.encode(buf);
                }
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_THSIG_SHOUP => Ok(ThresholdSignature::ShoupRsa(Ubig::decode(r)?)),
            TAG_THSIG_MULTI => {
                let len = r.u32()? as usize;
                if len > MAX_LEN {
                    return Err(WireError::LengthOverflow);
                }
                let mut sigs = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let index = r.u32()? as usize;
                    sigs.push((index, RsaSignature::decode(r)?));
                }
                Ok(ThresholdSignature::Multi(sigs))
            }
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

impl Wire for Ciphertext {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.data.encode(buf);
        self.label.encode(buf);
        self.u.encode(buf);
        self.u_bar.encode(buf);
        self.e.encode(buf);
        self.f.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ciphertext {
            data: Vec::<u8>::decode(r)?,
            label: Vec::<u8>::decode(r)?,
            u: Ubig::decode(r)?,
            u_bar: Ubig::decode(r)?,
            e: Ubig::decode(r)?,
            f: Ubig::decode(r)?,
        })
    }
}

impl Wire for DecryptionShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.index as u32).encode(buf);
        self.value.encode(buf);
        self.proof.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DecryptionShare {
            index: r.u32()? as usize,
            value: Ubig::decode(r)?,
            proof: DleqProof::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(b"hello".to_vec());
        roundtrip(Vec::<u8>::new());
        roundtrip("protocol/1/ba".to_string());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(Ubig::from_hex("deadbeefcafef00d1234").unwrap());
        roundtrip(Ubig::zero());
        roundtrip([7u8; 32]);
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = 0xDEAD_BEEFu32.to_bytes();
        assert_eq!(u32::from_bytes(&bytes[..3]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(0);
        assert_eq!(u32::from_bytes(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert_eq!(Vec::<u8>::from_bytes(&buf), Err(WireError::LengthOverflow));
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::BadDiscriminant(2)));
    }

    #[test]
    fn crypto_share_roundtrip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let group = sintra_crypto::fixtures::schnorr_group(128).unwrap();
        let (public, secrets) = sintra_crypto::coin::CoinScheme::deal(&group, 4, 2, &mut rng);
        let scheme = sintra_crypto::coin::CoinScheme::new(group, public);
        let share = scheme.release_share(b"c", &secrets[1]);
        let decoded = CoinShare::from_bytes(&share.to_bytes()).unwrap();
        assert_eq!(decoded, share);
        assert!(scheme.verify_share(b"c", &decoded));
    }

    #[test]
    fn threshold_signature_roundtrip() {
        let sig = ThresholdSignature::Multi(vec![
            (0, RsaSignature(Ubig::from(5u64))),
            (3, RsaSignature(Ubig::from(7u64))),
        ]);
        roundtrip(sig);
        roundtrip(ThresholdSignature::ShoupRsa(Ubig::from(11u64)));
    }
}
