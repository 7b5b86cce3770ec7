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

use crate::checked::Unchecked;
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
    /// A protocol identifier was not UTF-8.
    InvalidUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::LengthOverflow => write!(f, "length prefix exceeds limit"),
            WireError::BadDiscriminant(d) => write!(f, "unknown discriminant byte {d}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::MalformedEntry => write!(f, "malformed entry payload vector"),
            WireError::InvalidUtf8 => write!(f, "protocol identifier is not UTF-8"),
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

    /// Reads a length-prefixed sequence of at most `max` items.
    pub fn seq<T: Wire>(&mut self, max: usize) -> Result<Vec<T>, WireError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(WireError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// How one type lies on the wire. `WIRE_SCHEMA.json` is rendered from
/// these (see [`crate::schema`]), and they form a tree a structure-aware
/// fuzzer can walk from [`Envelope`](crate::message::Envelope) down.
#[derive(Debug)]
pub struct Layout {
    /// The type's name; for a wrapper its constructor (`Vec`, `Option`,
    /// `Box`).
    pub name: &'static str,
    /// Why a struct's or enum's codec is written by hand; `None` when it
    /// is expanded from a `wire_struct!` / `wire_enum!` declaration.
    pub by_hand: Option<&'static str>,
    /// Whether the value is declared [`Unchecked`]. That adds no bytes
    /// and is not in the schema; `tests/wire_schema.rs` walks from the
    /// roots and fails on a signature-bearing type declared without it.
    pub unchecked: bool,
    /// The bytes.
    pub shape: Shape,
}

/// The shape of a [`Layout`].
#[derive(Debug)]
pub enum Shape {
    /// A fixed encoding, described in words.
    Atom(&'static str),
    /// `name<inner>`, with what the wrapper adds in words.
    Wrap(&'static str, &'static Layout),
    /// Two values, one after the other.
    Pair(&'static Layout, &'static Layout),
    /// The fields in wire order.
    Struct(&'static [Field]),
    /// One tag byte, then the fields of the variant it names.
    Enum(&'static [Variant]),
}

/// One field of a struct or of an enum variant.
#[derive(Debug)]
pub struct Field {
    /// The field's name (its index in a tuple struct).
    pub name: &'static str,
    /// The field's layout.
    pub ty: &'static Layout,
    /// Most items a sequence field decodes, when below [`MAX_LEN`].
    pub max: Option<usize>,
}

/// One variant of an enum.
#[derive(Debug)]
pub struct Variant {
    /// The variant's name.
    pub name: &'static str,
    /// The name of its tag constant.
    pub tag_name: &'static str,
    /// The tag byte.
    pub tag: u8,
    /// The fields that follow the tag.
    pub fields: &'static [Field],
}

impl Field {
    /// The field `name` of layout `ty`, a sequence of at most `max` items
    /// if that is below [`MAX_LEN`].
    pub const fn new(name: &'static str, ty: &'static Layout, max: Option<usize>) -> Self {
        Field { name, ty, max }
    }
}

impl Layout {
    /// A hand-written fixed encoding.
    pub const fn atom(name: &'static str, bytes: &'static str) -> Self {
        Layout {
            name,
            by_hand: None,
            unchecked: false,
            shape: Shape::Atom(bytes),
        }
    }

    /// The wrapper `name<inner>`, which adds `bytes` around the value.
    pub const fn wrap(name: &'static str, bytes: &'static str, inner: &'static Layout) -> Self {
        Layout {
            name,
            by_hand: None,
            unchecked: false,
            shape: Shape::Wrap(bytes, inner),
        }
    }

    /// A vector of non-byte elements.
    pub const fn vec_of(item: &'static Layout) -> Self {
        let bytes = "u32 count (at most MAX_LEN, or the field's max), then the items";
        Layout::wrap("Vec", bytes, item)
    }

    /// The layouts this one is made of, in wire order.
    pub fn children(&self) -> Vec<&'static Layout> {
        match self.shape {
            Shape::Atom(_) => Vec::new(),
            Shape::Wrap(_, inner) => vec![inner],
            Shape::Pair(a, b) => vec![a, b],
            Shape::Struct(fields) => fields.iter().map(|f| f.ty).collect(),
            Shape::Enum(variants) => {
                let fields = variants.iter().flat_map(|v| v.fields);
                fields.map(|f| f.ty).collect()
            }
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Wire: Sized {
    /// The encoding's layout.
    const LAYOUT: Layout;

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

/// Writes a length (or an index) as a big-endian `u32`, checked rather
/// than truncated: a value that does not fit is a protocol invariant
/// violation, never a silent wrap-around.
pub fn put_len(buf: &mut Vec<u8>, len: usize) {
    let len32 = u32::try_from(len).or_invariant("length or index exceeds the u32 on the wire");
    buf.extend_from_slice(&len32.to_be_bytes());
}

/// Writes a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_len(buf, data.len());
    buf.extend_from_slice(data);
}

/// Writes a length-prefixed sequence.
pub fn put_seq<T: Wire>(buf: &mut Vec<u8>, items: &[T]) {
    put_len(buf, items.len());
    for item in items {
        item.encode(buf);
    }
}

/// Declares a struct's wire layout, once: the fields in wire order, each
/// with its type, and `[max N]` after a sequence that decodes at most
/// `N` items. Expands to `encode`, `decode` and `LAYOUT`, so the two
/// directions cannot disagree; a missing or misspelt field, or a type
/// other than the struct's own, does not compile. A tuple struct names
/// its fields `0`, `1`, ….
macro_rules! wire_struct {
    ($name:ident { $($field:tt : $ty:ty $([max $max:expr])?),+ $(,)? }) => {
        const _: () = {
            use $crate::wire::{Field, Layout, Reader, Shape, Wire, WireError};
            impl Wire for $name {
                const LAYOUT: Layout = Layout {
                    name: stringify!($name),
                    by_hand: None,
                    unchecked: false,
                    shape: Shape::Struct(&[$(Field::new(
                        stringify!($field),
                        &<$ty as Wire>::LAYOUT,
                        $crate::wire::wire_struct!(@max $($max)?),
                    )),+]),
                };
                fn encode(&self, buf: &mut Vec<u8>) {
                    $(self.$field.encode(buf);)+
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok($name { $($field: $crate::wire::wire_struct!(@decode r $(, $max)?)),+ })
                }
            }
        };
    };
    (@max) => { None };
    (@max $max:expr) => { Some($max) };
    (@decode $r:ident) => { Wire::decode($r)? };
    (@decode $r:ident, $max:expr) => { $r.seq($max)? };
}
pub(crate) use wire_struct;

/// Declares an enum's wire layout, once: per variant its tag constant
/// (named, append-only, defined beside the declaration) and its fields in
/// wire order — `TAG => Unit`, `TAG => Tuple(name: Type)` or
/// `TAG => Struct { name: Type }`. Expands to `encode`, `decode` (an
/// unknown tag is [`WireError::BadDiscriminant`]) and `LAYOUT`; a missing
/// variant is a non-exhaustive `match` and does not compile.
macro_rules! wire_enum {
    ($name:ident { $(
        $tag:ident => $variant:ident
            $(( $($tf:ident : $tt:ty),+ ))?
            $({ $($sf:ident : $st:ty),+ $(,)? })?
    ),+ $(,)? }) => {
        const _: () = {
            #[allow(unused_imports)] // `Field`: not by an enum of unit variants
            use $crate::wire::{Field, Layout, Reader, Shape, Variant, Wire, WireError};
            impl Wire for $name {
                const LAYOUT: Layout = Layout {
                    name: stringify!($name),
                    by_hand: None,
                    unchecked: false,
                    shape: Shape::Enum(&[$(Variant {
                        name: stringify!($variant),
                        tag_name: stringify!($tag),
                        tag: $tag,
                        fields: &[
                            $($(Field::new(stringify!($tf), &<$tt as Wire>::LAYOUT, None)),+)?
                            $($(Field::new(stringify!($sf), &<$st as Wire>::LAYOUT, None)),+)?
                        ],
                    }),+]),
                };
                fn encode(&self, buf: &mut Vec<u8>) {
                    match self {$(
                        $name::$variant $(( $($tf),+ ))? $({ $($sf),+ })? => {
                            buf.push($tag);
                            $($($tf.encode(buf);)+)?
                            $($($sf.encode(buf);)+)?
                        }
                    )+}
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(match r.u8()? {
                        $($tag => $name::$variant
                            $(( $(<$tt>::decode(r)?),+ ))?
                            $({ $($sf: <$st>::decode(r)?),+ })?,)+
                        d => return Err(WireError::BadDiscriminant(d)),
                    })
                }
            }
        };
    };
}
pub(crate) use wire_enum;

// --- atoms: the encodings written by hand -----------------------------------

impl Wire for u8 {
    const LAYOUT: Layout = Layout::atom("u8", "one byte");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    const LAYOUT: Layout = Layout::atom("u32", "4 bytes, big-endian");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    const LAYOUT: Layout = Layout::atom("u64", "8 bytes, big-endian");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// Party and share indices travel as a `u32`, checked like a length
/// prefix: an index that does not fit is an invariant violation, not
/// some other party's index.
impl Wire for usize {
    const LAYOUT: Layout = Layout::atom("usize", "4 bytes, big-endian; checked on encode");
    fn encode(&self, buf: &mut Vec<u8>) {
        put_len(buf, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.u32()? as usize)
    }
}

/// Version of the wire format described by `WIRE_SCHEMA.json`.
///
/// The golden is rendered from the declared layouts and diffed in
/// `tests/wire_schema.rs`; the generator (`cargo run -p sintra-core
/// --example wire_schema`) refuses to rewrite it when a layout changed
/// and this constant did not, making wire breaks an explicit, reviewable
/// event rather than a silent drift.
pub const WIRE_FORMAT_VERSION: u32 = 4;

/// Wire discriminants. Explicit and append-only: renumbering or reusing
/// a tag byte is a wire-format break, so every tag lives here, under a
/// name, and `tests/wire_kat.rs` pins the bytes each one encodes to.
const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_NONE: u8 = 0;
const TAG_SOME: u8 = 1;
const TAG_SIGSHARE_SHOUP: u8 = 0;
const TAG_SIGSHARE_MULTI: u8 = 1;
const TAG_THSIG_SHOUP: u8 = 0;
const TAG_THSIG_MULTI: u8 = 1;

impl Wire for bool {
    const LAYOUT: Layout = Layout::atom("bool", "one byte: TAG_FALSE = 0, TAG_TRUE = 1");
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
    const LAYOUT: Layout = Layout::atom("Vec<u8>", "u32 length (at most MAX_LEN), then the bytes");
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.bytes()?.to_vec())
    }
}

impl<T: Wire> Wire for Option<T> {
    const LAYOUT: Layout = Layout::wrap(
        "Option",
        "one byte, TAG_NONE = 0 or TAG_SOME = 1, then the value if any",
        &T::LAYOUT,
    );
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
    const LAYOUT: Layout = Layout::wrap("Box", "the value", &T::LAYOUT);
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// `T`'s own bytes and `T`'s own place in the schema: what the decoder
/// adds is that nobody has checked the value.
impl<T: Wire> Wire for Unchecked<T> {
    const LAYOUT: Layout = Layout {
        unchecked: true,
        ..T::LAYOUT
    };
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(T::decode(r)?.into())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const LAYOUT: Layout = Layout {
        name: "pair",
        by_hand: None,
        unchecked: false,
        shape: Shape::Pair(&A::LAYOUT, &B::LAYOUT),
    };
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Vectors of non-byte elements (byte vectors have a dedicated impl).
macro_rules! impl_wire_vec {
    ($($t:ty),*) => {$(
        impl $crate::wire::Wire for Vec<$t> {
            const LAYOUT: $crate::wire::Layout =
                $crate::wire::Layout::vec_of(&<$t as $crate::wire::Wire>::LAYOUT);
            fn encode(&self, buf: &mut Vec<u8>) {
                $crate::wire::put_seq(buf, self);
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                r.seq($crate::wire::MAX_LEN)
            }
        }
    )*};
}
pub(crate) use impl_wire_vec;

impl<T: Wire> Wire for Vec<Unchecked<T>> {
    const LAYOUT: Layout = Layout::vec_of(&<Unchecked<T>>::LAYOUT);
    fn encode(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq(MAX_LEN)
    }
}

impl Wire for Ubig {
    const LAYOUT: Layout = Layout::atom("Ubig", "u32 length, then the big-endian magnitude");
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, &self.to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ubig::from_be_bytes(r.bytes()?))
    }
}

impl Wire for [u8; 32] {
    const LAYOUT: Layout = Layout::atom("[u8; 32]", "32 bytes");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_arr()
    }
}

// --- crypto types ---------------------------------------------------------

use sintra_crypto::coin::CoinShare;
use sintra_crypto::dleq::DleqProof;
use sintra_crypto::rsa::RsaSignature;
use sintra_crypto::thenc::{Ciphertext, DecryptionBatch};
use sintra_crypto::thsig::{ShoupShareProof, SigShare, SigShareBody, ThresholdSignature};

wire_struct!(DleqProof {
    commit_g: Ubig,
    commit_u: Ubig,
    response: Ubig
});
wire_struct!(CoinShare {
    index: usize,
    value: Ubig,
    proof: DleqProof
});
wire_struct!(RsaSignature { 0: Ubig });
wire_struct!(ShoupShareProof {
    challenge: Ubig,
    response: Ubig
});
wire_struct!(SigShare {
    index: usize,
    body: SigShareBody
});
wire_enum!(SigShareBody {
    TAG_SIGSHARE_SHOUP => ShoupRsa { sigma: Ubig, proof: ShoupShareProof },
    TAG_SIGSHARE_MULTI => Multi { sig: RsaSignature },
});
wire_enum!(ThresholdSignature {
    TAG_THSIG_SHOUP => ShoupRsa(sig: Ubig),
    TAG_THSIG_MULTI => Multi(sigs: Vec<(usize, RsaSignature)>),
});
wire_struct!(Ciphertext { data: Vec<u8>, label: Vec<u8>, u: Ubig, u_bar: Ubig, e: Ubig, f: Ubig });
wire_struct!(DecryptionBatch {
    index: usize,
    values: Vec<Ubig> [max crate::message::MAX_DECRYPTION_BATCH],
    proof: DleqProof
});

impl_wire_vec!(Ubig, (usize, RsaSignature));

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
    #[should_panic(expected = "index exceeds the u32 on the wire")]
    fn oversized_party_index_is_an_invariant_violation() {
        // Not four zero bytes, which would read as party 0.
        crate::PartyId(1 << 32).to_bytes();
    }

    #[test]
    #[should_panic(expected = "index exceeds the u32 on the wire")]
    fn oversized_share_index_is_an_invariant_violation() {
        let proof = DleqProof {
            commit_g: Ubig::zero(),
            commit_u: Ubig::zero(),
            response: Ubig::zero(),
        };
        CoinShare {
            index: 1 << 32,
            value: Ubig::zero(),
            proof,
        }
        .to_bytes();
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
