//! XDR encoding and decoding (RFC 1832).
//!
//! XDR is big-endian with all items padded to 4-byte alignment. Variable-
//! length data carries a 4-byte length prefix. Optional data is a 1-bit
//! (4-byte) discriminant followed by the value.

use std::cell::Cell;
use std::fmt;

/// Errors arising while decoding XDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// Input ended before the item was complete.
    Truncated,
    /// A length field exceeded the permitted maximum.
    LengthTooLong {
        /// Length the wire claimed.
        claimed: u32,
        /// Maximum the decoder allows.
        max: u32,
    },
    /// A discriminant or enum value was not one of the legal values.
    BadDiscriminant(u32),
    /// Padding bytes were nonzero.
    BadPadding,
    /// A string was not valid UTF-8 (SFS names are byte strings on the
    /// wire; this arises only for types declared as text).
    BadUtf8,
    /// Trailing bytes remained after the top-level item.
    TrailingBytes(usize),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated => write!(f, "XDR input truncated"),
            XdrError::LengthTooLong { claimed, max } => {
                write!(f, "XDR length {claimed} exceeds maximum {max}")
            }
            XdrError::BadDiscriminant(v) => write!(f, "bad XDR discriminant {v}"),
            XdrError::BadPadding => write!(f, "nonzero XDR padding"),
            XdrError::BadUtf8 => write!(f, "XDR string is not UTF-8"),
            XdrError::TrailingBytes(n) => write!(f, "{n} trailing bytes after XDR item"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Default cap on variable-length items, preventing memory-exhaustion from
/// hostile length fields.
pub const MAX_VAR_LEN: u32 = 1 << 24;

/// An append-only XDR encoder.
#[derive(Default, Debug, Clone)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a caller-owned buffer, appending to whatever it already
    /// holds. Combined with [`Self::into_bytes`] this lets a hot path
    /// recycle one allocation across many encodes (clear the buffer
    /// first, or call [`Self::reset`], for a fresh message).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        XdrEncoder { buf }
    }

    /// Clears the encoder, keeping the buffer's capacity for reuse.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Consumes the encoder, returning the marshaled bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes marshaled so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encodes an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) -> &mut Self {
        self.put_u32(v as u32)
    }

    /// Encodes an unsigned 64-bit integer (XDR "unsigned hyper").
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encodes a signed 64-bit integer (XDR "hyper").
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.put_u64(v as u64)
    }

    /// Encodes a boolean.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u32(v as u32)
    }

    /// Encodes fixed-length opaque data (no length prefix), padded to 4
    /// bytes.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(data);
        self.pad();
        self
    }

    /// Encodes variable-length opaque data (length prefix + padding).
    pub fn put_opaque(&mut self, data: &[u8]) -> &mut Self {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data)
    }

    /// Encodes a string (same wire format as variable opaque).
    pub fn put_string(&mut self, s: &str) -> &mut Self {
        self.put_opaque(s.as_bytes())
    }

    fn pad(&mut self) {
        while !self.buf.len().is_multiple_of(4) {
            self.buf.push(0);
        }
    }
}

thread_local! {
    /// The buffer [`with_encoder`] lends, kept between calls so a warm
    /// encode does not grow a fresh `Vec` from empty.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A scratch buffer that grew past this is dropped after use, not kept.
const SCRATCH_KEEP: usize = 64 * 1024;

/// Runs `f` on an empty encoder over this thread's reusable buffer. Once
/// the buffer is warm, an encoding that is only read in place — hashed,
/// say — allocates nothing, and one copied out allocates once, at its
/// exact size. A call made inside `f` encodes into a buffer of its own.
pub fn with_encoder<T>(f: impl FnOnce(&mut XdrEncoder) -> T) -> T {
    let mut enc = XdrEncoder::from_vec(SCRATCH.take());
    enc.reset();
    let out = f(&mut enc);
    let buf = enc.into_bytes();
    if buf.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(buf);
    }
    out
}

/// A cursor-based XDR decoder.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        XdrDecoder { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the input has been fully consumed.
    pub fn finish(&self) -> Result<(), XdrError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(XdrError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decodes a signed 32-bit integer.
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Decodes an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes a signed 64-bit integer.
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(self.get_u64()? as i64)
    }

    /// Decodes a boolean (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::BadDiscriminant(v)),
        }
    }

    /// Decodes `n` bytes of fixed-length opaque data plus padding,
    /// borrowing straight from the input — the zero-copy accessor for
    /// payloads that only need to be inspected or relayed.
    pub(crate) fn get_opaque_fixed_ref(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(n)?;
        let pad = (4 - n % 4) % 4;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(XdrError::BadPadding);
        }
        Ok(data)
    }

    /// Decodes `n` bytes of fixed-length opaque data plus padding.
    pub fn get_opaque_fixed(&mut self, n: usize) -> Result<Vec<u8>, XdrError> {
        Ok(self.get_opaque_fixed_ref(n)?.to_vec())
    }

    /// Borrowing variant of [`Self::get_opaque`].
    pub fn get_opaque_ref(&mut self) -> Result<&'a [u8], XdrError> {
        self.get_opaque_max_ref(MAX_VAR_LEN)
    }

    /// [`Self::get_opaque_ref`] with an explicit cap.
    pub fn get_opaque_max_ref(&mut self, max: u32) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()?;
        if len > max {
            return Err(XdrError::LengthTooLong { claimed: len, max });
        }
        self.get_opaque_fixed_ref(len as usize)
    }

    /// Decodes variable-length opaque data with a cap of [`MAX_VAR_LEN`].
    pub fn get_opaque(&mut self) -> Result<Vec<u8>, XdrError> {
        Ok(self.get_opaque_ref()?.to_vec())
    }

    /// Decodes a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Borrowing variant of [`Self::get_string`].
    pub(crate) fn get_str_ref(&mut self) -> Result<&'a str, XdrError> {
        std::str::from_utf8(self.get_opaque_ref()?).map_err(|_| XdrError::BadUtf8)
    }
}

/// A variable-length field — XDR `string<>` or `opaque<>` — decoded
/// either into a value of its own or as a borrow of the input it sits
/// in. A message generic over its name and payload types decodes
/// through this, with one decoder for both: owned for a caller that
/// keeps the message, borrowed for one that serves it in place.
pub trait VarField<'a>: Sized {
    /// Decodes the length word, the bytes and their padding.
    fn decode_var(dec: &mut XdrDecoder<'a>) -> Result<Self, XdrError>;
}

impl<'a> VarField<'a> for String {
    fn decode_var(dec: &mut XdrDecoder<'a>) -> Result<Self, XdrError> {
        dec.get_string()
    }
}

impl<'a> VarField<'a> for &'a str {
    fn decode_var(dec: &mut XdrDecoder<'a>) -> Result<Self, XdrError> {
        dec.get_str_ref()
    }
}

impl<'a> VarField<'a> for Vec<u8> {
    fn decode_var(dec: &mut XdrDecoder<'a>) -> Result<Self, XdrError> {
        dec.get_opaque()
    }
}

impl<'a> VarField<'a> for &'a [u8] {
    fn decode_var(dec: &mut XdrDecoder<'a>) -> Result<Self, XdrError> {
        dec.get_opaque_ref()
    }
}

/// A type with an XDR wire format.
pub trait Xdr: Sized {
    /// Appends the XDR encoding of `self`.
    fn encode(&self, enc: &mut XdrEncoder);

    /// Decodes a value.
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError>;

    /// Convenience: marshal to a standalone byte vector. Encodes in the
    /// thread's [`with_encoder`] buffer and copies out: one allocation at
    /// the exact size, none for an empty encoding.
    fn to_xdr(&self) -> Vec<u8> {
        with_encoder(|enc| {
            self.encode(enc);
            enc.bytes().to_vec()
        })
    }

    /// Marshals into a caller-owned buffer, replacing its contents but
    /// reusing its capacity — [`Self::to_xdr`] without the allocation.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut enc = XdrEncoder::from_vec(std::mem::take(out));
        self.encode(&mut enc);
        *out = enc.into_bytes();
    }

    /// Convenience: unmarshal from a complete byte string (no trailing
    /// bytes allowed).
    fn from_xdr(data: &[u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(data);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

impl Xdr for u32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u32()
    }
}

impl Xdr for i32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_i32(*self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_i32()
    }
}

impl Xdr for u64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u64()
    }
}

impl Xdr for i64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_i64(*self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_i64()
    }
}

impl Xdr for bool {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_bool()
    }
}

impl Xdr for String {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_string()
    }
}

impl Xdr for Vec<u8> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_opaque()
    }
}

impl<const N: usize> Xdr for [u8; N] {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(self);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let mut out = [0u8; N];
        out.copy_from_slice(dec.get_opaque_fixed_ref(N)?);
        Ok(out)
    }
}

impl<T: Xdr> Xdr for Option<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            None => {
                enc.put_bool(false);
            }
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

/// XDR variable-length arrays. The element count is capped at
/// [`MAX_VAR_LEN`] but memory is reserved lazily, so hostile counts cannot
/// balloon allocation.
impl<T: Xdr> Xdr for Vec<T>
where
    T: 'static,
{
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let len = dec.get_u32()?;
        if len > MAX_VAR_LEN {
            return Err(XdrError::LengthTooLong {
                claimed: len,
                max: MAX_VAR_LEN,
            });
        }
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Xdr, B: Xdr> Xdr for (A, B) {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_and_endianness() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x01020304);
        assert_eq!(e.bytes(), &[1, 2, 3, 4]);
        let mut d = XdrDecoder::new(e.bytes());
        assert_eq!(d.get_u32().unwrap(), 0x01020304);
        d.finish().unwrap();
    }

    #[test]
    fn opaque_padding() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        // 4 (len) + 5 (data) + 3 (pad) = 12.
        assert_eq!(e.len(), 12);
        assert_eq!(&e.bytes()[4..9], b"abcde");
        assert_eq!(&e.bytes()[9..], &[0, 0, 0]);
        let mut d = XdrDecoder::new(e.bytes());
        assert_eq!(d.get_opaque().unwrap(), b"abcde");
        d.finish().unwrap();
    }

    #[test]
    fn nonzero_padding_rejected() {
        // len=1, data='a', pad = [1, 0, 0] — invalid.
        let raw = [0, 0, 0, 1, b'a', 1, 0, 0];
        let mut d = XdrDecoder::new(&raw);
        assert_eq!(d.get_opaque(), Err(XdrError::BadPadding));
    }

    #[test]
    fn truncated_input() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert_eq!(d.get_u32(), Err(XdrError::Truncated));
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        let mut e = XdrEncoder::new();
        e.put_u32(u32::MAX); // Claimed length of 4 GiB.
        let mut d = XdrDecoder::new(e.bytes());
        assert!(matches!(
            d.get_opaque(),
            Err(XdrError::LengthTooLong {
                claimed: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn bool_strictness() {
        let mut e = XdrEncoder::new();
        e.put_u32(2);
        let mut d = XdrDecoder::new(e.bytes());
        assert_eq!(d.get_bool(), Err(XdrError::BadDiscriminant(2)));
    }

    #[test]
    fn string_utf8_enforced() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[0xff, 0xfe]);
        let mut d = XdrDecoder::new(e.bytes());
        assert_eq!(d.get_string(), Err(XdrError::BadUtf8));
    }

    #[test]
    fn option_roundtrip() {
        let v: Option<u32> = Some(7);
        assert_eq!(Option::<u32>::from_xdr(&v.to_xdr()).unwrap(), Some(7));
        let n: Option<u32> = None;
        assert_eq!(Option::<u32>::from_xdr(&n.to_xdr()).unwrap(), None);
    }

    #[test]
    fn vec_roundtrip() {
        let v: Vec<u64> = vec![1, 2, 3, u64::MAX];
        assert_eq!(Vec::<u64>::from_xdr(&v.to_xdr()).unwrap(), v);
    }

    #[test]
    fn fixed_array_roundtrip() {
        let a: [u8; 20] = [9; 20];
        assert_eq!(<[u8; 20]>::from_xdr(&a.to_xdr()).unwrap(), a);
        // Unaligned fixed array gets padded.
        let b: [u8; 5] = *b"hello";
        assert_eq!(b.to_xdr().len(), 8);
        assert_eq!(<[u8; 5]>::from_xdr(&b.to_xdr()).unwrap(), b);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = XdrEncoder::new();
        e.put_u32(1).put_u32(2);
        assert_eq!(u32::from_xdr(e.bytes()), Err(XdrError::TrailingBytes(4)));
    }

    #[test]
    fn signed_values() {
        let mut e = XdrEncoder::new();
        e.put_i32(-1).put_i64(i64::MIN);
        let mut d = XdrDecoder::new(e.bytes());
        assert_eq!(d.get_i32().unwrap(), -1);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = (7u32, String::from("sfs"));
        let back = <(u32, String)>::from_xdr(&t.to_xdr()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn encoder_reuse_preserves_bytes_and_capacity() {
        let mut buf = Vec::new();
        let msgs: Vec<Vec<u8>> = vec![vec![1; 5], vec![2; 9], vec![3; 2]];
        for m in &msgs {
            m.encode_into(&mut buf);
            assert_eq!(buf, m.to_xdr(), "encode_into must match to_xdr");
        }
        // After the largest message, smaller ones must fit in place.
        let cap = buf.capacity();
        msgs[2].encode_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn from_vec_appends_to_existing_content() {
        let mut enc = XdrEncoder::from_vec(vec![0xAA]);
        enc.put_u32(7);
        assert_eq!(enc.bytes(), &[0xAA, 0, 0, 0, 7]);
        enc.reset();
        assert!(enc.is_empty());
    }

    #[test]
    fn ref_accessors_borrow_and_match_owned() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde").put_opaque_fixed(b"xyz");
        let bytes = e.into_bytes();
        let mut d1 = XdrDecoder::new(&bytes);
        let mut d2 = XdrDecoder::new(&bytes);
        assert_eq!(d1.get_opaque_ref().unwrap(), d2.get_opaque().unwrap());
        assert_eq!(
            d1.get_opaque_fixed_ref(3).unwrap(),
            d2.get_opaque_fixed(3).unwrap()
        );
        d1.finish().unwrap();
        d2.finish().unwrap();
    }

    #[test]
    fn ref_accessors_enforce_padding_and_caps() {
        // len=1, data='a', pad = [1, 0, 0] — invalid.
        let raw = [0, 0, 0, 1, b'a', 1, 0, 0];
        assert_eq!(
            XdrDecoder::new(&raw).get_opaque_ref(),
            Err(XdrError::BadPadding)
        );
        let mut e = XdrEncoder::new();
        e.put_u32(100);
        assert!(matches!(
            XdrDecoder::new(e.bytes()).get_opaque_max_ref(50),
            Err(XdrError::LengthTooLong { claimed: 100, .. })
        ));
        assert_eq!(
            XdrDecoder::new(&[1, 2]).get_opaque_fixed_ref(4),
            Err(XdrError::Truncated)
        );
    }
}
