//! Hand-rolled little-endian codec for the `acep-checkpoint-v2` wire
//! format.
//!
//! The workspace is dependency-free by policy, so the format is a plain
//! byte protocol: fixed-width little-endian integers, `f64` as IEEE-754
//! bits, strings as `u64` length + UTF-8 bytes, options as a presence
//! byte, sequences as `u64` length + elements. `usize` values are always
//! widened to `u64` on the wire so the format is identical across
//! platforms.
//!
//! Records implement [`Wire`]: scalars, options, sequences and tuples
//! once here, each struct through one [`wire_struct!`] field list in
//! wire order, and each tagged enum by hand.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a hash of a byte slice — the frame checksum. Not
/// cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Errors produced while decoding a checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The log does not start with the `acep-checkpoint-v2` magic.
    BadMagic,
    /// A frame's checksum does not match its payload.
    BadCrc,
    /// The log ends mid-frame or a payload ends mid-value.
    Truncated,
    /// A value tag (enum discriminant, bool, option byte) is invalid.
    BadValue(&'static str),
    /// A frame kind byte is unknown to this version.
    UnknownKind(u8),
    /// The log holds no completed checkpoint (no manifest frame).
    MissingCheckpoint,
    /// The log's shard topology does not match the restoring runtime.
    ShardMismatch {
        /// Shards recorded in the manifest.
        expected: u32,
        /// Shards of the restoring runtime.
        actual: u32,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an acep-checkpoint-v2 log"),
            CheckpointError::BadCrc => write!(f, "frame checksum mismatch"),
            CheckpointError::Truncated => write!(f, "log truncated mid-frame"),
            CheckpointError::BadValue(what) => write!(f, "invalid {what} on the wire"),
            CheckpointError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CheckpointError::MissingCheckpoint => write!(f, "log holds no completed checkpoint"),
            CheckpointError::ShardMismatch { expected, actual } => write!(
                f,
                "checkpoint was taken with {expected} shards, runtime has {actual}"
            ),
            CheckpointError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a `usize` widened to `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the given bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor reached the end.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::BadValue("bool")),
        }
    }

    /// Reads a `u64` and narrows it to `usize`.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.get_u64()?).map_err(|_| CheckpointError::BadValue("usize"))
    }

    /// Reads a length guarded against the remaining byte budget, for
    /// pre-allocating element vectors without trusting the wire.
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.get_usize()?;
        // Every element costs at least one byte; a length larger than
        // the remaining payload is corrupt, not just big.
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CheckpointError> {
        let n = self.get_usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::BadUtf8)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }
}

/// A value with one fixed encoding in the wire format.
pub(crate) trait Wire: Sized {
    /// Appends the value to `w`.
    fn put(&self, w: &mut Writer);
    /// Reads a value written by [`put`](Self::put).
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;

    /// Encodes the value into fresh bytes.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }
}

macro_rules! wire_scalar {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                r.$get()
            }
        }
    )*};
}

wire_scalar! {
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    usize: put_usize, get_usize;
    bool: put_bool, get_bool;
}

/// A presence byte (0/1), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
            None => w.put_u8(0),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(CheckpointError::BadValue("option")),
        }
    }
}

/// A `u64` length, then the elements. The length is checked against
/// the remaining bytes before anything is allocated.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for x in self {
            x.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Implements [`Wire`] for structs from their field lists: the fields
/// are written and read in the order listed, which *is* the wire
/// order. A field missing from the list fails to compile.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl $crate::codec::Wire for $ty {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$field, w);)*
            }
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CheckpointError> {
                Ok(Self {
                    $($field: $crate::codec::Wire::get(r)?,)*
                })
            }
        }
    )*};
}
pub(crate) use wire_struct;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(2.75);
        w.put_bool(true);
        w.put_usize(12345);
        w.put_str("héllo");
        None::<u64>.put(&mut w);
        Some(9u64).put(&mut w);
        vec![(1u32, 2u64, true)].put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 2.75);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), Some(9));
        assert_eq!(
            Vec::<(u32, u64, bool)>::get(&mut r).unwrap(),
            vec![(1, 2, true)]
        );
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn bad_option_tags_and_oversized_lengths_are_rejected() {
        assert_eq!(
            Option::<u64>::get(&mut Reader::new(&[2])),
            Err(CheckpointError::BadValue("option"))
        );
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(
            Vec::<u64>::get(&mut Reader::new(&bytes)),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
