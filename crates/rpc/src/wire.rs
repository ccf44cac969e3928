//! Minimal serialization for Vice calls.
//!
//! Every request and reply is genuinely encoded to bytes here before being
//! sealed by the secure channel — the simulation moves real, encrypted,
//! authenticated bytes. The format is length-prefixed and positional: the
//! caller must read fields in the order they were written (as with Sun XDR
//! or the original RPC2 marshalling).

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while reading a field.
    Truncated,
    /// A string field held invalid UTF-8.
    BadString,
    /// Trailing bytes remained after the last expected field.
    TrailingBytes(usize),
    /// An out-of-band bulk payload was missing, unexpected, or failed its
    /// length/digest binding to the sealed message head.
    BadPayload,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadString => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadPayload => write!(f, "out-of-band payload missing or corrupt"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes fields into a byte buffer — or, on a measuring pass, only
/// counts the bytes a layout would write.
///
/// A message's layout is one function from writer to writer; [`exact`]
/// runs it twice, measuring and then writing into a buffer of exactly the
/// measured size, so no layout has a second, hand-kept length table.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// `Some(n)` on a measuring pass: `n` bytes laid out, none stored.
    measured: Option<usize>,
}

/// Lays `layout` out into a buffer of exactly its length: one measuring
/// pass, one writing pass, one allocation (`len() == capacity()`).
pub fn exact(layout: impl Fn(WireWriter) -> WireWriter) -> Vec<u8> {
    let len = layout(WireWriter::measuring()).len();
    let buf = layout(WireWriter {
        buf: Vec::with_capacity(len),
        measured: None,
    })
    .finish();
    debug_assert_eq!(buf.len(), len, "a layout must not depend on its pass");
    buf
}

impl WireWriter {
    /// Creates an empty writer that grows as fields are appended.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// A writer that stores nothing and counts what it is given: the
    /// measuring pass of [`exact`], and a length without an allocation.
    pub fn measuring() -> WireWriter {
        WireWriter {
            buf: Vec::new(),
            measured: Some(0),
        }
    }

    /// Bytes laid out so far.
    pub fn len(&self) -> usize {
        self.measured.unwrap_or(self.buf.len())
    }

    /// True when nothing has been laid out.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn put(mut self, bytes: &[u8]) -> Self {
        match &mut self.measured {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
        self
    }

    /// Appends a u8.
    pub fn u8(self, v: u8) -> Self {
        self.put(&[v])
    }

    /// Appends a u32 (big-endian).
    pub fn u32(self, v: u32) -> Self {
        self.put(&v.to_be_bytes())
    }

    /// Appends a u64 (big-endian).
    pub fn u64(self, v: u64) -> Self {
        self.put(&v.to_be_bytes())
    }

    /// Appends a bool as one byte.
    pub fn boolean(self, v: bool) -> Self {
        self.u8(v as u8)
    }

    /// Appends a length-prefixed string.
    pub fn string(self, v: &str) -> Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a length-prefixed byte blob (whole-file payloads ride here).
    pub fn bytes(self, v: &[u8]) -> Self {
        self.u32(v.len() as u32).put(v)
    }

    /// Finishes, yielding the encoded message (empty after a measuring
    /// pass: ask [`Self::len`] instead).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes fields from a byte buffer, in writing order.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a received message.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a u8.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a bool.
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| WireError::BadString)
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the message is fully consumed.
    pub fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_sim::SimRng;

    #[test]
    fn round_trip_all_types() {
        let msg = WireWriter::new()
            .u8(7)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .boolean(true)
            .string("fetch /vice/usr/x")
            .bytes(&[1, 2, 3])
            .finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.boolean().unwrap());
        assert_eq!(r.string().unwrap(), "fetch /vice/usr/x");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.done().unwrap();
    }

    /// Measuring, then writing into the measured size, lays out the bytes
    /// a growing writer would, in one allocation of exactly their length.
    #[test]
    fn exact_is_the_growing_layout_in_one_buffer() {
        let layout = |w: WireWriter| w.u8(7).string("fetch /vice/usr/x").u64(9).bytes(&[1, 2]);
        let grown = layout(WireWriter::new()).finish();
        assert_eq!(layout(WireWriter::measuring()).len(), grown.len());
        assert!(layout(WireWriter::measuring()).finish().is_empty());
        let buf = exact(layout);
        assert_eq!(buf, grown);
        assert_eq!(buf.len(), buf.capacity());
        assert!(exact(|w| w).is_empty());
    }

    #[test]
    fn truncation_detected() {
        let msg = WireWriter::new().u64(1).finish();
        let mut r = WireReader::new(&msg[..4]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let msg = WireWriter::new().u8(1).u8(2).finish();
        let mut r = WireReader::new(&msg);
        let _ = r.u8().unwrap();
        assert_eq!(r.done(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_utf8_detected() {
        let msg = WireWriter::new().bytes(&[0xff, 0xfe]).finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(r.string(), Err(WireError::BadString));
    }

    #[test]
    fn lying_length_prefix_detected() {
        let mut msg = WireWriter::new().bytes(&[1, 2, 3]).finish();
        // Claim 100 bytes but provide 3.
        msg[..4].copy_from_slice(&100u32.to_be_bytes());
        let mut r = WireReader::new(&msg);
        assert_eq!(r.bytes(), Err(WireError::Truncated));
    }

    /// Deterministic port of the former proptest round-trip suite: random
    /// strings, blobs, and integers from the in-tree seeded PRNG must
    /// survive encode/decode byte-for-byte.
    #[test]
    fn randomized_round_trip() {
        let mut rng = SimRng::seeded(0x5157_1e5e);
        for _ in 0..256 {
            let s: String = (0..rng.range(0, 41))
                .map(|_| char::from_u32(rng.range(32, 0x2fa1) as u32).unwrap_or('?'))
                .collect();
            let mut blob = vec![0u8; rng.range(0, 256) as usize];
            rng.fill_bytes(&mut blob);
            let a = rng.next_u64() as u32;
            let b = rng.next_u64();
            let msg = WireWriter::new()
                .u32(a)
                .string(&s)
                .bytes(&blob)
                .u64(b)
                .finish();
            let mut r = WireReader::new(&msg);
            assert_eq!(r.u32().unwrap(), a);
            assert_eq!(r.string().unwrap(), s);
            assert_eq!(r.bytes().unwrap(), blob);
            assert_eq!(r.u64().unwrap(), b);
            r.done().unwrap();
        }
    }
}
