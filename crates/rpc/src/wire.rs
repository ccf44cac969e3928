//! Minimal serialization for Vice calls.
//!
//! Every request and reply is genuinely encoded to bytes here before being
//! sealed by the secure channel — the simulation moves real, encrypted,
//! authenticated bytes. The format is length-prefixed and positional: the
//! caller must read fields in the order they were written (as with Sun XDR
//! or the original RPC2 marshalling).
//!
//! A binary message is declared once (DESIGN.md §17): each type has one
//! [`Codec`] that both lays it out and reads it back, and [`crate::wire_table!`]
//! generates the codec of a tagged enum or a struct from one row per
//! variant, so no format has a writer and a reader kept in step by hand.

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

/// Deserializes fields from a byte buffer, in writing order, holding the
/// rider (`R`) that arrived beside it out of band, if any.
#[derive(Debug)]
pub struct WireReader<'a, R = ()> {
    buf: &'a [u8],
    pos: usize,
    rider: Option<R>,
}

impl<'a> WireReader<'a> {
    /// Wraps a received message that nothing rides beside.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader::riding(buf, None)
    }
}

impl<'a, R> WireReader<'a, R> {
    /// Wraps a received head and the rider that came with it.
    pub fn riding(buf: &'a [u8], rider: Option<R>) -> WireReader<'a, R> {
        WireReader { buf, pos: 0, rider }
    }

    /// Reads one whole `T`: a byte left over is an error.
    pub fn whole<T: Codec<T, R>>(mut self) -> Result<T, WireError> {
        let v = T::take(&mut self)?;
        self.done()?;
        Ok(v)
    }

    /// Hands the rider over to the field it binds to (once).
    pub fn rider(&mut self) -> Option<R> {
        self.rider.take()
    }

    /// Refuses a rider beside a row that carries none. A table checks this
    /// before it reads any field of the row.
    pub fn no_rider(&self) -> Result<(), WireError> {
        match self.rider {
            Some(_) => Err(WireError::BadPayload),
            None => Ok(()),
        }
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.slice(N)?.try_into().expect("N bytes"))
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

/// One wire encoding of a `T`: `C: Codec<T>` lays a `T` out and reads it
/// back, the only place both halves of that encoding are written. A type
/// that is its own codec (`u32: Codec<u32>`) is named bare in a row; a
/// field with a second encoding names its codec (`data: Bytes`). `R` is the
/// rider a reader may hold; only a codec that binds one names it.
pub trait Codec<T, R = ()> {
    /// The fewest bytes one value takes on the wire. A count off the wire
    /// is checked against it before anything is reserved.
    const MIN: usize;
    /// True for a codec that binds the reader's rider, so a row holding
    /// such a field accepts one.
    const RIDES: bool = false;
    /// Lays `v` out (or, on a measuring writer, counts it).
    fn put(v: &T, w: WireWriter) -> WireWriter;
    /// Reads one value back.
    fn take(r: &mut WireReader<'_, R>) -> Result<T, WireError>;
}

/// Lays `v` out with its own codec.
pub fn put<T: Codec<T, R>, R>(v: &T, w: WireWriter) -> WireWriter {
    T::put(v, w)
}

/// Reads a `T` with its own codec.
pub fn take<T: Codec<T, R>, R>(r: &mut WireReader<'_, R>) -> Result<T, WireError> {
    T::take(r)
}

/// Reads a count of `T`s, rejecting one the remaining bytes cannot hold
/// (each takes at least `T::MIN`), so a length prefix off the wire never
/// sizes a reservation the message does not justify.
pub fn take_count<T: Codec<T, R>, R>(r: &mut WireReader<'_, R>) -> Result<usize, WireError> {
    let n = u32::take(r)? as usize;
    if n > r.remaining() / T::MIN {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

macro_rules! natural {
    ($($T:ty, $min:expr, |$v:ident, $w:ident| $put:expr, |$r:ident| $take:expr;)*) => {$(
        impl<R> Codec<$T, R> for $T {
            const MIN: usize = $min;
            fn put($v: &$T, $w: WireWriter) -> WireWriter { $put }
            fn take($r: &mut WireReader<'_, R>) -> Result<$T, WireError> { $take }
        }
    )*};
}

natural! {
    u8, 1, |v, w| w.u8(*v), |r| Ok(u8::from_be_bytes(r.array()?));
    u32, 4, |v, w| w.u32(*v), |r| Ok(u32::from_be_bytes(r.array()?));
    u64, 8, |v, w| w.u64(*v), |r| Ok(u64::from_be_bytes(r.array()?));
    bool, 1, |v, w| w.boolean(*v), |r| Ok(u8::take(r)? != 0);
    String, 4, |v, w| w.string(v), |r| String::from_utf8(Bytes::take(r)?).map_err(|_| WireError::BadString);
    // Mode bits travel as a u32 and are read back truncated.
    u16, 4, |v, w| w.u32(u32::from(*v)), |r| Ok(u32::take(r)? as u16);
}

/// A count, then each element.
impl<T: Codec<T, R>, R> Codec<Vec<T>, R> for Vec<T> {
    const MIN: usize = 4;
    fn put(v: &Vec<T>, w: WireWriter) -> WireWriter {
        v.iter().fold(w.u32(v.len() as u32), |w, e| T::put(e, w))
    }
    fn take(r: &mut WireReader<'_, R>) -> Result<Vec<T>, WireError> {
        let n = take_count::<T, R>(r)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(r)?);
        }
        Ok(v)
    }
}

/// A presence flag, then the value when there is one.
impl<T: Codec<T, R>, R> Codec<Option<T>, R> for Option<T> {
    const MIN: usize = 1;
    fn put(v: &Option<T>, w: WireWriter) -> WireWriter {
        match v {
            Some(v) => T::put(v, w.boolean(true)),
            None => w.boolean(false),
        }
    }
    fn take(r: &mut WireReader<'_, R>) -> Result<Option<T>, WireError> {
        bool::take(r)?.then(|| T::take(r)).transpose()
    }
}

macro_rules! tuples {
    ($(($($t:ident $v:ident),+))*) => {$(
        /// The elements in order.
        impl<R, $($t: Codec<$t, R>),+> Codec<($($t,)+), R> for ($($t,)+) {
            const MIN: usize = 0 $(+ $t::MIN)+;
            fn put(($($v,)+): &($($t,)+), w: WireWriter) -> WireWriter {
                $(let w = $t::put($v, w);)+ w
            }
            fn take(r: &mut WireReader<'_, R>) -> Result<($($t,)+), WireError> { Ok(($($t::take(r)?,)+)) }
        }
    )*};
}

tuples! { (A a, B b) (A a, B b, C c, D d) }

/// A length-prefixed byte string, read in one slice, for any owner of
/// bytes (a journal record's file contents ride inline through it).
pub struct Bytes;

impl<T: AsRef<[u8]> + From<Vec<u8>>, R> Codec<T, R> for Bytes {
    const MIN: usize = 4;
    fn put(v: &T, w: WireWriter) -> WireWriter {
        w.bytes(v.as_ref())
    }
    fn take(r: &mut WireReader<'_, R>) -> Result<T, WireError> {
        let n = u32::take(r)? as usize;
        Ok(T::from(r.slice(n)?.to_vec()))
    }
}

/// Declares the [`Codec`] of a tagged enum or a struct once, from one row
/// per variant (DESIGN.md §17).
///
/// ```text
/// wire_table! { enum Name, [rides Rider,] else Error {
///     TAG ["label"] => Unit,
///     TAG ["label"] => Tuple(field[: Codec], ..),
///     TAG ["label"] => Struct { field[: Codec], .. },
/// } }
/// wire_table! { struct Name { field: Codec, .. } }  // or Name(field: Codec, ..)
/// ```
///
/// An enum value is its `u8` tag, then its fields in row order, each
/// through its own codec unless the row names another. A tag no row
/// claims is `Err(WireError::Error)`. Every variant and field must appear,
/// since the generated patterns and literals are exhaustive. With labels,
/// every row has one, and the enum also gets `KINDS` and `kind()`. A table
/// that `rides` reads from a reader holding `Option<Rider>`, and refuses a
/// rider before reading any field of a row with no field whose codec
/// [`RIDES`](Codec::RIDES). A struct row names every field's codec, which
/// also sums to the struct's minimum size.
#[macro_export]
macro_rules! wire_table {
    (enum $T:ident, rides $R:ty, else $err:ident $rows:tt) => {
        $crate::wire_table!(@enum [] $T, $R, [$R], $err, $rows);
    };
    (enum $T:ident, else $err:ident $rows:tt) => {
        $crate::wire_table!(@enum [R] $T, R, [], $err, $rows);
    };
    (@enum [$($g:ident)?] $T:ident, $R:ty, $ride:tt, $err:ident, {
        $($tag:literal $($label:literal)? => $V:ident
            $({ $($f:ident $(: $fc:ty)?),* })? $(( $($p:ident $(: $pc:ty)?),* ))?),+ $(,)?
    }) => {
        $crate::wire_table!(@kinds $T; $($V $($label)?),+);
        impl<$($g)?> $crate::wire::Codec<$T, $R> for $T {
            const MIN: usize = 1;

            fn put(v: &$T, w: $crate::wire::WireWriter) -> $crate::wire::WireWriter {
                match v {
                    $($T::$V $({ $($f),* })? $(( $($p),* ))? => {
                        let w = w.u8($tag);
                        $($(let w = $crate::wire_table!(@put $R, w, $f $(: $fc)?);)*)?
                        $($(let w = $crate::wire_table!(@put $R, w, $p $(: $pc)?);)*)?
                        w
                    })+
                }
            }

            fn take(r: &mut $crate::wire::WireReader<'_, $R>) -> Result<$T, $crate::wire::WireError> {
                Ok(match $crate::wire::take::<u8, $R>(r)? {
                    $($tag => {
                        $crate::wire_table!(@stray r $ride; $($([$($fc)?])*)? $($([$($pc)?])*)?);
                        $T::$V
                            $({ $($f: $crate::wire_table!(@take $R, r $(, $fc)?)),* })?
                            $(( $($crate::wire_table!(@take $R, r $(, $pc)?)),* ))?
                    })+
                    _ => {
                        $crate::wire_table!(@stray r $ride;);
                        return Err($crate::wire::WireError::$err);
                    }
                })
            }
        }
    };
    (struct $T:ident $({ $($f:ident: $fc:ty),* $(,)? })? $(( $($p:ident: $pc:ty),* ))?) => {
        impl<R> $crate::wire::Codec<$T, R> for $T {
            const MIN: usize = 0
                $($(+ <$fc as $crate::wire::Codec<_, R>>::MIN)*)?
                $($(+ <$pc as $crate::wire::Codec<_, R>>::MIN)*)?;

            fn put(v: &$T, w: $crate::wire::WireWriter) -> $crate::wire::WireWriter {
                let $T $({ $($f),* })? $(( $($p),* ))? = v;
                $($(let w = <$fc as $crate::wire::Codec<_, R>>::put($f, w);)*)?
                $($(let w = <$pc as $crate::wire::Codec<_, R>>::put($p, w);)*)?
                w
            }

            fn take(r: &mut $crate::wire::WireReader<'_, R>) -> Result<$T, $crate::wire::WireError> {
                Ok($T
                    $({ $($f: <$fc as $crate::wire::Codec<_, R>>::take(r)?),* })?
                    $(( $(<$pc as $crate::wire::Codec<_, R>>::take(r)?),* ))?)
            }
        }
    };
    (@kinds $T:ident; $($V:ident),+) => {};
    (@kinds $T:ident; $($V:ident $label:literal),+) => {
        impl $T {
            /// Every row's label, in table order: what `kind` returns.
            pub const KINDS: [&'static str; [$($label),+].len()] = [$($label),+];

            /// The label of this value's row.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($T::$V { .. } => $label,)+
                }
            }
        }
    };
    (@put $R:ty, $w:ident, $f:ident) => { $crate::wire::put::<_, $R>($f, $w) };
    (@put $R:ty, $w:ident, $f:ident: $c:ty) => { <$c as $crate::wire::Codec<_, $R>>::put($f, $w) };
    (@take $R:ty, $r:ident) => { $crate::wire::take($r)? };
    (@take $R:ty, $r:ident, $c:ty) => { <$c as $crate::wire::Codec<_, $R>>::take($r)? };
    (@stray $r:ident []; $($c:tt)*) => {};
    (@stray $r:ident [$R:ty]; $([$($c:ty)?])*) => {
        if !(false $($(|| <$c as $crate::wire::Codec<_, $R>>::RIDES)?)*) {
            $r.no_rider()?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_sim::SimRng;

    fn blob(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
        Bytes::take(r)
    }

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
        assert_eq!(take::<u8, _>(&mut r), Ok(7));
        assert_eq!(take::<u32, _>(&mut r), Ok(0xdead_beef));
        assert_eq!(take::<u64, _>(&mut r), Ok(u64::MAX));
        assert_eq!(take::<bool, _>(&mut r), Ok(true));
        assert_eq!(take::<String, _>(&mut r).unwrap(), "fetch /vice/usr/x");
        assert_eq!(blob(&mut r), Ok(vec![1, 2, 3]));
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
        assert_eq!(take::<u64, _>(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let msg = WireWriter::new().u8(1).u8(2).finish();
        let mut r = WireReader::new(&msg);
        take::<u8, _>(&mut r).unwrap();
        assert_eq!(r.done(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_utf8_detected() {
        let msg = WireWriter::new().bytes(&[0xff, 0xfe]).finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(take::<String, _>(&mut r), Err(WireError::BadString));
    }

    #[test]
    fn lying_length_prefix_detected() {
        let mut msg = WireWriter::new().bytes(&[1, 2, 3]).finish();
        // Claim 100 bytes but provide 3.
        msg[..4].copy_from_slice(&100u32.to_be_bytes());
        let mut r = WireReader::new(&msg);
        assert_eq!(blob(&mut r), Err(WireError::Truncated));
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
            let mut bytes = vec![0u8; rng.range(0, 256) as usize];
            rng.fill_bytes(&mut bytes);
            let a = rng.next_u64() as u32;
            let b = rng.next_u64();
            let msg = WireWriter::new()
                .u32(a)
                .string(&s)
                .bytes(&bytes)
                .u64(b)
                .finish();
            let mut r = WireReader::new(&msg);
            assert_eq!(take::<u32, _>(&mut r), Ok(a));
            assert_eq!(take::<String, _>(&mut r), Ok(s));
            assert_eq!(blob(&mut r), Ok(bytes));
            assert_eq!(take::<u64, _>(&mut r), Ok(b));
            r.done().unwrap();
        }
    }

    /// The natural codecs lay out what the writer's own methods do, and a
    /// count that the remaining bytes cannot hold is refused up front.
    #[test]
    fn natural_codecs_match_the_writer() {
        let v: (u16, Vec<(String, bool)>, Option<u64>, u32) =
            (0o755, vec![("a".into(), true)], Some(9), 7);
        let by_hand = WireWriter::new()
            .u32(0o755)
            .u32(1)
            .string("a")
            .boolean(true)
            .boolean(true)
            .u64(9)
            .u32(7)
            .finish();
        assert_eq!(put::<_, ()>(&v, WireWriter::new()).finish(), by_hand);
        assert_eq!(WireReader::new(&by_hand).whole(), Ok(v));
        let bomb = WireWriter::new().u32(u32::MAX).finish();
        assert_eq!(
            WireReader::new(&bomb).whole::<Vec<u32>>(),
            Err(WireError::Truncated)
        );
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u32),
        Boxed { side: u8, note: Vec<u8> },
    }

    /// A `u8` rider: the row that binds it reads it after its head fields.
    struct Tail;

    impl Codec<u8, u8> for Tail {
        const MIN: usize = 0;
        const RIDES: bool = true;
        fn put(_: &u8, w: WireWriter) -> WireWriter {
            w
        }
        fn take(r: &mut WireReader<'_, u8>) -> Result<u8, WireError> {
            r.rider().ok_or(WireError::BadPayload)
        }
    }

    wire_table! {
        enum Shape, rides u8, else Truncated {
            1 "dot" => Dot,
            2 "line" => Line(len),
            3 "box" => Boxed { side: Tail, note },
        }
    }

    /// A table's rows give the bytes, the labels, and a decoder that
    /// refuses a stray rider before it reads a field.
    #[test]
    fn a_table_lays_out_reads_and_labels_its_rows() {
        let line = put(&Shape::Line(5), WireWriter::new()).finish();
        assert_eq!(line, [2, 0, 0, 0, 5]);
        assert_eq!(WireReader::riding(&line, None).whole(), Ok(Shape::Line(5)));
        assert_eq!(
            WireReader::riding(&line[..1], Some(1)).whole::<Shape>(),
            Err(WireError::BadPayload)
        );
        let boxed = Shape::Boxed {
            side: 4,
            note: vec![9],
        };
        let head = put(&boxed, WireWriter::new()).finish();
        assert_eq!(head, [3, 0, 0, 0, 1, 9]);
        assert_eq!(WireReader::riding(&head, Some(4)).whole(), Ok(boxed));
        assert_eq!(
            WireReader::riding(&head, None).whole::<Shape>(),
            Err(WireError::BadPayload)
        );
        assert_eq!(
            WireReader::riding(&[9], None).whole::<Shape>(),
            Err(WireError::Truncated)
        );
        assert_eq!(Shape::KINDS, ["dot", "line", "box"]);
        assert_eq!(Shape::Dot.kind(), "dot");
    }
}
