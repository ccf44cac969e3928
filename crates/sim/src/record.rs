//! The record spine: every exported JSONL line is one flat JSON object,
//! written and read here (DESIGN.md, "Record spine").
//!
//! Grammar — exactly the bytes the exporters have always emitted: `{`,
//! `"key":value` pairs joined by `,`, `}`. A value is a canonical decimal
//! `u64`, `null`, or a `"string"` holding no `"`, `\` or control byte;
//! there are no escapes, no whitespace, no nesting.
//!
//! A record kind declares its fields **once**, as a function over
//! `&mut impl Field` naming each key, in line order, and the place its
//! value lives. [`Writer`] runs the declaration to render a line and
//! [`Reader`] runs the same declaration to fill a blank record from one,
//! so the two cannot drift. The reader repairs nothing: a line is read
//! only if the writer would emit those bytes for the record it yields.

use crate::clock::SimTime;
use std::fmt::Write as _;

/// One raw value of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A decimal number.
    Num(u64),
    /// `null`.
    Null,
    /// A string.
    Str(&'a str),
}

impl<'a> Value<'a> {
    /// The number, if this is one.
    pub fn num(self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(self) -> Option<&'a str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

type Key = &'static str;

/// What a field declaration runs against: a [`Writer`] or a [`Reader`],
/// which implement [`Field::field`] and [`Field::reject`]; declarations
/// call the typed methods built on them.
pub trait Field {
    /// Visits the next field. A writer appends `"key":shown` and returns
    /// `None`; a reader returns the value the line holds for `key` there,
    /// or rejects the line and returns `None`.
    fn field(&mut self, key: Key, shown: Value<'_>) -> Option<Value<'_>>;

    /// Marks the line unreadable: a value does not fit its field.
    fn reject(&mut self);

    /// A field shown as `shown` and, when reading, stored through `from`
    /// (whose `None` rejects the line).
    fn set<T>(
        &mut self,
        key: Key,
        shown: Value<'_>,
        v: &mut T,
        from: impl FnOnce(Value<'_>) -> Option<T>,
    ) {
        match self.field(key, shown).map(from) {
            Some(Some(read)) => *v = read,
            Some(None) => self.reject(),
            None => {}
        }
    }

    /// A `u64`.
    fn u64(&mut self, key: Key, v: &mut u64) {
        self.set(key, Value::Num(*v), v, |r| r.num());
    }

    /// A `u32`.
    fn u32(&mut self, key: Key, v: &mut u32) {
        self.set(key, Value::Num((*v).into()), v, |r| {
            r.num()?.try_into().ok()
        });
    }

    /// A `u32` or `null`.
    fn opt_u32(&mut self, key: Key, v: &mut Option<u32>) {
        let shown = v.map_or(Value::Null, |n| Value::Num(n.into()));
        self.set(key, shown, v, |r| match r {
            Value::Null => Some(None),
            _ => r.num()?.try_into().ok().map(Some),
        });
    }

    /// A virtual instant, in microseconds.
    fn micros(&mut self, key: Key, v: &mut SimTime) {
        let from = |r: Value<'_>| r.num().map(SimTime::from_micros);
        self.set(key, Value::Num(v.as_micros()), v, from);
    }

    /// Float seconds as whole microseconds (read only from a count those
    /// seconds round back to).
    fn secs_us(&mut self, key: Key, v: &mut f64) {
        let us = |s: f64| (s * 1e6).round() as u64;
        let from = |r: Value<'_>| Some(r.num()? as f64 / 1e6).filter(|s| r.num() == Some(us(*s)));
        self.set(key, Value::Num(us(*v)), v, from);
    }

    /// A string shown as `shown` and read through `from` (a label enum's
    /// `from_label`, say).
    fn str<T>(&mut self, key: Key, shown: &str, v: &mut T, from: impl FnOnce(&str) -> Option<T>) {
        self.set(key, Value::Str(shown), v, |r| from(r.str()?));
    }

    /// Free text.
    fn text(&mut self, key: Key, v: &mut String) {
        match self
            .field(key, Value::Str(v))
            .map(|r| r.str().map(String::from))
        {
            Some(Some(read)) => *v = read,
            Some(None) => self.reject(),
            None => {}
        }
    }

    /// A constant string naming the record kind.
    fn tag(&mut self, key: Key, value: &'static str) {
        self.str(key, value, &mut (), |s| (s == value).then_some(()));
    }
}

/// Whether `s` may stand between quotes.
fn plain(s: &str) -> bool {
    !s.bytes()
        .any(|b| b == b'"' || b == b'\\' || b.is_ascii_control())
}

/// Renders one line, fields in call order.
#[derive(Debug)]
pub struct Writer(String);

impl Writer {
    /// Renders `rec` through its field declaration (no trailing newline).
    pub fn line<T>(rec: &mut T, fields: impl FnOnce(&mut T, &mut Writer)) -> String {
        let mut w = Writer(String::from("{"));
        fields(rec, &mut w);
        w.0 + "}"
    }
}

impl Field for Writer {
    fn field(&mut self, key: Key, shown: Value<'_>) -> Option<Value<'_>> {
        let out = &mut self.0;
        if out.len() > 1 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        match shown {
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Null => out.push_str("null"),
            Value::Str(s) => {
                debug_assert!(plain(s), "unwritable string {s:?} for {key}");
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
        }
        None
    }

    fn reject(&mut self) {
        unreachable!("a writer reads nothing it could reject");
    }
}

/// Reads one line in a single pass, borrowing from it: each field takes
/// the next `"key":value` off the front, so a missing, repeated, reordered
/// or unknown key cannot be read.
#[derive(Debug)]
pub struct Reader<'l> {
    /// What is left between the braces; `None` once rejected.
    rest: Option<&'l str>,
    first: bool,
}

impl<'l> Reader<'l> {
    /// Parses `line` (no trailing newline) into `blank` through the
    /// record's field declaration; `None` unless the declaration read the
    /// whole line, every value fitting its field.
    pub fn line<T>(
        line: &'l str,
        mut blank: T,
        fields: impl FnOnce(&mut T, &mut Reader<'l>),
    ) -> Option<T> {
        let body = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut r = Reader {
            rest: Some(body),
            first: true,
        };
        fields(&mut blank, &mut r);
        (r.rest == Some("")).then_some(blank)
    }

    /// Splits `"key":value` (after a `,` unless first) off `rest`.
    fn pair(&self, rest: &'l str, key: Key) -> Option<(Value<'l>, &'l str)> {
        let rest = if self.first {
            rest
        } else {
            rest.strip_prefix(',')?
        };
        let rest = rest.strip_prefix('"')?.strip_prefix(key)?;
        let rest = rest.strip_prefix("\":")?;
        if let Some(rest) = rest.strip_prefix("null") {
            return Some((Value::Null, rest));
        }
        if let Some(s) = rest.strip_prefix('"') {
            let (body, rest) = s.split_at(s.find('"')?);
            return plain(body).then_some((Value::Str(body), &rest[1..]));
        }
        let end = rest.find(|c: char| !c.is_ascii_digit());
        let (digits, rest) = rest.split_at(end.unwrap_or(rest.len()));
        if digits.len() > 1 && digits.starts_with('0') {
            return None;
        }
        Some((Value::Num(digits.parse().ok()?), rest))
    }
}

impl Field for Reader<'_> {
    fn field(&mut self, key: Key, _shown: Value<'_>) -> Option<Value<'_>> {
        let (value, rest) = self.rest.and_then(|rest| self.pair(rest, key)).unzip();
        self.rest = rest;
        self.first = false;
        value
    }

    fn reject(&mut self) {
        self.rest = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// One field of a test record: every shape the typed accessors cover.
    #[derive(Debug, Clone, PartialEq)]
    enum Slot {
        U64(u64),
        U32(u32),
        Opt(Option<u32>),
        At(SimTime),
        Secs(f64),
        Text(String),
        Label(bool),
        Tag(&'static str),
    }

    type List = Vec<(Key, Slot)>;

    fn list_fields<F: Field>(list: &mut List, f: &mut F) {
        for (key, slot) in list {
            match slot {
                Slot::U64(v) => f.u64(key, v),
                Slot::U32(v) => f.u32(key, v),
                Slot::Opt(v) => f.opt_u32(key, v),
                Slot::At(v) => f.micros(key, v),
                Slot::Secs(v) => f.secs_us(key, v),
                Slot::Text(v) => f.text(key, v),
                Slot::Label(v) => f.str(key, if *v { "yes" } else { "no" }, v, |s| match s {
                    "yes" => Some(true),
                    "no" => Some(false),
                    _ => None,
                }),
                Slot::Tag(t) => f.tag(key, t),
            }
        }
    }

    /// The same keys and shapes with every value zeroed: what a reader
    /// starts from.
    fn blank(list: &List) -> List {
        let zero = |slot: &Slot| match slot {
            Slot::U64(_) => Slot::U64(0),
            Slot::U32(_) => Slot::U32(0),
            Slot::Opt(_) => Slot::Opt(None),
            Slot::At(_) => Slot::At(SimTime::ZERO),
            Slot::Secs(_) => Slot::Secs(0.0),
            Slot::Text(_) => Slot::Text(String::new()),
            Slot::Label(_) => Slot::Label(false),
            Slot::Tag(t) => Slot::Tag(t),
        };
        list.iter().map(|(k, s)| (*k, zero(s))).collect()
    }

    fn write(list: &List) -> String {
        Writer::line(&mut list.clone(), list_fields)
    }

    fn read(line: &str, shape: &List) -> Option<List> {
        Reader::line(line, blank(shape), list_fields)
    }

    fn random_list(rng: &mut SimRng) -> List {
        let mut keys = [
            "a", "at_us", "bucket", "kind", "p50_us", "series", "server", "volume", "x_y", "z9",
        ];
        rng.shuffle(&mut keys);
        let n = rng.range(0, keys.len() as u64 + 1) as usize;
        let edge = |rng: &mut SimRng, max: u64| match rng.range(0, 4) {
            0 => 0,
            1 => max,
            _ => rng.next_u64() % max,
        };
        keys[..n]
            .iter()
            .map(|key| {
                let slot = match rng.range(0, 8) {
                    0 => Slot::U64(edge(rng, u64::MAX)),
                    1 => Slot::U32(edge(rng, u32::MAX.into()) as u32),
                    2 if rng.chance(0.3) => Slot::Opt(None),
                    2 => Slot::Opt(Some(edge(rng, u32::MAX.into()) as u32)),
                    3 => Slot::At(SimTime::from_micros(edge(rng, u64::MAX))),
                    4 => Slot::Secs(edge(rng, 1 << 40) as f64 / 1e6),
                    5 => {
                        // Printable ASCII, quotes and backslashes excepted:
                        // commas, colons and braces are all fair.
                        let len = rng.range(0, 12);
                        let text = (0..len).map(|_| *rng.choose(b" !#$%,:{}[]()azAZ09_-./~"));
                        Slot::Text(text.map(char::from).collect())
                    }
                    6 => Slot::Label(rng.chance(0.5)),
                    _ => Slot::Tag("server"),
                };
                (*key, slot)
            })
            .collect()
    }

    #[test]
    fn random_field_lists_round_trip() {
        let mut rng = SimRng::seeded(0x5e1f);
        for _ in 0..1000 {
            let list = random_list(&mut rng);
            let line = write(&list);
            assert_eq!(read(&line, &list), Some(list), "{line}");
        }
    }

    /// Every prefix and every single-byte substitution of a valid line
    /// reads as `None` or as a record that renders back to exactly the
    /// mutated bytes — never a panic, never a repaired line.
    #[test]
    fn truncated_and_substituted_lines_never_read_as_something_else() {
        let mut rng = SimRng::seeded(0xbad1);
        for _ in 0..25 {
            let list = random_list(&mut rng);
            let line = write(&list);
            for cut in 0..line.len() {
                assert_eq!(read(&line[..cut], &list), None, "{line} cut at {cut}");
            }
            let mut bytes = line.clone().into_bytes();
            for i in 0..bytes.len() {
                let original = bytes[i];
                for b in 0..128 {
                    bytes[i] = b;
                    let mutated = std::str::from_utf8(&bytes).expect("ascii");
                    if let Some(back) = read(mutated, &list) {
                        assert_eq!(write(&back), mutated, "from {line}");
                    }
                }
                bytes[i] = original;
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected_by_name() {
        let shape: List = vec![
            ("a", Slot::U64(0)),
            ("s", Slot::Text(String::new())),
            ("o", Slot::Opt(None)),
        ];
        let good = r#"{"a":1,"s":"x, {y}","o":null}"#;
        assert_eq!(write(&read(good, &shape).expect("valid")), good);
        assert_eq!(read("{}", &Vec::new()), Some(Vec::new()));
        for (bad, why) in [
            (r#""a":1,"s":"x","o":null}"#, "no opening brace"),
            (r#"{"a":1,"s":"x","o":null"#, "no closing brace"),
            (r#"{"a":1,"s":"x}"#, "unterminated string"),
            (r#"{"a":1,"a":1,"s":"x","o":null}"#, "duplicate key"),
            (r#"{"a":1,"o":null,"s":"x"}"#, "reordered keys"),
            (r#"{"a":1,"s":"x"}"#, "missing key"),
            (r#"{"a":1,"s":"x","o":null,"z":0}"#, "unknown key"),
            (
                r#"{"a":18446744073709551616,"s":"x","o":null}"#,
                "u64 overflow",
            ),
            (r#"{"a":1,"s":"x","o":4294967296}"#, "u32 overflow"),
            (r#"{"a":01,"s":"x","o":null}"#, "leading zero"),
            (r#"{"a":+1,"s":"x","o":null}"#, "signed number"),
            (r#"{"a":1.0,"s":"x","o":null}"#, "fraction"),
            (r#"{"a":,"s":"x","o":null}"#, "empty number"),
            (r#"{"a":null,"s":"x","o":null}"#, "null for a number"),
            (r#"{"a":"1","s":"x","o":null}"#, "string for a number"),
            (r#"{"a":1,"s":7,"o":null}"#, "number for a string"),
            (
                r#"{"a":1,"s":"x","o":"7"}"#,
                "string for an optional number",
            ),
            (r#"{"a":1,"s":"x","o":null} "#, "trailing byte"),
            (r#"{"a":1,"s":"x","o":null}}"#, "trailing brace"),
            (r#"{"a":1, "s":"x","o":null}"#, "whitespace"),
            (r#"{"a":1,"s":"x","o":null,}"#, "trailing comma"),
            (r#"{"a":1,"s":"x\"y","o":null}"#, "backslash in a string"),
            (r#"{"a":1,"s":"x"y","o":null}"#, "quote in a string"),
            (
                "{\"a\":1,\"s\":\"x\ty\",\"o\":null}",
                "control byte in a string",
            ),
            ("{\"a\":1,\"s\":\"x\",\"o\":null}\n", "trailing newline"),
        ] {
            assert_eq!(read(bad, &shape), None, "{why}: {bad}");
        }
        // Seconds are read only from a count they round back to, and a
        // tag only from its own value.
        let secs: List = vec![("t", Slot::Secs(0.0)), ("k", Slot::Tag("server"))];
        assert!(read(r#"{"t":1500000,"k":"server"}"#, &secs).is_some());
        assert_eq!(read(r#"{"t":9007199254740993,"k":"server"}"#, &secs), None);
        assert_eq!(read(r#"{"t":1500000,"k":"volume"}"#, &secs), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unwritable string")]
    fn the_writer_never_emits_a_string_it_could_not_read_back() {
        write(&vec![("s", Slot::Text("say \"hi\"".into()))]);
    }
}
