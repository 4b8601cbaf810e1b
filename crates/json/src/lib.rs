//! The workspace's one JSON layer, hand-rolled and dependency-free.
//!
//! - [`Cursor`] is the only JSON tokenizer. Schema-specific readers (the
//!   telemetry artifact parsers, the trace-line decoder) drive it directly,
//!   so they never build a tree. It is the single place that decodes string
//!   escapes: every RFC 8259 escape is accepted, including `\uXXXX`
//!   surrogate pairs; lone surrogates and unknown escapes are rejected.
//! - [`parse`] builds a [`Value`] on the same cursor, for documents read as
//!   a whole (simlint's schema and cache). Strings and object keys keep the
//!   1-based line they started on, so findings can point into the file.
//! - [`push_str`] is the one string escaper; every artifact writer and
//!   [`write`] use it.
//!
//! Numbers are unsigned integers only: nothing the workspace reads or
//! stores needs floats or negatives, and refusing them keeps every writer
//! byte-deterministic.
//!
//! Every error is a `String` that names the line and byte of the input
//! where reading stopped, plus a short excerpt of what follows.
//!
//! # Examples
//!
//! ```
//! let v = json::parse("{\n  \"tags\": [\"a\\tb\"]\n}").unwrap();
//! assert_eq!(v.get("tags").unwrap().str_items(), [("a\tb", 2)]);
//!
//! let mut c = json::Cursor::new("[7, true]");
//! c.expect('[').unwrap();
//! assert_eq!(c.number(), Ok(7));
//! assert!(c.comma().unwrap());
//! assert_eq!(c.bool(), Ok(true));
//! c.expect(']').unwrap();
//! c.end().unwrap();
//!
//! let err = json::parse("[\"\\q\"]").unwrap_err();
//! assert!(err.contains("line 1, byte 2"), "{err}");
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts, so a hostile document
/// cannot exhaust the stack.
const MAX_DEPTH: u32 = 128;

/// A positioned reader over one JSON document.
///
/// Every token method skips leading whitespace, consumes one token and
/// reports a failure as `Err(diagnostic)` naming where reading stopped —
/// never a panic — so truncated or corrupt files surface as clean messages.
pub struct Cursor<'a> {
    text: &'a str,
    i: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            text,
            i: 0,
            line: 1,
        }
    }

    /// A diagnostic for `what`, naming the cursor's line and byte.
    #[cold]
    pub fn error(&self, what: &str) -> String {
        self.error_at(self.i, what)
    }

    #[cold]
    fn error_at(&self, i: usize, what: &str) -> String {
        let bytes = self.text.as_bytes();
        let line = self.line;
        if i >= bytes.len() {
            return format!("{what} at line {line}, byte {i} (unexpected end of input)");
        }
        let near = String::from_utf8_lossy(&bytes[i..(i + 24).min(bytes.len())]);
        format!("{what} at line {line}, byte {i} (near {near:?})")
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(self.error(what))
    }

    #[inline]
    fn skip_ws(&mut self) {
        if self.text.as_bytes().get(self.i).is_none_or(|&c| c > b' ') {
            return; // the common case in compact documents: one compare
        }
        while let Some(&c) = self.text.as_bytes().get(self.i) {
            match c {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => return,
            }
            self.i += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.i).copied()
    }

    /// Consumes the punctuation byte `c`.
    #[inline]
    pub fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek_close(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.expected(c))
        }
    }

    /// Kept out of line so the hot, inlined `expect` stays small.
    #[cold]
    #[inline(never)]
    fn expected(&self, c: char) -> String {
        self.error(&format!("expected {c:?}"))
    }

    /// Consumes a comma if present; `Ok(false)` means the container ends.
    #[inline]
    pub fn comma(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(b'}' | b']') => Ok(false),
            _ => self.fail("expected ',' or a closing bracket"),
        }
    }

    /// Whether the next byte is `c` (typically a closing bracket), without
    /// consuming it.
    #[inline]
    pub fn peek_close(&mut self, c: char) -> bool {
        self.peek() == Some(c as u8)
    }

    /// Fails unless only whitespace remains.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(_) => self.fail("trailing data after document"),
            None => Ok(()),
        }
    }

    /// Reads a string, decoding its escapes. Borrows from the input when
    /// the string has none.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect('"')?;
        let (text, start) = (self.text, self.i);
        let bytes = text.as_bytes();
        let stop = bytes[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map(|n| start + n);
        match stop {
            Some(end) if bytes[end] == b'"' => {
                self.i = end + 1;
                Ok(Cow::Borrowed(&text[start..end]))
            }
            _ => self.escaped_string().map(Cow::Owned),
        }
    }

    /// The rest of a string that needs unescaping (or is malformed).
    fn escaped_string(&mut self) -> Result<String, String> {
        let text = self.text;
        let mut out = String::new();
        let mut run = self.i;
        loop {
            match text.as_bytes().get(self.i) {
                Some(b'"') => {
                    out.push_str(&text[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&text[run..self.i]);
                    out.push(self.escape()?);
                    run = self.i;
                }
                Some(&c) if c >= 0x20 => self.i += 1,
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// Decodes the escape whose backslash is under the cursor; errors point
    /// at that backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.text.as_bytes().get(self.i + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(),
            Some(_) => return self.fail("unknown string escape"),
            None => return self.fail("unterminated string"),
        };
        self.i += 2;
        Ok(c)
    }

    /// `\uXXXX`, or a `\uD8xx\uDCxx` surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4(self.i + 2)?;
        let (code, len) = match hi {
            0xD800..=0xDBFF => {
                let lo = match self.text.as_bytes().get(self.i + 6..self.i + 8) {
                    Some(b"\\u") => self.hex4(self.i + 8)?,
                    _ => return self.fail("lone surrogate in \\u escape"),
                };
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return self.fail("lone surrogate in \\u escape");
                }
                (0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00), 12)
            }
            0xDC00..=0xDFFF => return self.fail("lone surrogate in \\u escape"),
            _ => (hi, 6),
        };
        let c = char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?;
        self.i += len;
        Ok(c)
    }

    /// The four hex digits at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let digits = self.text.as_bytes().get(at..at + 4);
        digits
            .and_then(|d| {
                d.iter()
                    .try_fold(0, |acc, &h| Some(acc * 16 + char::from(h).to_digit(16)?))
            })
            .ok_or_else(|| self.error("bad \\u escape"))
    }

    /// Reads an unsigned integer.
    #[inline]
    pub fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.i;
        let mut v = Some(0u64);
        while let Some(d) = bytes.get(self.i).filter(|d| d.is_ascii_digit()) {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.i += 1;
        }
        if start == self.i {
            return self.fail("expected a number");
        }
        if matches!(bytes.get(self.i), Some(b'.' | b'e' | b'E')) {
            return Err(self.error_at(start, "floats are not supported"));
        }
        v.ok_or_else(|| self.error_at(start, "number out of range"))
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            self.fail("expected true or false")
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), String> {
        if self.literal("null") {
            Ok(())
        } else {
            self.fail("expected null")
        }
    }

    #[inline]
    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes()[self.i..].starts_with(word.as_bytes());
        if hit {
            self.i += word.len();
        }
        hit
    }

    /// Reads any value into a tree.
    fn value(&mut self, depth: u32) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                if !self.peek_close('}') {
                    loop {
                        self.skip_ws();
                        let line = self.line;
                        let key = self.string()?.into_owned();
                        self.expect(':')?;
                        m.insert(key, (self.value(depth + 1)?, line));
                        if !self.comma()? {
                            break;
                        }
                    }
                }
                self.expect('}')?;
                Ok(Value::Obj(m))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.peek_close(']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if !self.comma()? {
                            break;
                        }
                    }
                }
                self.expect(']')?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => {
                let line = self.line;
                Ok(Value::Str(self.string()?.into_owned(), line))
            }
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'n') => self.null().map(|()| Value::Null),
            _ => self.number().map(Value::Num),
        }
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string, with the 1-based line it started on in the source text.
    Str(String, u32),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` so re-serialization is deterministic; the
    /// u32 is the line of the *key*.
    Obj(BTreeMap<String, (Value, u32)>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key).map(|(v, _)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s, _) => Some(s),
            _ => None,
        }
    }

    /// Numeric contents, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array items, if this is an array (empty slice otherwise).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }

    /// The strings of an array of strings, with their source lines.
    pub fn str_items(&self) -> Vec<(&str, u32)> {
        self.items()
            .iter()
            .filter_map(|v| match v {
                Value::Str(s, line) => Some((s.as_str(), *line)),
                _ => None,
            })
            .collect()
    }
}

/// Parses `text` into a [`Value`].
///
/// # Errors
///
/// Returns a positioned description on malformed input, including floats
/// and negative numbers.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut c = Cursor::new(text);
    let v = c.value(0)?;
    c.end()?;
    Ok(v)
}

/// Serializes `v` compactly and deterministically (object keys are already
/// sorted by the `BTreeMap`).
pub fn write(v: &Value) -> String {
    let mut s = String::new();
    write_into(v, &mut s);
    s
}

fn write_into(v: &Value, s: &mut String) {
    match v {
        Value::Null => s.push_str("null"),
        Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            let _ = write!(s, "{n}");
        }
        Value::Str(t, _) => push_str(s, t),
        Value::Arr(items) => {
            s.push('[');
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write_into(it, s);
            }
            s.push(']');
        }
        Value::Obj(m) => {
            s.push('{');
            for (i, (k, (val, _))) in m.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_str(s, k);
                s.push(':');
                write_into(val, s);
            }
            s.push('}');
        }
    }
}

/// Appends `v` as a JSON string literal, escaping `"`, `\` and control
/// characters (`\n` by name, the rest as `\u00XX`) — the one escaper every
/// writer shares.
pub fn push_str(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// `v` as a standalone JSON string literal.
pub fn escape(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    push_str(&mut s, v);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_objects_arrays_and_scalars() {
        let text = r#"{"b": true, "arr": [1, 2, "x"], "nested": {"n": null, "k": 7}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("arr").unwrap().items().len(), 3);
        assert_eq!(v.get("nested").unwrap().get("k").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("nested").unwrap().get("n"), Some(&Value::Null));
        let re = parse(&write(&v)).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn strings_remember_their_line() {
        let text = "{\n  \"a\": [\n    \"first\",\n    \"second\"\n  ]\n}";
        let v = parse(text).unwrap();
        let items = v.get("a").unwrap().str_items();
        assert_eq!(items, vec![("first", 3), ("second", 4)]);
        let Value::Obj(m) = &v else { panic!() };
        assert_eq!(m["a"].1, 2, "keys keep their line too");
    }

    #[test]
    fn every_rfc8259_escape_decodes() {
        let v = parse(r#"["a\"b\\c\/d\be\ff\ng\rh\ti\u0041\u00e9\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            v.items()[0].as_str(),
            Some("a\"b\\c/d\u{8}e\u{c}f\ng\rh\ti\u{41}\u{e9}\u{1F600}")
        );
        // Unescaped strings borrow; escaped ones decode into an owned copy.
        let mut c = Cursor::new(r#""plain" "t\tab""#);
        assert!(matches!(c.string(), Ok(Cow::Borrowed("plain"))));
        assert_eq!(c.string().unwrap(), "t\tab");
    }

    #[test]
    fn bad_escapes_are_rejected_at_their_own_position() {
        for (text, byte, what) in [
            ("[\"ok\",\n \"ab\\q\"]", 11, "unknown string escape"),
            ("[\"x\\ud83d\"]", 3, "lone surrogate"),
            ("[\"x\\ud83dz\"]", 3, "lone surrogate"),
            ("[\"x\\ud83d\\u0041\"]", 3, "lone surrogate"),
            ("[\"x\\ude00\"]", 3, "lone surrogate"),
            ("[\"x\\u12g4\"]", 3, "bad \\u escape"),
            ("[\"x\\u+123\"]", 3, "bad \\u escape"),
            ("[\"x\\u12", 3, "bad \\u escape"),
            ("[\"x\\", 3, "unterminated string"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(what), "{text:?}: {err}");
            let line = if text.contains('\n') { 2 } else { 1 };
            let at = format!("at line {line}, byte {byte} ");
            assert!(err.contains(&at), "{text:?}: {err} lacks {at:?}");
        }
    }

    #[test]
    fn escapes_roundtrip_through_the_writer() {
        let nasty = "q\"b\\s\nn\tt\r\u{1}\u{7f}é😀/";
        let v = Value::Arr(vec![Value::Str(nasty.to_string(), 1)]);
        assert_eq!(parse(&write(&v)).unwrap(), v);
        assert_eq!(escape("a\"\\\n\t"), r#""a\"\\\n\u0009""#);
    }

    #[test]
    fn malformed_inputs_error_with_line_and_byte() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":1,}",
            "\"open",
            "{\"k\" 1}",
            "1.5",
            "-1",
            "{\"a\":01x}",
            "[\"raw\nnewline\"]",
            "tru",
            "nul",
            "[1] 2",
            "99999999999999999999",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.contains("line ") && err.contains("byte "),
                "{bad:?}: {err}"
            );
        }
        let err = parse("{\n  \"k\": oops\n}").unwrap_err();
        assert!(err.contains("line 2, byte 9"), "{err}");
        let deep = "[".repeat(MAX_DEPTH as usize + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
    }

    /// Every byte of a small schema document replaced by each of a set of
    /// structural bytes: the reader returns `Ok` or `Err`, never panics,
    /// and whatever it accepts re-serializes to a fixed point.
    #[test]
    fn single_byte_flips_never_panic() {
        let doc = "{\n  \"required_counters\": [\"timeouts\", \"q\\\"uo\\u00e9\"],\n  \
                   \"serve\": {\"required_hist_prefixes\": [\"serve_req/\"]},\n  \
                   \"version\": 3, \"ok\": true, \"none\": null\n}";
        assert!(parse(doc).is_ok());
        let mut accepted = 0;
        for i in 0..doc.len() {
            for flip in *b"\"\\{}[],0x" {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[i] = flip;
                let Ok(text) = String::from_utf8(bytes) else {
                    continue;
                };
                if let Ok(v) = parse(&text) {
                    accepted += 1;
                    let once = write(&v);
                    assert_eq!(parse(&once).map(|v| write(&v)), Ok(once), "{text}");
                }
            }
        }
        assert!(accepted > 0, "some flips (e.g. inside strings) stay valid");
    }
}
