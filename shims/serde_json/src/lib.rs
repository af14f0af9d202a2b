//! Offline stand-in for `serde_json`.
//!
//! Writing streams: one writer implements the `serde` shim's `Serializer`
//! and appends JSON text as a value's `serialize` calls arrive, with no
//! intermediate tree. [`to_string`] and [`to_string_into`] write compact
//! JSON, [`to_string_pretty`] 2-space indented JSON; floats use Rust's
//! shortest round-trip formatting (integral values below 1e16 keep a `.0`,
//! non-finite values become `null`). In a large document std formats each
//! distinct float once and repeats copy its text.
//!
//! Reading parses the full JSON grammar (objects, arrays, strings with
//! escapes, numbers with exponents, booleans, null) into a `serde::Value`
//! tree: [`parse_value`] returns it, [`from_str`] maps it onto a type.

pub use serde::Value;

/// Error raised by JSON parsing or mapping a value tree onto a Rust type.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    line: usize,
    column: usize,
}

impl Error {
    fn new(msg: impl Into<String>, line: usize, column: usize) -> Self {
        Error { msg: msg.into(), line, column }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {} column {}", self.msg, self.line, self.column)
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn error(&self, msg: impl Into<String>) -> Error {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Error::new(msg, line, col)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: \uD800-\uDBFF followed by \uDC00-\uDFFF.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.error("bad surrogate pair"))?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| self.error("bad surrogate pair"))?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| self.error("bad surrogate pair"))?;
                                    self.pos += 6;
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both delimiters are ASCII and the input is a `&str`,
                    // so the run is whole UTF-8 characters; checking only
                    // the run keeps parsing linear in the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.error(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::I64(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::U64(u))
        } else {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.error(format!("invalid number `{text}`")))
        }
    }
}

/// Parses a JSON document into a value tree.
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

/// Deserializes an instance of `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    T::deserialize(&value).map_err(|e| Error::new(e.to_string(), 0, 0))
}

/// The JSON writer: a [`serde::Serializer`] that appends each call's text
/// to a `String` as it arrives. `PRETTY` selects 2-space indented output
/// (`"key": value`, one element per line, `[]`/`{}` for empty containers)
/// over compact output; the two share every rule but whitespace.
struct Writer<'a, const PRETTY: bool> {
    out: &'a mut String,
    /// Open containers.
    depth: usize,
    /// No element has been written yet in the innermost open container.
    first: bool,
    /// A map key was just written; the next value belongs to it.
    after_key: bool,
    /// Floats std has formatted so far.
    floats: usize,
    /// Created once `floats` reaches [`FloatMemo::AFTER`].
    memo: Option<FloatMemo>,
}

/// The text of recently written floats, keyed by bit pattern.
///
/// Formatting a float (std's shortest round-trip `{}`) is most of the
/// writer's cost on a report, and reports repeat values heavily: every
/// series of every node shares one sample-time grid, and temperatures are
/// quantized. So each distinct value is formatted once by std and its
/// bytes are copied after that; the output is the same bytes either way.
/// A direct-mapped table: a slot holds the last value that hashed to it.
struct FloatMemo {
    slots: Vec<MemoSlot>,
}

#[derive(Clone, Copy, Default)]
struct MemoSlot {
    bits: u64,
    /// Text length; 0 marks an empty slot.
    len: u8,
    text: [u8; 23],
}

impl FloatMemo {
    /// Documents with fewer floats (journal lines, configs) never build
    /// the table.
    const AFTER: usize = 256;
    const SLOTS_LOG2: u32 = 12;

    fn new() -> Self {
        FloatMemo { slots: vec![MemoSlot::default(); 1 << Self::SLOTS_LOG2] }
    }

    fn index(bits: u64) -> usize {
        (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - Self::SLOTS_LOG2)) as usize
    }

    fn get(&self, bits: u64) -> Option<&str> {
        let slot = &self.slots[Self::index(bits)];
        (slot.len != 0 && slot.bits == bits).then(|| {
            std::str::from_utf8(&slot.text[..usize::from(slot.len)]).expect("memo holds text")
        })
    }

    /// Remembers `text` for `bits`; texts too long for a slot are skipped.
    fn put(&mut self, bits: u64, text: &str) {
        let slot = &mut self.slots[Self::index(bits)];
        if let Some(dst) = slot.text.get_mut(..text.len()) {
            dst.copy_from_slice(text.as_bytes());
            slot.bits = bits;
            slot.len = text.len() as u8;
        }
    }
}

impl<'a, const PRETTY: bool> Writer<'a, PRETTY> {
    fn new(out: &'a mut String) -> Self {
        Writer { out, depth: 0, first: true, after_key: false, floats: 0, memo: None }
    }

    /// Separator and (pretty) line break before a sequence element or key.
    fn element(&mut self) {
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            if PRETTY {
                self.newline();
            }
        }
        self.first = false;
    }

    /// Called before every value: map values follow their key directly.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.element();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char) {
        self.value();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if PRETTY && !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn display(&mut self, v: impl std::fmt::Display) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{v}");
    }
}

impl<const PRETTY: bool> serde::Serializer for Writer<'_, PRETTY> {
    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn i64(&mut self, v: i64) {
        self.value();
        self.display(v);
    }

    fn u64(&mut self, v: u64) {
        self.value();
        self.display(v);
    }

    fn f64(&mut self, v: f64) {
        self.value();
        if !v.is_finite() {
            // serde_json emits null for non-finite floats.
            self.out.push_str("null");
            return;
        }
        let bits = v.to_bits();
        if let Some(text) = self.memo.as_ref().and_then(|memo| memo.get(bits)) {
            self.out.push_str(text);
            return;
        }
        let start = self.out.len();
        if v == v.trunc() && v.abs() < 1e16 {
            // Match serde_json: integral floats keep a trailing `.0`.
            self.display(format_args!("{v:.1}"));
        } else {
            self.display(v);
        }
        self.floats += 1;
        match &mut self.memo {
            Some(memo) => memo.put(bits, &self.out[start..]),
            None if self.floats == FloatMemo::AFTER => self.memo = Some(FloatMemo::new()),
            None => {}
        }
    }

    fn str(&mut self, v: &str) {
        self.value();
        escape_into(self.out, v);
    }

    fn begin_seq(&mut self) {
        self.open('[');
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn begin_map(&mut self) {
        self.open('{');
    }

    fn key(&mut self, key: &str) {
        self.element();
        escape_into(self.out, key);
        self.out.push_str(if PRETTY { ": " } else { ":" });
        self.after_key = true;
    }

    fn end_map(&mut self) {
        self.close('}');
    }
}

/// Appends `s` as a quoted JSON string, copying unescaped runs whole.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `value` as compact JSON to `out`, without an intermediate
/// `String`: the way to embed a serialized value in a larger document.
pub fn to_string_into<T: serde::Serialize>(out: &mut String, value: &T) {
    value.serialize(&mut Writer::<false>::new(out));
}

/// Serializes `value` as a pretty-printed (2-space indented) JSON string.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut Writer::<true>::new(&mut out));
    Ok(out)
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    to_string_into(&mut out, value);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(parse_value("42").unwrap(), Value::I64(42));
        assert_eq!(parse_value("-3.5e2").unwrap(), Value::F64(-350.0));
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value("\"a\\nb\"").unwrap(), Value::Str("a\nb".to_string()));
    }

    #[test]
    fn roundtrip_nested() {
        let src = "{\"a\": [1, 2.5, {\"b\": \"x\"}], \"c\": null}";
        let v = parse_value(src).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn integral_float_keeps_point() {
        assert_eq!(to_string(&300.0).unwrap(), "300.0");
    }

    #[test]
    fn memoized_floats_print_like_fresh_ones() {
        // Far more floats than the memo's threshold and slot count, with
        // repeats, slot collisions and texts too long for a slot.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut values = Vec::new();
        for i in 0..20_000u32 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = match i % 4 {
                0 => f64::from(i % 700) * 0.25,
                1 => (state >> 11) as f64 / (1u64 << 53) as f64,
                2 => f64::from_bits(state >> 2),
                _ => values[(state % u64::from(i)) as usize],
            };
            values.push(v);
        }
        let fresh: Vec<String> = values.iter().map(|v| to_string(v).unwrap()).collect();
        assert_eq!(to_string(&values).unwrap(), format!("[{}]", fresh.join(",")));
    }

    #[test]
    fn strings_mix_multibyte_runs_and_escapes() {
        let src = "[\"h\u{e9}llo \u{2713}\", \"a\\\"b\\\\c\\u00e9\\n\", \"\", \"\u{1F600}x\"]";
        let want = ["h\u{e9}llo \u{2713}", "a\"b\\c\u{e9}\n", "", "\u{1F600}x"];
        let want = Value::Seq(want.iter().map(|s| Value::Str(s.to_string())).collect());
        assert_eq!(parse_value(src).unwrap(), want);
        assert!(parse_value("\"open").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_value("1 2").is_err());
    }
}
