//! The versioned JSON trace format.
//!
//! Mirror types keep `tm-model` free of serialization concerns; conversion
//! to and from [`History`] is total in one direction and validated in the
//! other. Serialization is hand-rolled over a tiny internal JSON document
//! model (`Json`) — the build environment vendors no `serde`/`serde_json`,
//! and the trace schema is small enough that a direct implementation is
//! clearer than a stubbed derive. The wire format follows the serde
//! conventions the schema was designed with: externally tagged values
//! (`"unit"`, `{"int": 5}`) and internally tagged events
//! (`{"kind": "inv", ...}`), so traces are interchangeable with a
//! serde-derived reader.

use std::fmt::Write as _;

use crate::{op_from_str, ParseError};
use tm_model::{Event, History, ObjId, TxId, Value};

/// The format version emitted by [`to_json`].
pub const FORMAT_VERSION: u32 = 1;

/// JSON mirror of [`Value`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `⊥`.
    Unit,
    /// `ok`.
    Ok,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An ordered pair.
    Pair(Box<JsonValue>, Box<JsonValue>),
    /// A sequence.
    List(Vec<JsonValue>),
}

impl From<&Value> for JsonValue {
    fn from(v: &Value) -> Self {
        match v {
            Value::Unit => JsonValue::Unit,
            Value::Ok => JsonValue::Ok,
            Value::Int(i) => JsonValue::Int(*i),
            Value::Bool(b) => JsonValue::Bool(*b),
            Value::Pair(a, b) => {
                JsonValue::Pair(Box::new(a.as_ref().into()), Box::new(b.as_ref().into()))
            }
            Value::List(vs) => JsonValue::List(vs.iter().map(Into::into).collect()),
        }
    }
}

impl From<&JsonValue> for Value {
    fn from(v: &JsonValue) -> Self {
        match v {
            JsonValue::Unit => Value::Unit,
            JsonValue::Ok => Value::Ok,
            JsonValue::Int(i) => Value::Int(*i),
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Pair(a, b) => Value::pair(a.as_ref().into(), b.as_ref().into()),
            JsonValue::List(vs) => Value::List(vs.iter().map(Into::into).collect()),
        }
    }
}

/// JSON mirror of [`Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonEvent {
    /// Operation invocation.
    Inv {
        /// Transaction number (the `i` of `T_i`).
        tx: u32,
        /// Object name.
        obj: String,
        /// Operation name.
        op: String,
        /// Operation arguments (omitted from the wire format when empty).
        args: Vec<JsonValue>,
    },
    /// Operation response.
    Ret {
        /// Transaction number.
        tx: u32,
        /// Object name.
        obj: String,
        /// Operation name.
        op: String,
        /// Returned value.
        val: JsonValue,
    },
    /// `tryC`.
    TryCommit {
        /// Transaction number.
        tx: u32,
    },
    /// `tryA`.
    TryAbort {
        /// Transaction number.
        tx: u32,
    },
    /// `C`.
    Commit {
        /// Transaction number.
        tx: u32,
    },
    /// `A`.
    Abort {
        /// Transaction number.
        tx: u32,
    },
}

/// The top-level JSON document: a version tag and the event sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonTrace {
    /// Format version; [`from_json`] accepts only [`FORMAT_VERSION`].
    pub version: u32,
    /// The history's events, in order.
    pub events: Vec<JsonEvent>,
}

impl From<&Event> for JsonEvent {
    fn from(e: &Event) -> Self {
        match e {
            Event::Inv { tx, obj, op, args } => JsonEvent::Inv {
                tx: tx.0,
                obj: obj.name().to_string(),
                op: op.to_string(),
                args: args.iter().map(Into::into).collect(),
            },
            Event::Ret { tx, obj, op, val } => JsonEvent::Ret {
                tx: tx.0,
                obj: obj.name().to_string(),
                op: op.to_string(),
                val: val.into(),
            },
            Event::TryCommit(tx) => JsonEvent::TryCommit { tx: tx.0 },
            Event::TryAbort(tx) => JsonEvent::TryAbort { tx: tx.0 },
            Event::Commit(tx) => JsonEvent::Commit { tx: tx.0 },
            Event::Abort(tx) => JsonEvent::Abort { tx: tx.0 },
        }
    }
}

impl From<&JsonEvent> for Event {
    fn from(e: &JsonEvent) -> Self {
        match e {
            JsonEvent::Inv { tx, obj, op, args } => Event::Inv {
                tx: TxId(*tx),
                obj: ObjId::new(obj),
                op: op_from_str(op),
                args: args.iter().map(Into::into).collect(),
            },
            JsonEvent::Ret { tx, obj, op, val } => Event::Ret {
                tx: TxId(*tx),
                obj: ObjId::new(obj),
                op: op_from_str(op),
                val: val.into(),
            },
            JsonEvent::TryCommit { tx } => Event::TryCommit(TxId(*tx)),
            JsonEvent::TryAbort { tx } => Event::TryAbort(TxId(*tx)),
            JsonEvent::Commit { tx } => Event::Commit(TxId(*tx)),
            JsonEvent::Abort { tx } => Event::Abort(TxId(*tx)),
        }
    }
}

// ---------------------------------------------------------------------------
// The JSON document model.
//
// Originally internal to this module; made public for the `tm-serve` wire
// protocol (`tm-serve/v1` frames carry trace events inside framing objects),
// which reuses this hand-rolled layer rather than growing a dependency.

/// A parsed JSON document node. Integers are `i64`: every number in the
/// trace schema (versions, transaction ids, integer values) fits. Numbers
/// with a fraction or an exponent parse as [`Json::Float`], which no trace
/// or frame field accepts (a schema error there); the bench artifacts use
/// them.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number shape the trace formats use).
    Int(i64),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields in source order, plus the 1-based source line of
    /// the opening brace so schema errors can point at the offending node
    /// (0 when built by a serializer, which never reports errors).
    Obj(usize, Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object node (`None` for other node shapes and
    /// missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(_, fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Source line of this node, when known (objects only).
    pub fn line(&self) -> usize {
        match self {
            Json::Obj(line, _) => *line,
            _ => 0,
        }
    }

    /// Parses one JSON document (rejecting trailing input), tracking source
    /// lines for [`ParseError`] positions.
    pub fn parse(s: &str) -> Result<Json, ParseError> {
        Parser::new(s).parse_document()
    }

    /// Renders this node as compact (single-line) JSON.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `{:?}` keeps a fraction (`1.0`, not `1`), so the value parses
            // back as a float.
            Json::Float(f) => {
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(_, fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + STEP);
                    item.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(_, fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + STEP);
                    write_json_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A recursive-descent JSON parser that tracks the current line for error
/// reporting (1-based, as [`ParseError`] documents).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.err(format!(
                "expected `{}`, found `{}`",
                want as char, b as char
            ))),
            None => Err(self.err(format!("expected `{}`, found end of input", want as char))),
        }
    }

    fn parse_document(mut self) -> Result<Json, ParseError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.peek().is_some() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't' | b'f') => self.parse_keyword(),
            Some(b'n') => self.parse_keyword(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let line = self.line;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(line, fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string object key"));
            }
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(line, fields)),
                Some(b) => {
                    return Err(self.err(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        b as char
                    )))
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                Some(b) => {
                    return Err(self.err(format!(
                        "expected `,` or `]` in array, found `{}`",
                        b as char
                    )))
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0C),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        let c = match code {
                            // High surrogate: a low surrogate must follow
                            // (the JSON encoding of astral-plane chars).
                            0xD800..=0xDBFF => {
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("unpaired high surrogate in \\u escape"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("invalid low surrogate in \\u escape"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(self.err("unpaired low surrogate in \\u escape"))
                            }
                            c => char::from_u32(c).ok_or_else(|| self.err("invalid \\u escape"))?,
                        };
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    Some(b) => return Err(self.err(format!("invalid escape `\\{}`", b as char))),
                    None => return Err(self.err("unterminated string escape")),
                },
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn parse_keyword(&mut self) -> Result<Json, ParseError> {
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.err("invalid keyword (expected true/false/null)"))
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Consumes a digit run, reporting whether it was non-empty.
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.bump();
            }
            p.pos > from
        };
        let mut well_formed = digits(self);
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.bump();
            well_formed &= digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            well_formed &= digits(self);
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are valid UTF-8");
        let parsed = if !well_formed {
            None
        } else if float {
            text.parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Json::Float)
        } else {
            text.parse::<i64>().ok().map(Json::Int)
        };
        parsed.ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Schema mapping: mirror types ↔ the document model.

impl JsonValue {
    fn to_doc(&self) -> Json {
        match self {
            JsonValue::Unit => Json::Str("unit".into()),
            JsonValue::Ok => Json::Str("ok".into()),
            JsonValue::Int(i) => Json::Obj(0, vec![("int".into(), Json::Int(*i))]),
            JsonValue::Bool(b) => Json::Obj(0, vec![("bool".into(), Json::Bool(*b))]),
            JsonValue::Pair(a, b) => Json::Obj(
                0,
                vec![("pair".into(), Json::Arr(vec![a.to_doc(), b.to_doc()]))],
            ),
            JsonValue::List(vs) => Json::Obj(
                0,
                vec![(
                    "list".into(),
                    Json::Arr(vs.iter().map(JsonValue::to_doc).collect()),
                )],
            ),
        }
    }

    fn from_doc(doc: &Json) -> Result<JsonValue, ParseError> {
        let schema_err = |msg: &str| ParseError {
            line: doc.line(),
            message: format!("invalid value: {msg}"),
        };
        match doc {
            Json::Str(s) => match s.as_str() {
                "unit" => Ok(JsonValue::Unit),
                "ok" => Ok(JsonValue::Ok),
                other => Err(schema_err(&format!("unknown value tag `{other}`"))),
            },
            Json::Obj(_, fields) => {
                let [(tag, body)] = fields.as_slice() else {
                    return Err(schema_err("expected exactly one tag field"));
                };
                match (tag.as_str(), body) {
                    ("int", Json::Int(i)) => Ok(JsonValue::Int(*i)),
                    ("bool", Json::Bool(b)) => Ok(JsonValue::Bool(*b)),
                    ("pair", Json::Arr(items)) => match items.as_slice() {
                        [a, b] => Ok(JsonValue::Pair(
                            Box::new(JsonValue::from_doc(a)?),
                            Box::new(JsonValue::from_doc(b)?),
                        )),
                        _ => Err(schema_err("`pair` requires exactly two elements")),
                    },
                    ("list", Json::Arr(items)) => Ok(JsonValue::List(
                        items
                            .iter()
                            .map(JsonValue::from_doc)
                            .collect::<Result<_, _>>()?,
                    )),
                    (other, _) => Err(schema_err(&format!("unknown value tag `{other}`"))),
                }
            }
            _ => Err(schema_err("expected a string tag or a tagged object")),
        }
    }
}

impl JsonEvent {
    /// Renders this event as its wire-format document node (the element
    /// shape of the trace's `events` array, e.g.
    /// `{"kind":"inv","tx":1,"obj":"x","op":"read"}`).
    pub fn to_doc(&self) -> Json {
        let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
        let tx_field = |tx: u32| ("tx".to_string(), Json::Int(i64::from(tx)));
        match self {
            JsonEvent::Inv { tx, obj, op, args } => {
                let mut fields = vec![
                    kind("inv"),
                    tx_field(*tx),
                    ("obj".into(), Json::Str(obj.clone())),
                    ("op".into(), Json::Str(op.clone())),
                ];
                if !args.is_empty() {
                    fields.push((
                        "args".into(),
                        Json::Arr(args.iter().map(JsonValue::to_doc).collect()),
                    ));
                }
                Json::Obj(0, fields)
            }
            JsonEvent::Ret { tx, obj, op, val } => Json::Obj(
                0,
                vec![
                    kind("ret"),
                    tx_field(*tx),
                    ("obj".into(), Json::Str(obj.clone())),
                    ("op".into(), Json::Str(op.clone())),
                    ("val".into(), val.to_doc()),
                ],
            ),
            JsonEvent::TryCommit { tx } => Json::Obj(0, vec![kind("try_commit"), tx_field(*tx)]),
            JsonEvent::TryAbort { tx } => Json::Obj(0, vec![kind("try_abort"), tx_field(*tx)]),
            JsonEvent::Commit { tx } => Json::Obj(0, vec![kind("commit"), tx_field(*tx)]),
            JsonEvent::Abort { tx } => Json::Obj(0, vec![kind("abort"), tx_field(*tx)]),
        }
    }

    /// Parses one event from its wire-format document node, reporting the
    /// node's source line on schema violations.
    pub fn from_doc(doc: &Json) -> Result<JsonEvent, ParseError> {
        let schema_err = |msg: String| ParseError {
            line: doc.line(),
            message: format!("invalid event: {msg}"),
        };
        let tx_of = |doc: &Json| -> Result<u32, ParseError> {
            match doc.get("tx") {
                Some(Json::Int(i)) => u32::try_from(*i)
                    .map_err(|_| schema_err(format!("transaction id {i} out of range"))),
                _ => Err(schema_err("missing integer `tx` field".into())),
            }
        };
        let str_of = |doc: &Json, key: &str| -> Result<String, ParseError> {
            match doc.get(key) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(schema_err(format!("missing string `{key}` field"))),
            }
        };
        let Some(Json::Str(k)) = doc.get("kind") else {
            return Err(schema_err("missing string `kind` field".into()));
        };
        match k.as_str() {
            "inv" => {
                let args = match doc.get("args") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(JsonValue::from_doc)
                        .collect::<Result<_, _>>()?,
                    Some(_) => return Err(schema_err("`args` must be an array".into())),
                };
                Ok(JsonEvent::Inv {
                    tx: tx_of(doc)?,
                    obj: str_of(doc, "obj")?,
                    op: str_of(doc, "op")?,
                    args,
                })
            }
            "ret" => Ok(JsonEvent::Ret {
                tx: tx_of(doc)?,
                obj: str_of(doc, "obj")?,
                op: str_of(doc, "op")?,
                val: JsonValue::from_doc(
                    doc.get("val")
                        .ok_or_else(|| schema_err("missing `val` field".into()))?,
                )?,
            }),
            "try_commit" => Ok(JsonEvent::TryCommit { tx: tx_of(doc)? }),
            "try_abort" => Ok(JsonEvent::TryAbort { tx: tx_of(doc)? }),
            "commit" => Ok(JsonEvent::Commit { tx: tx_of(doc)? }),
            "abort" => Ok(JsonEvent::Abort { tx: tx_of(doc)? }),
            other => Err(schema_err(format!("unknown event kind `{other}`"))),
        }
    }
}

impl JsonTrace {
    fn to_doc(&self) -> Json {
        Json::Obj(
            0,
            vec![
                ("version".into(), Json::Int(i64::from(self.version))),
                (
                    "events".into(),
                    Json::Arr(self.events.iter().map(JsonEvent::to_doc).collect()),
                ),
            ],
        )
    }

    fn from_doc(doc: &Json) -> Result<JsonTrace, ParseError> {
        let schema_err = |msg: &str| ParseError {
            line: doc.line(),
            message: format!("invalid trace: {msg}"),
        };
        let version = match doc.get("version") {
            Some(Json::Int(i)) => {
                u32::try_from(*i).map_err(|_| schema_err("version out of range"))?
            }
            _ => return Err(schema_err("missing integer `version` field")),
        };
        let events = match doc.get("events") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(JsonEvent::from_doc)
                .collect::<Result<_, _>>()?,
            _ => return Err(schema_err("missing `events` array")),
        };
        Ok(JsonTrace { version, events })
    }
}

// ---------------------------------------------------------------------------
// Public entry points.

/// Renders a model [`Event`] as its wire-format document node — the shape
/// carried by the trace's `events` array and by `tm-serve/v1` `feed` frames.
pub fn event_to_doc(e: &Event) -> Json {
    JsonEvent::from(e).to_doc()
}

/// Parses one model [`Event`] from its wire-format document node.
pub fn event_from_doc(doc: &Json) -> Result<Event, ParseError> {
    Ok((&JsonEvent::from_doc(doc)?).into())
}

/// Serializes a history to the compact JSON trace format.
///
/// ```
/// use tm_model::HistoryBuilder;
/// use tm_trace::{to_json, from_json};
///
/// let h = HistoryBuilder::new().write(1, "x", 1).commit_ok(1).build();
/// let encoded = to_json(&h);
/// assert!(encoded.contains("\"version\":1"));
/// assert_eq!(from_json(&encoded).unwrap().events(), h.events());
/// ```
pub fn to_json(h: &History) -> String {
    let trace = JsonTrace {
        version: FORMAT_VERSION,
        events: h.events().iter().map(Into::into).collect(),
    };
    let mut out = String::new();
    trace.to_doc().write_compact(&mut out);
    out
}

/// Serializes a history to human-indented JSON.
pub fn to_json_pretty(h: &History) -> String {
    let trace = JsonTrace {
        version: FORMAT_VERSION,
        events: h.events().iter().map(Into::into).collect(),
    };
    let mut out = String::new();
    trace.to_doc().write_pretty(&mut out, 0);
    out
}

/// Parses a JSON trace back into a [`History`].
///
/// Rejects unknown format versions and JSON that does not match the schema.
/// The resulting history is *not* implicitly validated for well-formedness —
/// callers that require it (the checkers do) run
/// [`tm_model::check_well_formed`] themselves, which keeps this crate usable
/// for deliberately ill-formed fixtures.
pub fn from_json(s: &str) -> Result<History, ParseError> {
    let doc = Json::parse(s)?;
    let trace = JsonTrace::from_doc(&doc)?;
    if trace.version != FORMAT_VERSION {
        return Err(ParseError {
            line: 0,
            message: format!(
                "unsupported trace version {} (this build reads version {FORMAT_VERSION})",
                trace.version
            ),
        });
    }
    Ok(History::from_events(
        trace.events.iter().map(Into::into).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::HistoryBuilder;

    fn sample() -> History {
        HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .try_commit(2)
            .abort(2)
            .build()
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let h = sample();
        for s in [to_json(&h), to_json_pretty(&h)] {
            let back = from_json(&s).unwrap();
            assert_eq!(back.events(), h.events());
        }
    }

    #[test]
    fn version_is_checked() {
        let s = to_json(&sample()).replace("\"version\":1", "\"version\":99");
        let e = from_json(&s).unwrap_err();
        assert!(e.message.contains("unsupported trace version 99"), "{e}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = from_json("{\n  \"version\": 1,\n  events: []\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn all_value_shapes_roundtrip() {
        let vals = [
            Value::Unit,
            Value::Ok,
            Value::int(-7),
            Value::Bool(true),
            Value::pair(Value::int(1), Value::Ok),
            Value::List(vec![Value::int(1), Value::Bool(false), Value::Unit]),
        ];
        for v in vals {
            let j: JsonValue = (&v).into();
            let back: Value = (&j).into();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn custom_ops_survive() {
        let h = History::from_events(vec![
            Event::Inv {
                tx: TxId(1),
                obj: ObjId::new("widget"),
                op: op_from_str("frobnicate"),
                args: vec![Value::int(3)],
            },
            Event::Ret {
                tx: TxId(1),
                obj: ObjId::new("widget"),
                op: op_from_str("frobnicate"),
                val: Value::Bool(true),
            },
        ]);
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn empty_history_roundtrips() {
        let h = History::new();
        assert_eq!(from_json(&to_json(&h)).unwrap().events(), h.events());
    }

    #[test]
    fn args_field_is_optional() {
        let s = r#"{"version":1,"events":[
            {"kind":"inv","tx":1,"obj":"x","op":"read"},
            {"kind":"ret","tx":1,"obj":"x","op":"read","val":{"int":0}}
        ]}"#;
        let h = from_json(s).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let h = History::from_events(vec![Event::Inv {
            tx: TxId(1),
            obj: ObjId::new("a\"b\\c\nd"),
            op: op_from_str("read"),
            args: vec![],
        }]);
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // An ASCII-escaping writer (e.g. Python's json.dumps) encodes 😀 as
        // a surrogate pair; interchange requires accepting it.
        let s = r#"{"version":1,"events":[
            {"kind":"inv","tx":1,"obj":"😀","op":"read"}
        ]}"#;
        let h = from_json(s).unwrap();
        match &h.events()[0] {
            Event::Inv { obj, .. } => assert_eq!(obj.name(), "😀"),
            other => panic!("unexpected event {other:?}"),
        }
        // Astral-plane characters emitted raw by to_json round-trip too.
        let back = from_json(&to_json(&h)).unwrap();
        assert_eq!(back.events(), h.events());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ud83d","op":"read"}]}"#,
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ude00","op":"read"}]}"#,
            r#"{"version":1,"events":[{"kind":"inv","tx":1,"obj":"\ud83dx","op":"read"}]}"#,
        ] {
            let e = from_json(bad).unwrap_err();
            assert!(e.message.contains("surrogate"), "{e}");
        }
    }

    #[test]
    fn schema_errors_carry_the_event_line() {
        // The typo'd event sits on line 4 of the pretty document.
        let s =
            "{\n  \"version\": 1,\n  \"events\": [\n    {\"kind\": \"comit\", \"tx\": 1}\n  ]\n}";
        let e = from_json(s).unwrap_err();
        assert!(e.message.contains("unknown event kind `comit`"), "{e}");
        assert_eq!(e.line, 4, "{e}");
    }

    #[test]
    fn public_doc_api_roundtrips_events_and_framing() {
        // The surface tm-serve builds its wire frames on: parse a document,
        // pull an embedded event out by key, convert it to a model event,
        // and render frames compactly.
        let doc =
            Json::parse(r#"{"frame":"feed","session":"s1","event":{"kind":"commit","tx":3}}"#)
                .unwrap();
        assert_eq!(doc.get("frame"), Some(&Json::Str("feed".into())));
        let event = event_from_doc(doc.get("event").unwrap()).unwrap();
        assert_eq!(event, Event::Commit(TxId(3)));
        let back = event_to_doc(&event);
        assert_eq!(back.to_compact_string(), r#"{"kind":"commit","tx":3}"#);
        assert_eq!(back.line(), 0, "serializer-built nodes carry no line");
        // Schema errors out of an embedded event still carry its line.
        let bad = Json::parse("{\n \"event\": {\"kind\": \"zap\"}\n}").unwrap();
        let err = event_from_doc(bad.get("event").unwrap()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn fractions_and_exponents_parse_as_floats() {
        let doc = Json::parse(r#"{"a": -1.5, "b": 2e3, "c": 8.00, "d": 42, "e": 1E-2}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Float(-1.5)));
        assert_eq!(doc.get("b"), Some(&Json::Float(2000.0)));
        assert_eq!(doc.get("c"), Some(&Json::Float(8.0)));
        assert_eq!(doc.get("d"), Some(&Json::Int(42)));
        assert_eq!(doc.get("e"), Some(&Json::Float(0.01)));
        assert_eq!(
            doc.to_compact_string(),
            r#"{"a":-1.5,"b":2000.0,"c":8.0,"d":42,"e":0.01}"#
        );
        for bad in ["1.", "1e", "-", "1e+", "1e999"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
        // No trace field takes a float.
        assert!(from_json(r#"{"version":1.0,"events":[]}"#).is_err());
    }

    #[test]
    fn schema_violations_are_rejected() {
        for bad in [
            r#"{"version":1,"events":[{"kind":"zap","tx":1}]}"#,
            r#"{"version":1,"events":[{"kind":"commit"}]}"#,
            r#"{"version":1}"#,
            r#"{"events":[]}"#,
            r#"[1,2,3]"#,
            r#"{"version":1,"events":[{"kind":"ret","tx":1,"obj":"x","op":"read","val":{"nope":1}}]}"#,
        ] {
            assert!(from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
