//! A minimal JSON object writer: the benchmark has no serde, and every
//! record it emits is a flat object of numbers, strings, booleans and
//! nested objects.

use std::fmt::Write as _;

/// Builds one JSON object, field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "{}:", quote(key));
    }

    /// A number. Non-finite values have no JSON spelling and are written
    /// as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(&quote(value));
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn obj(mut self, key: &str, value: Obj) -> Self {
        self.key(key);
        self.body.push_str(&value.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
