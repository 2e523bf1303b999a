//! A JSON object writer: enough to print result lines and span files.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One JSON object under construction; keys keep insertion order.
pub struct Object {
    out: String,
}

impl Object {
    pub fn new() -> Object {
        Object {
            out: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        push_string(&mut self.out, key);
        self.out.push(':');
    }

    pub fn string(mut self, key: &str, value: &str) -> Object {
        self.key(key);
        push_string(&mut self.out, value);
        self
    }

    /// A number with every digit `f64` needs to round-trip. JSON has no
    /// NaN or infinity, so those are written as `null` and fail any
    /// reader that expects a number.
    pub fn number(mut self, key: &str, value: f64) -> Object {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn integer(mut self, key: &str, value: u64) -> Object {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    pub fn boolean(mut self, key: &str, value: bool) -> Object {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// `value` is already JSON: a nested object or array.
    pub fn raw(mut self, key: &str, value: &str) -> Object {
        self.key(key);
        self.out.push_str(value);
        self
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// `items`, each already JSON, as an array.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_json;

    #[test]
    fn strings_are_escaped_and_parse_back() {
        let nasty = "quote\" back\\slash\nnew\ttab\u{1}ctl é";
        let text = Object::new().string(nasty, nasty).finish();
        assert!(text.contains("\\\"") && text.contains("\\\\") && text.contains("\\u0001"));
        let parsed = parse_json(&text).expect("own output parses");
        assert_eq!(parsed.get(nasty).and_then(|v| v.as_str()), Some(nasty));
    }

    #[test]
    fn numbers_keep_their_digits_and_nest() {
        let inner = Object::new().number("v", 0.1 + 0.2).finish();
        let text = Object::new()
            .integer("n", u64::MAX)
            .boolean("ok", true)
            .number("nan", f64::NAN)
            .raw("inner", &inner)
            .raw("list", &array(&[inner.clone(), inner.clone()]))
            .finish();
        let parsed = parse_json(&text).expect("own output parses");
        let v = parsed.get("inner").and_then(|i| i.get("v"));
        assert_eq!(v.and_then(|v| v.as_f64()), Some(0.1 + 0.2));
        assert_eq!(parsed.get("nan").and_then(|v| v.as_f64()), None);
        assert_eq!(
            parsed
                .get("list")
                .and_then(|l| l.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(Object::new().finish(), "{}");
    }
}
