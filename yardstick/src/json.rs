//! One-line JSON reports and the metric-name grammar.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A flat JSON object built key by key.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        assert!(valid_name(k), "invalid report key `{k}`");
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{k}\": ");
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// A whole number.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    /// A string (quotes, backslashes and control characters escaped).
    pub fn text(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push('"');
        for c in v.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.body, "\\u{:04x}", c as u32);
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    /// Appends every field of `other`.
    pub fn merge(&mut self, other: &Obj) -> &mut Self {
        if !other.body.is_empty() {
            if !self.body.is_empty() {
                self.body.push_str(", ");
            }
            self.body.push_str(&other.body);
        }
        self
    }

    /// The rendered object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_dotted_layer_names() {
        for name in [
            "wall_s",
            "engine.sim.job_ms_p95",
            "sim.ns_per_cycle",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn grammar_rejects_bad_names() {
        let long = "a".repeat(65);
        for name in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "slash/y",
            "pct%",
            &long,
        ] {
            assert!(!valid_name(name), "{name:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn objects_render_as_json() {
        let mut o = Obj::default();
        o.num("a", 1.5).int("b", 7).text("c", "x\"y\n");
        o.num("d", f64::NAN);
        assert_eq!(
            o.render(),
            r#"{"a": 1.5, "b": 7, "c": "x\"y\u000a", "d": null}"#
        );
    }

    #[test]
    #[should_panic(expected = "invalid report key")]
    fn invalid_keys_are_refused() {
        Obj::default().int("bad key", 1);
    }
}
