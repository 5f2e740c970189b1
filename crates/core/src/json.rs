//! The one reader and string escape behind every `noc-eval/*/v1`
//! export and wire line (`sim-speed`, `metrics`, `analytic`,
//! `resilience`, `serve`).
//!
//! Emitters stay plain `format!` calls, so each schema's bytes are
//! spelled out next to its type; every string value they embed goes
//! through [`escape`]. Readers pull one field at a time out of a line
//! or a whole document with the `field_*` functions: the first
//! `"key":` wins, so an emitter must not repeat a key within one record,
//! and a document's header fields must precede its records. Because
//! string values are escaped, a quote inside one can never start a
//! false `"key":` match. Nothing here panics on malformed input; a
//! missing or unreadable field is `None`.

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters. [`field_str`] inverts it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Require the `"schema"` field of a line or document to be exactly
/// `tag`. A tag that appears anywhere else (say, inside an escaped
/// string value) does not count.
pub fn check_schema(text: &str, tag: &str) -> Result<(), String> {
    if field_str(text, "schema").as_deref() == Some(tag) {
        Ok(())
    } else {
        Err(format!("unrecognized schema (expected {tag})"))
    }
}

/// Position the cursor just past `"key":` (with optional spaces),
/// returning the value text that follows. Matches the *first*
/// occurrence, so emitters must not duplicate keys within a line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    for pat in [format!("\"{key}\": "), format!("\"{key}\":")] {
        if let Some(i) = line.find(&pat) {
            return Some(line[i + pat.len()..].trim_start());
        }
    }
    None
}

/// Extract a numeric field (integer, float, or exponent notation).
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    let rest = field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && !matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract an unsigned integer field at full 64-bit precision (an
/// `f64` round-trip would corrupt digests and seeds above 2^53).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a boolean field.
pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    let rest = field(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extract and unescape a string field. Handles the full JSON escape
/// set (`\" \\ \/ \n \r \t \b \f \uXXXX`); returns `None` on an
/// unterminated or malformed literal.
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = field(line, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Extract the bracketed element list of a JSON array field. Arrays in
/// these schemas hold only numbers or plain (escape-free) wire names, so
/// a comma split inside the brackets is exact.
fn field_array<'a>(line: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let rest = field(line, key)?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    Some(body.split(',').map(str::trim).collect())
}

/// Extract an array of numbers (`"loads": [0.05, 0.1]`).
pub fn field_f64_array(line: &str, key: &str) -> Option<Vec<f64>> {
    field_array(line, key)?.into_iter().map(|s| s.parse().ok()).collect()
}

/// Extract an array of quoted wire names (`"patterns": ["uniform"]`).
pub fn field_str_array(line: &str, key: &str) -> Option<Vec<String>> {
    field_array(line, key)?
        .into_iter()
        .map(|s| Some(s.strip_prefix('"')?.strip_suffix('"')?.to_string()))
        .collect()
}
