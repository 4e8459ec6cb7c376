//! Findings and the two output formats (human text, machine JSON).

use serde::{Serialize, Value};

/// One diagnostic. `line` is 1-based; 0 means "whole file" (used by
/// pin-coverage, which reasons about files rather than source lines).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub function: Option<String>,
    pub message: String,
}

impl Finding {
    pub fn new(
        rule: &str,
        file: &str,
        line: u32,
        function: Option<&str>,
        message: String,
    ) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            function: function.map(str::to_string),
            message,
        }
    }
}

/// Result of a whole-repo (or fixture) run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_checked: usize,
    /// Allowed ratcheted hits that matched the committed inventories
    /// (informational; they are the ratchets' blessed set).
    pub inventoried: usize,
    /// Size of the derived hot set (call-graph closure from the seeds).
    pub hot_functions: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `file:line: [rule] message (in fn)` — one finding per line, sorted.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut sorted = self.findings.clone();
        sorted.sort();
        for f in &sorted {
            let loc = if f.line == 0 {
                f.file.clone()
            } else {
                format!("{}:{}", f.file, f.line)
            };
            let in_fn = f
                .function
                .as_deref()
                .map(|name| format!(" (in fn {name})"))
                .unwrap_or_default();
            out.push_str(&format!("{loc}: [{}] {}{in_fn}\n", f.rule, f.message));
        }
        out.push_str(&format!(
            "simlint: {} finding(s) across {} file(s); {} hot fn(s); \
             {} inventoried ratcheted hit(s)\n",
            self.findings.len(),
            self.files_checked,
            self.hot_functions,
            self.inventoried,
        ));
        out
    }

    /// Stable JSON: `{"version":1,"findings":[…],"summary":{…}}`.
    pub fn to_json(&self) -> String {
        let mut sorted = self.findings.clone();
        sorted.sort();
        let findings = sorted
            .iter()
            .map(|f| {
                object(vec![
                    ("file", f.file.to_value()),
                    ("line", f.line.to_value()),
                    ("rule", f.rule.to_value()),
                    ("function", f.function.to_value()),
                    ("message", f.message.to_value()),
                ])
            })
            .collect();
        let doc = object(vec![
            ("version", 1u64.to_value()),
            ("findings", Value::Array(findings)),
            (
                "summary",
                object(vec![
                    ("total", self.findings.len().to_value()),
                    ("files_checked", self.files_checked.to_value()),
                    ("inventoried", self.inventoried.to_value()),
                    ("hot_functions", self.hot_functions.to_value()),
                    ("clean", self.is_clean().to_value()),
                ]),
            ),
        ]);
        to_pretty_json(&doc)
    }
}

/// A JSON object with its keys sorted, so reports and blessed files are
/// byte-stable whatever order the fields are listed in.
pub(crate) fn object(mut entries: Vec<(&str, Value)>) -> Value {
    entries.sort_by_key(|&(key, _)| key);
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `doc` with 2-space indentation and a trailing newline: the layout of
/// every file simlint writes.
pub(crate) fn to_pretty_json(doc: &Value) -> String {
    let mut out = String::new();
    serde::write_value(doc, Some(2), 0, &mut out);
    out.push('\n');
    out
}

/// Parses the findings array back out of a JSON report (the `--diff`
/// baseline path). Accepts exactly what [`Report::to_json`] writes.
pub fn parse_findings(text: &str) -> Result<Vec<Finding>, String> {
    let doc = serde::parse_value(text).map_err(|e| e.0)?;
    let arr = doc
        .get("findings")
        .and_then(Value::as_array)
        .ok_or("missing `findings` array")?;
    let mut out = Vec::new();
    for f in arr {
        let field = |k: &str| {
            f.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("finding missing `{k}`"))
        };
        out.push(Finding {
            file: field("file")?.to_string(),
            line: f
                .get("line")
                .and_then(Value::as_u64)
                .ok_or("finding missing `line`")? as u32,
            rule: field("rule")?.to_string(),
            function: f
                .get("function")
                .and_then(Value::as_str)
                .map(str::to_string),
            message: field("message")?.to_string(),
        });
    }
    Ok(out)
}

/// The multiset difference `current − baseline`, keyed on
/// `(rule, file, function, message)` — deliberately line-insensitive, so
/// unrelated edits that shift a pre-existing finding don't resurface it
/// on a PR diff.
pub fn new_findings(current: &[Finding], baseline: &[Finding]) -> Vec<Finding> {
    use std::collections::HashMap;
    let key = |f: &Finding| {
        (
            f.rule.clone(),
            f.file.clone(),
            f.function.clone(),
            f.message.clone(),
        )
    };
    let mut seen: HashMap<_, usize> = HashMap::new();
    for f in baseline {
        *seen.entry(key(f)).or_default() += 1;
    }
    let mut out = Vec::new();
    for f in current {
        match seen.get_mut(&key(f)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(f.clone()),
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_sort_their_keys_and_files_end_in_a_newline() {
        let inner = object(vec![("m", true.to_value()), ("b", Value::Null)]);
        let doc = object(vec![("z", 1u64.to_value()), ("a", inner)]);
        assert_eq!(
            to_pretty_json(&doc),
            "{\n  \"a\": {\n    \"b\": null,\n    \"m\": true\n  },\n  \"z\": 1\n}\n"
        );
    }
}
