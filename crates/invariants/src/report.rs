//! Report rendering: human text and the `speedlight-invariants/v1`
//! machine-readable JSON.
//!
//! Both renderings are byte-deterministic for a given diagnostic list —
//! the analyzer has to obey the very contract it enforces — and the
//! diagnostic list itself is canonically ordered by
//! [`crate::sort_diagnostics`] ((crate, file, line, rule)).

use crate::Diagnostic;

/// Schema identifier embedded in the JSON report.
pub const SCHEMA: &str = "speedlight-invariants/v1";

/// Human-readable report: one block per finding (path:line, rule,
/// message, taint chain when present) plus a summary line.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    if diags.is_empty() {
        out.push_str("invariants: no findings\n");
    } else {
        let mut by_rule: Vec<(&str, usize)> = Vec::new();
        for d in diags {
            match by_rule.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((&d.rule, 1)),
            }
        }
        by_rule.sort();
        let summary: Vec<String> = by_rule.iter().map(|(r, n)| format!("{n} {r}")).collect();
        out.push_str(&format!(
            "invariants: {} finding{} ({})\n",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            summary.join(", ")
        ));
    }
    out
}

/// Escape a string for embedding in JSON output (without the quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// JSON report (schema `speedlight-invariants/v1`), stable bytes.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", esc(SCHEMA)));
    out.push_str(&format!("  \"total\": {},\n", diags.len()));
    out.push_str("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"rule\": \"{}\",\n", esc(&d.rule)));
        out.push_str(&format!("      \"crate\": \"{}\",\n", esc(&d.crate_name)));
        out.push_str(&format!(
            "      \"file\": \"{}\",\n",
            esc(&d.path.display().to_string())
        ));
        out.push_str(&format!("      \"line\": {},\n", d.line));
        out.push_str(&format!("      \"symbol\": \"{}\",\n", esc(&d.symbol)));
        out.push_str(&format!("      \"message\": \"{}\",\n", esc(&d.message)));
        out.push_str("      \"chain\": [");
        for (j, c) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", esc(c)));
        }
        out.push_str("]\n    }");
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic {
            crate_name: "parfan".to_string(),
            path: PathBuf::from("crates/parfan/src/lib.rs"),
            line: 42,
            rule: "taint-wall-clock".to_string(),
            symbol: "parfan::map_cfg".to_string(),
            message: "wall clock reaches a \"digest\"\tvia C:\\path".to_string(),
            chain: vec![
                "conformance::run_matrix".to_string(),
                "parfan::map_cfg".to_string(),
                "Instant::now".to_string(),
            ],
        }]
    }

    #[test]
    fn json_report_bytes_carry_every_field_and_the_chain() {
        let expected = r#"{
  "schema": "speedlight-invariants/v1",
  "total": 1,
  "findings": [
    {
      "rule": "taint-wall-clock",
      "crate": "parfan",
      "file": "crates/parfan/src/lib.rs",
      "line": 42,
      "symbol": "parfan::map_cfg",
      "message": "wall clock reaches a \"digest\"\tvia C:\\path",
      "chain": ["conformance::run_matrix", "parfan::map_cfg", "Instant::now"]
    }
  ]
}
"#;
        assert_eq!(render_json(&sample()), expected);
    }

    #[test]
    fn human_report_shows_chain_and_summary() {
        let text = render_human(&sample());
        assert!(text.contains("via conformance::run_matrix → parfan::map_cfg ⟶ Instant::now"));
        assert!(text.contains("invariants: 1 finding (1 taint-wall-clock)"));
        assert_eq!(render_human(&[]), "invariants: no findings\n");
    }

    #[test]
    fn empty_report_bytes_have_an_empty_findings_array() {
        let expected = "{\n  \"schema\": \"speedlight-invariants/v1\",\n  \"total\": 0,\n  \"findings\": []\n}\n";
        assert_eq!(render_json(&[]), expected);
    }
}
