//! Speedlight's determinism & concurrency invariants as a workspace
//! static analyzer.
//!
//! The compiler cannot check the two properties this reproduction lives
//! or dies by:
//!
//! 1. **Determinism** — the DES substrates (`netsim`, `fabric`, `core`,
//!    `conformance`, `loadbalance`, `workloads`, `obs`, `wire`,
//!    `timesync`) must be bit-for-bit reproducible under a fixed seed,
//!    or the conformance oracle and SeedEcho replay silently stop
//!    meaning anything.
//! 2. **Race/deadlock freedom** — the threaded `emulation` runtime must
//!    keep its snapshot registers and notification queues safe, the
//!    property the paper's Tofino gets from hardware (§5).
//!
//! Three passes enforce this mechanically:
//!
//! * **lexical rules** ([`rules`]) — per-file token checks;
//! * **item extraction** ([`items`]) — a lightweight parser for
//!   `fn`/`impl`/`mod` boundaries, imports, calls, and source tokens;
//! * **interprocedural taint** ([`callgraph`], [`taint`]) — propagates
//!   nondeterminism from sources to the snapshot/dispatch/trace/digest
//!   sinks through the whole-workspace call graph, plus the panic-path
//!   and lock-order audits.
//!
//! Any finding fails: there is no accepted set to carry debt in. The one
//! exception is a reasoned `// invariants: allow(<rule>) — <reason>` at
//! the offending line, honored by every pass (see [`source`]) and itself
//! a finding when it lacks a reason or suppresses nothing. Run it as
//! `cargo run -p invariants --` (see [`report`] for output formats) or
//! via `cargo test -p invariants`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod taint;

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Crate the offending file belongs to (directory under `crates/`).
    pub crate_name: String,
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule name (what an `allow` directive would reference).
    pub rule: String,
    /// Enclosing function (`crate::Type::fn` label) for interprocedural
    /// findings; empty for file-level lexical findings.
    pub symbol: String,
    /// Human-readable explanation.
    pub message: String,
    /// Taint chain: call labels from the sink root to the offending
    /// function, ending with the source token itself. Empty for lexical
    /// findings.
    pub chain: Vec<String>,
}

impl Diagnostic {
    pub(crate) fn new(file: &SourceFile, rule: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic {
            crate_name: file.crate_name.clone(),
            path: file.path.clone(),
            line,
            rule: rule.to_string(),
            symbol: String::new(),
            message: message.to_string(),
            chain: Vec::new(),
        }
    }

    /// The `a → b ⟶ source` rendering of [`Diagnostic::chain`].
    pub fn chain_display(&self) -> String {
        match self.chain.split_last() {
            Some((source, calls)) if !calls.is_empty() => {
                format!("{} ⟶ {}", calls.join(" → "), source)
            }
            Some((source, _)) => source.clone(),
            None => String::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain_display())?;
        }
        Ok(())
    }
}

/// Lint a single source string as if it were a file of `crate_name`.
/// This is the entry point the negative-fixture self-tests use. The
/// interprocedural passes run too (over the one-file "workspace"), so
/// single-file taint fixtures work through the same path.
pub fn lint_source(path: &Path, crate_name: &str, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path.to_path_buf(), crate_name, src);
    analyze_files(&[file])
}

/// Run all three passes over a parsed set of files (the in-memory
/// workspace). This is the core of both [`lint_workspace`] and the
/// multi-file fixture tests.
pub fn analyze_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Pass: lexical rules, per file.
    for file in files {
        let mut raw = Vec::new();
        for rule in rules::all_rules() {
            rule.check(file, &mut raw);
        }
        out.extend(raw.into_iter().filter(|d| !file.allowed(&d.rule, d.line)));
    }

    // Passes: item extraction, call graph, taint.
    let items: Vec<items::FileItems> = files.iter().map(items::parse_items).collect();
    let graph = callgraph::build(&items);
    let sink = taint::reach(&graph, files, taint::SINK_ROOTS);
    let dispatch = taint::reach(&graph, files, taint::DISPATCH_ROOTS);
    for f in taint::findings(&graph, files, &sink, &dispatch) {
        let node = &graph.nodes[f.node];
        let file = &files[node.file_idx];
        let mut chain = taint::chain_labels(&graph, &f.chain);
        chain.push(f.what.clone());
        let message = if f.kind == items::SourceKind::Panic {
            format!(
                "`{}` ({} site{}) in `{}` is reachable from event dispatch; make the function total",
                f.what,
                f.count,
                if f.count == 1 { "" } else { "s" },
                node.item.name,
            )
        } else {
            format!(
                "`{}` in `{}` taints a deterministic sink ({} call hop{} from `{}`)",
                f.what,
                node.item.name,
                f.chain.len().saturating_sub(1),
                if f.chain.len() == 2 { "" } else { "s" },
                chain.first().map(String::as_str).unwrap_or(""),
            )
        };
        out.push(Diagnostic {
            crate_name: node.item.crate_name.clone(),
            path: file.path.clone(),
            line: f.line,
            rule: f.kind.rule().to_string(),
            symbol: node.item.label(),
            message,
            chain,
        });
    }
    for f in taint::lock_order(&graph, files) {
        let node = &graph.nodes[f.node];
        let file = &files[node.file_idx];
        out.push(Diagnostic {
            crate_name: node.item.crate_name.clone(),
            path: file.path.clone(),
            line: f.line,
            rule: "lock-order".to_string(),
            symbol: node.item.label(),
            message: f.what,
            chain: Vec::new(),
        });
    }

    // Pass: allow hygiene, after every rule has had the chance to mark
    // directives used.
    for file in files {
        for a in &file.allows {
            if !a.has_reason {
                out.push(Diagnostic::new(
                    file,
                    "allow-missing-reason",
                    a.line,
                    &format!(
                        "`invariants: allow({})` without a reason; append `— <why this exception is sound>`",
                        a.rule
                    ),
                ));
            }
            if !a.used.get() {
                out.push(Diagnostic::new(
                    file,
                    "unused-allow",
                    a.line,
                    &format!(
                        "`invariants: allow({})` suppresses nothing; remove the stale escape hatch",
                        a.rule
                    ),
                ));
            }
        }
    }

    sort_diagnostics(&mut out);
    out
}

/// The canonical ordering: (crate, file, line, rule) — the contract the
/// byte-equality test pins. Message breaks the rare tie.
pub fn sort_diagnostics(out: &mut [Diagnostic]) {
    out.sort_by(|a, b| {
        (&a.crate_name, &a.path, a.line, &a.rule, &a.message).cmp(&(
            &b.crate_name,
            &b.path,
            b.line,
            &b.rule,
            &b.message,
        ))
    });
}

/// Locate the workspace root from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/invariants lives two levels under the workspace root")
        .to_path_buf()
}

/// Analyze every workspace source file under `root`.
///
/// Scope: `crates/*/{src,tests,examples,benches}/**/*.rs` plus the
/// top-level `src/` and `tests/` of the `speedlight` facade crate.
/// `vendor/` is out of scope (offline API-compatible shims, not ours to
/// hold to simulation invariants), as are this crate's own negative
/// fixtures (they violate the rules on purpose).
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let files = workspace_files(root);
    analyze_files(&files)
}

/// Parse the workspace file set (see [`lint_workspace`] for scope).
pub fn workspace_files(root: &Path) -> Vec<SourceFile> {
    let crates_dir = root.join("crates");
    let mut crate_dirs = std::fs::read_dir(&crates_dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", crates_dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect::<Vec<_>>();
    crate_dirs.sort();
    // (crate dir name, roots to scan)
    let mut units: Vec<(String, Vec<PathBuf>)> = crate_dirs
        .into_iter()
        .map(|dir| {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let subs = ["src", "tests", "examples", "benches"]
                .iter()
                .map(|s| dir.join(s))
                .collect();
            (name, subs)
        })
        .collect();
    // The top-level facade crate.
    units.push((
        "speedlight".to_string(),
        vec![root.join("src"), root.join("tests"), root.join("examples")],
    ));

    let mut out = Vec::new();
    for (crate_name, dirs) in units {
        let mut files = Vec::new();
        for d in &dirs {
            collect_rs(d, &mut files);
        }
        // Negative fixtures violate the rules on purpose.
        files.retain(|p| !p.components().any(|c| c.as_os_str() == "fixtures"));
        for path in files {
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(SourceFile::parse(rel, &crate_name, &src));
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir` (sorted for stable output).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
