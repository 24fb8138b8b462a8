//! The `invariants` CLI: run the workspace static analyzer.
//!
//! ```text
//! cargo run -p invariants --                        # human report
//! cargo run -p invariants -- --json                 # JSON to stdout
//! cargo run -p invariants -- --out report.json      # JSON to a file
//! ```
//!
//! Exit codes: 0 no findings, 1 any finding, 2 usage or I/O error. The
//! one exception to a finding is a reasoned
//! `// invariants: allow(<rule>) — <reason>` at the offending line.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: invariants [--json] [--out FILE] [--root DIR]\n\
         \n\
         --json            print the speedlight-invariants/v1 JSON report to stdout\n\
         --out FILE        also write the JSON report to FILE\n\
         --root DIR        workspace root (default: autodetected)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ()> {
    let mut args = Args {
        json: false,
        out: None,
        root: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or(())?)),
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or(())?)),
            _ => return Err(()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let root = args.root.clone().unwrap_or_else(invariants::workspace_root);
    let diags = invariants::lint_workspace(&root);

    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, invariants::report::render_json(&diags)) {
            eprintln!("invariants: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        print!("{}", invariants::report::render_json(&diags));
    } else {
        print!("{}", invariants::report::render_human(&diags));
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
