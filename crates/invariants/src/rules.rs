//! The Speedlight invariant rules.
//!
//! Each rule is a token-stream check over one [`SourceFile`]. Rules are
//! deliberately lexical: they run on every `cargo test` with zero extra
//! dependencies, and the codebase's idioms are uniform enough that token
//! shapes identify the constructs precisely. Escape hatches handle the
//! rare justified exception (see [`crate::source`]).

use crate::lexer::{Spanned, Tok};
use crate::source::SourceFile;
use crate::Diagnostic;

/// Crates whose simulation results must be bit-for-bit reproducible under
/// a fixed seed. The conformance oracle and SeedEcho replay silently stop
/// meaning anything if any of these pick up wall-clock time, ambient
/// randomness, or hash-iteration order.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "netsim",
    "fabric",
    "core",
    "conformance",
    "loadbalance",
    "workloads",
    "obs",
    "wire",
    "timesync",
];

/// The crate holding the threaded runtime (the one place where wall-clock
/// time and atomics are legitimate, and where the concurrency rules bite).
pub const THREADED_CRATE: &str = "emulation";

/// The only crates allowed to create threads or probe core counts:
/// `parfan` (the deterministic fan-out runner every parallel call site
/// must route through) and the threaded emulation runtime.
pub const THREADING_CRATES: &[&str] = &["parfan", THREADED_CRATE];

/// A lint rule: a name (used in `allow(...)` directives) plus a checker.
pub trait Rule {
    /// Rule name as referenced by escape hatches.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` style output and docs.
    fn description(&self) -> &'static str;
    /// Append diagnostics for `file` (allows are applied by the engine).
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// All rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(WallClock),
        Box::new(HashCollection),
        Box::new(Threading),
        Box::new(RelaxedOrdering),
        Box::new(MatchLockSend),
        Box::new(BareIdCast),
        Box::new(WildcardPacketMatch),
        Box::new(RawPrint),
        Box::new(SimTimeRawArith),
    ]
}

/// The interprocedural rules (call-graph passes in [`crate::taint`]),
/// listed here so docs and `--list`-style output cover the whole rule
/// set from one place.
pub fn interprocedural_rules() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "taint-wall-clock",
            "no wall-clock read reachable from snapshot capture, dispatch, tracing, or digests",
        ),
        (
            "taint-hash-collection",
            "no hash-iteration-order dependence reachable from a deterministic sink",
        ),
        (
            "taint-env-read",
            "no env read reachable from a deterministic sink outside the sanctioned config points",
        ),
        (
            "taint-thread-id",
            "no thread-identity read reachable from a deterministic sink",
        ),
        (
            "taint-fixed-seed-rng",
            "no RNG roots outside the seeded fork/fork_idx discipline reachable from a sink",
        ),
        (
            "panic-path",
            "no unwrap/expect/indexing reachable from event dispatch",
        ),
        (
            "lock-order",
            "no pair of emulation locks acquired in both orders (ABBA deadlock shape)",
        ),
    ]
}

fn is_det_crate(name: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&name)
}

fn ident(t: &Spanned) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Spanned, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// Does `toks[i..]` start with `first :: second`?
fn path_pair(toks: &[Spanned], i: usize, first: &str, second: &str) -> bool {
    i + 3 < toks.len()
        && ident(&toks[i]) == Some(first)
        && is_punct(&toks[i + 1], ':')
        && is_punct(&toks[i + 2], ':')
        && ident(&toks[i + 3]) == Some(second)
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

/// Determinism: no wall-clock time, ambient randomness, or sleeping in the
/// deterministic crates. Simulated time comes from `netsim::time`; all
/// randomness flows from the seeded `netsim::rng`.
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }
    fn description(&self) -> &'static str {
        "deterministic crates must not read wall-clock time, ambient RNGs, or sleep"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !is_det_crate(&file.crate_name) {
            return;
        }
        let toks = &file.scan.tokens;
        for i in 0..toks.len() {
            let bad = if path_pair(toks, i, "Instant", "now")
                || path_pair(toks, i, "WallInstant", "now")
                || path_pair(toks, i, "SystemTime", "now")
            {
                Some("wall-clock read; use the simulated `netsim::time` clock")
            } else if path_pair(toks, i, "thread", "sleep") {
                Some("sleeping in a deterministic crate; advance simulated time instead")
            } else if ident(&toks[i]) == Some("thread_rng") {
                Some("ambient RNG; thread a seeded `netsim::rng` generator through instead")
            } else {
                None
            };
            if let Some(why) = bad {
                out.push(Diagnostic::new(file, self.name(), toks[i].line, why));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: hash-collection
// ---------------------------------------------------------------------------

/// Determinism: no `HashMap`/`HashSet` in the deterministic crates at all.
/// Their iteration order is randomized per process, so any iteration —
/// including `retain`, `drain`, `Debug` printing, or aggregation — can
/// leak ordering into results. `BTreeMap`/`BTreeSet` have the same API
/// shape and deterministic order.
pub struct HashCollection;

impl Rule for HashCollection {
    fn name(&self) -> &'static str {
        "hash-collection"
    }
    fn description(&self) -> &'static str {
        "deterministic crates must use BTreeMap/BTreeSet, not HashMap/HashSet"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !is_det_crate(&file.crate_name) {
            return;
        }
        for t in &file.scan.tokens {
            if let Some(name @ ("HashMap" | "HashSet")) = ident(t) {
                out.push(Diagnostic::new(
                    file,
                    self.name(),
                    t.line,
                    &format!("{name} iteration order is nondeterministic; use BTree{} or sort before iterating", &name[4..]),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: threading
// ---------------------------------------------------------------------------

/// Concurrency discipline: thread creation and core-count probes are
/// confined to `parfan` (the deterministic fan-out runner) and the
/// threaded `emulation` runtime. An ad-hoc `thread::spawn` anywhere else
/// either breaks determinism outright or bypasses parfan's discipline —
/// input-ordered results, labeled panic propagation, and the
/// `with_jobs` scope would no longer govern it.
pub struct Threading;

impl Rule for Threading {
    fn name(&self) -> &'static str {
        "threading"
    }
    fn description(&self) -> &'static str {
        "thread creation and parallelism probes are confined to parfan and emulation"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if THREADING_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let toks = &file.scan.tokens;
        // Aliased imports are this rule's historical blind spot:
        // `use std::thread as t; t::spawn(..)` used to sail through. Bind
        // every name a `use std::thread...` declaration introduces first.
        let (module_aliases, fn_aliases) = thread_aliases(toks);
        for i in 0..toks.len() {
            let module_hit = module_aliases.iter().any(|m| {
                path_pair(toks, i, m, "spawn")
                    || path_pair(toks, i, m, "scope")
                    || path_pair(toks, i, m, "Builder")
            });
            // A directly-imported `spawn`/`scope` (possibly renamed) called
            // bare: `sp(..)`. `Builder` surfaces as `Alias::new(..)`.
            let fn_hit = ident(&toks[i]).is_some_and(|n| fn_aliases.iter().any(|a| a == n))
                && toks
                    .get(i + 1)
                    .is_some_and(|n| is_punct(n, '(') || is_punct(n, ':'));
            let bad = if module_hit || fn_hit {
                Some(
                    "thread creation outside parfan/emulation; route parallel work through `parfan::map` so ordering, panic labeling, and `with_jobs` scopes still apply",
                )
            } else if ident(&toks[i]) == Some("available_parallelism") {
                Some(
                    "core-count probe outside parfan; use `parfan::resolved_jobs()` so a `with_jobs` scope is honored",
                )
            } else {
                None
            };
            if let Some(why) = bad {
                out.push(Diagnostic::new(file, self.name(), toks[i].line, why));
            }
        }
    }
}

/// Names bound from `std::thread` by `use` declarations in this file:
/// (module aliases for `std::thread` itself — always including the plain
/// `thread` — and local names bound to `spawn`/`scope`/`Builder`).
fn thread_aliases(toks: &[Spanned]) -> (Vec<String>, Vec<String>) {
    let mut modules = vec!["thread".to_string()];
    let mut fns = Vec::new();
    const CREATORS: &[&str] = &["spawn", "scope", "Builder"];
    let mut i = 0;
    while i < toks.len() {
        if ident(&toks[i]) != Some("use") || !path_pair(toks, i + 1, "std", "thread") {
            i += 1;
            continue;
        }
        // Consume the declaration up to `;`, interpreting the tail after
        // `std::thread`.
        let at = |k: usize| toks.get(k).and_then(ident);
        let bind = |name: &str, alias: &str, fns: &mut Vec<String>| {
            if CREATORS.contains(&name) {
                fns.push(alias.to_string());
            }
        };
        let j = i + 5; // token after `thread`
        if at(j) == Some("as") {
            if let Some(alias) = at(j + 1) {
                modules.push(alias.to_string());
            }
        } else if toks.get(j).is_some_and(|t| is_punct(t, ':')) {
            // Either one item (`spawn` / `spawn as sp`) or a `{...}` group.
            let j = j + 2; // past `::`
            if toks.get(j).is_some_and(|t| is_punct(t, '{')) {
                let mut k = j + 1;
                while k < toks.len() && !is_punct(&toks[k], '}') {
                    if let Some(name) = at(k) {
                        if name == "as" {
                            k += 1;
                            continue;
                        }
                        if at(k + 1) == Some("as") {
                            if let Some(alias) = at(k + 2) {
                                bind(name, alias, &mut fns);
                            }
                            k += 3;
                            continue;
                        }
                        bind(name, name, &mut fns);
                    }
                    k += 1;
                }
            } else if let Some(name) = at(j) {
                if at(j + 1) == Some("as") {
                    if let Some(alias) = at(j + 2) {
                        bind(name, alias, &mut fns);
                    }
                } else {
                    bind(name, name, &mut fns);
                }
            }
        }
        while i < toks.len() && !is_punct(&toks[i], ';') {
            i += 1;
        }
    }
    (modules, fns)
}

// ---------------------------------------------------------------------------
// Rule: relaxed-ordering
// ---------------------------------------------------------------------------

/// Concurrency: no `Ordering::Relaxed` in the threaded emulation crate.
/// Snapshot-ID and epoch registers are read across threads by the
/// control-plane poll path; `Relaxed` on any of them lets a stale ID
/// satisfy the §6 completion check. A pure statistic may keep `Relaxed`
/// behind an explicit `allow` with its justification.
pub struct RelaxedOrdering;

impl Rule for RelaxedOrdering {
    fn name(&self) -> &'static str {
        "relaxed-ordering"
    }
    fn description(&self) -> &'static str {
        "emulation atomics must not use Ordering::Relaxed (snapshot/epoch visibility)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.crate_name != THREADED_CRATE {
            return;
        }
        let toks = &file.scan.tokens;
        for i in 0..toks.len() {
            if path_pair(toks, i, "Ordering", "Relaxed") {
                out.push(Diagnostic::new(
                    file,
                    self.name(),
                    toks[i].line,
                    "Relaxed gives no visibility guarantee for cross-thread snapshot state; use Acquire/Release (or allow with a reason for pure statistics)",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: match-lock-send
// ---------------------------------------------------------------------------

/// Concurrency: a message-handler `match` arm that acquires a lock and
/// sends on a channel in the same arm is the classic emulation deadlock
/// shape — the receiver may be blocked on the same lock, and a bounded
/// channel send then blocks forever while the lock is held.
pub struct MatchLockSend;

impl Rule for MatchLockSend {
    fn name(&self) -> &'static str {
        "match-lock-send"
    }
    fn description(&self) -> &'static str {
        "emulation match arms must not both acquire a lock and send on a channel"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.crate_name != THREADED_CRATE {
            return;
        }
        let toks = &file.scan.tokens;
        for body in match_bodies(toks) {
            for arm in split_arms(&toks[body.clone()]) {
                let lock_at = find_method_call(arm, &["lock", "try_lock"]);
                let send_at = find_method_call(arm, &["send", "try_send", "send_timeout"]);
                if let (Some(lock_line), Some(_)) = (lock_at, send_at) {
                    out.push(Diagnostic::new(
                        file,
                        self.name(),
                        lock_line,
                        "match arm acquires a lock and sends on a channel; release the lock before sending (deadlock shape)",
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: bare-id-cast
// ---------------------------------------------------------------------------

/// Wire hygiene: snapshot/channel identifiers must not be narrowed with a
/// bare `as` cast outside `core::id` — that is exactly how a wrapped ID
/// silently loses its modulus. `core::id` owns wrapping; everywhere else
/// use `WrappedId`, `u16::try_from`, or an explicitly saturating helper.
pub struct BareIdCast;

const ID_CAST_TARGETS: &[&str] = &["u8", "u16", "u32"];

fn line_mentions_id(line: &str) -> bool {
    // Identifier words of the line, so "inside"/"consider" never match "sid".
    let mut word = String::new();
    let mut words = Vec::new();
    for c in line.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else if !word.is_empty() {
            words.push(std::mem::take(&mut word));
        }
    }
    if !word.is_empty() {
        words.push(word);
    }
    words.iter().any(|w| {
        w == "sid"
            || w.ends_with("_sid")
            || w.starts_with("sid_")
            || w.contains("snapshot_id")
            || w.contains("channel_id")
            || w == "epoch"
            || w.ends_with("_epoch")
            || w.starts_with("epoch_")
    })
}

impl Rule for BareIdCast {
    fn name(&self) -> &'static str {
        "bare-id-cast"
    }
    fn description(&self) -> &'static str {
        "snapshot/channel IDs must not be truncated with bare `as` casts outside core::id"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        // core::id is the one sanctioned home of wrapping arithmetic.
        if file.path.ends_with("core/src/id.rs") {
            return;
        }
        let toks = &file.scan.tokens;
        for i in 0..toks.len().saturating_sub(1) {
            if ident(&toks[i]) == Some("as")
                && ident(&toks[i + 1]).is_some_and(|t| ID_CAST_TARGETS.contains(&t))
                && line_mentions_id(file.line_text(toks[i].line))
            {
                out.push(Diagnostic::new(
                    file,
                    self.name(),
                    toks[i].line,
                    &format!(
                        "bare `as {}` on a line handling snapshot/channel IDs can truncate silently; use WrappedId / try_from",
                        ident(&toks[i + 1]).unwrap_or("")
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: wildcard-packet-match
// ---------------------------------------------------------------------------

/// Wire hygiene: `match` on a wire packet-type enum must be exhaustive.
/// A `_` arm silently swallows the next packet type added to the wire
/// format instead of forcing every substrate to handle it.
pub struct WildcardPacketMatch;

impl Rule for WildcardPacketMatch {
    fn name(&self) -> &'static str {
        "wildcard-packet-match"
    }
    fn description(&self) -> &'static str {
        "matches on wire packet-type enums must be exhaustive (no `_` arm)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let toks = &file.scan.tokens;
        for i in 0..toks.len() {
            if ident(&toks[i]) != Some("match") {
                continue;
            }
            let Some((body_start, body_end)) = match_body_span(toks, i) else {
                continue;
            };
            // Scrutinee: does it mention the wire packet-type enum (or a
            // field of that type)?
            let scrutinee = &toks[i + 1..body_start];
            let on_packet_type = scrutinee
                .iter()
                .any(|t| matches!(ident(t), Some("PacketType" | "packet_type")));
            if !on_packet_type {
                continue;
            }
            // `_ =>` at arm depth (depth 1 inside the body).
            let body = &toks[body_start..body_end];
            let mut depth = 0i32;
            for (j, t) in body.iter().enumerate() {
                match t.tok {
                    Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    _ => {}
                }
                if depth == 1
                    && ident(t) == Some("_")
                    && j + 2 < body.len()
                    && is_punct(&body[j + 1], '=')
                    && is_punct(&body[j + 2], '>')
                {
                    out.push(Diagnostic::new(
                        file,
                        self.name(),
                        t.line,
                        "wildcard arm on a wire packet-type enum; list every variant so new packet types fail loudly",
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: raw-print
// ---------------------------------------------------------------------------

/// Observability: library crates must not write to stdout/stderr directly.
/// Raw prints bypass the obs subsystem — they are invisible to the trace
/// sinks, interleave nondeterministically under parfan, and pollute the
/// output of every consumer of the library. Emit an `obs::event!` (for
/// sim-domain facts) or route through `obs::sinks::stderr_line` (for
/// process-level diagnostics like seed echoes). Binaries (`src/bin/`,
/// `main.rs`), examples, and benches keep their prints: stdout *is* their
/// interface.
pub struct RawPrint;

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

fn raw_print_exempt(path: &std::path::Path) -> bool {
    // The obs stderr sink is the sanctioned funnel every library
    // diagnostic routes through; it must be allowed to actually print.
    if path.to_string_lossy().ends_with("obs/src/sinks.rs") {
        return true;
    }
    if path.file_name().is_some_and(|f| f == "main.rs") {
        return true;
    }
    path.components().any(|c| {
        let c = c.as_os_str();
        c == "bin" || c == "examples" || c == "benches"
    })
}

impl Rule for RawPrint {
    fn name(&self) -> &'static str {
        "raw-print"
    }
    fn description(&self) -> &'static str {
        "library crates must not print directly; emit obs events or use obs::sinks::stderr_line"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if raw_print_exempt(&file.path) {
            return;
        }
        let toks = &file.scan.tokens;
        for i in 0..toks.len().saturating_sub(1) {
            if let Some(name) = ident(&toks[i]).filter(|n| PRINT_MACROS.contains(n)) {
                if is_punct(&toks[i + 1], '!') {
                    out.push(Diagnostic::new(
                        file,
                        self.name(),
                        toks[i].line,
                        &format!(
                            "{name}! in a library crate bypasses the obs sinks; emit an obs event or use obs::sinks::stderr_line"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: sim-time-raw-arith
// ---------------------------------------------------------------------------

/// Determinism/overflow hygiene: the typed `netsim::time` operators panic
/// loudly on overflow and have `checked_*`/`saturating_*` escape valves.
/// Raw arithmetic on `.as_nanos()` values escapes all of that — a `+` on
/// bare u64 nanoseconds wraps silently in release builds, which is
/// exactly how a snapshot deadline lands 584 years in the past. Casting
/// the nanos *out* of the time domain first (`as i64` / `as f64`, for
/// offset or rate reporting) is fine and not flagged.
pub struct SimTimeRawArith;

impl Rule for SimTimeRawArith {
    fn name(&self) -> &'static str {
        "sim-time-raw-arith"
    }
    fn description(&self) -> &'static str {
        "no raw +/-/* on .as_nanos() values; use the typed netsim::time operators"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !is_det_crate(&file.crate_name) {
            return;
        }
        // The typed-operator home implements the arithmetic itself.
        if file.path.ends_with("netsim/src/time.rs") {
            return;
        }
        let toks = &file.scan.tokens;
        for i in 0..toks.len() {
            // Shape: `. as_nanos ( )` with `i` at the dot.
            if !(is_punct(&toks[i], '.')
                && toks.get(i + 1).and_then(ident) == Some("as_nanos")
                && toks.get(i + 2).is_some_and(|t| is_punct(t, '('))
                && toks.get(i + 3).is_some_and(|t| is_punct(t, ')')))
            {
                continue;
            }
            // A cast right after takes the value out of the ns domain
            // (signed offset math, float rates): not raw time arithmetic.
            if toks.get(i + 4).and_then(ident) == Some("as") {
                continue;
            }
            // An explicitly checked/saturating/wrapping line is already
            // handling overflow on purpose.
            let line_text = file.line_text(toks[i].line);
            if ["checked_", "saturating_", "wrapping_"]
                .iter()
                .any(|p| line_text.contains(p))
            {
                continue;
            }
            let arith = |t: Option<&Spanned>| {
                t.is_some_and(|t| is_punct(t, '+') || is_punct(t, '*'))
                    || (t.is_some_and(|t| is_punct(t, '-'))
                        // `->` is a return-type arrow, not subtraction.
                        && !toks.get(i + 5).is_some_and(|n| is_punct(n, '>')))
            };
            // Right-hand operand follows: `x.as_nanos() + ...`.
            let mut flagged = arith(toks.get(i + 4));
            // Left-hand operand: `... + x.as_nanos()`. Walk the receiver
            // chain left, then look at the token before it.
            if !flagged {
                let mut m = i; // at the '.', receiver ident at m-1
                while m >= 3 && ident(&toks[m - 1]).is_some() && is_punct(&toks[m - 2], '.') {
                    m -= 2;
                }
                if m >= 2 && ident(&toks[m - 1]).is_some() {
                    let before = &toks[m - 2];
                    flagged =
                        is_punct(before, '+') || is_punct(before, '*') || is_punct(before, '-');
                }
            }
            if flagged {
                out.push(Diagnostic::new(
                    file,
                    self.name(),
                    toks[i].line,
                    "raw nanosecond arithmetic on simulated time; keep values typed and use the netsim::time operators (or checked_*/saturating_* variants)",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Token-shape helpers
// ---------------------------------------------------------------------------

/// Span (token indices) of a `match` body given the index of the `match`
/// keyword: the range inside the braces, including the delimiters.
fn match_body_span(toks: &[Spanned], match_idx: usize) -> Option<(usize, usize)> {
    // In scrutinee position a bare `{` opens the body (struct literals are
    // not legal there), so the first `{` at paren/bracket depth 0 is it.
    let mut depth = 0i32;
    let mut j = match_idx + 1;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => break,
            // A closure or block in the scrutinee still nests through
            // parens, so `{` at depth > 0 is fine to skip.
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let body_start = j;
    let mut brace = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('{') => brace += 1,
            Tok::Punct('}') => {
                brace -= 1;
                if brace == 0 {
                    return Some((body_start, j + 1));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// All `match` body spans in a token stream (as index ranges).
fn match_bodies(toks: &[Spanned]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident(&toks[i]) == Some("match") {
            if let Some((s, e)) = match_body_span(toks, i) {
                out.push(s..e);
            }
        }
    }
    out
}

/// Split a match body (tokens including outer braces) into arm token
/// slices. Arms are separated by `,` at depth 1 or by a `}` closing an
/// arm block back to depth 1.
fn split_arms(body: &[Spanned]) -> Vec<&[Spanned]> {
    let mut arms = Vec::new();
    let mut depth = 0i32;
    let mut start = 1usize; // skip the opening `{`
    for (j, t) in body.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                // `}` closing an arm's block (depth 2 -> 1) ends the arm —
                // unless it closed a struct *pattern*, in which case the
                // arm continues with `=>` or a `if` guard.
                let closes_pattern = matches!(
                    body.get(j + 1).map(|n| &n.tok),
                    Some(Tok::Punct('=')) | Some(Tok::Punct('|'))
                ) || matches!(
                    body.get(j + 1).and_then(|n| match &n.tok {
                        Tok::Ident(s) => Some(s.as_str()),
                        _ => None,
                    }),
                    Some("if")
                );
                if depth == 1 && t.tok == Tok::Punct('}') && j > start && !closes_pattern {
                    arms.push(&body[start..=j]);
                    start = j + 1;
                }
                // Final `}` of the body.
                if depth == 0 && j > start {
                    arms.push(&body[start..j]);
                    start = j + 1;
                }
            }
            Tok::Punct(',') if depth == 1 => {
                if j > start {
                    arms.push(&body[start..j]);
                }
                start = j + 1;
            }
            _ => {}
        }
    }
    arms.retain(|a| !a.is_empty());
    arms
}

/// First `.name(` method call in `toks` for any name in `names`; returns
/// its line.
fn find_method_call(toks: &[Spanned], names: &[&str]) -> Option<u32> {
    for i in 1..toks.len().saturating_sub(1) {
        if is_punct(&toks[i - 1], '.')
            && ident(&toks[i]).is_some_and(|n| names.contains(&n))
            && is_punct(&toks[i + 1], '(')
        {
            return Some(toks[i].line);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn arm_splitting_handles_blocks_and_exprs() {
        let src = r#"
            match msg {
                A => foo(),
                B { x } => { bar(x); baz() }
                C(y) => y.into(),
            }
        "#;
        let toks = scan(src).tokens;
        let bodies = match_bodies(&toks);
        assert_eq!(bodies.len(), 1);
        let arms = split_arms(&toks[bodies[0].clone()]);
        assert_eq!(arms.len(), 3, "{arms:?}");
    }

    #[test]
    fn method_call_detection_requires_receiver_dot() {
        let toks = scan("send(x); q.send(y);").tokens;
        let at = find_method_call(&toks, &["send"]).unwrap();
        assert_eq!(at, 1);
        let toks = scan("send(x);").tokens;
        assert_eq!(find_method_call(&toks, &["send"]), None);
    }

    #[test]
    fn id_marker_words_have_boundaries() {
        assert!(line_mentions_id("let x = hdr.snapshot_id as u16;"));
        assert!(line_mentions_id("out_sid as u16"));
        assert!(line_mentions_id("pkt_epoch as u32"));
        assert!(!line_mentions_id("consider the inside of residence"));
        assert!(!line_mentions_id("wave as u16"));
    }

    #[test]
    fn match_body_span_skips_scrutinee_parens() {
        let src = "match f(a, |x| { x }) { A => 1, B => 2 }";
        let toks = scan(src).tokens;
        let (s, e) = match_body_span(&toks, 0).unwrap();
        let arms = split_arms(&toks[s..e]);
        assert_eq!(arms.len(), 2);
    }
}
