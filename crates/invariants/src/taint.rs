//! Taint propagation over the call graph.
//!
//! Two regions are computed by forward reachability from fixed root
//! tables:
//!
//! * the **sink region** — everything reachable from snapshot capture,
//!   event dispatch, trace emission, or digest computation. A
//!   nondeterminism source (wall clock, hash iteration, env read,
//!   thread identity, unseeded RNG) anywhere in this region taints a
//!   deterministic sink, wherever the source physically lives.
//! * the **dispatch region** — everything reachable from the
//!   event-dispatch entry points. Panic sites (`unwrap`/`expect`/slice
//!   indexing) here are audited: a panic mid-dispatch tears down a
//!   simulation a total function would have carried through.
//!
//! Traversal is deterministic (roots and edges processed in sorted
//! order) and each finding carries the discovery chain for the
//! "how does the taint get there" explanation. A generic
//! `// invariants: allow(taint) — <reason>` on a call-site line cuts
//! the edge (mid-chain allow); a specific `allow(taint-wall-clock)`
//! etc. on the source line suppresses the source itself.

use crate::callgraph::{CallGraph, Edge};
use crate::items::SourceKind;
use crate::rules;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Entry points of the sink region: (crate, fn name).
pub const SINK_ROOTS: &[(&str, &str)] = &[
    ("conformance", "assert_conformant"),
    ("conformance", "fabric_digest"),
    ("conformance", "matrix_digest"),
    ("conformance", "run_matrix"),
    ("conformance", "run_scenario"),
    ("core", "begin_snapshot"),
    ("core", "begin_snapshot_traced"),
    ("fabric", "handle"),
    ("fabric", "route"),
    ("fabric", "run_until"),
    ("fabric", "start_tx"),
    ("fabric", "unit_process"),
    ("netsim", "run_until"),
    ("obs", "end"),
    ("obs", "to_jsonl"),
    ("parfan", "finish"),
    ("parfan", "fnv64"),
    ("parfan", "update"),
    ("parfan", "write_f64"),
    ("parfan", "write_u64"),
];

/// Entry points of the dispatch region (panic-path audit).
pub const DISPATCH_ROOTS: &[(&str, &str)] = &[
    ("core", "on_notification"),
    ("core", "on_notification_traced"),
    ("core", "on_packet"),
    ("core", "on_packet_traced"),
    ("fabric", "handle"),
    ("fabric", "run_until"),
    ("netsim", "run_until"),
];

/// Sanctioned configuration points: the only library functions allowed to
/// read the process environment. The one entry is a path (where
/// divergence artifacts go: a deployment setting); nothing that feeds a
/// run reads the environment at all.
pub const SANCTIONED_ENV_FNS: &[(&str, &str)] = &[("conformance", "artifact_dir")];

/// A reachability region with parent pointers for chain reconstruction.
pub struct Region {
    member: Vec<bool>,
    parent: Vec<Option<usize>>,
}

impl Region {
    /// Is node `i` in the region?
    pub fn contains(&self, i: usize) -> bool {
        self.member[i]
    }

    /// The discovery chain root → … → `i` (node indices). Empty if `i`
    /// is not in the region.
    pub fn chain(&self, i: usize) -> Vec<usize> {
        if !self.member[i] {
            return Vec::new();
        }
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Compute forward reachability from `roots` over the call graph.
///
/// Test functions are never entered (their panics and env reads don't
/// run inside production dispatch), and an edge whose call-site line
/// carries `allow(taint)` in the caller's file is cut — the reasoned
/// mid-chain escape hatch.
pub fn reach(graph: &CallGraph, files: &[SourceFile], roots: &[(&str, &str)]) -> Region {
    let n = graph.nodes.len();
    let mut member = vec![false; n];
    let mut parent = vec![None; n];
    // Roots in node order: deterministic BFS layering.
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &node.item;
        if f.is_test {
            continue;
        }
        if roots
            .iter()
            .any(|(c, name)| *c == f.crate_name && *name == f.name)
        {
            member[i] = true;
            queue.push(i);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        let file = &files[graph.nodes[cur].file_idx];
        for Edge { callee, line } in &graph.edges[cur] {
            if member[*callee] || graph.nodes[*callee].item.is_test {
                continue;
            }
            // Mid-chain escape hatch: a reasoned generic `allow(taint)` on
            // the call line stops propagation through this edge.
            if file.allowed("taint", *line) {
                continue;
            }
            member[*callee] = true;
            parent[*callee] = Some(cur);
            queue.push(*callee);
        }
    }
    Region { member, parent }
}

/// One interprocedural finding.
pub struct Finding {
    /// Node (function) the source lives in.
    pub node: usize,
    /// Source class.
    pub kind: SourceKind,
    /// 1-based line of the (first) source token.
    pub line: u32,
    /// Source token text (`Instant::now`, `unwrap`, ...).
    pub what: String,
    /// Number of occurrences folded into this finding (panic sites are
    /// grouped per function per shape).
    pub count: usize,
    /// Discovery chain root → … → node.
    pub chain: Vec<usize>,
}

/// Run the taint pass: nondeterminism sources against the sink region,
/// panic sites against the dispatch region.
pub fn findings(
    graph: &CallGraph,
    files: &[SourceFile],
    sink: &Region,
    dispatch: &Region,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &node.item;
        if f.is_test {
            continue;
        }
        let file = &files[node.file_idx];
        // Panic sites: group per shape so one audit entry covers a
        // function however many `expect`s it contains.
        if dispatch.contains(i) {
            let mut grouped: BTreeMap<&str, (u32, usize)> = BTreeMap::new();
            for hit in &f.sources {
                if hit.kind != SourceKind::Panic || file.allowed(SourceKind::Panic.rule(), hit.line)
                {
                    continue;
                }
                let e = grouped.entry(hit.what.as_str()).or_insert((hit.line, 0));
                e.0 = e.0.min(hit.line);
                e.1 += 1;
            }
            for (what, (line, count)) in grouped {
                out.push(Finding {
                    node: i,
                    kind: SourceKind::Panic,
                    line,
                    what: what.to_string(),
                    count,
                    chain: dispatch.chain(i),
                });
            }
        }
        if !sink.contains(i) {
            continue;
        }
        let lexical_det = rules::DETERMINISTIC_CRATES.contains(&f.crate_name.as_str());
        let sanctioned_env = SANCTIONED_ENV_FNS
            .iter()
            .any(|(c, name)| *c == f.crate_name && *name == f.name);
        for hit in &f.sources {
            match hit.kind {
                SourceKind::Panic => continue, // handled above
                // The per-file lexical rules already own these two classes
                // inside the deterministic crates; the taint pass reports
                // them only where the lexical pass cannot see (helpers in
                // crates outside the lexical list that dispatch reaches).
                SourceKind::WallClock | SourceKind::HashCollection if lexical_det => continue,
                SourceKind::EnvRead if sanctioned_env => continue,
                _ => {}
            }
            if file.allowed(hit.kind.rule(), hit.line) {
                continue;
            }
            out.push(Finding {
                node: i,
                kind: hit.kind,
                line: hit.line,
                what: hit.what.clone(),
                count: 1,
                chain: sink.chain(i),
            });
        }
    }
    out
}

/// Render a chain as the human explanation
/// `a::b → c::d ⟶ Instant::now`.
pub fn chain_labels(graph: &CallGraph, chain: &[usize]) -> Vec<String> {
    chain.iter().map(|&i| graph.nodes[i].item.label()).collect()
}

/// Lock-acquisition-order pass over the threaded crate: flag any pair of
/// lock receivers acquired in both orders anywhere in `emulation` (the
/// classic ABBA deadlock shape loom can only catch if the exact
/// interleaving is modeled).
pub fn lock_order(graph: &CallGraph, files: &[SourceFile]) -> Vec<Finding> {
    // (first, second) -> (node, line of the second acquisition)
    let mut pairs: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &node.item;
        if f.crate_name != rules::THREADED_CRATE || f.is_test {
            continue;
        }
        let mut held: Vec<(String, u32)> = Vec::new();
        for call in &f.calls {
            if let crate::items::CallTarget::Method { name, recv } = &call.target {
                if name == "lock" && !recv.is_empty() {
                    let key = recv.join(".");
                    for (prev, _) in &held {
                        if *prev != key {
                            pairs
                                .entry((prev.clone(), key.clone()))
                                .or_insert((i, call.line));
                        }
                    }
                    held.push((key, call.line));
                }
            }
        }
    }
    let mut out = Vec::new();
    for ((a, b), (node, line)) in &pairs {
        if a >= b {
            continue; // report each unordered pair once, from its sorted side
        }
        if let Some((other_node, other_line)) = pairs.get(&(b.clone(), a.clone())) {
            let file = &files[graph.nodes[*node].file_idx];
            if file.allowed("lock-order", *line) {
                continue;
            }
            let other = &graph.nodes[*other_node].item;
            out.push(Finding {
                node: *node,
                kind: SourceKind::Panic, // unused for lock-order rendering
                line: *line,
                what: format!(
                    "locks `{a}` and `{b}` are acquired in both orders (reverse order in {} at {}:{other_line})",
                    other.label(),
                    other.file
                ),
                count: 1,
                chain: Vec::new(),
            });
        }
    }
    out
}
