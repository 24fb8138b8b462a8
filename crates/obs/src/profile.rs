//! Deterministic profiling: per-domain sim-time accounting for the
//! sharded DES plus observer-pipeline stage series, exported as a
//! schema'd `speedlight-profile/v1` JSON artifact with an FNV digest.
//!
//! Everything here is integer sim-time arithmetic — the profile is part
//! of the byte-identical surface and must render the same bytes at any
//! shard count. The key to that is accounting **per
//! partition domain**, not per OS shard: a domain's event stream is the
//! sharded engine's invariant unit (DESIGN.md §15), while the packing of
//! domains onto shards is exactly what varies. Per-shard views are a
//! presentation-layer fold the bench binaries print for humans.
//!
//! **Stall definition.** The conservative window barrier opens each
//! window at the global minimum next-event time `T` with horizon
//! `H = T + lookahead`. A domain that exhausts its local work at
//! sim-time `t < H` conceptually idles for `H − t` of sim-time until the
//! barrier; a domain untouched by a window idles for the full window.
//! We fold that as
//!
//! ```text
//! stall(d) = active_stall(d) + (windows − touched_windows(d)) · lookahead
//! ```
//!
//! where `active_stall(d)` sums `H − last_event_time(d)` over windows in
//! which `d` executed at least one event. Every counted window processes
//! at least one event somewhere, and the window sequence is a function of
//! the merged event timeline alone, so the totals are shard-invariant.

use crate::json;

/// Schema tag written into every profile export.
pub const PROFILE_SCHEMA: &str = "speedlight-profile/v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over a byte slice. Inlined here because `obs` is
/// dependency-free by design; matches `parfan::digest` bit-for-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Sentinel in `last_event`: domain untouched in the current window.
const UNTOUCHED: u64 = u64::MAX;

/// Per-domain sim-time accounting for one engine replica. The sharded
/// fabric keeps one per shard and [`DomainProfiler::merge_from`]s them;
/// the serial engine keeps one and reconstructs the window sequence
/// itself via [`DomainProfiler::observe_windowed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainProfiler {
    lookahead_ns: u64,
    windows: u64,
    events: Vec<u64>,
    msgs_out: Vec<u64>,
    msgs_in: Vec<u64>,
    active_stall: Vec<u64>,
    touched_windows: Vec<u64>,
    /// Time of the domain's most recent event in the open window, or
    /// [`UNTOUCHED`].
    last_event: Vec<u64>,
    /// Scratch list of domains touched in the open window, so closing a
    /// window costs O(touched), not O(domains).
    touched: Vec<u32>,
    /// Serial-engine window reconstruction: is a window open, and where
    /// is its horizon. Unused by the sharded engine (the barrier tells it
    /// the horizons directly).
    win_open: bool,
    win_horizon: u64,
}

impl DomainProfiler {
    /// A profiler over `domains` partition domains with the engine's
    /// window lookahead.
    pub fn new(domains: usize, lookahead_ns: u64) -> DomainProfiler {
        DomainProfiler {
            lookahead_ns,
            windows: 0,
            events: vec![0; domains],
            msgs_out: vec![0; domains],
            msgs_in: vec![0; domains],
            active_stall: vec![0; domains],
            touched_windows: vec![0; domains],
            last_event: vec![UNTOUCHED; domains],
            touched: Vec::new(),
            win_open: false,
            win_horizon: 0,
        }
    }

    /// Record one executed event for `domain` at sim-time `t_ns`.
    /// Sharded path: the engine closes windows via
    /// [`DomainProfiler::window_close`].
    #[inline]
    pub fn observe(&mut self, domain: usize, t_ns: u64) {
        self.events[domain] += 1;
        if self.last_event[domain] == UNTOUCHED {
            self.touched.push(domain as u32);
        }
        self.last_event[domain] = t_ns;
    }

    /// Record one executed event for `domain` at `t_ns` on the **serial**
    /// engine, reconstructing the window sequence: a window opens at the
    /// first event time `T` with horizon `T + lookahead`, and the first
    /// event at or past the horizon closes it and opens the next. This
    /// reproduces the barrier engine's windows exactly, because a window
    /// holds precisely the chronological events in `[T, T + lookahead)`.
    #[inline]
    pub fn observe_windowed(&mut self, domain: usize, t_ns: u64) {
        if self.win_open && t_ns >= self.win_horizon {
            let horizon = self.win_horizon;
            self.window_close(horizon);
            self.win_open = false;
        }
        if !self.win_open {
            self.win_open = true;
            self.win_horizon = t_ns.saturating_add(self.lookahead_ns);
        }
        self.observe(domain, t_ns);
    }

    /// Record one cross-domain emission from `src` to `dst`.
    #[inline]
    pub fn msg(&mut self, src: usize, dst: usize) {
        self.msgs_out[src] += 1;
        self.msgs_in[dst] += 1;
    }

    /// Close the window whose horizon is `horizon_ns`: charge each
    /// touched domain its barrier gap and bump the window count. The
    /// sharded engine calls this on **every** shard at **every** window
    /// (event-less shards included), so every replica counts the same
    /// window total and the merge can insist on it.
    pub fn window_close(&mut self, horizon_ns: u64) {
        self.windows += 1;
        for &d in &self.touched {
            let d = d as usize;
            let last = self.last_event[d];
            self.active_stall[d] += horizon_ns.saturating_sub(last);
            self.touched_windows[d] += 1;
            self.last_event[d] = UNTOUCHED;
        }
        self.touched.clear();
    }

    /// Close any window left open by [`DomainProfiler::observe_windowed`]
    /// at its recorded horizon. The serial engine calls this at run
    /// boundaries, mirroring the barrier engine's deadline truncation.
    pub fn close_boundary(&mut self) {
        if self.win_open {
            let horizon = self.win_horizon;
            self.window_close(horizon);
            self.win_open = false;
        }
    }

    /// Fold another replica's accounting into this one. Windows are a
    /// global property — every replica must have counted the same number
    /// — so they are checked, not summed; all per-domain series sum.
    ///
    /// # Panics
    /// If the replicas disagree on domain count, lookahead, or windows.
    pub fn merge_from(&mut self, other: &DomainProfiler) {
        assert_eq!(
            self.events.len(),
            other.events.len(),
            "profiler merge: domain count mismatch"
        );
        assert_eq!(
            self.lookahead_ns, other.lookahead_ns,
            "profiler merge: lookahead mismatch"
        );
        assert_eq!(
            self.windows, other.windows,
            "profiler merge: window count mismatch (barrier desync?)"
        );
        for (a, b) in self.events.iter_mut().zip(&other.events) {
            *a += b;
        }
        for (a, b) in self.msgs_out.iter_mut().zip(&other.msgs_out) {
            *a += b;
        }
        for (a, b) in self.msgs_in.iter_mut().zip(&other.msgs_in) {
            *a += b;
        }
        for (a, b) in self.active_stall.iter_mut().zip(&other.active_stall) {
            *a += b;
        }
        for (a, b) in self.touched_windows.iter_mut().zip(&other.touched_windows) {
            *a += b;
        }
    }

    /// Number of partition domains tracked.
    pub fn domains(&self) -> usize {
        self.events.len()
    }

    /// Window lookahead in nanoseconds.
    pub fn lookahead_ns(&self) -> u64 {
        self.lookahead_ns
    }

    /// Closed windows so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Events executed by `domain`.
    pub fn events_of(&self, domain: usize) -> u64 {
        self.events[domain]
    }

    /// Cross-domain messages emitted by `domain`.
    pub fn msgs_out_of(&self, domain: usize) -> u64 {
        self.msgs_out[domain]
    }

    /// Cross-domain messages destined for `domain`.
    pub fn msgs_in_of(&self, domain: usize) -> u64 {
        self.msgs_in[domain]
    }

    /// Total barrier stall for `domain` in sim-nanoseconds (see the
    /// module docs for the definition).
    pub fn stall_ns_of(&self, domain: usize) -> u64 {
        let idle_windows = self.windows - self.touched_windows[domain];
        self.active_stall[domain] + idle_windows.saturating_mul(self.lookahead_ns)
    }
}

/// One domain's row in the rendered profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRow {
    /// Domain id (partition-table index).
    pub id: u32,
    /// Domain kind label: `device`, `host`, or `control`.
    pub kind: &'static str,
    /// Events executed.
    pub events: u64,
    /// Cross-domain messages emitted.
    pub msgs_out: u64,
    /// Cross-domain messages received.
    pub msgs_in: u64,
    /// Barrier stall, sim-nanoseconds.
    pub stall_ns: u64,
}

/// Observer-pipeline stage occupancy at one seal point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRow {
    /// Epoch sealed at this sample.
    pub epoch: u64,
    /// Peak collect-queue depth since the previous seal.
    pub collect: u64,
    /// Peak validated-queue depth since the previous seal.
    pub validated: u64,
    /// Peak ready-queue depth since the previous seal.
    pub ready: u64,
    /// Peak sealed-queue depth since the previous seal.
    pub sealed: u64,
    /// Peak pending-value count since the previous seal.
    pub pending_values: u64,
}

/// Observer-pipeline section of the profile (absent when the reference
/// observer is in use).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineSection {
    /// Reports offered to the pipeline.
    pub offered: u64,
    /// Reports rejected by collect-stage backpressure.
    pub backpressure_rejects: u64,
    /// Reports accepted into collect.
    pub accepted: u64,
    /// Whole-run peak collect depth.
    pub peak_collect: u64,
    /// Whole-run peak validated depth.
    pub peak_validated: u64,
    /// Whole-run peak ready depth.
    pub peak_ready: u64,
    /// Whole-run peak sealed depth.
    pub peak_sealed: u64,
    /// Whole-run peak pending-value count.
    pub peak_pending_values: u64,
    /// Per-seal interval peaks, in seal order.
    pub stages: Vec<StageRow>,
    /// Stage samples dropped after the series cap was hit.
    pub stages_dropped: u64,
}

/// A complete profile, ready to render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Window lookahead (0 when no DES accounting was active).
    pub lookahead_ns: u64,
    /// Window count.
    pub windows: u64,
    /// Per-domain rows, in domain-id order.
    pub domains: Vec<DomainRow>,
    /// Observer-pipeline section, when the staged pipeline ran.
    pub pipeline: Option<PipelineSection>,
}

impl Profile {
    /// Render the schema'd JSON artifact. The trailing `digest` field is
    /// FNV-1a 64 over every byte that precedes it, so two profiles agree
    /// iff their digests do.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": ");
        out.push_str(&json::quoted(PROFILE_SCHEMA));
        out.push_str(",\n  \"lookahead_ns\": ");
        out.push_str(&self.lookahead_ns.to_string());
        out.push_str(",\n  \"windows\": ");
        out.push_str(&self.windows.to_string());
        let events_total: u64 = self.domains.iter().map(|d| d.events).sum();
        let msgs_total: u64 = self.domains.iter().map(|d| d.msgs_out).sum();
        out.push_str(",\n  \"events_total\": ");
        out.push_str(&events_total.to_string());
        out.push_str(",\n  \"msgs_total\": ");
        out.push_str(&msgs_total.to_string());
        out.push_str(",\n  \"domains\": [");
        for (i, d) in self.domains.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"id\":{},\"kind\":\"{}\",\"events\":{},\"msgs_out\":{},\"msgs_in\":{},\"stall_ns\":{}}}",
                d.id, d.kind, d.events, d.msgs_out, d.msgs_in, d.stall_ns
            ));
        }
        if !self.domains.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        match &self.pipeline {
            None => out.push_str(",\n  \"pipeline\": null"),
            Some(p) => {
                out.push_str(",\n  \"pipeline\": {");
                out.push_str(&format!("\n    \"offered\": {}", p.offered));
                out.push_str(&format!(
                    ",\n    \"backpressure_rejects\": {}",
                    p.backpressure_rejects
                ));
                out.push_str(&format!(",\n    \"accepted\": {}", p.accepted));
                out.push_str(&format!(",\n    \"peak_collect\": {}", p.peak_collect));
                out.push_str(&format!(",\n    \"peak_validated\": {}", p.peak_validated));
                out.push_str(&format!(",\n    \"peak_ready\": {}", p.peak_ready));
                out.push_str(&format!(",\n    \"peak_sealed\": {}", p.peak_sealed));
                out.push_str(&format!(
                    ",\n    \"peak_pending_values\": {}",
                    p.peak_pending_values
                ));
                out.push_str(",\n    \"stages\": [");
                for (i, s) in p.stages.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&format!(
                        "      {{\"epoch\":{},\"collect\":{},\"validated\":{},\"ready\":{},\"sealed\":{},\"pending_values\":{}}}",
                        s.epoch, s.collect, s.validated, s.ready, s.sealed, s.pending_values
                    ));
                }
                if !p.stages.is_empty() {
                    out.push_str("\n    ");
                }
                out.push(']');
                out.push_str(&format!(
                    ",\n    \"stages_dropped\": {}\n  }}",
                    p.stages_dropped
                ));
            }
        }
        let digest = fnv64(out.as_bytes());
        out.push_str(&format!(",\n  \"digest\": \"{digest:016x}\"\n}}\n"));
        out
    }

    /// The digest this profile renders with (hex, 16 chars).
    pub fn digest_hex(&self) -> String {
        extract_digest(&self.to_json()).unwrap_or_default()
    }
}

/// Pull the `digest` field out of a rendered profile (for CI pinning and
/// cross-run agreement checks without re-parsing the whole artifact).
pub fn extract_digest(rendered: &str) -> Option<String> {
    let tail = rendered.rsplit("\"digest\": \"").next()?;
    let end = tail.find('"')?;
    let hex = &tail[..end];
    (hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())).then(|| hex.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn stall_counts_gap_to_horizon_for_touched_windows() {
        let mut p = DomainProfiler::new(2, 100);
        // Window [0, 100): domain 0 at t=10, domain 1 at t=90.
        p.observe(0, 10);
        p.observe(1, 90);
        p.window_close(100);
        assert_eq!(p.windows(), 1);
        assert_eq!(p.stall_ns_of(0), 90);
        assert_eq!(p.stall_ns_of(1), 10);
        // Window [200, 300): only domain 0, two events; last one counts.
        p.observe(0, 210);
        p.observe(0, 250);
        p.window_close(300);
        assert_eq!(p.events_of(0), 3);
        assert_eq!(p.stall_ns_of(0), 90 + 50);
        // Domain 1 idled through the whole second window: full lookahead.
        assert_eq!(p.stall_ns_of(1), 10 + 100);
    }

    #[test]
    fn windowed_observation_reconstructs_barrier_windows() {
        // Lookahead 100: events at 0, 50, 99 share a window; 100 opens the
        // next; 250 opens a third (horizon 200 closes at the 250 event).
        let mut serial = DomainProfiler::new(1, 100);
        for t in [0, 50, 99, 100, 250] {
            serial.observe_windowed(0, t);
        }
        serial.close_boundary();

        let mut barrier = DomainProfiler::new(1, 100);
        barrier.observe(0, 0);
        barrier.observe(0, 50);
        barrier.observe(0, 99);
        barrier.window_close(100);
        barrier.observe(0, 100);
        barrier.window_close(200);
        barrier.observe(0, 250);
        barrier.window_close(350);

        assert_eq!(serial.windows(), barrier.windows());
        assert_eq!(serial.events_of(0), barrier.events_of(0));
        assert_eq!(serial.stall_ns_of(0), barrier.stall_ns_of(0));
        assert_eq!(serial.windows(), 3);
        // Stalls: 100−99, 200−100, 350−250.
        assert_eq!(serial.stall_ns_of(0), 1 + 100 + 100);
    }

    #[test]
    fn close_boundary_is_idempotent_and_noop_when_no_window_open() {
        let mut p = DomainProfiler::new(1, 10);
        p.close_boundary();
        assert_eq!(p.windows(), 0);
        p.observe_windowed(0, 5);
        p.close_boundary();
        p.close_boundary();
        assert_eq!(p.windows(), 1);
        assert_eq!(p.stall_ns_of(0), 10);
    }

    #[test]
    fn merge_sums_domains_and_checks_windows() {
        let mut a = DomainProfiler::new(2, 100);
        a.observe(0, 10);
        a.msg(0, 1);
        a.window_close(100);
        let mut b = DomainProfiler::new(2, 100);
        b.observe(1, 20);
        b.window_close(100);
        a.merge_from(&b);
        assert_eq!(a.windows(), 1);
        assert_eq!(a.events_of(0), 1);
        assert_eq!(a.events_of(1), 1);
        assert_eq!(a.msgs_out_of(0), 1);
        assert_eq!(a.msgs_in_of(1), 1);
        assert_eq!(a.stall_ns_of(0), 90);
        assert_eq!(a.stall_ns_of(1), 80);
    }

    #[test]
    #[should_panic(expected = "window count mismatch")]
    fn merge_rejects_window_count_disagreement() {
        let mut a = DomainProfiler::new(1, 10);
        a.window_close(10);
        let b = DomainProfiler::new(1, 10);
        a.merge_from(&b);
    }

    fn sample_profile() -> Profile {
        Profile {
            lookahead_ns: 300,
            windows: 2,
            domains: vec![
                DomainRow {
                    id: 0,
                    kind: "device",
                    events: 5,
                    msgs_out: 2,
                    msgs_in: 1,
                    stall_ns: 40,
                },
                DomainRow {
                    id: 1,
                    kind: "control",
                    events: 3,
                    msgs_out: 1,
                    msgs_in: 2,
                    stall_ns: 550,
                },
            ],
            pipeline: Some(PipelineSection {
                offered: 10,
                accepted: 9,
                backpressure_rejects: 1,
                peak_collect: 4,
                stages: vec![StageRow {
                    epoch: 1,
                    collect: 4,
                    validated: 2,
                    ready: 1,
                    sealed: 1,
                    pending_values: 3,
                }],
                ..PipelineSection::default()
            }),
        }
    }

    #[test]
    fn profile_render_is_schema_tagged_and_digest_stable() {
        let p = sample_profile();
        let a = p.to_json();
        let b = p.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"speedlight-profile/v1\""));
        assert!(a.contains("\"events_total\": 8"));
        assert!(a.contains("\"msgs_total\": 3"));
        let digest = extract_digest(&a).expect("digest present");
        assert_eq!(digest.len(), 16);
        assert_eq!(p.digest_hex(), digest);
        // The digest covers everything before it.
        let body_end = a.rfind(",\n  \"digest\"").unwrap();
        assert_eq!(digest, format!("{:016x}", fnv64(&a.as_bytes()[..body_end])));
    }

    #[test]
    fn profile_digest_distinguishes_contents() {
        let base = sample_profile();
        let mut tweaked = base.clone();
        tweaked.domains[0].stall_ns += 1;
        assert_ne!(base.digest_hex(), tweaked.digest_hex());
    }

    #[test]
    fn profile_without_pipeline_renders_null_section() {
        let p = Profile {
            lookahead_ns: 0,
            windows: 0,
            domains: Vec::new(),
            pipeline: None,
        };
        let j = p.to_json();
        assert!(j.contains("\"pipeline\": null"));
        assert!(j.contains("\"domains\": []"));
        assert!(extract_digest(&j).is_some());
    }
}
