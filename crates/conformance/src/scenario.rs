//! The scenario DSL.
//!
//! A [`Scenario`] pins down everything a conformance run depends on —
//! topology, workload, load balancer, snapshot variant and modulus,
//! snapshot schedule, fault schedule, and the master seed — and round-trips
//! through a compact `key=value;...` spec string. The spec string is the
//! replay handle: failure artifacts embed it, and
//! `SPEEDLIGHT_SCENARIO='<spec>' cargo test -p conformance --test scenarios
//! replay_from_env` re-executes exactly the failing run.
//!
//! The adversarial tier composes *fault schedules* on top of the healthy
//! base: repeatable `fault=` (device kill), `flap=` (link down/up),
//! `notif=` (notification-export drop/dup/reorder), `cpcrash=`
//! (control-plane crash + recovery), plus PTP degradation knobs
//! (`ptpdrift`/`ptpstep`/`ptpasym`) and a traffic multiplier (`load=`).
//! Every combination still round-trips, so any generated chaos scenario
//! replays from its spec string alone.

use std::fmt;

/// Which topology the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// The paper's testbed shape: 2 leaves × 2 spines, 3 hosts per leaf.
    LeafSpine,
    /// A line of `n` switches with a host at each end (the only shape the
    /// threaded emulation implements, so all three substrates can run it).
    Line(u16),
}

/// Which traffic drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Terasort-style shuffle (leaf-spine only).
    Hadoop,
    /// PageRank supersteps (leaf-spine only).
    GraphX,
    /// mc-crusher multi-get (leaf-spine only).
    Memcache,
    /// Constant-rate bidirectional traffic (line topologies).
    Cbr,
}

/// Load balancer selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lb {
    /// Per-flow ECMP.
    Ecmp,
    /// Flowlet switching (50 µs gap).
    Flowlet,
}

/// A mid-run device failure: `device` stops participating in the snapshot
/// protocol (it keeps forwarding) just before the `after_snapshots`-th
/// snapshot (0-based) is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The failing device.
    pub device: u16,
    /// Snapshots scheduled before the failure.
    pub after_snapshots: usize,
}

/// A mid-run link flap: the inter-switch link out of `device` port `port`
/// goes down at `at_ms` and comes back `down_ms` later. A long `down_ms`
/// spanning several snapshot intervals is a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// One endpoint of the link (the peer is implied by the topology).
    pub device: u16,
    /// The port on `device` whose link flaps.
    pub port: u16,
    /// Simulated time the link goes down, milliseconds.
    pub at_ms: u64,
    /// Outage duration, milliseconds.
    pub down_ms: u64,
}

/// How a notification-export fault mangles the data-plane → CPU stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifFaultKind {
    /// Silently drop the matching notifications.
    Drop,
    /// Deliver the matching notifications twice.
    Dup,
    /// Hold a matching notification and release it after the next
    /// notification from a *different* unit (cross-unit reorder; per-unit
    /// FIFO order is preserved, as PCIe DMA would).
    Reorder,
}

/// A notification-export fault on one device: every `every`-th exported
/// notification is dropped, duplicated, or reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifFault {
    /// The device whose export path is faulty.
    pub device: u16,
    /// What happens to the selected notifications.
    pub kind: NotifFaultKind,
    /// Select every `every`-th notification (≥ 2).
    pub every: u32,
}

/// A control-plane crash: at `at_ms` the device's CPU agent dies (losing
/// all queued notifications and its tracking state); `down_ms` later it
/// restarts and resynchronizes against the observer's newest epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpCrash {
    /// The device whose control plane crashes.
    pub device: u16,
    /// Simulated crash time, milliseconds.
    pub at_ms: u64,
    /// Downtime before the restart, milliseconds.
    pub down_ms: u64,
}

/// A one-off PTP offset step on one device (servo glitch / restarted
/// `phc2sys`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtpStep {
    /// The device whose clock steps.
    pub device: u16,
    /// Simulated time of the step, milliseconds.
    pub at_ms: u64,
    /// Step magnitude, signed microseconds.
    pub step_us: i64,
}

/// A fully specified conformance run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Topology.
    pub topo: Topo,
    /// Workload.
    pub workload: WorkloadKind,
    /// Load balancer.
    pub lb: Lb,
    /// Channel-state variant?
    pub channel_state: bool,
    /// Snapshot ID modulus (small values stress §5.2 wraparound).
    pub modulus: u16,
    /// Number of snapshots to schedule.
    pub snapshots: usize,
    /// Schedule interval, milliseconds (simulated time for the fabric,
    /// wall-clock for the emulation).
    pub interval_ms: u64,
    /// Mid-run device failures (snapshot agents die, forwarding survives).
    pub faults: Vec<FaultSpec>,
    /// Mid-run link flaps / partitions.
    pub flaps: Vec<LinkFlap>,
    /// Notification-export faults (drop / dup / reorder).
    pub notif_faults: Vec<NotifFault>,
    /// Control-plane crash-recovery events.
    pub cp_crashes: Vec<CpCrash>,
    /// PTP holdover drift magnitude, parts-per-billion (0 = healthy).
    pub ptp_drift_ppb: i64,
    /// Optional PTP offset step.
    pub ptp_step: Option<PtpStep>,
    /// PTP path asymmetry, signed microseconds (0 = symmetric).
    pub ptp_asym_us: i64,
    /// Traffic multiplier over the workload's paper-calibrated rate
    /// (1 = paper load; 100 = the hostile incast tier).
    pub load: u32,
    /// Also run the threaded emulation (line topologies only).
    pub emulate: bool,
    /// Master seed.
    pub seed: u64,
}

/// The switch-side peer `(device, port)` of an inter-switch link, or
/// `None` if `(device, port)` is host-facing or unwired.
///
/// Wiring mirrors the fabric's builders: a line connects switch `i` port 1
/// to switch `i+1` port 0; the leaf-spine testbed connects leaf `l ∈ {0,1}`
/// port `s ∈ {0,1}` to spine `2+s` port `l`.
pub fn switch_peer(topo: Topo, device: u16, port: u16) -> Option<(u16, u16)> {
    match topo {
        Topo::Line(n) => {
            if device >= n {
                return None;
            }
            match port {
                0 if device > 0 => Some((device - 1, 1)),
                1 if device + 1 < n => Some((device + 1, 0)),
                _ => None,
            }
        }
        Topo::LeafSpine => {
            if device < 2 && port < 2 {
                Some((2 + port, device))
            } else if (2..4).contains(&device) && port < 2 {
                Some((port, device - 2))
            } else {
                None
            }
        }
    }
}

impl Scenario {
    /// A small healthy default (line of 3, CBR, no channel state).
    pub fn base(seed: u64) -> Scenario {
        Scenario {
            topo: Topo::Line(3),
            workload: WorkloadKind::Cbr,
            lb: Lb::Ecmp,
            channel_state: false,
            modulus: 16,
            snapshots: 6,
            interval_ms: 5,
            faults: Vec::new(),
            flaps: Vec::new(),
            notif_faults: Vec::new(),
            cp_crashes: Vec::new(),
            ptp_drift_ppb: 0,
            ptp_step: None,
            ptp_asym_us: 0,
            load: 1,
            emulate: false,
            seed,
        }
    }

    /// Parse a `key=value;...` spec string (the format [`Self::spec`]
    /// produces). Unknown keys and malformed values are errors; the
    /// fault-schedule keys (`fault`, `flap`, `notif`, `cpcrash`) repeat.
    pub fn from_spec(spec: &str) -> Result<Scenario, String> {
        let mut sc = Scenario::base(0);
        for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed field {part:?} (expected key=value)"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "topo" => {
                    sc.topo = if value == "leafspine" {
                        Topo::LeafSpine
                    } else if let Some(n) = value.strip_prefix("line:") {
                        Topo::Line(n.parse().map_err(|_| format!("bad line length {n:?}"))?)
                    } else {
                        return Err(format!("unknown topo {value:?}"));
                    };
                }
                "wl" => {
                    sc.workload = match value {
                        "hadoop" => WorkloadKind::Hadoop,
                        "graphx" => WorkloadKind::GraphX,
                        "memcache" => WorkloadKind::Memcache,
                        "cbr" => WorkloadKind::Cbr,
                        other => return Err(format!("unknown workload {other:?}")),
                    };
                }
                "lb" => {
                    sc.lb = match value {
                        "ecmp" => Lb::Ecmp,
                        "flowlet" => Lb::Flowlet,
                        other => return Err(format!("unknown lb {other:?}")),
                    };
                }
                "cs" => sc.channel_state = parse_bool(key, value)?,
                "mod" => sc.modulus = parse_num(key, value)?,
                "snaps" => sc.snapshots = parse_num(key, value)?,
                "ival" => sc.interval_ms = parse_num(key, value)?,
                "fault" => {
                    let (dev, after) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad fault {value:?} (expected dev@k)"))?;
                    sc.faults.push(FaultSpec {
                        device: parse_num("fault device", dev)?,
                        after_snapshots: parse_num("fault snapshot", after)?,
                    });
                }
                "flap" => {
                    // dev:port@at+down
                    let (devport, timing) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad flap {value:?} (expected dev:port@at+down)"))?;
                    let (dev, port) = devport
                        .split_once(':')
                        .ok_or_else(|| format!("bad flap endpoint {devport:?}"))?;
                    let (at, down) = timing
                        .split_once('+')
                        .ok_or_else(|| format!("bad flap timing {timing:?}"))?;
                    sc.flaps.push(LinkFlap {
                        device: parse_num("flap device", dev)?,
                        port: parse_num("flap port", port)?,
                        at_ms: parse_num("flap time", at)?,
                        down_ms: parse_num("flap duration", down)?,
                    });
                }
                "notif" => {
                    // dev:kind:n
                    let mut it = value.splitn(3, ':');
                    let dev = it.next().unwrap_or_default();
                    let kind = it.next().ok_or_else(|| {
                        format!("bad notif {value:?} (expected dev:drop|dup|reorder:n)")
                    })?;
                    let every = it
                        .next()
                        .ok_or_else(|| format!("bad notif {value:?} (missing period)"))?;
                    sc.notif_faults.push(NotifFault {
                        device: parse_num("notif device", dev)?,
                        kind: match kind {
                            "drop" => NotifFaultKind::Drop,
                            "dup" => NotifFaultKind::Dup,
                            "reorder" => NotifFaultKind::Reorder,
                            other => return Err(format!("unknown notif kind {other:?}")),
                        },
                        every: parse_num("notif period", every)?,
                    });
                }
                "cpcrash" => {
                    // dev@at+down
                    let (dev, timing) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad cpcrash {value:?} (expected dev@at+down)"))?;
                    let (at, down) = timing
                        .split_once('+')
                        .ok_or_else(|| format!("bad cpcrash timing {timing:?}"))?;
                    sc.cp_crashes.push(CpCrash {
                        device: parse_num("cpcrash device", dev)?,
                        at_ms: parse_num("cpcrash time", at)?,
                        down_ms: parse_num("cpcrash downtime", down)?,
                    });
                }
                "ptpdrift" => sc.ptp_drift_ppb = parse_num(key, value)?,
                "ptpstep" => {
                    // dev@at:us (us signed)
                    let (dev, rest) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad ptpstep {value:?} (expected dev@at:us)"))?;
                    let (at, us) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("bad ptpstep timing {rest:?}"))?;
                    sc.ptp_step = Some(PtpStep {
                        device: parse_num("ptpstep device", dev)?,
                        at_ms: parse_num("ptpstep time", at)?,
                        step_us: parse_num("ptpstep magnitude", us)?,
                    });
                }
                "ptpasym" => sc.ptp_asym_us = parse_num(key, value)?,
                "load" => sc.load = parse_num(key, value)?,
                "emu" => sc.emulate = parse_bool(key, value)?,
                "seed" => {
                    sc.seed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad seed {value:?}"))?,
                        None => value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                    };
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        sc.validate()?;
        Ok(sc)
    }

    /// The canonical spec string ([`Self::from_spec`] round-trips it).
    pub fn spec(&self) -> String {
        let topo = match self.topo {
            Topo::LeafSpine => "leafspine".to_string(),
            Topo::Line(n) => format!("line:{n}"),
        };
        let wl = match self.workload {
            WorkloadKind::Hadoop => "hadoop",
            WorkloadKind::GraphX => "graphx",
            WorkloadKind::Memcache => "memcache",
            WorkloadKind::Cbr => "cbr",
        };
        let lb = match self.lb {
            Lb::Ecmp => "ecmp",
            Lb::Flowlet => "flowlet",
        };
        let mut spec = format!(
            "topo={topo};wl={wl};lb={lb};cs={};mod={};snaps={};ival={}",
            u8::from(self.channel_state),
            self.modulus,
            self.snapshots,
            self.interval_ms,
        );
        for f in &self.faults {
            spec.push_str(&format!(";fault={}@{}", f.device, f.after_snapshots));
        }
        for f in &self.flaps {
            spec.push_str(&format!(
                ";flap={}:{}@{}+{}",
                f.device, f.port, f.at_ms, f.down_ms
            ));
        }
        for f in &self.notif_faults {
            let kind = match f.kind {
                NotifFaultKind::Drop => "drop",
                NotifFaultKind::Dup => "dup",
                NotifFaultKind::Reorder => "reorder",
            };
            spec.push_str(&format!(";notif={}:{kind}:{}", f.device, f.every));
        }
        for f in &self.cp_crashes {
            spec.push_str(&format!(";cpcrash={}@{}+{}", f.device, f.at_ms, f.down_ms));
        }
        if self.ptp_drift_ppb != 0 {
            spec.push_str(&format!(";ptpdrift={}", self.ptp_drift_ppb));
        }
        if let Some(s) = self.ptp_step {
            spec.push_str(&format!(";ptpstep={}@{}:{}", s.device, s.at_ms, s.step_us));
        }
        if self.ptp_asym_us != 0 {
            spec.push_str(&format!(";ptpasym={}", self.ptp_asym_us));
        }
        if self.load != 1 {
            spec.push_str(&format!(";load={}", self.load));
        }
        if self.emulate {
            spec.push_str(";emu=1");
        }
        spec.push_str(&format!(";seed=0x{:x}", self.seed));
        spec
    }

    /// Number of switches in this scenario's topology.
    pub fn num_devices(&self) -> u16 {
        match self.topo {
            Topo::LeafSpine => 4,
            Topo::Line(n) => n,
        }
    }

    /// Structural sanity checks (workload/topology compatibility, fault
    /// targets in range, knob bounds, …).
    pub fn validate(&self) -> Result<(), String> {
        let line_only = matches!(self.workload, WorkloadKind::Cbr);
        match self.topo {
            Topo::LeafSpine if line_only => {
                return Err("cbr workload requires a line topology".into())
            }
            Topo::Line(_) if !line_only => {
                return Err("paper workloads require topo=leafspine".into())
            }
            Topo::Line(0) => return Err("line topology needs ≥ 1 switch".into()),
            _ => {}
        }
        if self.emulate && !matches!(self.topo, Topo::Line(_)) {
            return Err("emulation only implements line topologies".into());
        }
        if self.emulate && self.channel_state {
            // A channel-state emulation run gates completion on real-thread
            // traffic timing; conformance keeps the emulation arm on the
            // no-channel-state variant (the fabric covers both).
            return Err("emulation conformance runs are no-channel-state only".into());
        }
        if self.emulate && self.has_adversarial_faults() {
            // The threaded emulation implements device kills only; the
            // adversarial fault classes live in the DES fabric.
            return Err("emulation runs support only fault= (device kill) schedules".into());
        }
        let num_devices = self.num_devices();
        for f in &self.faults {
            if f.device >= num_devices {
                return Err(format!(
                    "fault device {} out of range (topology has {num_devices})",
                    f.device
                ));
            }
            if f.after_snapshots == 0 || f.after_snapshots >= self.snapshots {
                return Err("fault must strike strictly mid-run (0 < k < snaps)".into());
            }
        }
        for f in &self.flaps {
            if switch_peer(self.topo, f.device, f.port).is_none() {
                return Err(format!(
                    "flap {}:{} is not an inter-switch link",
                    f.device, f.port
                ));
            }
            if f.at_ms == 0 || f.down_ms == 0 {
                return Err("flap timing must be ≥ 1 ms".into());
            }
        }
        for f in &self.notif_faults {
            if f.device >= num_devices {
                return Err(format!(
                    "notif device {} out of range (topology has {num_devices})",
                    f.device
                ));
            }
            if f.every < 2 {
                return Err("notif period must be ≥ 2 (every=1 starves the CP)".into());
            }
        }
        for f in &self.cp_crashes {
            if f.device >= num_devices {
                return Err(format!(
                    "cpcrash device {} out of range (topology has {num_devices})",
                    f.device
                ));
            }
            if f.at_ms == 0 || f.down_ms == 0 {
                return Err("cpcrash timing must be ≥ 1 ms".into());
            }
            if usize::from(self.modulus) <= self.snapshots {
                // A recovering CP resynchronizes to the newest issued epoch;
                // with modulus ≤ snapshots a freshly zeroed reference could
                // mis-unwrap wrapped IDs it never observed advancing.
                return Err("cpcrash scenarios need mod > snaps".into());
            }
        }
        if !(0..=100_000).contains(&self.ptp_drift_ppb) {
            return Err("ptpdrift must be in 0..=100000 ppb".into());
        }
        if let Some(s) = self.ptp_step {
            if s.device >= num_devices {
                return Err(format!(
                    "ptpstep device {} out of range (topology has {num_devices})",
                    s.device
                ));
            }
            if s.at_ms == 0 {
                return Err("ptpstep time must be ≥ 1 ms".into());
            }
            if s.step_us == 0 || s.step_us.abs() > 2_000 {
                return Err("ptpstep magnitude must be non-zero and ≤ 2000 µs".into());
            }
        }
        if self.ptp_asym_us.abs() > 200 {
            return Err("ptpasym must be within ±200 µs".into());
        }
        if self.load == 0 || self.load > 100 {
            return Err("load must be in 1..=100".into());
        }
        if self.modulus < 2 {
            return Err("modulus must be ≥ 2".into());
        }
        if self.snapshots == 0 {
            return Err("need at least one snapshot".into());
        }
        Ok(())
    }

    /// True iff the scenario uses any fault class beyond device kills
    /// (which the emulation substrate cannot inject).
    pub fn has_adversarial_faults(&self) -> bool {
        !self.flaps.is_empty()
            || !self.notif_faults.is_empty()
            || !self.cp_crashes.is_empty()
            || self.has_ptp_degradation()
            || self.load > 1
    }

    /// True iff any PTP degradation knob is set.
    pub fn has_ptp_degradation(&self) -> bool {
        self.ptp_drift_ppb != 0 || self.ptp_step.is_some() || self.ptp_asym_us != 0
    }

    /// True iff some fault class can legitimately make the observer
    /// force-finalize a snapshot (kills, notification drops, CP crashes,
    /// and — in channel-state mode — link outages that stall channels).
    pub fn force_inducing(&self) -> bool {
        !self.faults.is_empty()
            || !self.cp_crashes.is_empty()
            || self
                .notif_faults
                .iter()
                .any(|f| f.kind == NotifFaultKind::Drop)
            || (self.channel_state && !self.flaps.is_empty())
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("bad {key} {other:?} (expected 0/1)")),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {key} {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let mut sc = Scenario::base(0xDEAD_BEEF);
        sc.topo = Topo::Line(4);
        sc.modulus = 8;
        sc.faults = vec![FaultSpec {
            device: 2,
            after_snapshots: 3,
        }];
        sc.emulate = true;
        let spec = sc.spec();
        assert_eq!(Scenario::from_spec(&spec).unwrap(), sc);
    }

    #[test]
    fn leaf_spine_spec_round_trips() {
        let sc = Scenario::from_spec(
            "topo=leafspine;wl=memcache;lb=flowlet;cs=1;mod=64;snaps=8;ival=3;seed=0x5eed",
        )
        .unwrap();
        assert_eq!(sc.topo, Topo::LeafSpine);
        assert_eq!(sc.workload, WorkloadKind::Memcache);
        assert_eq!(sc.lb, Lb::Flowlet);
        assert_eq!(sc.seed, 0x5eed);
        assert_eq!(Scenario::from_spec(&sc.spec()).unwrap(), sc);
    }

    #[test]
    fn adversarial_spec_round_trips() {
        let mut sc = Scenario::base(0xFEED);
        sc.topo = Topo::Line(4);
        sc.modulus = 32;
        sc.faults = vec![
            FaultSpec {
                device: 1,
                after_snapshots: 2,
            },
            FaultSpec {
                device: 3,
                after_snapshots: 2,
            },
        ];
        sc.flaps = vec![LinkFlap {
            device: 1,
            port: 1,
            at_ms: 12,
            down_ms: 6,
        }];
        sc.notif_faults = vec![NotifFault {
            device: 2,
            kind: NotifFaultKind::Reorder,
            every: 3,
        }];
        sc.cp_crashes = vec![CpCrash {
            device: 0,
            at_ms: 8,
            down_ms: 4,
        }];
        sc.ptp_drift_ppb = 50_000;
        sc.ptp_step = Some(PtpStep {
            device: 2,
            at_ms: 10,
            step_us: -250,
        });
        sc.ptp_asym_us = 40;
        sc.load = 10;
        let spec = sc.spec();
        assert_eq!(Scenario::from_spec(&spec).unwrap(), sc, "spec: {spec}");
    }

    #[test]
    fn switch_peer_matches_the_wiring() {
        // Line: interior links only.
        assert_eq!(switch_peer(Topo::Line(3), 0, 1), Some((1, 0)));
        assert_eq!(switch_peer(Topo::Line(3), 1, 0), Some((0, 1)));
        assert_eq!(switch_peer(Topo::Line(3), 0, 0), None); // host side
        assert_eq!(switch_peer(Topo::Line(3), 2, 1), None); // host side
                                                            // Leaf-spine: leaf l port s ↔ spine 2+s port l.
        assert_eq!(switch_peer(Topo::LeafSpine, 0, 1), Some((3, 0)));
        assert_eq!(switch_peer(Topo::LeafSpine, 3, 0), Some((0, 1)));
        assert_eq!(switch_peer(Topo::LeafSpine, 1, 0), Some((2, 1)));
        assert_eq!(switch_peer(Topo::LeafSpine, 0, 2), None); // host port
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        assert!(Scenario::from_spec("topo=leafspine;wl=cbr").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=hadoop").is_err());
        assert!(Scenario::from_spec("topo=leafspine;wl=hadoop;emu=1").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;emu=1;cs=1").is_err());
        assert!(Scenario::from_spec("wl=cbr;topo=line:3;fault=7@2").is_err());
        assert!(Scenario::from_spec("wl=cbr;topo=line:3;snaps=4;fault=1@0").is_err());
        assert!(Scenario::from_spec("nonsense").is_err());
        assert!(Scenario::from_spec("topo=ring").is_err());
    }

    #[test]
    fn adversarial_combinations_are_rejected() {
        // Flap must hit an inter-switch link.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;flap=0:0@5+5").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;flap=2:1@5+5").is_err());
        // Notif period 1 would starve the control plane.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;notif=1:drop:1").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;notif=1:mangle:3").is_err());
        // CP crash needs headroom between modulus and snapshot count.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;mod=4;snaps=6;cpcrash=1@10+5").is_err());
        // PTP knob bounds.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;ptpdrift=200000").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;ptpstep=1@5:5000").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;ptpasym=500").is_err());
        // Load bounds.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;load=0").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;load=101").is_err());
        // Emulation supports kills only.
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;emu=1;flap=1:1@5+5").is_err());
        assert!(Scenario::from_spec("topo=line:3;wl=cbr;emu=1;load=10").is_err());
    }
}
