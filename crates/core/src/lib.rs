//! # speedlight-core — the Synchronized Network Snapshot protocol
//!
//! This crate implements the protocol contribution of *"Synchronized Network
//! Snapshots"* (Yaseen, Sonchack, Liu — SIGCOMM 2018), independent of any
//! particular switch substrate:
//!
//! * [`id`] — wrapped snapshot IDs with rollover (§5.3) and the monotone
//!   unwrapping rules that make them safe under the paper's no-lapping
//!   assumption.
//! * [`unit`](mod@unit) — the per-port, per-direction **data-plane processing unit**
//!   (Figs. 4–5): a state machine with exactly the capabilities of a Tofino
//!   match-action pipeline — single-slot register updates, no loops over
//!   intermediate snapshot IDs, bounded register arrays — that emits
//!   notifications to its control plane.
//! * [`control`] — the per-device **control plane** (Fig. 7): completion and
//!   inconsistency detection, value reads, recovery from dropped
//!   notifications, re-initiation for liveness (§6).
//! * [`device`] — one switch's **snapshot agent**: its data-plane units,
//!   control plane, per-port stale-initiation guard and crash gate, which
//!   every substrate wraps rather than rebuilds.
//! * [`observer`] — the network-wide **snapshot observer** (§3, §6):
//!   schedules snapshots, assembles per-unit reports into global snapshots,
//!   retries, and excludes failed devices.
//! * [`pipeline`] — the staged snapshot-assembly pipeline (collect →
//!   validate → assemble → finalize → persist-hook): bounded inter-stage
//!   queues (a full collect queue refuses the offer), and
//!   per-arriving-report consistency checks. Differential-tested against
//!   the monolithic [`observer`] reference.
//! * [`ideal`] — the idealized algorithm of Fig. 3 (unbounded IDs, full
//!   intermediate-slot updates), used as an oracle and for ablations.
//! * [`chandy_lamport`] — a classic textbook Chandy-Lamport implementation
//!   used as a second correctness oracle in the property tests.
//! * [`consistency`] — an omniscient event-log checker that validates causal
//!   consistency and flow conservation of completed snapshots.
//!
//! The crate is pure logic: no clocks, no queues, no I/O. The `fabric` crate
//! embeds these state machines into a simulated network, and the `emulation`
//! crate embeds them into a threaded live runtime. That split mirrors the
//! paper's central design point — the data plane obeys Chandy-Lamport-style
//! assumptions while the control plane patches over its hardware limits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chandy_lamport;
pub mod consistency;
pub mod control;
pub mod device;
pub mod id;
pub mod ideal;
pub mod observer;
pub mod pipeline;
pub mod types;
pub mod unit;

pub use control::{ControlPlane, Registers, Report, ReportValue};
pub use id::{Epoch, WrappedId};
pub use observer::{GlobalSnapshot, Observer, ObserverConfig, UnitOutcome};
pub use pipeline::{PipelineConfig, PipelineObserver, PipelineStats};
pub use types::{ChannelId, Direction, Notification, PacketVerdict, UnitId};
pub use unit::{DataPlaneUnit, UnitConfig};
