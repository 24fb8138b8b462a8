//! The simulated network fabric — Speedlight's testbed substrate.
//!
//! This crate embeds the sans-I/O protocol state machines of
//! `speedlight-core` into a discrete-event network: switches with per-port
//! ingress/egress processing units, output-queued ports with finite
//! buffers, bandwidth/propagation-modeled links, hosts driven by pluggable
//! traffic sources, per-device control planes with a serial
//! notification-processing model, and a network-attached snapshot
//! observer.
//!
//! The module split mirrors the paper's system model (§4.1):
//!
//! * [`topology`] — switches, hosts, links, and all-shortest-path routing
//!   (with ECMP groups); builders for the paper's leaf-spine testbed.
//! * [`packet`] — the simulated packet (flow key, size, snapshot header).
//! * [`latency`] — every latency/jitter knob in one place (fabric
//!   traversal, PCIe, control-plane processing, observer paths).
//! * [`switchmod`] — one switch: its `speedlight_core::device::SwitchAgent`
//!   (processing units and their omniscient epoch shadows, control plane,
//!   initiation guard, CP-down gate), metric banks, egress queues, load
//!   balancer, and the per-device state the interpreter keeps beside them:
//!   link state, the notification-export fault gate and the device's
//!   latency stream in sharded mode.
//! * [`network`] — the event interpreter gluing everything together.
//! * [`testbed`] — the user-facing harness: build, drive, snapshot,
//!   poll, inspect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod network;
pub mod packet;
pub mod shard;
pub mod switchmod;
pub mod testbed;
pub mod topology;
pub mod traffic;

pub use latency::LatencyModel;
pub use network::{DriverConfig, NetEvent, Network, PollSweepRecord, SnapshotRecord};
pub use packet::Packet;
pub use switchmod::SnapshotConfig;
pub use testbed::{Testbed, TestbedConfig};
pub use topology::{LbKind, Topology};
pub use traffic::{Emission, MultiSource, Source};
