//! Threaded live emulation of a Speedlight deployment.
//!
//! Where the `fabric` crate *simulates* switches under a virtual clock,
//! this crate *runs* them: one OS thread per device (data plane + control
//! plane, like the switch ASIC + CPU sharing a box), `std::sync::mpsc`
//! channels as links (FIFO, like the wire), real host generator threads,
//! and an observer thread that schedules snapshots at wall-clock instants
//! — so the synchronization you measure here includes the machine's
//! *actual* scheduling jitter, the live analogue of Fig. 9.
//!
//! The module split:
//!
//! * [`messages`] — the frame/command types flowing over the channels
//!   (snapshot headers travel encoded, through the real `wire` codec);
//! * [`device`] — the device actor: one `speedlight_core::device::SwitchAgent`
//!   (units, colocated control plane, stale-initiation guard) plus
//!   forwarding, counters and notification handling;
//! * [`cluster`] — wiring, the observer loop, graceful shutdown, and the
//!   demo harness used by tests/examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod device;
pub mod messages;

pub use cluster::{Cluster, ClusterConfig, ClusterReport};
