//! Channel message types of the live emulation.

use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::control::Report;
use speedlight_core::Epoch;
use wire::{FlowKey, WIRE_LEN};

/// A frame on a link: logical packet metadata plus the encoded snapshot
/// shim (present once a snapshot-enabled device inserted it).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Flow five-tuple.
    pub flow: FlowKey,
    /// Destination host.
    pub dst_host: u32,
    /// Payload size in bytes (accounting only).
    pub size: u32,
    /// Encoded snapshot header ([`wire::SnapshotHeader`]), if present.
    pub shim: Option<[u8; WIRE_LEN]>,
}

/// Commands and frames delivered to a device actor.
#[derive(Debug)]
pub enum DeviceMsg {
    /// A frame arriving on `port`.
    Frame {
        /// Ingress port.
        port: u16,
        /// The frame.
        frame: Frame,
    },
    /// Control-plane command: initiate snapshot `epoch` now.
    Initiate {
        /// The epoch to initiate.
        epoch: Epoch,
    },
    /// Fault injection: enable/disable snapshot participation. A disabled
    /// device keeps forwarding frames (shim untouched) but skips all unit
    /// processing and ignores initiations, like a crashed snapshot agent.
    SetSnapshotEnabled {
        /// New participation state.
        enabled: bool,
    },
    /// Drain and terminate.
    Shutdown,
}

/// Messages from device control planes to the observer.
#[derive(Debug)]
pub enum ObserverMsg {
    /// A finished per-unit measurement.
    Report {
        /// Reporting device.
        device: u16,
        /// The report.
        report: Report,
    },
    /// Wall-clock progress stamp for the sync measurement: the device saw
    /// some unit advance to `epoch` at `at_nanos` (monotonic clock).
    Progress {
        /// The epoch.
        epoch: Epoch,
        /// Monotonic timestamp, nanoseconds.
        at_nanos: u64,
    },
    /// A device finished shutting down.
    DeviceDone {
        /// The device.
        device: u16,
        /// The device's replay log (empty unless recording was enabled).
        deliveries: Vec<DeliveryEvent>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::SnapshotHeader;

    #[test]
    fn frames_carry_encoded_shims() {
        let hdr = SnapshotHeader::data(5);
        let frame = Frame {
            flow: FlowKey::tcp(1, 2, 3, 4),
            dst_host: 2,
            size: 100,
            shim: Some(hdr.encode()),
        };
        let decoded = SnapshotHeader::decode(&frame.shim.unwrap()).unwrap();
        assert_eq!(decoded, hdr);
    }
}
