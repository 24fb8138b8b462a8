//! The simulated packet.
//!
//! Payload bytes are not materialized — only the metadata the data plane
//! acts on: the flow five-tuple (routing + load balancing), the wire size
//! (queueing + serialization), and the snapshot shim header (§5.1). The
//! shim is stored decoded; [`Packet::header_bytes`] exercises the real
//! codec for the wire-format tests.

use wire::{FlowKey, PacketType, SnapshotHeader, WIRE_LEN};

/// Why a packet exists (workload vs. protocol machinery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketRole {
    /// Application traffic from a host workload.
    Data,
    /// A control-plane snapshot initiation (CPU → ingress → egress → drop).
    Initiation,
    /// A liveness broadcast injected to propagate snapshot IDs (§6).
    Keepalive,
}

/// A packet traversing the fabric.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow five-tuple.
    pub flow: FlowKey,
    /// Destination host (routing key; `flow.dst` for data traffic).
    pub dst_host: u32,
    /// Wire size in bytes (includes the shim when present).
    pub size: u32,
    /// The snapshot shim header, once a snapshot-enabled device added it.
    pub snapshot: Option<SnapshotHeader>,
    /// Data / initiation / keepalive.
    pub role: PacketRole,
}

impl Packet {
    /// A data packet from a host (no shim yet).
    pub fn data(flow: FlowKey, size: u32) -> Packet {
        Packet {
            flow,
            dst_host: flow.dst,
            size,
            snapshot: None,
            role: PacketRole::Data,
        }
    }

    /// A snapshot initiation for (wrapped) epoch `sid`.
    pub fn initiation(sid: u16) -> Packet {
        Packet {
            flow: FlowKey::tcp(u32::MAX, u32::MAX, 0, 0),
            dst_host: u32::MAX,
            size: 64,
            snapshot: Some(SnapshotHeader::initiation(sid)),
            role: PacketRole::Initiation,
        }
    }

    /// A liveness keepalive broadcast (§6), carrying the sender's sid via
    /// normal egress processing.
    pub fn keepalive(dst_host: u32) -> Packet {
        Packet {
            flow: FlowKey::tcp(u32::MAX - 1, dst_host, 0, 1),
            dst_host,
            size: 64,
            snapshot: None,
            role: PacketRole::Keepalive,
        }
    }

    /// Whether this packet is a snapshot initiation.
    pub fn is_initiation(&self) -> bool {
        self.role == PacketRole::Initiation
    }

    /// Encode the shim header (exercises the codec; the simulator otherwise
    /// keeps it decoded).
    pub fn header_bytes(&self) -> Option<[u8; WIRE_LEN]> {
        self.snapshot.map(|h| h.encode())
    }

    /// Whether the packet carries a data-type shim (not initiation).
    pub fn has_data_shim(&self) -> bool {
        matches!(
            self.snapshot,
            Some(SnapshotHeader {
                packet_type: PacketType::Data,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_routes_to_flow_dst() {
        let p = Packet::data(FlowKey::tcp(3, 9, 1000, 80), 1500);
        assert_eq!(p.dst_host, 9);
        assert!(p.snapshot.is_none());
        assert!(!p.is_initiation());
        assert!(p.header_bytes().is_none());
    }

    #[test]
    fn initiation_packet_carries_shim() {
        let p = Packet::initiation(7);
        assert!(p.is_initiation());
        let hdr = p.snapshot.unwrap();
        assert_eq!(hdr.packet_type, PacketType::Initiation);
        assert_eq!(hdr.snapshot_id, 7);
        assert!(!p.has_data_shim());
        // Round-trips through the codec.
        let bytes = p.header_bytes().unwrap();
        let decoded = SnapshotHeader::decode(&bytes).unwrap();
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn shim_classification() {
        let mut p = Packet::data(FlowKey::tcp(0, 1, 1, 1), 64);
        assert!(!p.has_data_shim());
        p.snapshot = Some(SnapshotHeader::data(4));
        assert!(p.has_data_shim());
    }
}
