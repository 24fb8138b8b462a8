//! The snapshot header and its binary codec.
//!
//! Layout (8 bytes, network byte order), modeled after an IP-option /
//! shim-header encapsulation:
//!
//! ```text
//!  0      1      2      3      4      5      6      7
//! +------+------+------+------+------+------+------+------+
//! | MAGIC       | VER  | TYPE | SNAPSHOT ID | CHANNEL ID  |
//! +------+------+------+------+------+------+------+------+
//! ```
//!
//! The magic/version prefix lets a partially-deployed network distinguish
//! packets that already carry a snapshot header from ones that do not (§10,
//! "Partial Deployment").

use std::fmt;

/// Two-byte magic marking a Speedlight shim header.
pub const MAGIC: u16 = 0x5D1C;

/// Codec version emitted by this implementation.
pub const VERSION: u8 = 1;

/// Encoded size of a [`SnapshotHeader`] in bytes.
pub const WIRE_LEN: usize = 8;

/// Packet classification carried in the snapshot header (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Ordinary forwarded traffic.
    Data,
    /// A control-plane snapshot initiation message (§6): travels
    /// CPU → ingress → same-port egress, then is dropped; excluded from
    /// metric updates and never treated as in-flight.
    Initiation,
}

impl PacketType {
    fn to_byte(self) -> u8 {
        match self {
            PacketType::Data => 0,
            PacketType::Initiation => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(PacketType::Data),
            1 => Ok(PacketType::Initiation),
            other => Err(DecodeError::BadPacketType(other)),
        }
    }
}

/// The per-packet snapshot header (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotHeader {
    /// Data vs initiation.
    pub packet_type: PacketType,
    /// Wrapped snapshot ID of the epoch this packet was sent in. The
    /// modulus is configuration known to every device, not carried on the
    /// wire.
    pub snapshot_id: u16,
    /// Upstream neighbor / sub-channel identifier; only meaningful when the
    /// deployment collects channel state, zero otherwise.
    pub channel_id: u16,
}

impl SnapshotHeader {
    /// A data-packet header for epoch `sid` on channel 0.
    pub fn data(sid: u16) -> Self {
        SnapshotHeader {
            packet_type: PacketType::Data,
            snapshot_id: sid,
            channel_id: 0,
        }
    }

    /// An initiation header for epoch `sid`.
    pub fn initiation(sid: u16) -> Self {
        SnapshotHeader {
            packet_type: PacketType::Initiation,
            snapshot_id: sid,
            channel_id: 0,
        }
    }

    /// Serialize to the fixed [`WIRE_LEN`]-byte wire form.
    pub fn encode(&self) -> [u8; WIRE_LEN] {
        let [m0, m1] = MAGIC.to_be_bytes();
        let ty = self.packet_type.to_byte();
        let [s0, s1] = self.snapshot_id.to_be_bytes();
        let [c0, c1] = self.channel_id.to_be_bytes();
        [m0, m1, VERSION, ty, s0, s1, c0, c1]
    }

    /// Deserialize from the first [`WIRE_LEN`] bytes of `bytes`; anything
    /// past them is the caller's (the payload) and is neither read nor
    /// required.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let Some(&[m0, m1, version, ty, s0, s1, c0, c1]) = bytes.first_chunk::<WIRE_LEN>() else {
            return Err(DecodeError::Truncated {
                need: WIRE_LEN,
                have: bytes.len(),
            });
        };
        let magic = u16::from_be_bytes([m0, m1]);
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        Ok(SnapshotHeader {
            packet_type: PacketType::from_byte(ty)?,
            snapshot_id: u16::from_be_bytes([s0, s1]),
            channel_id: u16::from_be_bytes([c0, c1]),
        })
    }

    /// Cheap check whether a byte slice starts with a snapshot header
    /// (magic + version match), without fully decoding. Used at the edge of
    /// a partial deployment to decide whether to insert a header.
    pub fn present(bytes: &[u8]) -> bool {
        bytes.len() >= 3 && u16::from_be_bytes([bytes[0], bytes[1]]) == MAGIC && bytes[2] == VERSION
    }
}

/// Errors produced when decoding a [`SnapshotHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes available than the fixed header length.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Magic bytes did not match; the packet carries no snapshot header.
    BadMagic(u16),
    /// Unknown codec version.
    BadVersion(u8),
    /// Unknown packet-type discriminant.
    BadPacketType(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(
                    f,
                    "truncated snapshot header: need {need} bytes, have {have}"
                )
            }
            DecodeError::BadMagic(m) => write!(f, "bad snapshot header magic {m:#06x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported snapshot header version {v}"),
            DecodeError::BadPacketType(t) => write!(f, "unknown packet type {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data_header() {
        let hdr = SnapshotHeader {
            packet_type: PacketType::Data,
            snapshot_id: 0xBEEF,
            channel_id: 17,
        };
        let bytes = hdr.encode();
        let decoded = SnapshotHeader::decode(&bytes).unwrap();
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn roundtrip_initiation_header() {
        let hdr = SnapshotHeader::initiation(3);
        let bytes = hdr.encode();
        let decoded = SnapshotHeader::decode(&bytes).unwrap();
        assert_eq!(decoded.packet_type, PacketType::Initiation);
        assert_eq!(decoded.snapshot_id, 3);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let hdr = SnapshotHeader::data(1);
        let bytes = hdr.encode();
        for n in 0..WIRE_LEN {
            let err = SnapshotHeader::decode(&bytes[..n]).unwrap_err();
            assert_eq!(
                err,
                DecodeError::Truncated {
                    need: WIRE_LEN,
                    have: n
                }
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = SnapshotHeader::data(1).encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotHeader::decode(&bytes),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = SnapshotHeader::data(1).encode();
        bytes[2] = 99;
        assert_eq!(
            SnapshotHeader::decode(&bytes),
            Err(DecodeError::BadVersion(99))
        );
    }

    #[test]
    fn bad_packet_type_is_rejected() {
        let mut bytes = SnapshotHeader::data(1).encode();
        bytes[3] = 7;
        assert_eq!(
            SnapshotHeader::decode(&bytes),
            Err(DecodeError::BadPacketType(7))
        );
    }

    #[test]
    fn presence_probe() {
        let bytes = SnapshotHeader::data(5).encode();
        assert!(SnapshotHeader::present(&bytes));
        assert!(!SnapshotHeader::present(&bytes[..2]));
        assert!(!SnapshotHeader::present(&[0u8; 16]));
    }

    #[test]
    fn trailing_bytes_are_the_callers() {
        let hdr = SnapshotHeader::data(5);
        let mut bytes = hdr.encode().to_vec();
        bytes.extend_from_slice(b"payload");
        // Ignored when present, not required when absent.
        assert_eq!(SnapshotHeader::decode(&bytes), Ok(hdr));
        assert_eq!(SnapshotHeader::decode(&bytes[..WIRE_LEN]), Ok(hdr));
    }
}
