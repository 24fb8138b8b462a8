//! Property-based tests for the wire formats.

use proptest::prelude::*;
use wire::{DecodeError, FlowKey, PacketType, SnapshotHeader, WIRE_LEN};

fn any_header() -> impl Strategy<Value = SnapshotHeader> {
    (any::<bool>(), any::<u16>(), any::<u16>()).prop_map(|(init, sid, ch)| SnapshotHeader {
        packet_type: if init {
            PacketType::Initiation
        } else {
            PacketType::Data
        },
        snapshot_id: sid,
        channel_id: ch,
    })
}

proptest! {
    /// Encode/decode round-trips every representable header.
    #[test]
    fn header_roundtrip(hdr in any_header()) {
        let bytes: [u8; WIRE_LEN] = hdr.encode();
        let decoded = SnapshotHeader::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert!(SnapshotHeader::present(&bytes));
    }

    /// Decoding arbitrary bytes never panics; success implies the magic
    /// and version prefix were valid.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        match SnapshotHeader::decode(&bytes) {
            Ok(hdr) => {
                // Re-encoding reproduces the decoded prefix.
                prop_assert_eq!(&hdr.encode()[..], &bytes[..WIRE_LEN]);
            }
            Err(DecodeError::Truncated { need, have }) => {
                prop_assert_eq!(need, WIRE_LEN);
                prop_assert!(have < WIRE_LEN);
            }
            Err(_) => {}
        }
    }

    /// Flow-key hashing is a pure function and reversal is an involution.
    #[test]
    fn flow_key_hash_pure_and_reverse_involutive(
        src in any::<u32>(), dst in any::<u32>(),
        sp in any::<u16>(), dp in any::<u16>(), salt in any::<u64>()
    ) {
        let k = FlowKey::tcp(src, dst, sp, dp);
        prop_assert_eq!(k.stable_hash(salt), k.stable_hash(salt));
        prop_assert_eq!(k.reversed().reversed(), k);
        // Reversal changes the hash unless the flow is self-symmetric.
        if src != dst || sp != dp {
            prop_assert_ne!(k.stable_hash(salt), k.reversed().stable_hash(salt));
        }
    }

    /// Corrupting the magic or version always fails cleanly.
    #[test]
    fn corrupt_prefix_is_rejected(hdr in any_header(), flip in 0usize..3, bit in 0u8..8) {
        let mut bytes = hdr.encode();
        let orig = bytes[flip];
        bytes[flip] ^= 1 << bit;
        prop_assume!(bytes[flip] != orig);
        let out = SnapshotHeader::decode(&bytes);
        prop_assert!(
            matches!(out, Err(DecodeError::BadMagic(_)) | Err(DecodeError::BadVersion(_))),
            "corrupted prefix accepted: {out:?}"
        );
    }
}
