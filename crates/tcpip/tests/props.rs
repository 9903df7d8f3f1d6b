//! Property-based tests for IP/TCP codecs, checksums and reassembly.

use bytes::Bytes;
use clic_tcpip::ip::{
    self, internet_checksum, internet_checksum_parts, IpAddr, IpProto, IpReassembler, Ipv4Header,
    IPV4_HEADER,
};
use clic_tcpip::tcp::{Segment, TCP_HEADER};
use proptest::prelude::*;

/// Whether `view` is `buf[start..end]` itself: the same bytes at the same
/// address, so the decoder handed out a view rather than a copy.
fn is_view_of(view: &Bytes, buf: &Bytes, start: usize, end: usize) -> bool {
    let range = &buf[start..end];
    view[..] == *range && (view.is_empty() || view.as_ptr() == range.as_ptr())
}

/// The TCP pseudo header, built field by field from RFC 793.
fn pseudo(src: u32, dst: u32, tcp_len: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(12);
    p.extend_from_slice(&src.to_be_bytes());
    p.extend_from_slice(&dst.to_be_bytes());
    p.extend_from_slice(&[0, 6]);
    p.extend_from_slice(&(tcp_len as u16).to_be_bytes());
    p
}

/// IPv4 header checksum the way liteeth's `LiteEthIPV4Checksum` computes
/// it in hardware: a 17-bit running sum of the header's 16-bit words with
/// the carry folded back after every word, optionally skipping the
/// checksum field, then complemented.
fn liteeth_ipv4_checksum(header: &[u8; IPV4_HEADER], skip_checksum: bool) -> u16 {
    let mut r: u32 = 0;
    for (i, w) in header.chunks_exact(2).enumerate() {
        if skip_checksum && i == 5 {
            continue; // bytes 10..12 hold the checksum
        }
        let s = r + u32::from(u16::from_be_bytes([w[0], w[1]]));
        r = (s & 0xffff) + (s >> 16);
    }
    !(r as u16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The IPv4 decoder never panics on arbitrary bytes, and on a header
    /// with a valid checksum it returns exactly the payload range (no
    /// Ethernet padding) as a view.
    #[test]
    fn ipv4_decode_is_total_and_a_view(
        raw in proptest::collection::vec(any::<u8>(), 0..120),
        fields in any::<(u32, u32, u16, u8)>(),
        tcp in any::<bool>(),
        payload_len in 0u16..120,
        body in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let _ = Ipv4Header::decode(&Bytes::from(raw));
        let (src, dst, ident, ttl) = fields;
        let h = Ipv4Header {
            src: IpAddr(src),
            dst: IpAddr(dst),
            proto: if tcp { IpProto::Tcp } else { IpProto::Udp },
            ident,
            frag_offset: 0,
            more_fragments: false,
            ttl,
            payload_len,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&body);
        let wire = Bytes::from(wire);
        let end = IPV4_HEADER + usize::from(payload_len);
        match Ipv4Header::decode(&wire) {
            Some((parsed, view)) => {
                prop_assert_eq!(parsed, h);
                prop_assert!(is_view_of(&view, &wire, IPV4_HEADER, end));
            }
            None => prop_assert!(wire.len() < end, "valid header rejected"),
        }
    }

    /// The TCP decoder never panics on arbitrary bytes, and on a segment
    /// with a valid checksum and any data offset it returns the bytes
    /// past the offset as a view, or rejects an offset out of range.
    #[test]
    fn tcp_decode_is_total_and_a_view(
        raw in proptest::collection::vec(any::<u8>(), 0..120),
        addrs in any::<(u32, u32)>(),
        data_offset in any::<u8>(),
    ) {
        let (src, dst) = (IpAddr(addrs.0), IpAddr(addrs.1));
        let _ = Segment::decode(src, dst, &Bytes::from(raw.clone()));
        // Same bytes with the checksum made valid, so parsing goes on to
        // the data offset.
        let mut seg = raw;
        seg.resize(seg.len().max(TCP_HEADER), 0);
        seg[12] = data_offset;
        seg[16..18].copy_from_slice(&[0, 0]);
        let csum = internet_checksum_parts(&[&pseudo(addrs.0, addrs.1, seg.len()), &seg]);
        seg[16..18].copy_from_slice(&csum.to_be_bytes());
        let wire = Bytes::from(seg);
        let off = usize::from(data_offset >> 4) * 4;
        match Segment::decode(src, dst, &wire) {
            Some((parsed, view)) => {
                prop_assert_eq!(parsed.flags, wire[13]);
                prop_assert!(is_view_of(&view, &wire, off, wire.len()));
            }
            None => prop_assert!(off < TCP_HEADER || off > wire.len(), "valid segment rejected"),
        }
    }

    /// TCP encode/decode roundtrip: the payload comes back as a view of
    /// the wire segment.
    #[test]
    fn tcp_segment_roundtrip(
        ports in any::<(u16, u16)>(),
        seq_ack in any::<(u32, u32)>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1_500),
    ) {
        let (src, dst) = (IpAddr::for_node(1), IpAddr::for_node(2));
        let seg = Segment {
            src_port: ports.0,
            dst_port: ports.1,
            seq: seq_ack.0,
            ack: seq_ack.1,
            flags,
            window,
        };
        let wire = seg.encode(src, dst, &payload);
        let (parsed, view) = Segment::decode(src, dst, &wire).unwrap();
        prop_assert_eq!(parsed, seg);
        prop_assert!(is_view_of(&view, &wire, TCP_HEADER, wire.len()));
        prop_assert_eq!(&view[..], &payload[..]);
    }

    /// The in-place checksum over (pseudo header, TCP header, payload)
    /// equals the checksum of their concatenation, odd payload tails
    /// included.
    #[test]
    fn checksum_parts_equal_concatenation(
        addrs in any::<(u32, u32)>(),
        header_words in 0usize..30,
        header_seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1_501),
    ) {
        let header: Vec<u8> = (0..2 * header_words)
            .map(|i| (header_seed >> (8 * (i % 8))) as u8 ^ i as u8)
            .collect();
        let pseudo = pseudo(addrs.0, addrs.1, header.len() + payload.len());
        let mut whole = pseudo.clone();
        whole.extend_from_slice(&header);
        whole.extend_from_slice(&payload);
        prop_assert_eq!(
            internet_checksum_parts(&[&pseudo, &header, &payload]),
            internet_checksum(&whole)
        );
    }

    /// The IPv4 header checksum matches a hardware-style reference that
    /// folds the carry after every word (liteeth `LiteEthIPV4Checksum`).
    #[test]
    fn ipv4_checksum_matches_folded_reference(
        fields in any::<(u32, u32, u16, u8)>(),
        frag in any::<(u16, bool)>(),
        tcp in any::<bool>(),
        payload_len in 0u16..9_000,
    ) {
        let (src, dst, ident, ttl) = fields;
        let h = Ipv4Header {
            src: IpAddr(src),
            dst: IpAddr(dst),
            proto: if tcp { IpProto::Tcp } else { IpProto::Udp },
            ident,
            frag_offset: frag.0 & 0x1fff,
            more_fragments: frag.1,
            ttl,
            payload_len,
        };
        let wire = h.encode();
        let stored = u16::from_be_bytes([wire[10], wire[11]]);
        prop_assert_eq!(liteeth_ipv4_checksum(&wire, true), stored);
        prop_assert_eq!(liteeth_ipv4_checksum(&wire, false), 0);
        let mut zeroed = wire;
        zeroed[10..12].copy_from_slice(&[0, 0]);
        prop_assert_eq!(internet_checksum(&zeroed), stored);
    }
}

proptest! {
    /// RFC 1071: the checksum of data with its own checksum folded in
    /// verifies to zero; flipping any bit breaks it.
    #[test]
    fn checksum_detects_corruption(
        mut data in proptest::collection::vec(any::<u8>(), 2..1_500),
        flip in any::<(usize, u8)>(),
    ) {
        // Fold the checksum into the first two bytes (like a header field).
        data[0] = 0;
        data[1] = 0;
        let c = internet_checksum(&data);
        data[0] = (c >> 8) as u8;
        data[1] = (c & 0xff) as u8;
        prop_assert_eq!(internet_checksum(&data), 0);
        // Flip one nonzero bit somewhere.
        let (pos, bit) = flip;
        let pos = pos % data.len();
        let mask = 1u8 << (bit % 8);
        data[pos] ^= mask;
        // A single-bit flip is always detected by the Internet checksum.
        prop_assert_ne!(internet_checksum(&data), 0);
    }

    /// IPv4 header roundtrip for arbitrary field combinations.
    #[test]
    fn ipv4_header_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        tcp in any::<bool>(),
        ident in any::<u16>(),
        frag_offset in 0u16..0x2000,
        more in any::<bool>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..1_000),
    ) {
        let h = Ipv4Header {
            src: IpAddr(src),
            dst: IpAddr(dst),
            proto: if tcp { IpProto::Tcp } else { IpProto::Udp },
            ident,
            frag_offset,
            more_fragments: more,
            ttl,
            payload_len: payload.len() as u16,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&payload);
        let (parsed, body) = Ipv4Header::decode(&Bytes::from(wire)).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(&body[..], &payload[..]);
    }

    /// IP fragmentation + reassembly is the identity under arbitrary
    /// arrival permutations.
    #[test]
    fn ip_frag_roundtrip(len in 1usize..30_000, mtu in 68usize..9_000, seed in any::<u64>()) {
        let payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let mut frags = ip::fragment(
            IpAddr::for_node(1),
            IpAddr::for_node(2),
            IpProto::Udp,
            42,
            64,
            &payload,
            mtu,
        );
        let n = frags.len();
        for i in 0..n {
            let j = ((seed.wrapping_add(i as u64 * 7919)) as usize) % n;
            frags.swap(i, j);
        }
        let mut r = IpReassembler::new();
        let mut out = None;
        for f in &frags {
            let (h, body) = Ipv4Header::decode(f).unwrap();
            if let Some(p) = r.offer(&h, body) {
                prop_assert!(out.is_none());
                out = Some(p);
            }
        }
        prop_assert_eq!(out.unwrap(), payload);
    }

    /// Corrupting any single header byte makes the header undecodable
    /// (checksum) or changes no accepted-field silently.
    #[test]
    fn ipv4_header_corruption_detected(pos in 0usize..20, mask in 1u8..=255) {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Tcp,
            ident: 7,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 0,
        };
        let mut wire = h.encode().to_vec();
        wire[pos] ^= mask;
        match Ipv4Header::decode(&Bytes::from(wire)) {
            None => {} // rejected: good
            Some((parsed, _)) => {
                // The only acceptable parse is the original (i.e. the flip
                // hit a bit the checksum catches as... it cannot: any
                // single flip must be caught).
                prop_assert!(false, "corrupted header accepted: {parsed:?}");
            }
        }
    }
}
