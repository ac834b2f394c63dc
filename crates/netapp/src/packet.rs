//! IPv4 packet headers for the forwarding workloads.

/// A parsed IPv4 header (the fields the forwarding path touches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Time to live.
    pub ttl: u8,
    /// Protocol number.
    pub protocol: u8,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Header checksum.
    pub checksum: u16,
}

impl Ipv4Packet {
    /// Builds a packet with a freshly computed checksum.
    pub fn new(src: u32, dst: u32, ttl: u8, protocol: u8, total_len: u16) -> Self {
        let mut p = Ipv4Packet {
            src,
            dst,
            ttl,
            protocol,
            total_len,
            checksum: 0,
        };
        p.checksum = p.compute_checksum();
        p
    }

    /// Serializes the modeled 20-byte header.
    pub fn to_bytes(&self) -> [u8; 20] {
        let mut b = [0u8; 20];
        b[0] = 0x45; // version 4, IHL 5
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol;
        b[10..12].copy_from_slice(&self.checksum.to_be_bytes());
        b[12..16].copy_from_slice(&self.src.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst.to_be_bytes());
        b
    }

    /// Parses a 20-byte header. Strict: this is the decode path of the
    /// serve frame codec, so anything the model cannot round-trip is
    /// rejected rather than silently reinterpreted.
    ///
    /// # Errors
    ///
    /// Rejects short headers, non-IPv4 versions, IHL ≠ 5 (options are not
    /// modeled), and headers whose stored checksum does not match.
    pub fn from_bytes(b: &[u8]) -> Result<Self, ParsePacketError> {
        if b.len() < 20 {
            return Err(ParsePacketError::Truncated);
        }
        if b[0] >> 4 != 4 {
            return Err(ParsePacketError::NotIpv4);
        }
        if b[0] & 0x0f != 5 {
            return Err(ParsePacketError::BadIhl(b[0] & 0x0f));
        }
        let p = Ipv4Packet {
            src: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            dst: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            ttl: b[8],
            protocol: b[9],
            total_len: u16::from_be_bytes([b[2], b[3]]),
            checksum: u16::from_be_bytes([b[10], b[11]]),
        };
        if !p.checksum_ok() {
            return Err(ParsePacketError::BadChecksum {
                stored: p.checksum,
                computed: p.compute_checksum(),
            });
        }
        Ok(p)
    }

    /// RFC 1071 header checksum over the serialized header (with the
    /// checksum field zeroed).
    ///
    /// Computed in closed form over the modeled header words instead of
    /// serializing through [`Ipv4Packet::to_bytes`] and folding byte
    /// pairs: the modeled header is `0x4500`, `total_len`, `ttl:protocol`,
    /// and the four address halves (every other word is zero), so the sum
    /// is seven adds and two folds — this runs per packet on both the
    /// frame-decode and workload-generation hot paths. Equivalence with
    /// the serialized fold is pinned by
    /// `closed_form_checksum_matches_serialized_fold`.
    pub fn compute_checksum(&self) -> u16 {
        let mut sum = 0x4500u32
            + u32::from(self.total_len)
            + (u32::from(self.ttl) << 8)
            + u32::from(self.protocol)
            + (self.src >> 16)
            + (self.src & 0xffff)
            + (self.dst >> 16)
            + (self.dst & 0xffff);
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Whether the stored checksum matches the header.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// The forwarding transform: decrement TTL and incrementally update the
    /// checksum (RFC 1624). Returns `false` (drop) when TTL expires.
    pub fn forward(&mut self) -> bool {
        if self.ttl <= 1 {
            return false;
        }
        self.ttl -= 1;
        self.checksum = self.compute_checksum();
        true
    }

    /// A compact 32-bit descriptor used as the shared-memory `message`
    /// handle (what the hic threads pass around).
    pub fn descriptor(&self) -> u32 {
        // High bits of dst (the lookup key) + TTL.
        (self.dst & 0xffff_ff00) | u32::from(self.ttl)
    }
}

/// Packet parsing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePacketError {
    /// Fewer than 20 header bytes.
    Truncated,
    /// Version field is not 4.
    NotIpv4,
    /// IHL is not 5 (the model carries no options).
    BadIhl(u8),
    /// Stored header checksum does not match the computed one.
    BadChecksum {
        /// Checksum carried in the header.
        stored: u16,
        /// Checksum recomputed over the header.
        computed: u16,
    },
}

impl std::fmt::Display for ParsePacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParsePacketError::Truncated => f.write_str("truncated header"),
            ParsePacketError::NotIpv4 => f.write_str("not an IPv4 header"),
            ParsePacketError::BadIhl(ihl) => write!(f, "unsupported IHL {ihl} (expected 5)"),
            ParsePacketError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "bad header checksum {stored:#06x} (computed {computed:#06x})"
                )
            }
        }
    }
}

impl std::error::Error for ParsePacketError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 sum over the serialized header bytes — the definition the
    /// closed-form `compute_checksum` must reproduce exactly.
    fn serialized_fold_checksum(p: &Ipv4Packet) -> u16 {
        let mut copy = *p;
        copy.checksum = 0;
        let bytes = copy.to_bytes();
        let mut sum: u32 = 0;
        for pair in bytes.chunks(2) {
            sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn closed_form_checksum_matches_serialized_fold() {
        // Corner values plus a seeded sweep: the closed form must be
        // bit-identical to folding the serialized header, including
        // multi-round carry folds (all-ones addresses).
        let corners = [
            (0u32, 0u32, 0u8, 0u8, 0u16),
            (0xffff_ffff, 0xffff_ffff, 255, 255, 65535),
            (0xffff_0000, 0x0000_ffff, 1, 0, 20),
            (0x8000_0001, 0x7fff_fffe, 128, 17, 576),
        ];
        for (src, dst, ttl, proto, len) in corners {
            let p = Ipv4Packet {
                src,
                dst,
                ttl,
                protocol: proto,
                total_len: len,
                checksum: 0,
            };
            assert_eq!(p.compute_checksum(), serialized_fold_checksum(&p));
        }
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 32) as u32
        };
        for _ in 0..10_000 {
            let p = Ipv4Packet {
                src: next(),
                dst: next(),
                ttl: next() as u8,
                protocol: next() as u8,
                total_len: next() as u16,
                checksum: 0,
            };
            assert_eq!(p.compute_checksum(), serialized_fold_checksum(&p), "{p:?}");
        }
    }

    #[test]
    fn checksum_round_trip() {
        let p = Ipv4Packet::new(0x0a00_0001, 0xc0a8_0101, 64, 6, 1500);
        assert!(p.checksum_ok());
        let bytes = p.to_bytes();
        let q = Ipv4Packet::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert!(q.checksum_ok());
    }

    #[test]
    fn forward_decrements_ttl_and_fixes_checksum() {
        let mut p = Ipv4Packet::new(1, 2, 4, 17, 64);
        assert!(p.forward());
        assert_eq!(p.ttl, 3);
        assert!(p.checksum_ok());
    }

    #[test]
    fn forward_drops_expired() {
        let mut p = Ipv4Packet::new(1, 2, 1, 17, 64);
        assert!(!p.forward());
        assert_eq!(p.ttl, 1, "unchanged on drop");
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut p = Ipv4Packet::new(1, 2, 64, 6, 100);
        p.checksum ^= 0x00ff;
        assert!(!p.checksum_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            Ipv4Packet::from_bytes(&[0; 10]),
            Err(ParsePacketError::Truncated)
        );
        let mut b = [0u8; 20];
        b[0] = 0x60; // IPv6
        assert_eq!(Ipv4Packet::from_bytes(&b), Err(ParsePacketError::NotIpv4));
    }

    #[test]
    fn strict_round_trip_over_the_wire_format() {
        // The serve frame codec ships exactly these 20 bytes; every field
        // the model carries must survive serialize → strict parse.
        for (src, dst, ttl, proto, len) in [
            (0u32, 0u32, 1u8, 0u8, 20u16),
            (0xffff_ffff, 0xffff_ffff, 255, 255, 65535),
            (0x0a00_0001, 0xc0a8_0101, 64, 6, 1500),
        ] {
            let p = Ipv4Packet::new(src, dst, ttl, proto, len);
            let q = Ipv4Packet::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(p, q);
            assert_eq!(p.to_bytes(), q.to_bytes(), "byte-identical re-encode");
        }
    }

    #[test]
    fn parse_rejects_bad_ihl() {
        let mut b = Ipv4Packet::new(1, 2, 64, 6, 100).to_bytes();
        b[0] = 0x46; // version 4, IHL 6 (20 bytes of options not modeled)
        assert_eq!(Ipv4Packet::from_bytes(&b), Err(ParsePacketError::BadIhl(6)));
    }

    #[test]
    fn parse_rejects_corrupted_checksum() {
        let p = Ipv4Packet::new(1, 2, 64, 6, 100);
        let mut b = p.to_bytes();
        b[10] ^= 0x01; // flip a checksum bit
        match Ipv4Packet::from_bytes(&b) {
            Err(ParsePacketError::BadChecksum { stored, computed }) => {
                assert_eq!(stored, p.checksum ^ 0x0100);
                assert_eq!(computed, p.checksum);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // Corrupting a covered field without fixing the checksum fails too.
        let mut b = p.to_bytes();
        b[8] = b[8].wrapping_add(1); // ttl
        assert!(matches!(
            Ipv4Packet::from_bytes(&b),
            Err(ParsePacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn descriptor_carries_prefix_and_ttl() {
        let p = Ipv4Packet::new(0, 0xc0a8_01fe, 64, 6, 60);
        let d = p.descriptor();
        assert_eq!(d & 0xff, 64);
        assert_eq!(d & 0xffff_ff00, 0xc0a8_0100);
    }
}
