//! Seed-compressed coefficient headers (extension beyond the paper).
//!
//! The paper's NC header carries one explicit GF(2^8) coefficient per
//! block — fine at g = 4 (4 bytes), painful at g = 128. A classic RLNC
//! optimization replaces the vector with the 8-byte PRNG seed that
//! generated it; the receiver re-expands the seed. The catch, and the
//! reason the paper's explicit vectors are the right default for *this*
//! system: **recoders cannot recode seeded packets** — a fresh random
//! combination of buffered packets has no generating seed — so the
//! compact form only survives on source→destination paths with
//! forwarding-only relays. [`expandable`] tells a relay whether a packet
//! can keep its compact form.
//!
//! Wire format:
//!
//! ```text
//! byte 0      magic 0xAD (distinct from explicit-header 0xAC)
//! byte 1      version (1)
//! bytes 2-3   session id, big endian
//! bytes 4-7   generation id, big endian
//! bytes 8-15  coefficient seed, big endian
//! bytes 16..  payload
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::HeaderError;
use crate::header::SessionId;

/// Magic byte identifying seed-compressed NC packets.
pub const SEEDED_MAGIC: u8 = 0xAD;
/// Fixed header length of a seeded packet.
pub const SEEDED_HEADER_LEN: usize = 16;

/// A coded packet whose coefficients are represented by a PRNG seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededPacket {
    /// Session id.
    pub session: SessionId,
    /// Generation number.
    pub generation: u64,
    /// The seed that generated the coefficient vector.
    pub seed: u64,
    /// The encoded block.
    pub payload: Bytes,
}

/// Expands a seed into the generation's coefficient vector. Deterministic
/// and identical on every node; never returns the all-zero vector.
pub fn expand_coefficients(seed: u64, generation_size: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coefficients = vec![0u8; generation_size];
    loop {
        rng.fill(&mut coefficients[..]);
        if coefficients.iter().any(|&c| c != 0) {
            return coefficients;
        }
    }
}

impl SeededPacket {
    /// Serializes the packet.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(SEEDED_HEADER_LEN + self.payload.len());
        buf.put_u8(SEEDED_MAGIC);
        buf.put_u8(1);
        buf.put_u16(self.session.value());
        buf.put_u32(self.generation as u32);
        buf.put_u64(self.seed);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a seeded packet.
    ///
    /// # Errors
    ///
    /// [`HeaderError::BadMagic`] if the first byte is not
    /// [`SEEDED_MAGIC`]; [`HeaderError::Truncated`] if too short.
    pub fn from_bytes(data: &[u8]) -> Result<Self, HeaderError> {
        if data.is_empty() {
            return Err(HeaderError::Truncated {
                needed: SEEDED_HEADER_LEN,
                available: 0,
            });
        }
        if data[0] != SEEDED_MAGIC {
            return Err(HeaderError::BadMagic { found: data[0] });
        }
        if data.len() < SEEDED_HEADER_LEN {
            return Err(HeaderError::Truncated {
                needed: SEEDED_HEADER_LEN,
                available: data.len(),
            });
        }
        Ok(SeededPacket {
            session: SessionId::new(u16::from_be_bytes([data[2], data[3]])),
            generation: u32::from_be_bytes([data[4], data[5], data[6], data[7]]) as u64,
            seed: u64::from_be_bytes(data[8..16].try_into().expect("8 bytes")),
            payload: Bytes::copy_from_slice(&data[SEEDED_HEADER_LEN..]),
        })
    }

    /// Expands into the explicit coefficient vector for decoding.
    pub fn coefficients(&self, generation_size: usize) -> Vec<u8> {
        expand_coefficients(self.seed, generation_size)
    }
}

/// Header bytes saved per packet by the seeded form (negative when the
/// explicit form is smaller, i.e. for tiny generations).
pub fn header_savings(generation_size: usize) -> i64 {
    let explicit = crate::header::NcHeader::FIXED_LEN + generation_size;
    explicit as i64 - SEEDED_HEADER_LEN as i64
}

/// Whether a relay may keep a packet in compact (seeded) form: only pure
/// forwarding preserves the seed↔coefficients correspondence; any
/// recombination must fall back to explicit coefficients.
pub fn expandable(role_does_coding: bool) -> bool {
    !role_does_coding
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenerationConfig;
    use crate::decoder::GenerationDecoder;
    use crate::encoder::GenerationEncoder;
    use ncvnf_gf256::bulk;

    #[test]
    fn wire_roundtrip() {
        let pkt = SeededPacket {
            session: SessionId::new(12),
            generation: 99,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            payload: Bytes::from_static(b"block"),
        };
        let wire = pkt.to_bytes();
        assert_eq!(wire.len(), SEEDED_HEADER_LEN + 5);
        assert_eq!(SeededPacket::from_bytes(&wire).unwrap(), pkt);
        assert!(matches!(
            SeededPacket::from_bytes(&wire[..10]),
            Err(HeaderError::Truncated { .. })
        ));
        assert!(matches!(
            SeededPacket::from_bytes(&[0xAC; 20]),
            Err(HeaderError::BadMagic { .. })
        ));
    }

    #[test]
    fn expansion_is_deterministic_and_nonzero() {
        for seed in [0u64, 1, u64::MAX, 0x1234] {
            let a = expand_coefficients(seed, 16);
            let b = expand_coefficients(seed, 16);
            assert_eq!(a, b);
            assert!(a.iter().any(|&c| c != 0));
        }
        assert_ne!(expand_coefficients(1, 8), expand_coefficients(2, 8));
    }

    #[test]
    fn seeded_packets_decode_like_explicit_ones() {
        let cfg = GenerationConfig::new(32, 4).unwrap();
        let data: Vec<u8> = (0..128).map(|i| (i * 3 + 1) as u8).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        let mut seed = 1000u64;
        while !dec.is_complete() {
            // Source side: expand the seed, combine, ship seed + payload.
            let coefficients = expand_coefficients(seed, 4);
            let mut payload = vec![0u8; cfg.block_size()];
            bulk::linear_combine(&mut payload, &coefficients, enc.blocks());
            let pkt = SeededPacket {
                session: SessionId::new(1),
                generation: 0,
                seed,
                payload: Bytes::from(payload),
            };
            let wire = pkt.to_bytes();
            // Receiver side: parse, re-expand, decode.
            let back = SeededPacket::from_bytes(&wire).unwrap();
            let coeffs = back.coefficients(4);
            dec.receive(&coeffs, &back.payload).unwrap();
            seed += 1;
            assert!(seed < 1100, "failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn savings_grow_with_generation_size() {
        assert!(header_savings(4) < 0); // explicit 12 B < seeded 16 B
        assert_eq!(header_savings(8), 0);
        assert!(header_savings(64) > 0); // explicit 72 B > seeded 16 B
        assert_eq!(header_savings(128), 120);
    }

    #[test]
    fn recoding_roles_cannot_stay_compact() {
        assert!(expandable(false)); // forwarder
        assert!(!expandable(true)); // recoder / decoder
    }
}
