//! Source-side generation encoder.

use bytes::Bytes;
use rand::Rng;

use ncvnf_gf256::bulk;

use crate::config::{CodingMode, GenerationConfig};
use crate::error::CodecError;
use crate::header::{CodedPacket, NcHeader, SessionId};
use crate::pool::PayloadPool;

/// Encodes one generation of source data into coded packets.
///
/// The encoder owns the `g` original blocks of a generation. Each call to
/// [`coded_packet`](Self::coded_packet) draws a fresh uniformly random
/// coefficient vector over GF(2^8) and emits the corresponding linear
/// combination. [`systematic_packet`](Self::systematic_packet) emits an
/// original block with a unit coefficient vector (the optional systematic
/// first pass).
///
/// # Encoding modes
///
/// [`mode_packet_pooled`](Self::mode_packet_pooled) drives a whole
/// generation through a [`CodingMode`]: packet sequence numbers `0..g`
/// come out verbatim in the systematic modes, and everything after that
/// is a repair packet — dense or [`sparse`](Self::sparse_packet_pooled)
/// per the mode. A typical systematic+sparse emission loop:
///
/// ```
/// use ncvnf_rlnc::{CodingMode, GenerationConfig, GenerationEncoder, PayloadPool, SessionId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let config = GenerationConfig::new(64, 8).unwrap();
/// let encoder = GenerationEncoder::new(config, &[7u8; 512]).unwrap();
/// let mode = CodingMode::sparse_default(8);
/// let (mut rng, mut pool) = (StdRng::seed_from_u64(1), PayloadPool::new());
/// // First 8 packets are the source blocks; the rest are sparse repair.
/// for seq in 0..10u64 {
///     let pkt = encoder.mode_packet_pooled(mode, SessionId::new(1), 0, seq, &mut rng, &mut pool);
///     let nonzeros = pkt.coefficients().iter().filter(|&&c| c != 0).count();
///     if seq < 8 {
///         assert_eq!(nonzeros, 1);
///     } else {
///         assert!(nonzeros <= mode.repair_nonzeros(8));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GenerationEncoder {
    config: GenerationConfig,
    /// The original blocks, each exactly `block_size` long (last one padded
    /// with zeros when the source data was short).
    blocks: Vec<Vec<u8>>,
}

impl GenerationEncoder {
    /// Creates an encoder over exactly one generation of data.
    ///
    /// `data` may be shorter than
    /// [`generation_payload`](GenerationConfig::generation_payload); the
    /// tail is zero-padded (framing/truncation is the responsibility of
    /// [`ObjectEncoder`](crate::ObjectEncoder)).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::PayloadSize`] if `data` is empty or longer
    /// than one generation.
    pub fn new(config: GenerationConfig, data: &[u8]) -> Result<Self, CodecError> {
        if data.is_empty() || data.len() > config.generation_payload() {
            return Err(CodecError::PayloadSize {
                expected: config.generation_payload(),
                actual: data.len(),
            });
        }
        let bs = config.block_size();
        let mut blocks = Vec::with_capacity(config.blocks_per_generation());
        for i in 0..config.blocks_per_generation() {
            let mut block = vec![0u8; bs];
            let start = i * bs;
            if start < data.len() {
                let end = usize::min(start + bs, data.len());
                block[..end - start].copy_from_slice(&data[start..end]);
            }
            blocks.push(block);
        }
        Ok(GenerationEncoder { config, blocks })
    }

    /// The layout this encoder was built with.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Emits one randomly coded packet for `(session, generation)`.
    ///
    /// The coefficient vector is redrawn if it comes out all-zero (an
    /// all-zero combination carries no information), so the packet is
    /// always a nontrivial combination.
    ///
    /// Allocates fresh buffers per call; the hot paths use
    /// [`coded_packet_pooled`](Self::coded_packet_pooled) or
    /// [`coded_packets_into`](Self::coded_packets_into) instead.
    pub fn coded_packet<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        rng: &mut R,
    ) -> CodedPacket {
        let mut pool = PayloadPool::new();
        self.coded_packet_pooled(session, generation, rng, &mut pool)
    }

    /// Like [`coded_packet`](Self::coded_packet), but the coefficient and
    /// payload buffers come from `pool` — zero heap allocations once the
    /// pool is warm.
    pub fn coded_packet_pooled<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> CodedPacket {
        let g = self.config.blocks_per_generation();
        let mut coefficients = pool.checkout_zeroed(g);
        loop {
            rng.fill(&mut coefficients[..]);
            if coefficients.iter().any(|&c| c != 0) {
                break;
            }
        }
        let mut payload = pool.checkout_zeroed(self.config.block_size());
        bulk::mul_add_rows(&mut payload, &coefficients, &self.blocks);
        CodedPacket::new(
            NcHeader {
                session,
                generation,
                coefficients: coefficients.freeze(),
            },
            payload.freeze(),
        )
    }

    /// Batch emit: appends `count` randomly coded packets to `out`, drawing
    /// all buffers from `pool`.
    ///
    /// This is the bulk path the VNF pipeline and the simulators use to
    /// emit a generation's worth of packets without per-packet allocation
    /// (`out` should be reused across calls so its capacity amortizes).
    pub fn coded_packets_into<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        count: usize,
        rng: &mut R,
        pool: &mut PayloadPool,
        out: &mut Vec<CodedPacket>,
    ) {
        out.reserve(count);
        for _ in 0..count {
            out.push(self.coded_packet_pooled(session, generation, rng, pool));
        }
    }

    /// Emits original block `index` with a unit coefficient vector
    /// (systematic mode: the first `g` packets can skip coding work).
    ///
    /// # Panics
    ///
    /// Panics if `index >= blocks_per_generation`.
    pub fn systematic_packet(
        &self,
        session: SessionId,
        generation: u64,
        index: usize,
    ) -> CodedPacket {
        assert!(
            index < self.config.blocks_per_generation(),
            "systematic index out of range"
        );
        let mut coefficients = vec![0u8; self.config.blocks_per_generation()];
        coefficients[index] = 1;
        CodedPacket::new(
            NcHeader {
                session,
                generation,
                coefficients: Bytes::from(coefficients),
            },
            Bytes::from(self.blocks[index].clone()),
        )
    }

    /// Like [`systematic_packet`](Self::systematic_packet), but both
    /// buffers come from `pool` — the zero-copy-cost first pass of the
    /// systematic and sparse modes.
    ///
    /// # Panics
    ///
    /// Panics if `index >= blocks_per_generation`.
    pub fn systematic_packet_pooled(
        &self,
        session: SessionId,
        generation: u64,
        index: usize,
        pool: &mut PayloadPool,
    ) -> CodedPacket {
        assert!(
            index < self.config.blocks_per_generation(),
            "systematic index out of range"
        );
        let mut coefficients = pool.checkout_zeroed(self.config.blocks_per_generation());
        coefficients[index] = 1;
        let payload = pool.checkout_copy(&self.blocks[index]);
        CodedPacket::new(
            NcHeader {
                session,
                generation,
                coefficients: coefficients.freeze(),
            },
            payload.freeze(),
        )
    }

    /// Emits one sparse repair packet: `nonzeros` distinct blocks chosen
    /// uniformly at random, each with a uniformly random nonzero
    /// coefficient — O(`nonzeros` · block) coding work instead of
    /// O(g · block).
    ///
    /// `nonzeros` is clamped to `1..=g`. The combination is never
    /// all-zero by construction (every chosen coefficient is nonzero).
    pub fn sparse_packet_pooled<R: Rng + ?Sized>(
        &self,
        session: SessionId,
        generation: u64,
        nonzeros: usize,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> CodedPacket {
        let g = self.config.blocks_per_generation();
        let d = nonzeros.clamp(1, g);
        let mut coefficients = pool.checkout_zeroed(g);
        let mut payload = pool.checkout_zeroed(self.config.block_size());
        // Floyd's algorithm gives d distinct positions without an aux
        // set proportional to g: for j in g-d..g, pick t in 0..=j; take t
        // unless already taken, else take j.
        for j in (g - d)..g {
            let t = rng.gen_range(0..=j);
            let pos = if coefficients[t] != 0 { j } else { t };
            coefficients[pos] = rng.gen_range(1..=255u8);
        }
        // The unchosen blocks keep coefficient zero, which the fused
        // combination skips without reading them.
        bulk::mul_add_rows(&mut payload, &coefficients, &self.blocks);
        CodedPacket::new(
            NcHeader {
                session,
                generation,
                coefficients: coefficients.freeze(),
            },
            payload.freeze(),
        )
    }

    /// Emits the packet with sequence number `seq` under `mode`.
    ///
    /// In the systematic-first modes ([`CodingMode::Systematic`] and
    /// [`CodingMode::Sparse`]), `seq < g` yields source block `seq`
    /// verbatim; later sequence numbers yield repair packets (dense or
    /// sparse per the mode). [`CodingMode::Dense`] always yields a dense
    /// random combination.
    pub fn mode_packet_pooled<R: Rng + ?Sized>(
        &self,
        mode: CodingMode,
        session: SessionId,
        generation: u64,
        seq: u64,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> CodedPacket {
        let g = self.config.blocks_per_generation() as u64;
        if mode.is_systematic_first() && seq < g {
            return self.systematic_packet_pooled(session, generation, seq as usize, pool);
        }
        match mode {
            CodingMode::Sparse { nonzeros } => {
                self.sparse_packet_pooled(session, generation, nonzeros, rng, pool)
            }
            CodingMode::Dense | CodingMode::Systematic => {
                self.coded_packet_pooled(session, generation, rng, pool)
            }
        }
    }

    /// Batch emit under a mode: appends packets for sequence numbers
    /// `first_seq..first_seq + count` to `out` (the mode-aware analogue
    /// of [`coded_packets_into`](Self::coded_packets_into)).
    #[allow(clippy::too_many_arguments)]
    pub fn mode_packets_into<R: Rng + ?Sized>(
        &self,
        mode: CodingMode,
        session: SessionId,
        generation: u64,
        first_seq: u64,
        count: usize,
        rng: &mut R,
        pool: &mut PayloadPool,
        out: &mut Vec<CodedPacket>,
    ) {
        out.reserve(count);
        for i in 0..count as u64 {
            out.push(self.mode_packet_pooled(mode, session, generation, first_seq + i, rng, pool));
        }
    }

    /// Borrow of the padded original blocks (used by tests and the object
    /// layer).
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(16, 4).unwrap()
    }

    /// `Σ coefficients[i] * block[i]`, one single-row pass per block (an
    /// independent path from the encoder's fused combination).
    fn manual_combination(enc: &GenerationEncoder, coefficients: &[u8]) -> Vec<u8> {
        let mut expect = vec![0u8; 16];
        for (&c, block) in coefficients.iter().zip(enc.blocks()) {
            bulk::mul_add_slice(&mut expect, block, c);
        }
        expect
    }

    #[test]
    fn pads_short_generations() {
        let enc = GenerationEncoder::new(cfg(), &[9u8; 20]).unwrap();
        assert_eq!(enc.blocks().len(), 4);
        assert_eq!(enc.blocks()[0], vec![9u8; 16]);
        assert_eq!(&enc.blocks()[1][..4], &[9u8; 4]);
        assert_eq!(&enc.blocks()[1][4..], &[0u8; 12]);
        assert_eq!(enc.blocks()[3], vec![0u8; 16]);
    }

    #[test]
    fn rejects_oversized_and_empty_data() {
        assert!(GenerationEncoder::new(cfg(), &[0u8; 65]).is_err());
        assert!(GenerationEncoder::new(cfg(), &[]).is_err());
    }

    #[test]
    fn systematic_packets_are_the_original_blocks() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(1), 0, i);
            assert_eq!(pkt.payload(), &data[i * 16..(i + 1) * 16]);
            let mut unit = vec![0u8; 4];
            unit[i] = 1;
            assert_eq!(pkt.coefficients(), unit.as_slice());
        }
    }

    #[test]
    fn coded_packet_matches_manual_combination() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let pkt = enc.coded_packet(SessionId::new(1), 3, &mut rng);
        assert_eq!(pkt.generation(), 3);
        assert_eq!(pkt.payload(), manual_combination(&enc, pkt.coefficients()));
    }

    #[test]
    fn never_emits_zero_coefficients() {
        let enc = GenerationEncoder::new(cfg(), &[1u8; 64]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            assert!(pkt.coefficients().iter().any(|&c| c != 0));
        }
    }

    #[test]
    fn pooled_batch_matches_manual_combination_and_recycles() {
        let data: Vec<u8> = (0..64).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = PayloadPool::new();
        let mut out = Vec::new();
        enc.coded_packets_into(SessionId::new(2), 1, 8, &mut rng, &mut pool, &mut out);
        assert_eq!(out.len(), 8);
        for pkt in &out {
            assert_eq!(pkt.payload(), manual_combination(&enc, pkt.coefficients()));
        }
        for pkt in out.drain(..) {
            assert_eq!(pool.recycle(pkt), 2);
        }
        assert_eq!(pool.idle(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn systematic_out_of_range_panics() {
        let enc = GenerationEncoder::new(cfg(), &[1u8; 64]).unwrap();
        let _ = enc.systematic_packet(SessionId::new(1), 0, 4);
    }
}
