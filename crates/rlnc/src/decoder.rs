//! Progressive Gaussian-elimination decoder for one generation.

use ncvnf_gf256::bulk;
use ncvnf_gf256::{Field, Gf256};

use crate::config::GenerationConfig;
use crate::error::CodecError;
use crate::row::AlignedRow;

/// Result of feeding one coded packet to a [`GenerationDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The packet increased the decoder's rank.
    Innovative {
        /// Rank after absorbing the packet.
        rank: usize,
    },
    /// The packet was linearly dependent on already-received packets.
    Redundant,
    /// The packet arrived after the generation was already decoded.
    AlreadyComplete,
}

/// Decodes one generation from coded packets, incrementally.
///
/// The decoder keeps the received coefficient vectors in reduced row
/// echelon form and applies the same row operations to the payloads: an
/// incoming packet is reduced on its coefficients first, and the payload
/// side follows in one fused pass only if the packet is innovative.
/// Decoding finishes as soon as `g` linearly independent packets have been
/// absorbed — "the data can be successfully recovered as long as sufficient
/// number of packets are received" — regardless of order, duplication or
/// loss.
#[derive(Debug, Clone)]
pub struct GenerationDecoder {
    config: GenerationConfig,
    /// Coefficient rows in RREF. `rows[i]` pairs with `payloads[i]`.
    coeff_rows: Vec<Vec<u8>>,
    payloads: Vec<AlignedRow>,
    /// `pivot_of_col[c] = Some(row)` if column `c` is a pivot column.
    pivot_of_col: Vec<Option<usize>>,
    /// Reusable elimination workspace — incoming packets are reduced here
    /// so redundant packets (the common case past full rank) cost no heap
    /// allocation.
    coeff_scratch: Vec<u8>,
    data_scratch: AlignedRow,
    /// `factors[row]`: the multiple of buffered row `row` the incoming
    /// packet is reduced by (coefficient-first elimination).
    factors: Vec<u8>,
    /// Count of packets seen (innovative + redundant), for stats.
    packets_seen: u64,
}

impl GenerationDecoder {
    /// Creates an empty decoder for one generation.
    pub fn new(config: GenerationConfig) -> Self {
        GenerationDecoder {
            config,
            coeff_rows: Vec::with_capacity(config.blocks_per_generation()),
            payloads: Vec::with_capacity(config.blocks_per_generation()),
            pivot_of_col: vec![None; config.blocks_per_generation()],
            coeff_scratch: vec![0u8; config.blocks_per_generation()],
            data_scratch: AlignedRow::zeroed(config.block_size()),
            factors: vec![0u8; config.blocks_per_generation()],
            packets_seen: 0,
        }
    }

    /// The layout this decoder expects.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// Current rank (number of linearly independent packets absorbed).
    pub fn rank(&self) -> usize {
        self.coeff_rows.len()
    }

    /// True when the generation can be fully decoded.
    pub fn is_complete(&self) -> bool {
        self.rank() == self.config.blocks_per_generation()
    }

    /// Total packets fed to this decoder, including redundant ones.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Absorbs one coded packet.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CoefficientCount`] or
    /// [`CodecError::PayloadSize`] if the packet does not match the
    /// configured layout.
    pub fn receive(
        &mut self,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<ReceiveOutcome, CodecError> {
        let g = self.config.blocks_per_generation();
        if coefficients.len() != g {
            return Err(CodecError::CoefficientCount {
                expected: g,
                actual: coefficients.len(),
            });
        }
        if payload.len() != self.config.block_size() {
            return Err(CodecError::PayloadSize {
                expected: self.config.block_size(),
                actual: payload.len(),
            });
        }
        self.packets_seen += 1;
        if self.is_complete() {
            return Ok(ReceiveOutcome::AlreadyComplete);
        }

        // Structured elimination, part 1: a systematic packet (single
        // nonzero coefficient) either lands directly in an empty pivot
        // slot, or — when that slot's pivot row is itself a unit vector —
        // is a scalar duplicate of a block we already hold. Neither case
        // needs the full elimination pass, and the duplicate case (common
        // under systematic retransmission) costs no payload work at all.
        if let Some(col) = single_nonzero_column(coefficients) {
            match self.pivot_of_col[col] {
                Some(row) if is_unit_row(&self.coeff_rows[row], col) => {
                    return Ok(ReceiveOutcome::Redundant);
                }
                None => {
                    self.coeff_scratch.fill(0);
                    self.coeff_scratch[col] = 1;
                    let inv = Gf256::new(coefficients[col]).inv().value();
                    bulk::mul_slice(&mut self.data_scratch, payload, inv);
                    self.install_scratch_row(col);
                    return Ok(ReceiveOutcome::Innovative { rank: self.rank() });
                }
                // The pivot row carries mass outside its pivot column, so
                // eliminating the incoming unit vector against it exposes
                // that mass — fall through to the general pass.
                Some(_) => {}
            }
        }

        // Coefficient-first elimination. Eliminate every pivot column
        // from the g-byte coefficient row alone (pivot rows are
        // normalized to 1 at their pivot, so the factor is the entry
        // itself) and record the factor each buffered row is applied
        // with. The first nonzero entry in a pivot-free column becomes
        // the new pivot; later pivot columns must still be eliminated to
        // keep the matrix fully reduced. The factors depend only on
        // coefficients, so a redundant packet costs no payload work.
        let rank = self.rank();
        self.coeff_scratch.copy_from_slice(coefficients);
        self.factors[..rank].fill(0);
        let mut new_pivot = None;
        for col in 0..g {
            let factor = self.coeff_scratch[col];
            if factor == 0 {
                continue;
            }
            match self.pivot_of_col[col] {
                Some(row) => {
                    bulk::mul_add_slice(&mut self.coeff_scratch, &self.coeff_rows[row], factor);
                    self.factors[row] = factor;
                    debug_assert_eq!(self.coeff_scratch[col], 0);
                }
                None => {
                    if new_pivot.is_none() {
                        new_pivot = Some(col);
                    }
                }
            }
        }
        let Some(col) = new_pivot else {
            return Ok(ReceiveOutcome::Redundant);
        };
        // Normalize, then build the payload row in one fused pass:
        // `inv·payload ⊕ Σ (inv·factor)·row`.
        let inv = Gf256::new(self.coeff_scratch[col]).inv().value();
        bulk::scale_slice(&mut self.coeff_scratch, inv);
        bulk::scale_slice(&mut self.factors[..rank], inv);
        bulk::mul_slice(&mut self.data_scratch, payload, inv);
        bulk::mul_add_rows(
            &mut self.data_scratch,
            &self.factors[..rank],
            &self.payloads,
        );
        self.install_scratch_row(col);
        Ok(ReceiveOutcome::Innovative { rank: self.rank() })
    }

    /// Installs the normalized scratch row with pivot `col`, then
    /// back-substitutes it out of all existing rows to keep the matrix
    /// fully reduced.
    fn install_scratch_row(&mut self, col: usize) {
        let new_row = self.coeff_rows.len();
        for r in 0..new_row {
            let factor = self.coeff_rows[r][col];
            if factor != 0 {
                bulk::mul_add_slice(&mut self.coeff_rows[r], &self.coeff_scratch, factor);
                bulk::mul_add_slice(&mut self.payloads[r], &self.data_scratch, factor);
            }
        }
        self.coeff_rows.push(self.coeff_scratch.clone());
        self.payloads.push(self.data_scratch.clone());
        self.pivot_of_col[col] = Some(new_row);
    }

    /// The buffered `(coefficients, payload)` rows in reduced row echelon
    /// form, in the order they were installed (each pivot entry is 1).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> {
        self.coeff_rows
            .iter()
            .zip(&self.payloads)
            .map(|(c, p)| (c.as_slice(), &**p))
    }

    /// The index (into [`rows`](Self::rows)) of the row whose pivot is
    /// column `col`, or `None` while that column has no pivot.
    ///
    /// # Panics
    ///
    /// Panics if `col >= blocks_per_generation`.
    pub fn pivot_row(&self, col: usize) -> Option<usize> {
        self.pivot_of_col[col]
    }

    /// Columns (block indices) that have no pivot yet. With a systematic
    /// sender these are exactly the original blocks still missing, which
    /// lets a receiver request precise retransmissions.
    pub fn missing_columns(&self) -> Vec<usize> {
        self.pivot_of_col
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(c, _)| c)
            .collect()
    }

    /// The decoded blocks in generation order.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotDecoded`] until the decoder reaches full
    /// rank.
    pub fn decoded_blocks(&self) -> Result<Vec<&[u8]>, CodecError> {
        if !self.is_complete() {
            return Err(CodecError::NotDecoded {
                rank: self.rank(),
                needed: self.config.blocks_per_generation(),
            });
        }
        // Fully reduced + full rank means row with pivot column c holds
        // exactly original block c.
        Ok(self
            .pivot_of_col
            .iter()
            .map(|p| &*self.payloads[p.expect("full rank implies all pivots present")])
            .collect())
    }

    /// The decoded generation payload as one contiguous buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotDecoded`] until the decoder reaches full
    /// rank.
    pub fn decoded_payload(&self) -> Result<Vec<u8>, CodecError> {
        let blocks = self.decoded_blocks()?;
        let mut out = Vec::with_capacity(self.config.generation_payload());
        for b in blocks {
            out.extend_from_slice(b);
        }
        Ok(out)
    }
}

/// The index of the single nonzero coefficient, or `None` if there are
/// zero or several (part 2 of structured elimination: recognizing
/// systematic packets without scanning payloads).
fn single_nonzero_column(coefficients: &[u8]) -> Option<usize> {
    let mut found = None;
    for (i, &c) in coefficients.iter().enumerate() {
        if c != 0 {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

/// True when `row` is the unit vector for `col` (pivot rows are
/// normalized, so the pivot entry is 1 whenever this returns true).
fn is_unit_row(row: &[u8], col: usize) -> bool {
    row.iter().enumerate().all(|(i, &c)| (i == col) == (c != 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::GenerationEncoder;
    use crate::header::SessionId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GenerationConfig {
        GenerationConfig::new(32, 4).unwrap()
    }

    #[test]
    fn decodes_from_systematic_packets_in_any_order() {
        let data: Vec<u8> = (0..128).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        for i in [2usize, 0, 3, 1] {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            let out = dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            assert!(matches!(out, ReceiveOutcome::Innovative { .. }));
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn decodes_from_random_packets() {
        let data: Vec<u8> = (0..128).map(|i| (i * 37 + 11) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(99);
        let mut packets = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            packets += 1;
            assert!(packets < 32, "decoder failed to converge");
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn duplicate_packets_are_redundant() {
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(3);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        assert!(matches!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Innovative { rank: 1 }
        ));
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Redundant
        );
        assert_eq!(dec.rank(), 1);
        assert_eq!(dec.packets_seen(), 2);
    }

    #[test]
    fn duplicate_systematic_packets_do_not_consume_rank() {
        let data: Vec<u8> = (0..128).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let pkt = enc.systematic_packet(SessionId::new(0), 0, 2);
        assert!(matches!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Innovative { rank: 1 }
        ));
        // The same source block arriving verbatim again (systematic
        // retransmission) must be flagged redundant without consuming
        // rank — and so must a scalar multiple of it.
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::Redundant
        );
        let mut coeffs = pkt.coefficients().to_vec();
        let mut payload = pkt.payload().to_vec();
        bulk::scale_slice(&mut coeffs, 9);
        bulk::scale_slice(&mut payload, 9);
        assert_eq!(
            dec.receive(&coeffs, &payload).unwrap(),
            ReceiveOutcome::Redundant
        );
        assert_eq!(dec.rank(), 1);
        // The decoder still converges on the remaining blocks.
        for i in [0usize, 1, 3] {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn systematic_after_dense_falls_through_to_general_elimination() {
        // A unit vector whose column already has a (non-unit) pivot row
        // must take the general path and still decode correctly.
        let data: Vec<u8> = (0..128).map(|i| (i * 13 + 5) as u8).collect();
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..2 {
            let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    #[test]
    fn scaled_copy_is_redundant() {
        let enc = GenerationEncoder::new(cfg(), &[5u8; 128]).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        let mut rng = StdRng::seed_from_u64(4);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        // Multiply the whole packet by 7: still in the span.
        let mut coeffs = pkt.coefficients().to_vec();
        let mut payload = pkt.payload().to_vec();
        bulk::scale_slice(&mut coeffs, 7);
        bulk::scale_slice(&mut payload, 7);
        assert_eq!(
            dec.receive(&coeffs, &payload).unwrap(),
            ReceiveOutcome::Redundant
        );
    }

    #[test]
    fn extra_packets_after_completion_are_flagged() {
        let data = vec![1u8; 128];
        let enc = GenerationEncoder::new(cfg(), &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg());
        for i in 0..4 {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(1);
        let pkt = enc.coded_packet(SessionId::new(0), 0, &mut rng);
        assert_eq!(
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap(),
            ReceiveOutcome::AlreadyComplete
        );
    }

    #[test]
    fn rejects_wrong_shapes() {
        let mut dec = GenerationDecoder::new(cfg());
        assert!(matches!(
            dec.receive(&[1, 2, 3], &[0u8; 32]),
            Err(CodecError::CoefficientCount { .. })
        ));
        assert!(matches!(
            dec.receive(&[1, 2, 3, 4], &[0u8; 31]),
            Err(CodecError::PayloadSize { .. })
        ));
    }

    #[test]
    fn not_decoded_error_reports_rank() {
        let dec = GenerationDecoder::new(cfg());
        match dec.decoded_payload() {
            Err(CodecError::NotDecoded { rank: 0, needed: 4 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
