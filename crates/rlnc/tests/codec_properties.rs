//! Property-based tests for the RLNC codec.

use ncvnf_gf256::{bulk, Field, Gf256};
use std::collections::VecDeque;

use ncvnf_rlnc::{
    CodecError, CodedPacket, CodingMode, GenerationConfig, GenerationDecoder, GenerationEncoder,
    ObjectDecoder, ObjectEncoder, PayloadPool, ReceiveOutcome, Recoder, SessionId, WindowConfig,
    WindowDecoder, WindowEncoder, WindowOutcome, WindowRecoder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sequential elimination the codec used before coefficient-first
/// elimination: every pivot row is applied to the coefficient row and
/// the payload row in lockstep, one `mul_add_slice` pair per row. Kept
/// here, outside the product, as the reference the fused path must
/// match byte for byte.
struct ReferenceDecoder {
    g: usize,
    coeff_rows: Vec<Vec<u8>>,
    payloads: Vec<Vec<u8>>,
    pivot_of_col: Vec<Option<usize>>,
}

impl ReferenceDecoder {
    fn new(g: usize) -> Self {
        ReferenceDecoder {
            g,
            coeff_rows: Vec::new(),
            payloads: Vec::new(),
            pivot_of_col: vec![None; g],
        }
    }

    fn receive(&mut self, coefficients: &[u8], payload: &[u8]) -> ReceiveOutcome {
        if self.coeff_rows.len() == self.g {
            return ReceiveOutcome::AlreadyComplete;
        }
        let nonzero: Vec<usize> = (0..self.g).filter(|&i| coefficients[i] != 0).collect();
        if let [col] = nonzero[..] {
            match self.pivot_of_col[col] {
                Some(row)
                    if self.coeff_rows[row]
                        .iter()
                        .enumerate()
                        .all(|(i, &c)| (i == col) == (c != 0)) =>
                {
                    return ReceiveOutcome::Redundant;
                }
                None => {
                    let mut coeffs = vec![0u8; self.g];
                    coeffs[col] = 1;
                    let mut data = payload.to_vec();
                    let inv = Gf256::new(coefficients[col]).inv().value();
                    bulk::scale_slice(&mut data, inv);
                    return self.install(col, coeffs, data);
                }
                Some(_) => {}
            }
        }
        let mut coeffs = coefficients.to_vec();
        let mut data = payload.to_vec();
        let mut new_pivot = None;
        for col in 0..self.g {
            if coeffs[col] == 0 {
                continue;
            }
            match self.pivot_of_col[col] {
                Some(row) => {
                    let factor = coeffs[col];
                    bulk::mul_add_slice(&mut coeffs, &self.coeff_rows[row], factor);
                    bulk::mul_add_slice(&mut data, &self.payloads[row], factor);
                }
                None => {
                    new_pivot = new_pivot.or(Some(col));
                }
            }
        }
        let Some(col) = new_pivot else {
            return ReceiveOutcome::Redundant;
        };
        let inv = Gf256::new(coeffs[col]).inv().value();
        bulk::scale_slice(&mut coeffs, inv);
        bulk::scale_slice(&mut data, inv);
        self.install(col, coeffs, data)
    }

    fn install(&mut self, col: usize, coeffs: Vec<u8>, data: Vec<u8>) -> ReceiveOutcome {
        for r in 0..self.coeff_rows.len() {
            let factor = self.coeff_rows[r][col];
            bulk::mul_add_slice(&mut self.coeff_rows[r], &coeffs, factor);
            bulk::mul_add_slice(&mut self.payloads[r], &data, factor);
        }
        self.pivot_of_col[col] = Some(self.coeff_rows.len());
        self.coeff_rows.push(coeffs);
        self.payloads.push(data);
        ReceiveOutcome::Innovative {
            rank: self.coeff_rows.len(),
        }
    }
}

/// The recoder's sequential absorb, kept as the reference for the
/// coefficient-first one (rows in echelon form, sorted by leading index,
/// leading entries not normalized).
struct ReferenceRecoder {
    g: usize,
    coeff_rows: Vec<Vec<u8>>,
    payloads: Vec<Vec<u8>>,
}

impl ReferenceRecoder {
    fn absorb(&mut self, coefficients: &[u8], payload: &[u8]) -> bool {
        if self.coeff_rows.len() == self.g {
            return false;
        }
        let lead = |row: &[u8]| row.iter().position(|&c| c != 0);
        let mut coeffs = coefficients.to_vec();
        let mut data = payload.to_vec();
        for row in 0..self.coeff_rows.len() {
            let l = lead(&self.coeff_rows[row]).expect("buffered rows are nonzero");
            if coeffs[l] != 0 {
                let factor = (Gf256::new(coeffs[l]) / Gf256::new(self.coeff_rows[row][l])).value();
                bulk::mul_add_slice(&mut coeffs, &self.coeff_rows[row], factor);
                bulk::mul_add_slice(&mut data, &self.payloads[row], factor);
            }
        }
        if coeffs.iter().all(|&c| c == 0) {
            return false;
        }
        self.coeff_rows.push(coeffs);
        self.payloads.push(data);
        let mut i = self.coeff_rows.len() - 1;
        while i > 0 && lead(&self.coeff_rows[i]) < lead(&self.coeff_rows[i - 1]) {
            self.coeff_rows.swap(i, i - 1);
            self.payloads.swap(i, i - 1);
            i -= 1;
        }
        true
    }
}

/// A random packet stream over one generation, mixing every shape the
/// elimination distinguishes: dense and sparse combinations, systematic
/// packets and scalar multiples of them, exact duplicates, combinations
/// of two earlier packets (dependent once both are held), and the zero
/// vector.
fn mixed_stream(enc: &GenerationEncoder, kinds: &[u8], seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let g = enc.blocks().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = PayloadPool::new();
    let mut sent: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for &kind in kinds {
        let pick = |rng: &mut StdRng, sent: &[(Vec<u8>, Vec<u8>)]| {
            sent[rng.gen_range(0..sent.len())].clone()
        };
        let packet = match kind % 7 {
            0 | 1 => {
                let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
                (pkt.coefficients().to_vec(), pkt.payload().to_vec())
            }
            2 => {
                let pkt = enc.systematic_packet(SessionId::new(1), 0, rng.gen_range(0..g));
                let (mut c, mut p) = (pkt.coefficients().to_vec(), pkt.payload().to_vec());
                let scale = rng.gen_range(1..=255u8);
                bulk::scale_slice(&mut c, scale);
                bulk::scale_slice(&mut p, scale);
                (c, p)
            }
            3 => {
                let nonzeros = rng.gen_range(1..=g);
                let pkt =
                    enc.sparse_packet_pooled(SessionId::new(1), 0, nonzeros, &mut rng, &mut pool);
                (pkt.coefficients().to_vec(), pkt.payload().to_vec())
            }
            4 if !sent.is_empty() => pick(&mut rng, &sent),
            5 if !sent.is_empty() => {
                let (mut c, mut p) = pick(&mut rng, &sent);
                let (c2, p2) = pick(&mut rng, &sent);
                let w = rng.gen_range(0..=255u8);
                bulk::mul_add_slice(&mut c, &c2, w);
                bulk::mul_add_slice(&mut p, &p2, w);
                (c, p)
            }
            _ => (vec![0u8; g], vec![0u8; enc.blocks()[0].len()]),
        };
        sent.push(packet);
    }
    sent
}

/// The window decoder's sequential elimination (history contributions
/// and pivot rows applied to the payload in lockstep), kept as the
/// reference for its coefficient-first receive.
struct ReferenceWindowDecoder {
    cap: usize,
    delivered: u64,
    history: VecDeque<Vec<u8>>,
    rows: Vec<Vec<u8>>,
    payloads: Vec<Vec<u8>>,
    pivot_of: Vec<Option<usize>>,
}

impl ReferenceWindowDecoder {
    fn new(cap: usize) -> Self {
        ReferenceWindowDecoder {
            cap,
            delivered: 0,
            history: VecDeque::new(),
            rows: Vec::new(),
            payloads: Vec::new(),
            pivot_of: vec![None; cap],
        }
    }

    fn receive(
        &mut self,
        base: u64,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<WindowOutcome, CodecError> {
        let cap = self.cap;
        let floor = self.delivered - self.history.len() as u64;
        let mut coeffs = vec![0u8; cap];
        let mut data = payload.to_vec();
        let mut live_mass = false;
        for (i, &c) in coefficients.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let col = base + i as u64;
            if col < floor {
                return Ok(WindowOutcome::Stale);
            }
            if col < self.delivered {
                bulk::mul_add_slice(&mut data, &self.history[(col - floor) as usize], c);
            } else {
                let rel = (col - self.delivered) as usize;
                if rel >= cap {
                    return Err(CodecError::WindowFull { capacity: cap });
                }
                coeffs[rel] = c;
                live_mass = true;
            }
        }
        if !live_mass {
            return Ok(WindowOutcome::Redundant);
        }
        let mut new_pivot = None;
        for col in 0..cap {
            if coeffs[col] == 0 {
                continue;
            }
            match self.pivot_of[col] {
                Some(row) => {
                    let factor = coeffs[col];
                    bulk::mul_add_slice(&mut coeffs, &self.rows[row], factor);
                    bulk::mul_add_slice(&mut data, &self.payloads[row], factor);
                }
                None => new_pivot = new_pivot.or(Some(col)),
            }
        }
        let Some(col) = new_pivot else {
            return Ok(WindowOutcome::Redundant);
        };
        let inv = Gf256::new(coeffs[col]).inv().value();
        bulk::scale_slice(&mut coeffs, inv);
        bulk::scale_slice(&mut data, inv);
        for r in 0..self.rows.len() {
            let factor = self.rows[r][col];
            bulk::mul_add_slice(&mut self.rows[r], &coeffs, factor);
            bulk::mul_add_slice(&mut self.payloads[r], &data, factor);
        }
        self.pivot_of[col] = Some(self.rows.len());
        self.rows.push(coeffs);
        self.payloads.push(data);

        let first = self.delivered;
        let mut out = Vec::new();
        while let Some(row) = self.pivot_of[0] {
            if !self.rows[row].iter().skip(1).all(|&c| c == 0) {
                break;
            }
            self.rows.remove(row);
            let payload = self.payloads.remove(row);
            for p in self.pivot_of.iter_mut() {
                match *p {
                    Some(r) if r == row => *p = None,
                    Some(r) if r > row => *p = Some(r - 1),
                    _ => {}
                }
            }
            if self.history.len() == cap {
                self.history.pop_front();
            }
            out.push(payload.clone());
            self.history.push_back(payload);
            self.delivered += 1;
            for r in &mut self.rows {
                r.rotate_left(1);
                r[cap - 1] = 0;
            }
            self.pivot_of.remove(0);
            self.pivot_of.push(None);
        }
        Ok(if out.is_empty() {
            WindowOutcome::Innovative
        } else {
            WindowOutcome::Delivered {
                first,
                payloads: out,
            }
        })
    }
}

/// The window recoder's sequential absorb and its recombination, kept as
/// the reference for the coefficient-first absorb and the fused recode.
struct ReferenceWindowRecoder {
    cap: usize,
    floor: u64,
    rows: Vec<Vec<u8>>,
    payloads: Vec<Vec<u8>>,
}

impl ReferenceWindowRecoder {
    fn slide_to(&mut self, new_floor: u64) {
        if new_floor <= self.floor {
            return;
        }
        let shift = (new_floor - self.floor) as usize;
        let cap = self.cap;
        let mut i = 0;
        while i < self.rows.len() {
            let lead = self.rows[i].iter().position(|&c| c != 0).unwrap_or(cap);
            if lead < shift.min(cap) {
                self.rows.remove(i);
                self.payloads.remove(i);
            } else {
                i += 1;
            }
        }
        for r in &mut self.rows {
            if shift >= cap {
                r.fill(0);
            } else {
                r.rotate_left(shift);
                r[cap - shift..].fill(0);
            }
        }
        self.floor = new_floor;
    }

    fn absorb(&mut self, base: u64, coefficients: &[u8], payload: &[u8]) -> bool {
        let cap = self.cap;
        let Some(last) = coefficients.iter().rposition(|&c| c != 0) else {
            return false;
        };
        let top = base + last as u64;
        if top < self.floor {
            return false;
        }
        if self.rows.is_empty() {
            self.floor = self.floor.max(base);
        }
        if top >= self.floor + cap as u64 {
            self.slide_to(top + 1 - cap as u64);
        }
        if base < self.floor
            && coefficients
                .iter()
                .enumerate()
                .any(|(i, &c)| c != 0 && base + (i as u64) < self.floor)
        {
            return false;
        }
        let mut coeffs = vec![0u8; cap];
        let mut data = payload.to_vec();
        for (i, &c) in coefficients.iter().enumerate() {
            if c != 0 {
                coeffs[(base + i as u64 - self.floor) as usize] = c;
            }
        }
        for row in 0..self.rows.len() {
            let lead = self.rows[row].iter().position(|&c| c != 0).unwrap();
            let factor = coeffs[lead];
            bulk::mul_add_slice(&mut coeffs, &self.rows[row], factor);
            bulk::mul_add_slice(&mut data, &self.payloads[row], factor);
        }
        let Some(lead) = coeffs.iter().position(|&c| c != 0) else {
            return false;
        };
        let inv = Gf256::new(coeffs[lead]).inv().value();
        bulk::scale_slice(&mut coeffs, inv);
        bulk::scale_slice(&mut data, inv);
        self.rows.push(coeffs);
        self.payloads.push(data);
        let leading = |r: &[u8]| r.iter().position(|&c| c != 0).unwrap_or(usize::MAX);
        let mut i = self.rows.len() - 1;
        while i > 0 && leading(&self.rows[i]) < leading(&self.rows[i - 1]) {
            self.rows.swap(i, i - 1);
            self.payloads.swap(i, i - 1);
            i -= 1;
        }
        true
    }

    /// `(base, trimmed coefficients, payload)` of one recombination,
    /// drawing the weights exactly as `WindowRecoder::recode_into` does.
    fn recode(&self, rng: &mut StdRng, symbol_size: usize) -> (u64, Vec<u8>, Vec<u8>) {
        let mut weights = vec![0u8; self.rows.len()];
        loop {
            rng.fill(&mut weights[..]);
            if weights.iter().any(|&w| w != 0) {
                break;
            }
        }
        let mut combined = vec![0u8; self.cap];
        let mut payload = vec![0u8; symbol_size];
        for (i, &w) in weights.iter().enumerate() {
            bulk::mul_add_slice(&mut combined, &self.rows[i], w);
            bulk::mul_add_slice(&mut payload, &self.payloads[i], w);
        }
        let width = combined.iter().rposition(|&c| c != 0).map_or(1, |p| p + 1);
        combined.truncate(width);
        (self.floor, combined, payload)
    }
}

/// A windowed packet stream: pushes with their systematic packets,
/// repair combinations of the live window, exact and scaled duplicates
/// of earlier packets (late ones go stale), and cumulative acks that
/// slide the sender window — `(base, coefficients, payload)` triples.
fn window_stream(cfg: WindowConfig, kinds: &[u8], seed: u64) -> Vec<(u64, Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = PayloadPool::new();
    let mut enc = WindowEncoder::new(cfg, SessionId::new(9));
    let mut sent: Vec<(u64, Vec<u8>, Vec<u8>)> = Vec::new();
    for &kind in kinds {
        let packet = match kind % 6 {
            0 | 1 if enc.live() < cfg.capacity() => {
                let mut symbol = vec![0u8; cfg.symbol_size()];
                rng.fill(&mut symbol[..]);
                let index = enc.push(&symbol).unwrap();
                let pkt = enc.systematic_packet_pooled(index, &mut pool).unwrap();
                if kind % 6 == 1 {
                    continue; // lost on the wire
                }
                Some((pkt.base, pkt.coefficients.to_vec(), pkt.payload.to_vec()))
            }
            2 | 3 if enc.live() > 0 => {
                let pkt = enc.coded_packet_pooled(&mut rng, &mut pool).unwrap();
                Some((pkt.base, pkt.coefficients.to_vec(), pkt.payload.to_vec()))
            }
            4 if !sent.is_empty() => {
                let (base, mut c, mut p) = sent[rng.gen_range(0..sent.len())].clone();
                let scale = rng.gen_range(1..=255u8);
                bulk::scale_slice(&mut c, scale);
                bulk::scale_slice(&mut p, scale);
                Some((base, c, p))
            }
            _ => {
                // Acknowledge part of the live window.
                let ack = enc.base() + rng.gen_range(0..=enc.live() as u64);
                enc.handle_ack(ack);
                None
            }
        };
        sent.extend(packet);
    }
    sent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generation decodes from enough random coded packets, for random
    /// layouts, payloads and RNG seeds.
    #[test]
    fn generation_roundtrip(
        block_size in 1usize..64,
        g in 1usize..9,
        seed in any::<u64>(),
        byte in any::<u8>(),
        fill in 1usize..256,
    ) {
        let cfg = GenerationConfig::new(block_size, g).unwrap();
        let len = usize::min(fill, cfg.generation_payload());
        let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sent = 0;
        while !dec.is_complete() {
            let pkt = enc.coded_packet(SessionId::new(1), 0, &mut rng);
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            sent += 1;
            prop_assert!(sent < 40 * g, "failed to converge");
        }
        let decoded = dec.decoded_payload().unwrap();
        prop_assert_eq!(&decoded[..len], &data[..]);
        prop_assert!(decoded[len..].iter().all(|&b| b == 0));
    }

    /// Recoding in the middle never breaks decodability and never grows
    /// the coefficient space.
    #[test]
    fn recode_chain_roundtrip(
        g in 1usize..6,
        chain_len in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(8, g).unwrap();
        let data: Vec<u8> = (0..cfg.generation_payload()).map(|i| (i * 7) as u8).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut chain: Vec<Recoder> =
            (0..chain_len).map(|_| Recoder::new(cfg, SessionId::new(3), 5)).collect();
        let mut dec = GenerationDecoder::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sent = 0;
        while !dec.is_complete() {
            let mut pkt = enc.coded_packet(SessionId::new(3), 5, &mut rng);
            for r in chain.iter_mut() {
                pkt = r.process(&pkt, &mut rng).unwrap();
            }
            dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            sent += 1;
            prop_assert!(sent < 60 * g, "failed to converge through chain");
        }
        prop_assert_eq!(dec.decoded_payload().unwrap(), data);
    }

    /// Decoder rank equals g exactly when decoding succeeds; feeding only
    /// k < g distinct systematic packets never completes.
    #[test]
    fn rank_semantics(g in 2usize..8, k_raw in 1usize..8) {
        let cfg = GenerationConfig::new(4, g).unwrap();
        let k = k_raw % g; // strictly fewer than g
        let data = vec![0xABu8; cfg.generation_payload()];
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        for i in 0..k {
            let pkt = enc.systematic_packet(SessionId::new(0), 0, i);
            let out = dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
            let innovative = matches!(out, ReceiveOutcome::Innovative { .. });
            prop_assert!(innovative);
        }
        prop_assert_eq!(dec.rank(), k);
        prop_assert!(!dec.is_complete());
        prop_assert!(dec.decoded_payload().is_err());
    }

    /// Wire round-trip of arbitrary coded packets.
    #[test]
    fn packet_wire_roundtrip(
        session in any::<u16>(),
        generation in 0u64..u32::MAX as u64,
        coeffs in prop::collection::vec(any::<u8>(), 1..16),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let g = coeffs.len();
        let pkt = CodedPacket::new(
            ncvnf_rlnc::NcHeader {
                session: SessionId::new(session),
                generation,
                coefficients: coeffs.into(),
            },
            bytes::Bytes::from(payload),
        );
        let wire = pkt.to_bytes();
        let back = CodedPacket::from_bytes(&wire, g).unwrap();
        prop_assert_eq!(back, pkt);
    }

    /// Sparse repair streams decode to exactly the same payload as dense
    /// ones, at any density, under the same seeded loss pattern.
    #[test]
    fn sparse_and_dense_decode_equivalence(
        g in 2usize..10,
        density_raw in 1usize..10,
        seed in any::<u64>(),
        drop_mask in any::<u32>(),
    ) {
        let cfg = GenerationConfig::new(16, g).unwrap();
        let data: Vec<u8> =
            (0..cfg.generation_payload()).map(|i| (i * 13 + 5) as u8).collect();
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let nonzeros = 1 + density_raw % g;
        let mut pool = PayloadPool::new();
        for mode in [CodingMode::Dense, CodingMode::Sparse { nonzeros }] {
            let mut dec = GenerationDecoder::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seq = 0u64;
            while !dec.is_complete() {
                let pkt = enc.mode_packet_pooled(
                    mode, SessionId::new(7), 0, seq, &mut rng, &mut pool,
                );
                let dropped = seq < 32 && (drop_mask >> seq) & 1 == 1;
                if !dropped {
                    dec.receive(pkt.coefficients(), pkt.payload()).unwrap();
                }
                pool.recycle(pkt);
                seq += 1;
                prop_assert!(seq < 400 * g as u64, "mode {:?} failed to converge", mode);
            }
            prop_assert_eq!(&dec.decoded_payload().unwrap()[..], &data[..]);
        }
    }

    /// A sliding-window stream and a generational transfer deliver the
    /// same bytes under the same seeded loss pattern.
    #[test]
    fn window_and_generational_delivery_equivalence(
        seed in any::<u64>(),
        drop_mask in any::<u64>(),
    ) {
        let symbol = 32usize;
        let n_symbols = 12usize;
        let data: Vec<u8> =
            (0..symbol * n_symbols).map(|i| (i * 31 + 7) as u8).collect();
        let lost = |i: u64| i < 64 && (drop_mask >> i) & 1 == 1;

        // Generational path: same data, same loss indices.
        let cfg = GenerationConfig::new(symbol, 4).unwrap();
        let enc = ObjectEncoder::new(cfg, SessionId::new(5), &data).unwrap();
        let mut dec = ObjectDecoder::new(cfg, enc.generations());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = 0u64;
        let mut rounds = 0;
        while !dec.is_complete() {
            for gen in 0..enc.generations() {
                let pkt = enc.coded_packet(gen, &mut rng);
                if !lost(idx) {
                    dec.receive(&pkt).unwrap();
                }
                idx += 1;
            }
            rounds += 1;
            prop_assert!(rounds < 100, "generational path failed to converge");
        }
        let generational_bytes = dec.into_object().unwrap();

        // Window path: systematic stream with coded repair, acks
        // sliding the encoder as the delivery cursor advances.
        let window = WindowConfig::new(symbol, 6).unwrap();
        let mut wenc = WindowEncoder::new(window, SessionId::new(5));
        let mut wdec = WindowDecoder::new(window);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = PayloadPool::new();
        let mut delivered: Vec<u8> = Vec::new();
        let mut chunks = data.chunks(symbol);
        let mut sent_all = false;
        let mut idx = 0u64;
        let mut attempts = 0;
        while delivered.len() < data.len() {
            while !sent_all && wenc.live() < window.capacity() {
                let Some(chunk) = chunks.next() else {
                    sent_all = true;
                    break;
                };
                let s = wenc.push(chunk).unwrap();
                let pkt = wenc.systematic_packet_pooled(s, &mut pool).unwrap();
                if !lost(idx) {
                    if let WindowOutcome::Delivered { payloads, .. } =
                        wdec.receive(pkt.base, &pkt.coefficients, &pkt.payload).unwrap()
                    {
                        for p in payloads {
                            delivered.extend_from_slice(&p);
                        }
                    }
                }
                pool.recycle_window(pkt);
                idx += 1;
            }
            if delivered.len() < data.len() {
                let pkt = wenc.coded_packet_pooled(&mut rng, &mut pool).unwrap();
                if !lost(idx) {
                    if let WindowOutcome::Delivered { payloads, .. } =
                        wdec.receive(pkt.base, &pkt.coefficients, &pkt.payload).unwrap()
                    {
                        for p in payloads {
                            delivered.extend_from_slice(&p);
                        }
                    }
                }
                pool.recycle_window(pkt);
                idx += 1;
            }
            wenc.handle_ack(wdec.cumulative_ack());
            attempts += 1;
            prop_assert!(attempts < 2000, "window path failed to converge");
        }
        prop_assert_eq!(&delivered, &generational_bytes);
        prop_assert_eq!(delivered, data);
    }

    /// Coefficient-first elimination (coefficients reduced first, payload
    /// built in one fused pass) is byte-identical to the sequential
    /// lockstep elimination: same outcomes, ranks, RREF rows and pivots
    /// after every packet, and the same decoded blocks.
    #[test]
    fn coefficient_first_decoder_matches_sequential_elimination(
        block_size in 1usize..300,
        g in 1usize..40,
        kinds in prop::collection::vec(any::<u8>(), 1..80),
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(block_size, g).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
        let mut data = vec![0u8; cfg.generation_payload()];
        rng.fill(&mut data[..]);
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut dec = GenerationDecoder::new(cfg);
        let mut reference = ReferenceDecoder::new(g);
        for (coeffs, payload) in mixed_stream(&enc, &kinds, seed) {
            let got = dec.receive(&coeffs, &payload).unwrap();
            prop_assert_eq!(got, reference.receive(&coeffs, &payload));
            prop_assert_eq!(dec.rank(), reference.coeff_rows.len());
            prop_assert_eq!(dec.rows().len(), reference.coeff_rows.len());
            for (i, (c, p)) in dec.rows().enumerate() {
                prop_assert_eq!(c, &reference.coeff_rows[i][..]);
                prop_assert_eq!(p, &reference.payloads[i][..]);
            }
            for col in 0..g {
                prop_assert_eq!(dec.pivot_row(col), reference.pivot_of_col[col]);
            }
        }
        if dec.is_complete() {
            let blocks = dec.decoded_blocks().unwrap();
            for (col, block) in blocks.iter().enumerate() {
                let row = reference.pivot_of_col[col].unwrap();
                prop_assert_eq!(*block, &reference.payloads[row][..]);
            }
            prop_assert_eq!(dec.decoded_payload().unwrap(), data);
        }
    }

    /// The recoder's coefficient-first absorb keeps exactly the rows the
    /// sequential absorb keeps, byte for byte, with the same verdicts.
    #[test]
    fn coefficient_first_recoder_matches_sequential_absorb(
        block_size in 1usize..300,
        g in 1usize..40,
        kinds in prop::collection::vec(any::<u8>(), 1..80),
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(block_size, g).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2EC0);
        let mut data = vec![0u8; cfg.generation_payload()];
        rng.fill(&mut data[..]);
        let enc = GenerationEncoder::new(cfg, &data).unwrap();
        let mut rec = Recoder::new(cfg, SessionId::new(1), 0);
        let mut reference = ReferenceRecoder {
            g,
            coeff_rows: Vec::new(),
            payloads: Vec::new(),
        };
        for (coeffs, payload) in mixed_stream(&enc, &kinds, seed) {
            let got = rec.absorb(&coeffs, &payload).unwrap();
            prop_assert_eq!(got, reference.absorb(&coeffs, &payload));
            prop_assert_eq!(rec.rank(), reference.coeff_rows.len());
            prop_assert_eq!(rec.rows().len(), reference.coeff_rows.len());
            for (i, (c, p)) in rec.rows().enumerate() {
                prop_assert_eq!(c, &reference.coeff_rows[i][..]);
                prop_assert_eq!(p, &reference.payloads[i][..]);
            }
        }
    }

    /// The window decoder's coefficient-first receive gives the same
    /// outcome or error (including every delivered payload), delivery
    /// point and pending rank as the lockstep reference after every
    /// packet.
    #[test]
    fn coefficient_first_window_decoder_matches_sequential_elimination(
        symbol_size in 1usize..200,
        capacity in 1usize..12,
        kinds in prop::collection::vec(any::<u8>(), 1..120),
        seed in any::<u64>(),
    ) {
        let cfg = WindowConfig::new(symbol_size, capacity).unwrap();
        let mut dec = WindowDecoder::new(cfg);
        let mut reference = ReferenceWindowDecoder::new(capacity);
        for (base, coeffs, payload) in window_stream(cfg, &kinds, seed) {
            // The sender's acks run ahead of this receiver, so packets past
            // its window (`WindowFull`) are part of the comparison.
            let got = dec.receive(base, &coeffs, &payload);
            prop_assert_eq!(got, reference.receive(base, &coeffs, &payload));
            prop_assert_eq!(dec.delivered(), reference.delivered);
            prop_assert_eq!(dec.pending_rank(), reference.rows.len());
        }
    }

    /// The window recoder's coefficient-first absorb keeps the same rows
    /// as the lockstep reference: same verdicts, rank and floor, and the
    /// fused recombination emits byte-identical packets from the same
    /// random weights.
    #[test]
    fn coefficient_first_window_recoder_matches_sequential_absorb(
        symbol_size in 1usize..200,
        capacity in 1usize..12,
        kinds in prop::collection::vec(any::<u8>(), 1..120),
        seed in any::<u64>(),
    ) {
        let cfg = WindowConfig::new(symbol_size, capacity).unwrap();
        let mut rec = WindowRecoder::new(cfg, SessionId::new(9));
        let mut reference = ReferenceWindowRecoder {
            cap: capacity,
            floor: 0,
            rows: Vec::new(),
            payloads: Vec::new(),
        };
        let mut pool = PayloadPool::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3C0D);
        for (base, coeffs, payload) in window_stream(cfg, &kinds, seed) {
            let got = rec.absorb(base, &coeffs, &payload).unwrap();
            prop_assert_eq!(got, reference.absorb(base, &coeffs, &payload));
            prop_assert_eq!(rec.rank(), reference.rows.len());
            prop_assert_eq!(rec.floor(), reference.floor);
            if rec.rank() > 0 {
                let (base, coeffs, payload) = reference.recode(&mut rng.clone(), symbol_size);
                let pkt = rec.recode_into(&mut rng, &mut pool).unwrap();
                prop_assert_eq!(pkt.base, base);
                prop_assert_eq!(&pkt.coefficients[..], &coeffs[..]);
                prop_assert_eq!(&pkt.payload[..], &payload[..]);
            }
        }
    }

    /// Object-level framing recovers exact bytes for arbitrary objects.
    #[test]
    fn object_roundtrip(
        object in prop::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
    ) {
        let cfg = GenerationConfig::new(32, 4).unwrap();
        let enc = ObjectEncoder::new(cfg, SessionId::new(2), &object).unwrap();
        let mut dec = ObjectDecoder::new(cfg, enc.generations());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rounds = 0;
        while !dec.is_complete() {
            for g in 0..enc.generations() {
                let pkt = enc.coded_packet(g, &mut rng);
                dec.receive(&pkt).unwrap();
            }
            rounds += 1;
            prop_assert!(rounds < 50, "object decode failed to converge");
        }
        prop_assert_eq!(dec.into_object().unwrap(), object);
    }
}
