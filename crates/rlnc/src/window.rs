//! Sliding-window (finite-window streaming) coding.
//!
//! The generational codec batches data into fixed generations and decodes
//! whole generations at once — throughput-optimal, but a latency-sensitive
//! stream stalls for a full generation on any loss. This module trades a
//! little throughput for bounded latency: the sender keeps a finite
//! **window** of the most recent unacknowledged symbols, every coded
//! packet combines only symbols inside that window, and the receiver
//! delivers symbols *in order* the moment they become determined —
//! no generation boundaries, no batch stalls.
//!
//! Wire format: [`WindowPacket`] / [`WindowAck`](crate::WindowAck)
//! (kinds 2 and 3 next to the legacy generational header — see
//! [`NcHeader`](crate::NcHeader)).
//!
//! # Window lifecycle
//!
//! A symbol moves through four stages: **pushed** into the sender window,
//! **covered** by systematic + repair packets, **delivered** in order by
//! the receiver, and **acked** back — which slides the sender's window
//! base forward and frees space for new symbols:
//!
//! ```
//! use ncvnf_rlnc::window::{WindowConfig, WindowDecoder, WindowEncoder, WindowOutcome};
//! use ncvnf_rlnc::{PayloadPool, SessionId};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = WindowConfig::new(32, 8).unwrap(); // 32-byte symbols, window of 8
//! let mut enc = WindowEncoder::new(cfg, SessionId::new(1));
//! let mut dec = WindowDecoder::new(cfg);
//! let (mut rng, mut pool) = (StdRng::seed_from_u64(7), PayloadPool::new());
//!
//! // Push two symbols; emit them systematically; the receiver delivers
//! // each in order on arrival.
//! for i in 0..2u8 {
//!     let idx = enc.push(&[i; 32]).unwrap();
//!     let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
//!     let out = dec.receive(pkt.base, &pkt.coefficients, &pkt.payload).unwrap();
//!     assert!(matches!(out, WindowOutcome::Delivered { .. }));
//! }
//! assert_eq!(dec.delivered(), 2);
//!
//! // The cumulative ack slides the sender window: both symbols leave it.
//! enc.handle_ack(dec.cumulative_ack());
//! assert_eq!(enc.base(), 2);
//! assert_eq!(enc.live(), 0);
//! ```
//!
//! Loss is repaired from the **live window**: a receiver that detects a
//! gap sends a [`WindowAck`](crate::WindowAck) with `repair_wanted > 0`, and the sender
//! answers with [`WindowEncoder::coded_packet_pooled`] bursts — random
//! combinations of exactly the unacknowledged symbols, so any
//! `missing` independent repair packets close the gap.

use std::collections::VecDeque;

use rand::Rng;

use ncvnf_gf256::bulk;
use ncvnf_gf256::{Field, Gf256};

use crate::error::CodecError;
use crate::header::{SessionId, WindowPacket};
use crate::pool::PayloadPool;
use crate::row::AlignedRow;

/// Layout of a windowed stream: symbol size in bytes and the maximum
/// number of in-flight (unacknowledged) symbols.
///
/// The window capacity is bounded by [`WindowPacket::MAX_WIDTH`] (255)
/// because the wire format's width byte must cover the whole window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowConfig {
    symbol_size: usize,
    capacity: usize,
}

impl WindowConfig {
    /// Creates a window layout.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] if `symbol_size` is zero or
    /// `capacity` is outside `1..=255`.
    pub fn new(symbol_size: usize, capacity: usize) -> Result<Self, CodecError> {
        if symbol_size == 0 {
            return Err(CodecError::InvalidConfig {
                reason: "symbol size must be positive".into(),
            });
        }
        if capacity == 0 || capacity > WindowPacket::MAX_WIDTH {
            return Err(CodecError::InvalidConfig {
                reason: format!(
                    "window capacity {capacity} outside 1..={}",
                    WindowPacket::MAX_WIDTH
                ),
            });
        }
        Ok(WindowConfig {
            symbol_size,
            capacity,
        })
    }

    /// Bytes per stream symbol.
    pub fn symbol_size(&self) -> usize {
        self.symbol_size
    }

    /// Maximum in-flight symbols (the window size `W`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Source side of a windowed stream: owns the live window of
/// unacknowledged symbols and emits systematic and repair packets over
/// it.
#[derive(Debug, Clone)]
pub struct WindowEncoder {
    config: WindowConfig,
    session: SessionId,
    /// Absolute index of the oldest live symbol.
    base: u64,
    /// Live symbols, `base` first; each exactly `symbol_size` long.
    symbols: VecDeque<AlignedRow>,
}

impl WindowEncoder {
    /// Creates an encoder with an empty window starting at index 0.
    pub fn new(config: WindowConfig, session: SessionId) -> Self {
        WindowEncoder {
            config,
            session,
            base: 0,
            symbols: VecDeque::with_capacity(config.capacity()),
        }
    }

    /// The stream layout.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Absolute index of the oldest unacknowledged symbol.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Symbols currently in the window.
    pub fn live(&self) -> usize {
        self.symbols.len()
    }

    /// Index the next [`push`](Self::push) will occupy.
    pub fn next_index(&self) -> u64 {
        self.base + self.symbols.len() as u64
    }

    /// Appends one symbol to the window; returns its absolute index.
    /// Short symbols are zero-padded to the configured size.
    ///
    /// # Errors
    ///
    /// [`CodecError::WindowFull`] if the window is at capacity (wait for
    /// an ack); [`CodecError::PayloadSize`] if `data` is empty or longer
    /// than one symbol.
    pub fn push(&mut self, data: &[u8]) -> Result<u64, CodecError> {
        if self.symbols.len() >= self.config.capacity() {
            return Err(CodecError::WindowFull {
                capacity: self.config.capacity(),
            });
        }
        if data.is_empty() || data.len() > self.config.symbol_size() {
            return Err(CodecError::PayloadSize {
                expected: self.config.symbol_size(),
                actual: data.len(),
            });
        }
        let mut symbol = AlignedRow::zeroed(self.config.symbol_size());
        symbol[..data.len()].copy_from_slice(data);
        self.symbols.push_back(symbol);
        Ok(self.base + self.symbols.len() as u64 - 1)
    }

    /// Slides the window base forward: all symbols below `cumulative`
    /// are acknowledged and leave the window.
    pub fn handle_ack(&mut self, cumulative: u64) {
        while self.base < cumulative && !self.symbols.is_empty() {
            self.symbols.pop_front();
            self.base += 1;
        }
    }

    /// Emits symbol `index` verbatim (width-1 unit coefficient vector —
    /// the cheapest possible wire form, 14 bytes of overhead).
    ///
    /// # Errors
    ///
    /// [`CodecError::EmptyRecoder`] if `index` is not in the live window.
    pub fn systematic_packet_pooled(
        &self,
        index: u64,
        pool: &mut PayloadPool,
    ) -> Result<WindowPacket, CodecError> {
        let rel = index.checked_sub(self.base).map(|r| r as usize);
        let Some(symbol) = rel.and_then(|r| self.symbols.get(r)) else {
            return Err(CodecError::EmptyRecoder);
        };
        let mut coefficients = pool.checkout_zeroed(1);
        coefficients[0] = 1;
        let payload = pool.checkout_copy(symbol);
        Ok(WindowPacket {
            session: self.session,
            base: index,
            coefficients: coefficients.freeze(),
            payload: payload.freeze(),
        })
    }

    /// Emits one repair packet: a uniformly random (never all-zero)
    /// combination of every live symbol. Any `k` such packets repair `k`
    /// losses anywhere in the window with high probability.
    ///
    /// # Errors
    ///
    /// [`CodecError::EmptyRecoder`] if the window is empty.
    pub fn coded_packet_pooled<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<WindowPacket, CodecError> {
        if self.symbols.is_empty() {
            return Err(CodecError::EmptyRecoder);
        }
        let w = self.symbols.len();
        let mut coefficients = pool.checkout_zeroed(w);
        loop {
            rng.fill(&mut coefficients[..]);
            if coefficients.iter().any(|&c| c != 0) {
                break;
            }
        }
        let mut payload = pool.checkout_zeroed(self.config.symbol_size());
        mul_add_deque(&mut payload, &coefficients, &self.symbols);
        Ok(WindowPacket {
            session: self.session,
            base: self.base,
            coefficients: coefficients.freeze(),
            payload: payload.freeze(),
        })
    }

    /// Appends `count` repair packets to `out` (the NACK-burst emit path:
    /// recovery answers a [`crate::WindowAck`] with `repair_wanted`
    /// fresh combinations from the live window).
    ///
    /// # Errors
    ///
    /// [`CodecError::EmptyRecoder`] if the window is empty.
    pub fn repair_burst_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        pool: &mut PayloadPool,
        out: &mut Vec<WindowPacket>,
    ) -> Result<(), CodecError> {
        out.reserve(count);
        for _ in 0..count {
            out.push(self.coded_packet_pooled(rng, pool)?);
        }
        Ok(())
    }
}

/// What a [`WindowDecoder`] did with one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowOutcome {
    /// One or more symbols became determined and were delivered in
    /// order.
    Delivered {
        /// Absolute index of the first delivered symbol.
        first: u64,
        /// The delivered symbols, consecutive from `first`.
        payloads: Vec<Vec<u8>>,
    },
    /// The packet added rank but nothing was deliverable yet.
    Innovative,
    /// The packet was linearly dependent on what the decoder holds.
    Redundant,
    /// The packet only referenced symbols older than the retained
    /// history (a very late duplicate); it was dropped.
    Stale,
}

/// Receiver side of a windowed stream: in-order delivery with
/// progressive elimination over a sliding column range.
///
/// Columns are absolute symbol indices. The matrix spans
/// `[delivered, delivered + capacity)`; already-delivered symbols are
/// retained (up to one window's worth) so late packets that still
/// reference them can be reduced against known data instead of being
/// dropped.
#[derive(Debug, Clone)]
pub struct WindowDecoder {
    config: WindowConfig,
    /// Next in-order symbol index to deliver (everything below is done).
    delivered: u64,
    /// Recently delivered symbols, oldest first; the retained lookback
    /// for packets whose window still covers delivered columns.
    history: VecDeque<AlignedRow>,
    /// RREF rows over columns `delivered..delivered + capacity`,
    /// relative to `delivered`.
    rows: Vec<Vec<u8>>,
    payloads: Vec<AlignedRow>,
    /// `pivot_of[c] = Some(row)` if relative column `c` is a pivot.
    pivot_of: Vec<Option<usize>>,
    coeff_scratch: Vec<u8>,
    data_scratch: AlignedRow,
    /// `factors[row]`: the multiple of RREF row `row` the incoming packet
    /// is reduced by (coefficient-first elimination).
    factors: Vec<u8>,
    /// `history_factors[i]`: the multiple of `history[i]` the incoming
    /// packet carries.
    history_factors: Vec<u8>,
    packets_seen: u64,
}

impl WindowDecoder {
    /// Creates an empty decoder expecting symbol 0 first.
    pub fn new(config: WindowConfig) -> Self {
        WindowDecoder {
            config,
            delivered: 0,
            history: VecDeque::with_capacity(config.capacity()),
            rows: Vec::new(),
            payloads: Vec::new(),
            pivot_of: vec![None; config.capacity()],
            coeff_scratch: vec![0u8; config.capacity()],
            data_scratch: AlignedRow::zeroed(config.symbol_size()),
            factors: vec![0u8; config.capacity()],
            history_factors: Vec::with_capacity(config.capacity()),
            packets_seen: 0,
        }
    }

    /// The stream layout.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Symbols delivered in order so far (also the next expected index).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The cumulative-ack value to send back: the next symbol index this
    /// decoder needs.
    pub fn cumulative_ack(&self) -> u64 {
        self.delivered
    }

    /// Undelivered rank currently held (independent combinations beyond
    /// the delivery point).
    pub fn pending_rank(&self) -> usize {
        self.rows.len()
    }

    /// Packets fed to this decoder, including redundant/stale ones.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Absorbs one windowed packet (`coefficients[i]` applies to symbol
    /// `base + i`) and delivers any symbols that became determined.
    ///
    /// # Errors
    ///
    /// [`CodecError::PayloadSize`] on a wrong-size payload;
    /// [`CodecError::CoefficientCount`] on an empty or over-wide
    /// coefficient vector; [`CodecError::WindowFull`] if the packet
    /// references symbols beyond what this window can hold (sender and
    /// receiver disagree on the capacity).
    pub fn receive(
        &mut self,
        base: u64,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<WindowOutcome, CodecError> {
        let cap = self.config.capacity();
        if payload.len() != self.config.symbol_size() {
            return Err(CodecError::PayloadSize {
                expected: self.config.symbol_size(),
                actual: payload.len(),
            });
        }
        if coefficients.is_empty() || coefficients.len() > WindowPacket::MAX_WIDTH {
            return Err(CodecError::CoefficientCount {
                expected: cap,
                actual: coefficients.len(),
            });
        }
        self.packets_seen += 1;

        // Align the packet onto the matrix columns: contributions from
        // already-delivered symbols are recorded against the retained
        // history; live columns land in the scratch row.
        let floor = self.delivered - self.history.len() as u64;
        self.coeff_scratch.fill(0);
        self.history_factors.clear();
        self.history_factors.resize(self.history.len(), 0);
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
                self.history_factors[(col - floor) as usize] = c;
            } else {
                let rel = (col - self.delivered) as usize;
                if rel >= cap {
                    return Err(CodecError::WindowFull { capacity: cap });
                }
                self.coeff_scratch[rel] = c;
                live_mass = true;
            }
        }
        if !live_mass {
            // Every referenced symbol was already delivered.
            return Ok(WindowOutcome::Redundant);
        }

        // Standard progressive RREF absorb over the relative columns, on
        // the coefficients first (see `GenerationDecoder::receive`): the
        // payload row is built in one fused pass only once the packet is
        // known to be innovative.
        let rank = self.rows.len();
        self.factors[..rank].fill(0);
        let mut new_pivot = None;
        for col in 0..cap {
            let factor = self.coeff_scratch[col];
            if factor == 0 {
                continue;
            }
            match self.pivot_of[col] {
                Some(row) => {
                    bulk::mul_add_slice(&mut self.coeff_scratch, &self.rows[row], factor);
                    self.factors[row] = factor;
                }
                None => {
                    if new_pivot.is_none() {
                        new_pivot = Some(col);
                    }
                }
            }
        }
        let Some(col) = new_pivot else {
            return Ok(WindowOutcome::Redundant);
        };
        let inv = Gf256::new(self.coeff_scratch[col]).inv().value();
        bulk::scale_slice(&mut self.coeff_scratch, inv);
        bulk::scale_slice(&mut self.factors[..rank], inv);
        bulk::scale_slice(&mut self.history_factors, inv);
        bulk::mul_slice(&mut self.data_scratch, payload, inv);
        mul_add_deque(&mut self.data_scratch, &self.history_factors, &self.history);
        bulk::mul_add_rows(
            &mut self.data_scratch,
            &self.factors[..rank],
            &self.payloads,
        );
        let new_row = self.rows.len();
        for r in 0..new_row {
            let factor = self.rows[r][col];
            if factor != 0 {
                bulk::mul_add_slice(&mut self.rows[r], &self.coeff_scratch, factor);
                bulk::mul_add_slice(&mut self.payloads[r], &self.data_scratch, factor);
            }
        }
        self.rows.push(self.coeff_scratch.clone());
        self.payloads.push(self.data_scratch.clone());
        self.pivot_of[col] = Some(new_row);

        // In-order delivery: while the front column's pivot row is a
        // unit vector, that symbol is fully determined — hand it out and
        // slide the matrix left one column.
        let first = self.delivered;
        let mut out = Vec::new();
        while let Some(row) = self.pivot_of[0] {
            if !self.rows[row].iter().skip(1).all(|&c| c == 0) {
                break;
            }
            let payload = self.remove_row(row);
            if self.history.len() == cap {
                self.history.pop_front();
            }
            out.push(payload.to_vec());
            self.history.push_back(payload);
            self.delivered += 1;
            // Slide every remaining row (and the pivot map) left; the
            // departed column is zero everywhere else by full reduction.
            for r in &mut self.rows {
                r.rotate_left(1);
                r[cap - 1] = 0;
            }
            self.pivot_of.remove(0);
            self.pivot_of.push(None);
        }
        if out.is_empty() {
            Ok(WindowOutcome::Innovative)
        } else {
            Ok(WindowOutcome::Delivered {
                first,
                payloads: out,
            })
        }
    }

    /// Removes row `row`, fixing up the pivot map, and returns its
    /// payload.
    fn remove_row(&mut self, row: usize) -> AlignedRow {
        self.rows.remove(row);
        let payload = self.payloads.remove(row);
        for p in self.pivot_of.iter_mut() {
            match *p {
                Some(r) if r == row => *p = None,
                Some(r) if r > row => *p = Some(r - 1),
                _ => {}
            }
        }
        payload
    }
}

/// In-network recoder for windowed streams: buffers independent
/// combinations and emits fresh ones, exactly like the generational
/// [`Recoder`](crate::Recoder) but over a sliding column range.
///
/// Coefficients align by absolute symbol index, so combinations of
/// packets with *different* bases remain valid windowed packets — the
/// defining recoding property carries over to streams.
#[derive(Debug, Clone)]
pub struct WindowRecoder {
    config: WindowConfig,
    session: SessionId,
    /// Base column of the buffer; advances with acks or when traffic
    /// moves past the capacity.
    floor: u64,
    /// Buffered echelon rows relative to `floor` (sorted by leading
    /// index, leading entries normalized to 1).
    rows: Vec<Vec<u8>>,
    payloads: Vec<AlignedRow>,
    coeff_scratch: Vec<u8>,
    data_scratch: AlignedRow,
    /// `factors[row]`: the multiple of buffered row `row` the incoming
    /// packet is reduced by (coefficient-first elimination).
    factors: Vec<u8>,
    weights_scratch: Vec<u8>,
    packets_in: u64,
    packets_out: u64,
}

impl WindowRecoder {
    /// Creates an empty windowed recoder.
    pub fn new(config: WindowConfig, session: SessionId) -> Self {
        WindowRecoder {
            config,
            session,
            floor: 0,
            rows: Vec::new(),
            payloads: Vec::new(),
            coeff_scratch: vec![0u8; config.capacity()],
            data_scratch: AlignedRow::zeroed(config.symbol_size()),
            factors: vec![0u8; config.capacity()],
            weights_scratch: Vec::new(),
            packets_in: 0,
            packets_out: 0,
        }
    }

    /// The session this recoder serves.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Independent combinations currently buffered.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Packets absorbed so far.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Packets emitted so far.
    pub fn packets_out(&self) -> u64 {
        self.packets_out
    }

    /// Oldest symbol index the buffer can still represent.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Slides the buffer floor to `cumulative` (symbols below it are
    /// delivered end-to-end; rows pinned below the new floor are
    /// dropped).
    pub fn handle_ack(&mut self, cumulative: u64) {
        self.slide_to(cumulative);
    }

    fn slide_to(&mut self, new_floor: u64) {
        if new_floor <= self.floor {
            return;
        }
        let shift = (new_floor - self.floor) as usize;
        let cap = self.config.capacity();
        let mut i = 0;
        while i < self.rows.len() {
            let lead = self.rows[i].iter().position(|&c| c != 0).unwrap_or(cap);
            if lead < shift.min(cap) {
                // Row references evicted columns; it cannot be shifted.
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

    /// Buffers one windowed packet; returns whether it was innovative.
    ///
    /// Packets entirely below the floor are dropped (`Ok(false)`); a
    /// packet reaching past `floor + capacity` slides the floor forward
    /// (the stream has moved on — old rows that cannot follow are
    /// evicted).
    ///
    /// # Errors
    ///
    /// [`CodecError::PayloadSize`] / [`CodecError::CoefficientCount`] on
    /// shape mismatches.
    pub fn absorb(
        &mut self,
        base: u64,
        coefficients: &[u8],
        payload: &[u8],
    ) -> Result<bool, CodecError> {
        let cap = self.config.capacity();
        if payload.len() != self.config.symbol_size() {
            return Err(CodecError::PayloadSize {
                expected: self.config.symbol_size(),
                actual: payload.len(),
            });
        }
        if coefficients.is_empty() || coefficients.len() > WindowPacket::MAX_WIDTH {
            return Err(CodecError::CoefficientCount {
                expected: cap,
                actual: coefficients.len(),
            });
        }
        self.packets_in += 1;
        let Some(last) = coefficients.iter().rposition(|&c| c != 0) else {
            return Ok(false);
        };
        let top = base + last as u64; // highest referenced column
        if top < self.floor {
            return Ok(false); // entirely stale
        }
        if self.rows.is_empty() {
            // First live packet pins the buffer to the stream position.
            self.floor = self.floor.max(base);
        }
        if top >= self.floor + cap as u64 {
            self.slide_to(top + 1 - cap as u64);
        }
        if base < self.floor {
            // Partially stale: references evicted columns we cannot
            // represent — drop rather than corrupt the buffer.
            if coefficients
                .iter()
                .enumerate()
                .any(|(i, &c)| c != 0 && base + (i as u64) < self.floor)
            {
                return Ok(false);
            }
        }
        // Align onto the relative columns and eliminate triangularly, on
        // the coefficients first; the payload follows in one fused pass
        // only for an innovative packet.
        self.coeff_scratch.fill(0);
        for (i, &c) in coefficients.iter().enumerate() {
            if c != 0 {
                let rel = (base + i as u64 - self.floor) as usize;
                self.coeff_scratch[rel] = c;
            }
        }
        let rank = self.rows.len();
        for row in 0..rank {
            let lead = self.rows[row]
                .iter()
                .position(|&c| c != 0)
                .expect("buffered rows are nonzero");
            // Leading entries are normalized to 1 on insert.
            let factor = self.coeff_scratch[lead];
            self.factors[row] = factor;
            bulk::mul_add_slice(&mut self.coeff_scratch, &self.rows[row], factor);
        }
        let Some(lead) = self.coeff_scratch.iter().position(|&c| c != 0) else {
            return Ok(false);
        };
        let inv = Gf256::new(self.coeff_scratch[lead]).inv().value();
        bulk::scale_slice(&mut self.coeff_scratch, inv);
        bulk::scale_slice(&mut self.factors[..rank], inv);
        bulk::mul_slice(&mut self.data_scratch, payload, inv);
        bulk::mul_add_rows(
            &mut self.data_scratch,
            &self.factors[..rank],
            &self.payloads,
        );
        self.rows.push(self.coeff_scratch.clone());
        self.payloads.push(self.data_scratch.clone());
        let mut i = self.rows.len() - 1;
        while i > 0 && leading(&self.rows[i]) < leading(&self.rows[i - 1]) {
            self.rows.swap(i, i - 1);
            self.payloads.swap(i, i - 1);
            i -= 1;
        }
        Ok(true)
    }

    /// Emits a fresh random combination of the buffered rows as a
    /// windowed packet (buffers from `pool`; allocation-free once warm).
    ///
    /// # Errors
    ///
    /// [`CodecError::EmptyRecoder`] if nothing is buffered.
    pub fn recode_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        pool: &mut PayloadPool,
    ) -> Result<WindowPacket, CodecError> {
        if self.rows.is_empty() {
            return Err(CodecError::EmptyRecoder);
        }
        let cap = self.config.capacity();
        self.weights_scratch.resize(self.rows.len(), 0);
        loop {
            rng.fill(&mut self.weights_scratch[..]);
            if self.weights_scratch.iter().any(|&w| w != 0) {
                break;
            }
        }
        let mut combined = pool.checkout_zeroed(cap);
        let mut payload = pool.checkout_zeroed(self.config.symbol_size());
        bulk::mul_add_rows(&mut combined, &self.weights_scratch, &self.rows);
        bulk::mul_add_rows(&mut payload, &self.weights_scratch, &self.payloads);
        // Trim to the populated span so the wire width stays minimal.
        let width = combined.iter().rposition(|&c| c != 0).map_or(1, |p| p + 1);
        combined.resize(width, 0);
        self.packets_out += 1;
        Ok(WindowPacket {
            session: self.session,
            base: self.floor,
            coefficients: combined.freeze(),
            payload: payload.freeze(),
        })
    }
}

/// `out ^= Σ coeffs[i] * rows[i]` over a deque: one fused pass per
/// contiguous half of its ring buffer.
fn mul_add_deque(out: &mut [u8], coeffs: &[u8], rows: &VecDeque<AlignedRow>) {
    let (front, back) = rows.as_slices();
    let (front_coeffs, back_coeffs) = coeffs.split_at(front.len());
    bulk::mul_add_rows(out, front_coeffs, front);
    bulk::mul_add_rows(out, back_coeffs, back);
}

fn leading(row: &[u8]) -> usize {
    row.iter().position(|&c| c != 0).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> WindowConfig {
        WindowConfig::new(16, 4).unwrap()
    }

    fn symbol(tag: u8) -> Vec<u8> {
        (0..16).map(|i| tag.wrapping_mul(31) ^ i).collect()
    }

    #[test]
    fn config_rejects_degenerate_layouts() {
        assert!(WindowConfig::new(0, 4).is_err());
        assert!(WindowConfig::new(16, 0).is_err());
        assert!(WindowConfig::new(16, 256).is_err());
        assert!(WindowConfig::new(16, 255).is_ok());
    }

    #[test]
    fn systematic_stream_delivers_in_order() {
        let mut enc = WindowEncoder::new(cfg(), SessionId::new(1));
        let mut dec = WindowDecoder::new(cfg());
        let mut pool = PayloadPool::new();
        for tag in 0..10u8 {
            let idx = enc.push(&symbol(tag)).unwrap();
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            let out = dec
                .receive(pkt.base, &pkt.coefficients, &pkt.payload)
                .unwrap();
            match out {
                WindowOutcome::Delivered { first, payloads } => {
                    assert_eq!(first, idx);
                    assert_eq!(payloads, vec![symbol(tag)]);
                }
                other => panic!("unexpected {other:?}"),
            }
            enc.handle_ack(dec.cumulative_ack());
        }
        assert_eq!(dec.delivered(), 10);
        assert_eq!(enc.live(), 0);
    }

    #[test]
    fn window_full_blocks_push_until_ack() {
        let mut enc = WindowEncoder::new(cfg(), SessionId::new(1));
        for tag in 0..4u8 {
            enc.push(&symbol(tag)).unwrap();
        }
        assert!(matches!(
            enc.push(&symbol(9)),
            Err(CodecError::WindowFull { capacity: 4 })
        ));
        enc.handle_ack(2);
        assert_eq!(enc.base(), 2);
        assert!(enc.push(&symbol(9)).is_ok());
    }

    #[test]
    fn repair_burst_recovers_a_lost_symbol() {
        let mut enc = WindowEncoder::new(cfg(), SessionId::new(1));
        let mut dec = WindowDecoder::new(cfg());
        let mut pool = PayloadPool::new();
        let mut rng = StdRng::seed_from_u64(5);
        // Push 3 symbols; drop the middle systematic packet.
        for tag in 0..3u8 {
            let idx = enc.push(&symbol(tag)).unwrap();
            if tag == 1 {
                continue; // lost on the wire
            }
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            dec.receive(pkt.base, &pkt.coefficients, &pkt.payload)
                .unwrap();
        }
        // Symbol 0 delivered; 2 is held back behind the gap.
        assert_eq!(dec.delivered(), 1);
        assert_eq!(dec.pending_rank(), 1);
        // One repair combination from the live window closes the gap and
        // releases both pending symbols in order.
        let mut burst = Vec::new();
        enc.repair_burst_into(1, &mut rng, &mut pool, &mut burst)
            .unwrap();
        let out = dec
            .receive(burst[0].base, &burst[0].coefficients, &burst[0].payload)
            .unwrap();
        match out {
            WindowOutcome::Delivered { first, payloads } => {
                assert_eq!(first, 1);
                assert_eq!(payloads, vec![symbol(1), symbol(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(dec.delivered(), 3);
    }

    #[test]
    fn late_duplicates_are_stale_or_redundant_not_corrupting() {
        let mut enc = WindowEncoder::new(cfg(), SessionId::new(1));
        let mut dec = WindowDecoder::new(cfg());
        let mut pool = PayloadPool::new();
        let mut kept = Vec::new();
        for tag in 0..6u8 {
            let idx = enc.push(&symbol(tag)).unwrap();
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            kept.push(pkt.clone());
            dec.receive(pkt.base, &pkt.coefficients, &pkt.payload)
                .unwrap();
            enc.handle_ack(dec.cumulative_ack());
        }
        // Replaying a recent packet: its symbol is within the retained
        // history, so it reduces to nothing.
        let recent = &kept[4];
        assert_eq!(
            dec.receive(recent.base, &recent.coefficients, &recent.payload)
                .unwrap(),
            WindowOutcome::Redundant
        );
        // Push the history window far past symbol 0, then replay it:
        // only referenced columns older than the lookback are Stale.
        for tag in 6..12u8 {
            let idx = enc.push(&symbol(tag)).unwrap();
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            dec.receive(pkt.base, &pkt.coefficients, &pkt.payload)
                .unwrap();
            enc.handle_ack(dec.cumulative_ack());
        }
        let ancient = &kept[0];
        assert_eq!(
            dec.receive(ancient.base, &ancient.coefficients, &ancient.payload)
                .unwrap(),
            WindowOutcome::Stale
        );
        assert_eq!(dec.delivered(), 12);
    }

    #[test]
    fn recoder_mixes_packets_with_different_bases() {
        let mut enc = WindowEncoder::new(cfg(), SessionId::new(2));
        let mut rec = WindowRecoder::new(cfg(), SessionId::new(2));
        let mut dec = WindowDecoder::new(cfg());
        let mut pool = PayloadPool::new();
        let mut rng = StdRng::seed_from_u64(11);
        // Two systematic packets with different bases land in the relay.
        for tag in 0..2u8 {
            let idx = enc.push(&symbol(tag)).unwrap();
            let pkt = enc.systematic_packet_pooled(idx, &mut pool).unwrap();
            assert!(rec
                .absorb(pkt.base, &pkt.coefficients, &pkt.payload)
                .unwrap());
        }
        assert_eq!(rec.rank(), 2);
        // Recoded combinations of both still decode at the end host.
        let mut steps = 0;
        while dec.delivered() < 2 {
            let out = rec.recode_into(&mut rng, &mut pool).unwrap();
            dec.receive(out.base, &out.coefficients, &out.payload)
                .unwrap();
            steps += 1;
            assert!(steps < 32, "windowed recode failed to converge");
        }
        assert_eq!(dec.delivered(), 2);
    }

    #[test]
    fn recoder_slides_with_the_stream() {
        let big = WindowConfig::new(16, 4).unwrap();
        let mut rec = WindowRecoder::new(big, SessionId::new(3));
        let mut pool = PayloadPool::new();
        // Absorb unit packets far apart: the buffer follows the stream,
        // evicting rows that fall behind.
        for idx in [0u64, 1, 9, 10] {
            rec.absorb(idx, &[1u8], &symbol(idx as u8)).unwrap();
        }
        assert!(rec.floor() >= 7, "floor slid forward, got {}", rec.floor());
        assert!(rec.rank() >= 2);
        // Acks slide the floor too.
        rec.handle_ack(11);
        assert_eq!(rec.floor(), 11);
        assert_eq!(rec.rank(), 0);
        assert!(matches!(
            rec.recode_into(&mut StdRng::seed_from_u64(1), &mut pool),
            Err(CodecError::EmptyRecoder)
        ));
    }
}
