//! The source → recoder `RelayNode` → decoder chain over loopback UDP.
//!
//! The source and the decoder are one thread of the benchmark's own; the
//! relay is the program under test, spawned with `RelayNode::spawn` (or
//! on a `FaultSocket`) and configured over its control socket exactly as
//! a controller would. The relay runs its production `relay_batch` /
//! `recvmmsg` data loop.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ncvnf_relay::{
    DatagramSocket, FaultConfig, FaultHandle, FaultSocket, RecvBatch, RelayConfig, RelayNode,
    SendBatch, MAX_BATCH,
};
use ncvnf_rlnc::{
    GenerationConfig, GenerationDecoder, GenerationEncoder, NcHeader, PacketView, PayloadPool,
    ReceiveOutcome, SessionId,
};

use crate::probe::Prober;
use crate::trace::Tracer;
use crate::util::{process_cpu_ns, thread_cpu_ns, us};

/// Engine shards of the relay under test (pinned; `NCVNF_SHARDS` is
/// ignored).
pub const RELAY_SHARDS: usize = 1;
/// Bytes per source block (the paper's packet payload).
pub const BLOCK_SIZE: usize = 1460;
/// Relay buffer capacity, in generations.
pub const RELAY_BUFFER_GENERATIONS: usize = 256;
/// Wire bytes the closed loop keeps in flight: half of this host class's
/// `net.core.rmem_default` (212992), so the window never overruns a
/// receive queue and the loop measures the relay, not kernel drops.
pub const WINDOW_BYTES: usize = 106_496;
/// Session the chain's data travels on.
pub const DATA_SESSION: u16 = 1;
/// Timed chain set-ups per run; `setup_s` is their median. On the lossy
/// relay about a fifth of first generations are lost and resent, so the
/// median needs enough set-ups that this share stays steady.
pub const SETUP_REPS: usize = 41;
/// A closed-loop generation not decoded this long after its send is
/// counted as failed and its window slot freed.
pub const CLOSED_TIMEOUT: Duration = Duration::from_millis(50);
/// The same for the open loop; a failed generation's latency sample is
/// this value (a failure misses every latency limit).
pub const OPEN_TIMEOUT: Duration = Duration::from_millis(200);
/// Closed-loop measurement block; goodput and CPU are medians of blocks.
pub const BLOCK_SECS: f64 = 0.5;
/// Receive buffer of the decoder endpoint's socket. The decoder is the
/// benchmark's own endpoint, sized so that its scheduling stalls do not
/// drop what the relay delivered; the relay keeps the default buffer.
const RX_RCVBUF: i32 = 4 << 20;
/// Decoder slots (generations that can be open at once).
const RX_SLOTS: u64 = 4096;

/// Generation layout of a workload: `g` blocks of [`BLOCK_SIZE`].
pub fn layout(g: usize) -> GenerationConfig {
    GenerationConfig::new(BLOCK_SIZE, g).expect("valid generation layout")
}

/// The source's data: a seeded set of distinct generation payloads that
/// the source cycles through (generation `n` carries set `n % len`).
pub struct DataSet {
    pub cfg: GenerationConfig,
    encoders: Vec<GenerationEncoder>,
}

impl DataSet {
    /// About 1.5 MB of seeded random payload, at least 8 generations.
    pub fn new(cfg: GenerationConfig, seed: u64) -> DataSet {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_DA7A);
        let count = (1_500_000 / cfg.generation_payload()).max(8);
        let encoders = (0..count)
            .map(|_| {
                let mut data = vec![0u8; cfg.generation_payload()];
                rng.fill(&mut data[..]);
                GenerationEncoder::new(cfg, &data).expect("payload fits a generation")
            })
            .collect();
        DataSet { cfg, encoders }
    }

    pub fn encoder(&self, gen: u64) -> &GenerationEncoder {
        &self.encoders[(gen % self.encoders.len() as u64) as usize]
    }
}

/// How one generation ended at the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Full rank and byte-identical to the source's blocks.
    Decoded,
    /// Full rank but the bytes differ: a correctness failure.
    Mismatch,
    /// Every packet of the generation arrived without reaching full
    /// rank (recoded NC1's inherent rank-deficiency floor).
    RankDeficient,
}

struct Slot {
    gen: u64,
    decoder: GenerationDecoder,
    seen: usize,
    done: bool,
}

/// The decoder endpoint's logic, separate from its socket so tests can
/// feed it datagrams directly.
pub struct GenReceiver {
    data: Arc<DataSet>,
    session: SessionId,
    per_gen: usize,
    slots: Vec<Option<Slot>>,
    /// NC datagrams of the session received.
    pub packets: u64,
    /// Of those, the ones that raised a decoder's rank.
    pub innovative: u64,
}

impl GenReceiver {
    pub fn new(data: Arc<DataSet>, session: u16, per_gen: usize) -> GenReceiver {
        GenReceiver {
            data,
            session: SessionId::new(session),
            per_gen,
            slots: (0..RX_SLOTS).map(|_| None).collect(),
            packets: 0,
            innovative: 0,
        }
    }

    /// Absorbs one datagram; returns the generation's outcome once it is
    /// decided (byte-compared against the source's blocks on decode).
    pub fn on_datagram(
        &mut self,
        dg: &[u8],
        tracer: Option<&mut Tracer>,
    ) -> Option<(u64, Outcome)> {
        let cfg = self.data.cfg;
        let view = PacketView::parse(dg, cfg.blocks_per_generation()).ok()?;
        if view.session() != self.session {
            return None;
        }
        let gen = view.generation();
        let slot = &mut self.slots[(gen % RX_SLOTS) as usize];
        if slot.as_ref().is_none_or(|s| s.gen != gen) {
            *slot = Some(Slot {
                gen,
                decoder: GenerationDecoder::new(cfg),
                seen: 0,
                done: false,
            });
        }
        let s = slot.as_mut().expect("slot filled above");
        if s.done {
            return None;
        }
        self.packets += 1;
        s.seen += 1;
        let started = tracer.is_some().then(Instant::now);
        let outcome = s.decoder.receive(view.coefficients(), view.payload());
        if let (Some(tr), Some(t0)) = (tracer, started) {
            tr.record("rlnc.decode", gen, t0, Instant::now(), 1);
        }
        if matches!(outcome, Ok(ReceiveOutcome::Innovative { .. })) {
            self.innovative += 1;
        }
        if s.decoder.is_complete() {
            s.done = true;
            let expected = self.data.encoder(gen).blocks();
            let ok = s
                .decoder
                .decoded_blocks()
                .is_ok_and(|blocks| blocks_match(&blocks, expected));
            return Some((
                gen,
                if ok {
                    Outcome::Decoded
                } else {
                    Outcome::Mismatch
                },
            ));
        }
        if s.seen >= self.per_gen {
            s.done = true;
            return Some((gen, Outcome::RankDeficient));
        }
        None
    }
}

/// The correctness gate: decoded blocks equal the source's, byte for
/// byte.
pub fn blocks_match(decoded: &[&[u8]], expected: &[Vec<u8>]) -> bool {
    decoded.len() == expected.len()
        && decoded
            .iter()
            .zip(expected)
            .all(|(d, e)| *d == e.as_slice())
}

/// The source endpoint: encodes a generation's packets, serializes them
/// into one send batch and flushes it with `sendmmsg`.
pub struct Source {
    sock: UdpSocket,
    dest: SocketAddr,
    data: Arc<DataSet>,
    session: SessionId,
    per_gen: usize,
    rng: StdRng,
    pool: PayloadPool,
    batch: SendBatch,
    /// Next generation id to send.
    pub next_gen: u64,
    /// Datagrams handed to the kernel.
    pub datagrams: u64,
}

impl Source {
    pub fn new(
        data: Arc<DataSet>,
        dest: SocketAddr,
        per_gen: usize,
        seed: u64,
    ) -> std::io::Result<Source> {
        Ok(Source {
            sock: UdpSocket::bind(("127.0.0.1", 0))?,
            dest,
            data,
            session: SessionId::new(DATA_SESSION),
            per_gen,
            rng: StdRng::seed_from_u64(seed ^ 0x50C5),
            pool: PayloadPool::new(),
            batch: SendBatch::new(),
            next_gen: 0,
            datagrams: 0,
        })
    }

    /// Sends the next generation; returns its id.
    pub fn send_gen(&mut self, mut tracer: Option<&mut Tracer>) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        let enc = self.data.encoder(gen);
        self.batch.clear();
        for _ in 0..self.per_gen {
            let t0 = tracer.is_some().then(Instant::now);
            let pkt = enc.coded_packet_pooled(self.session, gen, &mut self.rng, &mut self.pool);
            self.batch.push_wire(|w| pkt.write_into(w), &[self.dest]);
            self.pool.recycle(pkt);
            if let (Some(tr), Some(t0)) = (tracer.as_deref_mut(), t0) {
                tr.record("rlnc.encode", gen, t0, Instant::now(), 1);
            }
        }
        let t0 = Instant::now();
        // Loopback UDP sends do not fail short of a broken socket; a
        // shortfall shows as relay ingress loss and failed generations.
        let _ = self.sock.send_batch(&self.batch);
        if let Some(tr) = tracer {
            tr.record("sock.send", gen, t0, Instant::now(), self.per_gen as u64);
        }
        self.datagrams += self.per_gen as u64;
        gen
    }
}

/// Per-generation bookkeeping at the source, oldest first.
#[derive(Default)]
struct Ledger {
    base: u64,
    recs: VecDeque<Rec>,
    unresolved: usize,
}

#[derive(Clone, Copy)]
struct Rec {
    sent: Instant,
    due: Instant,
    resolved: bool,
    traced: bool,
}

/// Generation outcomes over every phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub decoded: u64,
    pub mismatched: u64,
    pub deficient: u64,
    pub timed_out: u64,
}

/// One closed-loop block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub bytes: u64,
    pub datagrams: u64,
    pub traced: bool,
}

impl Block {
    pub fn goodput_mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.wall_s / 1e6
    }
}

/// What the open loop measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due-to-decode latency per generation, µs (failures count as
    /// [`OPEN_TIMEOUT`]).
    pub latency_us: Vec<f64>,
    /// How late the generator sent each generation, µs.
    pub lag_us: Vec<f64>,
}

/// A freshly set-up chain: the relay, configured, with its first
/// generation decoded.
pub struct SetUp {
    pub relay: RelayNode,
    pub fault: Option<FaultHandle>,
    pub source: Source,
    pub rx_sock: UdpSocket,
    pub rx: GenReceiver,
    pub elapsed: Duration,
    /// False if the first generation never decoded byte-exact.
    pub ok: bool,
}

/// Spawns a relay, configures it over its control socket (`NC_SETTINGS`
/// and `NC_FORWARD_TAB`, both ACKed) and decodes the first generation
/// end to end. A first generation lost to the fault socket or to rank
/// deficiency is followed by the next until one decodes.
pub fn set_up(
    data: &Arc<DataSet>,
    per_gen: usize,
    seed: u64,
    fault: Option<FaultConfig>,
    prober: &mut Prober,
) -> std::io::Result<SetUp> {
    let cfg = data.cfg;
    let rx_sock = UdpSocket::bind(("127.0.0.1", 0))?;
    crate::util::set_rcvbuf(&rx_sock, RX_RCVBUF);
    rx_sock.set_read_timeout(Some(Duration::from_millis(5)))?;
    let rx_addr = rx_sock.local_addr()?;
    let mut rx = GenReceiver::new(Arc::clone(data), DATA_SESSION, per_gen);
    let relay_config = RelayConfig {
        generation: cfg,
        buffer_generations: RELAY_BUFFER_GENERATIONS,
        seed: seed ^ 0x2E1A,
        heartbeat: None,
        registry: None,
        shards: RELAY_SHARDS,
        batch: MAX_BATCH,
    };
    let started = Instant::now();
    let (relay, handle) = match fault {
        None => (RelayNode::spawn(relay_config)?, None),
        Some(fc) => {
            let (data_sock, handle) = FaultSocket::bind_loopback(fc)?;
            let control = UdpSocket::bind(("127.0.0.1", 0))?;
            (
                RelayNode::spawn_with(relay_config, data_sock, control)?,
                Some(handle),
            )
        }
    };
    prober.target(relay.control_addr);
    let mut ok = prober.configure(DATA_SESSION, relay.data_addr.port(), cfg);
    ok &= prober.route(DATA_SESSION, rx_addr);
    let mut source = Source::new(Arc::clone(data), relay.data_addr, per_gen, seed)?;
    let mut batch = RecvBatch::new(MAX_BATCH, 2048);
    let give_up = started + Duration::from_secs(2);
    let mut decoded = false;
    'gens: while Instant::now() < give_up {
        source.send_gen(None);
        let gen_deadline = Instant::now() + Duration::from_millis(5);
        while Instant::now() < gen_deadline {
            if rx_sock.recv_batch(&mut batch).is_err() {
                continue;
            }
            for (dg, _) in batch.iter() {
                match rx.on_datagram(dg, None) {
                    Some((_, Outcome::Decoded)) => {
                        decoded = true;
                        break 'gens;
                    }
                    Some((_, Outcome::Mismatch)) => break 'gens,
                    Some((_, Outcome::RankDeficient)) => continue 'gens,
                    None => {}
                }
            }
        }
    }
    Ok(SetUp {
        relay,
        fault: handle,
        source,
        rx_sock,
        rx,
        elapsed: started.elapsed(),
        ok: ok && decoded,
    })
}

/// A running chain driven by one endpoint thread (the caller's): it
/// sends as the source and receives and decodes as the sink, so the
/// benchmark adds one busy thread beside the relay's.
pub struct Chain {
    pub relay: RelayNode,
    pub source: Source,
    pub rx: GenReceiver,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Set while spans are recorded.
    pub tracing: bool,
    rx_sock: UdpSocket,
    batch: RecvBatch,
    payload: u64,
    window: usize,
    ledger: Ledger,
    open: Option<OpenLoop>,
}

impl Chain {
    pub fn new(setup: SetUp, window: usize, epoch: Instant) -> Chain {
        let payload = setup.source.data.cfg.generation_payload() as u64;
        let ledger = Ledger {
            base: setup.source.next_gen,
            ..Ledger::default()
        };
        Chain {
            relay: setup.relay,
            source: setup.source,
            rx: setup.rx,
            tally: Tally::default(),
            tracer: Tracer::new(epoch, 1, true),
            tracing: false,
            rx_sock: setup.rx_sock,
            batch: RecvBatch::new(MAX_BATCH, 2048),
            payload,
            window,
            ledger,
            open: None,
        }
    }

    fn send(&mut self, due: Option<Instant>) {
        let started = Instant::now();
        let gen = self
            .source
            .send_gen(self.tracing.then_some(&mut self.tracer));
        debug_assert_eq!(gen, self.ledger.base + self.ledger.recs.len() as u64);
        self.ledger.recs.push_back(Rec {
            sent: started,
            due: due.unwrap_or(started),
            resolved: false,
            traced: self.tracing,
        });
        self.ledger.unresolved += 1;
        self.tally.attempted += 1;
    }

    /// Marks a generation decided; returns payload bytes it delivered.
    fn resolve(&mut self, gen: u64, outcome: Option<Outcome>, at: Instant) -> u64 {
        let Some(idx) = gen.checked_sub(self.ledger.base) else {
            return 0; // already retired (a late report after a timeout)
        };
        let Some(rec) = self.ledger.recs.get_mut(idx as usize) else {
            return 0;
        };
        if rec.resolved {
            return 0;
        }
        rec.resolved = true;
        let rec = *rec;
        self.ledger.unresolved -= 1;
        let delivered = outcome == Some(Outcome::Decoded);
        match outcome {
            Some(Outcome::Decoded) => self.tally.decoded += 1,
            Some(Outcome::Mismatch) => self.tally.mismatched += 1,
            Some(Outcome::RankDeficient) => self.tally.deficient += 1,
            None => self.tally.timed_out += 1,
        }
        if let Some(open) = self.open.as_mut() {
            let lat = if delivered {
                us(at.saturating_duration_since(rec.due))
            } else {
                us(OPEN_TIMEOUT)
            };
            open.latency_us.push(lat);
        }
        if rec.traced {
            self.tracer.root(gen, rec.sent, at);
        }
        while self.ledger.recs.front().is_some_and(|r| r.resolved) {
            self.ledger.recs.pop_front();
            self.ledger.base += 1;
        }
        if delivered {
            self.payload
        } else {
            0
        }
    }

    /// Fails every unresolved generation older than `timeout`.
    fn expire(&mut self, now: Instant, timeout: Duration) {
        let base = self.ledger.base;
        let stale: Vec<u64> = self
            .ledger
            .recs
            .iter()
            .enumerate()
            .take_while(|(_, r)| now.saturating_duration_since(r.sent) >= timeout)
            .filter(|(_, r)| !r.resolved)
            .map(|(i, _)| base + i as u64)
            .collect();
        for gen in stale {
            self.resolve(gen, None, now);
        }
    }

    /// Receives one batch (blocking up to the socket's read timeout)
    /// and decodes it; returns delivered payload bytes.
    fn receive(&mut self, timeout: Duration) -> u64 {
        let (t0, c0) = (
            Instant::now(),
            if self.tracing { thread_cpu_ns() } else { 0 },
        );
        if self.rx_sock.recv_batch(&mut self.batch).is_err() {
            self.expire(Instant::now(), timeout);
            return 0;
        }
        let at = Instant::now();
        if self.tracing {
            let gen = NcHeader::peek_ids(self.batch.get(0).0).map_or(0, |(_, g)| g);
            let cpu = thread_cpu_ns() - c0;
            self.tracer
                .record_self("sock.recv", gen, t0, at, cpu, self.batch.len() as u64);
        }
        let mut decided = Vec::new();
        for (dg, _) in self.batch.iter() {
            let tracer = self.tracing.then_some(&mut self.tracer);
            if let Some(d) = self.rx.on_datagram(dg, tracer) {
                decided.push(d);
            }
        }
        let at = Instant::now();
        let bytes = decided
            .into_iter()
            .map(|(gen, outcome)| self.resolve(gen, Some(outcome), at))
            .sum();
        self.expire(at, timeout);
        bytes
    }

    /// Waits until every generation in flight is decided.
    pub fn drain(&mut self, timeout: Duration) {
        while self.ledger.unresolved > 0 {
            self.receive(timeout);
        }
    }

    /// Closed loop for `dur`: keeps `window` generations in flight,
    /// sending the next only when one is decided. With `alternate`,
    /// every second block records spans.
    pub fn closed_loop(&mut self, dur: Duration, alternate: bool) -> Vec<Block> {
        let block_len = Duration::from_secs_f64(BLOCK_SECS).min(dur);
        let start = Instant::now();
        let end = start + dur;
        let mut blocks = Vec::new();
        let mut block_start = start;
        let mut cpu0 = process_cpu_ns();
        let mut dg0 = self.source.datagrams;
        let mut bytes = 0u64;
        self.tracing = false;
        loop {
            let now = Instant::now();
            if now >= block_start + block_len {
                let cpu = process_cpu_ns();
                blocks.push(Block {
                    wall_s: (now - block_start).as_secs_f64(),
                    cpu_ns: cpu - cpu0,
                    bytes,
                    datagrams: self.source.datagrams - dg0,
                    traced: self.tracing,
                });
                if now >= end {
                    break;
                }
                (block_start, cpu0, dg0, bytes) = (now, cpu, self.source.datagrams, 0);
                self.tracing = alternate && blocks.len() % 2 == 1;
            }
            while self.ledger.unresolved < self.window {
                self.send(None);
            }
            bytes += self.receive(CLOSED_TIMEOUT);
        }
        self.tracing = false;
        self.drain(CLOSED_TIMEOUT);
        blocks
    }

    /// Open loop for `dur` at `gens_per_s`: generation `k` is due at
    /// `t0 + k / rate` whatever the chain is doing; latency runs from
    /// that due time to the generation's decode. Between sends the
    /// endpoint waits for datagrams with a deadline at the next due time.
    pub fn open_loop(&mut self, dur: Duration, gens_per_s: f64) -> OpenLoop {
        crate::util::tighten_timer_slack();
        self.open = Some(OpenLoop::default());
        let interval = Duration::from_secs_f64(1.0 / gens_per_s);
        let t0 = Instant::now() + Duration::from_millis(1);
        let end = t0 + dur;
        let mut lag_us = Vec::new();
        let mut k = 0u32;
        loop {
            let due = t0 + interval * k;
            if due >= end {
                break;
            }
            let now = Instant::now();
            if now < due {
                if crate::util::wait_readable(&self.rx_sock, due - now) {
                    self.receive(OPEN_TIMEOUT);
                }
                continue;
            }
            lag_us.push(us(now - due));
            self.send(Some(due));
            k += 1;
        }
        self.drain(OPEN_TIMEOUT);
        let mut open = self.open.take().unwrap_or_default();
        open.lag_us = lag_us;
        open
    }

    /// Stops the relay; returns the decoder's state and the spans.
    pub fn finish(self) -> (GenReceiver, Tracer) {
        self.relay.shutdown();
        (self.rx, self.tracer)
    }

    /// Generations that fit the closed-loop window for this layout.
    pub fn window_for(cfg: GenerationConfig, per_gen: usize) -> usize {
        let gen_wire = per_gen * cfg.packet_len();
        (WINDOW_BYTES / gen_wire).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coded(data: &DataSet, gen: u64, n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut w = Vec::new();
                data.encoder(gen)
                    .coded_packet(SessionId::new(DATA_SESSION), gen, &mut rng)
                    .write_into(&mut w);
                w
            })
            .collect()
    }

    #[test]
    fn intact_generation_decodes() {
        let data = Arc::new(DataSet::new(layout(4), 1));
        let mut rx = GenReceiver::new(Arc::clone(&data), DATA_SESSION, 5);
        let outcomes: Vec<_> = coded(&data, 3, 5, 9)
            .iter()
            .filter_map(|dg| rx.on_datagram(dg, None))
            .collect();
        assert_eq!(outcomes, vec![(3, Outcome::Decoded)]);
    }

    #[test]
    fn flipped_byte_is_counted_as_a_failure() {
        let data = Arc::new(DataSet::new(layout(4), 1));
        let mut rx = GenReceiver::new(Arc::clone(&data), DATA_SESSION, 5);
        let mut packets = coded(&data, 7, 5, 9);
        // Flip one payload byte of the first packet: the generation still
        // reaches full rank, but decodes to the wrong bytes.
        let last = packets[0].len() - 1;
        packets[0][last] ^= 0x01;
        let outcomes: Vec<_> = packets
            .iter()
            .filter_map(|dg| rx.on_datagram(dg, None))
            .collect();
        assert_eq!(outcomes, vec![(7, Outcome::Mismatch)]);
    }

    #[test]
    fn flipped_decoded_byte_fails_the_gate() {
        let data = DataSet::new(layout(4), 2);
        let expected = data.encoder(0).blocks();
        let mut decoded: Vec<Vec<u8>> = expected.to_vec();
        let views: Vec<&[u8]> = decoded.iter().map(Vec::as_slice).collect();
        assert!(blocks_match(&views, expected));
        decoded[2][100] ^= 0x80;
        let views: Vec<&[u8]> = decoded.iter().map(Vec::as_slice).collect();
        assert!(!blocks_match(&views, expected));
    }

    #[test]
    fn seed_changes_the_data() {
        let a = DataSet::new(layout(4), 1);
        let b = DataSet::new(layout(4), 2);
        let c = DataSet::new(layout(4), 1);
        assert_ne!(a.encoder(0).blocks(), b.encoder(0).blocks());
        assert_eq!(a.encoder(0).blocks(), c.encoder(0).blocks());
    }
}
