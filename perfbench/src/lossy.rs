//! `lossy_reconfig`: back-to-back reliable object transfers
//! (`send_object_reliable` → recoder relay on a seeded drop
//! `FaultSocket` → `ReliableReceiver`), each on a session of a fixed ring
//! that the relay is configured for afresh over its control socket,
//! while the benchmark's second thread pushes fenced table swaps and
//! `NC_STATS` queries at fixed open-loop rates.
//!
//! The source's socket is a [`ClockSocket`], a pass-through that times
//! the transfer without changing it. It records when each generation's
//! last initial packet left and how late the library's pacing ran, and
//! stamps each generation's first ACK (sent the moment it decodes) with
//! the kernel's receive timestamp, so the time the library takes to read
//! its feedback is not part of the sample.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ncvnf_dataplane::{Feedback, FeedbackKind};
use ncvnf_relay::{
    send_object_reliable, DatagramSocket, FaultConfig, RecoveryConfig, RecoveryStats,
    ReliableReceiver, TransferConfig, TransferObs,
};
use ncvnf_rlnc::{GenerationConfig, NcHeader, RedundancyPolicy, SessionId};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain::BLOCK_SECS;
use crate::probe::Prober;
use crate::trace::Tracer;
use crate::util::{arrival, thread_cpu_ns, us};

/// Datagrams the relay's fault socket drops on egress: the per-hop drop
/// rate of the relay crate's chaos transfer test and of `perf_report`'s
/// recovery benchmark.
pub const DROP_RATE: f64 = 0.10;
/// Pacing asked of the reliable source, wire bit/s.
pub const RATE_BPS: f64 = 24e6;
/// Generations per reliable object.
pub const OBJECT_GENERATIONS: usize = 64;
/// Session of the first object; object `k` uses `FIRST_SESSION + k %
/// SESSION_RING` (the set-ups used session 1).
pub const FIRST_SESSION: u16 = 2;
/// Sessions the objects cycle through. With the set-up session and the
/// prober's churn session, the relay's table holds 10 entries whatever
/// the run's length: the table size of the paper's Table III update
/// experiment.
pub const SESSION_RING: u16 = 8;
/// Latency recorded for a generation that was never acknowledged.
pub const LOST_LATENCY: Duration = Duration::from_secs(10);

/// Seeded random bytes (the reliable object's content).
pub fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000B_1EC7);
    let mut v = vec![0u8; len];
    rng.fill(&mut v[..]);
    v
}

/// The fault plan of the lossy relay.
pub fn fault(seed: u64) -> FaultConfig {
    FaultConfig::new(seed ^ 0xFA17).with_drop(DROP_RATE)
}

/// Per-object state of the clock.
struct ObjectClock {
    session: SessionId,
    first_send: Option<Instant>,
    initial: u32,
    /// When each generation's last initial packet left the source.
    last_sent: Vec<Option<Instant>>,
    nacked: Vec<bool>,
    acked_at: Vec<Option<Instant>>,
}

/// What the clock saw.
pub struct Clock {
    object: ObjectClock,
    gap: Duration,
    payload: u64,
    trace: bool,
    phase_start: Instant,
    /// Due (last initial packet sent) → first ACK's arrival, µs, every
    /// object.
    pub latency_us: Vec<f64>,
    /// How late the library's pacing sent each initial packet, µs.
    pub lag_us: Vec<f64>,
    /// Datagrams the source sent.
    pub sent: u64,
    /// Generations acknowledged.
    pub acked: u64,
    /// Payload bytes acknowledged per [`BLOCK_SECS`] window of the phase.
    pub window_bytes: Vec<u64>,
    pub tracer: Tracer,
}

impl Clock {
    pub fn new(cfg: GenerationConfig, trace: bool, epoch: Instant) -> Clock {
        // The pacing rule `send_object_reliable` applies: packet `k` of
        // the initial pass is due `k` gaps after the first send.
        let wire = cfg.packet_len() + 28;
        Clock {
            object: ObjectClock {
                session: SessionId::new(0),
                first_send: None,
                initial: 0,
                last_sent: Vec::new(),
                nacked: Vec::new(),
                acked_at: Vec::new(),
            },
            gap: Duration::from_secs_f64(wire as f64 * 8.0 / RATE_BPS),
            payload: cfg.generation_payload() as u64,
            trace,
            phase_start: Instant::now(),
            latency_us: Vec::new(),
            lag_us: Vec::new(),
            sent: 0,
            acked: 0,
            window_bytes: Vec::new(),
            tracer: Tracer::new(epoch, 3, false),
        }
    }

    fn window(&self, now: Instant) -> usize {
        (now.saturating_duration_since(self.phase_start)
            .as_secs_f64()
            / BLOCK_SECS) as usize
    }

    /// Spans are recorded in every second window of a traced run.
    fn traced(&self, now: Instant) -> bool {
        self.trace && self.window(now) % 2 == 1
    }

    /// Starts timing an object of `generations` on `session`.
    fn begin(&mut self, session: u16, generations: usize) {
        self.object = ObjectClock {
            session: SessionId::new(session),
            first_send: None,
            initial: 0,
            last_sent: vec![None; generations],
            nacked: vec![false; generations],
            acked_at: vec![None; generations],
        };
    }

    /// Closes the object's latency samples (unacknowledged generations
    /// count as [`LOST_LATENCY`]).
    fn end(&mut self) {
        let o = &self.object;
        for (sent, ack) in o.last_sent.iter().zip(&o.acked_at) {
            self.latency_us.push(match (sent, ack) {
                (Some(s), Some(a)) => us(a.saturating_duration_since(*s)),
                _ => us(LOST_LATENCY),
            });
        }
    }

    fn on_send(&mut self, buf: &[u8], now: Instant) {
        self.sent += 1;
        let first = *self.object.first_send.get_or_insert(now);
        let Some((session, gen)) = NcHeader::peek_ids(buf) else {
            return;
        };
        let g = gen as usize;
        let o = &mut self.object;
        if session != o.session || g >= o.nacked.len() || o.nacked[g] {
            return; // a repair, not part of the paced initial pass
        }
        let due = first + self.gap * o.initial;
        o.initial += 1;
        o.last_sent[g] = Some(now);
        self.lag_us.push(us(now.saturating_duration_since(due)));
    }

    /// Feedback the source received; `at` is when it arrived.
    fn on_feedback(&mut self, fb: &Feedback, at: Instant) {
        let g = fb.generation as usize;
        let o = &mut self.object;
        if fb.session != o.session || g >= o.acked_at.len() {
            return;
        }
        match fb.kind {
            FeedbackKind::GenerationAck if o.acked_at[g].is_none() => {
                o.acked_at[g] = Some(at);
                self.acked += 1;
                let w = self.window(at);
                if self.window_bytes.len() <= w {
                    self.window_bytes.resize(w + 1, 0);
                }
                self.window_bytes[w] += self.payload;
            }
            // Packets sent for a generation after its NACK are repairs.
            FeedbackKind::RetransmitRequest if o.last_sent[g].is_some() => {
                o.nacked[g] = true;
            }
            _ => {}
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("state poisoned by a panicking thread")
}

/// The reliable source's socket: passes everything through and tells
/// the clock what it sent and received.
pub struct ClockSocket {
    inner: UdpSocket,
    clock: Arc<Mutex<Clock>>,
}

impl DatagramSocket for ClockSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let traced = {
            let mut c = lock(&self.clock);
            c.on_send(buf, t0);
            c.traced(t0)
        };
        let r = self.inner.send_to(buf, addr);
        if traced {
            let gen = NcHeader::peek_ids(buf).map_or(0, |(_, g)| g);
            lock(&self.clock)
                .tracer
                .record("sock.send", gen, t0, Instant::now(), 1);
        }
        r
    }

    fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        let t0 = Instant::now();
        let traced = lock(&self.clock).traced(t0);
        let c0 = if traced { thread_cpu_ns() } else { 0 };
        let r = self.inner.recv_from(buf);
        let end = Instant::now();
        let cpu = if traced { thread_cpu_ns() - c0 } else { 0 };
        let fb = r
            .as_ref()
            .ok()
            .and_then(|(n, _)| Feedback::from_bytes(&buf[..*n]).ok());
        let mut c = lock(&self.clock);
        if let Some(fb) = &fb {
            c.on_feedback(fb, arrival(&self.inner).unwrap_or(end));
        }
        if traced {
            let items = u64::from(r.is_ok());
            let gen = fb.map_or(0, |fb| fb.generation);
            c.tracer.record_self("sock.recv", gen, t0, end, cpu, items);
        }
        r
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(dur)
    }
}

/// Totals over every object of the phase.
#[derive(Default)]
pub struct Transfers {
    pub objects: u64,
    pub identical: u64,
    pub bytes: u64,
    pub wall: Duration,
    pub cpu_ns: u64,
    pub source: RecoveryStats,
    pub receiver_nacks: u64,
    pub receiver_packets: u64,
    pub generations: u64,
}

/// The second thread: runs the prober's pushes and queries as they fall
/// due.
fn spawn_prober(prober: Arc<Mutex<Prober>>, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        crate::util::tighten_timer_slack();
        lock(&prober).start(Instant::now());
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            let due = lock(&prober).next_due();
            if now >= due {
                lock(&prober).poll(now);
            } else {
                std::thread::sleep((due - now).min(Duration::from_millis(20)));
            }
        }
    })
}

/// Transfers `object` again and again, each time on a new session,
/// through `relay_data` for `dur`; the prober configures each session
/// and keeps swapping tables meanwhile.
pub fn run(
    object: &[u8],
    cfg: GenerationConfig,
    seed: u64,
    relay_data: SocketAddr,
    prober: Prober,
    dur: Duration,
    clock: Clock,
) -> std::io::Result<(Transfers, Clock, Prober)> {
    let clock = Arc::new(Mutex::new(clock));
    let prober = Arc::new(Mutex::new(prober));
    let source = ClockSocket {
        inner: UdpSocket::bind(("127.0.0.1", 0))?,
        clock: Arc::clone(&clock),
    };
    arrival(&source.inner); // turns receive stamping on
    let source_addr = source.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let prober_thread = spawn_prober(Arc::clone(&prober), Arc::clone(&stop));

    let rcfg = RecoveryConfig::default();
    let generations = (object.len() + 8).div_ceil(cfg.generation_payload());
    let mut totals = Transfers::default();
    let start = Instant::now();
    lock(&clock).phase_start = start;
    let cpu0 = crate::util::process_cpu_ns();
    let mut k = 0u16;
    while start.elapsed() < dur {
        let session = FIRST_SESSION + k % SESSION_RING;
        k = k.wrapping_add(1);
        let tcfg = TransferConfig {
            session: SessionId::new(session),
            generation: cfg,
            redundancy: RedundancyPolicy::NC1,
            rate_bps: RATE_BPS,
            seed: seed ^ (0x7C00 + u64::from(session)),
        };
        let t0 = Instant::now();
        lock(&clock).begin(session, generations);
        let obs = TransferObs::new();
        let receiver =
            ReliableReceiver::spawn(&tcfg, &rcfg, generations as u64, source_addr, &obs)?;
        {
            let mut p = lock(&prober);
            // The relay keeps a recoder's state per (session,
            // generation), and every object numbers its generations from
            // 0, so a reused session must not meet the rows of its last
            // object.
            p.configure_fresh(session, relay_data.port(), cfg);
            p.route(session, receiver.addr);
        }
        let stats = send_object_reliable(&source, &tcfg, &rcfg, object, &[relay_data], &obs)?;
        let report = receiver.wait(Duration::from_secs(5));
        totals.wall += t0.elapsed();
        lock(&clock).end();
        totals.objects += 1;
        totals.generations += generations as u64;
        if let Some(r) = report {
            totals.receiver_nacks += r.stats.nacks_sent;
            totals.receiver_packets += r.packets;
            if r.object == object {
                totals.identical += 1;
                totals.bytes += object.len() as u64;
            }
        }
        let s = &mut totals.source;
        s.initial_packets += stats.initial_packets;
        s.retransmit_packets += stats.retransmit_packets;
        s.generations_recovered += stats.generations_recovered;
        s.unrecovered += stats.unrecovered;
    }
    totals.cpu_ns = crate::util::process_cpu_ns() - cpu0;
    stop.store(true, Ordering::SeqCst);
    prober_thread.join().expect("prober thread panicked");
    drop(source);
    let clock = Arc::into_inner(clock)
        .expect("source dropped")
        .into_inner()
        .expect("clock poisoned by a panicking thread");
    let prober = Arc::into_inner(prober)
        .expect("prober thread joined")
        .into_inner()
        .expect("prober poisoned by a panicking thread");
    Ok((totals, clock, prober))
}
