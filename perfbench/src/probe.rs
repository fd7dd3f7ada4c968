//! The control-plane load: fenced `NC_FORWARD_TAB` swaps and `NC_STATS`
//! queries pushed through `SignalSender` at fixed open-loop rates, the
//! rates of the repository's own controller (`ncvnf_control::Autoscaler`).
//!
//! Every swap keeps the data sessions' next hops (the base table) and
//! moves a churn session that carries no traffic to a new hop, so the
//! relay parses, merges and rebuilds its route cache under traffic
//! without the data path changing. Each sample runs from the push's
//! *due* time to its `OK <seq>`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ncvnf_control::{
    ControlMetrics, ForwardingTable, SenderConfig, Signal, SignalSender, VnfRoleWire,
};
use ncvnf_obs::Registry;
use ncvnf_rlnc::SessionId;

use crate::util::{thread_cpu_ns, us};

/// Session moved by every swap; no datagram ever carries it. The
/// highest id, outside the ring of sessions `lossy_reconfig` uses.
const CHURN_SESSION: u16 = u16::MAX;
/// Table swaps per second: the autoscaler adopts a new deployment, and
/// pushes its tables, at most once per hysteresis window τ1 = 2 s.
const SWAP_HZ: f64 = 0.5;
/// `NC_STATS` queries per second: the autoscaler polls every relay's
/// `NC_STATS` once per second.
const STATS_HZ: f64 = 1.0;

/// Pushes and queries against one relay's control socket.
pub struct Prober {
    sender: SignalSender,
    /// The sender's metrics (`control.sender.*`).
    pub registry: Registry,
    control: SocketAddr,
    base: ForwardingTable,
    swap_every: Duration,
    stats_every: Duration,
    next_swap: Instant,
    next_stats: Instant,
    churn_hop: u64,
    /// Due-to-ACK times of table swaps, µs.
    pub swap_rtt_us: Vec<f64>,
    /// Due-to-reply times of `NC_STATS` queries, µs.
    pub stats_rtt_us: Vec<f64>,
    /// Sizes of the `NC_STATS` replies, bytes.
    pub stats_bytes: Vec<f64>,
    /// Pushes and queries sent (setup pushes included).
    pub attempts: u64,
    /// Pushes and queries that got `ERR` or ran out of retries.
    pub failures: u64,
    /// CPU time the pushing and querying threads spent in the sender,
    /// ns (time blocked on an ACK is not CPU time).
    pub cpu_ns: u64,
    /// Digest of the last table the relay acknowledged.
    pub last_digest: u64,
}

impl Prober {
    pub fn new() -> std::io::Result<Prober> {
        let registry = Registry::new();
        let sender = SignalSender::new(1, SenderConfig::default())?
            .with_metrics(ControlMetrics::register(&registry));
        let now = Instant::now();
        Ok(Prober {
            sender,
            registry,
            control: ([127, 0, 0, 1], 0).into(),
            base: ForwardingTable::new(),
            swap_every: Duration::from_secs_f64(1.0 / SWAP_HZ),
            stats_every: Duration::from_secs_f64(1.0 / STATS_HZ),
            next_swap: now,
            next_stats: now,
            churn_hop: 0,
            swap_rtt_us: Vec::new(),
            stats_rtt_us: Vec::new(),
            stats_bytes: Vec::new(),
            attempts: 0,
            failures: 0,
            cpu_ns: 0,
            last_digest: ForwardingTable::new().digest(),
        })
    }

    /// Points the prober at a (new) relay's control socket.
    pub fn target(&mut self, control: SocketAddr) {
        self.control = control;
    }

    /// Pushes a signal and tallies the outcome; true on `OK <seq>`.
    pub fn push(&mut self, signal: &Signal) -> bool {
        self.attempts += 1;
        let c0 = thread_cpu_ns();
        let ok = self.sender.push(self.control, signal).is_ok();
        self.cpu_ns += thread_cpu_ns() - c0;
        if !ok {
            self.failures += 1;
        }
        ok
    }

    /// Configures `session` as a recoder on the relay (`NC_SETTINGS`).
    pub fn configure(
        &mut self,
        session: u16,
        data_port: u16,
        cfg: ncvnf_rlnc::GenerationConfig,
    ) -> bool {
        self.set_role(session, VnfRoleWire::Recoder, data_port, cfg)
    }

    /// Configures a reused `session` as a recoder with none of the coding
    /// state its earlier use left: the relay drops a session's state when
    /// its role changes, so the session is made a forwarder first.
    pub fn configure_fresh(
        &mut self,
        session: u16,
        data_port: u16,
        cfg: ncvnf_rlnc::GenerationConfig,
    ) -> bool {
        self.set_role(session, VnfRoleWire::Forwarder, data_port, cfg)
            && self.configure(session, data_port, cfg)
    }

    fn set_role(
        &mut self,
        session: u16,
        role: VnfRoleWire,
        data_port: u16,
        cfg: ncvnf_rlnc::GenerationConfig,
    ) -> bool {
        self.push(&Signal::NcSettings {
            session: SessionId::new(session),
            role,
            data_port,
            block_size: cfg.block_size() as u32,
            generation_size: cfg.blocks_per_generation() as u32,
            buffer_generations: crate::chain::RELAY_BUFFER_GENERATIONS as u32,
        })
    }

    /// Routes `session` to `hop` in the base table and pushes the
    /// whole table (`NC_FORWARD_TAB`).
    pub fn route(&mut self, session: u16, hop: SocketAddr) -> bool {
        self.base
            .set(SessionId::new(session), vec![hop.to_string()]);
        let table = self.table();
        self.push_table(&table)
    }

    fn table(&self) -> ForwardingTable {
        let mut t = self.base.clone();
        if self.churn_hop > 0 {
            let port = 20_000 + self.churn_hop % 1000;
            t.set(
                SessionId::new(CHURN_SESSION),
                vec![format!("127.0.0.1:{port}")],
            );
        }
        t
    }

    fn push_table(&mut self, table: &ForwardingTable) -> bool {
        let ok = self.push(&Signal::NcForwardTab {
            table: table.to_text(),
        });
        if ok {
            self.last_digest = table.digest();
        }
        ok
    }

    /// Starts the open-loop schedule at `now`.
    pub fn start(&mut self, now: Instant) {
        self.next_swap = now + self.swap_every;
        self.next_stats = now + self.stats_every;
    }

    /// When the next push or query is due.
    pub fn next_due(&self) -> Instant {
        self.next_swap.min(self.next_stats)
    }

    /// Runs every push and query due at `now`.
    pub fn poll(&mut self, now: Instant) {
        if now >= self.next_swap {
            let due = self.next_swap;
            self.next_swap = advance(due, self.swap_every, now);
            self.churn_hop += 1;
            let table = self.table();
            if self.push_table(&table) {
                self.swap_rtt_us.push(us(Instant::now() - due));
            }
        }
        if now >= self.next_stats {
            let due = self.next_stats;
            self.next_stats = advance(due, self.stats_every, now);
            self.attempts += 1;
            let c0 = thread_cpu_ns();
            let reply = self.sender.query_stats(self.control);
            self.cpu_ns += thread_cpu_ns() - c0;
            match reply {
                Ok(json) => {
                    self.stats_rtt_us.push(us(Instant::now() - due));
                    self.stats_bytes.push(json.len() as f64);
                }
                Err(_) => self.failures += 1,
            }
        }
    }

    /// Share of pushes and queries that got `ERR` or ran out of
    /// retries, percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failures as f64 / self.attempts.max(1) as f64
    }
}

/// The next due time after `due`: the schedule keeps its rate, but a
/// stall longer than a second restarts it instead of bursting.
fn advance(due: Instant, every: Duration, now: Instant) -> Instant {
    let next = due + every;
    if now.saturating_duration_since(next) > Duration::from_secs(1) {
        now + every
    } else {
        next
    }
}
