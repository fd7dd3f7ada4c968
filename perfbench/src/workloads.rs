//! Runs one workload and turns what it measured into the report's
//! metrics: end-to-end from the untraced phases, per-layer from the
//! traced blocks and the isolated layer rows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncvnf_obs::Snapshot;
use ncvnf_relay::{FaultHandle, RelayHandle, RelayStats};
use ncvnf_rlnc::PoolStats;

use crate::chain::{self, layout, Block, Chain, DataSet, SetUp, SETUP_REPS};
use crate::layers;
use crate::lossy;
use crate::probe::Prober;
use crate::trace::Tracer;
use crate::util::{hist_delta, median, quantile, udp_rcvbuf_errors};
use crate::{Report, Workload};

/// Share of `--seconds` spent in the closed loop (the open loop gets
/// most of the rest).
const CLOSED_SHARE: f64 = 0.5;
const OPEN_SHARE: f64 = 0.4;
/// Closed-loop warm-up before the timed blocks.
const WARMUP: Duration = Duration::from_millis(250);
/// Share of `--seconds` the lossy workload transfers objects for.
const LOSSY_SHARE: f64 = 0.85;

pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> std::io::Result<Report> {
    if w.lossy {
        run_lossy(w, seed, seconds, trace)
    } else {
        run_chain(w, seed, seconds, trace)
    }
}

/// Relay counters at one instant, for phase deltas.
struct RelayMark {
    stats: RelayStats,
    pool: PoolStats,
    snap: Snapshot,
    at: Instant,
}

impl RelayMark {
    fn take(handle: &RelayHandle) -> RelayMark {
        RelayMark {
            stats: handle.stats(),
            pool: handle.pool_stats(),
            snap: handle.snapshot(),
            at: Instant::now(),
        }
    }
}

/// Times `SETUP_REPS` chain set-ups and keeps the last chain running.
fn set_ups(
    data: &Arc<DataSet>,
    per_gen: usize,
    seed: u64,
    fault: Option<fn(u64) -> ncvnf_relay::FaultConfig>,
    prober: &mut Prober,
    rep: &mut Report,
) -> std::io::Result<SetUp> {
    let mut times = Vec::new();
    let mut last: Option<SetUp> = None;
    for i in 0..SETUP_REPS as u64 {
        let rep_seed = seed.wrapping_add(i);
        let s = chain::set_up(data, per_gen, rep_seed, fault.map(|f| f(rep_seed)), prober)?;
        times.push(s.elapsed.as_secs_f64());
        rep.attempted += 1;
        if !s.ok {
            rep.failed += 1;
        }
        if let Some(prev) = last.replace(s) {
            prev.relay.shutdown();
        }
    }
    rep.set("setup_s", median(&times));
    rep.samples.push(("setup_reps", SETUP_REPS as f64));
    Ok(last.expect("at least one set-up"))
}

/// Per-layer rows shared by every workload: the relay's own counters
/// over the measured phase, the control plane, and the isolated rows.
fn relay_layer_rows(
    rep: &mut Report,
    before: &RelayMark,
    after: &RelayMark,
    source_datagrams: u64,
    prober: &Prober,
) -> f64 {
    let (b, a) = (&before.stats, &after.stats);
    let batches = a.batches - b.batches;
    let fill = hist_delta(
        before.snap.histogram("relay.batch_fill"),
        after.snap.histogram("relay.batch_fill"),
    );
    let batch_ns = hist_delta(
        before.snap.histogram("relay.batch_ns"),
        after.snap.histogram("relay.batch_ns"),
    );
    let wall_ns = (after.at - before.at).as_nanos() as f64;
    let batch_total_ns = batch_ns.mean() * batches as f64;
    rep.set("relay.batch_ns_p50", batch_ns.quantile(0.5) as f64);
    rep.set("relay.batch_ns_p99", batch_ns.quantile(0.99) as f64);
    rep.set("relay.batch_fill_mean", fill.mean());
    rep.set("relay.busy_pct", 100.0 * batch_total_ns / wall_ns);
    let checkouts = after.pool.checkouts - before.pool.checkouts;
    let hits = after.pool.hits - before.pool.hits;
    rep.set(
        "relay.pool_hit_ratio",
        if checkouts == 0 {
            0.0
        } else {
            hits as f64 / checkouts as f64
        },
    );
    let datagrams_in = a.datagrams_in - b.datagrams_in;
    let loss = source_datagrams as f64 - datagrams_in as f64
        + (a.io_errors - b.io_errors) as f64
        + (a.total_shed() - b.total_shed()) as f64;
    rep.set("relay.ingress_loss", loss);
    rep.set(
        "relay.rejected_signals",
        (a.rejected_signals - b.rejected_signals) as f64,
    );
    rep.set(
        "relay.duplicate_signals",
        (a.duplicate_signals - b.duplicate_signals) as f64,
    );
    let control = prober.registry.snapshot();
    rep.set(
        "control.push_ns",
        control
            .histogram("control.sender.ack_ns")
            .map_or(0.0, |h| h.quantile(0.5) as f64),
    );
    rep.set(
        "control.retries",
        control.counter("control.sender.retries").unwrap_or(0) as f64,
    );
    // The relay's batch time per datagram it received, for the budget.
    if datagrams_in == 0 {
        0.0
    } else {
        batch_total_ns / datagrams_in as f64
    }
}

/// The isolated rows; returns the echo cost per datagram.
fn isolated_rows(
    rep: &mut Report,
    data: &DataSet,
    per_gen: usize,
    seed: u64,
    handle: &RelayHandle,
) -> f64 {
    let cfg = data.cfg;
    rep.set("gf256.mul_add_gbps", layers::mul_add_gbps(cfg.block_size()));
    rep.set("rlnc.recode_ns", layers::recode_ns(data, seed));
    rep.set(
        "relay.inmem_ns_per_pkt_b1",
        layers::inmem_ns_per_pkt(data, per_gen, 1, seed),
    );
    rep.set(
        "relay.inmem_ns_per_pkt_b32",
        layers::inmem_ns_per_pkt(data, per_gen, ncvnf_relay::MAX_BATCH, seed),
    );
    rep.set("obs.snapshot_ns", layers::snapshot_ns(handle));
    let echo = layers::echo_ns_per_pkt(cfg.packet_len());
    rep.set("sysnet.echo_ns_per_pkt", echo);
    echo
}

/// Median and interquartile range of the paired (untraced − traced) /
/// untraced goodput differences, percent, unclamped.
fn trace_overhead(rep: &mut Report, pairs: &[(f64, f64)]) {
    let diffs: Vec<f64> = pairs
        .iter()
        .filter(|(u, _)| *u > 0.0)
        .map(|(u, t)| 100.0 * (u - t) / u)
        .collect();
    rep.set("trace.overhead_pct", median(&diffs));
    rep.set(
        "trace.overhead_iqr_pct",
        quantile(&diffs, 0.75) - quantile(&diffs, 0.25),
    );
    rep.samples.push(("trace_pairs", diffs.len() as f64));
}

/// Per-packet self time of a span layer, ns (NaN if none was recorded).
fn per_item(tracer: &Tracer, name: &str) -> f64 {
    let t = tracer.totals(name);
    t.self_ns as f64 / t.items as f64
}

/// Writes the kept spans to `perfbench/out/` (best effort).
fn write_spans(tracer: &mut Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run_chain(w: &Workload, seed: u64, seconds: u64, trace: bool) -> std::io::Result<Report> {
    let epoch = Instant::now();
    let rcvbuf0 = udp_rcvbuf_errors();
    let cfg = layout(w.g);
    let per_gen = w.g + 1; // NC1
    let data = Arc::new(DataSet::new(cfg, seed));
    let mut rep = Report::default();
    let mut prober = Prober::new()?;
    let setup = set_ups(&data, per_gen, seed, None, &mut prober, &mut rep)?;

    // Pinned only now, after the relay's threads were spawned with the
    // full CPU mask: the endpoint keeps one CPU and the relay the rest.
    // Unpinned, the scheduler sometimes stacks both on one CPU for a
    // whole run, which doubled g32 delivery latency in some runs.
    crate::util::pin_to_last_cpu();
    let window = Chain::window_for(cfg, per_gen);
    let mut chain = Chain::new(setup, window, epoch);
    let handle = chain.relay.handle();
    let secs = seconds as f64;
    chain.closed_loop(WARMUP, false);
    let warm_tally = chain.tally;
    let before = RelayMark::take(&handle);
    let dg0 = chain.source.datagrams;
    let blocks = chain.closed_loop(Duration::from_secs_f64(secs * CLOSED_SHARE), trace);
    let after = RelayMark::take(&handle);
    let closed_datagrams = chain.source.datagrams - dg0;
    let closed_tally = chain.tally;
    let gens_per_s = w.offered_mbps * 1e6 / 8.0 / cfg.generation_payload() as f64;
    let open = chain.open_loop(Duration::from_secs_f64(secs * OPEN_SHARE), gens_per_s);
    let digest = handle
        .snapshot()
        .gauge("relay.table_digest")
        .map_or(0, |d| d as u64);
    let echo = if trace {
        isolated_rows(&mut rep, &data, per_gen, seed, &handle)
    } else {
        0.0
    };
    let tally = chain.tally;
    let (rx, mut tracer) = chain.finish();

    // Correctness: generations, control signals, the applied table.
    rep.attempted += tally.attempted + prober.attempts + 1;
    rep.failed += tally.mismatched + prober.failures + u64::from(digest != prober.last_digest);

    let untraced: Vec<&Block> = blocks.iter().filter(|b| !b.traced).collect();
    let goodput: Vec<f64> = untraced.iter().map(|b| b.goodput_mbps()).collect();
    let (cpu_ns, bytes) = untraced
        .iter()
        .fold((0u64, 0u64), |(c, n), b| (c + b.cpu_ns, n + b.bytes));
    rep.set("goodput_mbps", median(&goodput));
    rep.set("cpu_s_per_gb", cpu_ns as f64 / bytes as f64);
    rep.set("deliver_p50_us", quantile(&open.latency_us, 0.5));
    set_tail_rows(&mut rep, &open.latency_us);
    // Delivery of the closed loop, whose window cannot overrun a receive
    // queue: a generation lost there is the chain's doing (rank
    // deficiency, a drop or a stall past the timeout), not the host's.
    // The open loop's losses, which follow vCPU stalls, are in
    // `failed_gens_pct`.
    let closed_decoded = closed_tally.decoded - warm_tally.decoded;
    let closed_attempted = closed_tally.attempted - warm_tally.attempted;
    rep.set(
        "delivered_gens_pct",
        100.0 * closed_decoded as f64 / closed_attempted as f64,
    );
    rep.set(
        "failed_gens_pct",
        100.0 * (tally.attempted - tally.decoded) as f64 / tally.attempted as f64,
    );
    rep.set("signal_failed_pct", prober.failed_pct());
    rep.samples.extend([
        ("closed_blocks", blocks.len() as f64),
        ("deliver", open.latency_us.len() as f64),
        ("generations", tally.attempted as f64),
        ("rank_deficient", tally.deficient as f64),
        ("timed_out", tally.timed_out as f64),
        ("closed_generations", closed_attempted as f64),
        (
            "closed_timed_out",
            (closed_tally.timed_out - warm_tally.timed_out) as f64,
        ),
        (
            "closed_rank_deficient",
            (closed_tally.deficient - warm_tally.deficient) as f64,
        ),
    ]);
    if !trace {
        return Ok(rep);
    }

    let relay_pp = relay_layer_rows(&mut rep, &before, &after, closed_datagrams, &prober);
    rep.set("rlnc.encode_ns", per_item(&tracer, "rlnc.encode"));
    rep.set("rlnc.decode_ns", per_item(&tracer, "rlnc.decode"));
    rep.set("sock.send_ns", per_item(&tracer, "sock.send"));
    rep.set("sock.recv_ns", per_item(&tracer, "sock.recv"));
    rep.set(
        "rlnc.innovative_ratio",
        rx.innovative as f64 / rx.packets.max(1) as f64,
    );
    // No recovery protocol, fault socket or control load runs here.
    for name in [
        "recovery.retransmit_ratio",
        "recovery.nacks_sent",
        "recovery.generations_recovered",
        "recovery.unrecovered",
        "chaos.dropped",
        "swap_rtt_p50_us",
        "swap_rtt_p99_us",
        "stats_rtt_p50_us",
        "relay.table_swap_ns_p50",
        "obs.stats_bytes",
        "control.prober_cpu_pct",
    ] {
        rep.set(name, 0.0);
    }
    rep.set(
        "udp.rcvbuf_errors",
        udp_rcvbuf_errors().saturating_sub(rcvbuf0) as f64,
    );
    rep.set("gen.lag_p99_us", quantile(&open.lag_us, 0.99));

    // Budget: untraced CPU per source datagram against the layers' self
    // times per datagram along the chain.
    let dgs: u64 = untraced.iter().map(|b| b.datagrams).sum();
    let cpu_pp = cpu_ns as f64 / dgs as f64;
    let layers_pp = ["rlnc.encode", "sock.send", "sock.recv", "rlnc.decode"]
        .iter()
        .map(|n| per_item(&tracer, n))
        .sum::<f64>()
        + relay_pp
        + echo;
    rep.set("budget.residual_pct", 100.0 * (cpu_pp - layers_pp) / cpu_pp);

    let pairs: Vec<(f64, f64)> = blocks
        .chunks_exact(2)
        .filter(|p| !p[0].traced && p[1].traced)
        .map(|p| (p[0].goodput_mbps(), p[1].goodput_mbps()))
        .collect();
    trace_overhead(&mut rep, &pairs);
    write_spans(&mut tracer, w.name, seed);
    Ok(rep)
}

/// Delivery-latency tails. They are per-layer rows: on a shared 2-CPU
/// VM the 5% and 1% tails follow host stalls and swing by more than any
/// useful bound from run to run.
fn set_tail_rows(rep: &mut Report, latency_us: &[f64]) {
    rep.set("deliver_p95_us", quantile(latency_us, 0.95));
    rep.set("deliver_p99_us", quantile(latency_us, 0.99));
}

fn run_lossy(w: &Workload, seed: u64, seconds: u64, trace: bool) -> std::io::Result<Report> {
    let epoch = Instant::now();
    let rcvbuf0 = udp_rcvbuf_errors();
    let cfg = layout(w.g);
    let per_gen = w.g + 1;
    let data = Arc::new(DataSet::new(cfg, seed));
    let mut rep = Report::default();
    let mut prober = Prober::new()?;
    let setup = set_ups(
        &data,
        per_gen,
        seed,
        Some(lossy::fault),
        &mut prober,
        &mut rep,
    )?;
    let relay = setup.relay;
    let fault: FaultHandle = setup.fault.expect("lossy relay has a fault socket");
    let handle = relay.handle();
    let object = lossy::seeded_bytes(
        lossy::OBJECT_GENERATIONS * cfg.generation_payload() - 8,
        seed,
    );

    let before = RelayMark::take(&handle);
    let dropped0 = fault.stats().dropped;
    let prober_cpu0 = prober.cpu_ns;
    let (transfers, mut clock, prober) = lossy::run(
        &object,
        cfg,
        seed,
        relay.data_addr,
        prober,
        Duration::from_secs_f64(seconds as f64 * LOSSY_SHARE),
        lossy::Clock::new(cfg, trace, epoch),
    )?;
    let after = RelayMark::take(&handle);
    let digest = handle
        .snapshot()
        .gauge("relay.table_digest")
        .map_or(0, |d| d as u64);
    let echo = if trace {
        isolated_rows(&mut rep, &data, per_gen, seed, &handle)
    } else {
        0.0
    };
    let dropped = fault.stats().dropped - dropped0;
    relay.shutdown();

    let t = &transfers;
    rep.attempted += t.objects + prober.attempts + 1;
    rep.failed +=
        (t.objects - t.identical) + prober.failures + u64::from(digest != prober.last_digest);
    rep.set(
        "goodput_mbps",
        t.bytes as f64 * 8.0 / t.wall.as_secs_f64() / 1e6,
    );
    rep.set("cpu_s_per_gb", t.cpu_ns as f64 / t.bytes as f64);
    rep.set("deliver_p50_us", quantile(&clock.latency_us, 0.5));
    set_tail_rows(&mut rep, &clock.latency_us);
    let delivered = 100.0 * clock.acked as f64 / t.generations as f64;
    rep.set("delivered_gens_pct", delivered);
    rep.set("failed_gens_pct", 100.0 - delivered);
    // The RTT rows are per-layer: the control thread's wake-up on a
    // shared 2-CPU VM moves their medians by up to 3x between runs
    // minutes apart, more than any useful bound.
    rep.set("swap_rtt_p50_us", quantile(&prober.swap_rtt_us, 0.5));
    rep.set("swap_rtt_p99_us", quantile(&prober.swap_rtt_us, 0.99));
    rep.set("stats_rtt_p50_us", quantile(&prober.stats_rtt_us, 0.5));
    rep.set("signal_failed_pct", prober.failed_pct());
    rep.samples.extend([
        ("objects", t.objects as f64),
        ("deliver", clock.latency_us.len() as f64),
        ("generations", t.generations as f64),
        ("swap", prober.swap_rtt_us.len() as f64),
        ("stats", prober.stats_rtt_us.len() as f64),
    ]);
    if !trace {
        return Ok(rep);
    }

    let relay_pp = relay_layer_rows(&mut rep, &before, &after, clock.sent, &prober);
    let swap_ns = hist_delta(
        before.snap.histogram("relay.table_swap_ns"),
        after.snap.histogram("relay.table_swap_ns"),
    );
    rep.set("relay.table_swap_ns_p50", swap_ns.quantile(0.5) as f64);
    rep.set("obs.stats_bytes", median(&prober.stats_bytes));
    rep.set(
        "control.prober_cpu_pct",
        100.0 * (prober.cpu_ns - prober_cpu0) as f64 / t.cpu_ns as f64,
    );
    let tracer = &mut clock.tracer;
    // The codec runs inside the library's reliable endpoints, where the
    // benchmark cannot place spans; see README.md.
    rep.set("rlnc.encode_ns", 0.0);
    rep.set("rlnc.decode_ns", 0.0);
    rep.set("sock.send_ns", per_item(tracer, "sock.send"));
    rep.set("sock.recv_ns", per_item(tracer, "sock.recv"));
    rep.set(
        "rlnc.innovative_ratio",
        (t.generations * w.g as u64) as f64 / t.receiver_packets.max(1) as f64,
    );
    let s = &t.source;
    rep.set(
        "recovery.retransmit_ratio",
        s.retransmit_packets as f64 / s.initial_packets.max(1) as f64,
    );
    rep.set("recovery.nacks_sent", t.receiver_nacks as f64);
    rep.set(
        "recovery.generations_recovered",
        s.generations_recovered as f64,
    );
    rep.set("recovery.unrecovered", s.unrecovered as f64);
    rep.set("chaos.dropped", dropped as f64);
    rep.set(
        "udp.rcvbuf_errors",
        udp_rcvbuf_errors().saturating_sub(rcvbuf0) as f64,
    );
    rep.set("gen.lag_p99_us", quantile(&clock.lag_us, 0.99));

    // Budget over the phase: CPU per source datagram against the layers
    // measurable from outside (source socket, relay batch, relay socket
    // echo); the library endpoints' codec and feedback loops are the
    // residual.
    let sent = clock.sent.max(1) as f64;
    let cpu_pp = t.cpu_ns as f64 / sent;
    let layers_pp = per_item(tracer, "sock.send")
        + tracer.totals("sock.recv").self_ns as f64 / sent
        + relay_pp
        + echo;
    rep.set("budget.residual_pct", 100.0 * (cpu_pp - layers_pp) / cpu_pp);

    // Overhead: acknowledged bytes of untraced vs traced windows (the
    // last, partial window is left out).
    let full = clock.window_bytes.len().saturating_sub(1);
    let pairs: Vec<(f64, f64)> = clock.window_bytes[..full]
        .chunks_exact(2)
        .map(|p| (p[0] as f64, p[1] as f64))
        .collect();
    trace_overhead(&mut rep, &pairs);
    write_spans(tracer, w.name, seed);
    Ok(rep)
}
