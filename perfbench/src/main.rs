//! Coding-chain benchmark: source → recoder relay → decoder over
//! loopback UDP, driven through the relay crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <g4_chain|g32_dense_chain|lossy_reconfig> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host/run fingerprint line, a sample-count line, and last a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each metric means.

mod chain;
mod layers;
mod lossy;
mod probe;
mod trace;
mod util;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use util::JsonObject;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Blocks per generation.
    pub g: usize,
    /// Open-loop offered goodput, Mbit/s (chain workloads): a fifth to
    /// a third of the closed-loop capacity on a 2-CPU host. Nearer half,
    /// a vCPU stall of about a millisecond overflows the relay's default
    /// receive queue (92 datagrams), and the latency rows would measure
    /// the host's steal instead of the chain.
    pub offered_mbps: f64,
    /// Reliable transfer through a lossy relay instead of the chain.
    pub lossy: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "g4_chain",
        g: 4,
        offered_mbps: 300.0,
        lossy: false,
    },
    Workload {
        name: "g32_dense_chain",
        g: 32,
        offered_mbps: 150.0,
        lossy: false,
    },
    Workload {
        name: "lossy_reconfig",
        g: 4,
        offered_mbps: 0.0,
        lossy: true,
    },
];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_mbps", "Mbit/s"),
    ("cpu_s_per_gb", "s/GB"),
    ("deliver_p50_us", "us"),
    ("delivered_gens_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("deliver_p95_us", "us"),
    ("deliver_p99_us", "us"),
    ("swap_rtt_p50_us", "us"),
    ("swap_rtt_p99_us", "us"),
    ("stats_rtt_p50_us", "us"),
    ("gf256.mul_add_gbps", "GB/s"),
    ("rlnc.encode_ns", "ns"),
    ("rlnc.decode_ns", "ns"),
    ("rlnc.recode_ns", "ns"),
    ("rlnc.innovative_ratio", "ratio"),
    ("relay.batch_ns_p50", "ns"),
    ("relay.batch_ns_p99", "ns"),
    ("relay.batch_fill_mean", "count"),
    ("relay.busy_pct", "%"),
    ("relay.pool_hit_ratio", "ratio"),
    ("relay.ingress_loss", "count"),
    ("relay.inmem_ns_per_pkt_b1", "ns"),
    ("relay.inmem_ns_per_pkt_b32", "ns"),
    ("sock.send_ns", "ns"),
    ("sock.recv_ns", "ns"),
    ("sysnet.echo_ns_per_pkt", "ns"),
    ("udp.rcvbuf_errors", "count_hostwide"),
    ("control.push_ns", "ns"),
    ("control.retries", "count"),
    ("control.prober_cpu_pct", "%"),
    ("relay.table_swap_ns_p50", "ns"),
    ("relay.rejected_signals", "count"),
    ("relay.duplicate_signals", "count"),
    ("obs.stats_bytes", "bytes"),
    ("obs.snapshot_ns", "ns"),
    ("recovery.retransmit_ratio", "ratio"),
    ("recovery.nacks_sent", "count"),
    ("recovery.generations_recovered", "count"),
    ("recovery.unrecovered", "count"),
    ("chaos.dropped", "count"),
    ("budget.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_iqr_pct", "%"),
    ("gen.lag_p99_us", "us"),
    ("failed_gens_pct", "%"),
    ("signal_failed_pct", "%"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness checks made (generations, control pushes, objects,
    /// digest comparisons).
    pub attempted: u64,
    /// Checks that failed: wrong bytes, `ERR` or unanswered control
    /// signals, a diverged table digest.
    pub failed: u64,
    /// Sample counts behind the percentiles.
    pub samples: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The final result line for the metric table `table`. A metric
    /// that was not set, or that has no finite value (no samples), is
    /// written as `null` and counted as a failed check, so a missing
    /// measurement can never pass as the best possible score.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let mut metrics = JsonObject::new();
        let mut unmeasured = 0;
        for (name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            if !value.is_finite() {
                unmeasured += 1;
            }
            let mut m = JsonObject::new();
            m.num("value", value).str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let failed = self.failed + unmeasured;
        let mut o = JsonObject::new();
        o.bool("correct", failed == 0)
            .num("attempted", (self.attempted + unmeasured).max(1) as f64)
            .num("failed", failed as f64)
            .raw("metrics", &metrics.finish());
        o.finish()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: num("--trace")? != 0,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let fingerprint = util::fingerprint(args.workload.name, args.seed, args.seconds, args.trace);
    let report = match workloads::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    let mut samples = JsonObject::new();
    for (name, n) in &report.samples {
        samples.num(name, *n);
    }
    println!(
        "{{\"fingerprint\": {fingerprint}, \"samples\": {}}}",
        samples.finish()
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_line(table));
    ExitCode::SUCCESS
}
