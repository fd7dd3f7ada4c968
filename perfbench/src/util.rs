//! Small helpers: order statistics, CPU clocks, `/proc` readers, the host
//! fingerprint and the JSON writer.

use std::fmt::Write as _;
use std::time::Duration;

use ncvnf_obs::HistogramSnapshot;

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (the same rule as numpy's default). NaN for no values, so a
/// metric without samples fails the result line instead of reading 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn ioctl(fd: i32, request: u64, ...) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const CLOCK_REALTIME: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64/aarch64 Linux) that outlives the call, and every
    // clock id passed here is defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (every thread, user + system), in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// When the datagram `sock` received last reached its receive queue:
/// the kernel's receive timestamp (`SIOCGSTAMPNS`), converted to an
/// [`Instant`]. `None` until the socket has received with stamping on;
/// the first call turns stamping on.
pub fn arrival(sock: &std::net::UdpSocket) -> Option<std::time::Instant> {
    use std::os::fd::AsRawFd;
    const SIOCGSTAMPNS: u64 = 0x8907;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: SIOCGSTAMPNS writes one `struct timespec` through the
    // pointer, which points at a live, writable one; the fd is open for
    // the lifetime of `sock`.
    if unsafe { ioctl(sock.as_raw_fd(), SIOCGSTAMPNS, &mut ts) } != 0 {
        return None;
    }
    let now = std::time::Instant::now();
    let stamp = ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
    let age = clock_ns(CLOCK_REALTIME).saturating_sub(stamp);
    now.checked_sub(Duration::from_nanos(age))
}

/// Sets the calling thread's timer slack to 1 ns, so timed waits of the
/// open-loop generator wake close to their deadline (the default slack
/// is 50 µs). Best effort: a failure only makes the generator later,
/// which `gen.lag_p99_us` reports.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one `unsigned long` argument and
    // touches no memory of the caller.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// Waits up to `timeout` (ns precision) for `sock` to become readable.
pub fn wait_readable(sock: &std::net::UdpSocket, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; one fd
    // is passed and a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0 && fd.revents & POLLIN != 0
}

/// Pins the calling thread to the highest-numbered CPU it may run on,
/// so the benchmark's endpoint keeps one CPU and the relay's threads,
/// spawned earlier with the full mask, are balanced onto the others.
/// Best effort: on failure the thread stays unpinned.
pub fn pin_to_last_cpu() {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable 128-byte `cpu_set_t` (1024 CPUs) and
    // its size is passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(last) = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
    else {
        return;
    };
    let mut only = [0u8; 128];
    only[last / 8] = 1 << (last % 8);
    // SAFETY: as above, with a readable mask holding one allowed CPU.
    unsafe {
        sched_setaffinity(0, only.len(), only.as_ptr());
    }
}

/// Asks for a `bytes` receive buffer on `sock` (`SO_RCVBUF`; the kernel
/// caps it at `net.core.rmem_max`). Best effort.
pub fn set_rcvbuf(sock: &std::net::UdpSocket, bytes: i32) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: the fd is open for the lifetime of `sock`, and the option
    // value is a live `i32` whose size is passed as its length.
    unsafe {
        setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4);
    }
}

/// Host-wide UDP `RcvbufErrors` from `/proc/net/snmp` (0 if unreadable).
pub fn udp_rcvbuf_errors() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut lines = text.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(head), Some(vals)) = (lines.next(), lines.next()) else {
        return 0;
    };
    head.split_whitespace()
        .zip(vals.split_whitespace())
        .find(|(k, _)| *k == "RcvbufErrors")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// The git revision of the working directory, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read_trimmed(&format!(".git/{reference}")) {
        return rev;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and run fingerprint printed with every result.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".into());
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    let mut o = JsonObject::new();
    o.str("workload", workload)
        .num("seed", seed as f64)
        .num("seconds", seconds as f64)
        .bool("trace", trace)
        .num("nproc", nproc as f64)
        .str("cpu_model", &model)
        .bool("avx2", flags.contains(&"avx2"))
        .bool("gfni", flags.contains(&"gfni"))
        .str("gf256_tier", ncvnf_gf256::bulk::kernel_tier().name())
        .str("env_NCVNF_GF256_KERNEL", &env("NCVNF_GF256_KERNEL"))
        .str("env_NCVNF_SHARDS", &env("NCVNF_SHARDS"))
        .str("env_NCVNF_BATCH", &env("NCVNF_BATCH"))
        .str(
            "rmem_default",
            &read_trimmed("/proc/sys/net/core/rmem_default").unwrap_or_default(),
        )
        .str("git_rev", &git_rev())
        .num("relay_shards", crate::chain::RELAY_SHARDS as f64)
        .num("relay_batch", ncvnf_relay::MAX_BATCH as f64);
    o.finish()
}

/// `after - before` for a cumulative histogram (min/max are taken from
/// `after`, so quantiles stay within one bucket of exact).
pub fn hist_delta(
    before: Option<&HistogramSnapshot>,
    after: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        buckets: Vec::new(),
    };
    let Some(after) = after else {
        return empty;
    };
    let Some(before) = before else {
        return after.clone();
    };
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: after.min,
        max: after.max,
        buckets: after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n - before.buckets.get(i).copied().unwrap_or(0))
            .collect(),
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A minimal JSON object writer (keys are fixed ASCII names).
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject { out: "{".into() }
    }

    fn key(&mut self, k: &str) {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        let _ = write!(self.out, "\"{k}\": ");
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push('"');
        for c in v.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// A number; a non-finite value, which JSON cannot carry, is
    /// written as `null`.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(json);
        self
    }

    pub fn finish(&mut self) -> String {
        let mut s = std::mem::take(&mut self.out);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn arrival_is_when_the_datagram_was_queued() {
        let rx = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let tx = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        arrival(&rx); // turns stamping on
        let sent = std::time::Instant::now();
        tx.send_to(b"x", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        rx.recv_from(&mut [0u8; 8]).unwrap();
        let at = arrival(&rx).expect("a stamped datagram");
        assert!(at >= sent - Duration::from_millis(1));
        assert!(
            at < sent + Duration::from_millis(10),
            "stamped at read time"
        );
    }

    #[test]
    fn cpu_clocks_advance() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
        assert!(thread_cpu_ns() > 0);
    }
}
