//! Isolated layer rows: each times one layer's public entry point on
//! its own, outside the chain, so the traced run can attribute the
//! end-to-end cost layer by layer.

use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ncvnf_control::ForwardingTable;
use ncvnf_dataplane::{CodingVnf, VnfRole};
use ncvnf_obs::Registry;
use ncvnf_relay::{
    relay_batch, BatchScratch, DatagramSocket, RecvBatch, RelayEngine, RelayHandle, RelayShard,
    SendBatch, MAX_BATCH,
};
use ncvnf_rlnc::{GenerationConfig, PayloadPool, Recoder, SessionId};

use crate::chain::{DataSet, DATA_SESSION, RELAY_BUFFER_GENERATIONS};
use crate::util::median;

/// Timed repeats per row; each row reports the median.
const REPEATS: usize = 7;

/// Runs `body` (which does `items` units of work) `REPEATS` times and
/// returns the median ns per item.
fn ns_per_item(items: u64, mut body: impl FnMut()) -> f64 {
    body(); // warm caches and pools
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// `gf256::bulk::mul_add_slice` over 1460-byte rows on the active
/// kernel tier, GB/s.
pub fn mul_add_gbps(block: usize) -> f64 {
    let src: Vec<u8> = (0..block).map(|i| (i * 7 + 3) as u8).collect();
    let mut dst = vec![0u8; block];
    let calls = 20_000u64;
    let ns = ns_per_item(calls, || {
        for c in 0..calls {
            ncvnf_gf256::bulk::mul_add_slice(black_box(&mut dst), black_box(&src), (c as u8) | 1);
        }
    });
    block as f64 / ns
}

/// `Recoder::recode_into` from a full-rank buffer at the workload's `g`,
/// ns per recoded packet.
pub fn recode_ns(data: &DataSet, seed: u64) -> f64 {
    let cfg = data.cfg;
    let g = cfg.blocks_per_generation();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2EC0);
    let mut recoder = Recoder::new(cfg, SessionId::new(DATA_SESSION), 0);
    while recoder.rank() < g {
        let pkt = data
            .encoder(0)
            .coded_packet(SessionId::new(DATA_SESSION), 0, &mut rng);
        recoder
            .absorb(pkt.coefficients(), pkt.payload())
            .expect("packet matches the layout");
    }
    let mut pool = PayloadPool::new();
    let calls = (200_000 / g as u64).max(1000);
    ns_per_item(calls, || {
        for _ in 0..calls {
            let pkt = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("buffer is full rank");
            pool.recycle(black_box(pkt));
        }
    })
}

/// Captured source datagrams for the in-memory relay row: every packet
/// of `gens` generations, NC1, in send order. `gens` exceeds the relay
/// buffer, so every replay meets generations the buffer has evicted,
/// as the live relay does.
fn capture(data: &DataSet, per_gen: usize, seed: u64) -> Vec<Vec<u8>> {
    let gens = RELAY_BUFFER_GENERATIONS as u64 + 64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA97);
    let session = SessionId::new(DATA_SESSION);
    let mut out = Vec::new();
    for gen in 0..gens {
        for _ in 0..per_gen {
            let mut w = Vec::new();
            data.encoder(gen)
                .coded_packet(session, gen, &mut rng)
                .write_into(&mut w);
            out.push(w);
        }
    }
    out
}

/// `relay_batch` in memory over captured datagrams at ingress batch
/// size `batch` (one recoder shard, instrumented scratch as the live
/// data loop uses), ns per datagram. Egress is serialized into the send
/// batch but not flushed.
pub fn inmem_ns_per_pkt(data: &DataSet, per_gen: usize, batch: usize, seed: u64) -> f64 {
    let cfg: GenerationConfig = data.cfg;
    let mut vnf = CodingVnf::new(cfg, RELAY_BUFFER_GENERATIONS);
    vnf.set_role(SessionId::new(DATA_SESSION), VnfRole::Recoder);
    let shard = RelayShard::new(RelayEngine::new(vnf, StdRng::seed_from_u64(seed ^ 0x5AD)));
    let mut table = ForwardingTable::new();
    table.set(SessionId::new(DATA_SESSION), vec!["127.0.0.1:9".into()]);
    shard.routes().lock().rebuild(&table);
    let shards = [shard];
    let registry = Registry::new();
    let mut scratch = BatchScratch::instrumented(1, &registry);
    let src: SocketAddr = ([127, 0, 0, 1], 7).into();
    let captured = capture(data, per_gen, seed);
    let mut batches = Vec::new();
    for chunk in captured.chunks(batch) {
        let mut rb = RecvBatch::new(batch, 2048);
        for dg in chunk {
            rb.push(dg, src);
        }
        batches.push(rb);
    }
    ns_per_item(captured.len() as u64, || {
        for rb in &batches {
            black_box(relay_batch(&shards, 0, &mut scratch, rb));
        }
    })
}

/// A loopback echo with no engine: the echo socket drains a batch with
/// `recv_batch` and returns it with `send_batch`, as the relay's data
/// loop does around `relay_batch`. Reports the echo side's ns per
/// datagram (one receive plus one send).
pub fn echo_ns_per_pkt(pkt_len: usize) -> f64 {
    let client = UdpSocket::bind(("127.0.0.1", 0)).expect("bind client");
    let echo = UdpSocket::bind(("127.0.0.1", 0)).expect("bind echo");
    for s in [&client, &echo] {
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("set timeout");
    }
    let echo_addr = echo.local_addr().expect("echo addr");
    let client_addr = client.local_addr().expect("client addr");
    let payload = vec![0xA5u8; pkt_len];
    let mut out = SendBatch::new();
    for _ in 0..MAX_BATCH {
        out.push_bytes(&payload, &[echo_addr]);
    }
    let mut echo_in = RecvBatch::new(MAX_BATCH, 2048);
    let mut echo_out = SendBatch::new();
    let mut client_in = RecvBatch::new(MAX_BATCH, 2048);
    let rounds = 400u64;
    let mut echo_ns = Vec::new();
    let mut echoed = 0u64;
    for rep in 0..=REPEATS {
        let (mut ns, mut pkts) = (0u64, 0u64);
        for _ in 0..rounds {
            let _ = client.send_batch(&out);
            let t0 = Instant::now();
            let mut got = 0;
            while got < MAX_BATCH {
                match echo.recv_batch(&mut echo_in) {
                    Ok(n) => got += n,
                    Err(_) => break, // a datagram lost: finish the round short
                }
                echo_out.clear();
                for (dg, _) in echo_in.iter() {
                    echo_out.push_bytes(dg, &[client_addr]);
                }
                let _ = echo.send_batch(&echo_out);
            }
            ns += t0.elapsed().as_nanos() as u64;
            pkts += got as u64;
            let mut back = 0;
            while back < got {
                match client.recv_batch(&mut client_in) {
                    Ok(n) => back += n,
                    Err(_) => break,
                }
            }
        }
        if rep > 0 {
            echo_ns.push(ns as f64 / pkts.max(1) as f64);
            echoed += pkts;
        }
    }
    black_box(echoed);
    median(&echo_ns)
}

/// `RelayHandle::snapshot` on a live relay, ns per call.
pub fn snapshot_ns(handle: &RelayHandle) -> f64 {
    let calls = 200u64;
    ns_per_item(calls, || {
        for _ in 0..calls {
            black_box(handle.snapshot());
        }
    })
}
