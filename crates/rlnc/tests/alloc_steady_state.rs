//! The batch encode and recode paths, and the decoder's elimination of
//! non-innovative packets, are allocation-free at steady state.
//!
//! A counting global allocator wraps `System`; after a warm-up phase that
//! fills the [`PayloadPool`] and grows every scratch buffer to its final
//! capacity, checkout → code → freeze → recycle cycles must touch the
//! heap exactly zero times. The counter is scoped to the measuring thread
//! so harness threads (e.g. libtest's result-channel lazy init) cannot
//! pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ncvnf_gf256::bulk;
use ncvnf_rlnc::{
    CodingMode, GenerationConfig, GenerationDecoder, GenerationEncoder, PayloadPool,
    ReceiveOutcome, Recoder, SessionId, WindowConfig, WindowEncoder, WindowRecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only allocations made by the thread under measurement: the
    // libtest main thread lazily initializes its mpsc receiver context
    // (one-time ~48 B Arc) while blocked waiting for the test result,
    // which otherwise races into the measured window. Const-initialized
    // native TLS for a `Cell<bool>` never allocates, so reading the flag
    // inside the allocator is safe.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            HEAP_OPS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            HEAP_OPS.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Number of heap allocations (incl. reallocations) performed by `work`
/// on the calling thread.
fn heap_ops_during(mut work: impl FnMut()) -> u64 {
    let before = HEAP_OPS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    HEAP_OPS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_encode_and_recode_paths_do_not_allocate() {
    const BLOCK: usize = 256;
    const G: usize = 8;
    const BATCH: usize = 4;

    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0xA110_C001);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(42);

    let mut pool = PayloadPool::new();
    let mut out = Vec::with_capacity(BATCH);

    // Warm-up: the pool fills with coefficient- and payload-sized buffers
    // and the checkout order is LIFO, so after a few cycles every buffer
    // settles into a fixed role with its final capacity.
    for _ in 0..16 {
        encoder.coded_packets_into(session, 0, BATCH, &mut rng, &mut pool, &mut out);
        for pkt in out.drain(..) {
            pool.recycle(pkt);
        }
    }
    let idle_before = pool.idle();

    let encode_allocs = heap_ops_during(|| {
        for _ in 0..64 {
            encoder.coded_packets_into(session, 0, BATCH, &mut rng, &mut pool, &mut out);
            for pkt in out.drain(..) {
                pool.recycle(pkt);
            }
        }
    });
    assert_eq!(
        encode_allocs, 0,
        "warm batch encode must not touch the heap (256 packets coded)"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );

    // Recode at full rank: the relay steady state.
    let mut recoder = Recoder::new(config, session, 0);
    while recoder.rank() < G {
        let pkt = encoder.coded_packet(session, 0, &mut rng);
        recoder
            .absorb(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
    }
    for _ in 0..16 {
        let pkt = recoder
            .recode_into(&mut rng, &mut pool)
            .expect("recoder is non-empty");
        pool.recycle(pkt);
    }

    let recode_allocs = heap_ops_during(|| {
        for _ in 0..256 {
            let pkt = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("recoder is non-empty");
            pool.recycle(pkt);
        }
    });
    assert_eq!(
        recode_allocs, 0,
        "warm recode must not touch the heap (256 packets recoded)"
    );
}

#[test]
fn warm_sparse_emission_does_not_allocate() {
    const BLOCK: usize = 256;
    const G: usize = 16;
    const BATCH: usize = 4;

    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0x5AA5_1DEA);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(43);
    let mode = CodingMode::sparse_default(G);

    let mut pool = PayloadPool::new();
    let mut out = Vec::with_capacity(BATCH);

    // Warm-up covers both halves of the mode: the systematic first pass
    // (seq < g) and the sparse repair tail.
    for cycle in 0..16u64 {
        let first_seq = (cycle * BATCH as u64) % (2 * G as u64);
        encoder.mode_packets_into(
            mode, session, 0, first_seq, BATCH, &mut rng, &mut pool, &mut out,
        );
        for pkt in out.drain(..) {
            pool.recycle(pkt);
        }
    }
    let idle_before = pool.idle();

    let sparse_allocs = heap_ops_during(|| {
        for cycle in 0..64u64 {
            let first_seq = (cycle * BATCH as u64) % (2 * G as u64);
            encoder.mode_packets_into(
                mode, session, 0, first_seq, BATCH, &mut rng, &mut pool, &mut out,
            );
            for pkt in out.drain(..) {
                pool.recycle(pkt);
            }
        }
    });
    assert_eq!(
        sparse_allocs, 0,
        "warm sparse/systematic emission must not touch the heap"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );
}

#[test]
fn warm_window_emission_and_recode_do_not_allocate() {
    const SYMBOL: usize = 256;
    const CAPACITY: usize = 16;

    let window = WindowConfig::new(SYMBOL, CAPACITY).expect("valid window");
    let session = SessionId::new(44);
    let mut rng = StdRng::seed_from_u64(0xD0_511DE);
    let mut encoder = WindowEncoder::new(window, session);
    let mut symbol = vec![0u8; SYMBOL];
    for _ in 0..CAPACITY {
        rng.fill(&mut symbol[..]);
        encoder.push(&symbol).expect("window has room");
    }

    let mut pool = PayloadPool::new();

    // Warm-up: systematic and coded emission settle the pool buffers.
    for i in 0..16u64 {
        let pkt = encoder
            .systematic_packet_pooled(i % CAPACITY as u64, &mut pool)
            .expect("symbol is live");
        pool.recycle_window(pkt);
        let pkt = encoder
            .coded_packet_pooled(&mut rng, &mut pool)
            .expect("window is non-empty");
        pool.recycle_window(pkt);
    }
    let idle_before = pool.idle();

    let emit_allocs = heap_ops_during(|| {
        for i in 0..64u64 {
            let pkt = encoder
                .systematic_packet_pooled(i % CAPACITY as u64, &mut pool)
                .expect("symbol is live");
            pool.recycle_window(pkt);
            let pkt = encoder
                .coded_packet_pooled(&mut rng, &mut pool)
                .expect("window is non-empty");
            pool.recycle_window(pkt);
        }
    });
    assert_eq!(
        emit_allocs, 0,
        "warm window emission must not touch the heap"
    );
    assert_eq!(
        pool.idle(),
        idle_before,
        "every buffer returned to the pool"
    );

    // Relay steady state: a full recoder re-mixing the live window.
    let mut recoder = WindowRecoder::new(window, session);
    for _ in 0..CAPACITY {
        let pkt = encoder
            .coded_packet_pooled(&mut rng, &mut pool)
            .expect("window is non-empty");
        recoder
            .absorb(pkt.base, &pkt.coefficients, &pkt.payload)
            .expect("layout matches");
        pool.recycle_window(pkt);
    }
    for _ in 0..16 {
        let pkt = recoder
            .recode_into(&mut rng, &mut pool)
            .expect("recoder is non-empty");
        pool.recycle_window(pkt);
    }

    let recode_allocs = heap_ops_during(|| {
        for _ in 0..256 {
            let pkt = recoder
                .recode_into(&mut rng, &mut pool)
                .expect("recoder is non-empty");
            pool.recycle_window(pkt);
        }
    });
    assert_eq!(
        recode_allocs, 0,
        "warm window recode must not touch the heap (256 packets recoded)"
    );
}

/// The fused multi-row kernel behind dense encode and recode keeps its
/// row-pointer groups on the stack: at g = 32 (one full row group) and
/// g = 64 (two groups per coded row) over MTU-sized blocks, warm encode
/// and recode touch the heap zero times.
#[test]
fn warm_fused_encode_and_recode_do_not_allocate_at_large_g() {
    const BLOCK: usize = 1460;
    const BATCH: usize = 4;

    for g in [32usize, 64] {
        let config = GenerationConfig::new(BLOCK, g).expect("valid layout");
        let mut rng = StdRng::seed_from_u64(0xF05E_0000 ^ g as u64);
        let mut data = vec![0u8; config.generation_payload()];
        rng.fill(&mut data[..]);
        let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
        let session = SessionId::new(45);
        let mut pool = PayloadPool::new();
        let mut out = Vec::with_capacity(BATCH);

        for _ in 0..16 {
            encoder.coded_packets_into(session, 0, BATCH, &mut rng, &mut pool, &mut out);
            for pkt in out.drain(..) {
                pool.recycle(pkt);
            }
        }
        let encode_allocs = heap_ops_during(|| {
            for _ in 0..32 {
                encoder.coded_packets_into(session, 0, BATCH, &mut rng, &mut pool, &mut out);
                for pkt in out.drain(..) {
                    pool.recycle(pkt);
                }
            }
        });
        assert_eq!(encode_allocs, 0, "warm fused encode allocated at g={g}");

        let mut recoder = Recoder::new(config, session, 0);
        while recoder.rank() < g {
            let pkt = encoder.coded_packet(session, 0, &mut rng);
            recoder
                .absorb(pkt.coefficients(), pkt.payload())
                .expect("layout matches");
        }
        for _ in 0..16 {
            let pkt = recoder.recode_into(&mut rng, &mut pool).expect("non-empty");
            pool.recycle(pkt);
        }
        let recode_allocs = heap_ops_during(|| {
            for _ in 0..128 {
                let pkt = recoder.recode_into(&mut rng, &mut pool).expect("non-empty");
                pool.recycle(pkt);
            }
        });
        assert_eq!(recode_allocs, 0, "warm dense recode allocated at g={g}");
    }
}

/// A decoder part-way through a generation eliminates every packet it
/// receives on the coefficients first, with a preallocated factor
/// scratch. Non-innovative packets never touch the heap: exact and
/// scaled duplicates of systematic packets (structured fast path), and
/// dense combinations of held packets, which run the full elimination
/// before being found redundant. (An innovative packet copies its
/// reduced row out of the scratch; that happens at most g times per
/// generation.)
#[test]
fn warm_decoder_elimination_does_not_allocate() {
    const BLOCK: usize = 1460;
    const G: usize = 32;
    const HELD: usize = 24;

    let config = GenerationConfig::new(BLOCK, G).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(0xDEC0_DE00);
    let mut data = vec![0u8; config.generation_payload()];
    rng.fill(&mut data[..]);
    let encoder = GenerationEncoder::new(config, &data).expect("valid generation");
    let session = SessionId::new(46);
    let mut decoder = GenerationDecoder::new(config);

    // Rank HELD < G: a few systematic blocks, the rest dense.
    let mut held = Vec::new();
    for i in 0..4 {
        let pkt = encoder.systematic_packet(session, 0, i);
        decoder
            .receive(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        held.push(pkt);
    }
    while decoder.rank() < HELD {
        let pkt = encoder.coded_packet(session, 0, &mut rng);
        decoder
            .receive(pkt.coefficients(), pkt.payload())
            .expect("layout matches");
        held.push(pkt);
    }

    // Dependent packets: random combinations of what the decoder holds,
    // built before measuring.
    let held_coeffs: Vec<&[u8]> = held.iter().map(|p| p.coefficients()).collect();
    let held_payloads: Vec<&[u8]> = held.iter().map(|p| p.payload()).collect();
    let mut dependent = Vec::new();
    for _ in 0..16 {
        let weights: Vec<u8> = (0..held.len()).map(|_| rng.gen()).collect();
        let mut coeffs = vec![0u8; G];
        let mut payload = vec![0u8; BLOCK];
        bulk::linear_combine(&mut coeffs, &weights, &held_coeffs);
        bulk::linear_combine(&mut payload, &weights, &held_payloads);
        dependent.push((coeffs, payload));
    }
    let mut scaled = held[1].coefficients().to_vec();
    let mut scaled_payload = held[1].payload().to_vec();
    bulk::scale_slice(&mut scaled, 0x1D);
    bulk::scale_slice(&mut scaled_payload, 0x1D);

    let rank = decoder.rank();
    let mut outcomes = Vec::with_capacity(128);
    let allocs = heap_ops_during(|| {
        for _ in 0..2 {
            for (coeffs, payload) in &dependent {
                outcomes.push(decoder.receive(coeffs, payload).expect("layout"));
            }
            for pkt in &held {
                outcomes.push(
                    decoder
                        .receive(pkt.coefficients(), pkt.payload())
                        .expect("layout"),
                );
            }
            outcomes.push(decoder.receive(&scaled, &scaled_payload).expect("layout"));
        }
    });
    assert_eq!(
        allocs, 0,
        "warm decoder elimination must not touch the heap"
    );
    assert_eq!(decoder.rank(), rank, "no packet was innovative");
    assert!(outcomes.iter().all(|o| *o == ReceiveOutcome::Redundant));
}
