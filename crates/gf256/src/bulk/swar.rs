//! SWAR kernel: GF(2^8) constant multiplication across `u64` words, eight
//! byte lanes per word, in safe Rust.
//!
//! Multiplication by a constant is linear over GF(2), so
//! `c * s = Σ_{k: bit k of s} (c · 2^k)`. The eight partial products
//! `c · 2^k` are computed once per call (scalar xtime ladder) and
//! broadcast across all byte lanes; each of the eight steps then selects
//! the lanes whose bit `k` is set with a SWAR 0/1→0x00/0xFF mask and XORs
//! the broadcast partial product in. Every step is a flat
//! shift/mask/subtract/XOR over a whole `[u64; N]` chunk with no
//! loop-carried dependency, which LLVM's SLP vectorizer lowers to the
//! widest vector unit the target allows — without this crate shipping any
//! `unsafe`.
//!
//! The single-row entry points require `c >= 2` (the `0`/`1` fast paths
//! live in the dispatch layer); the fused entry point takes any nonzero
//! coefficient.

/// Bit 0 of every byte lane.
const ONES: u64 = 0x0101_0101_0101_0101;

/// Words per chunk (64 bytes — two AVX2 registers, one cache line).
const LANES: usize = 8;

/// The eight partial products `c · 2^k`, each broadcast to all lanes.
#[inline]
fn broadcast_partials(c: u8) -> [u64; 8] {
    let mut partials = [0u64; 8];
    let mut p = c;
    for slot in partials.iter_mut() {
        *slot = ONES.wrapping_mul(u64::from(p));
        // Scalar xtime: shift, reduce by 0x1D on overflow.
        let hi = p & 0x80;
        p <<= 1;
        if hi != 0 {
            p ^= 0x1D;
        }
    }
    partials
}

/// `prod[j] = c * a[j]` over the whole chunk, given the broadcast partial
/// products of `c`.
///
/// For each bit position `k`, lanes with bit `k` set become a 0xFF mask
/// (`t * 0xFF` lane-wise, computed as `(t << 8) - t` — no cross-lane
/// carries since each lane's product fits in the lane) selecting the
/// broadcast partial product. The eight steps are independent, so the
/// accumulation tree pipelines freely.
#[inline(always)]
fn mul_chunk(a: &[u64; LANES], partials: &[u64; 8]) -> [u64; LANES] {
    let mut prod = [0u64; LANES];
    for (k, &partial) in partials.iter().enumerate() {
        for (p, &w) in prod.iter_mut().zip(a.iter()) {
            let t = (w >> k) & ONES;
            let mask = (t << 8).wrapping_sub(t);
            *p ^= partial & mask;
        }
    }
    prod
}

#[inline(always)]
fn load_chunk(bytes: &[u8]) -> [u64; LANES] {
    let mut words = [0u64; LANES];
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
    }
    words
}

#[inline(always)]
fn store_chunk(bytes: &mut [u8], words: &[u64; LANES]) {
    for (b, w) in bytes.chunks_exact_mut(8).zip(words.iter()) {
        b.copy_from_slice(&w.to_ne_bytes());
    }
}

#[inline(always)]
fn xor_chunks(mut d: [u64; LANES], p: [u64; LANES]) -> [u64; LANES] {
    for (dw, pw) in d.iter_mut().zip(p.iter()) {
        *dw ^= *pw;
    }
    d
}

macro_rules! swar_kernel {
    ($name:ident, |$d:ident, $p:ident| $combine:expr) => {
        pub(super) fn $name(dst: &mut [u8], src: &[u8], c: u8) {
            const STEP: usize = LANES * 8;
            let partials = broadcast_partials(c);
            let split = dst.len() - dst.len() % STEP;
            let (dst_body, dst_tail) = dst.split_at_mut(split);
            let (src_body, src_tail) = src.split_at(split);
            for (d_chunk, s_chunk) in dst_body
                .chunks_exact_mut(STEP)
                .zip(src_body.chunks_exact(STEP))
            {
                let $p = mul_chunk(&load_chunk(s_chunk), &partials);
                #[allow(unused_variables)]
                let $d = load_chunk(d_chunk);
                store_chunk(d_chunk, &$combine);
            }
            super::scalar::$name(dst_tail, src_tail, c);
        }
    };
}

swar_kernel!(mul_slice, |d, p| p);
swar_kernel!(mul_add_slice, |d, p| xor_chunks(d, p));

/// The fused entry point loops over rows: the SWAR ladder is
/// compute-bound, so re-reading `out` per row costs little.
pub(super) fn mul_add_rows(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    for (&c, row) in coeffs.iter().zip(rows) {
        mul_add_slice(out, row, c);
    }
}

pub(super) fn scale_slice(dst: &mut [u8], c: u8) {
    const STEP: usize = LANES * 8;
    let partials = broadcast_partials(c);
    let split = dst.len() - dst.len() % STEP;
    let (body, tail) = dst.split_at_mut(split);
    for chunk in body.chunks_exact_mut(STEP) {
        let words = mul_chunk(&load_chunk(chunk), &partials);
        store_chunk(chunk, &words);
    }
    super::scalar::scale_slice(tail, c);
}
