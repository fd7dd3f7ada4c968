//! Explicit x86_64 AVX2 kernel: GF(2^8) constant multiplication via
//! `vpshufb` nibble-table lookups.
//!
//! `c * x` splits over the low/high nibble of each byte:
//! `c*x = c*(x & 0x0F) ⊕ c*(x >> 4 << 4)`. Both partial products come from
//! 16-entry tables, and `vpshufb` looks up 32 lanes per instruction. This
//! is the classic vectorized Reed-Solomon/RLNC kernel (ISA-L, kodo,
//! klauspost/reedsolomon all use it). The table pair of every coefficient
//! is computed at compile time ([`NIBBLES`]).
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table after `is_x86_feature_detected!` confirmed the feature
//! (see `KernelTier::is_supported`), and all memory access goes through
//! `loadu`/`storeu` on ranges the safe callers have bounds-checked.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{const_mul, Ops};
use crate::gf256::Gf256;

pub(super) static AVX2_OPS: Ops = Ops {
    mul: mul_slice_avx2_entry,
    scale: scale_slice_avx2_entry,
    mul_add_rows: mul_add_rows_avx2_entry,
};

/// The two 16-entry partial-product tables of every coefficient, low
/// nibble first: `NIBBLES[c][i] = c·i`, `NIBBLES[c][16 + i] = c·(i << 4)`
/// (8 KiB, built at compile time).
static NIBBLES: [[u8; 32]; 256] = {
    let mut table = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut i = 0;
        while i < 16 {
            table[c][i] = const_mul(c as u8, i as u8);
            table[c][16 + i] = const_mul(c as u8, (i as u8) << 4);
            i += 1;
        }
        c += 1;
    }
    table
};

fn mul_slice_avx2_entry(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    // SAFETY: this entry is only installed in `AVX2_OPS`, which the
    // dispatcher hands out strictly after `is_supported()` returned true
    // for AVX2 on this CPU; both ranges are `dst.len()` long.
    unsafe { mul_avx2(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
}

fn scale_slice_avx2_entry(dst: &mut [u8], c: u8) {
    let p = dst.as_mut_ptr();
    // SAFETY: see `mul_slice_avx2_entry`; source and destination are the
    // same range, and each step loads before it stores.
    unsafe { mul_avx2(p, p, dst.len(), c) }
}

fn mul_add_rows_avx2_entry(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    assert!(
        rows.iter().all(|row| row.len() == out.len()),
        "slice length mismatch"
    );
    // SAFETY: see `mul_slice_avx2_entry`; every row is as long as `out`.
    unsafe { mul_add_rows_avx2(out, coeffs, rows) }
}

/// Bytes of `out` one fused pass keeps in registers (four ymm
/// accumulators).
const BLOCK: usize = 128;

/// # Safety
///
/// The CPU must support AVX; `p` must be valid for 32 bytes.
#[inline(always)]
unsafe fn load(p: *const u8) -> __m256i {
    _mm256_loadu_si256(p.cast())
}

/// # Safety
///
/// The CPU must support AVX; `p` must be valid for 32 bytes of writes.
#[inline(always)]
unsafe fn store(p: *mut u8, v: __m256i) {
    _mm256_storeu_si256(p.cast(), v)
}

/// The broadcast nibble tables of `c` plus the low-nibble mask.
#[derive(Clone, Copy)]
struct Tables {
    lo: __m256i,
    hi: __m256i,
    low_mask: __m256i,
}

/// # Safety
///
/// The CPU must support AVX2.
#[inline(always)]
unsafe fn tables(c: u8) -> Tables {
    let t = NIBBLES[c as usize].as_ptr();
    Tables {
        lo: _mm256_broadcastsi128_si256(_mm_loadu_si128(t.cast())),
        hi: _mm256_broadcastsi128_si256(_mm_loadu_si128(t.add(16).cast())),
        low_mask: _mm256_set1_epi8(0x0F),
    }
}

/// One 32-lane product: `vpshufb(lo, v & 0xF) ^ vpshufb(hi, v >> 4)`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline(always)]
unsafe fn mul32(v: __m256i, t: Tables) -> __m256i {
    let lo = _mm256_and_si256(v, t.low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), t.low_mask);
    _mm256_xor_si256(_mm256_shuffle_epi8(t.lo, lo), _mm256_shuffle_epi8(t.hi, hi))
}

/// `acc ^= c * src[0..32]`.
///
/// # Safety
///
/// The CPU must support AVX2; `src` must be valid for 32 bytes.
#[inline(always)]
unsafe fn mul_xor(acc: __m256i, src: *const u8, t: Tables) -> __m256i {
    _mm256_xor_si256(acc, mul32(load(src), t))
}

/// `dst[..len] = c * src[..len]`; `dst` may equal `src`.
///
/// # Safety
///
/// The CPU must support AVX2, and both pointers must be valid for `len`
/// bytes (`dst` for writes).
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2(dst: *mut u8, src: *const u8, len: usize, c: u8) {
    let t = tables(c);
    let mut i = 0;
    while i + 32 <= len {
        store(dst.add(i), mul32(load(src.add(i)), t));
        i += 32;
    }
    let row = Gf256::mul_row(c);
    while i < len {
        *dst.add(i) = row[*src.add(i) as usize];
        i += 1;
    }
}

/// The fused kernel: every `BLOCK`-byte block of `out` is loaded once,
/// accumulates `coeffs[i] * rows[i]` for every row, and is stored once;
/// the remainder runs in 32-byte steps and a per-byte table tail.
///
/// # Safety
///
/// The CPU must support AVX2, and every row must be at least `out.len()`
/// bytes long.
#[target_feature(enable = "avx2")]
unsafe fn mul_add_rows_avx2(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    let len = out.len();
    let dst = out.as_mut_ptr();
    let mut i = 0;
    while i + BLOCK <= len {
        let mut a0 = load(dst.add(i));
        let mut a1 = load(dst.add(i + 32));
        let mut a2 = load(dst.add(i + 64));
        let mut a3 = load(dst.add(i + 96));
        for (&c, row) in coeffs.iter().zip(rows) {
            let t = tables(c);
            let s = row.as_ptr().add(i);
            a0 = mul_xor(a0, s, t);
            a1 = mul_xor(a1, s.add(32), t);
            a2 = mul_xor(a2, s.add(64), t);
            a3 = mul_xor(a3, s.add(96), t);
        }
        store(dst.add(i), a0);
        store(dst.add(i + 32), a1);
        store(dst.add(i + 64), a2);
        store(dst.add(i + 96), a3);
        i += BLOCK;
    }
    while i + 32 <= len {
        let mut a = load(dst.add(i));
        for (&c, row) in coeffs.iter().zip(rows) {
            a = mul_xor(a, row.as_ptr().add(i), tables(c));
        }
        store(dst.add(i), a);
        i += 32;
    }
    if i < len {
        for (&c, row) in coeffs.iter().zip(rows) {
            super::scalar::mul_add_slice(&mut out[i..], &row[i..], c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_are_the_multiplication_map() {
        for c in 0..=255u8 {
            let t = &NIBBLES[c as usize];
            let row = Gf256::mul_row(c);
            for x in 0..=255u8 {
                let split = t[(x & 0x0F) as usize] ^ t[16 + (x >> 4) as usize];
                assert_eq!(split, row[x as usize], "c={c} x={x}");
            }
        }
    }
}
