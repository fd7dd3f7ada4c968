//! GFNI + AVX-512 kernel: GF(2^8) constant multiplication via
//! `vgf2p8affineqb` on 64-byte registers.
//!
//! GFNI's dedicated multiply (`gf2p8mulb`) hardwires the AES polynomial
//! 0x11B, but this crate's field uses the Reed-Solomon polynomial 0x11D
//! (see `gf256::POLY`) — using the multiply instruction directly would be
//! silently wrong. Multiplication by a *constant* is a GF(2)-linear map on
//! the bits of the input byte, though, so it can be expressed as an 8×8
//! bit matrix and evaluated with the polynomial-agnostic affine
//! instruction (`vgf2p8affineqb`): one instruction per 64 bytes, no
//! nibble tables, no shuffles. This is the ISA-L / klauspost-reedsolomon
//! approach to GFNI over non-AES polynomials.
//!
//! The matrix for coefficient `c` has column `j` equal to `c · x^j` in the
//! field, so `matrix · bits(x) = bits(c·x)` for every `x`; all 256 of them
//! are computed at compile time ([`AFFINE`]). Slice lengths that are not a
//! multiple of 64 finish with one masked load/store instead of a per-byte
//! scalar tail, so a g-byte coefficient row costs one vector step.
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table after `is_x86_feature_detected!` confirmed GFNI and the
//! AVX-512 foundation (see `KernelTier::is_supported`). Full-width
//! accesses stay inside ranges the safe callers have bounds-checked; the
//! masked tail accesses touch only the unmasked in-range bytes (masked-off
//! lanes never fault).
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{const_mul, Ops};

pub(super) static GFNI_OPS: Ops = Ops {
    mul: mul_slice_gfni_entry,
    scale: scale_slice_gfni_entry,
    mul_add_rows: mul_add_rows_gfni_entry,
};

/// Bytes of `out` one fused pass keeps in registers (four zmm
/// accumulators).
const BLOCK: usize = 256;

/// The 8×8 GF(2) bit matrix `A` with `A · bits(x) = bits(c·x)`, packed in
/// the qword layout `vgf2p8affineqb` expects: result bit `i` is
/// `parity(A.byte[7-i] & x)`, so byte `7-i` holds the mask of input bits
/// feeding output bit `i`.
const fn affine_matrix(c: u8) -> u64 {
    let mut bytes = [0u8; 8];
    let mut i = 0;
    while i < 8 {
        let mut mask = 0u8;
        let mut j = 0;
        while j < 8 {
            // Column j of the matrix is c * x^j; take its bit i.
            if const_mul(c, 1 << j) & (1 << i) != 0 {
                mask |= 1 << j;
            }
            j += 1;
        }
        bytes[7 - i] = mask;
        i += 1;
    }
    u64::from_le_bytes(bytes)
}

/// [`affine_matrix`] for every coefficient (2 KiB, built at compile time).
static AFFINE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = affine_matrix(c as u8);
        c += 1;
    }
    table
};

/// The broadcast affine matrix of `c`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[inline(always)]
unsafe fn matrix(c: u8) -> __m512i {
    _mm512_set1_epi64(AFFINE[c as usize] as i64)
}

/// Mask selecting the low `n < 64` byte lanes.
#[inline(always)]
fn tail_mask(n: usize) -> __mmask64 {
    (1u64 << n) - 1
}

fn mul_slice_gfni_entry(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    // SAFETY: this entry is only installed in `GFNI_OPS`, which the
    // dispatcher hands out strictly after `is_supported()` returned true
    // for GFNI + AVX-512 on this CPU; both ranges are `dst.len()` long.
    unsafe { mul_gfni(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
}

fn scale_slice_gfni_entry(dst: &mut [u8], c: u8) {
    let p = dst.as_mut_ptr();
    // SAFETY: see `mul_slice_gfni_entry`; source and destination are the
    // same range, and each step loads before it stores.
    unsafe { mul_gfni(p, p, dst.len(), c) }
}

fn mul_add_rows_gfni_entry(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    assert!(
        rows.iter().all(|row| row.len() == out.len()),
        "slice length mismatch"
    );
    // SAFETY: see `mul_slice_gfni_entry`; every row is as long as `out`.
    unsafe { mul_add_rows_gfni(out, coeffs, rows) }
}

/// `dst[..len] = c * src[..len]`; `dst` may equal `src`.
///
/// # Safety
///
/// The CPU must support GFNI, AVX-512F and AVX-512BW, and both pointers
/// must be valid for `len` bytes (`dst` for writes).
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn mul_gfni(dst: *mut u8, src: *const u8, len: usize, c: u8) {
    let m = matrix(c);
    let mut i = 0;
    while i + 64 <= len {
        let v = _mm512_loadu_si512(src.add(i).cast());
        _mm512_storeu_si512(dst.add(i).cast(), _mm512_gf2p8affine_epi64_epi8::<0>(v, m));
        i += 64;
    }
    if i < len {
        let k = tail_mask(len - i);
        let v = _mm512_maskz_loadu_epi8(k, src.add(i).cast());
        _mm512_mask_storeu_epi8(
            dst.add(i).cast(),
            k,
            _mm512_gf2p8affine_epi64_epi8::<0>(v, m),
        );
    }
}

/// `acc ^= c * src[0..64]` for one 64-byte lane group.
///
/// # Safety
///
/// The CPU must support GFNI and AVX-512F; `src` must be valid for 64
/// bytes.
#[inline(always)]
unsafe fn mul_xor(acc: __m512i, src: *const u8, m: __m512i) -> __m512i {
    let v = _mm512_loadu_si512(src.cast());
    _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8::<0>(v, m))
}

/// The fused kernel: every `BLOCK`-byte block of `out` is loaded once,
/// accumulates `coeffs[i] * rows[i]` for every row in four zmm
/// registers, and is stored once; the remainder runs in 64-byte steps
/// and one masked step.
///
/// # Safety
///
/// The CPU must support GFNI, AVX-512F and AVX-512BW, and every row must
/// be at least `out.len()` bytes long.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn mul_add_rows_gfni(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    let len = out.len();
    let dst = out.as_mut_ptr();
    let mut i = 0;
    while i + BLOCK <= len {
        let mut a0 = _mm512_loadu_si512(dst.add(i).cast());
        let mut a1 = _mm512_loadu_si512(dst.add(i + 64).cast());
        let mut a2 = _mm512_loadu_si512(dst.add(i + 128).cast());
        let mut a3 = _mm512_loadu_si512(dst.add(i + 192).cast());
        for (&c, row) in coeffs.iter().zip(rows) {
            let m = matrix(c);
            let s = row.as_ptr().add(i);
            a0 = mul_xor(a0, s, m);
            a1 = mul_xor(a1, s.add(64), m);
            a2 = mul_xor(a2, s.add(128), m);
            a3 = mul_xor(a3, s.add(192), m);
        }
        _mm512_storeu_si512(dst.add(i).cast(), a0);
        _mm512_storeu_si512(dst.add(i + 64).cast(), a1);
        _mm512_storeu_si512(dst.add(i + 128).cast(), a2);
        _mm512_storeu_si512(dst.add(i + 192).cast(), a3);
        i += BLOCK;
    }
    while i + 64 <= len {
        let mut a = _mm512_loadu_si512(dst.add(i).cast());
        for (&c, row) in coeffs.iter().zip(rows) {
            a = mul_xor(a, row.as_ptr().add(i), matrix(c));
        }
        _mm512_storeu_si512(dst.add(i).cast(), a);
        i += 64;
    }
    if i < len {
        let k = tail_mask(len - i);
        let mut a = _mm512_maskz_loadu_epi8(k, dst.add(i).cast());
        for (&c, row) in coeffs.iter().zip(rows) {
            let v = _mm512_maskz_loadu_epi8(k, row.as_ptr().add(i).cast());
            a = _mm512_xor_si512(a, _mm512_gf2p8affine_epi64_epi8::<0>(v, matrix(c)));
        }
        _mm512_mask_storeu_epi8(dst.add(i).cast(), k, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    #[test]
    fn affine_matrix_is_the_multiplication_map() {
        // Evaluate each matrix by hand (parity of masked bits) against the
        // product table, for every (coefficient, byte) pair.
        for c in 0..=255u8 {
            let m = AFFINE[c as usize].to_le_bytes();
            let row = Gf256::mul_row(c);
            for x in 0..=255u8 {
                let mut y = 0u8;
                for i in 0..8 {
                    if (m[7 - i] & x).count_ones() % 2 == 1 {
                        y |= 1 << i;
                    }
                }
                assert_eq!(y, row[x as usize], "c={c} x={x}");
            }
        }
    }
}
