//! Portable baseline kernel: one 256-entry product-table row per
//! coefficient, one lookup plus one XOR per byte.
//!
//! The single-row entry points require `c >= 2` (the `0`/`1` fast paths
//! live in the dispatch layer); the fused entry point takes any nonzero
//! coefficient.

use crate::gf256::Gf256;

pub(super) fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    let row = Gf256::mul_row(c);
    for (d, s) in dst.iter_mut().zip(src) {
        *d = row[*s as usize];
    }
}

pub(super) fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    let row = Gf256::mul_row(c);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

pub(super) fn scale_slice(dst: &mut [u8], c: u8) {
    let row = Gf256::mul_row(c);
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

pub(super) fn mul_add_rows(out: &mut [u8], coeffs: &[u8], rows: &[&[u8]]) {
    for (&c, row) in coeffs.iter().zip(rows) {
        mul_add_slice(out, row, c);
    }
}
