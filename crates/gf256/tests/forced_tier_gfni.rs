//! `NCVNF_GF256_KERNEL=gfni` pins dispatch to the GFNI/AVX-512 tier.
//!
//! Own test binary for the same reason as `forced_tier_env.rs`: the tier
//! is resolved once per process, so the variable must be set before
//! anything touches `bulk`. Unlike SWAR, GFNI is not universally
//! available — on hosts without it the test skips (prints and returns)
//! rather than failing, so the suite stays green on older CPUs.

use ncvnf_gf256::{bulk, Gf256};

#[test]
fn env_var_pins_the_gfni_tier_and_matches_the_field() {
    if !bulk::KernelTier::Gfni.is_supported() {
        eprintln!("skipping: CPU lacks GFNI/AVX-512 (gfni+avx512f+avx512bw)");
        return;
    }
    std::env::set_var("NCVNF_GF256_KERNEL", "gfni");

    assert_eq!(bulk::kernel_tier(), bulk::KernelTier::Gfni);

    // The dispatched entry points now run on the GFNI kernel and must
    // match the scalar field arithmetic, including the masked
    // non-multiple-of-64 tail of a 1461-byte slice.
    let c = 0x9Du8;
    let src: Vec<u8> = (0..1461u32)
        .map(|i| (i.wrapping_mul(7) >> 2) as u8)
        .collect();
    let mut dst = vec![0u8; src.len()];
    bulk::mul_slice(&mut dst, &src, c);
    for (&d, &s) in dst.iter().zip(&src) {
        assert_eq!(d, (Gf256::new(c) * Gf256::new(s)).value());
    }

    let mut acc = vec![0xA5u8; src.len()];
    bulk::mul_add_slice(&mut acc, &src, c);
    for (&a, &d) in acc.iter().zip(&dst) {
        assert_eq!(a, 0xA5 ^ d);
    }

    let mut scaled = src.clone();
    bulk::scale_slice(&mut scaled, c);
    assert_eq!(scaled, dst);

    // The fused multi-row entry point: row counts on both sides of the
    // 32-row pass group, lengths on both sides of the 64-byte step and
    // the 256-byte block (masked tails included), with zero and unit
    // coefficients mixed in.
    for g in [0usize, 1, 2, 3, 4, 16, 31, 32, 33, 64] {
        for len in [0usize, 1, 31, 63, 64, 65, 255, 256, 257, 1460, 1461] {
            let rows: Vec<Vec<u8>> = (0..g)
                .map(|r| (0..len).map(|i| (i * 31 + r * 7 + 3) as u8).collect())
                .collect();
            let coeffs: Vec<u8> = (0..g)
                .map(|r| match r % 4 {
                    0 => 0,
                    1 => 1,
                    _ => (r * 37 + 5) as u8,
                })
                .collect();
            let out0: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let mut expect = out0.clone();
            for (&cr, row) in coeffs.iter().zip(&rows) {
                for (e, &s) in expect.iter_mut().zip(row) {
                    *e ^= (Gf256::new(cr) * Gf256::new(s)).value();
                }
            }
            let mut out = out0.clone();
            bulk::mul_add_rows(&mut out, &coeffs, &rows);
            assert_eq!(out, expect, "mul_add_rows g={g} len={len}");
            let mut zeroed = vec![0u8; len];
            let mut from_zero = out0.clone();
            bulk::linear_combine(&mut from_zero, &coeffs, &rows);
            bulk::mul_add_rows(&mut zeroed, &coeffs, &rows);
            assert_eq!(from_zero, zeroed, "linear_combine g={g} len={len}");
        }
    }
}
