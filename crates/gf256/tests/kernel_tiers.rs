//! Differential tests for the bulk-kernel tiers.
//!
//! Every compiled tier the CPU supports must agree, byte for byte, with a
//! reference computed from the scalar `Gf256` field API — for every
//! coefficient, for lengths that straddle each kernel's vector width, and
//! for slices that do not start on an aligned address. The fused
//! multi-row entry point is checked the same way, for row counts on both
//! sides of its per-pass row group.

use ncvnf_gf256::{bulk, Gf256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths that stress kernel edge handling: empty, below/at/past the
/// 8-byte SWAR word, a 16-byte half vector, the 32-byte AVX2 and 64-byte
/// GFNI/AVX-512 vector widths, and the paper's 1460-byte MTU payload plus
/// one.
const EDGE_LENGTHS: &[usize] = &[
    0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1460, 1461,
];

fn supported_tiers() -> Vec<bulk::KernelTier> {
    bulk::compiled_tiers()
        .iter()
        .copied()
        .filter(|t| t.is_supported())
        .collect()
}

/// `c * src[i]` computed one byte at a time through the field API, with
/// no shared code or tables with the bulk kernels' fast paths.
fn reference_mul(src: &[u8], c: u8) -> Vec<u8> {
    src.iter()
        .map(|&s| (Gf256::new(c) * Gf256::new(s)).value())
        .collect()
}

fn check_all_ops(tier: bulk::KernelTier, dst0: &[u8], src: &[u8], c: u8, label: &str) {
    let product = reference_mul(src, c);
    let accumulated: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();

    let mut dst = dst0.to_vec();
    tier.mul_slice(&mut dst, src, c);
    assert_eq!(dst, product, "mul_slice {label} tier={} c={c}", tier.name());

    let mut dst = dst0.to_vec();
    tier.mul_add_slice(&mut dst, src, c);
    assert_eq!(
        dst,
        accumulated,
        "mul_add_slice {label} tier={} c={c}",
        tier.name()
    );

    let mut dst = src.to_vec();
    tier.scale_slice(&mut dst, c);
    assert_eq!(
        dst,
        product,
        "scale_slice {label} tier={} c={c}",
        tier.name()
    );
}

/// Every tier × every coefficient × every edge length.
#[test]
fn every_tier_matches_field_reference_for_all_coefficients() {
    let mut rng = StdRng::seed_from_u64(0x7135_0001);
    for &len in EDGE_LENGTHS {
        let mut src = vec![0u8; len];
        let mut dst0 = vec![0u8; len];
        rng.fill(&mut src[..]);
        rng.fill(&mut dst0[..]);
        for c in 0..=255u8 {
            for tier in supported_tiers() {
                check_all_ops(tier, &dst0, &src, c, &format!("len={len}"));
            }
        }
    }
}

/// Slices that start 1..8 bytes past an allocation boundary, so the SIMD
/// tiers cannot assume 16/32-byte alignment of either operand.
#[test]
fn every_tier_matches_on_unaligned_slices() {
    let mut rng = StdRng::seed_from_u64(0x7135_0002);
    let len = 1461;
    for offset in 1..8usize {
        let mut src_buf = vec![0u8; len + offset];
        let mut dst_buf = vec![0u8; len + offset];
        rng.fill(&mut src_buf[..]);
        rng.fill(&mut dst_buf[..]);
        let src = &src_buf[offset..];
        let dst0 = &dst_buf[offset..];
        for &c in &[0u8, 1, 2, 0x53, 0x8E, 0xFF] {
            for tier in supported_tiers() {
                check_all_ops(tier, dst0, src, c, &format!("offset={offset}"));
            }
        }
    }
}

/// The process-wide dispatched entry points agree with the field too
/// (whatever tier dispatch picked on this machine).
#[test]
fn dispatched_entry_points_match_field_reference() {
    let mut rng = StdRng::seed_from_u64(0x7135_0003);
    let len = 1460;
    let mut src = vec![0u8; len];
    let mut dst0 = vec![0u8; len];
    rng.fill(&mut src[..]);
    rng.fill(&mut dst0[..]);
    for &c in &[0u8, 1, 0x35, 0xC7] {
        let product = reference_mul(&src, c);

        let mut dst = dst0.clone();
        bulk::mul_slice(&mut dst, &src, c);
        assert_eq!(dst, product);

        let mut dst = dst0.clone();
        bulk::mul_add_slice(&mut dst, &src, c);
        let accumulated: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();
        assert_eq!(dst, accumulated);

        let mut dst = src.clone();
        bulk::scale_slice(&mut dst, c);
        assert_eq!(dst, product);
    }
}

/// Row counts for the fused entry point: empty, single, small, and both
/// sides of the 32-row group one fused pass accumulates.
const FUSED_ROW_COUNTS: &[usize] = &[0, 1, 2, 3, 4, 16, 31, 32, 33, 64];

/// Lengths for the fused entry point: both sides of the 64-byte vector
/// step and of the 256-byte fused block, plus the MTU payload.
const FUSED_LENGTHS: &[usize] = &[0, 1, 31, 63, 64, 65, 255, 256, 257, 1460, 1461];

/// `out0 ^ Σ coeffs[i] * rows[i]`, one byte and one row at a time through
/// the field API.
fn reference_combine(out0: &[u8], coeffs: &[u8], rows: &[Vec<u8>]) -> Vec<u8> {
    let mut out = out0.to_vec();
    for (&c, row) in coeffs.iter().zip(rows) {
        for (o, p) in out.iter_mut().zip(reference_mul(row, c)) {
            *o ^= p;
        }
    }
    out
}

fn check_fused(tier: bulk::KernelTier, out0: &[u8], coeffs: &[u8], rows: &[Vec<u8>], label: &str) {
    let expect = reference_combine(out0, coeffs, rows);
    let mut out = out0.to_vec();
    tier.mul_add_rows(&mut out, coeffs, rows);
    assert_eq!(out, expect, "mul_add_rows {label} tier={}", tier.name());

    let expect = reference_combine(&vec![0u8; out0.len()], coeffs, rows);
    let mut out = out0.to_vec();
    tier.linear_combine(&mut out, coeffs, rows);
    assert_eq!(out, expect, "linear_combine {label} tier={}", tier.name());
}

/// Every tier × every row count × every length, with coefficient vectors
/// that are random, all-zero, all-one, and a mix of zero, one and random
/// entries.
#[test]
fn fused_rows_match_field_reference_on_every_tier() {
    let mut rng = StdRng::seed_from_u64(0x7135_0004);
    for &g in FUSED_ROW_COUNTS {
        for &len in FUSED_LENGTHS {
            let rows: Vec<Vec<u8>> = (0..g)
                .map(|_| {
                    let mut row = vec![0u8; len];
                    rng.fill(&mut row[..]);
                    row
                })
                .collect();
            let mut out0 = vec![0u8; len];
            rng.fill(&mut out0[..]);
            let mut random = vec![0u8; g];
            rng.fill(&mut random[..]);
            let mixed: Vec<u8> = random
                .iter()
                .enumerate()
                .map(|(i, &c)| match i % 3 {
                    0 => 0,
                    1 => 1,
                    _ => c,
                })
                .collect();
            let cases = [
                ("random", random.clone()),
                ("zero", vec![0u8; g]),
                ("unit", vec![1u8; g]),
                ("mixed", mixed),
            ];
            for tier in supported_tiers() {
                for (name, coeffs) in &cases {
                    check_fused(
                        tier,
                        &out0,
                        coeffs,
                        &rows,
                        &format!("g={g} len={len} {name}"),
                    );
                }
            }
        }
    }
}

/// The dispatched fused entry points agree with the field reference and
/// accept any `AsRef<[u8]>` row type (borrowed slices here, owned
/// vectors above).
#[test]
fn dispatched_fused_entry_points_match_field_reference() {
    let mut rng = StdRng::seed_from_u64(0x7135_0005);
    let owned: Vec<Vec<u8>> = (0..33)
        .map(|_| {
            let mut row = vec![0u8; 1460];
            rng.fill(&mut row[..]);
            row
        })
        .collect();
    let rows: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let mut coeffs = vec![0u8; rows.len()];
    rng.fill(&mut coeffs[..]);
    let mut out0 = vec![0u8; 1460];
    rng.fill(&mut out0[..]);

    let mut out = out0.clone();
    bulk::mul_add_rows(&mut out, &coeffs, &rows);
    assert_eq!(out, reference_combine(&out0, &coeffs, &owned));

    bulk::linear_combine(&mut out, &coeffs, &rows);
    assert_eq!(out, reference_combine(&vec![0u8; 1460], &coeffs, &owned));
}

/// A row whose length differs from `out` panics on every tier, even when
/// its coefficient is zero.
#[test]
fn fused_rows_reject_length_mismatch_on_every_tier() {
    for tier in supported_tiers() {
        for c in [0u8, 1, 0x53] {
            let result = std::panic::catch_unwind(|| {
                let mut out = vec![0u8; 64];
                tier.mul_add_rows(&mut out, &[3, c], &[vec![1u8; 64], vec![2u8; 63]]);
            });
            let err = result.expect_err("length mismatch must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("length mismatch"),
                "tier={} c={c}: {msg}",
                tier.name()
            );
        }
    }
}

#[test]
#[should_panic(expected = "coefficient/row count mismatch")]
fn fused_rows_reject_count_mismatch() {
    let mut out = vec![0u8; 8];
    bulk::mul_add_rows(&mut out, &[1, 2], &[vec![0u8; 8]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random data, random coefficient, random length and start offset:
    /// all tiers agree with the field reference.
    #[test]
    fn tiers_agree_on_random_slices(
        data in prop::collection::vec(any::<u8>(), 0..1600usize),
        c in any::<u8>(),
        offset in 0usize..8,
    ) {
        let offset = offset.min(data.len());
        let src = &data[offset..];
        // Deterministic second operand so `mul_add` sees a non-trivial dst.
        let dst0: Vec<u8> = src.iter().map(|b| b.wrapping_mul(31).wrapping_add(7)).collect();
        let product = reference_mul(src, c);
        let accumulated: Vec<u8> =
            dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();

        for tier in supported_tiers() {
            let mut dst = dst0.clone();
            tier.mul_slice(&mut dst, src, c);
            prop_assert_eq!(&dst, &product);

            let mut dst = dst0.clone();
            tier.mul_add_slice(&mut dst, src, c);
            prop_assert_eq!(&dst, &accumulated);

            let mut dst = src.to_vec();
            tier.scale_slice(&mut dst, c);
            prop_assert_eq!(&dst, &product);
        }
    }

    /// Random row sets of random length and random coefficients (zeros
    /// and ones included): every tier's fused combination agrees with
    /// the field reference.
    #[test]
    fn fused_tiers_agree_on_random_rows(
        len in 0usize..1600,
        coeffs in prop::collection::vec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..70),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u8>> = coeffs
            .iter()
            .map(|_| {
                let mut row = vec![0u8; len];
                rng.fill(&mut row[..]);
                row
            })
            .collect();
        let mut out0 = vec![0u8; len];
        rng.fill(&mut out0[..]);
        let expect = reference_combine(&out0, &coeffs, &rows);
        for tier in supported_tiers() {
            let mut out = out0.clone();
            tier.mul_add_rows(&mut out, &coeffs, &rows);
            prop_assert_eq!(&out, &expect);
        }
    }
}
