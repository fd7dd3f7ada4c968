//! Bulk slice kernels over GF(2^8), with runtime-dispatched tiers.
//!
//! The RLNC hot path builds every coded row as a linear combination of
//! buffered rows (≈1460-byte payloads and g-byte coefficient vectors):
//! `out ^= Σ cᵢ·rowᵢ`. [`mul_add_rows`] computes that sum in one fused
//! pass per block of `out` — the block is loaded once, accumulates every
//! source row in registers, and is stored once (the ISA-L
//! `gf_vect_dot_prod` pattern) — instead of one read-modify-write pass of
//! `out` per row. Four kernel implementations cover the hardware
//! spectrum:
//!
//! * [`KernelTier::Scalar`] — one 256-entry product-table lookup plus one
//!   XOR per byte. Portable reference; works everywhere.
//! * [`KernelTier::Swar`] — branchless Russian-peasant bit ladder over
//!   `u64` words (8 bytes per lane, four lanes per step). Safe Rust whose
//!   straight-line shift/XOR structure LLVM auto-vectorizes.
//! * [`KernelTier::Avx2`] — explicit x86_64 `vpshufb` kernel using
//!   16-entry low/high-nibble product tables, 32 bytes per shuffle pair.
//! * [`KernelTier::Gfni`] — GFNI + AVX-512 `vgf2p8affineqb` kernel, 64
//!   bytes per instruction via a per-coefficient 8×8 bit matrix (the
//!   field's 0x11D polynomial rules out the hardwired-0x11B `gf2p8mulb`),
//!   with masked loads/stores for the sub-64-byte tail.
//!
//! The per-coefficient constants of the vector tiers (GFNI matrices, AVX2
//! nibble tables) are computed at compile time, so no call rebuilds them.
//! The scalar and SWAR tiers' fused entry point loops over rows.
//!
//! The fastest tier the CPU supports is selected once per process (see
//! [`kernel_tier`]); every public entry point below then routes through it.
//! Set `NCVNF_GF256_KERNEL=scalar|swar|avx2|gfni` before first use to pin
//! a specific tier (benchmarking, differential testing); forcing a tier
//! the CPU cannot run panics rather than silently falling back.
//!
//! All functions interpret `&[u8]` as a vector of GF(2^8) elements.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod gfni;
mod scalar;
mod swar;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One bulk-kernel implementation level.
///
/// Tiers are ordered slowest-first, so `max`-style comparisons pick the
/// better kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Per-byte 256-entry product-table lookups (portable baseline).
    Scalar,
    /// SWAR bit ladder over `u64` words (safe Rust, auto-vectorizable).
    Swar,
    /// x86_64 AVX2 `vpshufb` nibble-table kernel (32 bytes per step).
    Avx2,
    /// x86_64 GFNI + AVX-512 `vgf2p8affineqb` kernel (64 bytes per step).
    Gfni,
}

impl KernelTier {
    /// Stable lower-case name (matches the `NCVNF_GF256_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Swar => "swar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Gfni => "gfni",
        }
    }

    /// Parses a `NCVNF_GF256_KERNEL` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "swar" => Some(KernelTier::Swar),
            "avx2" => Some(KernelTier::Avx2),
            "gfni" => Some(KernelTier::Gfni),
            _ => None,
        }
    }

    /// True when the running CPU can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Swar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// `dst[i] = c * src[i]` using this tier specifically, bypassing the
    /// process-wide dispatch (differential tests, per-tier benchmarks).
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or if the tier is unsupported here.
    pub fn mul_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => (self.ops().mul)(dst, src, c),
        }
    }

    /// `dst[i] ^= c * src[i]` using this tier specifically.
    ///
    /// # Panics
    ///
    /// Panics on slice length mismatch or if the tier is unsupported here.
    pub fn mul_add_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => {}
            1 => add_slice(dst, src),
            _ => (self.ops().mul_add_rows)(dst, &[c], &[src]),
        }
    }

    /// `dst[i] = c * dst[i]` using this tier specifically.
    ///
    /// # Panics
    ///
    /// Panics if the tier is unsupported on this CPU.
    pub fn scale_slice(self, dst: &mut [u8], c: u8) {
        match c {
            0 => dst.fill(0),
            1 => {}
            _ => (self.ops().scale)(dst, c),
        }
    }

    /// `out[j] ^= Σᵢ coeffs[i] * rows[i][j]` using this tier specifically
    /// (see [`mul_add_rows`]).
    ///
    /// # Panics
    ///
    /// Panics on a count or length mismatch, or if the tier is
    /// unsupported here.
    pub fn mul_add_rows<R: AsRef<[u8]>>(self, out: &mut [u8], coeffs: &[u8], rows: &[R]) {
        fused_rows(self.ops(), out, coeffs, rows);
    }

    /// `out = Σᵢ coeffs[i] * rows[i]` using this tier specifically (see
    /// [`linear_combine`]).
    ///
    /// # Panics
    ///
    /// Panics on a count or length mismatch, or if the tier is
    /// unsupported here.
    pub fn linear_combine<R: AsRef<[u8]>>(self, out: &mut [u8], coeffs: &[u8], rows: &[R]) {
        out.fill(0);
        self.mul_add_rows(out, coeffs, rows);
    }

    fn ops(self) -> &'static Ops {
        assert!(
            self.is_supported(),
            "GF(2^8) kernel tier `{}` is not supported on this CPU",
            self.name()
        );
        match self {
            KernelTier::Scalar => &SCALAR_OPS,
            KernelTier::Swar => &SWAR_OPS,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => &x86::AVX2_OPS,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => &gfni::GFNI_OPS,
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("unsupported tiers rejected above"),
        }
    }
}

/// The coefficient-dependent entry points of one kernel tier
/// (`add_slice` is coefficient-free and shared by all tiers).
pub(crate) struct Ops {
    /// `dst[..] = c * src[..]` with `c >= 2`.
    pub(crate) mul: fn(&mut [u8], &[u8], u8),
    /// `dst[..] = c * dst[..]` with `c >= 2`.
    pub(crate) scale: fn(&mut [u8], u8),
    /// `out[..] ^= Σ coeffs[i] * rows[i][..]` over at most [`ROW_GROUP`]
    /// rows, every coefficient nonzero and every row as long as `out`
    /// (`mul_add_slice` is its one-row case).
    pub(crate) mul_add_rows: fn(&mut [u8], &[u8], &[&[u8]]),
}

static SCALAR_OPS: Ops = Ops {
    mul: scalar::mul_slice,
    scale: scalar::scale_slice,
    mul_add_rows: scalar::mul_add_rows,
};

static SWAR_OPS: Ops = Ops {
    mul: swar::mul_slice,
    scale: swar::scale_slice,
    mul_add_rows: swar::mul_add_rows,
};

/// Rows one fused kernel call accumulates per pass over `out`. Longer
/// combinations run as consecutive passes of at most this many rows, so
/// the row-pointer array stays a fixed-size stack array.
const ROW_GROUP: usize = 32;

/// `a * b` in GF(2^8) by shift-and-add, usable in `const` context (the
/// vector tiers derive their per-coefficient constant tables from it at
/// compile time).
pub(crate) const fn const_mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b;
    let mut product = 0u16;
    while b != 0 {
        if b & 1 != 0 {
            product ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= crate::gf256::POLY as u16;
        }
        b >>= 1;
    }
    product as u8
}

/// Splits `Σ coeffs[i] * rows[i]` into stack-array groups of at most
/// [`ROW_GROUP`] nonzero-coefficient rows and hands each group to the
/// tier's fused kernel.
fn fused_rows<R: AsRef<[u8]>>(ops: &Ops, out: &mut [u8], coeffs: &[u8], rows: &[R]) {
    assert_eq!(coeffs.len(), rows.len(), "coefficient/row count mismatch");
    let mut group_coeffs = [0u8; ROW_GROUP];
    let mut group_rows: [&[u8]; ROW_GROUP] = [&[]; ROW_GROUP];
    let mut n = 0;
    for (&c, row) in coeffs.iter().zip(rows) {
        let row = row.as_ref();
        assert_eq!(row.len(), out.len(), "slice length mismatch");
        // Branch-free compaction: a zero-coefficient row is written into
        // the next slot but not kept, so sparse random coefficient
        // patterns cost no mispredicted branches.
        group_coeffs[n] = c;
        group_rows[n] = row;
        n += usize::from(c != 0);
        if n == ROW_GROUP {
            (ops.mul_add_rows)(out, &group_coeffs, &group_rows);
            n = 0;
        }
    }
    if n > 0 {
        (ops.mul_add_rows)(out, &group_coeffs[..n], &group_rows[..n]);
    }
}

/// Every tier compiled into this binary, slowest first (the x86 tiers are
/// listed even when the CPU lacks them — pair with
/// [`KernelTier::is_supported`]).
pub fn compiled_tiers() -> &'static [KernelTier] {
    #[cfg(target_arch = "x86_64")]
    {
        &[
            KernelTier::Scalar,
            KernelTier::Swar,
            KernelTier::Avx2,
            KernelTier::Gfni,
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[KernelTier::Scalar, KernelTier::Swar]
    }
}

fn select_tier() -> KernelTier {
    if let Ok(name) = std::env::var("NCVNF_GF256_KERNEL") {
        let tier = KernelTier::from_name(name.trim()).unwrap_or_else(|| {
            panic!("NCVNF_GF256_KERNEL={name:?} is not one of scalar|swar|avx2|gfni")
        });
        assert!(
            tier.is_supported(),
            "NCVNF_GF256_KERNEL={} forced, but this CPU does not support it",
            tier.name()
        );
        return tier;
    }
    *compiled_tiers()
        .iter()
        .filter(|t| t.is_supported())
        .max()
        .expect("scalar tier is always supported")
}

/// The tier all dispatched entry points below use, selected once per
/// process: the `NCVNF_GF256_KERNEL` override if set, otherwise the fastest
/// supported tier.
pub fn kernel_tier() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(select_tier)
}

#[inline]
fn active_ops() -> &'static Ops {
    kernel_tier().ops()
}

/// `dst[i] ^= src[i]` for all `i` (addition in GF(2^8)).
///
/// Addition is carry-free XOR, so one word-wide loop serves every tier
/// (LLVM vectorizes it to the widest available registers).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let split = dst.len() - dst.len() % 8;
    let (dst_chunks, dst_tail) = dst.split_at_mut(split);
    let (src_chunks, src_tail) = src.split_at(split);
    for (d, s) in dst_chunks
        .chunks_exact_mut(8)
        .zip(src_chunks.chunks_exact(8))
    {
        let x = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= *s;
    }
}

/// `dst[i] = c * dst[i]` for all `i`.
pub fn scale_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => (active_ops().scale)(dst, c),
    }
}

/// `dst[i] = c * src[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => (active_ops().mul)(dst, src, c),
    }
}

/// `dst[i] ^= c * src[i]` for all `i` — the RLNC inner loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use ncvnf_gf256::bulk::mul_add_slice;
/// let mut acc = vec![0u8; 4];
/// mul_add_slice(&mut acc, &[1, 2, 3, 4], 3);
/// mul_add_slice(&mut acc, &[1, 2, 3, 4], 3);
/// assert_eq!(acc, vec![0; 4]); // adding twice cancels in GF(2^8)
/// ```
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_slice(dst, src),
        _ => (active_ops().mul_add_rows)(dst, &[c], &[src]),
    }
}

/// `out[j] ^= Σᵢ coeffs[i] * rows[i][j]` — one coded row accumulated from
/// many source rows in a single fused pass.
///
/// This is the RLNC inner loop: the encoder, recoder and decoders build
/// every coded or eliminated row through it. Rows with a zero
/// coefficient are skipped without being read.
///
/// # Panics
///
/// Panics if `coeffs.len() != rows.len()` or if any row's length differs
/// from `out.len()`.
///
/// # Examples
///
/// ```
/// use ncvnf_gf256::bulk::mul_add_rows;
/// let rows = [vec![1u8, 0, 0], vec![0u8, 1, 0]];
/// let mut acc = vec![0u8, 0, 9];
/// mul_add_rows(&mut acc, &[5, 7], &rows);
/// assert_eq!(acc, vec![5, 7, 9]);
/// ```
pub fn mul_add_rows<R: AsRef<[u8]>>(out: &mut [u8], coeffs: &[u8], rows: &[R]) {
    fused_rows(active_ops(), out, coeffs, rows);
}

/// Dot product of a coefficient vector with a matrix of rows:
/// `out = Σ_i coeffs[i] * rows[i]` (the zeroing wrapper of
/// [`mul_add_rows`]).
///
/// This is exactly "compute one coded packet from a generation".
///
/// # Panics
///
/// Panics if `coeffs.len() != rows.len()`, if any row's length differs from
/// `out.len()`.
pub fn linear_combine<R: AsRef<[u8]>>(out: &mut [u8], coeffs: &[u8], rows: &[R]) {
    out.fill(0);
    mul_add_rows(out, coeffs, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    #[test]
    fn mul_slice_matches_scalar_multiplication() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let mut dst = vec![0u8; 256];
            mul_slice(&mut dst, &src, c);
            for (i, &d) in dst.iter().enumerate() {
                let expect = Gf256::new(c) * Gf256::new(src[i]);
                assert_eq!(d, expect.value());
            }
        }
    }

    #[test]
    fn scale_matches_mul() {
        let src: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        for c in [0u8, 1, 9, 200] {
            let mut a = src.clone();
            scale_slice(&mut a, c);
            let mut b = vec![0u8; src.len()];
            mul_slice(&mut b, &src, c);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mul_add_is_mul_then_add() {
        let src: Vec<u8> = (0..64).map(|i| (i * 31) as u8).collect();
        let base: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        for c in [0u8, 1, 77] {
            let mut a = base.clone();
            mul_add_slice(&mut a, &src, c);
            let mut product = vec![0u8; src.len()];
            mul_slice(&mut product, &src, c);
            let mut b = base.clone();
            add_slice(&mut b, &product);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn linear_combine_two_rows() {
        let r0 = [1u8, 0, 0];
        let r1 = [0u8, 1, 0];
        let mut out = [0u8; 3];
        linear_combine(&mut out, &[5, 7], &[&r0, &r1]);
        assert_eq!(out, [5, 7, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = [0u8; 3];
        mul_add_slice(&mut dst, &[1, 2], 3);
    }

    #[test]
    fn every_supported_tier_matches_the_table() {
        // Exhaustive over (coefficient, byte) for every runnable tier,
        // at a length that exercises vector body + scalar tail.
        let src: Vec<u8> = (0..=255u8).cycle().take(259).collect();
        for &tier in compiled_tiers() {
            if !tier.is_supported() {
                continue;
            }
            for c in 0..=255u8 {
                let mut got = vec![0u8; src.len()];
                tier.mul_slice(&mut got, &src, c);
                let row_check: Vec<u8> = src
                    .iter()
                    .map(|&s| (Gf256::new(c) * Gf256::new(s)).value())
                    .collect();
                assert_eq!(got, row_check, "tier {} c={}", tier.name(), c);
            }
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for &tier in compiled_tiers() {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::from_name("nope"), None);
    }

    #[test]
    fn dispatch_picks_a_supported_tier() {
        assert!(kernel_tier().is_supported());
    }
}
