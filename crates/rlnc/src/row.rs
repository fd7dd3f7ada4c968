//! Cache-line-aligned payload rows for the elimination buffers.
//!
//! The fused GF(2^8) kernel streams every buffered row once per coded
//! row in 64-byte loads. A row that starts off a 64-byte boundary splits
//! every one of those loads across two cache lines, which on the GFNI
//! tier halves the kernel's throughput at g = 32. The allocator only
//! promises 16-byte alignment, so decoders and recoders keep their
//! payload rows in [`AlignedRow`]s.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Row alignment: one cache line, the width of the widest kernel load.
const ALIGN: usize = 64;

/// A fixed-length byte row whose first byte sits on a 64-byte boundary
/// (over-allocates by at most 63 bytes).
pub(crate) struct AlignedRow {
    buf: Vec<u8>,
    start: usize,
    len: usize,
}

impl AlignedRow {
    /// A zeroed row of `len` bytes.
    pub(crate) fn zeroed(len: usize) -> Self {
        let buf = vec![0u8; len + ALIGN - 1];
        let start = (ALIGN - buf.as_ptr() as usize % ALIGN) % ALIGN;
        AlignedRow { buf, start, len }
    }

    /// An aligned copy of `data`.
    pub(crate) fn copy_of(data: &[u8]) -> Self {
        let mut row = Self::zeroed(data.len());
        row.copy_from_slice(data);
        row
    }
}

impl Deref for AlignedRow {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl DerefMut for AlignedRow {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for AlignedRow {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Cloning re-aligns: the copy lives in its own allocation.
impl Clone for AlignedRow {
    fn clone(&self) -> Self {
        Self::copy_of(self)
    }
}

impl fmt::Debug for AlignedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_aligned_and_keep_their_bytes() {
        for len in [0usize, 1, 63, 64, 1460] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let row = AlignedRow::copy_of(&data);
            assert_eq!(row.as_ptr() as usize % ALIGN, 0);
            assert_eq!(&*row, &data[..]);
            let copy = row.clone();
            assert_eq!(copy.as_ptr() as usize % ALIGN, 0);
            assert_eq!(&*copy, &data[..]);
        }
    }
}
