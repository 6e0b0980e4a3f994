//! The global "virgin" coverage state that `compare` diffs against.
//!
//! AFL keeps one global map per outcome class — coverage, crashes, hangs.
//! Here each byte holds the bucket bits *seen* so far on its slot, so 0
//! means "never seen" and a fresh map is untouched zero pages (AFL stores
//! the complement and fills every map with `0xFF`). After classifying a
//! test case's local map, the fuzzer computes `new = cur & !seen`: any new
//! bit means the test case produced behaviour never seen before — a
//! brand-new edge when the slot's `seen` byte was 0, else a new hit-count
//! bucket on a known edge — and it is folded in with `seen |= cur`.
//!
//! The virgin map has the same shape as the local map, so under BigMap it is
//! condensed too: location `k` always denotes the same coverage key because
//! the index bitmap is never reset (§IV-B).

use crate::alloc::{HugePolicy, MapBuffer};
use crate::map_size::MapSize;

/// A virgin map: one byte of seen bucket bits per coverage slot, 0 = never
/// seen.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{MapSize, VirginState};
///
/// let virgin = VirginState::new(MapSize::K64);
/// assert_eq!(virgin.discovered_in(virgin.as_slice().len()), 0);
/// ```
#[derive(Debug, Clone)]
pub struct VirginState {
    buf: MapBuffer<u8>,
    size: MapSize,
}

impl VirginState {
    /// Creates an all-virgin (all-zero) map of `size` bytes, on base pages
    /// whatever the `BIGMAP_HUGE` policy (see [`crate::alloc`]).
    pub fn new(size: MapSize) -> Self {
        let buf = MapBuffer::zeroed_with(size.bytes(), HugePolicy::Off);
        VirginState { buf, size }
    }

    /// The logical map size this virgin state was created for.
    #[inline]
    pub fn map_size(&self) -> MapSize {
        self.size
    }

    /// Read-only view of the raw seen bits.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Mutable view of the raw seen bits (used by the map `compare`
    /// implementations).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf.as_mut_slice()
    }

    /// Number of slots within the first `region` bytes that have been
    /// discovered (byte != 0).
    ///
    /// For a flat map pass the full map size; for BigMap pass `used_key`.
    /// Mirrors AFL's `count_non_255_bytes`, which feeds the UI's "map
    /// density" statistic.
    pub fn discovered_in(&self, region: usize) -> usize {
        self.buf[..region.min(self.buf.len())]
            .iter()
            .filter(|&&b| b != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_virgin() {
        let v = VirginState::new(MapSize::K64);
        assert!(v.as_slice().iter().all(|&b| b == 0));
        assert_eq!(v.map_size(), MapSize::K64);
        assert_eq!(v.discovered_in(1 << 16), 0);
    }

    #[test]
    fn discovered_counts_nonzero_in_region_only() {
        let mut v = VirginState::new(MapSize::K64);
        v.as_mut_slice()[10] = 0x01;
        v.as_mut_slice()[100] = 0xFF;
        v.as_mut_slice()[50_000] = 0x80;
        assert_eq!(v.discovered_in(1 << 16), 3);
        assert_eq!(v.discovered_in(1000), 2);
        assert_eq!(v.discovered_in(5), 0);
    }

    #[test]
    fn discovered_region_clamps_to_len() {
        let v = VirginState::new(MapSize::K64);
        assert_eq!(v.discovered_in(usize::MAX), 0);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = VirginState::new(MapSize::K64);
        a.as_mut_slice()[0] = 1;
        let b = a.clone();
        a.as_mut_slice()[1] = 1;
        assert_eq!(b.discovered_in(16), 1);
        assert_eq!(a.discovered_in(16), 2);
    }
}
