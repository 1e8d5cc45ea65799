//! Functional, byte-addressable main memory with a bump allocator.
//!
//! Storage is a page table indexed directly by page number: a `Vec` of
//! optional 4 KiB pages, grown to the highest page ever written. A word
//! that lies inside one page is read or written with one table index and
//! one 8-byte slice access; only a word that straddles two pages takes the
//! byte-at-a-time path.

/// Size of an internal storage page in bytes. Pages are allocated lazily,
/// but the page table costs 8 bytes per 4 KiB of address span below the
/// highest write.
const PAGE_SIZE: usize = 4096;

/// Writes must stay below this address (16 GiB), which caps the page table
/// at 32 MiB. Simulated workloads use a few MiB above [`ALLOC_BASE`]; a
/// write beyond the cap is a wild address (say, a scatter with a negative
/// index) and panics instead of growing the table without bound.
const WRITE_LIMIT: u64 = 1 << 34;

/// Base address handed out by the allocator. Address 0 is left unmapped so
/// that an accidental null-based access is easy to spot in tests.
const ALLOC_BASE: u64 = 0x1_0000;

/// A sparse, byte-addressable functional memory.
///
/// All values default to zero. Reads may touch any address; writes may
/// touch any address below 16 GiB and panic above it. Pages are
/// materialised on the first write to them. The page table is a `Vec`
/// indexed by `addr / 4096` and grown to the highest written page, so a
/// read of a page never written (or above the table) costs one bounds check
/// and returns 0. The table holds one 8-byte slot per 4 KiB of address span
/// below the highest write. An embedded bump allocator hands out
/// non-overlapping, 64-byte-aligned buffers for workloads and for the AVA
/// M-VRF (the paper's `set_virtual_vrf` intrinsic performs the equivalent
/// `malloc`); allocating materialises no page.
///
/// ```
/// use ava_memory::MainMemory;
/// let mut m = MainMemory::new();
/// let a = m.alloc(64);
/// m.write_u64(a, 0xdead_beef);
/// assert_eq!(m.read_u64(a), 0xdead_beef);
/// assert_eq!(m.read_u64(a + 8), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    next_alloc: u64,
    allocated_bytes: u64,
}

/// Splits an address into its page-table index and the offset in the page.
fn split(addr: u64) -> (usize, usize) {
    let page = usize::try_from(addr / PAGE_SIZE as u64)
        .expect("page number exceeds the host's address width");
    (page, (addr % PAGE_SIZE as u64) as usize)
}

impl MainMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pages: Vec::new(),
            next_alloc: ALLOC_BASE,
            allocated_bytes: 0,
        }
    }

    /// Allocates `bytes` bytes and returns the base address. Allocations are
    /// 64-byte (cache-line) aligned and never overlap.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        let rounded = bytes.div_ceil(64) * 64;
        self.next_alloc += rounded.max(64);
        self.allocated_bytes += rounded.max(64);
        base
    }

    /// Total bytes handed out by [`MainMemory::alloc`].
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// The address range `[start, end)` covered by all allocations so far.
    #[must_use]
    pub fn allocated_range(&self) -> (u64, u64) {
        (ALLOC_BASE, self.next_alloc)
    }

    /// A memory with this one's allocations and none of its data: the
    /// next allocation lands where it would land here, and every address
    /// reads 0.
    #[must_use]
    pub fn allocator_only(&self) -> Self {
        Self {
            pages: Vec::new(),
            next_alloc: self.next_alloc,
            allocated_bytes: self.allocated_bytes,
        }
    }

    /// The page at table index `page`, if it has ever been written.
    fn page(&self, page: usize) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(page)?.as_deref()
    }

    /// The page at table index `page`, materialised (zeroed) on first use.
    ///
    /// # Panics
    ///
    /// If the page lies at or above [`WRITE_LIMIT`].
    fn page_mut(&mut self, page: usize) -> &mut [u8; PAGE_SIZE] {
        if page >= self.pages.len() {
            self.grow_to(page);
        }
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Grows the table to hold `page`; kept out of line so the write path
    /// stays small.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, page: usize) {
        assert!(
            (page as u64) < WRITE_LIMIT / PAGE_SIZE as u64,
            "write to {:#x} is beyond the {WRITE_LIMIT:#x}-byte simulated address space",
            page as u64 * PAGE_SIZE as u64
        );
        self.pages.resize_with(page + 1, || None);
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = split(addr);
        self.page(page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Reads a little-endian 64-bit word (need not be aligned). A word that
    /// passes the top of the address space wraps to address 0.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, off) = split(addr);
        if off + 8 <= PAGE_SIZE {
            return self.page(page).map_or(0, |p| {
                u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice"))
            });
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 64-bit word (need not be aligned).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (page, off) = split(addr);
        if off + 8 <= PAGE_SIZE {
            self.page_mut(page)[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads the `n` consecutive words starting at `addr`, passing each to
    /// `each` in address order; the same values as `n` calls of
    /// [`MainMemory::read_u64`]. A run that passes the top of the address
    /// space wraps to address 0. An 8-byte-aligned run does one page-table
    /// lookup per page it touches; an unaligned one takes the per-word path.
    pub fn read_words(&self, addr: u64, n: usize, mut each: impl FnMut(u64)) {
        if !addr.is_multiple_of(8) {
            (0..n).for_each(|i| each(self.read_u64(addr.wrapping_add(8 * i as u64))));
            return;
        }
        let (mut addr, mut left) = (addr, n);
        while left > 0 {
            let (page, off) = split(addr);
            let run = left.min((PAGE_SIZE - off) / 8);
            match self.page(page) {
                Some(p) => p[off..off + 8 * run]
                    .chunks_exact(8)
                    .for_each(|w| each(u64::from_le_bytes(w.try_into().expect("8-byte chunk")))),
                None => (0..run).for_each(|_| each(0)),
            }
            addr = addr.wrapping_add(8 * run as u64);
            left -= run;
        }
    }

    /// Writes `words` to consecutive words starting at `addr`; the same
    /// effect as one [`MainMemory::write_u64`] per word. An 8-byte-aligned
    /// run does one page-table lookup per page it touches; an unaligned one
    /// takes the per-word path. A run of no words materialises no page.
    pub fn write_words(&mut self, addr: u64, words: impl ExactSizeIterator<Item = u64>) {
        let mut words = words;
        if !addr.is_multiple_of(8) {
            for (i, w) in words.enumerate() {
                self.write_u64(addr.wrapping_add(8 * i as u64), w);
            }
            return;
        }
        let (mut addr, mut left) = (addr, words.len());
        while left > 0 {
            let (page, off) = split(addr);
            let run = left.min((PAGE_SIZE - off) / 8);
            let bytes = &mut self.page_mut(page)[off..off + 8 * run];
            for (dst, w) in bytes.chunks_exact_mut(8).zip(&mut words) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            addr = addr.wrapping_add(8 * run as u64);
            left -= run;
        }
    }

    /// Reads an `f64`.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a slice of doubles into memory starting at `addr`.
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(addr + 8 * i as u64, *v);
        }
    }

    /// Number of distinct pages that have been written (for memory-footprint
    /// assertions in tests).
    #[must_use]
    pub fn touched_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_f64(0x9999), 0.0);
    }

    #[test]
    fn u64_roundtrip_aligned_and_unaligned() {
        let mut m = MainMemory::new();
        m.write_u64(0x100, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x100), 0x0123_4567_89ab_cdef);
        m.write_u64(0x103, u64::MAX);
        assert_eq!(m.read_u64(0x103), u64::MAX);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = MainMemory::new();
        m.write_f64(0x200, -1234.5);
        assert_eq!(m.read_f64(0x200), -1234.5);
    }

    #[test]
    fn writes_crossing_page_boundaries_work() {
        let mut m = MainMemory::new();
        let addr = PAGE_SIZE as u64 - 4;
        m.write_u64(addr, 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.read_u64(addr), 0xaabb_ccdd_eeff_0011);
        assert!(m.touched_pages() >= 2);
    }

    #[test]
    fn alloc_returns_aligned_non_overlapping_buffers() {
        let mut m = MainMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(1);
        let c = m.alloc(4096);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 128); // 100 rounded to 128
        assert!(c >= b + 64);
        assert_eq!(m.allocated_bytes(), 128 + 64 + 4096);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let mut m = MainMemory::new();
        let a = m.alloc(8 * 5);
        let vals = [1.0, 2.5, -3.0, 0.0, 1e30];
        m.write_f64_slice(a, &vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(m.read_f64(a + 8 * i as u64), *v);
        }
    }

    #[test]
    fn reads_far_above_the_table_return_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u64(u64::MAX - 7), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the 0x400000000-byte simulated address space")]
    fn a_write_near_the_top_of_the_address_space_panics() {
        let mut m = MainMemory::new();
        m.write_u64(u64::MAX - 7, 1);
    }

    #[test]
    fn allocations_start_above_the_null_page() {
        let mut m = MainMemory::new();
        assert!(m.alloc(8) >= ALLOC_BASE);
    }
}
