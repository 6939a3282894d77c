//! Simulated memory map: FRAM, SRAM, and LEA-RAM.
//!
//! The MSP430FR5994 has 256 KB of non-volatile FRAM, 4 KB of volatile SRAM,
//! and a 4 KB volatile RAM dedicated to the Low Energy Accelerator (LEA).
//! The distinction that drives the entire paper is volatility: a power
//! failure clears SRAM and LEA-RAM but leaves FRAM intact, so any runtime
//! that wants forward progress must keep state in FRAM — and any peripheral
//! (DMA) that writes FRAM directly can corrupt that state if its operation
//! is blindly re-executed.

/// Memory regions of the simulated MCU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// 256 KB non-volatile ferroelectric RAM. Survives power failures.
    Fram,
    /// 4 KB volatile SRAM. Cleared on every reboot.
    Sram,
    /// 4 KB volatile RAM private to the LEA vector accelerator.
    LeaRam,
}

impl Region {
    /// Whether the region's contents survive a power failure.
    pub fn is_nonvolatile(self) -> bool {
        matches!(self, Region::Fram)
    }

    /// Size of the region in bytes.
    pub fn size(self) -> usize {
        match self {
            Region::Fram => 256 * 1024,
            Region::Sram => 4 * 1024,
            Region::LeaRam => 4 * 1024,
        }
    }
}

/// An address in the simulated memory map: a region plus a byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// Region the address points into.
    pub region: Region,
    /// Byte offset within the region.
    pub offset: u32,
}

impl Addr {
    /// Creates an address.
    pub fn new(region: Region, offset: u32) -> Self {
        Self { region, offset }
    }

    /// Returns the address advanced by `bytes`.
    #[allow(clippy::should_implement_trait)] // offset helper, not arithmetic
    pub fn add(self, bytes: u32) -> Self {
        Self {
            region: self.region,
            offset: self.offset + bytes,
        }
    }

    /// Whether the address is in non-volatile memory.
    pub fn is_nonvolatile(self) -> bool {
        self.region.is_nonvolatile()
    }
}

/// Who an allocation belongs to, for the memory-footprint report (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocTag {
    /// Application data (buffers, non-volatile variables).
    App,
    /// Runtime metadata (lock flags, timestamps, private copies, snapshots).
    Runtime,
    /// DMA privatization buffers (reported separately in the paper).
    DmaPrivBuf,
}

/// One recorded allocation, for footprint accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRecord {
    /// Region allocated from.
    pub region: Region,
    /// Base address of the allocation.
    pub addr: Addr,
    /// Size in bytes.
    pub bytes: u32,
    /// Owner tag.
    pub tag: AllocTag,
}

/// Granularity of copy-on-write dirty tracking: one bit per 4 KB page.
/// FRAM (256 KB) is 64 pages — exactly one `u64` of dirty bits per region.
pub const PAGE_BYTES: u32 = 4 * 1024;

/// The three regions, in slab-index order.
const REGIONS: [Region; 3] = [Region::Fram, Region::Sram, Region::LeaRam];

/// Globally unique snapshot identities, so [`Memory::restore`] can tell
/// whether its dirty map is relative to the snapshot being restored (cheap
/// page-wise copy) or to some other baseline (full copy required).
static SNAPSHOT_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// An immutable byte-level image of the memory map, shared by every run
/// restored from the same snapshot. Plain owned data: `Send + Sync`, so a
/// parallel sweep can hand one image to every worker behind an `Arc`
/// instead of deep-copying 264 KB per boundary.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    id: u64,
    /// FRAM, SRAM and LEA-RAM images, indexed like [`REGIONS`].
    slabs: [Vec<u8>; 3],
    next: [u32; 3],
    allocs: Vec<AllocRecord>,
}

/// A page-delta image of the memory map against one base [`MemSnapshot`]:
/// only the pages written since the base was taken or restored are held,
/// and a checkpoint captured after another shares every page whose bytes
/// did not change in between. A run's sequence of checkpoints therefore
/// costs the pages it actually rewrote, not 264 KB per checkpoint.
#[derive(Debug, Clone)]
pub struct MemCheckpoint {
    /// Identity of the base snapshot the delta is relative to.
    base: u64,
    /// Held pages per region, one bit per [`PAGE_BYTES`] page.
    mask: [u64; 3],
    /// Page images per region, in ascending page order of `mask`'s bits.
    pages: [Vec<std::sync::Arc<[u8]>>; 3],
    next: [u32; 3],
    allocs: std::sync::Arc<Vec<AllocRecord>>,
}

impl MemCheckpoint {
    /// The held image of `page` in `region`, if the checkpoint holds it.
    fn page(&self, region: Region, page: u32) -> Option<&std::sync::Arc<[u8]>> {
        let i = Memory::idx(region);
        let bit = 1u64 << page;
        (self.mask[i] & bit != 0)
            .then(|| &self.pages[i][(self.mask[i] & (bit - 1)).count_ones() as usize])
    }
}

/// Byte range of `page` within a region of `size` bytes.
fn page_range(page: u32, size: usize) -> std::ops::Range<usize> {
    let lo = (page * PAGE_BYTES) as usize;
    lo..(lo + PAGE_BYTES as usize).min(size)
}

/// Iterates the set bits of a page mask, lowest first.
fn pages_of(mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let page = bits.trailing_zeros();
            bits &= bits - 1;
            page
        })
    })
}

/// One bit per page that exists in `region`: 64 for FRAM, 1 for SRAM and
/// LEA-RAM.
fn region_pages(region: Region) -> u64 {
    let pages = region.size().div_ceil(PAGE_BYTES as usize) as u32;
    u64::MAX >> (u64::BITS - pages)
}

/// The byte arrays of a dropped [`Memory`] plus its `touched` mask, kept
/// for the next [`Memory::new`] on the same thread.
struct Slabs {
    slabs: [Vec<u8>; 3],
    touched: [u64; 3],
}

impl Slabs {
    /// Freshly allocated, all-zero slabs.
    fn zeroed() -> Self {
        Self {
            slabs: REGIONS.map(|r| vec![0; r.size()]),
            touched: [0; 3],
        }
    }

    /// Zeroes every page that may hold a nonzero byte; all others already
    /// are zero.
    fn cleared(mut self) -> Self {
        for (i, region) in REGIONS.into_iter().enumerate() {
            for page in pages_of(self.touched[i] & region_pages(region)) {
                self.slabs[i][page_range(page, region.size())].fill(0);
            }
        }
        self.touched = [0; 3];
        self
    }
}

thread_local! {
    /// At most one spare slab set per thread, so recycling never holds more
    /// than one memory map's worth of bytes beyond the live machines.
    static SPARE: std::cell::Cell<Option<Slabs>> = const { std::cell::Cell::new(None) };
}

/// The simulated memory: three byte arrays plus bump allocators.
///
/// Writes additionally mark 4 KB pages dirty relative to the last snapshot
/// taken from this instance, which is what makes snapshot restore
/// copy-on-write: restoring copies back only the pages written since.
///
/// Dropping a `Memory` hands its arrays to the thread's spare slot, and the
/// next [`Memory::new`] on that thread zeroes only the pages the previous
/// owner touched instead of allocating and clearing 264 KB.
#[derive(Debug, Clone)]
pub struct Memory {
    /// FRAM, SRAM and LEA-RAM bytes, indexed like [`REGIONS`].
    slabs: [Vec<u8>; 3],
    next: [u32; 3],
    allocs: Vec<AllocRecord>,
    /// Identity of the snapshot the dirty map is relative to, if any.
    base: Option<u64>,
    /// One dirty bit per [`PAGE_BYTES`] page, per region.
    dirty: [u64; 3],
    /// Pages that may hold a nonzero byte, per region: every page outside
    /// this mask is all-zero. It only grows, and `dirty` is a subset of it.
    touched: [u64; 3],
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Memory {
    fn drop(&mut self) {
        let spare = Slabs {
            slabs: std::mem::take(&mut self.slabs),
            touched: self.touched,
        };
        // During thread teardown the slot is gone and the slabs are freed.
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
}

impl Memory {
    /// Creates zeroed memory, reusing this thread's spare slabs if a
    /// dropped `Memory` left some.
    pub fn new() -> Self {
        let spare = SPARE.try_with(|slot| slot.take()).ok().flatten();
        let Slabs { slabs, touched } = spare.map_or_else(Slabs::zeroed, Slabs::cleared);
        Self {
            slabs,
            next: [0; 3],
            allocs: Vec::new(),
            base: None,
            dirty: [0; 3],
            touched,
        }
    }

    fn idx(region: Region) -> usize {
        match region {
            Region::Fram => 0,
            Region::Sram => 1,
            Region::LeaRam => 2,
        }
    }

    fn slab(&self, region: Region) -> &[u8] {
        &self.slabs[Self::idx(region)]
    }

    fn slab_mut(&mut self, region: Region) -> &mut [u8] {
        &mut self.slabs[Self::idx(region)]
    }

    /// Marks the pages covering `[offset, offset + len)` dirty (and
    /// touched).
    ///
    /// The dirty map is one `u64` per region — 64 pages covers exactly the
    /// largest region (256 KB FRAM). A span past the region end would shift
    /// past bit 63: in release builds `1u64 << page` wraps silently and
    /// dirties the *wrong* page, so a later copy-on-write [`Memory::restore`]
    /// could hand back stale bytes for the page that was actually written.
    /// Debug builds assert on the bad span; release builds conservatively
    /// mark every page dirty, which degrades that restore to a full copy but
    /// can never restore stale data.
    fn mark_dirty(&mut self, region: Region, offset: u32, len: u32) {
        if len == 0 {
            return;
        }
        debug_assert!(
            offset as u64 + len as u64 <= region.size() as u64,
            "mark_dirty out of range in {region:?}: offset {offset} + len {len} > {}",
            region.size()
        );
        let first = (offset / PAGE_BYTES) as u64;
        let last = (offset as u64 + len as u64 - 1) / PAGE_BYTES as u64;
        let bits = if last >= u64::BITS as u64 {
            !0
        } else {
            (u64::MAX >> (63 - (last - first))) << first
        };
        let i = Self::idx(region);
        self.dirty[i] |= bits;
        self.touched[i] |= bits;
    }

    /// Pages of `region` written since the last snapshot (one bit per
    /// [`PAGE_BYTES`] page). Exposed for the copy-on-write property tests.
    pub fn dirty_pages(&self, region: Region) -> u64 {
        self.dirty[Self::idx(region)]
    }

    /// Bump-allocates `bytes` bytes in `region`, 2-byte aligned (the MSP430
    /// word size), recording the allocation under `tag` for the footprint
    /// report. Panics if the region is exhausted — the simulated part has
    /// hard limits, exactly like the real one.
    pub fn alloc(&mut self, region: Region, bytes: u32, tag: AllocTag) -> Addr {
        let i = Self::idx(region);
        let aligned = (self.next[i] + 1) & !1;
        let end = aligned
            .checked_add(bytes)
            .expect("allocation size overflow");
        assert!(
            end as usize <= region.size(),
            "out of memory in {region:?}: requested {bytes} B at offset {aligned}"
        );
        self.next[i] = end;
        let addr = Addr::new(region, aligned);
        self.allocs.push(AllocRecord {
            region,
            addr,
            bytes,
            tag,
        });
        addr
    }

    /// Bytes currently allocated in `region`.
    pub fn allocated(&self, region: Region) -> u32 {
        self.next[Self::idx(region)]
    }

    /// Bytes allocated in `region` under `tag`.
    pub fn allocated_tagged(&self, region: Region, tag: AllocTag) -> u32 {
        self.allocs
            .iter()
            .filter(|a| a.region == region && a.tag == tag)
            .map(|a| a.bytes)
            .sum()
    }

    /// All allocation records (for footprint reporting).
    pub fn allocations(&self) -> &[AllocRecord] {
        &self.allocs
    }

    /// Byte ranges allocated in `region` under `tag`, as `(addr, len)`
    /// pairs. A crash sweep uses this to compare the application-visible
    /// non-volatile state of two runs without touching runtime metadata.
    pub fn tagged_ranges(&self, region: Region, tag: AllocTag) -> Vec<(Addr, u32)> {
        self.allocs
            .iter()
            .filter(|a| a.region == region && a.tag == tag)
            .map(|a| (a.addr, a.bytes))
            .collect()
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: Addr, len: u32) -> &[u8] {
        let s = self.slab(addr.region);
        &s[addr.offset as usize..(addr.offset + len) as usize]
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.mark_dirty(addr.region, addr.offset, data.len() as u32);
        let off = addr.offset as usize;
        let s = self.slab_mut(addr.region);
        s[off..off + data.len()].copy_from_slice(data);
    }

    /// Copies `len` bytes from `src` to `dst`, possibly across regions, with
    /// memmove semantics when the two spans overlap.
    ///
    /// This is the raw memory effect of a DMA transfer: it does *not* pass
    /// through any runtime privatization layer.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u32) {
        let (s, d, n) = (src.offset as usize, dst.offset as usize, len as usize);
        let (i, j) = (Self::idx(src.region), Self::idx(dst.region));
        if i == j {
            self.slabs[i].copy_within(s..s + n, d);
        } else {
            let [from, to] = self
                .slabs
                .get_disjoint_mut([i, j])
                .expect("distinct regions");
            to[d..d + n].copy_from_slice(&from[s..s + n]);
        }
        self.mark_dirty(dst.region, dst.offset, len);
    }

    /// Reads a little-endian scalar of `N` bytes.
    pub fn read_le<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(self.read_bytes(addr, N as u32));
        out
    }

    /// Clears all volatile regions; called on reboot. FRAM persists.
    pub fn power_failure(&mut self) {
        for region in [Region::Sram, Region::LeaRam] {
            self.mark_dirty(region, 0, region.size() as u32);
            self.slab_mut(region).fill(0);
        }
    }

    /// Captures a full image of the memory map and re-bases the dirty map on
    /// it, so a later [`Memory::restore`] of this snapshot copies back only
    /// the pages written in between.
    pub fn snapshot(&mut self) -> MemSnapshot {
        let id = SNAPSHOT_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.base = Some(id);
        self.dirty = [0; 3];
        MemSnapshot {
            id,
            slabs: self.slabs.clone(),
            next: self.next,
            allocs: self.allocs.clone(),
        }
    }

    /// Restores a snapshot. When the dirty map is relative to `snap` (the
    /// common sweep pattern: snapshot once, restore per boundary) only the
    /// dirty pages are copied — the cost of a restore is proportional to the
    /// bytes the run actually wrote, not to the 264 KB memory map. Restoring
    /// a snapshot this instance is not based on falls back to a full copy
    /// and re-bases on it.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        if self.base == Some(snap.id) {
            for (i, region) in REGIONS.into_iter().enumerate() {
                for page in pages_of(self.dirty[i]) {
                    let r = page_range(page, region.size());
                    self.slabs[i][r.clone()].copy_from_slice(&snap.slabs[i][r]);
                }
            }
        } else {
            for (slab, src) in self.slabs.iter_mut().zip(&snap.slabs) {
                slab.copy_from_slice(src);
            }
            self.touched = [!0; 3];
            self.base = Some(snap.id);
        }
        self.dirty = [0; 3];
        self.next = snap.next;
        self.allocs.clone_from(&snap.allocs);
    }

    /// Captures the pages written since `base` was taken or restored as a
    /// [`MemCheckpoint`]. Pages whose bytes equal `prev`'s image of the
    /// same page are shared with `prev` instead of copied. Panics if the
    /// dirty map is not relative to `base`.
    pub fn checkpoint(&self, base: &MemSnapshot, prev: Option<&MemCheckpoint>) -> MemCheckpoint {
        assert_eq!(
            self.base,
            Some(base.id),
            "checkpoint against a foreign base"
        );
        let mut pages: [Vec<std::sync::Arc<[u8]>>; 3] = Default::default();
        for (i, region) in REGIONS.into_iter().enumerate() {
            for page in pages_of(self.dirty[i]) {
                let bytes = &self.slabs[i][page_range(page, region.size())];
                let shared = prev
                    .and_then(|p| p.page(region, page))
                    .filter(|old| old[..] == *bytes);
                pages[i].push(match shared {
                    Some(old) => old.clone(),
                    None => bytes.into(),
                });
            }
        }
        let allocs = match prev {
            Some(p) if *p.allocs == self.allocs => p.allocs.clone(),
            _ => std::sync::Arc::new(self.allocs.clone()),
        };
        MemCheckpoint {
            base: base.id,
            mask: self.dirty,
            pages,
            next: self.next,
            allocs,
        }
    }

    /// Restores a checkpoint captured against `base`: pages the checkpoint
    /// does not hold come from `base` (copy-on-write when this memory is
    /// already based on it), held pages from the checkpoint. Afterwards the
    /// dirty map is relative to `base` again, so a later [`Memory::restore`]
    /// of `base` stays page-wise.
    pub fn restore_checkpoint(&mut self, base: &MemSnapshot, ck: &MemCheckpoint) {
        assert_eq!(ck.base, base.id, "checkpoint of a different base");
        if self.base != Some(base.id) {
            self.restore(base);
        }
        for (i, region) in REGIONS.into_iter().enumerate() {
            let slab = &mut self.slabs[i];
            for page in pages_of(self.dirty[i] & !ck.mask[i]) {
                let r = page_range(page, region.size());
                slab[r.clone()].copy_from_slice(&base.slabs[i][r]);
            }
            for (page, data) in pages_of(ck.mask[i]).zip(&ck.pages[i]) {
                slab[page_range(page, region.size())].copy_from_slice(data);
            }
            self.dirty[i] = ck.mask[i];
            self.touched[i] |= ck.mask[i];
        }
        self.next = ck.next;
        self.allocs.clone_from(&ck.allocs);
    }

    /// Whether this memory equals checkpoint `ck` of `base` byte for byte
    /// in all three regions, with identical allocator cursors and records.
    /// Only pages written on either side are compared: every other page
    /// equals `base` in both. Panics if the dirty map is not relative to
    /// `base`.
    pub fn matches_checkpoint(&self, base: &MemSnapshot, ck: &MemCheckpoint) -> bool {
        assert_eq!(self.base, Some(base.id), "compare against a foreign base");
        assert_eq!(ck.base, base.id, "checkpoint of a different base");
        if self.next != ck.next || self.allocs != *ck.allocs {
            return false;
        }
        REGIONS.into_iter().enumerate().all(|(i, region)| {
            pages_of(self.dirty[i] | ck.mask[i]).all(|page| {
                let r = page_range(page, region.size());
                let expected = ck
                    .page(region, page)
                    .map_or(&base.slabs[i][r.clone()], |p| &p[..]);
                self.slabs[i][r] == *expected
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatility_matches_hardware() {
        assert!(Region::Fram.is_nonvolatile());
        assert!(!Region::Sram.is_nonvolatile());
        assert!(!Region::LeaRam.is_nonvolatile());
    }

    #[test]
    fn alloc_is_word_aligned_and_tracked() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 3, AllocTag::App);
        let b = m.alloc(Region::Fram, 4, AllocTag::Runtime);
        assert_eq!(a.offset % 2, 0);
        assert_eq!(b.offset % 2, 0);
        assert!(b.offset >= a.offset + 3);
        assert_eq!(m.allocated_tagged(Region::Fram, AllocTag::App), 3);
        assert_eq!(m.allocated_tagged(Region::Fram, AllocTag::Runtime), 4);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn alloc_panics_when_region_exhausted() {
        let mut m = Memory::new();
        m.alloc(Region::Sram, 4 * 1024 + 2, AllocTag::App);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(a, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn copy_across_regions() {
        let mut m = Memory::new();
        let src = m.alloc(Region::Fram, 4, AllocTag::App);
        let dst = m.alloc(Region::Sram, 4, AllocTag::App);
        m.write_bytes(src, &[9, 8, 7, 6]);
        m.copy(src, dst, 4);
        assert_eq!(m.read_bytes(dst, 4), &[9, 8, 7, 6]);
    }

    #[test]
    fn power_failure_clears_only_volatile_memory() {
        let mut m = Memory::new();
        let f = m.alloc(Region::Fram, 2, AllocTag::App);
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        let l = m.alloc(Region::LeaRam, 2, AllocTag::App);
        m.write_bytes(f, &[0xAA, 0xBB]);
        m.write_bytes(s, &[0xCC, 0xDD]);
        m.write_bytes(l, &[0xEE, 0xFF]);
        m.power_failure();
        assert_eq!(m.read_bytes(f, 2), &[0xAA, 0xBB]);
        assert_eq!(m.read_bytes(s, 2), &[0, 0]);
        assert_eq!(m.read_bytes(l, 2), &[0, 0]);
    }

    #[test]
    fn restore_after_snapshot_copies_only_dirty_pages_back() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1; 8]);
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(Region::Fram), 0, "snapshot re-bases tracking");
        // Write into two far-apart FRAM pages plus SRAM.
        let far = Addr::new(Region::Fram, 40 * PAGE_BYTES + 12);
        m.write_bytes(a, &[9; 8]);
        m.write_bytes(far, &[7; 3]);
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        m.write_bytes(s, &[5, 5]);
        assert_eq!(m.dirty_pages(Region::Fram), 1 | (1 << 40));
        assert_eq!(m.dirty_pages(Region::Sram), 1);
        m.restore(&snap);
        assert_eq!(m.read_bytes(a, 8), &[1; 8]);
        assert_eq!(m.read_bytes(far, 3), &[0; 3]);
        assert_eq!(m.dirty_pages(Region::Fram), 0);
        assert_eq!(m.allocated(Region::Sram), 0, "allocator cursor restored");
    }

    #[test]
    fn restoring_a_foreign_snapshot_falls_back_to_full_copy() {
        // Snapshot taken on one Memory, restored into another instance that
        // never saw it — the pattern of a parallel sweep worker adopting the
        // main thread's shared image.
        let mut a = Memory::new();
        let va = a.alloc(Region::Fram, 4, AllocTag::App);
        a.write_bytes(va, &[3, 1, 4, 1]);
        let snap = a.snapshot();

        let mut b = Memory::new();
        let vb = b.alloc(Region::Fram, 4, AllocTag::App);
        b.write_bytes(vb, &[9, 9, 9, 9]);
        b.restore(&snap);
        assert_eq!(b.read_bytes(va, 4), &[3, 1, 4, 1]);
        // And from then on the worker's restores are page-wise.
        b.write_bytes(va, &[8; 4]);
        b.restore(&snap);
        assert_eq!(b.read_bytes(va, 4), &[3, 1, 4, 1]);
    }

    /// Checkpoints hold only pages written since the base, share unchanged
    /// pages with the previous checkpoint, restore onto a machine that
    /// never saw the base, and compare all regions plus the allocator.
    #[test]
    fn checkpoints_are_page_deltas_sharing_unchanged_pages() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        let base = m.snapshot();
        let far = Addr::new(Region::Fram, 40 * PAGE_BYTES);
        let lea = Addr::new(Region::LeaRam, 10);
        m.write_bytes(a, &[1; 8]);
        m.write_bytes(far, &[2; 4]);
        let c1 = m.checkpoint(&base, None);
        m.write_bytes(lea, &[3]);
        let c2 = m.checkpoint(&base, Some(&c1));
        assert_eq!(c2.mask, [1 | 1 << 40, 0, 1]);
        assert!(std::sync::Arc::ptr_eq(
            c1.page(Region::Fram, 40).unwrap(),
            c2.page(Region::Fram, 40).unwrap()
        ));
        assert!(m.matches_checkpoint(&base, &c2));
        assert!(
            !m.matches_checkpoint(&base, &c1),
            "the LEA-RAM byte differs"
        );

        let mut w = Memory::new();
        w.restore_checkpoint(&base, &c1);
        assert_eq!(w.read_bytes(a, 8), &[1; 8]);
        assert_eq!(w.read_bytes(lea, 1), &[0]);
        assert!(w.matches_checkpoint(&base, &c1));
        w.restore(&base);
        assert_eq!(
            w.read_bytes(far, 4),
            &[0; 4],
            "copy-on-write back to the base"
        );
        w.restore_checkpoint(&base, &c2);
        assert!(w.matches_checkpoint(&base, &c2));
        w.alloc(Region::Sram, 2, AllocTag::App);
        assert!(
            !w.matches_checkpoint(&base, &c2),
            "allocator cursor differs"
        );
    }

    #[test]
    fn write_spanning_a_page_boundary_dirties_both_pages() {
        let mut m = Memory::new();
        m.snapshot();
        let edge = Addr::new(Region::Fram, PAGE_BYTES - 2);
        m.write_bytes(edge, &[1, 2, 3, 4]);
        assert_eq!(m.dirty_pages(Region::Fram), 0b11);
    }

    /// Regression: the last FRAM page is bit 63 — the edge where an
    /// off-by-one in the span arithmetic would wrap the shift in release
    /// builds and dirty page 0 instead, breaking copy-on-write restore.
    #[test]
    fn dirtying_the_final_page_sets_the_top_bit_without_wrapping() {
        let mut m = Memory::new();
        let snap = m.snapshot();
        let edge = Addr::new(Region::Fram, Region::Fram.size() as u32 - 2);
        m.write_bytes(edge, &[0xA5, 0x5A]);
        assert_eq!(m.dirty_pages(Region::Fram), 1 << 63);
        m.restore(&snap);
        assert_eq!(m.read_bytes(edge, 2), &[0, 0], "edge write must roll back");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mark_dirty out of range")]
    fn out_of_range_dirty_span_is_caught_in_debug() {
        let mut m = Memory::new();
        m.mark_dirty(Region::Fram, Region::Fram.size() as u32 - 2, 4);
    }

    #[test]
    fn power_failure_dirties_volatile_regions() {
        let mut m = Memory::new();
        let snap = m.snapshot();
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        m.write_bytes(s, &[1, 2]);
        m.power_failure();
        assert_eq!(m.dirty_pages(Region::Sram), 1);
        assert_eq!(m.dirty_pages(Region::LeaRam), 1);
        m.restore(&snap);
        assert_eq!(m.read_bytes(Addr::new(Region::Sram, 0), 2), &[0, 0]);
    }

    /// A `Memory` made after another was dropped on the same thread takes
    /// over its slabs, zeroed.
    #[test]
    fn new_after_drop_reuses_the_zeroed_slabs() {
        let mut m = Memory::new();
        let last = Addr::new(Region::Fram, Region::Fram.size() as u32 - 1);
        m.write_bytes(last, &[7]);
        let fram = m.read_bytes(Addr::new(Region::Fram, 0), 1).as_ptr();
        drop(m);
        let m = Memory::new();
        assert_eq!(m.read_bytes(Addr::new(Region::Fram, 0), 1).as_ptr(), fram);
        assert_eq!(m.read_bytes(last, 1), &[0]);
    }

    /// Memories dropped while their thread's locals are torn down, before
    /// and after the spare slot itself is gone, are freed without a panic.
    #[test]
    fn memory_dropped_during_thread_teardown_is_freed() {
        thread_local! {
            static EARLY: std::cell::RefCell<Option<Memory>> = const { std::cell::RefCell::new(None) };
            static LATE: std::cell::RefCell<Option<Memory>> = const { std::cell::RefCell::new(None) };
        }
        std::thread::spawn(|| {
            // Locals are destroyed in reverse order of first use: `EARLY`
            // outlives the spare slot, `LATE` does not.
            EARLY.with(|e| *e.borrow_mut() = Some(Memory::new()));
            drop(Memory::new());
            LATE.with(|l| *l.borrow_mut() = Some(Memory::new()));
        })
        .join()
        .expect("thread teardown must not panic");
    }

    #[test]
    fn overlapping_copy_within_region_uses_snapshot() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Copy the first four bytes over bytes 2..6; a memmove-like result.
        m.copy(a, a.add(2), 4);
        assert_eq!(m.read_bytes(a, 8), &[1, 2, 1, 2, 3, 4, 7, 8]);
    }
}
