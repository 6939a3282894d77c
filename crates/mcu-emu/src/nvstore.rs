//! Typed variable handles over simulated memory.
//!
//! Task code manipulates named scalar variables and buffers. A handle is a
//! `Copy` value (region + offset + width) so application closures can capture
//! it cheaply; the actual bytes live in the simulated [`Memory`]. Runtimes
//! intercept accesses through these handles to implement privatization, so
//! the handle layer is deliberately thin and carries no policy.

use crate::memory::{Addr, AllocTag, Memory, Region};
use std::marker::PhantomData;

/// Scalar types storable in a variable slot (at most 8 bytes, little-endian).
pub trait Scalar: Copy + PartialEq + std::fmt::Debug {
    /// Width in bytes.
    const WIDTH: u32;
    /// Encodes the value into up to 8 little-endian bytes.
    fn to_raw(self) -> u64;
    /// Decodes the value from its raw little-endian representation.
    fn from_raw(raw: u64) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty => $w:expr),* $(,)?) => {$(
        impl Scalar for $t {
            const WIDTH: u32 = $w;
            #[inline]
            fn to_raw(self) -> u64 {
                // Sign bits beyond WIDTH are masked off so the raw form is
                // exactly what the little-endian memory bytes would hold.
                (self as u64) & (u64::MAX >> (64 - 8 * $w))
            }
            #[inline]
            fn from_raw(raw: u64) -> Self {
                raw as $t
            }
        }
    )*};
}

impl_scalar! {
    u8 => 1, i8 => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4,
}

impl Scalar for u64 {
    const WIDTH: u32 = 8;
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl Scalar for i64 {
    const WIDTH: u32 = 8;
    fn to_raw(self) -> u64 {
        self as u64
    }
    fn from_raw(raw: u64) -> Self {
        raw as i64
    }
}

/// An untyped view of a variable slot: address plus width.
///
/// Runtimes operate on raw variables so a single privatization mechanism
/// covers every scalar type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawVar {
    /// Location of the slot.
    pub addr: Addr,
    /// Width in bytes (1, 2, 4, or 8).
    pub width: u32,
}

impl RawVar {
    /// Loads the raw value from memory (no cost accounting; callers charge).
    pub fn load(&self, mem: &Memory) -> u64 {
        raw_from_le(mem.read_bytes(self.addr, self.width))
    }

    /// Stores the raw value to memory (no cost accounting; callers charge).
    pub fn store(&self, mem: &mut Memory, raw: u64) {
        let bytes = raw.to_le_bytes();
        mem.write_bytes(self.addr, &bytes[..self.width as usize]);
    }

    /// Number of 16-bit words the slot occupies (for cost accounting).
    pub fn words(&self) -> u64 {
        (self.width as u64).div_ceil(2)
    }
}

/// Decodes up to 8 little-endian bytes into a raw scalar value.
#[inline]
fn raw_from_le(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// A typed handle to a single scalar variable.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct NvVar<T: Scalar> {
    raw: RawVar,
    _t: PhantomData<T>,
}

// Manual impls: `derive` would bound them on `T: Clone/Copy`, which is
// unnecessary for a handle.
impl<T: Scalar> Clone for NvVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for NvVar<T> {}

impl<T: Scalar> NvVar<T> {
    /// Allocates a variable in `region` tagged as application data.
    pub fn alloc(mem: &mut Memory, region: Region) -> Self {
        Self::alloc_tagged(mem, region, AllocTag::App)
    }

    /// Allocates a variable with an explicit footprint tag.
    pub fn alloc_tagged(mem: &mut Memory, region: Region, tag: AllocTag) -> Self {
        let addr = mem.alloc(region, T::WIDTH, tag);
        Self {
            raw: RawVar {
                addr,
                width: T::WIDTH,
            },
            _t: PhantomData,
        }
    }

    /// The untyped view used by runtimes.
    pub fn raw(&self) -> RawVar {
        self.raw
    }

    /// The variable's address.
    pub fn addr(&self) -> Addr {
        self.raw.addr
    }

    /// Direct load bypassing any runtime (setup / verification only).
    pub fn get(&self, mem: &Memory) -> T {
        T::from_raw(self.raw.load(mem))
    }

    /// Direct store bypassing any runtime (setup / verification only).
    pub fn set(&self, mem: &mut Memory, v: T) {
        self.raw.store(mem, v.to_raw());
    }
}

/// A typed handle to a contiguous array of scalars.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct NvBuf<T: Scalar> {
    base: Addr,
    len: u32,
    _t: PhantomData<T>,
}

impl<T: Scalar> Clone for NvBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for NvBuf<T> {}

impl<T: Scalar> NvBuf<T> {
    /// Allocates a buffer of `len` elements tagged as application data.
    pub fn alloc(mem: &mut Memory, region: Region, len: u32) -> Self {
        Self::alloc_tagged(mem, region, len, AllocTag::App)
    }

    /// Allocates a buffer with an explicit footprint tag.
    pub fn alloc_tagged(mem: &mut Memory, region: Region, len: u32, tag: AllocTag) -> Self {
        let base = mem.alloc(region, len * T::WIDTH, tag);
        Self {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the buffer.
    pub fn addr(&self) -> Addr {
        self.base
    }

    /// Size of the buffer in bytes.
    pub fn bytes(&self) -> u32 {
        self.len * T::WIDTH
    }

    /// The `i`-th element as an untyped variable slot.
    pub fn slot(&self, i: u32) -> RawVar {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        RawVar {
            addr: self.base.add(i * T::WIDTH),
            width: T::WIDTH,
        }
    }

    /// Direct element load bypassing any runtime (setup / verification only).
    pub fn get(&self, mem: &Memory, i: u32) -> T {
        T::from_raw(self.slot(i).load(mem))
    }

    /// Direct element store bypassing any runtime (setup / verification only).
    pub fn set(&self, mem: &mut Memory, i: u32, v: T) {
        self.slot(i).store(mem, v.to_raw());
    }

    /// Reads the whole buffer with one memory read (verification only).
    pub fn to_vec(&self, mem: &Memory) -> Vec<T> {
        let w = T::WIDTH as usize;
        let mut out = vec![T::from_raw(0); self.len as usize];
        // A local loop over constant-width chunks: the decode is a
        // fixed-size load the compiler can vectorise, not a `memcpy` call.
        for (v, b) in out
            .iter_mut()
            .zip(mem.read_bytes(self.base, self.bytes()).chunks_exact(w))
        {
            *v = T::from_raw(raw_from_le(&b[..w]));
        }
        out
    }

    /// Writes `data` over the buffer's first elements with one memory write
    /// (setup only).
    pub fn fill_from(&self, mem: &mut Memory, data: &[T]) {
        assert!(data.len() as u32 <= self.len, "data longer than buffer");
        let w = T::WIDTH as usize;
        let mut bytes = vec![0u8; data.len() * w];
        for (out, v) in bytes.chunks_exact_mut(w).zip(data) {
            out.copy_from_slice(&v.to_raw().to_le_bytes()[..w]);
        }
        mem.write_bytes(self.base, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_all_widths() {
        assert_eq!(i16::from_raw((-5i16).to_raw()), -5i16);
        assert_eq!(u16::from_raw(65535u16.to_raw()), 65535u16);
        assert_eq!(i32::from_raw((-123456i32).to_raw()), -123456);
        assert_eq!(u64::from_raw(u64::MAX.to_raw()), u64::MAX);
        assert_eq!(i64::from_raw((-1i64).to_raw()), -1i64);
        assert_eq!(i8::from_raw((-8i8).to_raw()), -8i8);
    }

    #[test]
    fn negative_raw_is_masked_to_width() {
        // The raw form of an i16 must fit in 16 bits so it round-trips
        // through two bytes of memory.
        assert_eq!((-1i16).to_raw(), 0xFFFF);
        assert_eq!((-1i32).to_raw(), 0xFFFF_FFFF);
    }

    #[test]
    fn var_store_load_via_memory() {
        let mut mem = Memory::new();
        let v: NvVar<i32> = NvVar::alloc(&mut mem, Region::Fram);
        v.set(&mut mem, -42);
        assert_eq!(v.get(&mem), -42);
        // The raw path must agree with the typed path.
        assert_eq!(v.raw().load(&mem), (-42i32).to_raw());
    }

    #[test]
    fn buffer_elements_are_independent() {
        let mut mem = Memory::new();
        let b: NvBuf<i16> = NvBuf::alloc(&mut mem, Region::Fram, 4);
        b.fill_from(&mut mem, &[1, -2, 3, -4]);
        assert_eq!(b.to_vec(&mem), vec![1, -2, 3, -4]);
        b.set(&mut mem, 2, 99);
        assert_eq!(b.to_vec(&mem), vec![1, -2, 99, -4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn buffer_bounds_checked() {
        let mut mem = Memory::new();
        let b: NvBuf<i16> = NvBuf::alloc(&mut mem, Region::Fram, 4);
        b.slot(4);
    }

    /// `fill_from` and `to_vec` against per-element `set` and `get`: same
    /// bytes, same dirty pages, same values.
    fn whole_buffer_matches_per_element<T: Scalar>(
        region: Region,
        pad: u32,
        len: u32,
        data: &[T],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        let mut mem = Memory::new();
        mem.alloc(region, pad, AllocTag::App);
        let b: NvBuf<T> = NvBuf::alloc(&mut mem, region, len);
        mem.snapshot();
        let (mut whole, mut each) = (mem.clone(), mem);
        b.fill_from(&mut whole, data);
        for (i, v) in data.iter().enumerate() {
            b.set(&mut each, i as u32, *v);
        }
        let all = Addr::new(region, 0);
        let size = region.size() as u32;
        prop_assert!(whole.read_bytes(all, size) == each.read_bytes(all, size));
        prop_assert_eq!(whole.dirty_pages(region), each.dirty_pages(region));
        let got = b.to_vec(&whole);
        prop_assert_eq!(
            &got,
            &(0..len).map(|i| b.get(&whole, i)).collect::<Vec<_>>()
        );
        prop_assert_eq!(&got[..data.len()], data);
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn whole_buffer_access_matches_per_element(
            (region, pad, len, fill) in (
                0u8..2,
                0u32..9000,
                0u32..300,
                0u32..=100,
            ),
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 300),
        ) {
            // FRAM buffers cross 4 KB page boundaries; SRAM ones stay small.
            let (region, pad) = match region {
                0 => (Region::Fram, pad),
                _ => (Region::Sram, pad % 1024),
            };
            let n = (len * fill / 100) as usize;
            let as_i16: Vec<i16> = raw[..n].iter().map(|&r| r as i16).collect();
            let as_u8: Vec<u8> = raw[..n].iter().map(|&r| r as u8).collect();
            let as_i32: Vec<i32> = raw[..n].iter().map(|&r| r as i32).collect();
            whole_buffer_matches_per_element(region, pad, len, &as_i16)?;
            whole_buffer_matches_per_element(region, pad, len, &as_u8)?;
            whole_buffer_matches_per_element(region, pad, len, &as_i32)?;
            whole_buffer_matches_per_element(region, pad, len, &raw[..n])?;
        }
    }

    proptest::proptest! {
        /// The `from_le_bytes` decode equals the per-byte fold it replaced.
        #[test]
        fn raw_from_le_matches_per_byte_fold(
            raw in proptest::prelude::any::<u64>(),
            width in 0usize..4,
        ) {
            let bytes = &raw.to_le_bytes()[..1 << width];
            let fold = bytes.iter().rev().fold(0, |acc, &b| (acc << 8) | b as u64);
            proptest::prop_assert_eq!(raw_from_le(bytes), fold);
        }
    }

    #[test]
    fn volatile_var_lost_on_failure() {
        let mut mem = Memory::new();
        let v: NvVar<u32> = NvVar::alloc(&mut mem, Region::Sram);
        let nv: NvVar<u32> = NvVar::alloc(&mut mem, Region::Fram);
        v.set(&mut mem, 7);
        nv.set(&mut mem, 7);
        mem.power_failure();
        assert_eq!(v.get(&mem), 0);
        assert_eq!(nv.get(&mem), 7);
    }

    #[test]
    fn words_accounting() {
        let r = RawVar {
            addr: Addr::new(Region::Fram, 0),
            width: 1,
        };
        assert_eq!(r.words(), 1);
        let r = RawVar {
            addr: Addr::new(Region::Fram, 0),
            width: 8,
        };
        assert_eq!(r.words(), 4);
    }
}
