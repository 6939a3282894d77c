//! LEA — the Low Energy Accelerator.
//!
//! The MSP430FR5994's LEA is a fixed-point vector coprocessor that can only
//! address its dedicated 4 KB LEA-RAM. That restriction is load-bearing for
//! the paper's workloads: operands must be staged into LEA-RAM by DMA
//! (non-volatile → volatile, the `Private` class) and results staged back
//! (→ non-volatile, the `Single` class), which is exactly the DMA pattern
//! whose WAR hazards regional privatization exists to fix.
//!
//! Arithmetic is Q-format fixed point on `i16` with `i32` accumulation, so
//! every result is bit-exact and checkable against a golden run.

use mcu_emu::{Addr, Cost, CostTable, Memory, Region};

/// Right-shift applied to MAC accumulators before narrowing to i16.
pub const ACC_SHIFT: u32 = 8;

fn assert_lea(addr: Addr, what: &str) {
    assert!(
        addr.region == Region::LeaRam,
        "LEA can only address LEA-RAM, but {what} is in {:?}",
        addr.region
    );
}

fn sat16(acc: i32) -> i16 {
    (acc >> ACC_SHIFT).clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// `Σ a[k]·b[k]` with wrapping `i32` accumulation, the LEA's MAC. Each
/// product fits an `i32`; only the sum can overflow, and wrapping addition
/// is associative, so any grouping of the same MACs gives the same bits.
fn mac(a: &[i16], b: &[i16]) -> i32 {
    a.iter()
        .zip(b)
        .fold(0i32, |acc, (&p, &q)| acc.wrapping_add(p as i32 * q as i32))
}

/// The LEA-RAM words spanning every operand of one kernel call, decoded
/// once. Operands that alias in LEA-RAM alias in `words` too, so a kernel
/// reading and writing `words` in the per-element order sees exactly the
/// values a word-by-word pass over memory would.
struct LeaWords {
    /// Byte offset of `words[0]` in LEA-RAM.
    base: u32,
    words: Vec<i16>,
}

impl LeaWords {
    /// Reads the span covering each `(operand, words)` pair with one
    /// `read_bytes`. Operands are word-aligned, as `Memory::alloc` makes
    /// them.
    fn load(mem: &Memory, operands: &[(Addr, u32)]) -> Self {
        debug_assert!(operands.iter().all(|(a, _)| a.offset % 2 == 0));
        let base = operands.iter().map(|(a, _)| a.offset).min().unwrap_or(0);
        let end = operands
            .iter()
            .map(|(a, n)| a.offset + n * 2)
            .max()
            .unwrap_or(base);
        let bytes = mem.read_bytes(Addr::new(Region::LeaRam, base), end - base);
        let words = bytes
            .chunks_exact(2)
            .map(|b| i16::from_le_bytes([b[0], b[1]]))
            .collect();
        Self { base, words }
    }

    /// Index in `words` of the word at `addr`.
    fn at(&self, addr: Addr) -> usize {
        ((addr.offset - self.base) / 2) as usize
    }

    /// Writes the `n` words starting at `addr` back with one `write_bytes`.
    fn store(&self, mem: &mut Memory, addr: Addr, n: usize) {
        let i = self.at(addr);
        let bytes: Vec<u8> = self.words[i..i + n]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        mem.write_bytes(addr, &bytes);
    }
}

/// FIR filter: `y[i] = (Σ_k h[k]·x[i+k]) >> ACC_SHIFT` for `i in 0..n_out`.
///
/// `x` must hold `n_out + taps - 1` samples. Returns the MAC count for cost
/// accounting. Outputs are produced in order, so `y` may alias `x` (the
/// in-place filter): output `i` reads only samples at or after word `i`.
pub fn fir(mem: &mut Memory, x: Addr, h: Addr, y: Addr, n_out: u32, taps: u32) -> u64 {
    assert_lea(x, "input");
    assert_lea(h, "coefficients");
    assert_lea(y, "output");
    if n_out == 0 {
        return 0;
    }
    let mut v = LeaWords::load(mem, &[(x, n_out + taps - 1), (h, taps), (y, n_out)]);
    let (x0, h0, y0) = (v.at(x), v.at(h), v.at(y));
    let k = taps as usize;
    for i in 0..n_out as usize {
        let acc = mac(&v.words[h0..h0 + k], &v.words[x0 + i..x0 + i + k]);
        v.words[y0 + i] = sat16(acc);
    }
    v.store(mem, y, n_out as usize);
    fir_macs(n_out, taps)
}

/// MAC count of a FIR invocation (for pricing before execution).
pub fn fir_macs(n_out: u32, taps: u32) -> u64 {
    n_out as u64 * taps as u64
}

/// Valid 2-D convolution of a `w`×`h` image with a `kw`×`kh` kernel.
///
/// Output is `(w-kw+1)`×`(h-kh+1)`. Returns the MAC count.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    mem: &mut Memory,
    input: Addr,
    w: u32,
    h: u32,
    kernel: Addr,
    kw: u32,
    kh: u32,
    out: Addr,
) -> u64 {
    assert_lea(input, "input");
    assert_lea(kernel, "kernel");
    assert_lea(out, "output");
    assert!(w >= kw && h >= kh, "kernel larger than input");
    let macs = conv2d_macs(w, h, kw, kh);
    let (ow, oh) = ((w - kw + 1) as usize, (h - kh + 1) as usize);
    let n_out = (ow * oh) as u32;
    let mut v = LeaWords::load(mem, &[(input, w * h), (kernel, kw * kh), (out, n_out)]);
    let (i0, k0, o0) = (v.at(input), v.at(kernel), v.at(out));
    let (w, kw, kh) = (w as usize, kw as usize, kh as usize);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc: i32 = 0;
            for ky in 0..kh {
                let px = i0 + (oy + ky) * w + ox;
                let kv = k0 + ky * kw;
                acc = acc.wrapping_add(mac(&v.words[px..px + kw], &v.words[kv..kv + kw]));
            }
            v.words[o0 + oy * ow + ox] = sat16(acc);
        }
    }
    v.store(mem, out, ow * oh);
    macs
}

/// MAC count of a conv2d invocation.
pub fn conv2d_macs(w: u32, h: u32, kw: u32, kh: u32) -> u64 {
    ((w - kw + 1) as u64) * ((h - kh + 1) as u64) * (kw as u64) * (kh as u64)
}

/// In-place ReLU over `n` elements. Returns the op count.
///
/// Only the words from the first to the last negative element are written
/// back, so a buffer with no negative element is left clean.
pub fn relu(mem: &mut Memory, buf: Addr, n: u32) -> u64 {
    assert_lea(buf, "buffer");
    let mut v = LeaWords::load(mem, &[(buf, n)]);
    if let (Some(first), Some(last)) = (
        v.words.iter().position(|&e| e < 0),
        v.words.iter().rposition(|&e| e < 0),
    ) {
        for e in &mut v.words[first..=last] {
            *e = (*e).max(0);
        }
        v.store(mem, buf.add(first as u32 * 2), last + 1 - first);
    }
    n as u64
}

/// Fully-connected layer: `out[j] = (Σ_i w[j·n_in + i]·x[i]) >> ACC_SHIFT`.
///
/// Returns the MAC count.
pub fn fully_connected(
    mem: &mut Memory,
    x: Addr,
    n_in: u32,
    weights: Addr,
    out: Addr,
    n_out: u32,
) -> u64 {
    assert_lea(x, "input");
    assert_lea(weights, "weights");
    assert_lea(out, "output");
    if n_out == 0 {
        return 0;
    }
    let mut v = LeaWords::load(mem, &[(x, n_in), (weights, n_in * n_out), (out, n_out)]);
    let (x0, w0, o0) = (v.at(x), v.at(weights), v.at(out));
    let n = n_in as usize;
    for j in 0..n_out as usize {
        let row = w0 + j * n;
        let acc = mac(&v.words[row..row + n], &v.words[x0..x0 + n]);
        v.words[o0 + j] = sat16(acc);
    }
    v.store(mem, out, n_out as usize);
    (n_in as u64) * (n_out as u64)
}

/// Index of the maximum element (the paper's inference layer). Ties break to
/// the lowest index. Returns `(argmax, comparisons)`.
pub fn argmax(mem: &Memory, buf: Addr, n: u32) -> (u32, u64) {
    assert_lea(buf, "buffer");
    assert!(n > 0, "argmax over empty buffer");
    let v = LeaWords::load(mem, &[(buf, n)]);
    let mut best = 0;
    for (i, &e) in v.words.iter().enumerate() {
        if e > v.words[best] {
            best = i;
        }
    }
    (best as u32, n as u64)
}

/// Cost of a LEA invocation performing `macs` multiply-accumulates.
pub fn lea_cost(table: &CostTable, macs: u64) -> Cost {
    table.lea_setup + table.lea_mac.times(macs)
}

/// Per-element reference kernels, the oracle the equivalence proptests
/// compare the decoded kernels against: every operand word is read, and
/// every output word written, through its own `Memory` accessor call.
#[cfg(test)]
mod reference {
    use super::{assert_lea, sat16};
    use mcu_emu::{Addr, Memory};

    pub fn load_i16(mem: &Memory, base: Addr, i: u32) -> i16 {
        let b = mem.read_bytes(base.add(i * 2), 2);
        i16::from_le_bytes([b[0], b[1]])
    }

    pub fn store_i16(mem: &mut Memory, base: Addr, i: u32, v: i16) {
        mem.write_bytes(base.add(i * 2), &v.to_le_bytes());
    }

    pub fn fir(mem: &mut Memory, x: Addr, h: Addr, y: Addr, n_out: u32, taps: u32) -> u64 {
        assert_lea(x, "input");
        assert_lea(h, "coefficients");
        assert_lea(y, "output");
        for i in 0..n_out {
            let mut acc: i32 = 0;
            for k in 0..taps {
                acc = acc.wrapping_add(load_i16(mem, h, k) as i32 * load_i16(mem, x, i + k) as i32);
            }
            store_i16(mem, y, i, sat16(acc));
        }
        (n_out as u64) * (taps as u64)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        mem: &mut Memory,
        input: Addr,
        w: u32,
        h: u32,
        kernel: Addr,
        kw: u32,
        kh: u32,
        out: Addr,
    ) -> u64 {
        assert_lea(input, "input");
        assert_lea(kernel, "kernel");
        assert_lea(out, "output");
        assert!(w >= kw && h >= kh, "kernel larger than input");
        let ow = w - kw + 1;
        let oh = h - kh + 1;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i32 = 0;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let px = load_i16(mem, input, (oy + ky) * w + (ox + kx)) as i32;
                        let kv = load_i16(mem, kernel, ky * kw + kx) as i32;
                        acc = acc.wrapping_add(px * kv);
                    }
                }
                store_i16(mem, out, oy * ow + ox, sat16(acc));
            }
        }
        (ow as u64) * (oh as u64) * (kw as u64) * (kh as u64)
    }

    pub fn relu(mem: &mut Memory, buf: Addr, n: u32) -> u64 {
        assert_lea(buf, "buffer");
        for i in 0..n {
            if load_i16(mem, buf, i) < 0 {
                store_i16(mem, buf, i, 0);
            }
        }
        n as u64
    }

    pub fn fully_connected(
        mem: &mut Memory,
        x: Addr,
        n_in: u32,
        weights: Addr,
        out: Addr,
        n_out: u32,
    ) -> u64 {
        assert_lea(x, "input");
        assert_lea(weights, "weights");
        assert_lea(out, "output");
        for j in 0..n_out {
            let mut acc: i32 = 0;
            for i in 0..n_in {
                acc = acc.wrapping_add(
                    load_i16(mem, weights, j * n_in + i) as i32 * load_i16(mem, x, i) as i32,
                );
            }
            store_i16(mem, out, j, sat16(acc));
        }
        (n_in as u64) * (n_out as u64)
    }

    pub fn argmax(mem: &Memory, buf: Addr, n: u32) -> (u32, u64) {
        assert_lea(buf, "buffer");
        assert!(n > 0, "argmax over empty buffer");
        let mut best = 0u32;
        let mut best_v = load_i16(mem, buf, 0);
        for i in 1..n {
            let v = load_i16(mem, buf, i);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        (best, n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{load_i16, store_i16};
    use super::*;
    use mcu_emu::AllocTag;
    use proptest::prelude::*;

    fn lea_buf(mem: &mut Memory, n: u32) -> Addr {
        mem.alloc(Region::LeaRam, n * 2, AllocTag::App)
    }

    fn fill(mem: &mut Memory, base: Addr, data: &[i16]) {
        for (i, v) in data.iter().enumerate() {
            store_i16(mem, base, i as u32, *v);
        }
    }

    fn read(mem: &Memory, base: Addr, n: u32) -> Vec<i16> {
        (0..n).map(|i| load_i16(mem, base, i)).collect()
    }

    #[test]
    fn fir_identity_kernel_shifts_scale() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 6);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 6);
        fill(&mut m, x, &[256, 512, -256, 0, 1024, 2560]);
        fill(&mut m, h, &[1 << ACC_SHIFT]); // unity gain in Q8
        let macs = fir(&mut m, x, h, y, 6, 1);
        assert_eq!(macs, 6);
        assert_eq!(read(&m, y, 6), vec![256, 512, -256, 0, 1024, 2560]);
    }

    #[test]
    fn fir_moving_average() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 5);
        let h = lea_buf(&mut m, 2);
        let y = lea_buf(&mut m, 4);
        fill(&mut m, x, &[0, 256, 512, 768, 1024]);
        // Two half-gain taps in Q8: output = mean of adjacent samples.
        fill(&mut m, h, &[128, 128]);
        fir(&mut m, x, h, y, 4, 2);
        assert_eq!(read(&m, y, 4), vec![128, 384, 640, 896]);
    }

    #[test]
    #[should_panic(expected = "LEA can only address LEA-RAM")]
    fn lea_rejects_fram_operands() {
        let mut m = Memory::new();
        let x = m.alloc(Region::Fram, 8, AllocTag::App);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 4);
        fir(&mut m, x, h, y, 4, 1);
    }

    #[test]
    fn conv2d_shapes_and_values() {
        let mut m = Memory::new();
        let input = lea_buf(&mut m, 9);
        let kernel = lea_buf(&mut m, 4);
        let out = lea_buf(&mut m, 4);
        // 3×3 input, 2×2 kernel of Q8 quarters → output = mean of window.
        fill(&mut m, input, &[0, 256, 512, 256, 512, 768, 512, 768, 1024]);
        fill(&mut m, kernel, &[64, 64, 64, 64]);
        let macs = conv2d(&mut m, input, 3, 3, kernel, 2, 2, out);
        assert_eq!(macs, 16);
        assert_eq!(read(&m, out, 4), vec![256, 512, 512, 768]);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let mut m = Memory::new();
        let b = lea_buf(&mut m, 4);
        fill(&mut m, b, &[-5, 3, 0, -32768]);
        relu(&mut m, b, 4);
        assert_eq!(read(&m, b, 4), vec![0, 3, 0, 0]);
    }

    #[test]
    fn fully_connected_matches_manual_matvec() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 2);
        let w = lea_buf(&mut m, 4);
        let o = lea_buf(&mut m, 2);
        fill(&mut m, x, &[256, 512]); // [1.0, 2.0] in Q8
        fill(&mut m, w, &[256, 0, 256, 256]); // rows [1,0],[1,1]
        fully_connected(&mut m, x, 2, w, o, 2);
        // out = [1.0·1.0, 1.0·1.0+1.0·2.0] = [256, 768] in Q8... one shift:
        // acc0 = 256·256 >> 8 = 256; acc1 = (256·256 + 256·512) >> 8 = 768.
        assert_eq!(read(&m, o, 2), vec![256, 768]);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let mut m = Memory::new();
        let b = lea_buf(&mut m, 5);
        fill(&mut m, b, &[3, 9, 9, -1, 2]);
        let (idx, cmps) = argmax(&m, b, 5);
        assert_eq!(idx, 1);
        assert_eq!(cmps, 5);
    }

    #[test]
    fn saturation_on_overflow() {
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 1);
        let h = lea_buf(&mut m, 1);
        let y = lea_buf(&mut m, 1);
        fill(&mut m, x, &[i16::MAX]);
        fill(&mut m, h, &[i16::MAX]);
        fir(&mut m, x, h, y, 1, 1);
        // MAX·MAX >> 8 overflows i16 → saturates.
        assert_eq!(read(&m, y, 1), vec![i16::MAX]);
    }

    #[test]
    fn accumulator_wraps_instead_of_overflowing() {
        // Two taps of −32768 over samples of −32768 sum to 2^31: the i32
        // accumulator wraps to i32::MIN, which saturates to i16::MIN. A
        // plain `+=` would panic here in a debug build.
        let mut m = Memory::new();
        let x = lea_buf(&mut m, 2);
        let h = lea_buf(&mut m, 2);
        let y = lea_buf(&mut m, 1);
        fill(&mut m, x, &[i16::MIN, i16::MIN]);
        fill(&mut m, h, &[i16::MIN, i16::MIN]);
        let mut r = m.clone();
        fir(&mut m, x, h, y, 1, 2);
        reference::fir(&mut r, x, h, y, 1, 2);
        assert_eq!(read(&m, y, 1), vec![i16::MIN]);
        assert_eq!(read(&r, y, 1), vec![i16::MIN]);
    }

    #[test]
    fn cost_linear_in_macs() {
        let t = CostTable::default();
        let a = lea_cost(&t, 100);
        let b = lea_cost(&t, 200);
        assert_eq!(b.time_us - a.time_us, t.lea_mac.time_us * 100);
    }

    /// Words of LEA-RAM the equivalence properties lay operands out in.
    /// Small enough that random operand offsets overlap often.
    const WINDOW: u32 = 192;

    /// Random window contents, biased toward full-scale values.
    fn window_words() -> impl Strategy<Value = Vec<i16>> {
        proptest::collection::vec(
            prop_oneof![any::<i16>(), Just(i16::MIN), Just(i16::MAX), -512i16..512],
            WINDOW as usize,
        )
    }

    /// Memory whose LEA-RAM holds `words` at word `base` and zeros
    /// elsewhere, with a clean dirty map. `extreme` maps every word to
    /// ±full scale, so long MAC chains overflow the accumulator.
    fn lea_ram(base: u32, words: &[i16], extreme: bool) -> Memory {
        let mut m = Memory::new();
        let bytes: Vec<u8> = words
            .iter()
            .map(|&w| match (extreme, w < 0) {
                (false, _) => w,
                (true, true) => i16::MIN,
                (true, false) => i16::MAX,
            })
            .flat_map(i16::to_le_bytes)
            .collect();
        m.write_bytes(Addr::new(Region::LeaRam, base * 2), &bytes);
        m.snapshot();
        m
    }

    /// Address of an operand of `len` words at a position within the
    /// window drawn from `pick`.
    fn place(base: u32, pick: u32, len: u32) -> Addr {
        Addr::new(Region::LeaRam, (base + pick % (WINDOW - len + 1)) * 2)
    }

    /// Where an output of `len` words goes relative to the first input
    /// `a` and second input `b`: `alias` 0 places it independently, 1 on
    /// `a`, 2 on `b`, and 3 overlapping `a` at a word offset of either
    /// sign. Aliased outputs are clamped to stay inside the window.
    fn place_out(base: u32, pick: u32, len: u32, alias: u8, a: Addr, b: Addr) -> Addr {
        let word = match alias {
            0 => return place(base, pick, len),
            1 => (a.offset / 2) as i64,
            2 => (b.offset / 2) as i64,
            _ => (a.offset / 2) as i64 + (pick % 9) as i64 - 4,
        };
        let word = word.clamp(base as i64, (base + WINDOW - len) as i64);
        Addr::new(Region::LeaRam, word as u32 * 2)
    }

    /// Runs a kernel and its reference on copies of `mem`: both must give
    /// the same return value, and the same bytes and dirty pages in every
    /// region.
    fn same_as_reference<R: PartialEq + std::fmt::Debug>(
        mem: &Memory,
        kernel: impl FnOnce(&mut Memory) -> R,
        reference: impl FnOnce(&mut Memory) -> R,
    ) -> Result<(), TestCaseError> {
        let (mut a, mut b) = (mem.clone(), mem.clone());
        prop_assert_eq!(kernel(&mut a), reference(&mut b));
        for region in [Region::Fram, Region::Sram, Region::LeaRam] {
            let all = Addr::new(region, 0);
            let size = region.size() as u32;
            prop_assert!(
                a.read_bytes(all, size) == b.read_bytes(all, size),
                "{region:?} bytes differ"
            );
            prop_assert_eq!(a.dirty_pages(region), b.dirty_pages(region), "{region:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fir_matches_reference(
            (base, words, extreme) in (0u32..2048 - WINDOW, window_words(), any::<bool>()),
            (n_out, taps) in (0u32..40, 0u32..16),
            (px, ph, py, alias) in (any::<u32>(), any::<u32>(), any::<u32>(), 0u8..4),
        ) {
            let m = lea_ram(base, &words, extreme);
            let x = place(base, px, (n_out + taps).saturating_sub(1));
            let h = place(base, ph, taps);
            let y = place_out(base, py, n_out, alias, x, h);
            same_as_reference(
                &m,
                |m| fir(m, x, h, y, n_out, taps),
                |m| reference::fir(m, x, h, y, n_out, taps),
            )?;
        }

        #[test]
        fn conv2d_matches_reference(
            (base, words, extreme) in (0u32..2048 - WINDOW, window_words(), any::<bool>()),
            (w, h, kw, kh) in (1u32..12, 1u32..12, any::<u32>(), any::<u32>()),
            (pi, pk, po, alias) in (any::<u32>(), any::<u32>(), any::<u32>(), 0u8..4),
        ) {
            let (kw, kh) = (1 + kw % w, 1 + kh % h);
            let m = lea_ram(base, &words, extreme);
            let input = place(base, pi, w * h);
            let kernel = place(base, pk, kw * kh);
            let out = place_out(base, po, (w - kw + 1) * (h - kh + 1), alias, input, kernel);
            same_as_reference(
                &m,
                |m| conv2d(m, input, w, h, kernel, kw, kh, out),
                |m| reference::conv2d(m, input, w, h, kernel, kw, kh, out),
            )?;
        }

        #[test]
        fn relu_matches_reference(
            (base, words, extreme) in (0u32..2048 - WINDOW, window_words(), any::<bool>()),
            (n, pick, no_negatives) in (0u32..64, any::<u32>(), any::<bool>()),
        ) {
            let words: Vec<i16> = if no_negatives {
                words.iter().map(|&w| w.max(0)).collect()
            } else {
                words
            };
            let m = lea_ram(base, &words, extreme);
            let buf = place(base, pick, n);
            same_as_reference(&m, |m| relu(m, buf, n), |m| reference::relu(m, buf, n))?;
        }

        #[test]
        fn fully_connected_matches_reference(
            (base, words, extreme) in (0u32..2048 - WINDOW, window_words(), any::<bool>()),
            (n_in, n_out) in (0u32..12, 0u32..12),
            (px, pw, po, alias) in (any::<u32>(), any::<u32>(), any::<u32>(), 0u8..4),
        ) {
            let m = lea_ram(base, &words, extreme);
            let x = place(base, px, n_in);
            let weights = place(base, pw, n_in * n_out);
            let out = place_out(base, po, n_out, alias, x, weights);
            same_as_reference(
                &m,
                |m| fully_connected(m, x, n_in, weights, out, n_out),
                |m| reference::fully_connected(m, x, n_in, weights, out, n_out),
            )?;
        }

        #[test]
        fn argmax_matches_reference(
            (base, words, extreme) in (0u32..2048 - WINDOW, window_words(), any::<bool>()),
            (n, pick) in (1u32..64, any::<u32>()),
        ) {
            let m = lea_ram(base, &words, extreme);
            let buf = place(base, pick, n);
            same_as_reference(
                &m,
                |m| argmax(m, buf, n),
                |m| reference::argmax(m, buf, n),
            )?;
        }
    }
}
