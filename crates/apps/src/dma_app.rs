//! Uni-task `Single` benchmark: NVM→NVM DMA copy (paper §5.3, Fig 7a).
//!
//! The application moves a block of data between two FRAM buffers with DMA.
//! Because the destination is non-volatile, a completed transfer survives
//! power failures: EaseIO resolves it to `Single` at run time and never
//! repeats it, while Alpaca/InK re-execute the transfer on every attempt —
//! the canonical wasteful-I/O scenario of the paper's Figure 2a.

use kernel::{App, Inventory, TaskCtx, TaskDef, TaskId, TaskResult, Transition, Verdict};
use mcu_emu::{Mcu, NvBuf, NvVar, Region};
use std::rc::Rc;

/// Configuration of the DMA benchmark.
#[derive(Debug, Clone)]
pub struct DmaAppCfg {
    /// Bytes moved per chunk.
    pub bytes: u32,
    /// Chunks copied inside one task activation. The task is deliberately
    /// larger than many on-periods: a task-atomic runtime must land a long
    /// enough period to finish all chunks at once and re-copies everything
    /// after every failure, while `Single` semantics let EaseIO finish the
    /// remaining chunks incrementally across periods — the paper's central
    /// wasteful-I/O scenario (§2.1.1) and its non-termination argument
    /// (§3.5).
    pub chunks: u32,
    /// Number of whole-task activations.
    pub iterations: u32,
    /// CPU cycles of preprocessing before the transfers.
    pub pre_compute: u64,
    /// CPU cycles of postprocessing after the transfers.
    pub post_compute: u64,
}

impl Default for DmaAppCfg {
    fn default() -> Self {
        Self {
            bytes: 2048,
            chunks: 6,
            iterations: 2,
            pre_compute: 400,
            post_compute: 400,
        }
    }
}

/// Builds the DMA application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &DmaAppCfg) -> App {
    let words = cfg.bytes / 2 * cfg.chunks;
    let src: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, words);
    let dst: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, words);
    let iter: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let checksum: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);

    // Deterministic payload.
    let data: Vec<i16> = (0..words).map(|i| ((i * 37 + 11) % 251) as i16).collect();
    src.fill_from(&mut mcu.mem, &data);

    let cfg2 = cfg.clone();
    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(200)?;
        ctx.write(iter, 0u32)?;
        ctx.write(checksum, 0i32)?;
        Ok(Transition::To(TaskId(1)))
    };
    let copy = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(cfg2.pre_compute)?;
        // NVM → NVM: EaseIO resolves each chunk to Single at run time and
        // finishes the remainder incrementally across power failures.
        for c in 0..cfg2.chunks {
            let off = c * cfg2.bytes;
            ctx.dma_copy(src.addr().add(off), dst.addr().add(off), cfg2.bytes)?;
            ctx.compute(120)?;
        }
        ctx.compute(cfg2.post_compute)?;
        // Fold a little of the copied data into a running checksum so the
        // task has ordinary shared-variable traffic too.
        let sample = ctx.buf_read(dst, 0)? as i32 + ctx.buf_read(dst, words - 1)? as i32;
        let c = ctx.read(checksum)?;
        ctx.write(checksum, c.wrapping_add(sample))?;
        let i = ctx.read(iter)?;
        ctx.write(iter, i + 1)?;
        if i + 1 < cfg2.iterations {
            Ok(Transition::To(TaskId(1)))
        } else {
            Ok(Transition::To(TaskId(2)))
        }
    };
    let finish = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(200)?;
        Ok(Transition::Done)
    };

    let expected_checksum = {
        let sample = data[0] as i32 + data[(words - 1) as usize] as i32;
        (0..cfg.iterations).fold(0i32, |acc, _| acc.wrapping_add(sample))
    };
    let expected = data;
    let iterations = cfg.iterations;
    let verify = move |mcu: &Mcu, _p: &periph::Peripherals| -> Verdict {
        if dst.to_vec(&mcu.mem) != expected {
            return Verdict::Incorrect("destination buffer mismatch".into());
        }
        if checksum.get(&mcu.mem) != expected_checksum {
            return Verdict::Incorrect("checksum mismatch".into());
        }
        if iter.get(&mcu.mem) != iterations {
            return Verdict::Incorrect("iteration counter mismatch".into());
        }
        Verdict::Correct
    };

    App {
        name: "dma",
        tasks: vec![
            TaskDef {
                name: "init",
                body: Rc::new(init),
            },
            TaskDef {
                name: "copy",
                body: Rc::new(copy),
            },
            TaskDef {
                name: "finish",
                body: Rc::new(finish),
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 3,
            io_funcs: 1,
            io_sites: 0,
            timely_sites: 0,
            dma_sites: 6,
            io_blocks: 0,
            nv_vars: 2 + 2, // iter, checksum + the two buffers
        },
        verify: Some(Rc::new(verify)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{alpaca::AlpacaRuntime, run_app, ExecConfig, Outcome};
    use mcu_emu::Supply;
    use periph::Peripherals;

    #[test]
    fn completes_and_verifies_on_continuous_power() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(1);
        let app = build(&mut mcu, &DmaAppCfg::default());
        let mut rt = AlpacaRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        assert_eq!(r.stats.dma_executed, 12); // 6 chunks × 2 iterations
    }

    #[test]
    fn easeio_skips_completed_transfers_under_failures() {
        use easeio_core::EaseIoRuntime;
        use mcu_emu::TimerResetConfig;
        let cfg = TimerResetConfig::default();
        let mut mcu = Mcu::new(Supply::timer(cfg, 17));
        let mut p = Peripherals::new(1);
        let app = build(&mut mcu, &DmaAppCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        if r.stats.power_failures > 0 {
            assert!(
                r.stats.dma_skipped > 0 || r.stats.dma_reexecutions == 0,
                "EaseIO must not blindly repeat completed transfers"
            );
        }
    }
}
