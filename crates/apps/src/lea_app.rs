//! Uni-task `Always` benchmark: LEA vector operation (paper §5.3, Fig 7c).
//!
//! The application fills LEA-RAM with samples and coefficients, runs one
//! long FIR on the LEA, and copies the result back to FRAM — all within one
//! task, because LEA-RAM is volatile. The LEA call is annotated `Always`
//! (its operands and results live in volatile memory, so a re-executed task
//! must redo it); consequently EaseIO behaves like the baselines here modulo
//! bookkeeping, which is exactly the paper's point in Figure 7c.

use kernel::{
    App, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult, Transition,
    Verdict,
};
use mcu_emu::{Mcu, NvBuf, Region};
use periph::lea::ACC_SHIFT;
use std::rc::Rc;

/// Configuration of the LEA benchmark.
#[derive(Debug, Clone)]
pub struct LeaAppCfg {
    /// FIR output length.
    pub n_out: u32,
    /// FIR tap count.
    pub taps: u32,
}

impl Default for LeaAppCfg {
    fn default() -> Self {
        Self {
            n_out: 512,
            taps: 24,
        }
    }
}

/// Number of output points persisted as the result digest.
pub const DIGEST_POINTS: u32 = 8;

/// The deterministic input sample at index `i`.
pub fn sample(i: u32) -> i16 {
    (((i * 29 + 7) % 199) as i16) - 99
}

/// The deterministic coefficient at index `k` (Q8, sums to less than unity
/// gain so the output cannot saturate).
pub fn coeff(k: u32, taps: u32) -> i16 {
    (((k * 13 + 3) % 23) as i16) - 11 + (256 / taps as i16) / 4
}

/// Software reference of FIR output point `i`, matching the LEA arithmetic
/// exactly.
fn reference_point(cfg: &LeaAppCfg, i: u32) -> i16 {
    let mut acc: i32 = 0;
    for k in 0..cfg.taps {
        acc += coeff(k, cfg.taps) as i32 * sample(i + k) as i32;
    }
    (acc >> ACC_SHIFT).clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// The digest the filter task persists: every `n_out / DIGEST_POINTS`-th
/// output point, computed point by point rather than from the whole output.
fn reference_digest(cfg: &LeaAppCfg) -> Vec<i16> {
    let stride = cfg.n_out / DIGEST_POINTS;
    (0..DIGEST_POINTS)
        .map(|i| reference_point(cfg, i * stride))
        .collect()
}

/// Builds the LEA application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &LeaAppCfg) -> App {
    let n_in = cfg.n_out + cfg.taps - 1;
    let x: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, n_in);
    let h: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.taps);
    let y: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.n_out);
    // Uni-task benchmarks keep shared variables minimal (paper §5.3): the
    // task persists a small digest of the filter output, not the buffer.
    let digest: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, DIGEST_POINTS);

    let cfg2 = cfg.clone();
    let filter = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        // Stage inputs into (volatile) LEA-RAM: lost on failure, refilled on
        // re-execution.
        for i in 0..n_in {
            ctx.buf_write(x, i, sample(i))?;
        }
        for k in 0..cfg2.taps {
            ctx.buf_write(h, k, coeff(k, cfg2.taps))?;
        }
        // The accelerator pass: Always semantics.
        ctx.call_io(
            IoOp::LeaFir {
                x: x.addr(),
                h: h.addr(),
                y: y.addr(),
                n_out: cfg2.n_out,
                taps: cfg2.taps,
            },
            ReexecSemantics::Always,
        )?;
        // Persist a digest of evenly spaced output points.
        let stride = cfg2.n_out / DIGEST_POINTS;
        for i in 0..DIGEST_POINTS {
            let v = ctx.buf_read(y, i * stride)?;
            ctx.buf_write(digest, i, v)?;
        }
        Ok(Transition::To(TaskId(1)))
    };
    let finish = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(300)?;
        Ok(Transition::Done)
    };
    let prepare = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(300)?;
        Ok(Transition::To(TaskId(1)))
    };

    let expected = reference_digest(cfg);
    let verify = move |mcu: &Mcu, _p: &periph::Peripherals| -> Verdict {
        if digest.to_vec(&mcu.mem) == expected {
            Verdict::Correct
        } else {
            Verdict::Incorrect("FIR digest mismatch".into())
        }
    };

    // Task graph: prepare → filter → finish, where `filter` is TaskId(1).
    App {
        name: "lea",
        tasks: vec![
            TaskDef {
                name: "prepare",
                body: Rc::new(prepare),
            },
            TaskDef {
                name: "filter",
                body: Rc::new({
                    // `filter` transitions to finish at TaskId(2).
                    move |ctx: &mut TaskCtx<'_>| match filter(ctx)? {
                        Transition::To(_) => Ok(Transition::To(TaskId(2))),
                        done => Ok(done),
                    }
                }),
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
            io_sites: 1,
            timely_sites: 0,
            dma_sites: 0,
            io_blocks: 0,
            nv_vars: 1,
        },
        verify: Some(Rc::new(verify)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_core::EaseIoRuntime;
    use kernel::{alpaca::AlpacaRuntime, run_app, ExecConfig, Outcome, Runtime};
    use mcu_emu::{Supply, TimerResetConfig};
    use periph::Peripherals;

    /// Software reference FIR: every output point.
    fn reference_fir(cfg: &LeaAppCfg) -> Vec<i16> {
        (0..cfg.n_out).map(|i| reference_point(cfg, i)).collect()
    }

    fn digest_of_full_output(cfg: &LeaAppCfg) -> Vec<i16> {
        let full = reference_fir(cfg);
        let stride = cfg.n_out / DIGEST_POINTS;
        (0..DIGEST_POINTS)
            .map(|i| full[(i * stride) as usize])
            .collect()
    }

    #[test]
    fn digest_points_equal_the_sampled_full_reference() {
        let cfg = LeaAppCfg::default();
        assert_eq!(reference_digest(&cfg), digest_of_full_output(&cfg));
    }

    proptest::proptest! {
        #[test]
        fn digest_points_equal_the_sampled_full_reference_for_any_shape(
            n_out in DIGEST_POINTS..1024,
            taps in 1u32..64,
        ) {
            let cfg = LeaAppCfg { n_out, taps };
            proptest::prop_assert_eq!(reference_digest(&cfg), digest_of_full_output(&cfg));
        }
    }

    #[test]
    fn lea_result_matches_reference_on_continuous_power() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(1);
        let app = build(&mut mcu, &LeaAppCfg::default());
        let mut rt = AlpacaRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
    }

    #[test]
    fn all_runtimes_reexecute_always_lea_equally() {
        // Under identical failure schedules, EaseIO neither skips nor adds
        // LEA executions versus Alpaca (Table 4, Always row: 0 % reduction).
        let run = |rt: &mut dyn Runtime| {
            let cfg = TimerResetConfig::default();
            let mut mcu = Mcu::new(Supply::timer(cfg, 99));
            let mut p = Peripherals::new(1);
            let app = build(
                &mut mcu,
                &LeaAppCfg {
                    n_out: 256,
                    taps: 16,
                },
            );
            let r = run_app(&app, rt, &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed);
            r.stats.io_skipped
        };
        assert_eq!(run(&mut AlpacaRuntime::new()), 0);
        assert_eq!(run(&mut EaseIoRuntime::default()), 0);
    }

    #[test]
    fn smaller_config_survives_heavy_failures() {
        let cfg = TimerResetConfig {
            on_min_us: 4_000,
            on_max_us: 9_000,
            off_min_us: 1_000,
            off_max_us: 3_000,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 5));
        let mut p = Peripherals::new(1);
        let app = build(
            &mut mcu,
            &LeaAppCfg {
                n_out: 128,
                taps: 16,
            },
        );
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
    }
}
