//! `paper-eval`: the paper's Fig. 7 and Fig. 10–12 matrix run serially —
//! the uni-task apps (dma, temp, lea) and the multi-task apps (FIR, plus
//! FIR under EaseIO/Op, and weather) under Alpaca, InK and EaseIO, 1000
//! seeded timer-reset runs per cell through `apps::harness::run_once` —
//! plus every `examples/programs/*.eio` compiled with `easec` and run under
//! EaseIO. A unit is one app run.
//!
//! Baseline-kernel corruption is the paper's expected result and is not a
//! failure; a baseline run still fails on an unbalanced energy ledger.

use crate::spans::Tracer;
use crate::tally::{Fnv, Tally};
use crate::{Bench, Opts, Pass, Replay};
use apps::harness::{run_once, MakeRuntime};
use easeio_exec::AppSpec;
use kernel::{run_app, ExecConfig, KernelKind, Outcome, RunResult, Verdict};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use periph::Peripherals;
use std::time::Instant;

/// Seeded runs per matrix cell, as in the paper's evaluation.
const RUNS: u64 = 1000;
/// Seeded runs per `easec` example program.
const PROGRAM_RUNS: u64 = 50;
/// The paper harness's base seed; the workload seed offsets it.
const PAPER_BASE_SEED: u64 = 0xEA5E10;

/// The `paper-eval` workload.
pub struct PaperEval;

/// The matrix cells and the example programs' sources.
pub struct Prep {
    cells: Vec<(&'static str, KernelKind)>,
    programs: Vec<String>,
    base_seed: u64,
    runs: u64,
    program_runs: u64,
}

/// The Fig. 7 and Fig. 10–12 cells, in the paper's order.
fn cells() -> Vec<(&'static str, KernelKind)> {
    let mut cells = Vec::new();
    for app in ["dma", "temp", "lea", "fir"] {
        for kind in KernelKind::PAPER_SET {
            cells.push((app, kind));
        }
    }
    cells.push(("fir", KernelKind::EaseIoOp));
    for kind in KernelKind::PAPER_SET {
        cells.push(("weather", kind));
    }
    cells
}

fn is_easeio(kind: KernelKind) -> bool {
    matches!(kind, KernelKind::EaseIo | KernelKind::EaseIoOp)
}

/// Folds one run into the pass: digest, per-unit checks, simulated totals.
fn judge(kind: KernelKind, r: &RunResult, duplicate_sends: u64, h: &mut Fnv, p: &mut Pass) {
    h.debug(&r.outcome);
    h.debug(&r.verdict);
    h.stats(&r.stats);
    let broken = !r.stats.attribution_balanced()
        || (is_easeio(kind)
            && (r.outcome != Outcome::Completed
                || matches!(r.verdict, Some(Verdict::Incorrect(_)))
                || duplicate_sends > 0));
    p.units += 1;
    p.failed += broken as u64;
    if is_easeio(kind) {
        p.sim.add_run(&r.stats);
    }
}

fn timer(seed: u64) -> Supply {
    Supply::timer(TimerResetConfig::default(), seed)
}

/// Compiles `source` onto a fresh machine and runs it under EaseIO; returns
/// the result and the radio's duplicate-send count.
fn run_program(source: &str, seed: u64, tr: &mut Tracer) -> Result<(RunResult, u64), String> {
    let mut mcu = Mcu::new(timer(seed));
    let compiled = tr
        .span("easec.compile", "", |_| easec::compile(source, &mut mcu))
        .map_err(|e| e.to_string())?;
    let mut periph = Peripherals::new(seed);
    let mut rt = KernelKind::EaseIo.make();
    let r = tr.span("kernel.run_app", "", |_| {
        run_app(
            &compiled.app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &ExecConfig::default(),
        )
    });
    Ok((r, periph.radio.duplicate_count() as u64))
}

impl Bench for PaperEval {
    type Prep = Prep;

    fn setup(&self, o: &Opts, tr: &mut Tracer) -> Result<Prep, String> {
        let dir = o.root.join("examples/programs");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "eio"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no .eio programs under {}", dir.display()));
        }
        let mut programs = Vec::new();
        for path in paths {
            let source =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut mcu = Mcu::new(Supply::continuous());
            tr.span("easec.compile", "", |_| easec::compile(&source, &mut mcu))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            programs.push(source);
        }
        let cells = cells();
        for (app, kind) in &cells {
            let mut mcu = Mcu::new(Supply::continuous());
            tr.span("apps.build", app, |_| {
                AppSpec::Named((*app).into()).build(*kind, &mut mcu)
            })?;
        }
        Ok(Prep {
            cells,
            programs,
            base_seed: PAPER_BASE_SEED.wrapping_add(o.seed.wrapping_mul(RUNS)),
            runs: if o.tiny { 4 } else { RUNS },
            program_runs: if o.tiny { 2 } else { PROGRAM_RUNS },
        })
    }

    fn pass(&self, _o: &Opts, prep: &Prep) -> Result<Pass, String> {
        let mut p = Pass::default();
        let mut h = Fnv::default();
        let mut off = Tracer::new(false);
        let t0 = Instant::now();
        for &(app, kind) in &prep.cells {
            let spec = AppSpec::Named(app.into());
            let builder = |mcu: &mut Mcu| spec.build(kind, mcu).expect("built during setup");
            for i in 0..prep.runs {
                let seed = prep.base_seed.wrapping_add(i);
                let r = run_once(&builder, kind, timer(seed), seed);
                judge(kind, &r, 0, &mut h, &mut p);
            }
        }
        for source in &prep.programs {
            for i in 0..prep.program_runs {
                let seed = prep.base_seed.wrapping_add(i);
                let (r, dups) = run_program(source, seed, &mut off)?;
                judge(KernelKind::EaseIo, &r, dups, &mut h, &mut p);
            }
        }
        p.wall_s = t0.elapsed().as_secs_f64();
        p.digest = h.0;
        let source_bytes: usize = prep.programs.iter().map(String::len).sum();
        p.layer = vec![("easec.source_bytes", source_bytes as f64)];
        Ok(p)
    }

    fn replay(&self, _o: &Opts, prep: &Prep, tr: &mut Tracer) -> Result<Replay, String> {
        let mut p = Pass::default();
        let mut h = Fnv::default();
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let mut unit = 0u64;
        for &(app, kind) in &prep.cells {
            let spec = AppSpec::Named(app.into());
            for i in 0..prep.runs {
                let seed = prep.base_seed.wrapping_add(i);
                tr.set_unit(unit);
                unit += 1;
                // `run_once`, with the app build and the run as separate spans.
                let mut mcu = Mcu::new(timer(seed));
                let mut periph = Peripherals::new(seed);
                let built = tr.span("apps.build", app, |_| spec.build(kind, &mut mcu))?;
                let mut rt = kind.make();
                let r = tr.span("kernel.run_app", "", |_| {
                    run_app(
                        &built,
                        rt.as_mut(),
                        &mut mcu,
                        &mut periph,
                        &ExecConfig::default(),
                    )
                });
                tally.add(&r.stats);
                judge(kind, &r, 0, &mut h, &mut p);
            }
        }
        for source in &prep.programs {
            for i in 0..prep.program_runs {
                let seed = prep.base_seed.wrapping_add(i);
                tr.set_unit(unit);
                unit += 1;
                let (r, dups) = run_program(source, seed, tr)?;
                tally.add(&r.stats);
                judge(KernelKind::EaseIo, &r, dups, &mut h, &mut p);
            }
        }
        Ok(Replay {
            wall_s: t0.elapsed().as_secs_f64(),
            units: p.units,
            digest: h.0,
            tally,
            layer: Vec::new(),
        })
    }
}
