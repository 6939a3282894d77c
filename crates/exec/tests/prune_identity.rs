//! Property test of the sweep engine's identity contract: for *any* app
//! shape, fault schedule, runtime, and worker width, the pruned parallel
//! sweep's full `SweepOutcome` — violations in order, per-boundary waste
//! series, per-cause energy totals — is byte-identical to the unpruned
//! serial sweep from `crashcheck`.
//!
//! This is the sweep-level closure over the record-level proofs in
//! `crashcheck` (materialized records equal real injected runs; boundaries
//! differing only in fault-plan position never merge; runs resumed from a
//! commit checkpoint and cut on convergence equal full runs): if any part
//! of classification, checkpointing, resumption, the convergence cut,
//! materialization, batching, or merge order were wrong for some input,
//! the outcomes would diverge here. Multi-task shapes make the checkpoint
//! and cut paths real: the tests assert they were taken, so they cannot
//! pass vacuously.

use apps::harness::RuntimeKind;
use apps::{dma_app, fir_long};
use crashcheck::{sweep, SweepPlan};
use easeio_exec::{run_sweep, SweepOptions};
use kernel::{App, FaultSpec};
use mcu_emu::Mcu;
use proptest::prelude::*;

proptest! {
    // Each case runs one serial sweep plus one engine sweep end to end, so
    // a small case count still covers hundreds of injected runs.
    #![proptest_config(ProptestConfig { cases: 12 })]
    #[test]
    fn pruned_parallel_sweep_is_byte_identical_to_unpruned_serial(
        bytes in prop_oneof![Just(256u32), Just(1024u32), Just(2048u32), Just(4096u32)],
        chunks in 1u32..4,
        iterations in 1u32..4,
        pre_compute in 0u64..3000,
        post_compute in 0u64..1200,
        env_seed in 0u64..1000,
        fault_rate in prop_oneof![Just(0u32), Just(60u32), Just(150u32)],
        fault_seed in 0u64..1000,
        naive in any::<bool>(),
        jobs in prop_oneof![Just(1usize), Just(4usize), Just(8usize)],
    ) {
        let cfg = dma_app::DmaAppCfg {
            bytes,
            chunks,
            iterations,
            pre_compute,
            post_compute,
        };
        let build = move |m: &mut Mcu| dma_app::build(m, &cfg);
        let kind = if naive { RuntimeKind::Naive } else { RuntimeKind::EaseIo };
        let fault = if fault_rate == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::with_rate(fault_seed, fault_rate)
        };
        let plan = SweepPlan {
            strict_memory: true,
            fault,
            ..SweepPlan::with_env_seed(env_seed)
        };
        let serial = sweep(&build, kind, &plan);
        let (pruned, timing) = run_sweep(&build, kind, &plan, &SweepOptions { jobs, prune: true });
        assert_eq!(serial, pruned);
        prop_assert_eq!(
            timing.prune.injections_executed + timing.prune.injections_pruned,
            serial.injections
        );
        // Every DMA-app shape commits at least once before its last task,
        // so some executed injection must have resumed from a checkpoint.
        prop_assert!(timing.prune.checkpoints > 0);
        prop_assert!(timing.prune.resumed > 0);
        // The engine must also reproduce the serial outcome with pruning
        // off — the pure thread-parallel path.
        let (unpruned, _) = run_sweep(&build, kind, &plan, &SweepOptions { jobs, prune: false });
        assert_eq!(serial, unpruned);
    }
}

type Builder = dyn Fn(&mut Mcu) -> App + Sync;

fn small_fir_long(m: &mut Mcu) -> App {
    fir_long::build(
        m,
        &fir_long::FirLongCfg {
            chunk: 32,
            taps: 16,
            rounds: 2,
            post_cycles: 2_000,
            ..Default::default()
        },
    )
}

/// Multi-task shapes — a three-iteration DMA app and a two-round small
/// `fir-long` — under a clean and a violating runtime, with and without a
/// fault plan, at every width: byte-identical to the unpruned serial sweep,
/// with the checkpoint path taken everywhere and the cut path taken on the
/// deterministic EaseIO cases.
#[test]
fn checkpointed_and_cut_sweeps_are_byte_identical_to_unpruned_serial() {
    let dma3 = |m: &mut Mcu| {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 512,
                chunks: 2,
                iterations: 3,
                pre_compute: 300,
                post_compute: 200,
            },
        )
    };
    let shapes: [(&str, &Builder); 2] = [("dma x3", &dma3), ("fir-long small", &small_fir_long)];
    for (name, build) in shapes {
        for kind in [RuntimeKind::EaseIo, RuntimeKind::Naive] {
            for fault in [FaultSpec::none(), FaultSpec::with_rate(3, 120)] {
                let plan = SweepPlan {
                    strict_memory: true,
                    fault,
                    ..SweepPlan::with_env_seed(5)
                };
                let serial = sweep(build, kind, &plan);
                for jobs in [1, 4, 8] {
                    let (pruned, timing) =
                        run_sweep(build, kind, &plan, &SweepOptions { jobs, prune: true });
                    assert_eq!(serial, pruned);
                    let p = &timing.prune;
                    assert!(
                        p.resumed > 0,
                        "{name} {kind:?} jobs {jobs}: nothing resumed"
                    );
                    if kind == RuntimeKind::EaseIo && fault == FaultSpec::none() {
                        assert!(p.cut > 0, "{name} jobs {jobs}: nothing cut");
                    }
                    assert_eq!(p.provenance.len() as u64, p.injections_executed);
                    assert!(p.provenance.iter().all(|&(b, from, cut)| {
                        cut.is_none_or(|c| c > from) && (from == 0 || b > 0)
                    }));
                }
            }
        }
    }
}

/// The sweep work counters are pure functions of the scenario: pinned
/// exactly for a small `fir-long` configuration, identical at every width.
/// Unpruned, nothing is checkpointed, resumed or cut, and every executed
/// run simulates its whole length.
#[test]
fn sweep_work_counters_are_pinned_for_a_small_fir_long() {
    let plan = SweepPlan {
        strict_memory: true,
        ..SweepPlan::with_env_seed(7)
    };
    for jobs in [1, 4] {
        let (_, t) = run_sweep(
            &small_fir_long,
            RuntimeKind::EaseIo,
            &plan,
            &SweepOptions { jobs, prune: true },
        );
        let p = &t.prune;
        assert_eq!(
            (
                p.injections_executed,
                p.checkpoints,
                p.resumed,
                p.cut,
                p.slices_executed
            ),
            (244, 11, 232, 230, 11_091),
            "jobs {jobs}"
        );
    }
    let (out, t) = run_sweep(
        &small_fir_long,
        RuntimeKind::EaseIo,
        &plan,
        &SweepOptions {
            jobs: 4,
            prune: false,
        },
    );
    let p = &t.prune;
    assert_eq!((p.checkpoints, p.resumed, p.cut), (0, 0, 0));
    assert_eq!(p.injections_executed, out.injections);
    assert_eq!(p.slices_executed, 66_607);
}
