//! The rolling-update engine's two identity anchors (ISSUE satellites):
//!
//! 1. **N = 1 ≡ single staged update** — a 1-device no-loss rollout must
//!    reproduce the plain single-device OTA-update run at the same seed
//!    exactly, for any kernel × supply × fault-rate draw. The rollout is
//!    *defined* as waves of the single-device protocol, and this pins it.
//! 2. **Jobs-width identity** — the downlink pre-pass and the device phase
//!    are pure in the device index, so the rollout report (downlink chunk
//!    accounting included) is byte-identical at any `--jobs` width.

use apps::ota_update::{self, OtaUpdateCfg};
use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::{run_device, run_rollout, FleetAgg, RolloutPolicy};
use easeio_trace::envelope::identity_document;
use easeio_trace::fleet::build_fleet_report;
use kernel::{FaultSpec, KernelKind};
use periph::MediumSpec;
use proptest::prelude::*;

const PROPTEST_KERNELS: [KernelKind; 3] =
    [KernelKind::Naive, KernelKind::Alpaca, KernelKind::EaseIo];

fn rollout_spec(count: u32, kernel: KernelKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("ota-update".into()),
            kernel,
            ..DeviceSpec::default()
        },
        count,
        seed,
        ..ScenarioSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anchor 1: a 1-device rollout over a lossless medium is the single
    /// staged update — same outcome, verdict, clocks, energy attribution,
    /// and reboot count as running the OTA app directly at the same seed —
    /// and the engine's N = 1 aggregate is exactly that device folded in.
    #[test]
    fn one_device_rollout_reproduces_the_single_staged_update(
        kernel_i in 0usize..PROPTEST_KERNELS.len(),
        seed in 0u64..1000,
        supply_i in 0usize..2,
        rate_i in 0usize..3,
    ) {
        let kernel = PROPTEST_KERNELS[kernel_i];
        let rate = [0u32, 20, 50][rate_i];
        let fault = if rate == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::with_rate(seed ^ 0x5eed, rate)
        };
        let mut spec = rollout_spec(1, kernel, seed);
        spec.device.fault = fault;
        spec.supply = [SupplySpec::Timer, SupplySpec::Continuous][supply_i];
        let policy = RolloutPolicy::default();

        let r = run_rollout(&spec, &policy, None, None).unwrap();
        prop_assert_eq!(r.stats.offered, 1);
        prop_assert_eq!(r.stats.stragglers + r.stats.stale, 0);

        let cfg = OtaUpdateCfg {
            target_seq: policy.target_seq,
            two_phase: kernel.two_phase_update(),
            ..OtaUpdateCfg::default()
        };
        // Device 0 through the per-device function the engine calls, on
        // the received-image variant.
        let mut mcu = mcu_emu::Mcu::new(mcu_emu::Supply::continuous());
        let (app, _) = ota_update::build(&mut mcu, &cfg);
        let snap = mcu.snapshot();
        let d = &run_device(&spec, &mut mcu, &app, &snap, 0);
        let builder = |mcu: &mut mcu_emu::Mcu| ota_update::build(mcu, &cfg).0;
        let single = apps::harness::run_once_faulted(
            &builder,
            kernel,
            spec.supply_for_device(0),
            spec.device_seed(0),
            &fault,
        );

        prop_assert_eq!(d.outcome, single.outcome);
        prop_assert_eq!(&d.verdict, &single.verdict);
        prop_assert_eq!(d.wall_us, single.wall_us);
        prop_assert_eq!(d.on_us, single.on_us);
        prop_assert_eq!(d.stats.total_time_us(), single.stats.total_time_us());
        prop_assert_eq!(d.stats.total_energy_nj(), single.stats.total_energy_nj());
        prop_assert_eq!(d.stats.cause_energy_nj, single.stats.cause_energy_nj);
        prop_assert_eq!(d.stats.power_failures, single.stats.power_failures);

        let mut agg = FleetAgg::new();
        agg.observe(d);
        prop_assert_eq!(r.agg.outcomes(), agg.outcomes());
        prop_assert_eq!(r.agg.energy(), agg.energy());
        prop_assert_eq!(r.agg.stragglers(), agg.stragglers());
        prop_assert_eq!(r.agg.power_failures(), agg.power_failures());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Anchor 2: the whole rollout report — downlink chunk deliveries,
    /// stragglers, version buckets, energy — is byte-identical across
    /// worker counts, for lossless and lossy downlinks alike.
    #[test]
    fn rollout_report_is_byte_identical_across_jobs_widths(
        seed in 0u64..500,
        loss_i in 0usize..3,
    ) {
        let loss = [0u32, 200, 450][loss_i];
        let policy = RolloutPolicy {
            wave_size: 7,
            ..RolloutPolicy::default()
        };
        let doc_at = |jobs: usize| {
            let mut spec = rollout_spec(40, KernelKind::EaseIo, seed);
            spec.medium = MediumSpec::lossy(seed ^ 0x77, loss);
            spec.jobs = jobs;
            let r = run_rollout(&spec, &policy, None, None).unwrap();
            (
                identity_document(&build_fleet_report(&r.report_inputs(&spec))).to_pretty(),
                r.stats,
            )
        };
        let (reference, stats) = doc_at(1);
        if loss > 0 {
            prop_assert!(stats.downlink_chunks_lost > 0);
        }
        for jobs in [4usize, 8] {
            let (doc, _) = doc_at(jobs);
            prop_assert_eq!(&doc, &reference, "jobs={} diverged from serial", jobs);
        }
    }
}
