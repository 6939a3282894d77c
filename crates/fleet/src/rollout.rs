//! Rolling over-the-air update across the fleet — the gateway side of the
//! crash-safe update subsystem.
//!
//! The gateway pushes a new task-graph image (sequence [`RolloutPolicy::
//! target_seq`]) to the fleet wave by wave. For each device in an offered
//! wave it downlinks the image in the same chunks the device stages at
//! ([`OtaUpdateCfg::chunk_words`]); every chunk is retried through the
//! scenario's existing retry budget (`1 + max_retries` attempts) against
//! the shared medium's seeded downlink loss
//! ([`MediumSpec::downlink_drops`]). A device whose downlink never
//! completes is a **straggler**: it keeps running on the factory image.
//! Devices that did receive the image run the two-phase (or, under the
//! Naive kernel, in-place) update from `apps::ota_update`.
//!
//! After each wave the gateway inspects the wave's results. A
//! **regression** — a received update that did not end completed, correct,
//! and probe-clean — aborts the rollout when
//! [`RolloutPolicy::abort_on_regression`] is set: later waves are never
//! offered the image and stay **stale** on the factory version. This is
//! what turns the crashcheck-level old-or-new guarantee into a fleet
//! policy: under EaseIO every offered-and-received device converges on the
//! target with zero duplicate activations, while the Naive baseline's torn
//! images trip the abort.
//!
//! Determinism mirrors [`run_fleet`](crate::run_fleet): downlink draws are
//! pure in `(medium seed, device, chunk, attempt)`, device results depend
//! only on the device index, waves merge in device order — so the rollout
//! report is byte-identical at any `--jobs` width, and a 1-device
//! no-loss rollout reproduces the single-device staged update exactly.
//!
//! Like the plain fleet, [`run_rollout`] is one execution path with an
//! optional record stream: per-device results fold into a [`FleetAgg`]
//! instead of accumulating, and given a stream each wave's device records
//! go through a per-wave sharded sink merged into it (waves are
//! device-ordered, so concatenating the merged waves preserves global
//! device order). Without a stream no shard file is created.

use crate::telemetry::FleetAgg;
use crate::{reconcile_phase, run_device, DeviceResult, GatewayStats, RecordSink};
use apps::ota_update::{self, OtaUpdateCfg};
use easeio_exec::report::{repro_command, Replay};
use easeio_exec::{run_indexed, PoolStats, ScenarioSpec};
use easeio_trace::fleet::{FleetInputs, FleetRolloutDoc};
use easeio_trace::stream::{JsonlWriter, StreamStats};
use easeio_trace::{ForensicsInputs, ForensicsViolationDoc, Progress, Report};
use kernel::update::{PROBE_DUPLICATE_ACTIVATION, PROBE_VERSION_TORN};
use kernel::{App, Outcome, Verdict};
use mcu_emu::{Mcu, McuSnapshot, Supply};
use periph::{MediumSpec, Packet};

/// How the gateway rolls the update out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutPolicy {
    /// Sequence number of the image being rolled out (the factory image is
    /// 1, so a rollout targets at least 2).
    pub target_seq: u32,
    /// Devices offered the update per wave.
    pub wave_size: u32,
    /// Stop offering the update after a wave shows a regression.
    pub abort_on_regression: bool,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        Self {
            target_seq: 2,
            wave_size: 32,
            abort_on_regression: true,
        }
    }
}

/// Which update-safety probe a device tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutViolationKind {
    /// The device recovered a torn image (`PROBE_VERSION_TORN`).
    VersionTorn,
    /// The device activated the image more than once
    /// (`PROBE_DUPLICATE_ACTIVATION`).
    DuplicateActivation,
}

impl RolloutViolationKind {
    /// The violation's report label.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutViolationKind::VersionTorn => "version_torn",
            RolloutViolationKind::DuplicateActivation => "duplicate_activation",
        }
    }
}

/// The first update-safety violation of a rollout, in device order — the
/// anchor the forensics bundle is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutViolation {
    /// The offending device.
    pub device: u32,
    /// The 0-based wave the device was updated in.
    pub wave: u32,
    /// Which probe fired.
    pub kind: RolloutViolationKind,
}

/// One complete rollout: bounded aggregate, gateway accounting, and the
/// version-convergence stats, with per-device records in the caller's
/// stream (if any) instead of in memory.
#[derive(Debug)]
pub struct RolloutOutcome {
    /// Fleet-wide aggregate (merged per-worker folds across all waves).
    pub agg: FleetAgg,
    /// Gateway delivery accounting over the shared medium.
    pub gateway: GatewayStats,
    /// Worker utilization, summed over waves.
    pub pool: PoolStats,
    /// What the per-wave sinks merged, summed over waves; all zero when no
    /// stream was given.
    pub stream: StreamStats,
    /// The `rollout` report block.
    pub stats: FleetRolloutDoc,
    /// First device that tripped an update-safety probe, if any.
    pub first_violation: Option<RolloutViolation>,
}

/// The outcome of [`run_rollout_streamed`]: the one [`RolloutOutcome`].
pub type StreamedRolloutOutcome = RolloutOutcome;

impl RolloutOutcome {
    /// The `kind: "fleet"` report inputs with the `rollout` block filled
    /// in.
    pub fn report_inputs(&self, spec: &ScenarioSpec) -> FleetInputs {
        let mut inp = crate::fleet_inputs(
            spec,
            &self.agg,
            &self.gateway,
            crate::timing_doc(&self.pool, &self.stream),
        );
        inp.rollout = Some(self.stats.clone());
        inp
    }

    /// The forensics bundle for the first device, in device order, that
    /// tripped an update-safety probe under `policy`; `None` when every
    /// device stayed safe. Its repro command replays the whole rollout and
    /// expects the violation.
    pub fn forensics(
        &self,
        spec: &ScenarioSpec,
        policy: &RolloutPolicy,
    ) -> Option<Report<ForensicsInputs>> {
        let v = self.first_violation?;
        let s = &self.stats;
        Some(Report::new(ForensicsInputs {
            source: "rollout".into(),
            runtime: spec.device.kernel.name().into(),
            app: spec.device.app.label().to_string(),
            seed: spec.seed,
            violation: ForensicsViolationDoc {
                kind: v.kind.label().into(),
                detail: format!(
                    "device {} tripped the {} probe during wave {}",
                    v.device,
                    v.kind.label(),
                    v.wave + 1
                ),
                boundary: None,
                spend_seq: None,
                device: Some(v.device as u64),
                wave: Some(v.wave as u64 + 1),
            },
            fault_spec: spec.device.fault.doc(),
            context: vec![
                ("devices".into(), spec.count as u64),
                ("waves".into(), s.waves),
                ("wave_size".into(), s.wave_size),
                ("target_seq".into(), s.target_seq),
                ("version_torn".into(), s.version_torn),
                ("duplicate_activations".into(), s.duplicate_activations),
            ],
            fram_diff: None,
            repro_command: repro_command(
                spec,
                &Replay::Rollout {
                    wave_size: policy.wave_size as u64,
                    target_seq: policy.target_seq as u64,
                    abort_on_regression: policy.abort_on_regression,
                },
            ),
        }))
    }
}

/// Per-device downlink verdict from the deterministic pre-pass.
struct Downlink {
    received: bool,
    chunks_sent: u64,
    chunks_lost: u64,
}

/// Attempts to downlink all `chunks` image chunks to `device`, retrying
/// each chunk up to the scenario's retry budget. Aborts at the first chunk
/// that exhausts its attempts — the device keeps whatever partial image it
/// has in the shadow slot, which the two-phase protocol never activates.
fn downlink(medium: &MediumSpec, device: u32, chunks: u32, attempts: u32) -> Downlink {
    let mut d = Downlink {
        received: true,
        chunks_sent: 0,
        chunks_lost: 0,
    };
    for chunk in 0..chunks {
        let mut delivered = false;
        for attempt in 0..attempts {
            d.chunks_sent += 1;
            if medium.downlink_drops(device, chunk, attempt) {
                d.chunks_lost += 1;
            } else {
                delivered = true;
                break;
            }
        }
        if !delivered {
            d.received = false;
            break;
        }
    }
    d
}

/// The validated, precomputed rollout plan.
struct RolloutPlan {
    snaps: [McuSnapshot; 2],
    cfgs: [OtaUpdateCfg; 2],
    chunks: u32,
    attempts: u32,
    waves: u32,
}

fn plan_rollout(spec: &ScenarioSpec, policy: &RolloutPolicy) -> Result<RolloutPlan, String> {
    if spec.count == 0 {
        return Err("a rollout needs at least 1 device".into());
    }
    if policy.wave_size == 0 {
        return Err("rollout wave_size must be at least 1".into());
    }
    if policy.target_seq < 2 {
        return Err("rollout target_seq must be at least 2 (1 is the factory image)".into());
    }
    let updated_cfg = OtaUpdateCfg {
        target_seq: policy.target_seq,
        two_phase: spec.device.kernel.two_phase_update(),
        ..OtaUpdateCfg::default()
    };
    let stale_cfg = OtaUpdateCfg {
        target_seq: 1,
        ..updated_cfg.clone()
    };
    // One shared CoW snapshot per app variant, built once on the
    // coordinator; allocator addresses are deterministic, so every
    // worker's lazily built template matches its snapshot.
    let snapshot_of = |cfg: &OtaUpdateCfg| -> McuSnapshot {
        let mut template = Mcu::new(Supply::continuous());
        ota_update::build(&mut template, cfg);
        template.snapshot()
    };
    let chunks = updated_cfg
        .payload_words
        .div_ceil(updated_cfg.chunk_words.max(1));
    Ok(RolloutPlan {
        snaps: [snapshot_of(&stale_cfg), snapshot_of(&updated_cfg)],
        cfgs: [stale_cfg, updated_cfg],
        chunks,
        attempts: 1 + spec.device.fault.retry.max_retries,
        waves: spec.count.div_ceil(policy.wave_size),
    })
}

/// Deterministic gateway-side pre-pass for one wave: which devices get
/// the full image, with the downlink accounting folded into `stats`.
fn plan_wave(
    spec: &ScenarioSpec,
    plan: &RolloutPlan,
    first: u32,
    last: u32,
    offered: bool,
    stats: &mut FleetRolloutDoc,
) -> Vec<(u32, bool)> {
    (first..last)
        .map(|device| {
            if !offered {
                stats.stale += 1;
                return (device, false);
            }
            stats.offered += 1;
            let d = downlink(&spec.medium, device, plan.chunks, plan.attempts);
            stats.downlink_chunks_sent += d.chunks_sent;
            stats.downlink_chunks_lost += d.chunks_lost;
            if !d.received {
                stats.stragglers += 1;
            }
            (device, d.received)
        })
        .collect()
}

/// Gateway-side wave review: folds version accounting and the first
/// update-safety violation into the running state and returns whether any
/// received update regressed (did not land completed, correct, and
/// probe-clean).
fn review_wave(
    wave: u32,
    items: &[(u32, bool)],
    wave_results: &[DeviceResult],
    stats: &mut FleetRolloutDoc,
    first_violation: &mut Option<RolloutViolation>,
) -> bool {
    let mut regressed = false;
    for (r, &(device, received)) in wave_results.iter().zip(items) {
        let torn = r.stats.counter(PROBE_VERSION_TORN);
        let dups = r.stats.counter(PROBE_DUPLICATE_ACTIVATION);
        stats.duplicate_activations += dups;
        stats.version_torn += torn;
        if first_violation.is_none() {
            let kind = if torn > 0 {
                Some(RolloutViolationKind::VersionTorn)
            } else if dups > 0 {
                Some(RolloutViolationKind::DuplicateActivation)
            } else {
                None
            };
            if let Some(kind) = kind {
                *first_violation = Some(RolloutViolation { device, wave, kind });
            }
        }
        if received {
            let ok = r.outcome == Outcome::Completed && r.verdict == Some(Verdict::Correct);
            if ok {
                stats.updated += 1;
            } else {
                stats.update_failed += 1;
            }
            if !ok || torn > 0 || dups > 0 {
                regressed = true;
            }
        }
    }
    regressed
}

/// Runs a rolling update of `spec`'s fleet to `policy.target_seq`.
///
/// The scenario's app is fixed to `ota-update` (two variants: received the
/// image / did not); the scenario's kernel decides the on-device protocol
/// via [`kernel::KernelKind::two_phase_update`]. Everything else — supply,
/// faults, medium, seeds, `jobs` — is the scenario's own. Each wave's
/// device records stream through a per-wave sharded sink merged into
/// `stream`, if given (waves are device-ordered, so the concatenated
/// stream is globally device-ordered and byte-identical at any `--jobs`
/// width), and per-device results fold into one [`FleetAgg`]. `progress`
/// ticks one unit per device in a `"devices"` phase, with the wave index
/// alongside.
pub fn run_rollout(
    spec: &ScenarioSpec,
    policy: &RolloutPolicy,
    mut stream: Option<&mut JsonlWriter>,
    progress: Option<&Progress>,
) -> Result<RolloutOutcome, String> {
    let plan = plan_rollout(spec, policy)?;
    if let Some(p) = progress {
        p.begin_phase("devices", spec.count as u64);
        p.set_wave(0, plan.waves as u64);
    }

    let mut stats = FleetRolloutDoc {
        target_seq: policy.target_seq as u64,
        wave_size: policy.wave_size as u64,
        waves: plan.waves as u64,
        ..FleetRolloutDoc::default()
    };
    let mut first_violation = None;
    let mut agg = FleetAgg::new();
    let mut packets: Vec<(u32, Vec<Packet>)> = Vec::with_capacity(spec.count as usize);
    let mut merged = StreamStats::default();
    let mut pool_total: Option<PoolStats> = None;
    let mut aborted = false;

    for wave in 0..plan.waves {
        let first = wave * policy.wave_size;
        let last = (first + policy.wave_size).min(spec.count);
        let offered = !aborted;
        if offered {
            stats.waves_rolled_out += 1;
        }
        if let Some(p) = progress {
            p.set_wave(wave as u64 + 1, plan.waves as u64);
        }
        let items = plan_wave(spec, &plan, first, last, offered, &mut stats);

        let jobs = spec.jobs.max(1).min(items.len().max(1));
        let sink = RecordSink::create(stream.as_deref(), &format!(".wave{wave}"), jobs)?;
        // Device phase: the fleet's restore discipline, with each worker
        // caching one machine per image variant. The wave is small
        // (`wave_size` devices), so holding its `DeviceResult`s for the
        // review pass keeps memory bounded by the wave, not the fleet.
        let (wave_results, aggs, pool) = run_indexed(
            spec.jobs,
            &items,
            || ([None::<(Mcu, App)>, None], FleetAgg::new(), sink.claim()),
            |(cache, agg, shard), _, &(device, received)| {
                let variant = received as usize;
                let (mcu, app) = cache[variant].get_or_insert_with(|| {
                    let mut mcu = Mcu::new(Supply::continuous());
                    let (app, _) = ota_update::build(&mut mcu, &plan.cfgs[variant]);
                    (mcu, app)
                });
                let r = run_device(spec, mcu, app, &plan.snaps[variant], device);
                agg.observe(&r);
                sink.write(*shard, &r);
                if let Some(p) = progress {
                    p.add(1);
                }
                r
            },
            |(_, agg, _)| agg,
        );
        let wave_stream = sink.merge_into(stream.as_deref_mut())?;
        merged.records += wave_stream.records;
        merged.shards = merged.shards.max(wave_stream.shards);
        for worker in &aggs {
            agg.merge(worker);
        }
        merge_pool(&mut pool_total, pool, first as usize);

        let regressed = review_wave(
            wave,
            &items,
            &wave_results,
            &mut stats,
            &mut first_violation,
        );
        packets.extend(wave_results.into_iter().map(|r| (r.device, r.packets)));
        if offered && policy.abort_on_regression && regressed {
            aborted = true;
        }
    }
    stats.aborted = aborted;

    let gateway = reconcile_phase(&packets, spec, progress);
    Ok(RolloutOutcome {
        agg,
        gateway,
        pool: pool_total.expect("at least one wave ran"),
        stream: merged,
        stats,
        first_violation,
    })
}

/// [`run_rollout`] with its device records streamed into `out`.
pub fn run_rollout_streamed(
    spec: &ScenarioSpec,
    policy: &RolloutPolicy,
    out: &mut JsonlWriter,
    progress: Option<&Progress>,
) -> Result<StreamedRolloutOutcome, String> {
    run_rollout(spec, policy, Some(out), progress)
}

/// Folds one wave's pool record into the running total: wall-clock sums,
/// per-worker tallies sum elementwise, and item indices shift by the
/// wave's first device so they index the whole fleet.
fn merge_pool(total: &mut Option<PoolStats>, wave: PoolStats, base: usize) {
    let Some(t) = total else {
        let mut wave = wave;
        for indices in &mut wave.indices_per_worker {
            for i in indices {
                *i += base;
            }
        }
        *total = Some(wave);
        return;
    };
    t.jobs = t.jobs.max(wave.jobs);
    t.wall_us += wave.wall_us;
    let widen = |v: &mut Vec<u64>, n: usize| v.resize(v.len().max(n), 0);
    widen(&mut t.items_per_worker, wave.items_per_worker.len());
    widen(&mut t.busy_us_per_worker, wave.busy_us_per_worker.len());
    t.indices_per_worker.resize(
        t.indices_per_worker
            .len()
            .max(wave.indices_per_worker.len()),
        Vec::new(),
    );
    for (w, n) in wave.items_per_worker.iter().enumerate() {
        t.items_per_worker[w] += n;
    }
    for (w, n) in wave.busy_us_per_worker.iter().enumerate() {
        t.busy_us_per_worker[w] += n;
    }
    for (w, indices) in wave.indices_per_worker.iter().enumerate() {
        t.indices_per_worker[w].extend(indices.iter().map(|i| i + base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_exec::{AppSpec, DeviceSpec};
    use kernel::KernelKind;

    fn rollout_spec(count: u32, kernel: KernelKind) -> ScenarioSpec {
        ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("ota-update".into()),
                kernel,
                ..DeviceSpec::default()
            },
            count,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn easeio_rollout_converges_with_zero_duplicates() {
        let spec = rollout_spec(24, KernelKind::EaseIo);
        let policy = RolloutPolicy {
            wave_size: 7,
            ..RolloutPolicy::default()
        };
        let r = run_rollout(&spec, &policy, None, None).unwrap();
        let s = &r.stats;
        assert_eq!(s.waves, 4);
        assert_eq!(s.waves_rolled_out, 4);
        assert!(!s.aborted);
        assert_eq!(s.updated, 24);
        assert_eq!(s.update_failed + s.stragglers + s.stale, 0);
        assert_eq!(s.duplicate_activations, 0);
        assert_eq!(s.version_torn, 0);
        assert!(r.first_violation.is_none());
        assert_eq!(r.agg.devices(), 24);
        assert_eq!(r.stream, StreamStats::default(), "no stream, no shards");
    }

    #[test]
    fn forensics_bundle_names_the_first_violation_and_replays_the_policy() {
        let mut spec = rollout_spec(8, KernelKind::Naive);
        spec.supply = easeio_exec::SupplySpec::Rf(66);
        let policy = RolloutPolicy {
            wave_size: 4,
            abort_on_regression: false,
            ..RolloutPolicy::default()
        };
        let mut r = run_rollout(&spec, &policy, None, None).unwrap();
        assert!(
            r.forensics(&spec, &policy).is_none(),
            "no violation, no bundle"
        );
        r.first_violation = Some(RolloutViolation {
            device: 5,
            wave: 1,
            kind: RolloutViolationKind::VersionTorn,
        });
        let bundle = r.forensics(&spec, &policy).unwrap();
        let doc = bundle.to_value();
        assert_eq!(
            easeio_trace::validate_any_report(&doc),
            Ok(easeio_trace::ReportKind::Forensics)
        );
        let v = &bundle.body.violation;
        assert_eq!((v.device, v.wave), (Some(5), Some(2)));
        assert_eq!(
            bundle.body.repro_command,
            "easeio-sim fleet --rollout --devices 8 --kernel naive --seed 42 \
             --wave-size 4 --target-seq 2 --loss 0 --medium-seed 0 --supply rf \
             --distance 66 --no-abort --expect-update-violations"
        );
    }

    #[test]
    fn lossy_downlinks_leave_stragglers_on_the_factory_image() {
        let mut spec = rollout_spec(32, KernelKind::EaseIo);
        spec.medium = MediumSpec::lossy(9, 400);
        let r = run_rollout(&spec, &RolloutPolicy::default(), None, None).unwrap();
        let s = &r.stats;
        assert!(s.stragglers > 0, "40% chunk loss must strand someone");
        assert!(s.updated > 0, "retries must get someone through");
        assert_eq!(s.updated + s.update_failed + s.stragglers + s.stale, 32);
        assert!(s.downlink_chunks_lost > 0);
        assert!(s.downlink_chunks_sent > s.downlink_chunks_lost);
        // Stragglers still finish their work loop, just on version 1.
        assert!(!s.aborted, "channel loss is not a regression");
        assert_eq!(s.updated + s.stragglers, 32);
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        let spec = rollout_spec(4, KernelKind::EaseIo);
        for policy in [
            RolloutPolicy {
                wave_size: 0,
                ..RolloutPolicy::default()
            },
            RolloutPolicy {
                target_seq: 1,
                ..RolloutPolicy::default()
            },
        ] {
            assert!(run_rollout(&spec, &policy, None, None).is_err());
        }
        assert!(run_rollout(
            &rollout_spec(0, KernelKind::EaseIo),
            &RolloutPolicy::default(),
            None,
            None
        )
        .is_err());
    }

    #[test]
    fn rollout_with_stream_matches_without_across_waves() {
        let dir = std::env::temp_dir().join("easeio-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("rollout-stream-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let spec = rollout_spec(20, KernelKind::EaseIo);
        let policy = RolloutPolicy {
            wave_size: 6,
            ..RolloutPolicy::default()
        };
        let bare = run_rollout(&spec, &policy, None, None).unwrap();
        assert!(!bare.stats.aborted);
        let mut spec3 = spec.clone();
        spec3.jobs = 3;
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_rollout(&spec3, &policy, Some(&mut out), None).unwrap();
        drop(out);
        assert_eq!(streamed.gateway, bare.gateway);
        assert_eq!(streamed.stats.updated, bare.stats.updated);
        assert_eq!(streamed.stats.waves_rolled_out, bare.stats.waves_rolled_out);
        assert_eq!(streamed.first_violation, bare.first_violation);
        assert_eq!(streamed.agg.outcomes(), bare.agg.outcomes());
        assert_eq!(streamed.stream.records, 20);
        // The expected records: each device through `run_device` on the
        // image variant its downlink delivered.
        let plan = plan_rollout(&spec, &policy).unwrap();
        let mut variants: Vec<(Mcu, App)> = plan
            .cfgs
            .iter()
            .map(|cfg| {
                let mut mcu = Mcu::new(Supply::continuous());
                let (app, _) = ota_update::build(&mut mcu, cfg);
                (mcu, app)
            })
            .collect();
        let expected: String = (0..spec.count)
            .map(|device| {
                let v =
                    downlink(&spec.medium, device, plan.chunks, plan.attempts).received as usize;
                let (mcu, app) = &mut variants[v];
                run_device(&spec, mcu, app, &plan.snaps[v], device).record_line() + "\n"
            })
            .collect();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, expected, "waves concatenate in device order");
        let _ = std::fs::remove_file(&path);
    }
}
