//! Criterion micro-benchmarks: host-side cost of the simulator and of the
//! EaseIO runtime primitives (these measure the *reproduction's* speed, not
//! the simulated MCU — the simulated costs are exact by construction).
//!
//! `BENCH_micro.json` at the repository root is this bench's output:
//!
//! ```sh
//! cargo bench -p easeio-bench --bench micro -- --json-out "$PWD/BENCH_micro.json"
//! ```
//!
//! The figures are wall-clock on one host (its CPU count is recorded), so
//! they are kept for comparison and never gated.

use apps::dma_app::{self, DmaAppCfg};
use apps::harness::{run_once, run_traced, RuntimeKind};
use apps::weather::{self, WeatherCfg};
use criterion::{criterion_group, criterion_main, Criterion};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.bench_function("dma_app_easeio_intermittent", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
            let r = run_once(
                &builder,
                RuntimeKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), black_box(42)),
                42,
            );
            black_box(r.stats.power_failures)
        })
    });
    g.bench_function("weather_alpaca_intermittent", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| weather::build(mcu, &WeatherCfg::default());
            let r = run_once(
                &builder,
                RuntimeKind::Alpaca,
                Supply::timer(TimerResetConfig::default(), black_box(7)),
                7,
            );
            black_box(r.stats.total_time_us())
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    use easeio_core::flags::IoSlotTable;
    use kernel::TaskId;

    let mut g = c.benchmark_group("primitives");
    g.bench_function("flag_check_and_restore", |b| {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut table = IoSlotTable::new();
        let slot = table.ensure(&mut mcu, TaskId(0), 0);
        table
            .record_completion(&mut mcu, TaskId(0), 0, slot, 99, true, None)
            .unwrap();
        b.iter(|| {
            let locked = table.lock_is_set(&mut mcu, slot).unwrap();
            let v = table.restore_out(&mut mcu, slot).unwrap();
            black_box((locked, v))
        })
    });
    g.bench_function("regional_snapshot_first_touch", |b| {
        use easeio_core::regional::Regional;
        use mcu_emu::{NvVar, Region};
        let mut mcu = Mcu::new(Supply::continuous());
        let v: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
        let mut regional = Regional::new();
        b.iter(|| {
            // Clearing after each snapshot forces the first-touch path while
            // reusing the persistent slot (no allocator growth).
            regional
                .snap_before_access(&mut mcu, TaskId(0), 0, v.raw())
                .unwrap();
            regional.clear_task(TaskId(0));
            black_box(regional.slot_count())
        })
    });
    g.bench_function("memory_dma_copy_1kb", |b| {
        use mcu_emu::{AllocTag, Region};
        let mut mcu = Mcu::new(Supply::continuous());
        let src = mcu.mem.alloc(Region::Fram, 1024, AllocTag::App);
        let dst = mcu.mem.alloc(Region::Fram, 1024, AllocTag::App);
        b.iter(|| {
            periph::dma::transfer(&mut mcu.mem, src, dst, 1024);
            black_box(mcu.mem.read_bytes(dst, 4)[0])
        })
    });
    g.finish();
}

/// Host cost of the LEA kernels, the largest per-call cost of a crash
/// sweep: `fir-long`'s 512-output × 512-tap chunk filter, which fills
/// LEA-RAM, and the weather DNN's first 12×12 ⊛ 4×4 convolution.
fn bench_lea(c: &mut Criterion) {
    use apps::dnn::{C1, IMG, K};
    use mcu_emu::{Addr, AllocTag, Memory, Region};

    fn staged(mem: &mut Memory, words: u32) -> Addr {
        let a = mem.alloc(Region::LeaRam, words * 2, AllocTag::App);
        let bytes: Vec<u8> = (0..words)
            .flat_map(|i| (((i * 37) % 251) as i16 - 125).to_le_bytes())
            .collect();
        mem.write_bytes(a, &bytes);
        a
    }

    let mut g = c.benchmark_group("lea");
    g.bench_function("fir_512x512", |b| {
        let mut mem = Memory::new();
        let x = staged(&mut mem, 512 + 512 - 1);
        let h = staged(&mut mem, 512);
        let y = staged(&mut mem, 512);
        b.iter(|| black_box(periph::lea::fir(&mut mem, x, h, y, 512, black_box(512))))
    });
    g.bench_function("conv2d_weather_12x12_k4", |b| {
        let mut mem = Memory::new();
        let input = staged(&mut mem, IMG * IMG);
        let kernel = staged(&mut mem, K * K);
        let out = staged(&mut mem, C1 * C1);
        b.iter(|| {
            black_box(periph::lea::conv2d(
                &mut mem,
                input,
                IMG,
                IMG,
                kernel,
                K,
                black_box(K),
                out,
            ))
        })
    });
    g.finish();
}

/// Host cost of a fresh simulated device and of the emulator's hot calls:
/// `Mcu::new` plus drop (after the first iteration the new machine reuses
/// the dropped one's zeroed slabs), one `spend` pushed through the supply
/// in three slices, and a copy-on-write restore after two FRAM pages and
/// SRAM were written.
fn bench_mcu(c: &mut Criterion) {
    use mcu_emu::{Addr, Cost, Region, WorkKind, PAGE_BYTES};

    let mut g = c.benchmark_group("mcu");
    g.bench_function("new_drop", |b| b.iter(|| Mcu::new(Supply::continuous())));
    g.bench_function("spend_3_slices", |b| {
        let mut mcu = Mcu::new(Supply::continuous());
        b.iter(|| black_box(mcu.spend(WorkKind::App, black_box(Cost::new(2_500, 5_000)))))
    });
    g.bench_function("restore_cow_3_pages", |b| {
        let mut mcu = Mcu::new(Supply::continuous());
        let snap = mcu.snapshot();
        b.iter(|| {
            mcu.mem.write_bytes(Addr::new(Region::Fram, 0), &[1; 64]);
            mcu.mem
                .write_bytes(Addr::new(Region::Fram, 40 * PAGE_BYTES), &[2; 64]);
            mcu.mem.write_bytes(Addr::new(Region::Sram, 0), &[3; 64]);
            mcu.restore(&snap);
        })
    });
    g.finish();
}

/// Whole-buffer setup and verification codecs over the dma app's
/// 6 144-element `i16` buffer.
fn bench_nvbuf(c: &mut Criterion) {
    use mcu_emu::{Memory, NvBuf, Region};

    let mut mem = Memory::new();
    let buf: NvBuf<i16> = NvBuf::alloc(&mut mem, Region::Fram, 6144);
    let data: Vec<i16> = (0..6144).map(|i| (i * 37 % 251 - 125) as i16).collect();
    let mut g = c.benchmark_group("nvbuf");
    g.bench_function("fill_from_6144_i16", |b| {
        b.iter(|| buf.fill_from(&mut mem, black_box(&data)))
    });
    g.bench_function("to_vec_6144_i16", |b| b.iter(|| buf.to_vec(&mem)));
    g.finish();
}

/// Building each paper app on a fresh machine, `Mcu::new` included: the
/// per-run setup cost of the paper's 1000-runs-per-cell evaluation.
fn bench_apps(c: &mut Criterion) {
    use apps::fir::{self, FirCfg};
    use apps::lea_app::{self, LeaAppCfg};
    use kernel::App;

    fn build(f: impl Fn(&mut Mcu) -> App) -> usize {
        let mut mcu = Mcu::new(Supply::continuous());
        f(&mut mcu).tasks.len()
    }

    let mut g = c.benchmark_group("apps");
    g.bench_function("build_dma", |b| {
        b.iter(|| build(|m| dma_app::build(m, &DmaAppCfg::default())))
    });
    g.bench_function("build_lea", |b| {
        b.iter(|| build(|m| lea_app::build(m, &LeaAppCfg::default())))
    });
    g.bench_function("build_fir", |b| {
        b.iter(|| build(|m| fir::build(m, &FirCfg::default())))
    });
    g.bench_function("build_weather", |b| {
        b.iter(|| build(|m| weather::build(m, &WeatherCfg::default())))
    });
    g.finish();
}

/// The two halves of a fleet run's host cost, with perfbench
/// `fleet-radio`'s settings (timer supply, 50‰ uplink loss, 50‰ peripheral
/// faults with 8 retries, seed 7): one `flaky-radio` device restored from
/// its template and run under EaseIO (device ids cycle, so the mean is
/// over many fault schedules), and the gateway's reconcile of 8k devices ×
/// 8 packets whose air windows all overlap in one chain, as in that fleet.
fn bench_fleet(c: &mut Criterion) {
    use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
    use kernel::{FaultSpec, KernelKind};
    use periph::{MediumSpec, Packet};

    let mut fault = FaultSpec::with_rate(7, 50);
    fault.retry.max_retries = 8;
    let spec = ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("flaky-radio".into()),
            kernel: KernelKind::EaseIo,
            fault,
        },
        count: 50_000,
        supply: SupplySpec::Timer,
        medium: MediumSpec::lossy(7, 50),
        seed: 7,
        ..ScenarioSpec::default()
    };
    let mut mcu = Mcu::new(Supply::continuous());
    let app = spec.build_app(&mut mcu).expect("flaky-radio builds");
    let snap = mcu.snapshot();
    let logs: Vec<(u32, Vec<Packet>)> = (0..8_000u32)
        .map(|d| {
            let packets = (0..8u64)
                .map(|k| Packet {
                    time_us: 2_000 * k + (d as u64 * 7_919) % 4_000,
                    payload: vec![k as i32, d as i32],
                })
                .collect();
            (d, packets)
        })
        .collect();

    let mut g = c.benchmark_group("fleet");
    let mut device = 0;
    g.bench_function("flaky_radio_device", |b| {
        b.iter(|| {
            device = (device + 1) % spec.count;
            let r = easeio_fleet::run_device(&spec, &mut mcu, &app, &snap, device);
            black_box(r.packets.len())
        })
    });
    g.bench_function("reconcile_logs_8k", |b| {
        b.iter(|| {
            let pairs = logs.iter().map(|(d, p)| (*d, p.as_slice()));
            black_box(easeio_fleet::reconcile_logs(pairs, &spec.medium))
        })
    });
    g.finish();
}

/// The tentpole's "effectively free when off" claim: a run with the default
/// disabled [`easeio_trace::TraceSink`] must cost within noise (≤1%) of the
/// pre-recorder simulator, because the fast path is one `Option` check and
/// the event closures are never evaluated. Compare `recorder/dma_untraced`
/// against `recorder/dma_traced` to see the enabled cost, and the two
/// `emit_*` benches for the per-call price.
fn bench_recorder(c: &mut Criterion) {
    use easeio_trace::{Event, InstantKind, TraceSink};

    let mut g = c.benchmark_group("recorder");
    g.bench_function("dma_untraced", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
            let r = run_once(
                &builder,
                RuntimeKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), black_box(42)),
                42,
            );
            black_box(r.stats.power_failures)
        })
    });
    g.bench_function("dma_traced", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
            let r = run_traced(
                &builder,
                RuntimeKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), black_box(42)),
                42,
            );
            black_box(r.events.len())
        })
    });
    g.bench_function("emit_disabled", |b| {
        let mut sink = TraceSink::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            sink.emit_with(|| Event::instant(black_box(n), n, InstantKind::Boot, "boot"));
            black_box(&sink);
        })
    });
    g.bench_function("emit_enabled", |b| {
        let mut sink = TraceSink::enabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            sink.emit_with(|| Event::instant(black_box(n), n, InstantKind::Boot, "boot"));
            black_box(&sink);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_primitives,
    bench_mcu,
    bench_nvbuf,
    bench_apps,
    bench_lea,
    bench_fleet,
    bench_recorder
);
criterion_main!(benches);
