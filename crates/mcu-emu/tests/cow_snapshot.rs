//! Property test for copy-on-write snapshot restore: against arbitrary
//! interleavings of writes, cross-region copies, power failures, and
//! allocations, a page-wise CoW restore must reproduce exactly the bytes a
//! deep copy of the image would — the invariant the parallel sweep engine's
//! byte-identical-reports guarantee rests on. A second property covers
//! slab recycling: a `Memory` created after another was dropped on the same
//! thread must be indistinguishable from a freshly allocated one.

use mcu_emu::{Addr, AllocTag, MemCheckpoint, MemSnapshot, Memory, Region, PAGE_BYTES};
use proptest::prelude::*;

/// One mutation step applied between snapshot and restore.
#[derive(Debug, Clone)]
enum Op {
    Write {
        region: Region,
        offset: u32,
        bytes: Vec<u8>,
    },
    Copy {
        src: u32,
        dst: u32,
        len: u32,
    },
    PowerFailure,
    Alloc {
        region: Region,
        bytes: u32,
    },
}

fn region_strategy() -> impl Strategy<Value = Region> {
    prop_oneof![Just(Region::Fram), Just(Region::Sram), Just(Region::LeaRam),]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            region_strategy(),
            0u32..4096,
            proptest::collection::vec(any::<u8>(), 1..64)
        )
            .prop_map(|(region, offset, bytes)| Op::Write {
                region,
                offset,
                bytes,
            }),
        // FRAM-internal copies ranging across the whole 256 KB, so writes
        // land in high pages too (offsets are clamped in `apply`).
        (0u32..260_000, 0u32..260_000, 1u32..512).prop_map(|(src, dst, len)| Op::Copy {
            src,
            dst,
            len
        }),
        Just(Op::PowerFailure),
        (region_strategy(), 1u32..128).prop_map(|(region, bytes)| Op::Alloc { region, bytes }),
    ]
}

fn apply(mem: &mut Memory, op: &Op) {
    match op {
        Op::Write {
            region,
            offset,
            bytes,
        } => {
            let max = region.size() as u32 - bytes.len() as u32;
            mem.write_bytes(Addr::new(*region, (*offset).min(max)), bytes);
        }
        Op::Copy { src, dst, len } => {
            let max = Region::Fram.size() as u32 - len;
            mem.copy(
                Addr::new(Region::Fram, (*src).min(max)),
                Addr::new(Region::Fram, (*dst).min(max)),
                *len,
            );
        }
        Op::PowerFailure => mem.power_failure(),
        Op::Alloc { region, bytes } => {
            // Keep well under the volatile regions' 4 KB so a long op list
            // cannot exhaust them.
            if mem.allocated(*region) + bytes + 2 < 3 * 1024 {
                mem.alloc(*region, *bytes, AllocTag::Runtime);
            }
        }
    }
}

fn image(mem: &Memory) -> Vec<u8> {
    let mut out = Vec::new();
    for region in [Region::Fram, Region::Sram, Region::LeaRam] {
        out.extend_from_slice(mem.read_bytes(Addr::new(region, 0), region.size() as u32));
        out.push(mem.allocated(region) as u8);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CoW restore == deep-copy baseline, for random write sets.
    #[test]
    fn cow_restore_equals_deep_copy_baseline(
        pre in proptest::collection::vec(op_strategy(), 0..8),
        post in proptest::collection::vec(op_strategy(), 0..24),
    ) {
        let mut mem = Memory::new();
        for op in &pre {
            apply(&mut mem, op);
        }
        let snap = mem.snapshot();
        let baseline = image(&mem); // deep copy of the snapshotted state
        for op in &post {
            apply(&mut mem, op);
        }
        mem.restore(&snap);
        prop_assert_eq!(image(&mem), baseline);

        // A second divergence/restore cycle against the same snapshot must
        // also round-trip (the sweep restores hundreds of times).
        for op in post.iter().rev() {
            apply(&mut mem, op);
        }
        mem.restore(&snap);
        prop_assert_eq!(image(&mem), baseline);
    }

    /// A fresh Memory adopting a foreign snapshot (the parallel-worker
    /// pattern) converges to the same bytes as the originating instance.
    #[test]
    fn foreign_adoption_matches_origin(
        pre in proptest::collection::vec(op_strategy(), 0..8),
        post in proptest::collection::vec(op_strategy(), 0..16),
    ) {
        let mut origin = Memory::new();
        for op in &pre {
            apply(&mut origin, op);
        }
        let snap = origin.snapshot();
        let baseline = image(&origin);

        let mut worker = Memory::new();
        for op in &post {
            apply(&mut worker, op); // worker state diverges arbitrarily
        }
        worker.restore(&snap); // full-copy adoption
        prop_assert_eq!(image(&worker), baseline.clone());
        for op in &post {
            apply(&mut worker, op);
        }
        worker.restore(&snap); // page-wise from here on
        prop_assert_eq!(image(&worker), baseline);
    }
}

/// One step of a recycling scenario: every path that writes a slab.
#[derive(Debug, Clone)]
enum Step {
    Alloc {
        region: Region,
        bytes: u32,
    },
    /// A write of `len` bytes at `offset` (clamped into the region), or
    /// ending at the region's last byte when `at_end`.
    Write {
        region: Region,
        offset: u32,
        len: u32,
        fill: u8,
        at_end: bool,
    },
    PowerFailure,
    Snapshot,
    RestoreOwn,
    RestoreForeign,
    Checkpoint,
    RestoreCheckpoint,
    /// Restores a checkpoint taken on another memory that adopted this
    /// one's snapshot and wrote one FRAM byte: pages this memory never
    /// wrote arrive from outside.
    RestoreOthersCheckpoint {
        offset: u32,
        fill: u8,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (region_strategy(), 1u32..128).prop_map(|(region, bytes)| Step::Alloc { region, bytes }),
        // Spans up to 2.5 pages, so writes cross page boundaries.
        (
            region_strategy(),
            0u32..Region::Fram.size() as u32,
            1u32..10_000,
            1u8..=255,
            0u8..4,
        )
            .prop_map(|(region, offset, len, fill, end)| Step::Write {
                region,
                offset,
                len,
                fill,
                at_end: end == 0,
            }),
        Just(Step::PowerFailure),
        Just(Step::Snapshot),
        Just(Step::RestoreOwn),
        Just(Step::RestoreForeign),
        Just(Step::Checkpoint),
        Just(Step::RestoreCheckpoint),
        (0u32..Region::Fram.size() as u32, 1u8..=255)
            .prop_map(|(offset, fill)| Step::RestoreOthersCheckpoint { offset, fill }),
    ]
}

/// Which snapshot a memory's dirty map, or a checkpoint, is relative to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Base {
    Own,
    Foreign,
}

/// Drives `mem` through `steps`, keeping the snapshots and checkpoint the
/// later steps need.
fn drive(mem: &mut Memory, steps: &[Step], foreign: &MemSnapshot) {
    let mut own: Option<MemSnapshot> = None;
    let mut based: Option<Base> = None;
    let mut ck: Option<(Base, MemCheckpoint)> = None;
    for step in steps {
        match step {
            Step::Alloc { region, bytes } => {
                if mem.allocated(*region) + bytes + 2 < 3 * 1024 {
                    mem.alloc(*region, *bytes, AllocTag::App);
                }
            }
            Step::Write {
                region,
                offset,
                len,
                fill,
                at_end,
            } => {
                let size = region.size() as u32;
                let len = (*len).min(size);
                let offset = if *at_end {
                    size - len
                } else {
                    (*offset).min(size - len)
                };
                mem.write_bytes(Addr::new(*region, offset), &vec![*fill; len as usize]);
            }
            Step::PowerFailure => mem.power_failure(),
            Step::Snapshot => {
                own = Some(mem.snapshot());
                based = Some(Base::Own);
                ck = ck.filter(|(b, _)| *b == Base::Foreign);
            }
            Step::RestoreOwn => {
                if let Some(snap) = &own {
                    mem.restore(snap);
                    based = Some(Base::Own);
                }
            }
            Step::RestoreForeign => {
                mem.restore(foreign);
                based = Some(Base::Foreign);
            }
            Step::Checkpoint => {
                let base = match based {
                    Some(Base::Own) => own.as_ref(),
                    Some(Base::Foreign) => Some(foreign),
                    None => None,
                };
                if let (Some(b), Some(snap)) = (based, base) {
                    let prev = ck.as_ref().filter(|(p, _)| *p == b).map(|(_, c)| c);
                    ck = Some((b, mem.checkpoint(snap, prev)));
                }
            }
            Step::RestoreCheckpoint => {
                if let Some((b, c)) = &ck {
                    let snap = match b {
                        Base::Own => own.as_ref().expect("own checkpoints need own"),
                        Base::Foreign => foreign,
                    };
                    mem.restore_checkpoint(snap, c);
                    based = Some(*b);
                }
            }
            Step::RestoreOthersCheckpoint { offset, fill } => {
                if let Some(snap) = &own {
                    let mut other = Memory::new();
                    other.restore(snap);
                    other.write_bytes(Addr::new(Region::Fram, *offset), &[*fill]);
                    mem.restore_checkpoint(snap, &other.checkpoint(snap, None));
                    based = Some(Base::Own);
                }
            }
        }
    }
}

/// Fails on the first nonzero byte, or a nonzero cursor, allocation record
/// or dirty page, of a memory that should be brand new.
fn assert_pristine(mem: &Memory, what: &str) -> Result<(), TestCaseError> {
    for region in [Region::Fram, Region::Sram, Region::LeaRam] {
        let bytes = mem.read_bytes(Addr::new(region, 0), region.size() as u32);
        let first = bytes.iter().position(|&b| b != 0);
        prop_assert!(
            first.is_none(),
            "{}: {:?} byte {:?} is nonzero",
            what,
            region,
            first
        );
        prop_assert_eq!(mem.allocated(region), 0);
        prop_assert_eq!(mem.dirty_pages(region), 0);
    }
    prop_assert!(mem.allocations().is_empty(), "{}: allocation records", what);
    Ok(())
}

/// A donor image with every page of every region nonzero.
fn foreign_snapshot() -> MemSnapshot {
    let mut donor = Memory::new();
    for region in [Region::Fram, Region::Sram, Region::LeaRam] {
        donor.alloc(region, 64, AllocTag::Runtime);
        let size = region.size() as u32;
        for page in 0..size.div_ceil(PAGE_BYTES) {
            let at = (page * PAGE_BYTES + 7).min(size - 1);
            donor.write_bytes(Addr::new(region, at), &[0xA5]);
        }
    }
    donor.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a dropped memory went through, the next `Memory::new` on
    /// the same thread (which recycles its slabs) reads all-zero with empty
    /// allocators and a clean dirty map, and so does a second one made
    /// while the first is alive (no spare left: a cold allocation).
    #[test]
    fn recycled_memory_is_indistinguishable_from_fresh(
        steps in proptest::collection::vec(step_strategy(), 0..24),
    ) {
        let foreign = foreign_snapshot();
        let mut mem = Memory::new();
        drive(&mut mem, &steps, &foreign);
        drop(mem);
        let recycled = Memory::new();
        assert_pristine(&recycled, "recycled")?;
        let cold = Memory::new();
        assert_pristine(&cold, "cold")?;
    }
}
