//! A deterministic scoped worker pool.
//!
//! [`run_indexed`] fans a slice of work items across `jobs` OS threads and
//! returns the results **in item order**, no matter how the scheduler
//! interleaved the workers. Determinism comes from two properties:
//!
//! 1. every result is keyed by the index of the item that produced it, and
//!    the merge step places results by that key — thread arrival order
//!    never touches the output; and
//! 2. the per-item function receives only the item and worker-local state
//!    created by `init`, so (given a deterministic `f`) a result depends on
//!    the item alone, not on which worker ran it or what it ran before.
//!
//! Property 2 is the caller's obligation; the crash sweep satisfies it by
//! restoring every run from one shared machine snapshot (see
//! `crashcheck::run_from`). Under those two properties the pool's output at
//! `jobs = N` is byte-identical to the serial loop at `jobs = 1`.
//!
//! The pool is built on `std::thread::scope` — no extra dependencies, and
//! worker closures may borrow from the caller's stack. Work is pulled from
//! a single atomic cursor, so an expensive item does not stall the items
//! behind it: whichever worker frees up first takes the next index.

use easeio_trace::{Event, EventKind, SpanKind, Status, NO_SITE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What one pool invocation did, per worker — the utilization record the
/// bench report and the engine-level trace span are built from.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Worker threads the pool actually ran (1 for the serial path).
    pub jobs: usize,
    /// Items completed by each worker, indexed by worker id.
    pub items_per_worker: Vec<u64>,
    /// Exactly which item indices each worker processed, indexed by worker
    /// id — the utilization breakdown for the bench report.
    pub indices_per_worker: Vec<Vec<usize>>,
    /// Busy time of each worker in host-clock µs (first item start to last
    /// item end), indexed by worker id.
    pub busy_us_per_worker: Vec<u64>,
    /// Host wall-clock µs for the whole invocation, including the merge.
    pub wall_us: u64,
}

impl PoolStats {
    /// One [`SpanKind::Worker`] begin/end pair per worker, on the host
    /// wall-clock timebase, for appending to a trace document. `task`
    /// carries the worker index.
    pub fn worker_spans(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.busy_us_per_worker.len() * 2);
        for (w, &busy) in self.busy_us_per_worker.iter().enumerate() {
            let begin = Event {
                ts_us: 0,
                energy_nj: 0,
                task: w as u16,
                site: NO_SITE,
                name: "worker",
                kind: EventKind::SpanBegin(SpanKind::Worker),
            };
            let end = Event {
                ts_us: busy,
                kind: EventKind::SpanEnd(SpanKind::Worker, Status::Committed),
                ..begin
            };
            events.push(begin);
            events.push(end);
        }
        events
    }
}

/// One worker's parallel-path yield: its `(index, result)` pairs, its
/// finished state summary, and its busy µs.
type WorkerYield<R, U> = (Vec<(usize, R)>, U, u64);

/// Runs `f` over every item of `items` using up to `jobs` worker threads
/// and returns `(results, summaries, stats)` with
/// `results[i] = f(state, i, &items[i])` — always in item order.
///
/// `init` builds each worker's private state once, before it takes its
/// first item; the serial sweep's per-sweep setup (machine, app) maps onto
/// it directly. `jobs` is clamped to `1..=items.len()`; `jobs <= 1` runs
/// the plain serial loop on the calling thread with no pool machinery at
/// all, which keeps `--jobs 1` a true baseline.
///
/// `finish` reduces each worker's final private state (still on the
/// worker's own thread) to a summary; the summaries come back in
/// worker-id order. The fleet engines use it to fold each worker's devices
/// into a bounded per-worker aggregate (counts, sums, sketches) that the
/// caller merges afterwards. When every fold operation is commutative and
/// associative — sums, bucket counts, max — the merged aggregate is
/// independent of how the scheduler sliced the items, which preserves the
/// byte-identity guarantee with O(workers) memory. Callers with nothing
/// to summarize pass `|_| ()`.
///
/// `finish` runs before the worker thread joins, so the state itself never
/// crosses threads — only the `U` summary must be `Send`. That lets states
/// carry thread-bound machinery (a cached `Mcu`/`App` pair) alongside the
/// aggregate that outlives the pool.
pub fn run_indexed<T, R, S, U, I, F, G>(
    jobs: usize,
    items: &[T],
    init: I,
    f: F,
    finish: G,
) -> (Vec<R>, Vec<U>, PoolStats)
where
    T: Sync,
    R: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    G: Fn(S) -> U + Sync,
{
    let started = Instant::now();
    let jobs = jobs.max(1).min(items.len().max(1));

    if jobs == 1 {
        let mut state = init();
        let worker_started = Instant::now();
        let results: Vec<R> = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        let busy = worker_started.elapsed().as_micros() as u64;
        let stats = PoolStats {
            jobs: 1,
            items_per_worker: vec![items.len() as u64],
            indices_per_worker: vec![(0..items.len()).collect()],
            busy_us_per_worker: vec![busy],
            wall_us: started.elapsed().as_micros() as u64,
        };
        return (results, vec![finish(state)], stats);
    }

    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<WorkerYield<R, U>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            handles.push(scope.spawn(|| {
                let mut state = init();
                let worker_started = Instant::now();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&mut state, i, &items[i])));
                }
                (
                    local,
                    finish(state),
                    worker_started.elapsed().as_micros() as u64,
                )
            }));
        }
        for h in handles {
            // A worker can only panic if `f` or `init` did; propagate.
            per_worker.push(h.join().expect("pool worker panicked"));
        }
    });

    // Merge by item index: canonical order regardless of thread timing.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut items_per_worker = Vec::with_capacity(jobs);
    let mut indices_per_worker = Vec::with_capacity(jobs);
    let mut busy_us_per_worker = Vec::with_capacity(jobs);
    let mut states = Vec::with_capacity(jobs);
    for (local, state, busy) in per_worker {
        items_per_worker.push(local.len() as u64);
        indices_per_worker.push(local.iter().map(|(i, _)| *i).collect());
        busy_us_per_worker.push(busy);
        states.push(state);
        for (i, r) in local {
            debug_assert!(slots[i].is_none(), "item {i} produced twice");
            slots[i] = Some(r);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every item must produce exactly one result"))
        .collect();
    let stats = PoolStats {
        jobs,
        items_per_worker,
        indices_per_worker,
        busy_us_per_worker,
        wall_us: started.elapsed().as_micros() as u64,
    };
    (results, states, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial = run_indexed(1, &items, || (), |_, i, x| (i as u64) * 1000 + x, |_| ()).0;
        for jobs in [2, 3, 8] {
            let parallel =
                run_indexed(jobs, &items, || (), |_, i, x| (i as u64) * 1000 + x, |_| ()).0;
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn worker_state_is_initialized_per_worker() {
        let items = vec![(); 64];
        let (results, _, stats) = run_indexed(
            4,
            &items,
            || 0u64,
            |count, _, _| {
                *count += 1;
                *count
            },
            |_| (),
        );
        assert_eq!(results.len(), 64);
        // Each worker's private counter starts at zero, so walking the item
        // indices a worker processed in order must read exactly 1..=n for
        // that worker's n items. Shared or recycled state would break the
        // sequence; a worker that inherited another's counter would start
        // above 1.
        let mut attributed = 0u64;
        for w in 0..stats.jobs {
            let indices = &stats.indices_per_worker[w];
            assert_eq!(indices.len() as u64, stats.items_per_worker[w]);
            for (k, &i) in indices.iter().enumerate() {
                assert_eq!(results[i], k as u64 + 1, "worker {w}, item {i}");
            }
            attributed += stats.items_per_worker[w];
        }
        assert_eq!(
            attributed, 64,
            "every item attributed to exactly one worker"
        );
    }

    #[test]
    fn empty_and_single_item_inputs_degrade_cleanly() {
        let none: Vec<u32> = vec![];
        let (r, _, stats) = run_indexed(8, &none, || (), |_, _, x| *x, |_| ());
        assert!(r.is_empty());
        assert_eq!(stats.jobs, 1);
        let one = vec![9u32];
        let (r, _, _) = run_indexed(8, &one, || (), |_, _, x| *x * 2, |_| ());
        assert_eq!(r, vec![18]);
    }

    #[test]
    fn collected_states_cover_every_item_once() {
        // Each worker's finished summary is its private item-count; the
        // summaries must line up with the stats attribution and sum to the
        // total regardless of width.
        for jobs in [1, 2, 4, 8] {
            let items = vec![(); 37];
            let (results, states, stats) = run_indexed(
                jobs,
                &items,
                || 0u64,
                |count, _, _| {
                    *count += 1;
                },
                |count| count,
            );
            assert_eq!(results.len(), 37);
            assert_eq!(states.len(), stats.jobs, "one summary per worker");
            assert_eq!(states, stats.items_per_worker, "jobs = {jobs}");
            assert_eq!(states.iter().sum::<u64>(), 37, "jobs = {jobs}");
        }
    }

    #[test]
    fn worker_spans_pair_up() {
        let (_, _, stats) = run_indexed(3, &[1, 2, 3, 4, 5], || (), |_, _, x| *x, |_| ());
        let spans = stats.worker_spans();
        assert_eq!(spans.len(), stats.jobs * 2);
        assert!(spans.iter().all(|e| matches!(
            e.kind,
            EventKind::SpanBegin(SpanKind::Worker) | EventKind::SpanEnd(SpanKind::Worker, _)
        )));
    }
}
