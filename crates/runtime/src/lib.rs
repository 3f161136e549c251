//! Parallel per-module execution runtime for the Moctopus engines.
//!
//! The paper's speedups come from hundreds of PIM modules working
//! concurrently, yet a simulator is free to walk every module's work on one
//! host thread — correct, but the wall-clock of a `summary --scale 1` run is
//! then bounded by a single core while the *simulated* numbers describe a
//! massively parallel machine. This crate closes that gap: a dependency-free
//! worker pool with a persistent crew ([`WorkerPool`]) executes per-module
//! work in parallel while the simulated cost model stays **byte-identical**
//! at any thread count.
//!
//! The crate's second primitive extends the same philosophy from *execution*
//! to *arrival*: [`SequencedQueue`] merges request streams from many
//! concurrent producer threads into one deterministic total order keyed by
//! logical timestamps, so a serving layer (the `moctopus-server` crate) can
//! accept racing clients and still produce byte-identical runs (see
//! [`sequence`]).
//!
//! # The determinism contract
//!
//! Callers (the hop loops in `moctopus::distributed`, the matrix chains in
//! `moctopus::HostBaseline`) keep same-seed output byte-identical by obeying
//! three rules; CONCURRENCY.md §4 carries the argument:
//!
//! 1. **Disjoint ownership** — each worker owns a contiguous slice of PIM
//!    modules plus, for worker 0, the host lane, accumulates only into the
//!    slots it owns, and visits the work feeding each slot in the sequential
//!    loop's order, so every float accumulator sees the sequential additions.
//! 2. **Private scratch** — marks, buffers and per-worker accumulators are
//!    handed in through [`WorkerPool::run_with`]'s contexts; nothing is
//!    shared mutably during a parallel region.
//! 3. **Id-ordered reduction** — worker outputs come back in worker-id order
//!    and are reduced on the calling thread; the slots a worker does not own
//!    hold exact zeros, so the sums equal the sequential ones bit for bit.
//!
//! # Examples
//!
//! ```
//! use moctopus_runtime::{chunk_ranges, WorkerPool};
//!
//! // Sum disjoint slices of a vector on 4 workers, merging in worker order.
//! let data: Vec<u64> = (0..1000).collect();
//! let pool = WorkerPool::new(4);
//! let ranges = chunk_ranges(data.len(), pool.threads());
//! let mut ctxs: Vec<u64> = vec![0; ranges.len()];
//! pool.run_with(&mut ctxs, |w, acc| {
//!     *acc = data[ranges[w].clone()].iter().sum();
//! });
//! assert_eq!(ctxs.iter().sum::<u64>(), 499_500);
//! ```
#![deny(unsafe_op_in_unsafe_fn)]

pub mod sequence;

pub use sequence::{Admission, ProducerId, SequenceError, SequencedQueue};

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

/// A worker pool with a fixed thread count and a persistent worker crew.
///
/// A pool of `threads` owns `threads - 1` OS threads — its *crew* — started
/// by the first region that needs them and joined when the pool is dropped;
/// worker 0 of every region is the calling thread. Between regions a crew
/// worker polls its task channel a bounded number of times and then blocks
/// on it, so back-to-back regions (the hops of one query batch) are handed
/// over in about a microsecond while an idle engine burns no CPU. Borrowed
/// data flows into workers without `'static` bounds: a region does not
/// return — or unwind — before every worker is done with the closure it was
/// lent. With one thread (or one context) no thread ever exists and the
/// closure runs inline — the sequential path *is* the parallel path. A clone
/// has the same width and a crew of its own; pools are equal when their
/// widths are.
///
/// # Examples
///
/// ```
/// use moctopus_runtime::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut partials = vec![0u32; 2];
/// let results = pool.run_with(&mut partials, |worker, p| {
///     *p = worker as u32 + 1;
///     worker
/// });
/// assert_eq!(results, vec![0, 1]); // outputs are in worker-id order
/// assert_eq!(partials, vec![1, 2]);
/// ```
pub struct WorkerPool {
    threads: usize,
    crew: OnceLock<Crew>,
}

impl WorkerPool {
    /// Creates a pool that runs parallel regions on `threads` workers.
    ///
    /// `threads == 0` means "use [`WorkerPool::available_parallelism`]", so
    /// callers can expose a `--threads` flag whose default follows the
    /// machine. Any other value is taken literally (it may exceed the core
    /// count; the OS then time-slices, and the crew parks between regions
    /// instead of spinning).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { Self::available_parallelism() } else { threads };
        WorkerPool { threads, crew: OnceLock::new() }
    }

    /// The number of hardware threads the current process can use, with a
    /// floor of 1 (mirrors `std::thread::available_parallelism`, which errors
    /// on exotic platforms instead of guessing).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    }

    /// The worker count parallel regions of this pool are planned for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(worker_id, &mut ctxs[worker_id])` for every context, in
    /// parallel, and returns the closure outputs **in worker-id order**.
    ///
    /// The context slice defines how many workers run: callers size it to
    /// `min(self.threads(), useful_parallelism)`. Worker 0 executes on the
    /// calling thread, workers `1..` on the crew; the call returns once all
    /// are done, so `f` may borrow non-`'static` data freely. With zero
    /// contexts nothing runs; with one — or on a one-thread pool — `f` is
    /// called inline and no thread exists. The pool never uses more than
    /// [`WorkerPool::threads`] threads: surplus contexts are dealt round-robin
    /// to the workers there are, and a region entered while the crew is busy
    /// (a nested or concurrent call on the same pool) runs on its caller.
    ///
    /// Each worker gets exclusive `&mut` access to its own context — this is
    /// where callers hand every worker its private scratch (rule 2 of the
    /// determinism contract) — while `f` itself only needs `&self`-style
    /// shared captures.
    ///
    /// # Panics
    ///
    /// If workers panic — worker 0 included — the panic of the lowest worker
    /// id is resumed on the calling thread, with its payload, once every
    /// other worker has finished (nothing borrowed is in use by then).
    pub fn run_with<C, T, F>(&self, ctxs: &mut [C], f: F) -> Vec<T>
    where
        C: Send,
        T: Send,
        F: Fn(usize, &mut C) -> T + Sync,
    {
        let width = self.threads.min(ctxs.len());
        let crew = (width > 1).then(|| self.crew.get_or_init(|| Crew::start(self.threads)));
        // A region that finds the crew taken (a nested or concurrent call)
        // runs on its caller, like a one-thread region.
        let claimed = crew.and_then(|crew| Some((crew, crew.done.try_lock().ok()?)));
        let Some((crew, done)) = claimed else {
            return ctxs.iter_mut().enumerate().map(|(worker, ctx)| f(worker, ctx)).collect();
        };
        // One slot per context: its worker takes the `&mut C` through the
        // (never contended) lock and leaves the outcome there, panics included.
        let slots: Vec<_> =
            ctxs.iter_mut().map(|ctx| Mutex::new((ctx, None::<thread::Result<T>>))).collect();
        crew.run(&done, width, &|member: usize| {
            for worker in (member..slots.len()).step_by(width) {
                let mut slot = slots[worker].lock().unwrap_or_else(PoisonError::into_inner);
                let (ctx, outcome) = &mut *slot;
                *outcome = Some(catch_unwind(AssertUnwindSafe(|| f(worker, ctx))));
            }
        });
        // Released before a panic is re-raised, so the lock is never poisoned.
        drop(done);
        let outcomes = slots.into_iter().map(|slot| {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner).1 {
                Some(Ok(value)) => value,
                Some(Err(payload)) => resume_unwind(payload),
                None => unreachable!("Crew::run returns after every slot has been run"),
            }
        });
        outcomes.collect()
    }

    /// Convenience wrapper over [`WorkerPool::run_with`] for workers that
    /// need no per-worker context: runs `f(worker_id)` for `workers` workers
    /// and returns the outputs in worker-id order.
    pub fn run<T, F>(&self, workers: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut ctxs = vec![(); workers];
        self.run_with(&mut ctxs, |worker, ()| f(worker))
    }

    /// The number of workers a parallel region over `items` work items should
    /// use: `min(threads, items)`, with a floor of 1 so degenerate regions
    /// still produce one (empty) worker output to merge.
    pub fn workers_for(&self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }
}

impl Clone for WorkerPool {
    /// A pool of the same width; its crew is its own and starts on demand.
    fn clone(&self) -> Self {
        WorkerPool::new(self.threads)
    }
}

impl PartialEq for WorkerPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for WorkerPool {}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).finish()
    }
}

/// Polls (one `try_recv` and one `std::hint::spin_loop` each) an idle crew
/// worker — or a caller waiting for its crew — makes before it blocks.
///
/// Derived from a trace of the waits themselves (CONCURRENCY.md §2). A poll
/// takes 31–34 ns on the reference box and waking a blocked worker 100–200 µs,
/// so the budget has to outlast every wait *inside* a hop loop — the other
/// worker's longer share of a hop, the inline hops between two wide ones —
/// and nothing longer: 98.9 % of `closure`'s in-loop waits end within 1 ms
/// and 94 % of `khop`'s within 4 ms; 2^17 polls ≈ 4.3 ms covers both. At
/// 0.33 ms, 16 % of `closure`'s and 75 % of `khop`'s hand-offs found the
/// worker asleep (`khop` 96.6 → 107.9 `ops_per_s` from there to here, 4 of
/// 4). An idle worker polls ≈ 4 ms past its last task, then sleeps in `recv`.
const SPIN_BUDGET: u32 = 1 << 17;

/// A region as the crew sees it: `task(member)` runs member `member`'s contexts.
type Task = &'static (dyn Fn(usize) + Sync);

/// Receives from `channel`: polls it up to `budget` times, then blocks
/// (parked until a message is sent). `None` once every sender is gone.
fn poll<T>(channel: &Receiver<T>, budget: u32) -> Option<T> {
    for _ in 0..budget {
        match channel.try_recv() {
            Ok(message) => return Some(message),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    channel.recv().ok()
}

/// The OS threads behind a [`WorkerPool`]: members `1..threads` of every
/// region (member 0 is the calling thread).
struct Crew {
    /// One task channel per worker; hanging them up retires the crew.
    tasks: Vec<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    /// One message per worker done with the region in flight. The crew has a
    /// single job slot: whoever holds this lock has it.
    done: Mutex<Receiver<()>>,
    /// [`SPIN_BUDGET`], or 0 when the pool is wider than the machine, where
    /// a spinning worker only keeps a runnable one off its core.
    spin_budget: u32,
}

impl Crew {
    /// Spawns the `threads - 1` crew workers of a pool of `threads`.
    fn start(threads: usize) -> Crew {
        let fits = threads <= WorkerPool::available_parallelism();
        let spin_budget = if fits { SPIN_BUDGET } else { 0 };
        let (finished, done) = channel();
        // Built before the first spawn: if a later spawn fails (it panics),
        // dropping the crew retires the workers that did start.
        let mut crew =
            Crew { tasks: Vec::new(), workers: Vec::new(), done: Mutex::new(done), spin_budget };
        for member in 1..threads {
            let (task_in, tasks) = channel::<Task>();
            let finished = finished.clone();
            crew.tasks.push(task_in);
            crew.workers.push(thread::spawn(move || {
                while let Some(task) = poll(&tasks, spin_budget) {
                    task(member);
                    // Last use of `task` is above: from here on its region may end.
                    let _ = finished.send(());
                }
            }));
        }
        crew
    }

    /// Runs `task(member)` for members `0..width` — 0 on the calling thread,
    /// the rest on the crew — and returns when all of them have returned.
    /// `done` is the caller's claim on the crew; `task` must not unwind.
    fn run(&self, done: &Receiver<()>, width: usize, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime of the reference (and of the closure's
        // captures) is erased, so that long-lived threads can be lent a
        // closure that borrows from the caller's stack. The erased reference
        // exists only in the messages sent below, one per crew member of the
        // region, and each member reports on `done` after its last use of it.
        // `RegionEnd`, armed with the number of messages sent, keeps this
        // function from returning *or unwinding* until as many reports have
        // come back. So no use of the reference outlives the borrow it was
        // made from (`tests/pool_contract.rs`, `panic_in_*`, exercises this).
        let erased: Task = unsafe { std::mem::transmute(task) };
        let sent = self.tasks[..width - 1].iter().filter(|to| to.send(erased).is_ok()).count();
        let _end = RegionEnd { done, pending: sent, spin_budget: self.spin_budget };
        task(0);
    }
}

/// Ends a region: waits for a report from every crew worker in it. A drop
/// guard, so the wait also happens if the caller's own share unwinds.
struct RegionEnd<'a> {
    done: &'a Receiver<()>,
    pending: usize,
    spin_budget: u32,
}

impl Drop for RegionEnd<'_> {
    fn drop(&mut self) {
        for _ in 0..self.pending {
            poll(self.done, self.spin_budget);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.tasks.clear();
        for worker in self.workers.drain(..) {
            // A worker only ever runs `task`s that catch their own panics.
            let _ = worker.join();
        }
    }
}

impl Default for WorkerPool {
    /// A single-threaded pool (the deterministic baseline configuration).
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

/// Splits `0..len` into `parts` contiguous ranges whose lengths differ by at
/// most one (the first `len % parts` ranges are one longer).
///
/// This is the ownership map of determinism rule 1: item `i` belongs to
/// exactly one range, ranges are in ascending order, and the split depends
/// only on `(len, parts)` — never on timing — so the same inputs always
/// produce the same ownership. `parts` may exceed `len`; trailing ranges are
/// then empty (their workers idle).
///
/// # Examples
///
/// ```
/// use moctopus_runtime::chunk_ranges;
/// assert_eq!(chunk_ranges(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(chunk_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
/// assert_eq!(chunk_ranges(0, 2), vec![0..0, 0..0]);
/// ```
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot split a range into zero parts");
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 0..parts {
        let size = base + usize::from(part < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_threads_means_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), WorkerPool::available_parallelism());
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn default_pool_is_single_threaded() {
        assert_eq!(WorkerPool::default().threads(), 1);
    }

    #[test]
    fn run_with_returns_outputs_in_worker_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let mut ctxs = vec![0usize; threads];
            let out = pool.run_with(&mut ctxs, |worker, ctx| {
                *ctx = worker * 10;
                worker
            });
            assert_eq!(out, (0..threads).collect::<Vec<_>>());
            assert_eq!(ctxs, (0..threads).map(|w| w * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_with_handles_empty_and_single_context() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.run_with(&mut [], |w, ()| w);
        assert!(out.is_empty());
        let main_thread = std::thread::current().id();
        let mut one = [0u8];
        let out = pool.run_with(&mut one, |_, _| std::thread::current().id());
        assert_eq!(out, vec![main_thread], "a single context must run inline");
    }

    #[test]
    fn workers_share_borrowed_data() {
        let data: Vec<u64> = (0..100).collect();
        let pool = WorkerPool::new(3);
        let ranges = chunk_ranges(data.len(), 3);
        let sums = pool.run(3, |w| data[ranges[w].clone()].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn run_counts_every_worker_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = WorkerPool::new(8);
        pool.run(8, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn workers_for_clamps_to_items_and_floor() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers_for(100), 4);
        assert_eq!(pool.workers_for(2), 2);
        assert_eq!(pool.workers_for(0), 1);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let pool = WorkerPool::new(2);
        pool.run(2, |w| {
            if w == 1 {
                panic!("worker boom");
            }
        });
    }

    #[test]
    fn a_pool_wider_than_the_machine_parks_without_spinning() {
        let cores = WorkerPool::available_parallelism();
        for (threads, budget) in [(cores + 1, 0), (cores, SPIN_BUDGET)] {
            if threads == 1 {
                continue; // no crew at all on a one-core box
            }
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.run(threads, |w| w), (0..threads).collect::<Vec<_>>());
            let crew = pool.crew.get().expect("a wide region starts the crew");
            assert_eq!(crew.spin_budget, budget, "{threads} threads on {cores} cores");
        }
    }

    #[test]
    fn chunk_ranges_cover_the_input_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 13] {
                let ranges = chunk_ranges(len, parts);
                assert_eq!(ranges.len(), parts);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "ranges must be contiguous");
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len, "ranges must cover 0..len");
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len {len} parts {parts}: sizes {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn chunk_ranges_rejects_zero_parts() {
        let _ = chunk_ranges(4, 0);
    }
}
