//! Deterministic data-parallel execution on a persistent worker pool.
//!
//! The placement inner loops (smooth-wirelength gradients, density
//! rasterization, congestion estimation) are embarrassingly net- or
//! tile-parallel, but analytical placement demands **bitwise reproducible**
//! results: the optimizer trajectory must not depend on how many workers the
//! machine happens to have. This module provides the one primitive all the
//! kernels share:
//!
//! 1. the work is split into **fixed-size chunks whose boundaries depend
//!    only on the input size**, never on the thread count;
//! 2. workers claim chunks from an atomic counter and compute each chunk's
//!    partial result independently (no shared mutable state);
//! 3. the caller folds the partial results **in chunk-index order**, so
//!    every floating-point reduction happens in one canonical order.
//!
//! With that discipline, `threads = 1` and `threads = N` produce bitwise
//! identical output; the thread count only changes wall-clock time.
//!
//! # Execution
//!
//! Every [`Parallelism`] owns a lazily spawned worker pool, shared by its
//! clones. The first dispatch that needs more than one participant spawns
//! `effective_threads() − 1` resident workers; between dispatches they park
//! on a condvar and are woken per job, so a global-placement run (~10³
//! gradient evaluations, each several dispatches) pays the spawn cost once.
//! A one-thread `Parallelism`, or a dispatch with a single chunk, never
//! spawns a thread: the caller runs the claim loop alone, which then claims
//! the chunks in index order. Which thread runs a chunk never changes chunk
//! geometry or merge order, so the result is the same either way.
//!
//! The dispatching thread always participates in the claim loop itself, so
//! a dispatch can never deadlock on a busy or smaller-than-requested pool:
//! a nested dispatch (a chunk function invoking the pool again), or a
//! dispatch racing another one on a clone of the same `Parallelism`, runs
//! inline on its caller. Panics in a chunk or a worker's `init` are caught
//! where they happen (pool workers survive and park again) and re-raised on
//! the dispatching thread as `"parallel worker panicked at chunk N ..."`,
//! attributing the failure to the chunk index and — when the dispatcher
//! holds a [`DispatchLabel`] — the job that issued the dispatch, so a job
//! server's logs can tie a kernel panic back to a job.
//!
//! No external crates: workers are plain `std::thread` instances, so the
//! primitive works in the zero-network build environment this workspace
//! targets.
//!
//! # Examples
//!
//! ```
//! use rdp_geom::parallel::{chunk_spans, chunked_map, Parallelism};
//!
//! let data: Vec<f64> = (0..1000).map(f64::from).collect();
//! let spans: Vec<_> = chunk_spans(data.len(), 128).collect();
//! let partials = chunked_map(&Parallelism::auto(), spans.len(), |ci| {
//!     data[spans[ci].clone()].iter().sum::<f64>()
//! });
//! // Ordered fold: same result at any thread count.
//! let total: f64 = partials.iter().sum();
//! assert_eq!(total, 499_500.0);
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Label attached to dispatches issued from this thread (see
    /// [`DispatchLabel`]). Read on the dispatching thread when a chunk
    /// panic is re-raised, so service logs can attribute the panic.
    static DISPATCH_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII guard labeling every parallel dispatch issued from the current
/// thread, so a chunk panic re-raises as
/// `"parallel worker panicked at chunk N (job LABEL): ..."` instead of an
/// anonymous message. A job server sets the label to its job id before
/// running a flow; nested guards restore the previous label on drop.
///
/// The label is thread-local to the *dispatching* thread — exactly the
/// thread that re-raises worker panics — so no synchronization is needed
/// and concurrent jobs on different threads never mix labels.
#[derive(Debug)]
pub struct DispatchLabel {
    prev: Option<String>,
}

impl DispatchLabel {
    /// Sets `label` for dispatches from this thread until the guard drops.
    pub fn enter(label: impl Into<String>) -> Self {
        let prev = DISPATCH_LABEL.with(|l| l.borrow_mut().replace(label.into()));
        DispatchLabel { prev }
    }

    /// The label currently in effect on this thread, if any.
    pub fn current() -> Option<String> {
        DISPATCH_LABEL.with(|l| l.borrow().clone())
    }
}

impl Drop for DispatchLabel {
    fn drop(&mut self) {
        let prev = self.prev.take();
        DISPATCH_LABEL.with(|l| *l.borrow_mut() = prev);
    }
}

/// First panic observed during a chunked dispatch: which chunk index blew
/// up (`None`: a worker's `init` closure) and the stringified payload.
struct ChunkPanic {
    chunk: Option<usize>,
    message: String,
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` payloads cover `panic!`; anything else is typed out as opaque).
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Records the first chunk panic of a dispatch and raises the abort flag
/// so other participants stop claiming chunks.
fn record_chunk_panic(
    failure: &Mutex<Option<ChunkPanic>>,
    abort: &AtomicBool,
    chunk: Option<usize>,
    payload: Box<dyn Any + Send>,
) {
    abort.store(true, Ordering::Relaxed);
    let mut slot = failure.lock().expect("panic record poisoned");
    if slot.is_none() {
        *slot = Some(ChunkPanic { chunk, message: payload_message(payload.as_ref()) });
    }
}

/// Re-raises a recorded chunk panic on the dispatching thread, attributing
/// it to the failing chunk index and (when a [`DispatchLabel`] is in
/// effect) the job that issued the dispatch.
fn raise_chunk_panic(fail: ChunkPanic) -> ! {
    let site = match fail.chunk {
        Some(i) => format!("at chunk {i}"),
        None => "during worker init".to_owned(),
    };
    match DispatchLabel::current() {
        Some(job) => panic!("parallel worker panicked {site} (job {job}): {}", fail.message),
        None => panic!("parallel worker panicked {site}: {}", fail.message),
    }
}

/// A type-erased pointer to the job closure of the in-flight dispatch.
///
/// The pointee lives on the dispatching thread's stack; validity is
/// guaranteed by the dispatch protocol — [`WorkerPool::run`] does not
/// return (not even by unwinding) until every worker that claimed the job
/// has finished with it.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (calling it from several threads is safe)
// and the dispatch protocol keeps it alive while any worker can reach it.
unsafe impl Send for Job {}

struct PoolState {
    /// Incremented per dispatch; workers use it to recognize new jobs.
    epoch: u64,
    /// The in-flight job, if any.
    job: Option<Job>,
    /// Worker participation slots remaining for the current job.
    slots: usize,
    /// Workers currently executing the current job.
    running: usize,
    /// Worker panics observed while executing the current job.
    panics: usize,
    /// Dispatch in flight (nested or concurrent dispatches run inline).
    busy: bool,
    /// Set once by `Drop`; workers exit when they observe it.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new epoch (or shutdown).
    job_cv: Condvar,
    /// The dispatcher parks here waiting for `running == 0`.
    done_cv: Condvar,
}

/// The resident workers behind a [`Parallelism`]: spawned once, parked on
/// a condvar between jobs, joined when the last clone of the owning
/// `Parallelism` drops. A panic escaping a job is caught inside the worker,
/// which returns to its parked state, so the pool stays usable.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `size` resident workers.
    fn new(size: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                slots: 0,
                running: 0,
                panics: 0,
                busy: false,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    fn worker(shared: &PoolShared) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().expect("worker pool poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch != seen {
                        // A new job was published since we last looked.
                        seen = st.epoch;
                        if st.job.is_some() && st.slots > 0 {
                            st.slots -= 1;
                            st.running += 1;
                            break st.job.expect("job vanished under lock");
                        }
                        // No slot for us in this epoch: wait for the next.
                    }
                    st = shared.job_cv.wait(st).expect("worker pool poisoned");
                }
            };
            // Run outside the lock. Catch panics so the worker survives and
            // the pool stays usable; the dispatcher re-raises.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
            let mut st = shared.state.lock().expect("worker pool poisoned");
            if result.is_err() {
                st.panics += 1;
            }
            st.running -= 1;
            if st.running == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Runs `job` on the calling thread plus up to `extra` pooled workers,
    /// returning once **every** participant has returned from it. `job`
    /// contains its own chunk-claim loop, so any subset of participants
    /// completes all work: while the pool is busy (a nested call from
    /// inside a running job, or a concurrent call from another thread),
    /// `job` simply runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Re-raises a caller-side panic after all workers finished; raises
    /// `"parallel worker panicked"` when only workers panicked.
    fn run(&self, extra: usize, job: &(dyn Fn() + Sync)) {
        // Lifetime erasure: `job` only needs to outlive this call, and the
        // protocol below guarantees no worker touches it after we return.
        let erased = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                job as *const _,
            )
        });
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            if st.busy {
                drop(st);
                job();
                return;
            }
            st.busy = true;
            st.epoch += 1;
            st.job = Some(erased);
            st.slots = extra.min(self.handles.len());
            st.panics = 0;
            self.shared.job_cv.notify_all();
        }
        // The caller is always a participant: even if every worker is slow
        // to wake, the claim loop completes on this thread.
        let caller = catch_unwind(AssertUnwindSafe(job));
        // Close the job and wait for stragglers *before* unwinding: workers
        // hold a raw pointer into this stack frame.
        let worker_panics = {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            st.job = None;
            st.slots = 0;
            while st.running > 0 {
                st = self.shared.done_cv.wait(st).expect("worker pool poisoned");
            }
            st.busy = false;
            st.panics
        };
        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panics > 0 => panic!("parallel worker panicked"),
            Ok(()) => {}
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            st.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker-count configuration plus the worker pool it owns, plumbed
/// through `PlaceOptions` and `RouterConfig`.
///
/// The stored count is a *request*: `0` means "one worker per available
/// CPU" resolved at execution time via
/// [`std::thread::available_parallelism`]. Results never depend on the
/// resolved count (see the module docs), so `auto` is safe as a default.
///
/// The pool is spawned on the first dispatch that needs it and shared by
/// every clone (cloning is an `Arc` bump), so one `Parallelism` handed to a
/// whole flow serves every kernel dispatch in it with the same workers.
/// Equality compares only the configured thread count — two `Parallelism`
/// values with the same count are interchangeable by the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct Parallelism {
    threads: usize,
    pool: Arc<OnceLock<WorkerPool>>,
}

impl PartialEq for Parallelism {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for Parallelism {}

impl Parallelism {
    /// Exactly `threads` workers; `0` is the same as [`Parallelism::auto`].
    pub fn new(threads: usize) -> Self {
        Parallelism { threads, pool: Arc::default() }
    }

    /// Single-threaded: chunks run inline on the calling thread.
    pub fn single() -> Self {
        Parallelism::new(1)
    }

    /// One worker per available CPU (resolved when work is executed).
    pub fn auto() -> Self {
        Parallelism::new(0)
    }

    /// [`Parallelism::new`] with its pool already spawned (see
    /// [`Parallelism::ensure_pool`]).
    pub fn with_pool(threads: usize) -> Self {
        let mut par = Parallelism::new(threads);
        par.ensure_pool();
        par
    }

    /// The effective worker count: the configured value, or the machine's
    /// available parallelism when configured as `auto` (falling back to 1
    /// if the OS cannot report it).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The raw configured value (`0` = auto).
    pub fn configured_threads(&self) -> usize {
        self.threads
    }

    /// Spawns the pool now instead of on the first multi-threaded dispatch,
    /// e.g. to keep the spawn cost out of a timed region. No-op when the
    /// pool already exists or one effective thread needs none. Never
    /// changes what a dispatch computes.
    pub fn ensure_pool(&mut self) {
        if self.effective_threads() > 1 {
            self.pool();
        }
    }

    /// The shared pool, spawned with `effective_threads() − 1` workers on
    /// first use (the dispatching thread is the remaining participant).
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.effective_threads() - 1))
    }

    /// Runs `job` once on each of `participants` threads: the caller plus
    /// `participants − 1` pooled workers. `job` contains its own claim loop.
    fn execute(&self, participants: usize, job: &(dyn Fn() + Sync)) {
        if participants > 1 {
            self.pool().run(participants - 1, job);
        } else {
            job();
        }
    }
}

/// Splits `0..len` into spans of `chunk` elements (the last may be short).
///
/// Chunk boundaries depend only on `len` and `chunk` — **never** on the
/// thread count — which is what makes per-chunk results mergeable in a
/// canonical order.
pub fn chunk_spans(len: usize, chunk: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    let n = len.div_ceil(chunk);
    (0..n).map(move |i| i * chunk..((i + 1) * chunk).min(len))
}

/// Runs `f(chunk_index)` for every chunk in `0..num_chunks` and returns the
/// results **in chunk-index order**, regardless of which worker computed
/// which chunk.
///
/// With one effective thread (or one chunk) everything runs inline on the
/// calling thread; otherwise the caller and the pooled workers claim chunk
/// indices from a shared atomic counter. `f` must be pure with respect to
/// chunk index for the determinism guarantee to hold (it always is for the
/// placement kernels: each chunk only reads immutable snapshots).
///
/// # Panics
///
/// Propagates a panic from `f` (all participants are joined first; the
/// pool survives and stays usable).
pub fn chunked_map<R, F>(par: &Parallelism, num_chunks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    chunked_map_with(par, num_chunks, || (), |(), i| f(i))
}

/// [`chunked_map`] with **per-worker scratch state**: every participant
/// calls `init()` once and threads the resulting value mutably through all
/// the chunks it processes. The maze router uses this to reuse one search
/// scratch (cost arrays, heap) across all the segments a worker routes,
/// instead of allocating per segment.
///
/// The scratch must not influence the produced results — only their cost —
/// or the determinism contract breaks; a search scratch that is fully
/// re-initialized (cheaply, via epochs) per item qualifies.
///
/// This is the one claim loop every `chunked_*` entry point runs on.
///
/// # Panics
///
/// A panic from `init` or `f` is re-raised on the dispatching thread as
/// `"parallel worker panicked at chunk N ..."` (or `"... during worker
/// init ..."`) — including, when the dispatcher holds a [`DispatchLabel`],
/// the job id — after all participants are joined, at every thread count
/// (the pool survives and stays usable).
pub fn chunked_map_with<S, R, I, F>(par: &Parallelism, num_chunks: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if num_chunks == 0 {
        return Vec::new();
    }
    let participants = par.effective_threads().min(num_chunks);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<ChunkPanic>> = Mutex::new(None);
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    // Each participant runs this once. A lone participant claims every
    // chunk in index order, so this is also the serial loop.
    let job = || {
        let mut state = match catch_unwind(AssertUnwindSafe(&init)) {
            Ok(s) => s,
            Err(payload) => return record_chunk_panic(&failure, &abort, None, payload),
        };
        let mut local = Vec::with_capacity(num_chunks.div_ceil(participants));
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_chunks {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                Ok(r) => local.push((i, r)),
                Err(payload) => return record_chunk_panic(&failure, &abort, Some(i), payload),
            }
        }
        let mut sink = sink.lock().expect("result sink poisoned");
        if sink.is_empty() {
            *sink = local;
        } else {
            sink.extend(local);
        }
    };
    par.execute(participants, &job);
    if let Some(fail) = failure.into_inner().expect("panic record poisoned") {
        raise_chunk_panic(fail);
    }
    let mut tagged = sink.into_inner().expect("result sink poisoned");
    // Restore the canonical order: whoever computed a chunk, its result
    // lands at its chunk index.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Splits a mutable slice into the given **ascending, non-overlapping**
/// spans, returning one disjoint `&mut [T]` per span.
///
/// This is the safe construction step for [`chunked_map_parts`]: the hot
/// kernels pre-split their output buffers along the canonical chunk
/// boundaries (from [`chunk_spans`]) and hand each worker exclusive
/// ownership of its chunk's output slice, so parallel writes need no
/// synchronization and no `unsafe`.
///
/// Gaps between spans are allowed (those elements are simply not returned);
/// the spans themselves must be in increasing order and within bounds.
///
/// # Panics
///
/// Panics if a span starts before the end of the previous span or extends
/// past the end of the slice.
pub fn split_at_spans<'a, T>(mut data: &'a mut [T], spans: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(spans.len());
    let mut offset = 0usize;
    for span in spans {
        assert!(
            span.start >= offset && span.end >= span.start,
            "spans must be ascending and non-overlapping"
        );
        let (_, rest) = data.split_at_mut(span.start - offset);
        let (part, rest) = rest.split_at_mut(span.end - span.start);
        parts.push(part);
        data = rest;
        offset = span.end;
    }
    parts
}

/// Runs `f(chunk_index, &mut part)` for every part, returning the results
/// in part-index order. Each part is **moved** to exactly one worker, so a
/// part can be a `&mut` output slice (built with [`split_at_spans`]) and
/// workers write their chunk's results directly into the shared output
/// buffer — disjointly, hence without locks on the hot path.
///
/// The scheduling is [`chunked_map`]'s: chunk boundaries are fixed by the
/// caller, participants claim indices from an atomic counter, and results
/// come back in canonical order. Since each worker writes only through its
/// own part, output contents are bitwise independent of the thread count.
///
/// # Panics
///
/// Propagates a panic from `f` (all participants are joined first; the
/// pool survives and stays usable).
pub fn chunked_map_parts<P, R, F>(par: &Parallelism, parts: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, &mut P) -> R + Sync,
{
    chunked_map_parts_with(par, parts, || (), |(), i, p| f(i, p))
}

/// [`chunked_map_parts`] with per-worker scratch state (see
/// [`chunked_map_with`] for the scratch contract: it may affect cost, never
/// results).
///
/// # Panics
///
/// A panic from `init` or `f` is re-raised with chunk/job attribution
/// (see [`chunked_map_with`]) after all participants are joined; the pool
/// survives and stays usable.
pub fn chunked_map_parts_with<P, S, R, I, F>(
    par: &Parallelism,
    parts: Vec<P>,
    init: I,
    f: F,
) -> Vec<R>
where
    P: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut P) -> R + Sync,
{
    // One slot per part; the participant that claims chunk `i` takes sole
    // ownership of part `i`. Each slot is locked exactly once, so the
    // mutexes are uncontended — they only move the parts across threads.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    chunked_map_with(par, slots.len(), init, |state, i| {
        let mut part =
            slots[i].lock().expect("part slot poisoned").take().expect("part claimed twice");
        f(state, i, &mut part)
    })
}

/// One part of a [`fused_chunked_parts`] dispatch.
enum Family<A, B> {
    A(A),
    B(B),
}

/// Runs **two independent part families in one parallel region**: every
/// participant claims indices `0..a.len() + b.len()` from a single atomic
/// counter; indices below `a.len()` run `fa` on the corresponding A part,
/// the rest run `fb` on a B part. This is the fused-dispatch primitive the
/// gradient kernels use to execute the wirelength phase and a density pass
/// under one pool wake-up/join instead of two.
///
/// Requirements (the same as [`chunked_map_parts_with`], per family):
/// the families must be *independent* — no part of one family may read
/// state another part (of either family) writes during the dispatch — and
/// each family's chunk geometry must be thread-count-free. Because each
/// part is still processed exactly once, writing only through its own
/// disjoint slices, the fused execution is bitwise identical to dispatching
/// the two families separately, at every thread count.
///
/// Per-worker scratch is created lazily per family: a participant that only
/// ever claims A parts never runs `init_b`, and vice versa.
///
/// # Panics
///
/// A panic from either family's `init` or body is re-raised with
/// chunk/job attribution (the chunk index is the fused claim index over
/// `0..a.len() + b.len()`; see [`chunked_map_with`]) after all
/// participants are joined; the pool survives and stays usable.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunked_parts<PA, SA, IA, FA, PB, SB, IB, FB>(
    par: &Parallelism,
    parts_a: Vec<PA>,
    init_a: IA,
    fa: FA,
    parts_b: Vec<PB>,
    init_b: IB,
    fb: FB,
) where
    PA: Send,
    PB: Send,
    IA: Fn() -> SA + Sync,
    IB: Fn() -> SB + Sync,
    FA: Fn(&mut SA, usize, &mut PA) + Sync,
    FB: Fn(&mut SB, usize, &mut PB) + Sync,
{
    let na = parts_a.len();
    let parts: Vec<Family<PA, PB>> =
        parts_a.into_iter().map(Family::A).chain(parts_b.into_iter().map(Family::B)).collect();
    chunked_map_parts_with(
        par,
        parts,
        || (None, None),
        |(sa, sb): &mut (Option<SA>, Option<SB>), i, part| match part {
            Family::A(p) => fa(sa.get_or_insert_with(&init_a), i, p),
            Family::B(p) => fb(sb.get_or_insert_with(&init_b), i - na, p),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool a `Parallelism` has spawned so far, if any.
    fn spawned(par: &Parallelism) -> Option<&WorkerPool> {
        par.pool.get()
    }

    #[test]
    fn chunk_spans_cover_everything_once() {
        let spans: Vec<_> = chunk_spans(10, 3).collect();
        assert_eq!(spans, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(chunk_spans(0, 3).len(), 0);
        assert_eq!(chunk_spans(3, 3).collect::<Vec<_>>(), vec![0..3]);
        // chunk=0 is clamped, not a panic.
        assert_eq!(chunk_spans(2, 0).len(), 2);
    }

    #[test]
    fn results_are_in_chunk_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let out = chunked_map(&Parallelism::new(threads), 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn float_reduction_is_bitwise_identical_across_thread_counts() {
        // Pathological summands where order changes the rounding.
        let data: Vec<f64> = (0..10_000)
            .map(|i| if i % 3 == 0 { 1e16 } else { 1.0 + i as f64 * 1e-7 })
            .collect();
        let run = |par: &Parallelism| {
            let spans: Vec<_> = chunk_spans(data.len(), 64).collect();
            let partials = chunked_map(par, spans.len(), |ci| {
                data[spans[ci].clone()].iter().sum::<f64>()
            });
            partials.iter().fold(0.0f64, |a, b| a + b)
        };
        let baseline = run(&Parallelism::single());
        for threads in [2, 4, 16] {
            // The first run spawns the pool, the second reuses it.
            let par = Parallelism::new(threads);
            for rep in 0..2 {
                assert_eq!(run(&par).to_bits(), baseline.to_bits(), "threads={threads} rep={rep}");
            }
        }
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::auto().effective_threads() >= 1);
        assert_eq!(Parallelism::single().effective_threads(), 1);
        assert_eq!(Parallelism::new(5).effective_threads(), 5);
        assert_eq!(Parallelism::new(0).effective_threads(), Parallelism::auto().effective_threads());
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn empty_work_is_fine() {
        let out: Vec<i32> = chunked_map(&Parallelism::new(4), 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let par = Parallelism::new(64);
        for _ in 0..2 {
            let out = chunked_map(&par, 3, |i| i + 1);
            assert_eq!(out, vec![1, 2, 3]);
        }
    }

    #[test]
    fn split_at_spans_yields_disjoint_views() {
        let mut data = [0u32; 10];
        let spans = vec![0..3, 3..6, 8..10];
        let parts = split_at_spans(&mut data, &spans);
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), vec![3, 3, 2]);
        for (pi, part) in parts.into_iter().enumerate() {
            for v in part {
                *v = pi as u32 + 1;
            }
        }
        assert_eq!(data, [1, 1, 1, 2, 2, 2, 0, 0, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn split_at_spans_rejects_overlap() {
        let mut data = [0u32; 4];
        let _ = split_at_spans(&mut data, &[0..2, 1..3]);
    }

    #[test]
    fn parts_writes_are_identical_at_any_thread_count() {
        // Each chunk writes into its own disjoint output slice; the merged
        // buffer must be bitwise identical no matter how many workers ran.
        let run = |par: &Parallelism| {
            let mut out = vec![0.0f64; 1000];
            let spans: Vec<_> = chunk_spans(out.len(), 64).collect();
            let parts = split_at_spans(&mut out, &spans);
            let sums = chunked_map_parts(
                par,
                parts.into_iter().zip(spans.iter().cloned()).collect(),
                |_, (slice, span)| {
                    let mut s = 0.0;
                    for (v, i) in slice.iter_mut().zip(span.clone()) {
                        *v = (i as f64 * 0.1).sin();
                        s += *v;
                    }
                    s
                },
            );
            let total = sums.iter().fold(0.0f64, |a, b| a + b);
            (out, total)
        };
        let (base, base_total) = run(&Parallelism::single());
        for threads in [2, 3, 8] {
            let par = Parallelism::new(threads);
            for rep in 0..2 {
                let (out, total) = run(&par);
                assert_eq!(total.to_bits(), base_total.to_bits(), "threads={threads} rep={rep}");
                for (a, b) in base.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} rep={rep}");
                }
            }
        }
    }

    #[test]
    fn parts_with_state_and_empty_parts_behave() {
        let out: Vec<i32> = chunked_map_parts(&Parallelism::new(4), Vec::<()>::new(), |_, _| 0);
        assert!(out.is_empty());
        for threads in [1, 4] {
            let mut bufs = [[0u8; 4]; 20];
            let parts: Vec<&mut [u8; 4]> = bufs.iter_mut().collect();
            let out = chunked_map_parts_with(
                &Parallelism::new(threads),
                parts,
                Vec::<usize>::new,
                |scratch, i, part| {
                    scratch.push(i);
                    part[0] = i as u8;
                    i * 3
                },
            );
            assert_eq!(out, (0..20).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(b[0], i as u8, "threads={threads}");
            }
        }
    }

    #[test]
    fn per_worker_state_is_reused_and_results_stay_ordered() {
        // The scratch (a grow-only buffer) must not change results, only
        // avoid re-allocation; results come back in chunk order at any
        // thread count.
        for threads in [1, 3, 16] {
            let out = chunked_map_with(
                &Parallelism::new(threads),
                50,
                Vec::<usize>::new,
                |scratch, i| {
                    scratch.push(i); // scratch survives across chunks
                    i * 2
                },
            );
            assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>(), "threads={threads}");
        }
        // Empty work never calls init.
        let out: Vec<i32> =
            chunked_map_with(&Parallelism::new(4), 0, || unreachable!(), |_: &mut (), _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_is_reused_across_dispatches_and_matches_single() {
        let reused = Parallelism::new(4);
        assert!(spawned(&reused).is_none(), "no pool before the first dispatch");
        // A sequence of dispatches through ONE pool must match both a fresh
        // pool per call and the inline single-thread run, call for call.
        let mut first_pool: Option<*const WorkerPool> = None;
        for round in 0..20usize {
            let f = |i: usize| ((i * round) as f64).sqrt();
            let a = chunked_map(&reused, 37 + round, f);
            let b = chunked_map(&Parallelism::new(4), 37 + round, f);
            let c = chunked_map(&Parallelism::single(), 37 + round, f);
            let pool = spawned(&reused).expect("first dispatch spawns the pool");
            assert_eq!(pool.handles.len(), 3);
            assert_eq!(*first_pool.get_or_insert(pool), pool as *const _, "pool replaced");
            assert_eq!(a.len(), c.len());
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert_eq!(x.to_bits(), z.to_bits(), "round={round}");
                assert_eq!(y.to_bits(), z.to_bits(), "round={round}");
            }
        }
    }

    #[test]
    fn pool_survives_worker_panic() {
        let pooled = Parallelism::new(4);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            chunked_map(&pooled, 16, |i| {
                if i == 7 {
                    panic!("chunk 7 exploded");
                }
                i
            })
        }));
        assert!(boom.is_err(), "panic must propagate to the dispatcher");
        // The pool must still be fully operational afterwards.
        for _ in 0..5 {
            let out = chunked_map(&pooled, 16, |i| i * i);
            assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// Extracts the panic message of a caught chunk panic.
    fn caught_message<T>(result: Result<T, Box<dyn std::any::Any + Send>>) -> String {
        let payload = result.err().expect("expected a panic");
        payload_message(payload.as_ref())
    }

    #[test]
    fn panic_message_names_chunk_and_job() {
        let pooled = Parallelism::new(4);
        let guard = DispatchLabel::enter("job-42");
        let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
            chunked_map(&pooled, 16, |i| {
                if i == 7 {
                    panic!("chunk payload {i}");
                }
                i
            })
        })));
        drop(guard);
        assert!(msg.contains("parallel worker panicked at chunk 7"), "got: {msg}");
        assert!(msg.contains("(job job-42)"), "got: {msg}");
        assert!(msg.contains("chunk payload 7"), "got: {msg}");
        // Without a label the job clause is absent.
        let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
            chunked_map(&pooled, 16, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        })));
        assert!(msg.contains("at chunk 3"), "got: {msg}");
        assert!(!msg.contains("job"), "got: {msg}");
        // The pool is still fully operational after both panics.
        let out = chunked_map(&pooled, 16, |i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_panic_carries_the_same_attribution() {
        let _guard = DispatchLabel::enter("inline-job");
        let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
            chunked_map(&Parallelism::single(), 4, |i| {
                if i == 2 {
                    panic!("inline boom");
                }
                i
            })
        })));
        assert!(msg.contains("at chunk 2"), "got: {msg}");
        assert!(msg.contains("(job inline-job)"), "got: {msg}");
    }

    #[test]
    fn init_panic_names_init_and_job_at_every_thread_count() {
        let _guard = DispatchLabel::enter("init-job");
        for threads in [1, 3] {
            let par = Parallelism::new(threads);
            let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
                chunked_map_with(&par, 6, || -> usize { panic!("init boom") }, |_, i| i)
            })));
            assert!(msg.contains("parallel worker panicked during worker init"), "got: {msg}");
            assert!(msg.contains("(job init-job)"), "threads={threads} got: {msg}");
            assert!(msg.contains("init boom"), "threads={threads} got: {msg}");
            let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
                chunked_map_parts_with(
                    &par,
                    vec![(); 6],
                    || -> usize { panic!("parts init boom") },
                    |_, i, _| i,
                )
            })));
            assert!(msg.contains("during worker init (job init-job)"), "got: {msg}");
            assert!(msg.contains("parts init boom"), "threads={threads} got: {msg}");
        }
    }

    #[test]
    fn dispatch_labels_nest_and_restore() {
        assert_eq!(DispatchLabel::current(), None);
        let outer = DispatchLabel::enter("outer");
        assert_eq!(DispatchLabel::current().as_deref(), Some("outer"));
        {
            let _inner = DispatchLabel::enter("inner");
            assert_eq!(DispatchLabel::current().as_deref(), Some("inner"));
        }
        assert_eq!(DispatchLabel::current().as_deref(), Some("outer"));
        drop(outer);
        assert_eq!(DispatchLabel::current(), None);
    }

    #[test]
    fn parts_panic_names_chunk() {
        // A fresh pool, one pool reused across the panics, and inline.
        let reused = Parallelism::new(3);
        let pars = [Parallelism::new(3), reused.clone(), reused, Parallelism::single()];
        for par in pars {
            let mut data = [0u32; 60];
            let spans: Vec<_> = chunk_spans(data.len(), 10).collect();
            let parts = split_at_spans(&mut data, &spans);
            let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
                chunked_map_parts(&par, parts, |i, _part| {
                    if i == 4 {
                        panic!("part boom");
                    }
                    i
                })
            })));
            assert!(msg.contains("at chunk 4"), "got: {msg}");
            assert!(msg.contains("part boom"), "got: {msg}");
        }
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        let pooled = Parallelism::new(4);
        let inner_par = pooled.clone();
        let out = chunked_map(&pooled, 8, |i| {
            // A nested dispatch on the same (busy) pool must complete
            // inline rather than deadlock.
            let inner: Vec<usize> = chunked_map(&inner_par, 4, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> =
            (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_dispatches_on_clones_are_canonical() {
        // Two threads dispatch at the same time on clones of one
        // `Parallelism`: whichever finds the shared pool busy runs its
        // claim loop inline. Both must get the canonical results.
        let par = Parallelism::new(4);
        let expect: Vec<f64> = chunked_map(&Parallelism::single(), 64, |i| (i as f64).ln_1p());
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (par, start, expect) = (par.clone(), Arc::clone(&start), expect.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        let out = chunked_map(&par, 64, |i| (i as f64).ln_1p());
                        assert!(out.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("concurrent dispatcher failed");
        }
        assert_eq!(spawned(&par).map(|p| p.handles.len()), Some(3), "one pool for all clones");
    }

    #[test]
    fn clones_share_one_pool() {
        let a = Parallelism::new(3);
        let b = a.clone();
        assert!(spawned(&a).is_none() && spawned(&b).is_none());
        // A dispatch through one clone spawns the pool for both.
        assert_eq!(chunked_map(&b, 6, |i| i), (0..6).collect::<Vec<_>>());
        assert!(std::ptr::eq(spawned(&a).unwrap(), spawned(&b).unwrap()));
        // Equality ignores the pool handle.
        assert_eq!(a, Parallelism::new(3));
        assert_ne!(a, Parallelism::new(2));
    }

    #[test]
    fn fused_families_match_separate_dispatches_bitwise() {
        // Two heterogeneous part families fused into one dispatch must
        // produce exactly what two separate dispatches produce.
        let run_fused = |par: &Parallelism| {
            let mut a_out = vec![0.0f64; 700];
            let mut b_out = vec![0u64; 333];
            let a_spans: Vec<_> = chunk_spans(a_out.len(), 64).collect();
            let b_spans: Vec<_> = chunk_spans(b_out.len(), 50).collect();
            {
                let a_parts: Vec<_> = split_at_spans(&mut a_out, &a_spans)
                    .into_iter()
                    .zip(a_spans.iter().cloned())
                    .collect();
                let b_parts: Vec<_> = split_at_spans(&mut b_out, &b_spans)
                    .into_iter()
                    .zip(b_spans.iter().cloned())
                    .collect();
                fused_chunked_parts(
                    par,
                    a_parts,
                    Vec::<f64>::new,
                    |scratch, _i, (slice, span)| {
                        scratch.push(0.0); // per-worker scratch, result-free
                        for (v, k) in slice.iter_mut().zip(span.clone()) {
                            *v = (k as f64 * 0.37).sin() + (k as f64).sqrt();
                        }
                    },
                    b_parts,
                    || (),
                    |(), _i, (slice, span)| {
                        for (v, k) in slice.iter_mut().zip(span.clone()) {
                            *v = (k as u64).wrapping_mul(0x9e3779b97f4a7c15);
                        }
                    },
                );
            }
            (a_out, b_out)
        };
        let (base_a, base_b) = run_fused(&Parallelism::single());
        // Separate dispatches as the oracle.
        let mut sep_a = vec![0.0f64; 700];
        for (k, v) in sep_a.iter_mut().enumerate() {
            *v = (k as f64 * 0.37).sin() + (k as f64).sqrt();
        }
        assert_eq!(
            base_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sep_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for threads in [2, 3, 8] {
            // The first run spawns the pool, the second reuses it.
            let par = Parallelism::new(threads);
            for rep in 0..2 {
                let (a, b) = run_fused(&par);
                for (x, y) in a.iter().zip(&base_a) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} rep={rep}");
                }
                assert_eq!(b, base_b, "threads={threads} rep={rep}");
            }
        }
    }

    #[test]
    fn fused_with_one_empty_family_runs_the_other() {
        let b_inits = AtomicUsize::new(0);
        let mut out = vec![0usize; 10];
        let parts: Vec<_> = out.iter_mut().collect();
        fused_chunked_parts(
            &Parallelism::new(4),
            parts,
            || (),
            |(), i, slot| **slot = i + 1,
            Vec::<()>::new(),
            || b_inits.fetch_add(1, Ordering::Relaxed),
            |_, _, _| unreachable!(),
        );
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(b_inits.load(Ordering::Relaxed), 0, "untouched family was initialized");
    }

    #[test]
    fn fused_panic_names_the_fused_index() {
        // B indices restart at 0 inside `fb`; the panic names the index
        // over `0..a.len() + b.len()`.
        let msg = caught_message(catch_unwind(AssertUnwindSafe(|| {
            fused_chunked_parts(
                &Parallelism::new(4),
                vec![(); 5],
                || (),
                |(), _, _| {},
                vec![(); 5],
                || (),
                |(), j, _| assert!(j != 2, "b part {j}"),
            )
        })));
        assert!(msg.contains("at chunk 7"), "got: {msg}");
        assert!(msg.contains("b part 2"), "got: {msg}");
    }

    #[test]
    fn one_participant_never_spawns_a_pool() {
        let mut single = Parallelism::single();
        single.ensure_pool();
        assert!(spawned(&single).is_none(), "no pool needed for one thread");
        assert_eq!(chunked_map(&single, 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(spawned(&single).is_none());
        // One chunk means one participant, at any thread count.
        let par = Parallelism::new(4);
        assert_eq!(chunked_map(&par, 1, |i| i + 7), vec![7]);
        assert_eq!(chunked_map_parts(&par, vec![3], |_, p| *p), vec![3]);
        let noop = |(): &mut (), _: usize, _: &mut ()| {};
        fused_chunked_parts(&par, vec![()], || (), noop, Vec::new(), || (), noop);
        assert!(spawned(&par).is_none(), "a one-chunk dispatch spawned a pool");
        // `ensure_pool` spawns eagerly; `with_pool` is `new` + `ensure_pool`.
        let mut eager = par.clone();
        eager.ensure_pool();
        assert_eq!(spawned(&par).map(|p| p.handles.len()), Some(3));
        assert_eq!(spawned(&Parallelism::with_pool(2)).map(|p| p.handles.len()), Some(1));
    }
}
