//! The job server: bounded admission, worker pool, retry/backoff,
//! checkpoint-resume and halt/restart.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──► Queued ──► Running ──► Done / Degraded
//!    │          │ ▲         │
//!    │          │ └─backoff─┤ recoverable fault (≤ max_attempts)
//!    │          │           └────► Failed (retries exhausted / fatal)
//!    └► rejected└──────────────────► Shed (memory pressure)
//! ```
//!
//! Every admitted job reaches exactly one terminal state. A halted
//! server leaves unfinished jobs in the spool (spec + latest
//! checkpoint); the next [`JobServer::start`] on the same spool picks
//! them up and resumes from the last completed stage — bitwise
//! equivalent to never having been interrupted (estimator congestion
//! mode; see `rdp_core::FlowCheckpoint`).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rdp_core::{FlowCheckpoint, FlowProgress, PlaceError, PlaceOptions, PlaceResult, Placer};
use rdp_eval::{DesignCache, EvalSession};
use rdp_geom::parallel::{chunked_map, DispatchLabel, Parallelism};

use crate::backoff::backoff_delay;
use crate::config::ServerConfig;
use crate::job::{ChaosFault, JobReport, JobSpec, JobStatus, Rejected};
use crate::spool;

/// A running placement job server. Dropping it halts the workers (see
/// [`JobServer::halt`]).
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

struct Inner {
    config: ServerConfig,
    cache: DesignCache,
    state: Mutex<State>,
    /// Signals new/ready work and halt to workers.
    job_cv: Condvar,
    /// Signals terminal status transitions to waiters.
    done_cv: Condvar,
}

#[derive(Default)]
struct State {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    /// Total `num_cells` across queued (not running) jobs.
    queued_cells: usize,
    halt: bool,
}

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    /// Attempts consumed so far.
    attempt: usize,
    submitted: Instant,
    /// Earliest instant the job may (re)start — the backoff gate.
    ready_at: Instant,
    cancel: Arc<AtomicBool>,
    checkpoint: Option<FlowCheckpoint>,
    resumed: bool,
    trail: Vec<String>,
}

/// Everything a worker needs to run one attempt, claimed under the lock.
struct Claim {
    id: u64,
    spec: JobSpec,
    attempt: usize,
    checkpoint: Option<FlowCheckpoint>,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    panic_before: bool,
    panic_kernel: Option<usize>,
}

enum Outcome {
    Finished(Box<PlaceResult>, Option<f64>),
    Interrupted,
    Retryable(String),
    Fatal(String),
}

impl JobServer {
    /// Starts a server. With a spool directory configured, unfinished
    /// jobs from a previous server on the same spool are re-admitted
    /// (keeping their ids) and resume from their last checkpoint.
    pub fn start(config: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            cache: DesignCache::new(),
            state: Mutex::new(State { next_id: 1, ..State::default() }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            config,
        });
        if let Some(dir) = &inner.config.spool_dir {
            let mut st = inner.state.lock().unwrap();
            for (id, spec, checkpoint) in spool::scan(dir) {
                st.next_id = st.next_id.max(id + 1);
                st.queued_cells += spec.gen.num_cells;
                st.jobs.insert(
                    id,
                    JobRecord {
                        spec,
                        status: JobStatus::Queued,
                        attempt: 0,
                        submitted: Instant::now(),
                        ready_at: Instant::now(),
                        cancel: Arc::new(AtomicBool::new(false)),
                        checkpoint,
                        resumed: false,
                        trail: Vec::new(),
                    },
                );
                st.queue.push_back(id);
            }
        }
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rdp-serve-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker")
            })
            .collect();
        JobServer { inner, workers }
    }

    /// Submits a job. Admission control applies: a full queue rejects
    /// with a retry-after hint, and a submission that would push the
    /// queued-cells total past the cap sheds the oldest queued jobs to
    /// make room (they land in terminal [`JobStatus::Shed`]).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Rejected> {
        let inner = &self.inner;
        let cfg = &inner.config;
        let mut st = inner.state.lock().unwrap();
        if st.halt {
            return Err(Rejected::ShuttingDown);
        }
        if spec.gen.num_cells > cfg.max_queued_cells {
            return Err(Rejected::Oversized { max_queued_cells: cfg.max_queued_cells });
        }
        if st.queue.len() >= cfg.queue_capacity {
            // Hint scales with the backlog: the deeper the queue, the
            // longer a client should hold off.
            let retry_after = cfg
                .base_backoff
                .max(Duration::from_millis(1))
                .saturating_mul(st.queue.len().min(u32::MAX as usize) as u32);
            return Err(Rejected::QueueFull { retry_after });
        }
        let mut shed_any = false;
        while st.queued_cells + spec.gen.num_cells > cfg.max_queued_cells {
            let Some(oldest) = st.queue.pop_front() else { break };
            let rec = st.jobs.get_mut(&oldest).expect("queued job has a record");
            let cells = rec.spec.gen.num_cells;
            rec.status = JobStatus::Shed;
            st.queued_cells -= cells;
            if let Some(dir) = &cfg.spool_dir {
                spool::remove_job(dir, oldest);
            }
            shed_any = true;
        }
        let id = st.next_id;
        st.next_id += 1;
        if let Some(dir) = &cfg.spool_dir {
            if let Err(e) = spool::write_spec(dir, id, &spec) {
                eprintln!("[rdp-serve] could not spool job-{id:06}: {e}");
            }
        }
        st.queued_cells += spec.gen.num_cells;
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                attempt: 0,
                submitted: Instant::now(),
                ready_at: Instant::now(),
                cancel: Arc::new(AtomicBool::new(false)),
                checkpoint: None,
                resumed: false,
                trail: Vec::new(),
            },
        );
        st.queue.push_back(id);
        drop(st);
        inner.job_cv.notify_one();
        if shed_any {
            inner.done_cv.notify_all();
        }
        Ok(id)
    }

    /// Current status of a job (cloned snapshot).
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner.state.lock().unwrap().jobs.get(&id).map(|r| r.status.clone())
    }

    /// Stage of the job's latest checkpoint, if any — the point a
    /// restarted server would resume from.
    pub fn checkpoint_stage(&self, id: u64) -> Option<String> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).and_then(|r| r.checkpoint.as_ref().map(|cp| cp.stage.clone()))
    }

    /// Snapshot of every known job as `(id, name, status)`, sorted by id.
    pub fn jobs(&self) -> Vec<(u64, String, JobStatus)> {
        let st = self.inner.state.lock().unwrap();
        let mut out: Vec<_> = st
            .jobs
            .iter()
            .map(|(&id, r)| (id, r.spec.name().to_string(), r.status.clone()))
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Blocks until `id` is terminal and returns its status. Returns the
    /// current (possibly non-terminal) status if the server halts first,
    /// `None` for an unknown id.
    pub fn wait(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let status = st.jobs.get(&id)?.status.clone();
            if status.is_terminal() || st.halt {
                return Some(status);
            }
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Blocks until every admitted job is terminal (or the server halts).
    pub fn wait_all(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while !st.halt && st.jobs.values().any(|r| !r.status.is_terminal()) {
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Halts the server: cancels running jobs at their next stage
    /// boundary, stops the workers and joins them. Unfinished jobs keep
    /// their spool files (spec + latest checkpoint), so a new server on
    /// the same spool directory finishes them from where they stopped.
    pub fn halt(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.halt = true;
            for rec in st.jobs.values() {
                rec.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.inner.job_cv.notify_all();
        self.inner.done_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(inner: Arc<Inner>) {
    // One persistent kernel pool per worker, reused by every flow and
    // score across jobs and attempts: a panicking chunk must leave it
    // usable for the next job.
    let pool = Parallelism::with_pool(inner.config.threads_per_job);
    while let Some(claim) = next_claim(&inner) {
        let id = claim.id;
        let attempt = claim.attempt;
        let outcome = run_attempt(&inner, &pool, claim);
        settle(&inner, id, attempt, outcome);
    }
}

/// Claims the next runnable job, blocking until one is ready (or halt).
fn next_claim(inner: &Inner) -> Option<Claim> {
    let mut st = inner.state.lock().unwrap();
    loop {
        if st.halt {
            return None;
        }
        let now = Instant::now();
        let jobs = &st.jobs;
        if let Some(pos) = st.queue.iter().position(|id| jobs[id].ready_at <= now) {
            let id = st.queue.remove(pos).expect("position is in range");
            let rec = st.jobs.get_mut(&id).expect("queued job has a record");
            rec.attempt += 1;
            rec.status = JobStatus::Running { attempt: rec.attempt };
            rec.resumed |= rec.checkpoint.is_some();
            // Spend one charge of each pending panic fault.
            let mut panic_before = false;
            let mut panic_kernel = None;
            for fault in &mut rec.spec.chaos {
                match fault {
                    ChaosFault::PanicBeforePlace { times } if *times > 0 && !panic_before => {
                        *times -= 1;
                        panic_before = true;
                    }
                    ChaosFault::PanicInKernel { chunk, times }
                        if *times > 0 && panic_kernel.is_none() =>
                    {
                        *times -= 1;
                        panic_kernel = Some(*chunk);
                    }
                    _ => {}
                }
            }
            let claim = Claim {
                id,
                spec: rec.spec.clone(),
                attempt: rec.attempt,
                checkpoint: rec.checkpoint.clone(),
                cancel: Arc::clone(&rec.cancel),
                submitted: rec.submitted,
                panic_before,
                panic_kernel,
            };
            let cells = rec.spec.gen.num_cells;
            st.queued_cells -= cells;
            return Some(claim);
        }
        // Nothing ready: sleep until the nearest backoff gate opens (or
        // indefinitely when the queue is empty).
        let nearest = st
            .queue
            .iter()
            .map(|id| st.jobs[id].ready_at.saturating_duration_since(now))
            .min();
        st = match nearest {
            Some(wait) => {
                inner.job_cv.wait_timeout(st, wait.max(Duration::from_millis(1))).unwrap().0
            }
            None => inner.job_cv.wait(st).unwrap(),
        };
    }
}

/// Runs one attempt outside the lock. Panics (chaos-injected or real)
/// are caught and classified as retryable faults.
fn run_attempt(inner: &Arc<Inner>, pool: &Parallelism, claim: Claim) -> Outcome {
    let label = format!("job-{:06}/{}", claim.id, claim.spec.name());
    let _guard = DispatchLabel::enter(label.clone());
    if let Some(deadline) = inner.config.deadline {
        if claim.submitted.elapsed() >= deadline {
            return Outcome::Fatal(format!(
                "deadline of {deadline:?} expired before attempt {}",
                claim.attempt
            ));
        }
    }
    let caught = catch_unwind(AssertUnwindSafe(|| attempt_body(inner, pool, &claim, &label)));
    #[cfg(feature = "chaos")]
    {
        // Always disarm, even when the attempt panicked mid-flow.
        let _ = rdp_core::faultinject::disarm();
    }
    match caught {
        Ok(outcome) => outcome,
        Err(payload) => Outcome::Retryable(panic_message(payload)),
    }
}

fn attempt_body(inner: &Arc<Inner>, pool: &Parallelism, claim: &Claim, label: &str) -> Outcome {
    if claim.panic_before {
        panic!("chaos: injected worker panic before place ({label})");
    }
    if let Some(chunk) = claim.panic_kernel {
        // Dispatch a poisoned kernel on the shared worker pool: the panic
        // comes back attributed to chunk and job, and the pool must stay
        // usable for every later dispatch.
        let _ = chunked_map(pool, chunk + 2, |i| {
            if i == chunk {
                panic!("chaos: injected kernel panic");
            }
            i
        });
    }
    #[cfg(feature = "chaos")]
    arm_core_faults(&claim.spec.chaos);

    let bench = match inner.cache.get_or_generate(&claim.spec.gen) {
        Ok(b) => b,
        Err(e) => return Outcome::Fatal(format!("benchmark generation failed: {e}")),
    };
    let mut budget = inner.config.budget;
    if let Some(deadline) = inner.config.deadline {
        let remaining = deadline.saturating_sub(claim.submitted.elapsed());
        budget.flow_wall = Some(budget.flow_wall.map_or(remaining, |b| b.min(remaining)));
    }
    let mut opts = PlaceOptions::fast().with_budget(budget);
    opts.gp.parallelism = pool.clone();
    if let Some(schedule) = &inner.config.estimator {
        opts = opts.with_estimator(schedule.clone());
    }

    let mut placer = Placer::new(&bench.design, opts);
    placer = match claim.checkpoint.clone() {
        Some(cp) => placer.resume_from(cp),
        None => placer.with_initial(bench.placement.clone()),
    };
    let sink_inner = Arc::clone(inner);
    let id = claim.id;
    placer = placer.with_cancel(Arc::clone(&claim.cancel)).with_checkpoint_sink(move |cp| {
        if let Some(dir) = &sink_inner.config.spool_dir {
            if let Err(e) = spool::write_checkpoint(dir, id, cp) {
                eprintln!("[rdp-serve] could not spool checkpoint of job-{id:06}: {e}");
            }
        }
        let mut st = sink_inner.state.lock().unwrap();
        if let Some(rec) = st.jobs.get_mut(&id) {
            rec.checkpoint = Some(cp.clone());
        }
    });

    match placer.run_resumable() {
        Ok(FlowProgress::Completed(result)) => {
            let scaled = inner.config.score.then(|| {
                let session = EvalSession::new(&bench.design);
                let mut router = session.router_config();
                router.parallelism = pool.clone();
                session.with_router_config(router).score(&result.placement).scaled_hpwl
            });
            Outcome::Finished(result, scaled)
        }
        Ok(FlowProgress::Interrupted(_)) => Outcome::Interrupted,
        Err(e) => match e {
            PlaceError::Diverged { .. } => Outcome::Retryable(e.to_string()),
            PlaceError::NothingToPlace
            | PlaceError::NoRows
            | PlaceError::BadResume { .. }
            | PlaceError::Interrupted { .. } => Outcome::Fatal(e.to_string()),
        },
    }
}

#[cfg(feature = "chaos")]
fn arm_core_faults(plan: &[ChaosFault]) {
    let faults: Vec<rdp_core::faultinject::Fault> = plan
        .iter()
        .filter_map(|f| match f {
            // Targeted at the final GP stage: it runs before the first
            // checkpoint, so a resumed attempt (which skips that stage)
            // can never re-fire the fault and drift from the
            // uninterrupted trajectory.
            ChaosFault::NanGradient { outer, times } => {
                Some(rdp_core::faultinject::Fault::NanGradient {
                    stage: "gp/final".into(),
                    outer: *outer,
                    times: *times,
                })
            }
            ChaosFault::BudgetExhausted { round } => {
                Some(rdp_core::faultinject::Fault::InflationBudgetExhausted { round: *round })
            }
            _ => None,
        })
        .collect();
    if !faults.is_empty() {
        rdp_core::faultinject::arm(faults);
    }
}

/// Applies an attempt's outcome to the job record under the lock.
fn settle(inner: &Inner, id: u64, attempt: usize, outcome: Outcome) {
    let cfg = &inner.config;
    let mut st = inner.state.lock().unwrap();
    let rec = match st.jobs.get_mut(&id) {
        Some(r) => r,
        None => return,
    };
    let cells = rec.spec.gen.num_cells;
    let mut requeue = false;
    match outcome {
        Outcome::Finished(result, scaled_hpwl) => {
            let report = JobReport {
                hpwl: result.hpwl,
                legal_failures: result.legalize.failed,
                attempts: attempt,
                resumed: rec.resumed,
                degraded: result.degraded.clone(),
                scaled_hpwl,
                placement: result.placement,
            };
            rec.status = if report.degraded.is_some() {
                JobStatus::Degraded(report)
            } else {
                JobStatus::Done(report)
            };
            if let Some(dir) = &cfg.spool_dir {
                spool::remove_job(dir, id);
            }
        }
        Outcome::Interrupted => {
            // Halt in progress: the sink already captured the latest
            // checkpoint (record + spool). Re-queue so the job is not
            // terminal; the successor server resumes it from the spool.
            rec.status = JobStatus::Queued;
            requeue = true;
        }
        Outcome::Retryable(msg) => {
            rec.trail.push(format!("attempt {attempt}: {msg}"));
            if attempt >= cfg.max_attempts {
                rec.status = JobStatus::Failed {
                    reason: msg,
                    attempts: attempt,
                    trail: rec.trail.clone(),
                };
                if let Some(dir) = &cfg.spool_dir {
                    spool::remove_job(dir, id);
                }
            } else {
                rec.ready_at = Instant::now()
                    + backoff_delay(cfg.base_backoff, cfg.max_backoff, cfg.seed, id, attempt);
                rec.status = JobStatus::Queued;
                requeue = true;
            }
        }
        Outcome::Fatal(msg) => {
            rec.trail.push(format!("attempt {attempt}: {msg}"));
            rec.status = JobStatus::Failed {
                reason: msg,
                attempts: attempt,
                trail: rec.trail.clone(),
            };
            if let Some(dir) = &cfg.spool_dir {
                spool::remove_job(dir, id);
            }
        }
    }
    if requeue {
        st.queue.push_back(id);
        st.queued_cells += cells;
    }
    drop(st);
    inner.done_cv.notify_all();
    inner.job_cv.notify_all();
}
