//! The session job service: a persistent worker pool over an MPMC queue.
//!
//! Every [`crate::Compiler`] owns one [`JobService`]. Worker threads are
//! spawned on demand, up to `min(configured bound, outstanding jobs)`
//! (sessions that never submit spawn nothing; a one-job session runs one
//! worker even on a many-core box) and live until the session is
//! dropped; the drop cancels every still-queued job, wakes all waiters,
//! and joins the pool — no detached threads, no deadlock
//! (regression-tested in `tests/service_jobs.rs`).
//!
//! Workers pull [`crate::BatchJob`]s from a shared FIFO queue, compile
//! them against the session's shared state (topology registry + result
//! cache), and publish the outcome through the job's
//! [`crate::JobHandle`]. A panicking compilation marks its job
//! [`crate::JobStatus::Failed`] with the panic message and the worker
//! survives to serve the next job. Queue occupancy and lifecycle counters
//! are tracked exactly in [`ServiceMetrics`].

use crate::batch::BatchJob;
use crate::jobs::{CompletionQueue, JobHandle, JobId, JobState, JobStatus};
use crate::pipeline::TopologyCache;
use crate::session::SessionState;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Exact lifecycle counters of a session's job service.
///
/// Every submitted job is counted in exactly one of `queued`, `running`,
/// `completed`, `cancelled` or `failed`, and
/// `queued + running + completed + cancelled + failed == submitted` at
/// every quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceMetrics {
    /// Jobs ever submitted to this session.
    pub submitted: u64,
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently being compiled.
    pub running: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs cancelled while still queued.
    pub cancelled: u64,
    /// Jobs whose compilation panicked.
    pub failed: u64,
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submitted: {} queued / {} running / {} completed / {} cancelled / {} failed",
            self.submitted, self.queued, self.running, self.completed, self.cancelled, self.failed
        )
    }
}

/// One queued unit of work.
#[derive(Debug)]
struct QueuedJob {
    id: JobId,
    job: BatchJob,
    /// The job's topology cache, when the submitter already resolved it
    /// (the batch wrapper does): the worker then neither re-hashes the
    /// topology nor consults the registry, so even a batch spanning more
    /// distinct topologies than the registry holds never rebuilds a cache
    /// inside the timed compile phase. `None` resolves through the
    /// session's registry on the worker.
    tcache: Option<Arc<TopologyCache>>,
    state: Arc<JobState>,
}

/// The FIFO queue plus the flags workers synchronize on.
#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
    paused: bool,
}

/// Terminal-state counters (queue occupancy is derived from these plus the
/// submit counter, so a snapshot is internally consistent by construction).
#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    running: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
}

/// Queue + metrics shared between the session, its workers, and every
/// outstanding [`JobHandle`].
#[derive(Debug, Default)]
pub(crate) struct ServiceInner {
    queue: Mutex<QueueState>,
    work: Condvar,
    counters: Mutex<Counters>,
    next_id: AtomicU64,
}

impl ServiceInner {
    pub(crate) fn note_cancelled(&self) {
        self.counters
            .lock()
            .expect("service counters poisoned")
            .cancelled += 1;
    }

    fn metrics(&self) -> ServiceMetrics {
        let c = self.counters.lock().expect("service counters poisoned");
        ServiceMetrics {
            submitted: c.submitted,
            queued: c
                .submitted
                .saturating_sub(c.running + c.completed + c.cancelled + c.failed),
            running: c.running,
            completed: c.completed,
            cancelled: c.cancelled,
            failed: c.failed,
        }
    }
}

/// The session-owned handle to the pool: shared queue state plus the
/// worker join handles.
#[derive(Debug, Default)]
pub(crate) struct JobService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobService {
    pub(crate) fn new() -> Self {
        JobService::default()
    }

    /// Enqueues `job` and returns its handle, growing the worker pool to
    /// match outstanding demand (never past the session's worker bound).
    pub(crate) fn submit(
        &self,
        session: &Arc<SessionState>,
        job: BatchJob,
        tcache: Option<Arc<TopologyCache>>,
        watcher: Option<CompletionQueue>,
    ) -> JobHandle {
        let id = JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let state = Arc::new(JobState::new(watcher));
        let label = job.label.clone();
        let outstanding = {
            let mut c = self
                .inner
                .counters
                .lock()
                .expect("service counters poisoned");
            c.submitted += 1;
            c.submitted - (c.completed + c.cancelled + c.failed)
        };
        {
            let mut queue = self.inner.queue.lock().expect("service queue poisoned");
            queue.jobs.push_back(QueuedJob {
                id,
                job,
                tcache,
                state: Arc::clone(&state),
            });
        }
        self.ensure_workers(session, outstanding);
        self.inner.work.notify_one();
        JobHandle {
            id,
            label,
            state,
            service: Arc::clone(&self.inner),
        }
    }

    /// Grows the pool to `min(session bound, outstanding jobs)` threads —
    /// demand-driven, so a session that only ever submits one job at a
    /// time runs one worker even when the autodetected bound is a
    /// 128-core machine, while a big batch ramps the pool up as its
    /// submits land. Workers are never retired before shutdown; the pool
    /// only grows.
    fn ensure_workers(&self, session: &Arc<SessionState>, outstanding: u64) {
        let bound = session.workers.max(1);
        let target = bound
            .min(usize::try_from(outstanding).unwrap_or(bound))
            .max(1);
        let mut workers = self.workers.lock().expect("service workers poisoned");
        while workers.len() < target {
            let session = Arc::clone(session);
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("qompress-worker-{}", workers.len()))
                .spawn(move || worker_loop(session, inner))
                .expect("spawn job-service worker");
            workers.push(handle);
        }
    }

    pub(crate) fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics()
    }

    /// Jobs sitting in the FIFO right now — unclaimed work, including
    /// entries cancelled while queued that no worker has skipped past
    /// yet. An exact instantaneous probe (one lock, no counter drift),
    /// cheap enough to sample on every admission decision.
    pub(crate) fn queue_depth(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("service queue poisoned")
            .jobs
            .len()
    }

    /// Worker threads currently spawned (test-only introspection).
    #[cfg(test)]
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.lock().expect("service workers poisoned").len()
    }

    /// Stops workers from claiming further jobs (in-flight compilations
    /// finish normally). Queued jobs stay queued and cancellable.
    pub(crate) fn pause(&self) {
        self.inner
            .queue
            .lock()
            .expect("service queue poisoned")
            .paused = true;
    }

    /// Resumes claiming after [`JobService::pause`].
    pub(crate) fn resume(&self) {
        {
            let mut queue = self.inner.queue.lock().expect("service queue poisoned");
            queue.paused = false;
        }
        self.inner.work.notify_all();
    }

    /// Cancels every still-queued job, wakes all workers and waiters, and
    /// joins the pool. Idempotent; called from the session's `Drop`.
    pub(crate) fn shutdown(&self) {
        let drained: Vec<QueuedJob> = {
            let mut queue = self.inner.queue.lock().expect("service queue poisoned");
            queue.shutdown = true;
            queue.jobs.drain(..).collect()
        };
        self.inner.work.notify_all();
        for rec in drained {
            // The shared cancellation protocol: only a still-queued job
            // flips (a handle may have cancelled it already — the helper
            // then touches nothing, so nothing is double-counted).
            let _ = rec.state.cancel_if_queued(rec.id, &self.inner);
        }
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("service workers poisoned")
            .drain(..)
            .collect();
        for handle in workers {
            handle.join().expect("job-service worker panicked");
        }
    }
}

/// The worker body: claim, compile (panic-isolated), publish, repeat.
fn worker_loop(session: Arc<SessionState>, inner: Arc<ServiceInner>) {
    loop {
        let rec = {
            let mut queue = inner.queue.lock().expect("service queue poisoned");
            loop {
                if queue.shutdown {
                    return;
                }
                if !queue.paused {
                    if let Some(rec) = queue.jobs.pop_front() {
                        break rec;
                    }
                }
                queue = inner.work.wait(queue).expect("service queue poisoned");
            }
        };

        // Claim: a job cancelled while queued is skipped without touching
        // any shared session state (its watcher was notified by `cancel`).
        let claimed = {
            let mut state = rec.state.inner.lock().expect("job state poisoned");
            if state.status == JobStatus::Cancelled {
                false
            } else {
                state.status = JobStatus::Running;
                true
            }
        };
        if !claimed {
            continue;
        }
        inner
            .counters
            .lock()
            .expect("service counters poisoned")
            .running += 1;

        // Panic isolation: a job whose compilation panics (circuit too
        // large for its topology, internal assertion, …) becomes a
        // `Failed` outcome instead of killing the worker. The session's
        // locks are only held inside short, panic-free critical sections
        // (every session cache builds its values outside its lock), so no
        // lock is poisoned by an unwinding compilation.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tcache = rec
                .tcache
                .clone()
                .unwrap_or_else(|| session.topology_cache(&rec.job.topology));
            session.compile_queued_job(&rec.job, &tcache)
        }));
        match outcome {
            Ok(result) => {
                {
                    let mut c = inner.counters.lock().expect("service counters poisoned");
                    c.running -= 1;
                    c.completed += 1;
                }
                rec.state
                    .finish(rec.id, JobStatus::Done, Some(result), None);
            }
            Err(payload) => {
                {
                    let mut c = inner.counters.lock().expect("service counters poisoned");
                    c.running -= 1;
                    c.failed += 1;
                }
                rec.state
                    .finish(rec.id, JobStatus::Failed, None, Some(panic_text(&payload)));
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobOutcome;
    use crate::session::Compiler;
    use crate::strategies::Strategy;
    use qompress_arch::Topology;
    use qompress_circuit::{Circuit, Gate};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(0));
        for i in 0..n - 1 {
            c.push(Gate::cx(i, i + 1));
        }
        c
    }

    fn job(label: &str, n: usize) -> BatchJob {
        BatchJob::new(label, ghz(n), Strategy::Eqm, Topology::grid(n))
    }

    #[test]
    fn submit_wait_matches_direct_compile() {
        let session = Compiler::builder().workers(2).build();
        let handle = session.submit(job("ghz5", 5));
        assert_eq!(handle.id(), JobId(1));
        assert_eq!(handle.label(), "ghz5");
        let outcome = handle.wait();
        let result = outcome.result().expect("job must succeed").clone();
        // The service compiled through the shared session state, so the
        // direct session compile of the same job is a cache hit on the
        // very same Arc.
        let direct = session.compile(&ghz(5), &Topology::grid(5), Strategy::Eqm);
        assert!(Arc::ptr_eq(&result, &direct));
        assert!(handle.status().is_terminal());
        assert!(matches!(handle.poll(), Some(JobOutcome::Done(_))));
    }

    #[test]
    fn metrics_count_every_state_exactly() {
        let session = Compiler::builder().workers(1).build();
        assert_eq!(session.service_metrics(), ServiceMetrics::default());
        session.pause_workers();
        let a = session.submit(job("a", 4));
        let b = session.submit(job("b", 4));
        let m = session.service_metrics();
        assert_eq!((m.submitted, m.queued, m.running), (2, 2, 0));
        assert!(b.cancel());
        assert!(!b.cancel(), "cancel is not double-counted");
        let m = session.service_metrics();
        assert_eq!((m.queued, m.cancelled), (1, 1));
        session.resume_workers();
        assert!(a.wait().result().is_some());
        let m = session.service_metrics();
        assert_eq!(
            (m.submitted, m.queued, m.running, m.completed, m.cancelled),
            (2, 0, 0, 1, 1)
        );
        assert_eq!(
            m.queued + m.running + m.completed + m.cancelled + m.failed,
            m.submitted
        );
        let text = format!("{m}");
        assert!(text.contains("2 submitted"), "{text}");
        assert!(text.contains("1 cancelled"), "{text}");
    }

    #[test]
    fn queue_depth_tracks_unclaimed_work() {
        let session = Compiler::builder().workers(1).build();
        assert_eq!(session.queue_depth(), 0);
        session.pause_workers();
        let a = session.submit(job("a", 4));
        let b = session.submit(job("b", 4));
        assert_eq!(session.queue_depth(), 2);
        // A job cancelled while queued stays in the FIFO until a worker
        // skips past it, so the depth probe still counts it: depth is
        // "entries a worker must step over", the honest admission signal.
        assert!(b.cancel());
        assert_eq!(session.queue_depth(), 2);
        session.resume_workers();
        assert!(a.wait().result().is_some());
        assert!(matches!(b.wait(), JobOutcome::Cancelled));
        // Both entries drain (one compiled, one skipped) — but the skip
        // happens after `a`'s completion is published, so poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while session.queue_depth() != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(session.queue_depth(), 0);
    }

    #[test]
    fn watched_jobs_stream_in_completion_order() {
        let session = Compiler::builder().workers(1).build();
        let watcher = CompletionQueue::new();
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(
                session
                    .submit_watched(job(&format!("j{i}"), 4), &watcher)
                    .id(),
            );
        }
        // One worker, FIFO queue: completion order == submit order here.
        for id in ids {
            assert_eq!(watcher.pop(), Some(id));
        }
        assert!(watcher.is_empty());
    }

    #[test]
    fn failed_jobs_do_not_kill_the_pool() {
        let session = Compiler::builder().workers(1).build();
        // 6 qubits on a 2-node line cannot be placed: the mapping panics.
        let poisoned = session.submit(BatchJob::new(
            "too-big",
            ghz(6),
            Strategy::QubitOnly,
            Topology::line(2),
        ));
        match poisoned.wait() {
            JobOutcome::Failed(message) => {
                assert!(!message.is_empty());
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(poisoned.status(), JobStatus::Failed);
        // The same worker thread serves the next job.
        let ok = session.submit(job("fine", 4));
        assert!(ok.wait().result().is_some());
        let m = session.service_metrics();
        assert_eq!((m.failed, m.completed), (1, 1));
    }

    #[test]
    fn cancel_races_claim_safely() {
        // Repeatedly cancel right after submit on a running pool: each job
        // must end up exactly Done or Cancelled, and the metrics must
        // account for every submission.
        let session = Compiler::builder().workers(2).build();
        let mut handles = Vec::new();
        for i in 0..24 {
            let h = session.submit(job(&format!("race-{i}"), 4));
            h.cancel();
            handles.push(h);
        }
        for h in &handles {
            match h.wait() {
                JobOutcome::Done(_) | JobOutcome::Cancelled => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let m = session.service_metrics();
        assert_eq!(m.submitted, 24);
        assert_eq!(m.completed + m.cancelled, 24);
        assert_eq!((m.queued, m.running, m.failed), (0, 0, 0));
    }

    #[test]
    fn panic_text_extracts_common_payloads() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_text(&*boxed), "literal");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_text(&*boxed), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_text(&*boxed), "job panicked");
    }
}
