//! The one job executor: runs a batch of independent jobs with panic
//! isolation, bounded retry and an optional watchdog deadline, and
//! returns one [`JobOutcome`] per job, in submission order.
//!
//! Every job runs under [`catch_unwind`](std::panic::catch_unwind). A
//! panicking job is retried in place, after an exponential backoff, up
//! to [`Supervisor::retries`] times, and only then reported as
//! [`JobOutcome::Panicked`]. Where jobs run depends on whether a
//! deadline is armed:
//!
//! - **No deadline** (the default): at most `threads` workers, the
//!   calling thread among them, claim jobs from an atomic cursor, so a
//!   long job never holds up the short ones behind it. The extra workers
//!   are scoped threads, joined before [`run_supervised`] returns; at
//!   `threads <= 1` every job runs inline on the caller and no thread is
//!   spawned (DESIGN.md §7.2 gives the memory measurements behind this).
//! - **Deadline armed** ([`Supervisor::deadline`], by default the
//!   `CMPSIM_CELL_DEADLINE_MS` knob): each job gets its own detached thread,
//!   because a hung job cannot be killed from safe Rust. A job whose
//!   current attempt outlives the deadline is **abandoned**: its thread
//!   keeps running (and is leaked) while the supervisor records
//!   [`JobOutcome::TimedOut`] and moves on. This is why jobs carry
//!   `'static` bounds. Timed-out jobs are never retried: a deterministic
//!   job that hung once will hang again, and retrying would leak another
//!   thread.
//!
//! Determinism: scheduling decides only *when* a job runs, never *what*
//! it computes, so for pure jobs the `Ok` results are bit-identical at
//! any `threads` count, with or without a deadline.

use crate::knobs::knobs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The terminal state of one supervised job.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job (or one of its retries) returned a value.
    Ok(T),
    /// Every permitted attempt panicked; `payload` is the final panic
    /// message and `attempts` the number of attempts made.
    Panicked {
        /// Rendered payload of the last panic (`&str`/`String` payloads
        /// verbatim, otherwise a placeholder).
        payload: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The job exceeded the watchdog deadline and was abandoned.
    TimedOut {
        /// Time the job's last attempt had been running when it was
        /// abandoned.
        elapsed: Duration,
    },
}

impl<T> JobOutcome<T> {
    /// Whether the job produced a value.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The value, if the job succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Supervision policy for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Maximum concurrently running jobs (min 1).
    pub threads: usize,
    /// Per-attempt soft deadline; `None` disables the watchdog and runs
    /// jobs on scoped workers. Defaults to the `CMPSIM_CELL_DEADLINE_MS`
    /// knob.
    pub deadline: Option<Duration>,
    /// Retries after a panicked first attempt (0 = fail fast).
    pub retries: u32,
    /// Backoff before retry `k` (1-based): `backoff * 2^(k-1)`.
    pub backoff: Duration,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::with_threads(default_threads())
    }
}

impl Supervisor {
    /// Default policy with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Supervisor {
            threads,
            deadline: knobs().cell_deadline,
            retries: 0,
            backoff: Duration::from_millis(20),
        }
    }

    /// Runs `job` on the current thread until it returns or exhausts its
    /// retries. `on_retry` runs as each retry begins, before its backoff.
    fn attempt<T>(&self, job: &impl Fn() -> T, mut on_retry: impl FnMut()) -> JobOutcome<T> {
        let mut attempts = 1;
        loop {
            match catch_unwind(AssertUnwindSafe(job)) {
                Ok(v) => return JobOutcome::Ok(v),
                Err(payload) if attempts > self.retries => {
                    let payload = panic_payload_string(&*payload);
                    return JobOutcome::Panicked { payload, attempts };
                }
                Err(_) => {
                    on_retry();
                    thread::sleep(self.backoff * 2u32.saturating_pow(attempts - 1));
                    attempts += 1;
                }
            }
        }
    }
}

/// Number of workers to use by default: the `CMPSIM_THREADS` knob,
/// else the machine's available parallelism.
pub fn default_threads() -> usize {
    knobs()
        .threads
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Renders a panic payload for reporting.
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs every job under supervision and returns one [`JobOutcome`] per
/// job, in submission order.
///
/// - A panicking job is caught; with `cfg.retries > 0` it is re-run
///   (after backoff) up to the retry budget, and only then reported as
///   [`JobOutcome::Panicked`].
/// - With `cfg.deadline` set, a job whose attempt is still running after
///   the deadline is abandoned (its thread leaks) and reported as
///   [`JobOutcome::TimedOut`]; its slot is immediately reused for the
///   next job.
/// - All other jobs are unaffected by a neighbour's panic or hang.
pub fn run_supervised<T, F>(cfg: &Supervisor, jobs: Vec<F>) -> Vec<JobOutcome<T>>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    match cfg.deadline {
        None => run_scoped(cfg, &jobs),
        Some(deadline) => run_detached(cfg, deadline, jobs),
    }
}

/// No deadline: the caller and up to `threads - 1` scoped threads claim
/// jobs from one atomic cursor.
fn run_scoped<T: Send, F: Fn() -> T + Sync>(cfg: &Supervisor, jobs: &[F]) -> Vec<JobOutcome<T>> {
    let outcomes: Vec<Mutex<Option<JobOutcome<T>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        let outcome = cfg.attempt(job, || {});
        *outcomes[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
    };
    thread::scope(|s| {
        for _ in 1..cfg.threads.min(jobs.len()) {
            // A failed spawn only narrows the pool: the caller's own
            // `work()` below drains the cursor either way.
            let _ = thread::Builder::new()
                .name("cmpsim-worker".into())
                .spawn_scoped(s, work);
        }
        work();
    });
    outcomes
        .into_iter()
        .map(|o| {
            o.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed job records its outcome")
        })
        .collect()
}

/// Deadline armed: one detached thread per job, at most `threads` at a
/// time, each attempt watched against `deadline`.
fn run_detached<T, F>(cfg: &Supervisor, deadline: Duration, jobs: Vec<F>) -> Vec<JobOutcome<T>>
where
    T: Send + 'static,
    F: Fn() -> T + Send + 'static,
{
    let mut outcomes: Vec<Option<JobOutcome<T>>> = jobs.iter().map(|_| None).collect();
    // `(index, None)` reports a retry beginning, which restarts that
    // job's deadline clock; `(index, Some(_))` is its final outcome.
    let (tx, rx) = mpsc::channel::<(usize, Option<JobOutcome<T>>)>();
    let mut queued = jobs.into_iter().enumerate();
    // `(index, attempt start)` of every job on a live thread.
    let mut running: Vec<(usize, Instant)> = Vec::new();
    loop {
        while running.len() < cfg.threads.max(1) {
            let Some((index, job)) = queued.next() else { break };
            let (tx, policy) = (tx.clone(), cfg.clone());
            let spawned = thread::Builder::new()
                .name(format!("cmpsim-supervised-{index}"))
                .spawn(move || {
                    let outcome = policy.attempt(&job, || {
                        let _ = tx.send((index, None));
                    });
                    // The supervisor may have abandoned us; ignore send errors.
                    let _ = tx.send((index, Some(outcome)));
                });
            match spawned {
                Ok(_) => running.push((index, Instant::now())),
                Err(e) => {
                    // Spawn failure (resource exhaustion): report like a panic.
                    let payload = format!("failed to spawn worker thread: {e}");
                    outcomes[index] = Some(JobOutcome::Panicked { payload, attempts: 1 });
                }
            }
        }
        // Nothing running after the refill means nothing is queued either.
        let Some(expiry) = running.iter().map(|&(_, started)| started + deadline).min() else {
            break;
        };
        match rx.recv_timeout(expiry.saturating_duration_since(Instant::now())) {
            Ok((index, msg)) => {
                // Messages from an abandoned job are dropped: its
                // recorded timeout stands.
                let Some(pos) = running.iter().position(|&(i, _)| i == index) else {
                    continue;
                };
                match msg {
                    None => running[pos].1 = Instant::now(),
                    Some(outcome) => {
                        running.swap_remove(pos);
                        outcomes[index] = Some(outcome);
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                running.retain(|&(index, started)| {
                    let elapsed = now.duration_since(started);
                    if elapsed < deadline {
                        return true;
                    }
                    outcomes[index] = Some(JobOutcome::TimedOut { elapsed });
                    false
                });
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the supervisor holds a sender")
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every job has a recorded outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::Arc;

    /// The same policy on both executor paths: scoped workers (no
    /// deadline) and detached threads under a watchdog that never fires.
    fn both_paths(threads: usize) -> [Supervisor; 2] {
        let scoped = Supervisor {
            threads,
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(1),
        };
        let watched = Supervisor { deadline: Some(Duration::from_secs(60)), ..scoped.clone() };
        [scoped, watched]
    }

    fn values<T>(out: Vec<JobOutcome<T>>) -> Vec<T> {
        out.into_iter()
            .map(|o| o.ok().expect("every job should have succeeded"))
            .collect()
    }

    #[test]
    fn all_ok_in_submission_order() {
        for cfg in both_paths(4) {
            let jobs: Vec<_> = (0..32u64).map(|i| move || i * 3).collect();
            let out = values(run_supervised(&cfg, jobs));
            assert_eq!(out, (0..32u64).map(|i| i * 3).collect::<Vec<_>>(), "{cfg:?}");
        }
    }

    #[test]
    fn preserves_submission_order_at_64_jobs_on_8_threads() {
        for cfg in both_paths(8) {
            let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
            let out = values(run_supervised(&cfg, jobs));
            assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>(), "{cfg:?}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || {
            (0..50u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9).rotate_left(7))
                .collect::<Vec<_>>()
        };
        let serial = values(run_supervised(&both_paths(1)[0], make()));
        for threads in [1, 4, 16] {
            for cfg in both_paths(threads) {
                assert_eq!(serial, values(run_supervised(&cfg, make())), "{cfg:?}");
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        for cfg in both_paths(7) {
            let count = Arc::new(AtomicU64::new(0));
            let jobs: Vec<_> = (0..100)
                .map(|_| {
                    let count = Arc::clone(&count);
                    move || count.fetch_add(1, Ordering::Relaxed)
                })
                .collect();
            let out = run_supervised(&cfg, jobs);
            assert!(out.iter().all(JobOutcome::is_ok), "{cfg:?}");
            assert_eq!(count.load(Ordering::Relaxed), 100, "{cfg:?}");
        }
    }

    #[test]
    fn zero_threads_still_runs_every_job() {
        for cfg in both_paths(0) {
            let out = values(run_supervised(&cfg, vec![|| 1, || 2]));
            assert_eq!(out, vec![1, 2], "{cfg:?}");
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        for cfg in both_paths(32) {
            let out = values(run_supervised(&cfg, vec![|| 1u8, || 2, || 3]));
            assert_eq!(out, vec![1, 2, 3], "{cfg:?}");
        }
    }

    #[test]
    fn single_thread_without_deadline_runs_on_the_caller() {
        let [scoped, _] = both_paths(1);
        let caller = thread::current().id();
        let jobs: Vec<_> = (0..4).map(|_| || thread::current().id()).collect();
        let ran_on = values(run_supervised(&scoped, jobs));
        assert!(ran_on.iter().all(|&id| id == caller), "no thread may be spawned: {ran_on:?}");
    }

    #[test]
    fn panicking_job_degrades_only_itself() {
        for cfg in both_paths(4) {
            let jobs: Vec<Box<dyn Fn() -> u64 + Send + Sync>> = (0..8u64)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("job three is bad");
                        }
                        i
                    }) as _
                })
                .collect();
            let out = run_supervised(&cfg, jobs);
            for (i, o) in out.iter().enumerate() {
                if i == 3 {
                    match o {
                        JobOutcome::Panicked { payload, attempts } => {
                            assert!(payload.contains("job three is bad"), "payload: {payload}");
                            assert_eq!(*attempts, 1);
                        }
                        other => panic!("expected panic outcome, got {other:?}"),
                    }
                } else {
                    assert!(o.is_ok(), "job {i} should have succeeded: {o:?} ({cfg:?})");
                }
            }
        }
    }

    #[test]
    fn slow_job_times_out_while_others_complete() {
        let cfg = Supervisor {
            threads: 4,
            deadline: Some(Duration::from_millis(50)),
            retries: 0,
            backoff: Duration::from_millis(1),
        };
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        // Far past the deadline; the thread is abandoned.
                        thread::sleep(Duration::from_secs(30));
                    }
                    i
                }) as _
            })
            .collect();
        let t0 = Instant::now();
        let out = run_supervised(&cfg, jobs);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "supervisor must not wait for the hung job"
        );
        for (i, o) in out.iter().enumerate() {
            if i == 2 {
                match o {
                    JobOutcome::TimedOut { elapsed } => {
                        assert!(*elapsed >= Duration::from_millis(50));
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
            } else {
                assert!(o.is_ok(), "job {i} should have succeeded: {o:?}");
            }
        }
    }

    #[test]
    fn retry_until_success() {
        for cfg in both_paths(4) {
            let failures = Arc::new(AtomicU32::new(0));
            let counter = Arc::clone(&failures);
            let cfg = Supervisor { retries: 3, ..cfg };
            let jobs = vec![move || {
                if counter.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                99
            }];
            let out = run_supervised(&cfg, jobs);
            assert_eq!(out.len(), 1);
            match &out[0] {
                JobOutcome::Ok(v) => assert_eq!(*v, 99),
                other => panic!("expected success after retries, got {other:?}"),
            }
            assert_eq!(failures.load(Ordering::SeqCst), 3, "two failures + one success");
        }
    }

    #[test]
    fn retries_are_bounded() {
        for cfg in both_paths(4) {
            let attempts = Arc::new(AtomicU32::new(0));
            let counter = Arc::clone(&attempts);
            let cfg = Supervisor { retries: 2, ..cfg };
            let jobs = vec![move || -> u32 {
                counter.fetch_add(1, Ordering::SeqCst);
                panic!("always fails");
            }];
            let out = run_supervised(&cfg, jobs);
            match &out[0] {
                JobOutcome::Panicked { attempts, .. } => assert_eq!(*attempts, 3),
                other => panic!("expected exhausted retries, got {other:?}"),
            }
            assert_eq!(attempts.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn single_thread_still_supervises() {
        for cfg in both_paths(1) {
            let jobs: Vec<_> = (0..5u64).map(|i| move || i).collect();
            let out = run_supervised(&cfg, jobs);
            assert_eq!(
                out.into_iter().filter_map(JobOutcome::ok).collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4]
            );
        }
    }

    #[test]
    fn empty_batch() {
        for cfg in both_paths(4) {
            let out: Vec<JobOutcome<u8>> = run_supervised(&cfg, Vec::<fn() -> u8>::new());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn payload_rendering() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_payload_string(&*boxed), "literal");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_payload_string(&*boxed), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_payload_string(&*boxed), "<non-string panic payload>");
    }
}
