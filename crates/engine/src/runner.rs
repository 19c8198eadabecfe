//! The deterministic parallel Monte-Carlo trial runner.
//!
//! A *cell* is one experimental condition (model × size × searcher ×
//! policy); measuring it means running `trials` independent repetitions
//! and aggregating. The runner shards trials across scoped worker
//! threads while keeping the result **bit-identical for any worker
//! count**, because both sources of nondeterminism are pinned down:
//!
//! * **Randomness** — trial `t` always draws from
//!   [`trial_seeds`]`(seeds, t)`, a [`SeedSequence`] derived from the
//!   trial index alone. Which worker runs the trial is irrelevant.
//! * **Aggregation order** — workers stream `(trial, measurement)` pairs
//!   through a channel to a consumer that holds a small reorder buffer
//!   and folds measurements into [`StreamingStats`] in strict trial
//!   order. No per-trial `Vec` of samples is ever materialized, and a
//!   backpressure window stops workers from racing more than
//!   O(workers) trials past the fold frontier — so even a pathological
//!   straggler trial keeps memory at O(window), not O(trials).

use crate::faults::{FailurePolicy, FaultInjection, InjectedFault};
use nonsearch_analysis::StreamingStats;
use nonsearch_generators::SeedSequence;
use nonsearch_obs::{elapsed_ns, Metrics, PhaseTimes};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything one trial reports back besides its lane measurements:
/// work counters, phase timers, and heap-allocation counts — the
/// payload of the observed runner seam ([`run_lanes_observed`]).
///
/// Like [`Metrics`] it is plain `Copy` data merged by field-wise
/// addition in strict trial order. The `metrics` half is exact and
/// deterministic; `phases` and `allocations` are wall-clock /
/// environment data that vary run to run and must only ever ride
/// volatile (`"type":"resource"`) record lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TrialObs {
    /// Deterministic work counters (merged bit-identically).
    pub metrics: Metrics,
    /// Nanosecond phase timers (volatile; per-worker busy time).
    pub phases: PhaseTimes,
    /// Heap allocations during trial bodies, harvested from the
    /// per-thread `nonsearch_alloc_counter` — zero unless the binary
    /// installs the counting allocator.
    pub allocations: u64,
    /// Set when the cell's watchdog deadline fired and the run was
    /// abandoned gracefully: the aggregates cover only the strict
    /// prefix of trials folded before the deadline. Always `false`
    /// unless a fault bundle with a `cell_deadline_ms` was installed
    /// (see [`crate::install_faults`]).
    pub degraded: bool,
}

impl TrialObs {
    /// An all-zero bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every counter, phase, and allocation of `other` into `self`
    /// (and ORs the degraded flag: a merge of any degraded bundle is
    /// degraded).
    pub fn merge(&mut self, other: &TrialObs) {
        self.metrics.merge(&other.metrics);
        self.phases.merge(&other.phases);
        self.allocations += other.allocations;
        self.degraded |= other.degraded;
    }
}

/// One trial's contribution to a lane: a scalar measurement plus a
/// success flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMeasure {
    /// The measured quantity (for searches: the request count).
    pub value: f64,
    /// Whether the trial counts as a success (for searches: target found
    /// within budget).
    pub success: bool,
}

impl TrialMeasure {
    /// Convenience constructor from a request count and a found flag.
    pub fn new(value: f64, success: bool) -> TrialMeasure {
        TrialMeasure { value, success }
    }
}

/// The streaming aggregate of one lane of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneAggregate {
    /// Moments of the measured values.
    pub stats: StreamingStats,
    /// How many trials succeeded.
    pub successes: u64,
}

impl LaneAggregate {
    /// Number of trials aggregated.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean measurement.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// 95% CI half-width of the mean.
    pub fn ci95(&self) -> f64 {
        self.stats.ci95_half_width()
    }

    /// Fraction of successful trials (`0.0` when empty).
    pub fn success_rate(&self) -> f64 {
        if self.stats.is_empty() {
            0.0
        } else {
            self.successes as f64 / self.stats.count() as f64
        }
    }

    fn push(&mut self, m: TrialMeasure) {
        self.stats.push(m.value);
        self.successes += m.success as u64;
    }
}

/// The canonical per-trial seed derivation: trial `t` of a cell rooted
/// at `seeds` draws from `seeds.subsequence(t)`.
///
/// This matches what the pre-engine sequential loops did, so ported
/// experiments reproduce their historical numbers; and because it
/// depends only on the trial index, work-stealing cannot perturb any
/// stream (the engine's proptest suite asserts the derived roots never
/// collide across a sweep's trials).
pub fn trial_seeds(seeds: &SeedSequence, trial: usize) -> SeedSequence {
    seeds.subsequence(trial as u64)
}

/// Locks the backpressure gate, recovering from poisoning.
///
/// The guarded state is a plain `(folded count, aborted flag)` pair
/// mutated only by single assignments, so a panic while a thread holds
/// the lock cannot leave it torn — recovering the guard is sound, and
/// it keeps a *contained* worker panic (see [`crate::install_faults`])
/// from cascading into a secondary "poisoned lock" panic.
fn lock_gate<'a>(frontier: &'a Mutex<(usize, bool)>) -> MutexGuard<'a, (usize, bool)> {
    frontier.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs one trial *contained* — the path of every trial: each attempt
/// is wrapped in `catch_unwind`, the bundle's hook may inject a fault
/// ahead of the body, and its [`FailurePolicy`] decides whether a
/// panicking attempt propagates, retries, or skips the trial. The
/// allocation delta is read from this worker thread's own counter, so
/// concurrent workers never see each other's allocations.
///
/// Returns `(Some(measures), delta)` for a (possibly retried) success —
/// the delta carries the attempt's counters plus the fault bookkeeping —
/// or `(None, delta)` for a skipped trial, whose delta carries only the
/// fault counters (`trials_skipped = 1`, nothing else). Retried
/// attempts re-derive the trial's seed stream from the trial index, and
/// injected faults fire *before* the body, so a successful retry is
/// bit-identical to a fault-free execution of the same trial.
fn run_contained<C, F>(
    cfg: &FaultInjection,
    ctx: &mut C,
    trial_fn: &F,
    trial: usize,
    seeds: &SeedSequence,
) -> (Option<Vec<TrialMeasure>>, TrialObs)
where
    F: Fn(&mut C, &mut TrialObs, usize, SeedSequence) -> Vec<TrialMeasure> + Sync,
{
    let mut injected = 0u64;
    let mut retried = 0u64;
    let mut attempt = 0u32;
    loop {
        // A fresh delta per attempt: a failed attempt's partial counters
        // are discarded wholesale, so retries cannot double-count.
        let mut delta = TrialObs::new();
        let fault = cfg.hook.as_ref().and_then(|hook| hook(trial, attempt));
        injected += fault.is_some() as u64;
        let allocs_before = nonsearch_alloc_counter::allocations();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(InjectedFault::Stall { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Some(InjectedFault::Panic) => {
                    panic!("injected fault: trial {trial} attempt {attempt}");
                }
                None => {}
            }
            trial_fn(ctx, &mut delta, trial, trial_seeds(seeds, trial))
        }));
        match outcome {
            Ok(measures) => {
                delta.allocations +=
                    nonsearch_alloc_counter::allocations().saturating_sub(allocs_before);
                delta.metrics.faults_injected += injected;
                delta.metrics.trials_retried += retried;
                return (Some(measures), delta);
            }
            Err(payload) => match cfg.policy {
                FailurePolicy::Propagate => resume_unwind(payload),
                FailurePolicy::Retry { max } if attempt < max => {
                    retried += 1;
                    attempt += 1;
                }
                FailurePolicy::Retry { .. } | FailurePolicy::Skip => {
                    let mut skipped = TrialObs::new();
                    skipped.metrics.faults_injected = injected;
                    skipped.metrics.trials_retried = retried;
                    skipped.metrics.trials_skipped = 1;
                    return (None, skipped);
                }
            },
        }
    }
}

/// Runs `trials` repetitions of a `lanes`-lane cell on `threads`
/// workers (0 = all cores) and returns one aggregate per lane plus the
/// cell's merged [`TrialObs`] — the engine's deterministic parallel
/// *fold*.
///
/// `trial_fn(ctx, obs, trial, seeds)` must return exactly `lanes`
/// measurements — one per lane, e.g. one per searcher raced on the
/// trial's sampled graph. Aggregates are bit-identical for any thread
/// count.
///
/// *Per-worker context.* Each worker thread calls `init()` once when it
/// starts and hands the resulting value to every `trial_fn` invocation
/// it runs, so expensive-to-build, reusable state (a `SearchScratch`,
/// pooled searcher instances, …) is allocated once per worker per cell
/// and reused across all of that worker's trials. The context never
/// crosses threads (no `Send`/`Sync` bound) and must not influence
/// results: determinism comes from `(trial, seeds)` alone.
///
/// *Observations.* `trial_fn` receives a zeroed `TrialObs` per trial
/// and fills its counters and phase timers; the runner accounts for
/// what trial bodies cannot see: it stamps `metrics.trials = 1`,
/// harvests the worker thread's heap-allocation delta across the trial
/// body into `obs.allocations`, and charges the consumer's
/// reorder-buffer fold to `phases.merge_ns` on the merged bundle. The
/// deterministic half (`metrics`) is merged in strict trial order;
/// `u64` addition is exact, so it is bit-identical for any thread
/// count. The timers ride alongside without being consulted by
/// anything, so observing a run cannot perturb it.
///
/// *Faults.* Every trial runs contained, under the [`FaultInjection`]
/// bundle installed on the calling thread (see
/// [`crate::install_faults`]), or under `FaultInjection::default()`
/// when none is. The bundle is snapshotted once at cell entry: injected
/// faults fire ahead of the body, panicking attempts propagate, retry
/// or skip per its [`FailurePolicy`], and an optional watchdog deadline
/// degrades the cell gracefully ([`TrialObs::degraded`]) instead of
/// hanging.
///
/// # Panics
///
/// Panics if `trial_fn` returns a lane count other than `lanes`, or if a
/// trial panics under [`FailurePolicy::Propagate`] (the default; the
/// panic is propagated).
pub fn run_lanes_observed<C, I, F>(
    trials: usize,
    lanes: usize,
    threads: usize,
    seeds: &SeedSequence,
    init: I,
    trial_fn: F,
) -> (Vec<LaneAggregate>, TrialObs)
where
    I: Fn() -> C + Sync,
    F: Fn(&mut C, &mut TrialObs, usize, SeedSequence) -> Vec<TrialMeasure> + Sync,
{
    let mut aggregates = vec![LaneAggregate::default(); lanes];
    if trials == 0 || lanes == 0 {
        return (aggregates, TrialObs::new());
    }
    let workers = resolved_workers(threads, trials);

    // The fault bundle is snapshotted once per cell, on the caller's
    // thread (installation is thread-local); workers share this one
    // snapshot by reference so chaos cannot differ per worker.
    let faults = crate::faults::active().unwrap_or_default();

    // Backpressure: workers may run at most `window` trials past the
    // fold frontier, bounding the reorder buffer + channel queue at
    // O(window) measurements even when one trial straggles. The mutex
    // holds (trials folded, consumer exited); both are only written
    // under the lock, so gate checks can never miss a wakeup.
    let window = (workers * 4).max(16);
    let frontier = Mutex::new((0usize, false));
    let frontier_moved = Condvar::new();

    // Raising the abort flag wakes every gated thread; it fires when the
    // consumer exits (normally or by panic) and when a worker's trial_fn
    // panics — otherwise the panicked trial would never reach the
    // consumer, the frontier would stall, and gated workers holding live
    // `tx` clones would deadlock the whole scope.
    struct OpenGateOnDrop<'a> {
        frontier: &'a Mutex<(usize, bool)>,
        frontier_moved: &'a Condvar,
        armed: bool,
    }
    impl Drop for OpenGateOnDrop<'_> {
        fn drop(&mut self) {
            if !self.armed {
                return;
            }
            lock_gate(self.frontier).1 = true;
            self.frontier_moved.notify_all();
        }
    }

    let next_trial = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<TrialMeasure>, TrialObs)>();
    let (folded, observed, degraded) = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next_trial = &next_trial;
            let init = &init;
            let trial_fn = &trial_fn;
            let faults = &faults;
            let (frontier, frontier_moved) = (&frontier, &frontier_moved);
            scope.spawn(move || {
                // Disarmed on clean exit; fires only if trial_fn panics.
                let mut on_panic = OpenGateOnDrop {
                    frontier,
                    frontier_moved,
                    armed: true,
                };
                // Per-worker context: built on this thread, reused for
                // every trial this worker steals, dropped with it.
                let mut ctx = init();
                loop {
                    let trial = next_trial.fetch_add(1, Ordering::Relaxed);
                    if trial >= trials {
                        break;
                    }
                    {
                        let mut gate = lock_gate(frontier);
                        while trial >= gate.0 + window && !gate.1 {
                            gate = frontier_moved.wait(gate).unwrap_or_else(|e| e.into_inner());
                        }
                        // An aborted run (consumer or sibling worker died)
                        // never advances the frontier; bail, don't wait.
                        if gate.1 {
                            break;
                        }
                    }
                    // A fresh delta per trial: the consumer folds them in
                    // trial order, so per-worker accumulation never leaks
                    // into the merged bundle.
                    let (measures, mut delta) =
                        run_contained(faults, &mut ctx, trial_fn, trial, seeds);
                    let measures = match measures {
                        Some(measures) => {
                            // Stamped here, not by trial_fn, so the
                            // bucket-sum == trials invariant can't drift
                            // per experiment.
                            delta.metrics.trials = 1;
                            measures
                        }
                        // Skipped trial: an empty measurement vector is
                        // the skip marker — unambiguous because a
                        // zero-lane cell returns before spawning workers,
                        // so real trials always carry `lanes >= 1`
                        // measurements. No `trials` stamp: the trial
                        // contributed nothing to fold.
                        None => Vec::new(),
                    };
                    // The consumer only disconnects on panic; stop quietly.
                    if tx.send((trial, measures, delta)).is_err() {
                        break;
                    }
                }
                on_panic.armed = false;
            });
        }
        drop(tx);

        // Consumer: fold measurements in strict trial order via a
        // reorder buffer, so the Welford stream is schedule-independent.
        // On any exit (including a panic below) this guard releases
        // workers blocked on the backpressure gate.
        let _release = OpenGateOnDrop {
            frontier: &frontier,
            frontier_moved: &frontier_moved,
            armed: true,
        };

        let mut pending: BTreeMap<usize, (Vec<TrialMeasure>, TrialObs)> = BTreeMap::new();
        let mut merged = TrialObs::new();
        let mut next_expected = 0usize;
        // The watchdog deadline (chaos runs only): past it the cell is
        // abandoned gracefully — partial aggregates with `degraded` set —
        // instead of hanging the run on a stuck worker.
        let deadline = faults
            .cell_deadline_ms
            // lint: allow(clock-env): watchdog deadline (chaos seam), never consulted by trial aggregates
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut degraded = false;
        loop {
            let received = match deadline {
                None => rx.recv().ok(),
                Some(deadline) => {
                    // lint: allow(clock-env): watchdog deadline check (chaos seam), never consulted by trial aggregates
                    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                        Ok(item) => Some(item),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            degraded = true;
                            None
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => None,
                    }
                }
            };
            let Some((trial, measures, delta)) = received else {
                break;
            };
            // The merge phase is the consumer thread's own busy time:
            // everything from receiving a delta to advancing the fold
            // frontier, charged to the merged bundle directly (workers
            // never see it).
            // lint: allow(clock-env): merge-phase timer feeds resource telemetry, never the trial aggregates
            let merge_start = Instant::now();
            // Validated here (not in the worker) so the panic reaches the
            // caller with its message instead of scope's generic payload.
            // An empty vector is a skipped trial's marker, not a lane
            // mismatch: its delta merges but nothing folds.
            if !measures.is_empty() {
                assert_eq!(
                    measures.len(),
                    lanes,
                    "trial_fn returned {} measurements for a {lanes}-lane cell",
                    measures.len()
                );
            }
            pending.insert(trial, (measures, delta));
            debug_assert!(pending.len() <= window, "reorder buffer exceeded window");
            let before = next_expected;
            while let Some((measures, delta)) = pending.remove(&next_expected) {
                for (aggregate, measure) in aggregates.iter_mut().zip(measures) {
                    aggregate.push(measure);
                }
                merged.merge(&delta);
                next_expected += 1;
            }
            if next_expected != before {
                lock_gate(&frontier).0 = next_expected;
                frontier_moved.notify_all();
            }
            merged.phases.merge_ns += elapsed_ns(merge_start);
        }
        if degraded {
            // Abandon the cell: raise the abort flag so gated workers
            // bail out, then drain (without folding) whatever in-flight
            // workers still deliver so the channel empties and the
            // scope's join cannot block on a full send.
            lock_gate(&frontier).1 = true;
            frontier_moved.notify_all();
            while rx.recv().is_ok() {}
        }
        // Completeness is asserted after the scope joins the workers, so
        // a worker panic propagates as itself, not as a count mismatch.
        (next_expected, merged, degraded)
    });
    let mut observed = observed;
    observed.degraded = degraded;
    if !degraded {
        assert_eq!(folded, trials, "trial stream incomplete");
    }
    (aggregates, observed)
}

/// Runs `count` independent jobs on `threads` workers (0 = all cores)
/// and returns their results **in job order**, regardless of which
/// worker ran what.
///
/// This is the engine's deterministic parallel *map* (where
/// [`run_lanes_observed`] is its deterministic parallel *fold*): job `i` receives
/// [`trial_seeds`]`(seeds, i)`, so any output derived from the seeds
/// alone is bit-identical for every thread count. The corpus builder
/// shards graph generation through this — each job writes its own
/// artifact and returns metadata, and the ordered result vector makes
/// the assembled manifest deterministic.
///
/// Unlike [`run_lanes_observed`] there is no backpressure window: all `count`
/// results are materialized, so keep per-job results small (metadata,
/// not megabytes) for large `count`.
///
/// # Panics
///
/// Propagates job panics (the scope re-raises them on join).
pub fn run_ordered<T, F>(count: usize, threads: usize, seeds: &SeedSequence, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SeedSequence) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = resolved_workers(threads, count);
    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let results = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next_job = &next_job;
            let job = &job;
            scope.spawn(move || loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = job(i, trial_seeds(seeds, i));
                // The receiver only disconnects if assembly below
                // panicked; stop quietly and let the scope re-raise.
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut results: Vec<Option<T>> = Vec::with_capacity(count);
        results.resize_with(count, || None);
        for (i, result) in rx {
            debug_assert!(results[i].is_none(), "job {i} delivered twice");
            results[i] = Some(result);
        }
        results
    });
    // Assembled after the scope joins the workers, so a job panic
    // propagates as itself rather than as a completeness failure.
    let assembled: Vec<T> = results.into_iter().flatten().collect();
    assert_eq!(assembled.len(), count, "job stream incomplete");
    assembled
}

/// Resolves a `--threads`-style setting: `0` means one per available
/// core. Shared by the runner and [`CliOptions::resolved_threads`]
/// (`crate::CliOptions`) so the fallback cannot drift.
pub(crate) fn resolve_thread_setting(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The worker count the runners resolve from a `--threads` setting
/// (`0` = all cores) and a trial count — exposed so resource records
/// can report how many workers actually ran a cell (the phase-sum
/// validation envelope scales with it).
pub fn resolved_workers(threads: usize, trials: usize) -> usize {
    resolve_thread_setting(threads).min(trials).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn synthetic(trial: usize, seeds: SeedSequence) -> TrialMeasure {
        // Deterministic pseudo-measurement derived from the trial seed.
        let raw = seeds.child(0);
        TrialMeasure::new(
            (raw % 1000) as f64 + trial as f64 * 0.5,
            !raw.is_multiple_of(3),
        )
    }

    /// The aggregate of a one-lane cell over `measure`.
    fn one_lane<F>(trials: usize, threads: usize, seeds: &SeedSequence, measure: F) -> LaneAggregate
    where
        F: Fn(usize, SeedSequence) -> TrialMeasure + Sync,
    {
        run_lanes_observed(
            trials,
            1,
            threads,
            seeds,
            || (),
            |(), _, t, s| vec![measure(t, s)],
        )
        .0[0]
    }

    /// A one-lane cell over [`metered_body`]: its aggregate and metrics.
    fn metered(trials: usize, threads: usize, seeds: &SeedSequence) -> (LaneAggregate, Metrics) {
        let (aggregates, obs) = run_lanes_observed(
            trials,
            1,
            threads,
            seeds,
            || (),
            |(), o, t, s| vec![metered_body(&mut o.metrics, t, s)],
        );
        (aggregates[0], obs.metrics)
    }

    #[test]
    fn aggregates_are_bit_identical_across_thread_counts() {
        let seeds = SeedSequence::new(42);
        let baseline = one_lane(97, 1, &seeds, synthetic);
        for threads in [2, 3, 4, 8] {
            let parallel = one_lane(97, threads, &seeds, synthetic);
            assert_eq!(parallel, baseline, "threads={threads}");
        }
    }

    #[test]
    fn aggregate_matches_sequential_welford() {
        let seeds = SeedSequence::new(7);
        let agg = one_lane(50, 4, &seeds, synthetic);
        let mut expected = StreamingStats::new();
        let mut successes = 0u64;
        for t in 0..50 {
            let m = synthetic(t, trial_seeds(&seeds, t));
            expected.push(m.value);
            successes += m.success as u64;
        }
        assert_eq!(agg.stats, expected);
        assert_eq!(agg.successes, successes);
        assert!((agg.success_rate() - successes as f64 / 50.0).abs() < 1e-15);
    }

    #[test]
    fn lanes_aggregate_independently() {
        let seeds = SeedSequence::new(3);
        let (aggs, _) = run_lanes_observed(
            40,
            2,
            4,
            &seeds,
            || (),
            |(), _, trial, seeds| {
                let base = synthetic(trial, seeds);
                vec![base, TrialMeasure::new(base.value * 2.0, !base.success)]
            },
        );
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].count(), 40);
        assert_eq!(aggs[1].count(), 40);
        assert!((aggs[1].mean() - 2.0 * aggs[0].mean()).abs() < 1e-9 * aggs[1].mean().abs());
        assert_eq!(aggs[0].successes + aggs[1].successes, 40);
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let seeds = SeedSequence::new(11);
        let calls = AtomicU64::new(0);
        let agg = one_lane(64, 8, &seeds, |trial, seeds| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(trial, seeds)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 64);
        assert_eq!(agg.count(), 64);
    }

    #[test]
    fn zero_trials_and_zero_lanes_are_empty() {
        let seeds = SeedSequence::new(1);
        let agg = one_lane(0, 4, &seeds, synthetic);
        assert_eq!(agg.count(), 0);
        assert_eq!(agg.success_rate(), 0.0);
        let (aggs, obs) = run_lanes_observed(10, 0, 4, &seeds, || (), |(), _, _, _| vec![]);
        assert!(aggs.is_empty());
        assert_eq!(obs, TrialObs::new());
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn wrong_lane_count_panics() {
        let seeds = SeedSequence::new(1);
        let _ = run_lanes_observed(
            4,
            2,
            1,
            &seeds,
            || (),
            |(), _, trial, seeds| vec![synthetic(trial, seeds)],
        );
    }

    #[test]
    #[should_panic]
    fn trial_panic_propagates_instead_of_deadlocking() {
        // Trial 10 dies, so the frontier can never pass 10; workers
        // gated beyond the backpressure window must be released (not
        // left blocking the channel) and the panic must reach us.
        let seeds = SeedSequence::new(17);
        let _ = one_lane(100, 4, &seeds, |trial, s| {
            if trial == 10 {
                panic!("trial 10 exploded");
            }
            synthetic(trial, s)
        });
    }

    #[test]
    fn straggler_trial_neither_deadlocks_nor_reorders() {
        // Trial 0 is pathologically slow; the backpressure gate must
        // hold the fast workers near the frontier without deadlock, and
        // the aggregate must still equal the single-threaded one.
        let seeds = SeedSequence::new(23);
        let slow = |trial: usize, s: SeedSequence| {
            if trial == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            synthetic(trial, s)
        };
        let parallel = one_lane(120, 8, &seeds, slow);
        let sequential = one_lane(120, 1, &seeds, synthetic);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn run_ordered_returns_results_in_job_order() {
        let seeds = SeedSequence::new(9);
        let expected: Vec<u64> = (0..120).map(|i| trial_seeds(&seeds, i).child(0)).collect();
        for threads in [1, 4, 8] {
            let got = run_ordered(120, threads, &seeds, |_i, s| s.child(0));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_straggler_jobs() {
        let seeds = SeedSequence::new(10);
        assert!(run_ordered(0, 4, &seeds, |i, _| i).is_empty());
        let got = run_ordered(40, 8, &seeds, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i * 2
        });
        assert_eq!(got, (0..40).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn run_ordered_propagates_job_panics() {
        let seeds = SeedSequence::new(11);
        let _ = run_ordered(32, 4, &seeds, |i, _| {
            if i == 7 {
                panic!("job 7 exploded");
            }
            i
        });
    }

    #[test]
    fn trial_seed_derivation_matches_subsequence() {
        let seeds = SeedSequence::new(5);
        assert_eq!(trial_seeds(&seeds, 3), seeds.subsequence(3));
    }

    #[test]
    fn worker_contexts_are_built_once_per_worker_and_reused() {
        let seeds = SeedSequence::new(31);
        let inits = AtomicU64::new(0);
        let (aggs, _) = run_lanes_observed(
            64,
            1,
            4,
            &seeds,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize // per-worker trial counter
            },
            |count, _, trial, seeds| {
                *count += 1;
                vec![synthetic(trial, seeds)]
            },
        );
        assert_eq!(aggs[0].count(), 64);
        let workers = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&workers),
            "one context per worker, got {workers}"
        );
    }

    #[test]
    fn metered_runs_merge_metrics_bit_identically_across_threads() {
        // Counters are u64 sums folded in strict trial order, so the
        // merged bundle must match the single-threaded one exactly.
        let seeds = SeedSequence::new(91);
        let (baseline_agg, baseline_metrics) = metered(97, 1, &seeds);
        assert_eq!(baseline_metrics.trials, 97);
        assert_eq!(baseline_metrics.trial_requests.total(), 97);
        assert!(baseline_metrics.requests > 0);
        for threads in [2, 4, 8] {
            let (agg, metrics) = metered(97, threads, &seeds);
            assert_eq!(agg, baseline_agg, "threads={threads}");
            assert_eq!(metrics, baseline_metrics, "threads={threads}");
        }
    }

    #[test]
    fn metered_trial_stamp_is_set_by_the_runner() {
        // trial_fn never touches `trials`; the runner stamps 1 per trial
        // so the histogram's bucket-sum == trials invariant holds
        // whenever trial_fn records exactly one sample.
        let seeds = SeedSequence::new(92);
        let (_, obs) = run_lanes_observed(
            10,
            1,
            4,
            &seeds,
            || (),
            |(), o, trial, s| {
                o.metrics.observe_trial_requests(trial as u64);
                vec![synthetic(trial, s)]
            },
        );
        assert_eq!(obs.metrics.trials, 10);
        assert_eq!(obs.metrics.trial_requests.total(), obs.metrics.trials);
    }

    #[test]
    fn observed_runs_carry_phases_without_perturbing_metrics() {
        // Phase timers ride alongside the deterministic bundle: the
        // metrics half must stay bit-identical across thread counts
        // even though the nanosecond sums differ run to run.
        let seeds = SeedSequence::new(93);
        let observed = |threads: usize| {
            run_lanes_observed(
                64,
                1,
                threads,
                &seeds,
                || (),
                |(), obs, trial, s| {
                    let t0 = Instant::now();
                    let measure = synthetic(trial, s);
                    obs.metrics.requests = measure.value as u64;
                    obs.metrics.observe_trial_requests(obs.metrics.requests);
                    obs.phases.search_ns += elapsed_ns(t0);
                    vec![measure]
                },
            )
        };
        let (baseline_agg, baseline_obs) = observed(1);
        assert_eq!(baseline_obs.metrics.trials, 64);
        // The consumer charges its fold to merge_ns on every run.
        assert!(baseline_obs.phases.merge_ns > 0);
        for threads in [2, 4] {
            let (agg, obs) = observed(threads);
            assert_eq!(agg, baseline_agg, "threads={threads}");
            assert_eq!(obs.metrics, baseline_obs.metrics, "threads={threads}");
        }
    }

    #[test]
    fn observed_allocation_counts_are_zero_without_the_allocator() {
        // The test binary does not install CountingAllocator, so the
        // harvested deltas must read as zero — the runner may call the
        // counter unconditionally without lying.
        let seeds = SeedSequence::new(94);
        let (_, obs) = run_lanes_observed(
            16,
            1,
            2,
            &seeds,
            || (),
            |(), _obs, trial, s| {
                // A real heap allocation (Box, not a stack array) that
                // would count if the allocator were installed.
                let _heap = Box::new([trial; 8]);
                vec![synthetic(trial, s)]
            },
        );
        assert_eq!(obs.allocations, 0);
    }

    #[test]
    fn trial_obs_merge_is_fieldwise() {
        let mut a = TrialObs::new();
        a.metrics.requests = 5;
        a.phases.search_ns = 100;
        a.allocations = 2;
        let mut b = TrialObs::new();
        b.metrics.requests = 7;
        b.phases.search_ns = 10;
        b.phases.merge_ns = 1;
        b.allocations = 3;
        b.degraded = true;
        a.merge(&b);
        assert_eq!(a.metrics.requests, 12);
        assert_eq!(a.phases.search_ns, 110);
        assert_eq!(a.phases.merge_ns, 1);
        assert_eq!(a.allocations, 5);
        assert!(a.degraded, "degraded must OR through merges");
    }

    #[test]
    fn gate_lock_recovers_from_poisoning() {
        // A panic while holding the gate poisons the mutex; lock_gate
        // must recover the guard (the state is a plain pair, never torn)
        // so contained worker panics don't cascade.
        let gate = Mutex::new((3usize, false));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock_gate(&gate);
            panic!("poison the gate");
        }));
        assert!(gate.is_poisoned());
        assert_eq!(*lock_gate(&gate), (3, false));
    }

    /// A metered trial body shared by the fault-policy tests so clean
    /// and chaotic runs execute identical code.
    fn metered_body(m: &mut Metrics, trial: usize, s: SeedSequence) -> TrialMeasure {
        let measure = synthetic(trial, s);
        m.requests = measure.value as u64;
        m.discoveries = trial as u64 % 7;
        m.observe_trial_requests(m.requests);
        measure
    }

    #[test]
    fn retry_aggregates_are_bit_identical_to_fault_free_runs() {
        let seeds = SeedSequence::new(55);
        let (clean_agg, clean_metrics) = metered(97, 1, &seeds);
        for threads in [1, 2, 4, 8] {
            let _scope = crate::faults::install_faults(FaultInjection {
                policy: FailurePolicy::Retry { max: 2 },
                hook: Some(std::sync::Arc::new(|trial, attempt| {
                    (attempt == 0 && trial % 5 == 0).then_some(InjectedFault::Panic)
                })),
                cell_deadline_ms: None,
            });
            let (agg, metrics) = metered(97, threads, &seeds);
            assert_eq!(agg, clean_agg, "threads={threads}");
            // Trials 0, 5, …, 95 each faulted once and retried once.
            assert_eq!(metrics.faults_injected, 20, "threads={threads}");
            assert_eq!(metrics.trials_retried, 20, "threads={threads}");
            assert_eq!(metrics.trials_skipped, 0, "threads={threads}");
            // Beyond the fault bookkeeping, the merged bundle is the
            // clean one, bit for bit.
            let mut washed = metrics;
            washed.faults_injected = 0;
            washed.trials_retried = 0;
            assert_eq!(washed, clean_metrics, "threads={threads}");
        }
    }

    #[test]
    fn skip_policy_drops_faulted_trials_and_counts_them() {
        let seeds = SeedSequence::new(56);
        let _scope = crate::faults::install_faults(FaultInjection {
            policy: FailurePolicy::Skip,
            hook: Some(std::sync::Arc::new(|trial, _| {
                (trial < 3).then_some(InjectedFault::Panic)
            })),
            cell_deadline_ms: None,
        });
        let (agg, metrics) = metered(20, 4, &seeds);
        // Trials 0–2 were dropped: they fold no measurements and no
        // `trials` stamp, so the histogram invariant still holds.
        assert_eq!(agg.count(), 17);
        assert_eq!(metrics.trials, 17);
        assert_eq!(metrics.trial_requests.total(), 17);
        assert_eq!(metrics.trials_skipped, 3);
        assert_eq!(metrics.faults_injected, 3);
        assert_eq!(metrics.trials_retried, 0);
    }

    #[test]
    fn exhausted_retries_fall_back_to_skip() {
        // A hook that faults every attempt defeats Retry; after `max`
        // re-runs the trial must be skipped, not spun forever.
        let seeds = SeedSequence::new(61);
        let _scope = crate::faults::install_faults(FaultInjection {
            policy: FailurePolicy::Retry { max: 2 },
            hook: Some(std::sync::Arc::new(|trial, _attempt| {
                (trial == 4).then_some(InjectedFault::Panic)
            })),
            cell_deadline_ms: None,
        });
        let (agg, metrics) = metered(10, 2, &seeds);
        assert_eq!(agg.count(), 9);
        assert_eq!(metrics.trials_skipped, 1);
        assert_eq!(metrics.faults_injected, 3); // initial attempt + 2 retries
        assert_eq!(metrics.trials_retried, 2);
    }

    #[test]
    #[should_panic] // scope re-raises with its own generic payload
    fn propagate_policy_reraises_injected_panics() {
        let seeds = SeedSequence::new(58);
        let _scope = crate::faults::install_faults(FaultInjection {
            policy: FailurePolicy::Propagate,
            hook: Some(std::sync::Arc::new(|trial, _| {
                (trial == 2).then_some(InjectedFault::Panic)
            })),
            cell_deadline_ms: None,
        });
        let _ = one_lane(16, 2, &seeds, synthetic);
    }

    #[test]
    fn injected_stalls_do_not_perturb_aggregates() {
        let seeds = SeedSequence::new(59);
        let clean = one_lane(40, 1, &seeds, synthetic);
        let _scope = crate::faults::install_faults(FaultInjection {
            policy: FailurePolicy::Propagate,
            hook: Some(std::sync::Arc::new(|trial, _| {
                (trial == 0).then_some(InjectedFault::Stall { ms: 30 })
            })),
            cell_deadline_ms: None,
        });
        let stalled = one_lane(40, 8, &seeds, synthetic);
        assert_eq!(stalled, clean);
    }

    #[test]
    fn installed_default_bundle_leaves_runs_bit_identical() {
        // Installing an empty bundle is the same as installing none:
        // both run every trial under `FaultInjection::default()`.
        let seeds = SeedSequence::new(57);
        let clean = metered(64, 4, &seeds);
        let _scope = crate::faults::install_faults(FaultInjection::default());
        let contained = metered(64, 4, &seeds);
        assert_eq!(contained, clean);
    }

    #[test]
    fn watchdog_degrades_gracefully_instead_of_hanging() {
        // Trial 0 stalls far past the deadline; the cell must come back
        // degraded with partial (here: empty) aggregates instead of
        // blocking on the stuck worker's fold.
        let seeds = SeedSequence::new(60);
        let _scope = crate::faults::install_faults(FaultInjection {
            policy: FailurePolicy::Propagate,
            hook: Some(std::sync::Arc::new(|trial, _| {
                (trial == 0).then_some(InjectedFault::Stall { ms: 1_000 })
            })),
            cell_deadline_ms: Some(50),
        });
        let (agg, obs) =
            run_lanes_observed(8, 1, 2, &seeds, || (), |(), _o, t, s| vec![synthetic(t, s)]);
        assert!(obs.degraded);
        assert!(agg[0].count() < 8, "degraded cell folded all trials");
    }

    #[test]
    fn context_runs_are_bit_identical_to_plain_runs_across_threads() {
        // A context that hoards mutable state must not perturb results:
        // determinism comes from (trial, seeds) alone.
        let seeds = SeedSequence::new(77);
        let plain = one_lane(80, 1, &seeds, synthetic);
        for threads in [1, 2, 8] {
            let (ctx, _) = run_lanes_observed(
                80,
                1,
                threads,
                &seeds,
                Vec::<f64>::new,
                |buf, _, trial, seeds| {
                    let m = synthetic(trial, seeds);
                    buf.push(m.value); // grows across the worker's trials
                    vec![m]
                },
            );
            assert_eq!(ctx[0], plain, "threads={threads}");
        }
    }
}
