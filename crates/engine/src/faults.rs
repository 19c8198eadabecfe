//! The engine's fault-injection seam and trial failure policies.
//!
//! Chaos runs need two things from the runner: a way to make trials
//! fail on purpose, and a policy for what the runner does when they do.
//! Both live here. A [`FaultInjection`] bundles a [`FailurePolicy`]
//! with an optional [`FaultHook`] — a deterministic
//! `(trial, attempt) -> Option<InjectedFault>` function, typically
//! backed by a seeded `nonsearch_fault::FaultPlan` — plus an optional
//! per-cell watchdog deadline. [`install_faults`] activates the bundle
//! for the current thread and returns a guard; every
//! `run_lanes_observed` call made while the guard lives snapshots the
//! bundle at cell entry and runs its trials under it. Every trial runs
//! *contained* (each attempt wrapped in `catch_unwind`), under
//! `FaultInjection::default()` when no bundle is installed.
//!
//! The installation is **thread-local**, not process-global: `cargo
//! test` runs many tests concurrently in one process, and a global
//! switch would leak chaos into unrelated cells. The runner reads the
//! bundle on the caller's thread and shares it with its scoped workers
//! by reference, so worker threads never consult their own slot.
//!
//! The retry contract: a retried attempt re-derives the trial's seed
//! stream from the trial index alone (`trial_seeds`), and injected
//! faults fire *before* the trial body touches its per-worker context,
//! so a successful retry contributes bit-identically to what a
//! fault-free run would have produced. `FailurePolicy::Skip` (and an
//! exhausted `Retry`) instead drops the trial's measurements entirely —
//! aggregates then differ from a clean run, which the
//! `trials_skipped` counter makes visible.

use std::cell::RefCell;
use std::sync::Arc;

/// What the runner does with a trial attempt that panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-raise the panic on the caller (the fault-free default — a
    /// failing trial fails the run).
    #[default]
    Propagate,
    /// Contain the panic and re-run the trial, up to `max` retries;
    /// a trial that still fails after `max` retries is skipped.
    Retry {
        /// Maximum number of *re*-runs per trial (0 behaves like
        /// [`FailurePolicy::Skip`]).
        max: u32,
    },
    /// Contain the panic and drop the trial's measurements (the cell's
    /// aggregate then covers fewer trials; see `Metrics::trials_skipped`).
    Skip,
}

/// A fault the hook asks the runner to inject into one trial attempt,
/// ahead of the trial body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic in the worker (exercising the configured [`FailurePolicy`]).
    Panic,
    /// Sleep for `ms` milliseconds, simulating a straggling worker
    /// (exercising the backpressure gate and the watchdog deadline).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// A deterministic fault decision function: `(trial, attempt)` to the
/// fault injected ahead of that attempt, if any.
///
/// Hooks must be pure functions of their arguments (no clocks, no
/// shared mutable state feeding the decision) or chaos runs lose the
/// workspace's any-thread-count reproducibility. Returning a fault for
/// `attempt > 0` will defeat `FailurePolicy::Retry` — seeded
/// `FaultPlan` hooks only ever fault attempt 0.
pub type FaultHook = Arc<dyn Fn(usize, u32) -> Option<InjectedFault> + Send + Sync>;

/// The fault-injection bundle `run_lanes_observed` snapshots at cell
/// entry: injection hook, failure policy, and watchdog deadline.
///
/// The default bundle (`FaultInjection::default()`) injects nothing,
/// propagates panics, and sets no deadline. It is what the runner uses
/// when no bundle is installed, so installing it changes nothing.
#[derive(Clone, Default)]
pub struct FaultInjection {
    /// What to do when a trial attempt panics.
    pub policy: FailurePolicy,
    /// Deterministic injector consulted before every attempt.
    pub hook: Option<FaultHook>,
    /// Watchdog: if the cell's consumer sees no progress for this many
    /// milliseconds, the cell is abandoned gracefully — partial
    /// aggregates are returned with `TrialObs::degraded` set instead of
    /// hanging the run.
    pub cell_deadline_ms: Option<u64>,
}

impl std::fmt::Debug for FaultInjection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjection")
            .field("policy", &self.policy)
            .field("hook", &self.hook.as_ref().map(|_| "<fault hook>"))
            .field("cell_deadline_ms", &self.cell_deadline_ms)
            .finish()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<FaultInjection>>> = const { RefCell::new(None) };
}

/// Activates `config` for every cell run from the current thread while
/// the returned guard lives; dropping the guard restores whatever was
/// installed before (installations nest).
#[must_use = "faults are uninstalled when the returned scope drops"]
pub fn install_faults(config: FaultInjection) -> FaultScope {
    let previous = ACTIVE.with(|slot| slot.replace(Some(Arc::new(config))));
    FaultScope { previous }
}

/// The bundle active on this thread, if any — snapshotted by the
/// runner once per cell, on the caller's thread.
pub(crate) fn active() -> Option<Arc<FaultInjection>> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// Guard returned by [`install_faults`]; restores the previously
/// installed bundle (usually none) on drop.
#[derive(Debug)]
pub struct FaultScope {
    previous: Option<Arc<FaultInjection>>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE.with(|slot| *slot.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nests() {
        assert!(active().is_none());
        {
            let _outer = install_faults(FaultInjection {
                policy: FailurePolicy::Skip,
                ..FaultInjection::default()
            });
            assert_eq!(active().unwrap().policy, FailurePolicy::Skip);
            {
                let _inner = install_faults(FaultInjection {
                    policy: FailurePolicy::Retry { max: 2 },
                    ..FaultInjection::default()
                });
                assert_eq!(active().unwrap().policy, FailurePolicy::Retry { max: 2 });
            }
            // Inner scope dropped: the outer bundle is back.
            assert_eq!(active().unwrap().policy, FailurePolicy::Skip);
        }
        assert!(active().is_none());
    }

    #[test]
    fn install_is_thread_local() {
        let _scope = install_faults(FaultInjection::default());
        assert!(active().is_some());
        std::thread::scope(|s| {
            s.spawn(|| assert!(active().is_none(), "bundle leaked across threads"));
        });
    }

    #[test]
    fn debug_formats_without_exposing_the_hook() {
        let bundle = FaultInjection {
            hook: Some(Arc::new(|_, _| None)),
            ..FaultInjection::default()
        };
        let text = format!("{bundle:?}");
        assert!(text.contains("fault hook"), "{text}");
        assert!(text.contains("Propagate"), "{text}");
    }
}
