//! `nonsearch_engine` — the deterministic parallel Monte-Carlo trial
//! engine, structured run records, and the `xp` experiment-CLI plumbing.
//!
//! Every quantitative claim in the paper is reproduced by Monte-Carlo
//! sweeps over cells (model × size × searcher × policy). This crate is
//! the shared substrate those sweeps run on:
//!
//! * [`run_lanes_observed`] — shard a cell's trials across scoped
//!   worker threads with per-trial RNG streams derived from
//!   [`SeedSequence`](nonsearch_generators::SeedSequence), aggregating
//!   via streaming (Welford) statistics in strict trial order, so the
//!   result is **bit-identical for 1 or N threads**; each trial's
//!   counters and phase timers merge into one [`TrialObs`].
//! * [`run_ordered`] — the deterministic parallel *map* companion:
//!   results come back in job order for any worker count (the corpus
//!   builder shards graph generation through it).
//! * [`install_faults`] / [`FailurePolicy`] — the chaos seam: a
//!   thread-local fault bundle the runner snapshots at cell entry to
//!   inject deterministic trial panics/stalls (e.g. from a seeded
//!   `nonsearch_fault::FaultPlan`) and contain, retry, or skip the
//!   failing trials, with an optional watchdog that degrades a stuck
//!   cell gracefully instead of hanging the run.
//! * [`GraphSource`] — where a trial's graph comes from: generated on
//!   the fly or served from a persistent corpus (`nonsearch_corpus`).
//! * [`CliOptions`] — the experiment flag set (`--quick`, `--threads`,
//!   `--seed`, `--out`, `--format`, `--trials`, `--sizes`,
//!   `--corpus`, `--mmap`), parsed strictly.
//! * [`RunWriter`] — JSON Lines + CSV run records (params, seed, git
//!   describe, wall time, mean/CI/success) alongside the pretty tables;
//!   [`CellTelemetry`] times a cell and carries what its `profile`,
//!   `metrics` and `resource` records report.
//! * [`Registry`] — the `xp` subcommand registry: `xp list`,
//!   `xp <experiment> [flags]`, `xp validate <file>`,
//!   `xp profile-diff <run.jsonl>`.
//! * [`Metrics`] / [`Tracer`] (re-exported from `nonsearch_obs`) — the
//!   allocation-free per-worker counter bundle merged by
//!   [`run_lanes_observed`], and the span tracer behind `--trace`.
//! * [`json`] — a dependency-free JSON value/serializer/parser (the
//!   workspace builds offline and depends on no serialization crate).
//!
//! # Example: a deterministic parallel cell
//!
//! ```
//! use nonsearch_engine::{run_lanes_observed, TrialMeasure};
//! use nonsearch_generators::SeedSequence;
//!
//! let seeds = SeedSequence::new(7);
//! let cell = |threads: usize| {
//!     run_lanes_observed(64, 1, threads, &seeds, || (), |(), _obs, _trial, seeds| {
//!         let draw = seeds.child(0) % 100;
//!         vec![TrialMeasure::new(draw as f64, draw < 90)]
//!     })
//! };
//! let (one, _) = cell(1);
//! let (four, _) = cell(4);
//! assert_eq!(one, four); // bit-identical aggregates
//! assert_eq!(one[0].count(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod json;
mod options;
pub mod profile_diff;
mod record;
mod registry;
pub mod report;
mod runner;
mod source;

pub use faults::{
    install_faults, FailurePolicy, FaultHook, FaultInjection, FaultScope, InjectedFault,
};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use nonsearch_obs::{
    elapsed_ns, prometheus_text, render_log2_histogram, Log2Histogram, Metrics, PhaseTimes,
    ResourceSample, SpanGuard, Tracer, HISTOGRAM_BUCKETS,
};
pub use options::{CliOptions, OptionsError, OutputFormat};
pub use record::{
    git_describe, metrics_fields, resource_fields, CellTelemetry, RunSummary, RunWriter, CELL_TYPE,
    DIAGNOSTIC_TYPE, FAULT_TYPE, LINT_TYPE, METRICS_TYPE, PROFILE_TYPE, RESOURCE_TYPE, RUN_TYPE,
};
pub use registry::{
    validate_chrome_trace, validate_jsonl, ExpContext, ExperimentSpec, Registry, ValidateSummary,
};
pub use runner::{
    resolved_workers, run_lanes_observed, run_ordered, trial_seeds, LaneAggregate, TrialMeasure,
    TrialObs,
};
pub use source::{FnSource, GraphSource};
