//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Every experiment regenerates one evaluation artifact from
//! EXPERIMENTS.md; the unified `xp` binary fronts them all (`xp list`),
//! and the legacy `exp_*` binaries dispatch to the same registered
//! implementations. All entry points share the engine's flag set —
//! `--quick`, `--threads`, `--seed`, `--out`, `--format`, `--trials`,
//! `--sizes` — parsed once into [`CliOptions`].
//!
//! The cell helpers here ([`strong_cell`], [`weak_cell_with_policy`])
//! execute on the `nonsearch_engine` trial runner: sharded across worker
//! threads, per-trial RNG streams derived from the trial index, streamed
//! aggregation in strict trial order — so their numbers are bit-identical
//! for any thread count (and match the historical sequential loops'
//! trial seeding).

#![forbid(unsafe_code)]

pub mod bench_suite;
pub mod chaos;
pub mod experiments;

use nonsearch_core::{GraphModel, ModelSource};
use nonsearch_engine::{
    resolved_workers, run_cell_observed, CliOptions, GraphSource, TrialMeasure, TrialObs,
};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;
use nonsearch_obs::{elapsed_ns, Metrics, PhaseTimes, ResourceSample};
use nonsearch_search::{
    run_strong_in, run_weak_in, SearchScratch, SearchTask, StrongSearcher, SuccessCriterion,
};

/// `true` when the caller asked for a reduced sweep (`--quick` or
/// `NONSEARCH_QUICK=1`); read from the process-wide options, which are
/// parsed exactly once.
pub fn quick() -> bool {
    CliOptions::global().quick
}

/// Truncates a size sweep in quick mode (and honours `--sizes`).
pub fn sweep(full: &[usize]) -> Vec<usize> {
    CliOptions::global().sweep(full)
}

/// Scales a trial count down in quick mode (and honours `--trials`).
pub fn trials(full: usize) -> usize {
    CliOptions::global().trial_count(full)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    if quick() {
        println!("mode: QUICK (reduced sweep; run without --quick for the full table)");
    }
    println!();
}

/// Aggregated measurement of one (model, size, searcher) cell.
///
/// `mean`/`ci95`/`success` are deterministic (bit-identical for any
/// thread count); `wall_ms`/`requests_per_sec` are volatile wall-clock
/// throughput for `--profile` reporting and never belong in cell
/// records.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    /// Mean request count.
    pub mean: f64,
    /// 95% CI half-width.
    pub ci95: f64,
    /// Fraction of trials that found the target.
    pub success: f64,
    /// Wall-clock time of the whole cell in milliseconds.
    pub wall_ms: f64,
    /// Total requests across trials divided by wall seconds.
    pub requests_per_sec: f64,
    /// Deterministically merged per-worker counters for the cell
    /// (exact u64 sums, bit-identical for any thread count).
    pub metrics: Metrics,
    /// Merged per-worker phase timers (generate / load / search /
    /// harvest / merge) — volatile CPU-side busy time, like `wall_ms`.
    pub phases: PhaseTimes,
    /// Heap allocations during trial bodies (zero unless the binary
    /// installs `nonsearch_alloc_counter::CountingAllocator`).
    pub allocations: u64,
    /// Process-wide resource sample taken when the cell finished.
    pub resource: ResourceSample,
    /// Worker threads the engine actually ran for this cell.
    pub workers: usize,
}

impl CellStats {
    fn from_lane(
        lane: &nonsearch_engine::LaneAggregate,
        wall_ms: f64,
        obs: TrialObs,
        workers: usize,
    ) -> CellStats {
        CellStats {
            mean: lane.mean(),
            ci95: lane.ci95(),
            success: lane.success_rate(),
            wall_ms,
            requests_per_sec: obs.metrics.requests as f64 / (wall_ms / 1e3).max(f64::EPSILON),
            metrics: obs.metrics,
            phases: obs.phases,
            allocations: obs.allocations,
            // Sampled outside the trial hot path (reading /proc
            // allocates), after every trial has finished.
            resource: ResourceSample::current(),
            workers,
        }
    }
}

/// Strong-model searcher selection for the Theorem 1 strong experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrongKind {
    /// Discovery-order expansion.
    Bfs,
    /// Max-degree-first expansion.
    HighDegree,
    /// Target-label-proximity expansion.
    GreedyId,
}

impl StrongKind {
    /// All strong searchers.
    pub fn all() -> &'static [StrongKind] {
        &[
            StrongKind::Bfs,
            StrongKind::HighDegree,
            StrongKind::GreedyId,
        ]
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            StrongKind::Bfs => "strong-bfs",
            StrongKind::HighDegree => "strong-high-degree",
            StrongKind::GreedyId => "strong-greedy-id",
        }
    }

    /// Builds a fresh instance.
    pub fn build(&self) -> Box<dyn StrongSearcher> {
        match self {
            StrongKind::Bfs => Box::new(nonsearch_search::StrongBfs::new()),
            StrongKind::HighDegree => Box::new(nonsearch_search::StrongHighDegree::new()),
            StrongKind::GreedyId => Box::new(nonsearch_search::StrongGreedyId::new()),
        }
    }
}

/// Measures a strong-model searcher on `model` at size `n` — mean
/// requests to find the newest vertex from vertex 1 — on `threads`
/// engine workers (0 = all cores).
pub fn strong_cell<M: GraphModel + Sync>(
    model: &M,
    n: usize,
    kind: StrongKind,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> CellStats {
    strong_cell_from(
        &ModelSource::new(model),
        n,
        kind,
        trial_count,
        threads,
        seeds,
    )
}

/// [`strong_cell`] with the trial graphs supplied by an arbitrary
/// [`GraphSource`] (generate-per-trial or corpus-backed).
pub fn strong_cell_from(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    kind: StrongKind,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> CellStats {
    // Per-worker pool: scratch + searcher built once, reused (and reset)
    // across all of the worker's trials.
    // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
    let start = std::time::Instant::now();
    let (lane, obs) = run_cell_observed(
        trial_count,
        threads,
        seeds,
        || (SearchScratch::new(), kind.build()),
        |(scratch, searcher), obs, trial, cell_seeds| {
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let fetch_start = std::time::Instant::now();
            let graph = source.trial_graph(n, trial, &cell_seeds);
            let fetch_ns = elapsed_ns(fetch_start);
            if source.is_stored() {
                obs.phases.load_ns += fetch_ns;
            } else {
                obs.phases.generate_ns += fetch_ns;
            }
            let actual = graph.node_count();
            let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
                .with_budget(50 * actual);
            let mut search_rng = cell_seeds.child_rng(1);
            let resolutions_before = scratch.view().edge_resolutions();
            let resets_before = scratch.view().resets();
            let rescans_before = searcher.frontier_rescans();
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let search_start = std::time::Instant::now();
            let outcome = run_strong_in(scratch, &graph, &task, &mut **searcher, &mut search_rng)
                .expect("suite searchers never violate the protocol");
            obs.phases.search_ns += elapsed_ns(search_start);
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let harvest_start = std::time::Instant::now();
            let m = &mut obs.metrics;
            m.requests += outcome.requests as u64;
            m.discoveries += outcome.discovered as u64;
            m.frontier_rescans += searcher.frontier_rescans() - rescans_before;
            m.edge_resolutions += scratch.view().edge_resolutions() - resolutions_before;
            m.scratch_resets += scratch.view().resets() - resets_before;
            m.observe_trial_requests(outcome.requests as u64);
            obs.phases.harvest_ns += elapsed_ns(harvest_start);
            TrialMeasure::new(outcome.requests as f64, outcome.found)
        },
    );
    CellStats::from_lane(
        &lane,
        start.elapsed().as_secs_f64() * 1e3,
        obs,
        resolved_workers(threads, trial_count),
    )
}

/// Where the searcher starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartPolicy {
    /// The oldest vertex (label 1) — the model's best-connected hub.
    OldestHub,
    /// A uniformly random vertex.
    Uniform,
    /// The second-newest vertex (label n−1) — right next to the window.
    NearTarget,
}

impl StartPolicy {
    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            StartPolicy::OldestHub => "hub(v1)",
            StartPolicy::Uniform => "uniform",
            StartPolicy::NearTarget => "near(v[n-1])",
        }
    }

    fn pick(&self, n: usize, rng: &mut rand_chacha::ChaCha8Rng) -> NodeId {
        use rand::Rng;
        match self {
            StartPolicy::OldestHub => NodeId::from_label(1),
            StartPolicy::Uniform => NodeId::new(rng.gen_range(0..n.saturating_sub(1))),
            StartPolicy::NearTarget => NodeId::from_label((n - 1).max(1)),
        }
    }
}

/// Measures a weak-model searcher on `model` at size `n` with explicit
/// start/criterion policy (used by the ablation experiment), on
/// `threads` engine workers (0 = all cores).
#[allow(clippy::too_many_arguments)]
pub fn weak_cell_with_policy<M: GraphModel + Sync>(
    model: &M,
    n: usize,
    kind: nonsearch_search::SearcherKind,
    criterion: SuccessCriterion,
    start_policy: StartPolicy,
    trial_count: usize,
    budget_multiplier: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> CellStats {
    weak_cell_with_policy_from(
        &ModelSource::new(model),
        n,
        kind,
        criterion,
        start_policy,
        trial_count,
        budget_multiplier,
        threads,
        seeds,
    )
}

/// [`weak_cell_with_policy`] with the trial graphs supplied by an
/// arbitrary [`GraphSource`].
///
/// Per-trial child streams: `0` the graph (inside generate-backed
/// sources), `1` the searcher, `2` the start-policy pick — each on its
/// own stream, so generate-backed and corpus-backed runs pick the same
/// start vertices from the same trial seeds.
#[allow(clippy::too_many_arguments)]
pub fn weak_cell_with_policy_from(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    kind: nonsearch_search::SearcherKind,
    criterion: SuccessCriterion,
    start_policy: StartPolicy,
    trial_count: usize,
    budget_multiplier: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> CellStats {
    // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
    let start = std::time::Instant::now();
    let (lane, obs) = run_cell_observed(
        trial_count,
        threads,
        seeds,
        || (SearchScratch::new(), kind.build()),
        |(scratch, searcher), obs, trial, cell_seeds| {
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let fetch_start = std::time::Instant::now();
            let graph = source.trial_graph(n, trial, &cell_seeds);
            let fetch_ns = elapsed_ns(fetch_start);
            if source.is_stored() {
                obs.phases.load_ns += fetch_ns;
            } else {
                obs.phases.generate_ns += fetch_ns;
            }
            let actual = graph.node_count();
            let start = start_policy.pick(actual, &mut cell_seeds.child_rng(2));
            let task = SearchTask::new(start, NodeId::from_label(actual))
                .with_criterion(criterion)
                .with_budget(budget_multiplier * actual);
            let mut search_rng = cell_seeds.child_rng(1);
            let resolutions_before = scratch.view().edge_resolutions();
            let resets_before = scratch.view().resets();
            let rescans_before = searcher.frontier_rescans();
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let search_start = std::time::Instant::now();
            let outcome = run_weak_in(scratch, &graph, &task, &mut **searcher, &mut search_rng)
                .expect("suite searchers never violate the protocol");
            obs.phases.search_ns += elapsed_ns(search_start);
            // lint: allow(clock-env): profile/phase wall-clock, reported in telemetry records, never aggregated
            let harvest_start = std::time::Instant::now();
            let m = &mut obs.metrics;
            m.requests += outcome.requests as u64;
            m.discoveries += outcome.discovered as u64;
            m.frontier_rescans += searcher.frontier_rescans() - rescans_before;
            m.edge_resolutions += scratch.view().edge_resolutions() - resolutions_before;
            m.scratch_resets += scratch.view().resets() - resets_before;
            m.observe_trial_requests(outcome.requests as u64);
            obs.phases.harvest_ns += elapsed_ns(harvest_start);
            TrialMeasure::new(outcome.requests as f64, outcome.found)
        },
    );
    CellStats::from_lane(
        &lane,
        start.elapsed().as_secs_f64() * 1e3,
        obs,
        resolved_workers(threads, trial_count),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_core::MergedMoriModel;
    use nonsearch_search::SearcherKind;

    #[test]
    fn strong_cell_measures_something() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(1);
        let cell = strong_cell(&model, 256, StrongKind::HighDegree, 4, 0, &seeds);
        assert!(cell.mean > 0.0);
        assert!(cell.success > 0.9);
        assert!(cell.wall_ms >= 0.0);
        assert!(cell.requests_per_sec > 0.0);
        assert!(cell.requests_per_sec.is_finite());
        assert_eq!(cell.metrics.trials, 4);
        assert_eq!(cell.metrics.trial_requests.total(), 4);
        assert!(cell.metrics.requests > 0);
        assert!(cell.metrics.discoveries > 0);
        assert_eq!(cell.metrics.scratch_resets, 4);
        // Phase timers rode alongside: generate (this source is not
        // stored), search, and the consumer's merge all registered.
        assert!(cell.phases.generate_ns > 0);
        assert_eq!(cell.phases.load_ns, 0);
        assert!(cell.phases.search_ns > 0);
        assert!(cell.phases.merge_ns > 0);
        assert!(cell.workers >= 1);
        if cfg!(target_os = "linux") {
            assert!(cell.resource.peak_rss_bytes > 0);
        }
    }

    #[test]
    fn weak_cell_policies_work() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(2);
        for policy in [
            StartPolicy::OldestHub,
            StartPolicy::Uniform,
            StartPolicy::NearTarget,
        ] {
            let cell = weak_cell_with_policy(
                &model,
                256,
                SearcherKind::BfsFlood,
                SuccessCriterion::DiscoverTarget,
                policy,
                4,
                100,
                0,
                &seeds,
            );
            assert!(cell.success > 0.9, "{}", policy.name());
        }
    }

    #[test]
    fn cells_are_bit_identical_across_thread_counts() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(3);
        let a = strong_cell(&model, 128, StrongKind::Bfs, 6, 1, &seeds);
        let b = strong_cell(&model, 128, StrongKind::Bfs, 6, 4, &seeds);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.ci95, b.ci95);
        assert_eq!(a.success, b.success);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn strong_kind_names_unique() {
        let names: Vec<&str> = StrongKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"strong-bfs"));
    }

    #[test]
    fn sweep_respects_quick() {
        if !quick() {
            assert_eq!(sweep(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
            assert_eq!(trials(12), 12);
        }
    }
}
