//! The `xp` experiment suite, its benchmark harness and shared cell
//! helpers.
//!
//! Every experiment regenerates one evaluation artifact from
//! EXPERIMENTS.md; the `xp` binary fronts them all (`xp list`). Every
//! experiment shares the engine's flag set — `--quick`, `--threads`,
//! `--seed`, `--out`, `--format`, `--trials`, `--sizes` — parsed into
//! [`CliOptions`](nonsearch_engine::CliOptions).
//!
//! The cell helpers here ([`strong_cell_from`],
//! [`weak_cell_with_policy_from`]) take their trial graphs from a
//! [`GraphSource`] and execute on the `nonsearch_engine` trial runner:
//! sharded across worker threads, per-trial RNG streams derived from
//! the trial index, streamed aggregation in strict trial order — so
//! their numbers are bit-identical for any thread count (and match the
//! historical sequential loops' trial seeding).

#![forbid(unsafe_code)]

pub mod bench_suite;
pub mod chaos;
pub mod experiments;

use nonsearch_engine::{
    run_lanes_observed, CellTelemetry, GraphSource, LaneAggregate, TrialMeasure,
};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;
use nonsearch_search::{
    search_trial, LaneSearcher, SearchScratch, SearchTask, StrongSearcher, SuccessCriterion,
};

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

/// Measures a strong-model searcher at size `n` — mean requests to
/// find the newest vertex from vertex 1 — with the trial graphs
/// supplied by `source` (generate-per-trial or corpus-backed), on
/// `threads` engine workers (0 = all cores).
pub fn strong_cell_from(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    kind: StrongKind,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> (LaneAggregate, CellTelemetry) {
    single_lane_cell(
        source,
        n,
        || kind.build(),
        |actual, _| {
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
                .with_budget(50 * actual)
        },
        trial_count,
        threads,
        seeds,
    )
}

/// One single-lane cell: each trial runs a `build()` searcher, pooled
/// per worker, on the trial's graph from `source` with the task
/// `task(graph size, trial seeds)`.
fn single_lane_cell<S: LaneSearcher + ?Sized>(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    build: impl Fn() -> Box<S> + Sync,
    task: impl Fn(usize, &SeedSequence) -> SearchTask + Sync,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> (LaneAggregate, CellTelemetry) {
    let (lanes, telemetry) = CellTelemetry::measure(trial_count, 1, threads, || {
        run_lanes_observed(
            trial_count,
            1,
            threads,
            seeds,
            // Per-worker pool: scratch + searcher built once, reused (and
            // reset) across all of the worker's trials.
            || (SearchScratch::new(), [build()]),
            |(scratch, searcher), obs, trial, cell_seeds| {
                let graph = source.timed_trial_graph(n, trial, &cell_seeds, &mut obs.phases);
                let task = task(graph.node_count(), &cell_seeds);
                let mut measures = Vec::with_capacity(1);
                search_trial(
                    scratch,
                    searcher,
                    |_| (&*graph, task),
                    &cell_seeds,
                    &mut obs.metrics,
                    &mut obs.phases,
                    |o| measures.push(TrialMeasure::new(o.requests as f64, o.found)),
                )
                .expect("suite searchers never violate the protocol");
                measures
            },
        )
    });
    (lanes[0], telemetry)
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

/// Measures a weak-model searcher at size `n` with explicit
/// start/criterion policy (used by the ablation experiment), with the
/// trial graphs supplied by `source`, on `threads` engine workers
/// (0 = all cores).
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
) -> (LaneAggregate, CellTelemetry) {
    single_lane_cell(
        source,
        n,
        || kind.build(),
        |actual, cell_seeds| {
            let start = start_policy.pick(actual, &mut cell_seeds.child_rng(2));
            SearchTask::new(start, NodeId::from_label(actual))
                .with_criterion(criterion)
                .with_budget(budget_multiplier * actual)
        },
        trial_count,
        threads,
        seeds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_core::{MergedMoriModel, ModelSource};
    use nonsearch_search::SearcherKind;

    #[test]
    fn strong_cell_measures_something() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(1);
        let source = ModelSource::new(&model);
        let (lane, cell) = strong_cell_from(&source, 256, StrongKind::HighDegree, 4, 0, &seeds);
        assert!(lane.mean() > 0.0);
        assert!(lane.success_rate() > 0.9);
        assert!(cell.wall_ms >= 0.0);
        assert!(cell.requests_per_sec() > 0.0);
        assert!(cell.requests_per_sec().is_finite());
        assert_eq!((cell.trials, cell.lanes), (4, 1));
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
            let (lane, _) = weak_cell_with_policy_from(
                &ModelSource::new(&model),
                256,
                SearcherKind::BfsFlood,
                SuccessCriterion::DiscoverTarget,
                policy,
                4,
                100,
                0,
                &seeds,
            );
            assert!(lane.success_rate() > 0.9, "{}", policy.name());
        }
    }

    #[test]
    fn cells_are_bit_identical_across_thread_counts() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(3);
        let source = ModelSource::new(&model);
        let (a, a_cell) = strong_cell_from(&source, 128, StrongKind::Bfs, 6, 1, &seeds);
        let (b, b_cell) = strong_cell_from(&source, 128, StrongKind::Bfs, 6, 4, &seeds);
        assert_eq!(a, b);
        assert_eq!(a_cell.metrics, b_cell.metrics);
    }

    #[test]
    fn strong_kind_names_unique() {
        let names: Vec<&str> = StrongKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"strong-bfs"));
    }
}
