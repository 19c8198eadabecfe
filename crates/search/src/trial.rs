//! One Monte-Carlo search trial: its lanes run on a pooled scratch, and
//! its counters harvested into the trial's [`Metrics`].
//!
//! Every search experiment measures the same quantity — the requests a
//! local searcher makes on a sampled graph before it finds the target —
//! and reports the same counters alongside. [`search_trial`] is the one
//! place those counters are read, so an experiment supplies only what
//! really differs: the graph and task of each lane, the searchers, and
//! whether they run under the weak or the strong oracle.

use crate::{
    run_strong_in, run_weak_in, SearchOutcome, SearchScratch, SearchTask, StrongSearcher,
    WeakSearcher,
};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::UndirectedCsr;
use nonsearch_obs::{timed, Metrics, PhaseTimes};
use rand::RngCore;

/// A searcher one lane of a [`search_trial`] can run: weak
/// (`dyn WeakSearcher`) or strong (`dyn StrongSearcher`).
pub trait LaneSearcher {
    /// One search on `scratch`: [`run_weak_in`] or [`run_strong_in`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying runner returns.
    fn search_in(
        &mut self,
        scratch: &mut SearchScratch,
        graph: &UndirectedCsr,
        task: &SearchTask,
        rng: &mut dyn RngCore,
    ) -> crate::Result<SearchOutcome>;

    /// The searcher's cumulative frontier-rescan counter.
    fn frontier_rescans(&self) -> u64;
}

impl LaneSearcher for dyn WeakSearcher {
    fn search_in(
        &mut self,
        scratch: &mut SearchScratch,
        graph: &UndirectedCsr,
        task: &SearchTask,
        rng: &mut dyn RngCore,
    ) -> crate::Result<SearchOutcome> {
        run_weak_in(scratch, graph, task, self, rng)
    }

    fn frontier_rescans(&self) -> u64 {
        WeakSearcher::frontier_rescans(self)
    }
}

impl LaneSearcher for dyn StrongSearcher {
    fn search_in(
        &mut self,
        scratch: &mut SearchScratch,
        graph: &UndirectedCsr,
        task: &SearchTask,
        rng: &mut dyn RngCore,
    ) -> crate::Result<SearchOutcome> {
        run_strong_in(scratch, graph, task, self, rng)
    }

    fn frontier_rescans(&self) -> u64 {
        StrongSearcher::frontier_rescans(self)
    }
}

/// Runs one trial's lanes in order and harvests the trial's counters.
///
/// Lane `i` runs `searchers[i]` on the graph and task `lane(i)` returns,
/// drawing from `trial_seeds.child_rng(1 + i)` (child `0` is the
/// graph's stream), and each outcome is handed to `record` as it
/// finishes. The counters land in `metrics`: requests and discoveries
/// off the outcomes, frontier rescans off each searcher, edge
/// resolutions and scratch resets off the shared scratch, and one
/// histogram sample of the trial's summed requests. The lanes are
/// timed as one block into `phases.search_ns`, the counter sweep into
/// `phases.harvest_ns`: four clock reads per trial, none per lane.
///
/// Reading counters never perturbs a search, so outcomes are those of
/// bare [`run_weak_in`] / [`run_strong_in`] calls.
///
/// # Errors
///
/// The first lane's [`SearchError`](crate::SearchError), if any.
// lint: alloc-free
pub fn search_trial<'g, S: LaneSearcher + ?Sized>(
    scratch: &mut SearchScratch,
    searchers: &mut [Box<S>],
    lane: impl Fn(usize) -> (&'g UndirectedCsr, SearchTask),
    trial_seeds: &SeedSequence,
    metrics: &mut Metrics,
    phases: &mut PhaseTimes,
    mut record: impl FnMut(SearchOutcome),
) -> crate::Result<()> {
    let resolutions_before = scratch.view().edge_resolutions();
    let resets_before = scratch.view().resets();
    let trial_requests = timed(&mut phases.search_ns, || {
        let mut trial_requests = 0u64;
        for (i, searcher) in searchers.iter_mut().enumerate() {
            let (graph, task) = lane(i);
            let rescans_before = searcher.frontier_rescans();
            let mut rng = trial_seeds.child_rng(1 + i as u64);
            let outcome = searcher.search_in(scratch, graph, &task, &mut rng)?;
            metrics.requests += outcome.requests as u64;
            metrics.discoveries += outcome.discovered as u64;
            metrics.frontier_rescans += searcher.frontier_rescans() - rescans_before;
            trial_requests += outcome.requests as u64;
            record(outcome);
        }
        Ok::<u64, crate::SearchError>(trial_requests)
    })?;
    timed(&mut phases.harvest_ns, || {
        metrics.edge_resolutions += scratch.view().edge_resolutions() - resolutions_before;
        metrics.scratch_resets += scratch.view().resets() - resets_before;
        metrics.observe_trial_requests(trial_requests);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_strong_in, SearcherKind, StrongHighDegree};
    use nonsearch_generators::MergedMori;
    use nonsearch_graph::NodeId;

    #[test]
    fn harvest_sums_the_lanes_and_matches_bare_runs() {
        let n = 512;
        let trial_seeds = SeedSequence::new(5).subsequence(3);
        let graph = MergedMori::sample(n, 1, 0.6, &mut trial_seeds.child_rng(0))
            .unwrap()
            .undirected();
        let task =
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(30 * n);
        let kinds = [
            SearcherKind::BfsFlood,
            SearcherKind::HighDegree,
            SearcherKind::GreedyId,
        ];

        let mut scratch = SearchScratch::new();
        let mut searchers: Vec<Box<dyn WeakSearcher>> = kinds.iter().map(|k| k.build()).collect();
        let (mut metrics, mut phases) = (Metrics::new(), PhaseTimes::new());
        let mut outcomes = Vec::new();
        search_trial(
            &mut scratch,
            &mut searchers,
            |_| (&graph, task),
            &trial_seeds,
            &mut metrics,
            &mut phases,
            |o| outcomes.push(o),
        )
        .unwrap();
        assert_eq!(outcomes.len(), kinds.len());
        for (i, (kind, outcome)) in kinds.iter().zip(&outcomes).enumerate() {
            let mut rng = trial_seeds.child_rng(1 + i as u64);
            let bare = run_weak_in(
                &mut SearchScratch::new(),
                &graph,
                &task,
                &mut *kind.build(),
                &mut rng,
            )
            .unwrap();
            assert_eq!(*outcome, bare, "{kind}");
        }
        let requests: u64 = outcomes.iter().map(|o| o.requests as u64).sum();
        let discoveries: u64 = outcomes.iter().map(|o| o.discovered as u64).sum();
        assert_eq!(metrics.requests, requests);
        assert_eq!(metrics.discoveries, discoveries);
        assert_eq!(metrics.scratch_resets, kinds.len() as u64);
        assert!(metrics.edge_resolutions > 0);
        // Exactly one histogram sample: the trial's summed requests.
        assert_eq!(metrics.trial_requests.total(), 1);
        let mut expected = Metrics::new();
        expected.observe_trial_requests(requests);
        assert_eq!(metrics.trial_requests, expected.trial_requests);
        assert!(phases.search_ns > 0);
        assert_eq!(phases.generate_ns + phases.load_ns + phases.merge_ns, 0);

        // One strong lane on the same scratch harvests the same way.
        let mut strong: Vec<Box<dyn StrongSearcher>> = vec![Box::new(StrongHighDegree::new())];
        let mut strong_metrics = Metrics::new();
        let mut strong_outcome = None;
        search_trial(
            &mut scratch,
            &mut strong,
            |_| (&graph, task),
            &trial_seeds,
            &mut strong_metrics,
            &mut phases,
            |o| strong_outcome = Some(o),
        )
        .unwrap();
        let strong_outcome = strong_outcome.expect("one strong lane ran");
        let bare = run_strong_in(
            &mut SearchScratch::new(),
            &graph,
            &task,
            &mut StrongHighDegree::new(),
            &mut trial_seeds.child_rng(1),
        )
        .unwrap();
        assert_eq!(strong_outcome, bare);
        assert_eq!(strong_metrics.requests, bare.requests as u64);
        assert_eq!(strong_metrics.discoveries, bare.discovered as u64);
        assert_eq!(strong_metrics.scratch_resets, 1);
        assert_eq!(strong_metrics.trial_requests.total(), 1);
    }
}
