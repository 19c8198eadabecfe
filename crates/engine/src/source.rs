//! Where a trial's graph comes from: generated on the fly, or served
//! from a persistent corpus.
//!
//! Every Monte-Carlo cell in this workspace consumes one sampled graph
//! per trial. Historically that always meant *generate-per-trial*:
//! derive the trial's RNG stream and run a generator. [`GraphSource`]
//! abstracts the supply so the same experiment code can instead be
//! *corpus-backed* — trials are assigned stored, pre-generated graphs
//! round-robin — which amortizes generation across every experiment
//! that shares the ensemble (see the `nonsearch_corpus` crate).
//!
//! Graphs are handed out as `Arc<UndirectedCsr>`: a generate-backed
//! source allocates per trial, while a corpus-backed source shares one
//! cached instance across every trial (and thread) that reads it.

use nonsearch_generators::SeedSequence;
use nonsearch_graph::UndirectedCsr;
use nonsearch_obs::{timed, PhaseTimes};
use std::sync::Arc;

/// Supplies the graph for each trial of a cell.
///
/// Implementations must be deterministic: the same `(n, trial, seeds)`
/// arguments always produce the same graph, so cell aggregates stay
/// bit-identical for any worker count.
pub trait GraphSource: Sync {
    /// The graph for `trial` of a cell at size `n`.
    ///
    /// `seeds` is the trial's own seed sequence (see
    /// [`trial_seeds`](crate::trial_seeds)). Generate-backed sources
    /// draw the graph from `seeds.child_rng(0)` — the workspace-wide
    /// convention, which keeps child indices `1..` free for searcher
    /// streams — while corpus-backed sources ignore `seeds` and map
    /// `trial` onto their stored ensemble.
    fn trial_graph(&self, n: usize, trial: usize, seeds: &SeedSequence) -> Arc<UndirectedCsr>;

    /// Human-readable description for banners and run records, e.g.
    /// `generate:mori(p=0.6,m=1)` or `corpus:/path/to/dir`.
    fn describe(&self) -> String;

    /// Whether trial graphs come from persistent storage rather than a
    /// generator. Phase timers use this to attribute graph-fetch time
    /// to the `load` phase (corpus-backed) instead of `generate`;
    /// nothing deterministic may depend on it. Defaults to `false`.
    fn is_stored(&self) -> bool {
        false
    }

    /// [`trial_graph`](GraphSource::trial_graph), with the fetch time
    /// added to `phases`: to `load` for a stored source, to `generate`
    /// otherwise (see [`is_stored`](GraphSource::is_stored)).
    fn timed_trial_graph(
        &self,
        n: usize,
        trial: usize,
        seeds: &SeedSequence,
        phases: &mut PhaseTimes,
    ) -> Arc<UndirectedCsr> {
        let phase = if self.is_stored() {
            &mut phases.load_ns
        } else {
            &mut phases.generate_ns
        };
        timed(phase, || self.trial_graph(n, trial, seeds))
    }
}

/// A [`GraphSource`] built from a sampling closure — the adapter used
/// by `GraphModel` implementations and by tests.
pub struct FnSource<F> {
    label: String,
    sample: F,
}

impl<F> FnSource<F>
where
    F: Fn(usize, &SeedSequence) -> UndirectedCsr + Sync,
{
    /// Wraps `sample(n, trial_seeds)` as a generate-backed source.
    pub fn new(label: impl Into<String>, sample: F) -> FnSource<F> {
        FnSource {
            label: label.into(),
            sample,
        }
    }
}

impl<F> GraphSource for FnSource<F>
where
    F: Fn(usize, &SeedSequence) -> UndirectedCsr + Sync,
{
    fn trial_graph(&self, n: usize, _trial: usize, seeds: &SeedSequence) -> Arc<UndirectedCsr> {
        Arc::new((self.sample)(n, seeds))
    }

    fn describe(&self) -> String {
        format!("generate:{}", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::NodeId;

    fn path_source() -> impl GraphSource {
        FnSource::new("path", |n, _seeds| {
            UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("valid path")
        })
    }

    #[test]
    fn fn_source_samples_and_describes() {
        let src = path_source();
        let seeds = SeedSequence::new(1);
        let g = src.trial_graph(5, 0, &seeds);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(src.describe(), "generate:path");
    }

    #[test]
    fn references_forward() {
        // Experiments hold boxed sources and lend them as `&dyn`.
        fn describe(source: &(impl GraphSource + ?Sized)) -> String {
            source.describe()
        }
        let boxed: Box<dyn GraphSource> = Box::new(path_source());
        let by_ref: &dyn GraphSource = &*boxed;
        let seeds = SeedSequence::new(2);
        assert_eq!(by_ref.trial_graph(3, 1, &seeds).node_count(), 3);
        assert_eq!(describe(by_ref), "generate:path");
    }

    #[test]
    fn timed_fetches_charge_generate_unless_stored() {
        struct Stored<S>(S);
        impl<S: GraphSource> GraphSource for Stored<S> {
            fn trial_graph(
                &self,
                n: usize,
                trial: usize,
                seeds: &SeedSequence,
            ) -> Arc<UndirectedCsr> {
                self.0.trial_graph(n, trial, seeds)
            }
            fn describe(&self) -> String {
                "stored".into()
            }
            fn is_stored(&self) -> bool {
                true
            }
        }
        let seeds = SeedSequence::new(2);
        let mut phases = PhaseTimes::new();
        let g = path_source().timed_trial_graph(3, 1, &seeds, &mut phases);
        assert_eq!(g.node_count(), 3);
        assert!(phases.generate_ns > 0);
        assert_eq!(phases.load_ns, 0);

        let mut phases = PhaseTimes::new();
        let by_dyn: &dyn GraphSource = &Stored(path_source());
        let g = by_dyn.timed_trial_graph(4, 0, &seeds, &mut phases);
        assert_eq!(g.node_count(), 4);
        assert!(phases.load_ns > 0);
        assert_eq!(phases.generate_ns, 0);
    }
}
