//! The traced replay of each workload.
//!
//! Each replay drives the library's public entry points with the same
//! seeds, sizes, tasks and budgets as the `xp` command of its workload:
//! `GraphSource::trial_graph` for a trial's graph, `run_weak_in` for
//! each searcher lane (RNG `child_rng(1 + lane)`, task from vertex 1 to
//! vertex n, budget 30·n), `run_lanes_observed` for the engine, and the
//! `nonsearch_analysis` fits. Spans are recorded around those calls
//! only; nothing inside the program is instrumented.

use crate::spans::{Clock, Counts, Name, Span, SpanLog};
use nonsearch_analysis::{fit_log_log, fit_power_law_mle, log_binned_histogram};
use nonsearch_core::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, ModelSource,
    UniformAttachmentModel,
};
use nonsearch_corpus::{build, BuildSpec, Corpus, LoadMode, QUARANTINE_DIR};
use nonsearch_engine::{
    resolved_workers, run_lanes_observed, GraphSource, JsonValue, LaneAggregate, TrialMeasure,
};
use nonsearch_generators::{MoriTree, SeedSequence};
use nonsearch_graph::{degree_sequence, EdgeId, NodeId};
use nonsearch_search::{
    run_weak_in, DiscoveredView, SearchScratch, SearchTask, SearcherKind, SuccessCriterion,
    WeakSearchState, WeakSearcher,
};
use rand::RngCore;
use std::path::Path;
use std::sync::Mutex;

/// The size sweep of `theorem1-weak` (and of the default corpus).
pub const WEAK_SIZES: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];
/// Trials per size cell of `theorem1-weak`.
const WEAK_TRIALS: usize = 12;
/// Request budget per lane, as a multiple of the graph size.
const BUDGET_MULTIPLIER: usize = 30;
/// `degree-dist`'s graph size, trials per model and MLE cutoff.
const CENSUS_N: usize = 100_000;
const CENSUS_TRIALS: usize = 5;
const FIT_MIN_DEGREE: usize = 3;

/// The searchers raced in every search trial, in lane order.
pub fn lanes() -> &'static [SearcherKind] {
    SearcherKind::informed()
}

/// Everything a replay produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every thread's spans.
    pub logs: Vec<Vec<Span>>,
    /// One JSON key per cell (`p`, `m`, `n`, or `model`, `n`), indexed
    /// by the spans' `cell` field.
    pub cell_keys: Vec<Vec<(&'static str, JsonValue)>>,
    /// The replay's own result rows, shaped like the workload's
    /// `"type":"cell"` records, for the faithfulness check.
    pub results: Vec<JsonValue>,
    /// Wall time from the first cell to the end of the replay.
    pub sweep_ns: u64,
    /// Files in the corpus quarantine after the replay (corpus only).
    pub healed: u64,
}

/// A searcher wrapper that logs each answered `(u, e)` request, so the
/// oracle's share of the lane can be replayed without the strategy.
struct Logged {
    inner: Box<dyn WeakSearcher>,
    requests: Vec<(NodeId, EdgeId)>,
}

impl WeakSearcher for Logged {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        self.inner.next_request(task, view, rng)
    }

    fn observe(&mut self, request: (NodeId, EdgeId), revealed: NodeId) {
        self.requests.push(request);
        self.inner.observe(request, revealed);
    }

    fn reset(&mut self) {
        self.requests.clear();
        self.inner.reset();
    }

    fn reserve(&mut self, nodes: usize, edges: usize) {
        self.inner.reserve(nodes, edges);
    }

    fn frontier_rescans(&self) -> u64 {
        self.inner.frontier_rescans()
    }
}

/// One worker's state: its span log, the search and replay scratches,
/// and one logged instance of every searcher. Its spans go to the
/// shared sink when the engine drops it.
struct Worker<'a> {
    log: SpanLog<'a>,
    sink: &'a Mutex<Vec<Vec<Span>>>,
    scratch: SearchScratch,
    replay: SearchScratch,
    lanes: Vec<Logged>,
}

impl<'a> Worker<'a> {
    fn new(clock: &'a Clock, sink: &'a Mutex<Vec<Vec<Span>>>) -> Worker<'a> {
        Worker {
            log: SpanLog::new(clock),
            sink,
            scratch: SearchScratch::new(),
            replay: SearchScratch::new(),
            lanes: lanes()
                .iter()
                .map(|kind| Logged {
                    inner: kind.build(),
                    requests: Vec::new(),
                })
                .collect(),
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        // A poisoned sink means another worker panicked; that panic
        // already fails the replay, so these spans may be dropped.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(self.log.take());
        }
    }
}

/// The replay's recorder: the clock, the main thread's log, and the sink
/// the workers' logs land in.
struct Tracer<'c> {
    clock: &'c Clock,
    main: SpanLog<'c>,
    sink: Mutex<Vec<Vec<Span>>>,
    replay: Replay,
}

impl<'c> Tracer<'c> {
    fn new(clock: &'c Clock) -> Tracer<'c> {
        Tracer {
            clock,
            main: SpanLog::new(clock),
            sink: Mutex::new(Vec::new()),
            replay: Replay::default(),
        }
    }

    /// Runs one engine cell under a `cell` span and returns its lane
    /// aggregates.
    fn cell<F>(
        &mut self,
        key: Vec<(&'static str, JsonValue)>,
        trials: usize,
        lane_count: usize,
        threads: usize,
        seeds: &SeedSequence,
        trial: F,
    ) -> Vec<LaneAggregate>
    where
        F: Fn(&mut Worker<'_>, usize, usize, &SeedSequence) -> Vec<TrialMeasure> + Sync,
    {
        let cell = self.replay.cell_keys.len();
        self.replay.cell_keys.push(key);
        let (clock, sink) = (self.clock, &self.sink);
        let span = self.main.open(Name::Cell, None, cell, 0);
        let (aggregates, obs) = run_lanes_observed(
            trials,
            lane_count,
            threads,
            seeds,
            || Worker::new(clock, sink),
            |worker, _obs, index, trial_seeds| trial(worker, cell, index, &trial_seeds),
        );
        self.main.close(
            span,
            Counts {
                trials: obs.metrics.trials,
                retried: obs.metrics.trials_retried,
                skipped: obs.metrics.trials_skipped,
                workers: resolved_workers(threads, trials) as u64,
                ..Counts::default()
            },
        );
        aggregates
    }

    fn finish(mut self, sweep_start_ns: u64) -> Replay {
        self.replay.sweep_ns = self.clock.now_ns() - sweep_start_ns;
        let mut logs = vec![self.main.take()];
        logs.extend(
            self.sink
                .into_inner()
                .expect("a worker panic fails the replay before this point"),
        );
        self.replay.logs = logs;
        self.replay
    }
}

/// One search trial: fetch the graph, race every lane on it, and replay
/// each lane's requests on a bare oracle.
fn search_trial(
    worker: &mut Worker<'_>,
    source: &dyn GraphSource,
    cell: usize,
    n: usize,
    trial: usize,
    seeds: &SeedSequence,
) -> Vec<TrialMeasure> {
    let Worker {
        log,
        scratch,
        replay,
        lanes,
        ..
    } = worker;
    let trial_span = log.open(Name::Trial, None, cell, 0);
    let fetch = if source.is_stored() {
        Name::GraphLoad
    } else {
        Name::GraphGenerate
    };
    let fetch_span = log.open(fetch, Some(trial_span), cell, 0);
    let graph = source.trial_graph(n, trial, seeds);
    log.close(
        fetch_span,
        Counts {
            edges: graph.edge_count() as u64,
            ..Counts::default()
        },
    );
    let actual = graph.node_count();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
        .with_criterion(SuccessCriterion::DiscoverTarget)
        .with_budget(BUDGET_MULTIPLIER * actual);
    let mut measures = Vec::with_capacity(lanes.len());
    for (lane, searcher) in lanes.iter_mut().enumerate() {
        searcher.requests.clear();
        searcher.requests.reserve(BUDGET_MULTIPLIER * actual);
        let rescans_before = searcher.frontier_rescans();
        let mut rng = seeds.child_rng(1 + lane as u64);
        let lane_span = log.open(Name::SearchLane, Some(trial_span), cell, lane);
        let outcome = run_weak_in(scratch, &graph, &task, searcher, &mut rng)
            .expect("suite searchers never violate the protocol");
        log.close(
            lane_span,
            Counts {
                requests: outcome.requests as u64,
                discoveries: outcome.discovered as u64,
                frontier_rescans: searcher.frontier_rescans() - rescans_before,
                found: u64::from(outcome.found),
                ..Counts::default()
            },
        );

        // The replay runs after the lane but is its child: the lane's
        // self time is then the strategy's share of the lane.
        let resolutions_before = replay.view().edge_resolutions();
        let replay_span = log.open(Name::OracleReplay, Some(lane_span), cell, lane);
        let mut oracle = WeakSearchState::new_in(replay, &graph, task.start)
            .expect("the lane started from the same vertex");
        for &(u, e) in &searcher.requests {
            oracle
                .request(u, e)
                .expect("a logged request was valid when the lane made it");
        }
        let discoveries = oracle.view().len() as u64;
        log.close(
            replay_span,
            Counts {
                requests: searcher.requests.len() as u64,
                discoveries,
                edge_resolutions: replay.view().edge_resolutions() - resolutions_before,
                ..Counts::default()
            },
        );
        assert_eq!(
            (searcher.requests.len(), discoveries),
            (outcome.requests, outcome.discovered as u64),
            "the replay must reproduce the lane's requests and discoveries"
        );
        measures.push(TrialMeasure::new(outcome.requests as f64, outcome.found));
    }
    log.close(trial_span, Counts::default());
    measures
}

/// Runs the `theorem1-weak` sweep over `models` on `source_for(model)`
/// with `threads` workers, one cell per (model, size).
fn weak_sweep<'c>(
    tracer: &mut Tracer<'c>,
    seed: u64,
    threads: usize,
    models: &[(f64, usize)],
    source_for: &dyn Fn(&MergedMoriModel) -> Box<dyn GraphSource + '_>,
) {
    let seeds = SeedSequence::new(seed);
    for &(p, m) in models {
        let model = MergedMoriModel { p, m };
        let source = source_for(&model);
        let mut curves: Vec<Vec<(usize, LaneAggregate)>> = vec![Vec::new(); lanes().len()];
        for (size_idx, &n) in WEAK_SIZES.iter().enumerate() {
            let key = vec![
                ("p", JsonValue::from(p)),
                ("m", JsonValue::from(m)),
                ("n", JsonValue::from(n)),
            ];
            let aggregates = tracer.cell(
                key,
                WEAK_TRIALS,
                lanes().len(),
                threads,
                &seeds.subsequence(size_idx as u64),
                |worker, cell, trial, trial_seeds| {
                    search_trial(worker, &*source, cell, n, trial, trial_seeds)
                },
            );
            for (curve, aggregate) in curves.iter_mut().zip(aggregates) {
                curve.push((n, aggregate));
            }
        }
        for (kind, curve) in lanes().iter().zip(curves) {
            let xs: Vec<f64> = curve.iter().map(|(n, _)| *n as f64).collect();
            let ys: Vec<f64> = curve.iter().map(|(_, a)| a.mean().max(1e-9)).collect();
            let cell = tracer.replay.cell_keys.len() - 1;
            let fit_span = tracer.main.open(Name::AnalysisFit, None, cell, 0);
            let exponent = fit_log_log(&xs, &ys).map(|fit| fit.slope);
            tracer.main.close(fit_span, Counts::default());
            for (n, aggregate) in curve {
                tracer.replay.results.push(JsonValue::object(vec![
                    ("p", JsonValue::from(p)),
                    ("m", JsonValue::from(m)),
                    ("searcher", JsonValue::from(kind.name())),
                    ("n", JsonValue::from(n)),
                    ("mean", JsonValue::from(aggregate.mean())),
                    ("ci95", JsonValue::from(aggregate.ci95())),
                    ("success", JsonValue::from(aggregate.success_rate())),
                    (
                        "exponent",
                        exponent.map_or(JsonValue::Null, JsonValue::from),
                    ),
                ]));
            }
        }
    }
}

/// `xp theorem1-weak --threads 1`: the full p × m grid, graphs
/// generated per trial.
pub fn weak(seed: u64) -> Replay {
    let clock = Clock::start();
    let mut tracer = Tracer::new(&clock);
    let grid = [(0.3, 1), (0.3, 3), (0.6, 1), (0.6, 3), (1.0, 1), (1.0, 3)];
    weak_sweep(&mut tracer, seed, 1, &grid, &|model| {
        Box::new(ModelSource::new(model))
    });
    tracer.finish(0)
}

/// `xp corpus build DIR --threads 2` then the p=0.6, m=1 slice of
/// `theorem1-weak` on that corpus through mmap, on two workers.
pub fn corpus(seed: u64, dir: &Path) -> Replay {
    let clock = Clock::start();
    let mut tracer = Tracer::new(&clock);
    let spec = BuildSpec {
        seed,
        threads: 2,
        ..BuildSpec::default()
    };
    let build_span = tracer.main.open(Name::CorpusBuild, None, 0, 0);
    let report = build(dir, &spec).expect("the corpus builds");
    tracer.main.close(
        build_span,
        Counts {
            bytes: report.bytes,
            ..Counts::default()
        },
    );
    let open_span = tracer.main.open(Name::CorpusOpen, None, 0, 0);
    let corpus = Corpus::open_with(dir, LoadMode::Mmap).expect("the built corpus opens");
    tracer.main.close(open_span, Counts::default());

    let sweep_start = clock.now_ns();
    weak_sweep(&mut tracer, seed, 2, &[(0.6, 1)], &|model| {
        corpus
            .check_compatible(&model.name(), &WEAK_SIZES)
            .expect("the default corpus backs this slice");
        Box::new(corpus.source())
    });
    tracer.replay.healed =
        std::fs::read_dir(dir.join(QUARANTINE_DIR)).map_or(0, |entries| entries.count() as u64);
    tracer.finish(sweep_start)
}

/// `xp degree-dist --threads 2`: six generator families at n=100 000,
/// each trial graph passed through `degree_sequence` and the MLE fit,
/// then one more Móri graph for the printed degree histogram.
pub fn census(seed: u64) -> Replay {
    let clock = Clock::start();
    let mut tracer = Tracer::new(&clock);
    let seeds = SeedSequence::new(seed);
    let models: [&(dyn GraphModel + Sync); 6] = [
        &MergedMoriModel { p: 0.3, m: 1 },
        &MergedMoriModel { p: 0.6, m: 1 },
        &MergedMoriModel { p: 0.9, m: 1 },
        &CooperFriezeModel::balanced(0.7),
        &BarabasiAlbertModel { m: 2 },
        &UniformAttachmentModel { m: 1 },
    ];
    for (model_idx, model) in models.iter().enumerate() {
        let source = ModelSource::new(*model);
        let key = vec![
            ("model", JsonValue::from(model.name())),
            ("n", JsonValue::from(CENSUS_N)),
        ];
        let lanes = tracer.cell(
            key,
            CENSUS_TRIALS,
            3,
            2,
            &seeds.subsequence(model_idx as u64),
            |worker, cell, trial, trial_seeds| {
                census_trial(worker, &source, cell, trial, trial_seeds)
            },
        );
        let (exponent, ks, tail) = (&lanes[0], &lanes[1], &lanes[2]);
        tracer.replay.results.push(JsonValue::object(vec![
            ("model", JsonValue::from(model.name())),
            ("n", JsonValue::from(CENSUS_N)),
            ("exponent", JsonValue::from(exponent.mean())),
            ("ci95", JsonValue::from(exponent.ci95())),
            ("ks", JsonValue::from(ks.mean())),
            ("tail", JsonValue::from(tail.mean())),
            ("fits", JsonValue::from(exponent.successes)),
        ]));
    }

    // degree-dist's display-only degree histogram of one Móri graph,
    // sampled outside the engine on the main thread.
    let cell = tracer.replay.cell_keys.len() - 1;
    let log = &mut tracer.main;
    let fetch_span = log.open(Name::GraphGenerate, None, cell, 0);
    let mut rng = seeds.subsequence(99).child_rng(0);
    let graph = MoriTree::sample(CENSUS_N, 0.6, &mut rng)
        .expect("n and p are valid")
        .undirected();
    log.close(
        fetch_span,
        Counts {
            edges: graph.edge_count() as u64,
            ..Counts::default()
        },
    );
    let fit_span = log.open(Name::AnalysisFit, None, cell, 0);
    let bins = log_binned_histogram(&degree_sequence(&graph), 2.0).len();
    log.close(fit_span, Counts::default());
    assert!(bins > 0, "a Móri graph has a non-empty degree histogram");
    tracer.finish(0)
}

/// One census trial: generate the graph, then take its degree sequence
/// and fit the power-law tail.
fn census_trial(
    worker: &mut Worker<'_>,
    source: &dyn GraphSource,
    cell: usize,
    trial: usize,
    seeds: &SeedSequence,
) -> Vec<TrialMeasure> {
    let log = &mut worker.log;
    let trial_span = log.open(Name::Trial, None, cell, 0);
    let fetch_span = log.open(Name::GraphGenerate, Some(trial_span), cell, 0);
    let graph = source.trial_graph(CENSUS_N, trial, seeds);
    log.close(
        fetch_span,
        Counts {
            edges: graph.edge_count() as u64,
            ..Counts::default()
        },
    );
    let fit_span = log.open(Name::AnalysisFit, Some(trial_span), cell, 0);
    let fit = fit_power_law_mle(&degree_sequence(&graph), FIT_MIN_DEGREE);
    log.close(fit_span, Counts::default());
    log.close(trial_span, Counts::default());
    match fit {
        Some(fit) => vec![
            TrialMeasure::new(fit.exponent, true),
            TrialMeasure::new(fit.ks_distance, true),
            TrialMeasure::new(fit.tail_size as f64, true),
        ],
        None => vec![TrialMeasure::new(0.0, false); 3],
    }
}
