//! `xp bench` — the standardized engine benchmark suite.
//!
//! One command measures the five throughput surfaces regressions have
//! historically hidden in, and writes a schema-versioned suite record
//! (`BENCH_engine_suite.json`) that `xp profile-diff --suite` gates
//! against the committed copy:
//!
//! * **oracle** — the weak-model full flood on BA(m=2) at
//!   n ∈ {1 000, 10 000, 100 000}, pooled and (at n = 10 000) fresh
//!   scratch, on a Móri p=1.0, m=1 star at n = 16 384, and the
//!   strong-model full expansion at n = 10 000 (requests/sec).
//! * **corpus_load** — decoding a freshly-opened corpus, heap vs mmap,
//!   against regenerating the same graphs (graphs/sec, BA(m=2) at
//!   n = 10 000). The `Corpus` handle is reopened for every measured
//!   round, because loads are cached per handle — a warm handle would
//!   measure an `Arc` clone, not the decode path.
//! * **kernels** — one table of named generator, analysis and
//!   equivalence kernels (calls/sec): every model's sampler at
//!   n = 10 000, the power-law MLE, distances and regression on a
//!   50 000-vertex tree, and the exact/sampled window-event machinery.
//! * **searcher** — one search per round for each informed searcher
//!   (plus `sim-strong-greedy-id`) on a Móri p=0.6, m=1 graph at
//!   n ∈ {1 024, 16 384}, pooled scratch (requests/sec): the strategy
//!   layer's decision cost, where an O(n)-per-request searcher shows as
//!   a collapse between the two sizes.
//! * **thread_scaling** — one weak-model Monte-Carlo cell through the
//!   engine at 1 / 2 / 4 workers (requests/sec), catching regressions
//!   in the runner's backpressure/merge machinery that single-threaded
//!   lanes cannot see.
//!
//! Every cell carries a uniform higher-is-better `throughput` field
//! keyed by `section`/`key`, so the diff is an exact match — no
//! nearest-`n` heuristics. Every cell outside `thread_scaling` is timed
//! for at least 200 ms (100 ms quick). Quick mode (`--quick`) runs a
//! reduced sweep and writes `BENCH_engine_suite.quick.json` instead, so
//! a truncated run can never clobber the committed full record.

use crate::{weak_cell_with_policy_from, StartPolicy};
use nonsearch_alloc_counter::allocations;
use nonsearch_analysis::{average_distance, fit_log_log, fit_power_law_mle, DegreeDistribution};
use nonsearch_core::{
    enumerate_mori_trees, estimate_mori_event_probability, mori_event_probability_exact,
    mori_window_event_holds, BarabasiAlbertModel, EquivalenceWindow, MergedMoriModel, ModelSource,
};
use nonsearch_corpus::{build, BuildSpec, Corpus, LoadMode};
use nonsearch_engine::{git_describe, json::JsonValue, GraphSource};
use nonsearch_generators::{
    power_law_degree_sequence, rng_from_seed, BarabasiAlbert, ConfigModel, CooperFrieze,
    CooperFriezeConfig, KleinbergGrid, MergedMori, MoriTree, PowerLawConfig, SeedSequence,
    SimplificationPolicy, UniformAttachment,
};
use nonsearch_graph::{degree_sequence, NodeId, UndirectedCsr};
use nonsearch_search::{
    run_weak_in, FrontierCursors, SearchScratch, SearchTask, SearcherKind, StrongSearchState,
    SuccessCriterion, WeakSearchState,
};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: xp bench [--quick] [--out FILE]";

/// Suite record schema version; `xp profile-diff --suite` rejects
/// records with any other value.
pub const SUITE_SCHEMA_VERSION: u64 = 1;

/// Default output path of the full suite (committed at the repo root).
pub const SUITE_RECORD: &str = "BENCH_engine_suite.json";

/// Output path quick runs are redirected to (gitignored).
pub const SUITE_RECORD_QUICK: &str = "BENCH_engine_suite.quick.json";

/// One measured suite cell, pre-serialization.
struct Cell {
    section: &'static str,
    key: String,
    throughput: f64,
    detail: Vec<(&'static str, JsonValue)>,
}

/// The weak-model full flood (one request per unexplored edge slot of
/// each discovered vertex, discovery order): the oracle hot path with
/// zero strategy overhead.
fn weak_flood(
    scratch: &mut SearchScratch,
    cursors: &mut FrontierCursors,
    graph: &UndirectedCsr,
) -> usize {
    cursors.reset();
    let mut state = WeakSearchState::new_in(scratch, graph, NodeId::from_label(1)).unwrap();
    let mut cursor = 0usize;
    while cursor < state.view().len() {
        let v = state.view().discovered()[cursor];
        match cursors.next_unexplored(state.view(), v) {
            Some(e) => {
                state.request(v, e).unwrap();
            }
            None => cursor += 1,
        }
    }
    state.requests()
}

/// The strong-model full expansion: request every discovered vertex
/// once, in discovery order.
fn strong_expand_all(scratch: &mut SearchScratch, graph: &UndirectedCsr) -> usize {
    let mut state = StrongSearchState::new_in(scratch, graph, NodeId::from_label(1)).unwrap();
    let mut cursor = 0usize;
    while cursor < state.view().len() {
        let v = state.view().discovered()[cursor];
        cursor += 1;
        state.request(v).unwrap();
    }
    state.requests()
}

fn ba_graph(n: usize) -> std::sync::Arc<UndirectedCsr> {
    let model = BarabasiAlbertModel { m: 2 };
    ModelSource::new(&model).trial_graph(n, 0, &SeedSequence::new(0xBEAC).subsequence(0))
}

fn mori_graph(n: usize, p: f64, m: usize) -> std::sync::Arc<UndirectedCsr> {
    let model = MergedMoriModel { p, m };
    ModelSource::new(&model).trial_graph(n, 0, &SeedSequence::new(0xBEAC).subsequence(0))
}

/// What [`timed_rounds`] measured.
struct Timed {
    /// The warm-up round's result (requests per round).
    requests: usize,
    /// Timed rounds.
    rounds: u64,
    /// Wall seconds of the timed rounds.
    secs: f64,
    /// Heap allocations over the timed rounds, on this thread (zero
    /// unless the binary installs the counting allocator, as `xp` does).
    allocs: u64,
}

impl Timed {
    fn throughput(&self) -> f64 {
        (self.requests as u64 * self.rounds) as f64 / self.secs
    }
}

/// Runs `round` once to warm pooled state, then repeatedly until at
/// least `min_time` has passed.
fn timed_rounds(min_time: Duration, mut round: impl FnMut() -> usize) -> Timed {
    let requests = round();
    let mut rounds = 0u64;
    let allocs_before = allocations();
    // lint: allow(clock-env): benchmark wall-clock measurement; throughput is the deliverable, not an aggregate
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < min_time {
        round();
        rounds += 1;
    }
    Timed {
        requests,
        rounds,
        secs: start.elapsed().as_secs_f64().max(1e-9),
        allocs: allocations() - allocs_before,
    }
}

/// Oracle hot path, requests/sec per cell:
///
/// * `weak_flood_n*` — the weak flood on BA(m=2) per size, pooled
///   scratch (steady state, no growth allocations);
/// * `weak_flood_fresh_n10000` — the same flood with a fresh scratch
///   and cursor set per trial, so the growth allocations are timed;
/// * `weak_flood_star_n16384` — the weak flood on a Móri p=1.0, m=1
///   graph, a star whose hub has degree n − 1, so any per-request
///   cost in the requesting vertex's degree shows as a collapse;
/// * `strong_expand_all_n10000` — the strong full expansion on a Móri
///   p=0.5, m=2 graph, pooled scratch.
///
/// The last three cells use the same n in quick and full mode, so the
/// suite gate compares them on every run.
fn oracle_section(quick: bool, min_time: Duration, cells: &mut Vec<Cell>) {
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut scratch = SearchScratch::new();
    let mut cursors = FrontierCursors::new();
    for &n in sizes {
        let graph = ba_graph(n);
        let timed = timed_rounds(min_time, || weak_flood(&mut scratch, &mut cursors, &graph));
        cells.push(oracle_cell("weak_flood", n, timed));
    }
    let graph = ba_graph(10_000);
    let timed = timed_rounds(min_time, || {
        weak_flood(
            &mut SearchScratch::new(),
            &mut FrontierCursors::new(),
            &graph,
        )
    });
    cells.push(oracle_cell("weak_flood_fresh", 10_000, timed));
    let star = mori_graph(16_384, 1.0, 1);
    let timed = timed_rounds(min_time, || weak_flood(&mut scratch, &mut cursors, &star));
    cells.push(oracle_cell("weak_flood_star", 16_384, timed));
    let graph = mori_graph(10_000, 0.5, 2);
    let timed = timed_rounds(min_time, || strong_expand_all(&mut scratch, &graph));
    cells.push(oracle_cell("strong_expand_all", 10_000, timed));
}

/// The `oracle` cell keyed `<lane>_n<n>`.
fn oracle_cell(lane: &str, n: usize, timed: Timed) -> Cell {
    let key = format!("{lane}_n{n}");
    let throughput = timed.throughput();
    println!(
        "oracle/{key}: {throughput:.0} req/s ({} req, {} rounds)",
        timed.requests, timed.rounds
    );
    Cell {
        section: "oracle",
        key,
        throughput,
        detail: vec![
            ("n", JsonValue::from(n)),
            ("requests_per_trial", JsonValue::from(timed.requests)),
            ("rounds", JsonValue::from(timed.rounds)),
            (
                "ns_per_trial",
                JsonValue::from(timed.secs * 1e9 / timed.rounds as f64),
            ),
            (
                "allocs_per_trial",
                JsonValue::from(timed.allocs / timed.rounds),
            ),
        ],
    }
}

/// Corpus setup throughput, graphs/sec, at n = 10 000 in quick and
/// full mode alike: heap vs mmap loads of a freshly-built scratch
/// corpus, reopening the handle per round to defeat its cache, and
/// regenerating the same number of graphs per round — the
/// generate-vs-load ratio a corpus exists to win.
fn corpus_section(min_time: Duration, cells: &mut Vec<Cell>) -> Result<(), String> {
    const N: usize = 10_000;
    const GRAPHS: usize = 12;
    let dir = std::env::temp_dir().join(format!("nonsearch_bench_corpus_{}", std::process::id()));
    let spec = BuildSpec {
        model_spec: "ba:m=2".to_string(),
        seed: 0xBEAC,
        sizes: vec![N],
        trials: GRAPHS,
        variants: 0,
        swaps_per_edge: 0,
        threads: 0,
    };
    build(&dir, &spec).map_err(|e| format!("corpus build: {e}"))?;

    for (mode, key) in [(LoadMode::Heap, "heap"), (LoadMode::Mmap, "mmap")] {
        let timed = timed_rounds(min_time, || {
            // Reopen per round: `Corpus::load` caches per handle, so a
            // warm handle would measure Arc clones, not decodes.
            let corpus = Corpus::open_with(&dir, mode).expect("bench corpus opens");
            for g in 0..GRAPHS {
                let graph = corpus.load(g, None).expect("bench corpus loads");
                assert_eq!(graph.node_count(), N);
            }
            GRAPHS
        });
        cells.push(corpus_cell(key, N, timed));
    }
    std::fs::remove_dir_all(&dir).ok();

    let model = BarabasiAlbertModel { m: 2 };
    let source = ModelSource::new(&model);
    let seeds = SeedSequence::new(0xBEAC);
    let timed = timed_rounds(min_time, || {
        for trial in 0..GRAPHS {
            black_box(source.trial_graph(N, trial, &seeds.subsequence(trial as u64)));
        }
        GRAPHS
    });
    cells.push(corpus_cell("regenerate", N, timed));
    Ok(())
}

/// The `corpus_load` cell keyed `<lane>_n<n>`.
fn corpus_cell(lane: &str, n: usize, timed: Timed) -> Cell {
    let key = format!("{lane}_n{n}");
    let throughput = timed.throughput();
    println!(
        "corpus_load/{key}: {throughput:.1} graphs/s ({} rounds of {})",
        timed.rounds, timed.requests
    );
    Cell {
        section: "corpus_load",
        key,
        throughput,
        detail: vec![
            ("n", JsonValue::from(n)),
            ("graphs", JsonValue::from(timed.requests)),
            ("rounds", JsonValue::from(timed.rounds)),
        ],
    }
}

/// One `kernels` row: a call whose result is kept opaque to the
/// optimizer, drawing any randomness from the section's stream.
type Kernel<'a> = Box<dyn FnMut(&mut ChaCha8Rng) + 'a>;

fn kernel<'a, T>(mut call: impl FnMut(&mut ChaCha8Rng) -> T + 'a) -> Kernel<'a> {
    Box::new(move |rng| {
        black_box(call(rng));
    })
}

/// Generator and analysis kernels, calls/sec: one table keyed by name,
/// each row timed by [`timed_rounds`]. The generators run at n = 10 000;
/// the analysis kernels share one Móri p=0.6 tree at n = 50 000. Every
/// key is the same in quick and full mode, so the suite gate compares
/// them on every run.
fn kernels_section(min_time: Duration, cells: &mut Vec<Cell>) {
    const N: usize = 10_000;
    let tree = MoriTree::sample(50_000, 0.6, &mut rng_from_seed(1)).unwrap();
    let graph = tree.undirected();
    let degrees = degree_sequence(&graph);
    let xs: Vec<f64> = (1..1000).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
    let trace_tree = MoriTree::sample(N, 0.5, &mut rng_from_seed(1)).unwrap();
    let trace_window = EquivalenceWindow::from_anchor(N - 100);
    let big = EquivalenceWindow::from_anchor(1_000_000);
    let mc_window = EquivalenceWindow::from_anchor(200);
    let cf = CooperFriezeConfig::balanced(0.7).unwrap();
    let power_law = PowerLawConfig::new(2.3, 1).unwrap();
    let mut rng = rng_from_seed(2);

    let mut kernels: Vec<(&str, Kernel)> = vec![
        (
            "mori_tree_p05_n10000",
            kernel(|rng| MoriTree::sample(N, 0.5, rng).unwrap()),
        ),
        (
            "merged_mori_m3_n10000",
            kernel(|rng| MergedMori::sample(N, 3, 0.5, rng).unwrap()),
        ),
        (
            "cooper_frieze_n10000",
            kernel(|rng| CooperFrieze::sample(N, &cf, rng).unwrap()),
        ),
        (
            "barabasi_albert_m2_n10000",
            kernel(|rng| BarabasiAlbert::sample(N, 2, rng).unwrap()),
        ),
        (
            "uniform_attachment_n10000",
            kernel(|rng| UniformAttachment::sample(N, 1, rng).unwrap()),
        ),
        (
            "config_model_k23_n10000",
            kernel(|rng| {
                let degrees = power_law_degree_sequence(N, &power_law, rng).unwrap();
                ConfigModel::sample(&degrees, SimplificationPolicy::Multigraph, rng).unwrap()
            }),
        ),
        (
            "kleinberg_grid_64_r2",
            kernel(|rng| KleinbergGrid::sample(64, 2.0, 1, rng).unwrap()),
        ),
        (
            "power_law_mle_50k",
            kernel(|_| fit_power_law_mle(&degrees, 2).unwrap()),
        ),
        (
            "degree_distribution_50k",
            kernel(|_| DegreeDistribution::of(&graph)),
        ),
        (
            "avg_distance_8_sources_50k",
            kernel(|rng| average_distance(&graph, 8, rng).unwrap()),
        ),
        (
            "log_log_fit_1k_points",
            kernel(|_| fit_log_log(&xs, &ys).unwrap()),
        ),
        (
            "exact_event_probability_a_1e6",
            kernel(|_| mori_event_probability_exact(big.a(), big.b(), 0.5).unwrap()),
        ),
        (
            "event_check_on_trace_b_10k",
            kernel(|_| mori_window_event_holds(trace_tree.trace(), &trace_window)),
        ),
        (
            "monte_carlo_event_200_trials",
            kernel(|_| estimate_mori_event_probability(&mc_window, 0.5, 200, 3).unwrap()),
        ),
        (
            "enumerate_trees_n9",
            kernel(|_| enumerate_mori_trees(9, 0.5).unwrap()),
        ),
    ];
    for (key, kernel) in &mut kernels {
        let timed = timed_rounds(min_time, || {
            kernel(&mut rng);
            1
        });
        let throughput = timed.throughput();
        println!(
            "kernels/{key}: {throughput:.1} calls/s ({} rounds)",
            timed.rounds
        );
        cells.push(Cell {
            section: "kernels",
            key: key.to_string(),
            throughput,
            detail: vec![
                ("rounds", JsonValue::from(timed.rounds)),
                (
                    "ns_per_call",
                    JsonValue::from(timed.secs * 1e9 / timed.rounds as f64),
                ),
            ],
        });
    }
}

/// Strategy-layer throughput: repeated identical searches (vertex 1 →
/// vertex n, budget 50n) per searcher on one Móri p=0.6, m=1 graph per
/// size, pooled scratch and searcher, until the cell has run for at
/// least 200 ms (100 ms quick). Every round is the same search, so the
/// request count per round is exact and only the wall clock varies.
fn searcher_section(quick: bool, min_time: Duration, cells: &mut Vec<Cell>) {
    let sizes: &[usize] = if quick { &[1_024] } else { &[1_024, 16_384] };
    let model = MergedMoriModel { p: 0.6, m: 1 };
    let seeds = SeedSequence::new(0xBE5E).subsequence(0);
    let kinds = SearcherKind::informed()
        .iter()
        .chain([&SearcherKind::SimStrongGreedyId]);
    for &n in sizes {
        let graph = ModelSource::new(&model).trial_graph(n, 0, &seeds);
        assert_eq!(graph.node_count(), n);
        let task =
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(50 * n);
        let mut scratch = SearchScratch::new();
        for kind in kinds.clone() {
            let mut searcher = kind.build();
            let timed = timed_rounds(min_time, || {
                run_weak_in(
                    &mut scratch,
                    &graph,
                    &task,
                    &mut *searcher,
                    &mut rng_from_seed(7),
                )
                .expect("suite searchers never violate the protocol")
                .requests
            });
            let throughput = timed.throughput();
            let key = format!("{kind}_n{n}");
            println!(
                "searcher/{key}: {throughput:.0} req/s ({} req, {} rounds)",
                timed.requests, timed.rounds
            );
            cells.push(Cell {
                section: "searcher",
                key,
                throughput,
                detail: vec![
                    ("n", JsonValue::from(n)),
                    ("requests_per_trial", JsonValue::from(timed.requests)),
                    ("rounds", JsonValue::from(timed.rounds)),
                    ("ns_per_request", JsonValue::from(1e9 / throughput)),
                ],
            });
        }
    }
}

/// Engine thread scaling: one weak Monte-Carlo cell at 1 / 2 / 4
/// workers. Aggregates are bit-identical across the three rows (the
/// engine's contract); only the wall clock moves. The trial counts keep
/// every row long enough to time: about 1.5 s per worker-row in full
/// mode and 100 ms quick on a 2-core host.
fn thread_scaling_section(quick: bool, cells: &mut Vec<Cell>) {
    let n = if quick { 1_024 } else { 4_096 };
    let trials = if quick { 512 } else { 2_048 };
    let model = MergedMoriModel { p: 0.6, m: 1 };
    let seeds = SeedSequence::new(0xBE2C);
    for threads in [1usize, 2, 4] {
        let (_, cell) = weak_cell_with_policy_from(
            &ModelSource::new(&model),
            n,
            SearcherKind::HighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trials,
            30,
            threads,
            &seeds,
        );
        println!(
            "thread_scaling/threads_{threads}_n{n}: {:.0} req/s ({trials} trials)",
            cell.requests_per_sec()
        );
        cells.push(Cell {
            section: "thread_scaling",
            // n rides in the key: quick (n=1024) and full (n=4096) rows
            // are different workloads, and the suite diff must skip a
            // cross-mode pair, not compare it.
            key: format!("threads_{threads}_n{n}"),
            throughput: cell.requests_per_sec(),
            detail: vec![
                ("n", JsonValue::from(n)),
                ("trials", JsonValue::from(trials)),
                ("wall_ms", JsonValue::from(cell.wall_ms)),
                ("workers", JsonValue::from(cell.workers)),
            ],
        });
    }
}

/// Serializes the suite record document.
fn suite_record(quick: bool, cells: &[Cell]) -> String {
    let cells: Vec<JsonValue> = cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("section", JsonValue::from(c.section)),
                ("key", JsonValue::from(c.key.as_str())),
                ("throughput", JsonValue::from(c.throughput)),
            ];
            fields.extend(c.detail.iter().map(|(k, v)| (*k, v.clone())));
            JsonValue::object(fields)
        })
        .collect();
    let doc = JsonValue::object(vec![
        ("schema_version", JsonValue::from(SUITE_SCHEMA_VERSION)),
        ("bench", JsonValue::from("engine_suite")),
        ("quick", JsonValue::from(quick)),
        ("git", JsonValue::from(git_describe())),
        ("cells", JsonValue::Array(cells)),
    ]);
    format!("{doc}\n")
}

/// The `xp bench` subcommand body. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xp bench: --out requires a value");
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("xp bench: unknown argument {other:?}");
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    // Quick runs are redirected to the `.quick.json` sibling so they
    // can never clobber the committed full-suite record.
    let out = out.unwrap_or_else(|| {
        PathBuf::from(if quick {
            SUITE_RECORD_QUICK
        } else {
            SUITE_RECORD
        })
    });

    println!(
        "=== xp bench (engine suite{}) ===\n",
        if quick { ", quick" } else { "" }
    );
    // Every timed cell runs for at least this long.
    let min_time = Duration::from_millis(if quick { 100 } else { 200 });
    let mut cells = Vec::new();
    oracle_section(quick, min_time, &mut cells);
    if let Err(e) = corpus_section(min_time, &mut cells) {
        eprintln!("xp bench: {e}");
        return 2;
    }
    kernels_section(min_time, &mut cells);
    searcher_section(quick, min_time, &mut cells);
    thread_scaling_section(quick, &mut cells);

    let record = suite_record(quick, &cells);
    if let Err(e) = std::fs::write(&out, &record) {
        eprintln!("xp bench: cannot write {}: {e}", out.display());
        return 2;
    }
    println!("\nwrote {} cells to {}", cells.len(), out.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_engine::profile_diff::suite_from_json;

    #[test]
    fn suite_record_round_trips_through_the_diff_parser() {
        let cells = vec![
            Cell {
                section: "oracle",
                key: "weak_flood_n1000".into(),
                throughput: 5000.0,
                detail: vec![("n", JsonValue::from(1000u64))],
            },
            Cell {
                section: "thread_scaling",
                key: "threads_2".into(),
                throughput: 123.4,
                detail: vec![],
            },
        ];
        let text = suite_record(true, &cells);
        let parsed = suite_from_json(&text).expect("record parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].section, "oracle");
        assert_eq!(parsed[0].key, "weak_flood_n1000");
        assert_eq!(parsed[0].throughput, 5000.0);
        assert_eq!(parsed[1].section, "thread_scaling");
        assert_eq!(parsed[1].key, "threads_2");
    }

    #[test]
    fn flood_costs_exactly_n_minus_one_on_connected_graphs() {
        let graph = ba_graph(512);
        let mut scratch = SearchScratch::new();
        let mut cursors = FrontierCursors::new();
        let requests = weak_flood(&mut scratch, &mut cursors, &graph);
        // Every vertex beyond the start is discovered by at least one
        // request; BA(m=2) is connected, and m=2 adds extra edges, so
        // the flood needs at least n − 1 requests.
        assert!(requests >= graph.node_count() - 1);
    }

    #[test]
    fn star_cell_floods_a_star() {
        let graph = mori_graph(256, 1.0, 1);
        let hub = (0..graph.node_count())
            .map(|v| graph.degree(NodeId::new(v)))
            .max()
            .unwrap();
        assert_eq!(hub, graph.node_count() - 1);
        let mut scratch = SearchScratch::new();
        let mut cursors = FrontierCursors::new();
        let requests = weak_flood(&mut scratch, &mut cursors, &graph);
        assert_eq!(requests, graph.node_count() - 1);
        assert_eq!(strong_expand_all(&mut scratch, &graph), graph.node_count());
    }

    #[test]
    fn unknown_arguments_are_usage_errors() {
        assert_eq!(main(&["--wat".to_string()]), 2);
        assert_eq!(main(&["--out".to_string()]), 2);
    }
}
