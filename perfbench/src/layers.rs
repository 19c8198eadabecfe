//! Per-layer metrics, computed from the replay's spans.
//!
//! Every metric is a sum over spans of one name: a count recorded at
//! the span's boundary, or its duration. A strategy's share of a lane
//! is the lane's time minus its oracle replay's — the lane span's self
//! time, pooled per (lane, size) before subtracting. The names are the
//! `per_layer` names of `BENCHMARK.json`; the orchestrator adds the
//! ones measured outside the replay (`records.*`, `trace.overhead_s`).

use crate::replay::{lanes, Replay, WEAK_SIZES};
use crate::spans::Name;
use std::collections::BTreeMap;

/// Metric name → value, in name order.
pub type Metrics = BTreeMap<String, f64>;

/// Least-squares slope of `ln y` against `ln x` over the points with
/// both coordinates positive; `None` with fewer than two such points or
/// a single distinct `x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let count = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / count;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / count;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// The share of worker capacity not spent inside trials:
/// `1 − busy / (workers × wall)` summed over cells, where each cell is
/// `(workers, wall_ns, busy_ns)`. Zero when no cell ran.
pub fn idle_ratio(cells: &[(u64, u64, u64)]) -> f64 {
    let capacity: f64 = cells
        .iter()
        .map(|&(w, wall, _)| w as f64 * wall as f64)
        .sum();
    let busy: f64 = cells.iter().map(|&(_, _, busy)| busy as f64).sum();
    if capacity > 0.0 {
        1.0 - busy / capacity
    } else {
        0.0
    }
}

/// `numerator / denominator`, or zero when nothing was counted.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

const NS: f64 = 1e-9;

/// A searcher lane's sums over one size: lane time, the time its
/// requests took when replayed on a bare oracle, and the request count.
#[derive(Clone, Copy, Default)]
struct LaneCell {
    lane_ns: u64,
    replay_ns: u64,
    requests: u64,
}

impl LaneCell {
    /// The strategy's share: lane time minus oracle replay time.
    fn strategy_ns(&self) -> f64 {
        self.lane_ns.saturating_sub(self.replay_ns) as f64
    }
}

/// Log–log slope of `ns(cell) / requests` against n.
fn cost_exponent(sizes: &BTreeMap<u64, LaneCell>, ns: impl Fn(&LaneCell) -> f64) -> f64 {
    let curve: Vec<(f64, f64)> = sizes
        .iter()
        .map(|(&n, c)| (n as f64, per(ns(c), c.requests as f64)))
        .collect();
    log_log_slope(&curve).unwrap_or(0.0)
}

/// Computes every per-layer metric of the replay.
pub fn metrics(replay: &Replay) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let n_of_cell: Vec<u64> = replay
        .cell_keys
        .iter()
        .map(|key| {
            key.iter()
                .find(|(k, _)| *k == "n")
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0)
        })
        .collect();

    // lane → n → sums; found targets and runs per lane.
    let mut by_size: Vec<BTreeMap<u64, LaneCell>> = vec![BTreeMap::new(); lanes().len()];
    let mut found = vec![0u64; lanes().len()];
    let mut runs = vec![0u64; lanes().len()];
    let mut rescans = 0u64;
    let (mut oracle_ns, mut oracle_requests, mut resolutions, mut discoveries) = (0, 0, 0, 0);
    let (mut graphs, mut edges, mut generate_ns) = (0u64, 0u64, 0u64);
    let (mut loads, mut load_ns, mut build_ns, mut bytes, mut open_ns) = (0u64, 0, 0, 0, 0);
    let (mut trial_ns, mut analysis_ns) = (0u64, 0u64);
    let (mut trials, mut retried, mut skipped, mut workers) = (0u64, 0, 0, 0);
    // cell → (workers, wall, busy)
    let mut cells: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();

    for log in &replay.logs {
        for span in log {
            let c = span.counts;
            let dur = span.duration_ns();
            match span.name {
                Name::Cell => {
                    trials += c.trials;
                    retried += c.retried;
                    skipped += c.skipped;
                    workers = workers.max(c.workers);
                    let entry = cells.entry(span.cell).or_default();
                    entry.0 = c.workers;
                    entry.1 += dur;
                }
                Name::Trial => {
                    trial_ns += dur;
                    cells.entry(span.cell).or_default().2 += dur;
                }
                Name::GraphGenerate => {
                    graphs += 1;
                    edges += c.edges;
                    generate_ns += dur;
                }
                Name::GraphLoad => {
                    loads += 1;
                    load_ns += dur;
                }
                Name::SearchLane => {
                    let n = n_of_cell.get(span.cell).copied().unwrap_or(0);
                    let cell = by_size[span.lane].entry(n).or_default();
                    cell.lane_ns += dur;
                    cell.requests += c.requests;
                    found[span.lane] += c.found;
                    runs[span.lane] += 1;
                    rescans += c.frontier_rescans;
                }
                Name::OracleReplay => {
                    let n = n_of_cell.get(span.cell).copied().unwrap_or(0);
                    by_size[span.lane].entry(n).or_default().replay_ns += dur;
                    oracle_ns += dur;
                    oracle_requests += c.requests;
                    resolutions += c.edge_resolutions;
                    discoveries += c.discoveries;
                }
                Name::AnalysisFit => analysis_ns += dur,
                Name::CorpusBuild => {
                    build_ns += dur;
                    bytes += c.bytes;
                }
                Name::CorpusOpen => open_ns += dur,
            }
        }
    }

    let mut all_requests = 0u64;
    let mut oracle_by_size: BTreeMap<u64, LaneCell> = BTreeMap::new();
    for (lane, kind) in lanes().iter().enumerate() {
        let prefix = format!("strategy.{}", kind.name());
        let sizes = &by_size[lane];
        let strategy_ns: f64 = sizes.values().map(LaneCell::strategy_ns).sum();
        let requests: u64 = sizes.values().map(|c| c.requests).sum();
        all_requests += requests;
        for (&n, c) in sizes {
            let pooled = oracle_by_size.entry(n).or_default();
            pooled.replay_ns += c.replay_ns;
            pooled.requests += c.requests;
        }
        let ns_per_request = |n: usize| {
            sizes
                .get(&(n as u64))
                .map_or(0.0, |c| per(c.strategy_ns(), c.requests as f64))
        };
        put(&format!("{prefix}.busy_s"), strategy_ns * NS);
        put(&format!("{prefix}.requests"), requests as f64);
        for n in [WEAK_SIZES[0], WEAK_SIZES[5]] {
            put(&format!("{prefix}.ns_per_request.n{n}"), ns_per_request(n));
        }
        put(
            &format!("{prefix}.success_ratio"),
            per(found[lane] as f64, runs[lane] as f64),
        );
        put(
            &format!("{prefix}.cost_exponent"),
            cost_exponent(sizes, LaneCell::strategy_ns),
        );
    }
    put(
        "strategy.frontier_rescans_per_request",
        per(rescans as f64, all_requests as f64),
    );

    put("oracle.requests", oracle_requests as f64);
    put("oracle.busy_s", oracle_ns as f64 * NS);
    put(
        "oracle.ns_per_request",
        per(oracle_ns as f64, oracle_requests as f64),
    );
    put(
        "oracle.cost_exponent",
        cost_exponent(&oracle_by_size, |c| c.replay_ns as f64),
    );
    put("oracle.edge_resolutions", resolutions as f64);
    put("oracle.discoveries", discoveries as f64);

    put("generators.graphs", graphs as f64);
    put("generators.edges", edges as f64);
    put("generators.busy_s", generate_ns as f64 * NS);
    put(
        "generators.ns_per_edge",
        per(generate_ns as f64, edges as f64),
    );

    put("corpus.build_s", build_ns as f64 * NS);
    put("corpus.bytes_written", bytes as f64);
    put("corpus.open_s", open_ns as f64 * NS);
    put("corpus.loads", loads as f64);
    put("corpus.load_busy_s", load_ns as f64 * NS);
    put("corpus.ns_per_load", per(load_ns as f64, loads as f64));
    put("corpus.healed", replay.healed as f64);

    let cell_list: Vec<(u64, u64, u64)> = cells.into_values().collect();
    put("engine.workers", workers as f64);
    put("engine.trials", trials as f64);
    put("engine.trial_busy_s", trial_ns as f64 * NS);
    put("engine.idle_ratio", idle_ratio(&cell_list));
    put("engine.trials_retried", retried as f64);
    put("engine.trials_skipped", skipped as f64);

    put("analysis.busy_s", analysis_ns as f64 * NS);
    m
}

/// The counters of [`cell_totals`], in its array order — the names of
/// the matching `"type":"metrics"` record fields.
pub const CELL_COUNTERS: [&str; 5] = [
    "trials",
    "requests",
    "discoveries",
    "edge_resolutions",
    "frontier_rescans",
];

/// Exact per-cell totals of the replay's lanes and replays, keyed like
/// the workload's `"type":"metrics"` records, for the faithfulness
/// check against the untraced run.
pub fn cell_totals(replay: &Replay) -> Vec<[u64; 5]> {
    let mut totals = vec![[0u64; 5]; replay.cell_keys.len()];
    for log in &replay.logs {
        for span in log {
            let t = &mut totals[span.cell];
            let c = span.counts;
            match span.name {
                Name::Cell => t[0] += c.trials,
                Name::SearchLane => {
                    t[1] += c.requests;
                    t[2] += c.discoveries;
                    t[4] += c.frontier_rescans;
                }
                Name::OracleReplay => t[3] += c.edge_resolutions,
                _ => {}
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Counts, Span};

    #[test]
    fn slope_recovers_power_laws() {
        let linear: Vec<(f64, f64)> = [512.0, 1024.0, 4096.0, 16384.0]
            .iter()
            .map(|&n| (n, 0.5 * n))
            .collect();
        assert!((log_log_slope(&linear).unwrap() - 1.0).abs() < 1e-12);
        let flat: Vec<(f64, f64)> = [512.0, 2048.0, 16384.0]
            .iter()
            .map(|&n| (n, 80.0))
            .collect();
        assert!(log_log_slope(&flat).unwrap().abs() < 1e-12);
        let root: Vec<(f64, f64)> = [100.0, 400.0, 1600.0]
            .iter()
            .map(|&n: &f64| (n, 3.0 * n.sqrt()))
            .collect();
        assert!((log_log_slope(&root).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slope_ignores_non_positive_points_and_degenerate_input() {
        let points = [(512.0, 0.0), (1024.0, 2.0), (2048.0, 4.0), (0.0, 9.0)];
        assert!((log_log_slope(&points).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(log_log_slope(&[(512.0, 3.0)]), None);
        assert_eq!(log_log_slope(&[(512.0, 3.0), (512.0, 5.0)]), None);
        assert_eq!(log_log_slope(&[]), None);
    }

    #[test]
    fn idle_ratio_is_unused_worker_capacity() {
        // One worker busy the whole cell: no idle time.
        assert_eq!(idle_ratio(&[(1, 100, 100)]), 0.0);
        // Two workers, one busy throughout, one idle throughout.
        assert_eq!(idle_ratio(&[(2, 100, 100)]), 0.5);
        // Cells are pooled by capacity, not averaged.
        assert!((idle_ratio(&[(2, 100, 200), (2, 300, 300)]) - 0.375).abs() < 1e-12);
        assert_eq!(idle_ratio(&[]), 0.0);
    }

    fn span(
        name: Name,
        parent: Option<usize>,
        range: (u64, u64),
        lane: usize,
        counts: Counts,
    ) -> Span {
        Span {
            name,
            parent,
            start_ns: range.0,
            end_ns: range.1,
            cell: 0,
            lane,
            counts,
        }
    }

    #[test]
    fn strategy_share_is_lane_minus_replay() {
        let requests = Counts {
            requests: 10,
            found: 1,
            ..Counts::default()
        };
        let replay = Replay {
            logs: vec![vec![
                span(
                    Name::Cell,
                    None,
                    (0, 1000),
                    0,
                    Counts {
                        trials: 1,
                        workers: 2,
                        ..Counts::default()
                    },
                ),
                span(Name::Trial, None, (0, 500), 0, Counts::default()),
                span(Name::SearchLane, Some(1), (0, 300), 4, requests),
                span(Name::OracleReplay, Some(2), (300, 400), 4, requests),
            ]],
            cell_keys: vec![vec![("n", nonsearch_engine::JsonValue::from(512usize))]],
            ..Replay::default()
        };
        let m = metrics(&replay);
        let kind = lanes()[4].name();
        assert!((m[&format!("strategy.{kind}.busy_s")] - 200e-9).abs() < 1e-15);
        assert_eq!(m[&format!("strategy.{kind}.requests")], 10.0);
        assert_eq!(m[&format!("strategy.{kind}.ns_per_request.n512")], 20.0);
        assert_eq!(m[&format!("strategy.{kind}.success_ratio")], 1.0);
        assert_eq!(m["oracle.requests"], 10.0);
        assert_eq!(m["oracle.ns_per_request"], 10.0);
        assert_eq!(m["engine.idle_ratio"], 0.75);
        assert_eq!(m["engine.workers"], 2.0);
        assert_eq!(cell_totals(&replay), vec![[1, 10, 0, 0, 0]]);
    }
}
