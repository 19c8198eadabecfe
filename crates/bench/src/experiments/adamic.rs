//! E10 — Adamic et al. on pure power-law graphs: high-degree search
//! `O(n^{2(1−2/k)})` vs random walk `O(n^{3(1−2/k)})`.
//!
//! Measures both strategies on configuration-model giants across
//! exponents `k ∈ (2, 3)` and compares fitted scaling exponents with the
//! mean-field predictions.

use super::print_banner;
use nonsearch_analysis::{fit_log_log, SampleStats, Table};
use nonsearch_core::{
    adamic_high_degree_exponent, adamic_random_walk_exponent, GraphModel, PowerLawGiantModel,
};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::{NodeId, UndirectedCsr};
use nonsearch_search::{
    run_strong, run_weak, SearchOutcome, SearchTask, SearcherKind, StrongHighDegree,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "adamic",
    id: "E10",
    claim: "on Molloy–Reed power-law graphs, high-degree search scales as \
            n^(2(1−2/k)) and the random walk as n^(3(1−2/k)): greedy wins, \
            both are polynomial",
    default_seed: 0xE10,
    run,
};

/// Subsequence of the per-size stream shared by both weak lanes.
const WEAK_LANES_STREAM: u64 = 11;
/// Subsequence of the per-size stream of the strong lane.
const STRONG_LANE_STREAM: u64 = 777;

fn run(ctx: &mut ExpContext) {
    print_banner(ctx, "E10 / Adamic et al. (power-law search)", SPEC.claim);

    let sizes = ctx.options.sweep(&[2_000, 4_000, 8_000, 16_000, 32_000]);
    let trial_count = ctx.options.trial_count(12);
    let k_values = if ctx.options.quick {
        vec![2.3]
    } else {
        vec![2.1, 2.3, 2.5, 2.7]
    };
    let seeds = SeedSequence::new(ctx.seed);

    for &k in &k_values {
        let model = PowerLawGiantModel {
            exponent: k,
            d_min: 1,
        };
        println!(
            "k = {k}: theory exponents — high-degree {:.2}, random walk {:.2}",
            adamic_high_degree_exponent(k),
            adamic_random_walk_exponent(k)
        );
        let size_seeds = |si: usize| seeds.subsequence((k * 10.0) as u64).subsequence(si as u64);
        let mut table =
            Table::with_columns(&["searcher", "n (giant)", "mean requests", "ci95", "success"]);
        let mut row = |ctx: &mut ExpContext, searcher: &str, n: usize, lane: &Lane| {
            table.row(vec![
                searcher.to_string(),
                format!("{:.0}", lane.giant),
                format!("{:.1}", lane.requests.mean()),
                format!("{:.1}", lane.requests.ci95_half_width()),
                format!("{:.2}", lane.success),
            ]);
            ctx.writer
                .record_cell(vec![
                    ("k", JsonValue::from(k)),
                    ("searcher", JsonValue::from(searcher)),
                    ("n", JsonValue::from(n)),
                    ("trials", JsonValue::from(trial_count)),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("giant", JsonValue::from(lane.giant)),
                    ("mean_requests", JsonValue::from(lane.requests.mean())),
                    ("ci95", JsonValue::from(lane.requests.ci95_half_width())),
                    ("success", JsonValue::from(lane.success)),
                ])
                .expect("write cell record");
        };
        for kind in [SearcherKind::HighDegree, SearcherKind::RandomWalk] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (si, &n) in sizes.iter().enumerate() {
                // Both weak lanes draw from the same per-size stream, so
                // they search the same graphs between the same endpoints:
                // the high-degree vs random-walk comparison is paired on
                // purpose.
                let cell_seeds = size_seeds(si).subsequence(WEAK_LANES_STREAM);
                let lane =
                    Lane::measure(&model, n, trial_count, &cell_seeds, |overlay, task, rng| {
                        let mut searcher = kind.build();
                        run_weak(overlay, task, &mut *searcher, rng)
                    });
                row(ctx, kind.name(), n, &lane);
                xs.push(lane.giant);
                ys.push(lane.requests.mean().max(1.0));
            }
            if let Some(fit) = fit_log_log(&xs, &ys) {
                let theory = match kind {
                    SearcherKind::HighDegree => adamic_high_degree_exponent(k),
                    _ => adamic_random_walk_exponent(k),
                };
                println!(
                    "  {} fitted exponent: {:.3} (mean-field theory {:.2})",
                    kind.name(),
                    fit.slope,
                    theory
                );
            }
        }
        // Adamic's analysis counts *visited vertices*, i.e. one unit per
        // neighborhood reveal — the strong model. Measure that too.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (si, &n) in sizes.iter().enumerate() {
            let cell_seeds = size_seeds(si).subsequence(STRONG_LANE_STREAM);
            let lane = Lane::measure(&model, n, trial_count, &cell_seeds, |overlay, task, rng| {
                run_strong(overlay, task, &mut StrongHighDegree::new(), rng).map(|mut outcome| {
                    outcome.requests = outcome.requests.max(1);
                    outcome
                })
            });
            row(ctx, "strong-high-degree", n, &lane);
            xs.push(lane.giant);
            ys.push(lane.requests.mean());
        }
        if let Some(fit) = fit_log_log(&xs, &ys) {
            println!(
                "  strong-high-degree (visited vertices, Adamic's own measure): \
                 exponent {:.3} (mean-field theory {:.2})",
                fit.slope,
                adamic_high_degree_exponent(k)
            );
        }
        println!("{table}");
    }
    println!("shape to check: greedy below walk at every size, both rising");
    println!("polynomially, gaps closing as k → 2 (both exponents → 0).");
}

/// One table row: a searcher's cost over `trial_count` giants of a
/// size cell.
struct Lane {
    requests: SampleStats,
    giant: f64,
    success: f64,
}

impl Lane {
    /// Runs `search` from a uniform source to a uniform target (the
    /// Adamic setting) on a fresh giant per trial.
    fn measure(
        model: &PowerLawGiantModel,
        n: usize,
        trial_count: usize,
        cell_seeds: &SeedSequence,
        search: impl Fn(
            &UndirectedCsr,
            &SearchTask,
            &mut ChaCha8Rng,
        ) -> nonsearch_search::Result<SearchOutcome>,
    ) -> Lane {
        let mut requests = Vec::new();
        let mut found = 0usize;
        let mut giant_sizes = Vec::new();
        for t in 0..trial_count {
            let mut rng = cell_seeds.child_rng(t as u64);
            let overlay = model.sample_graph(n, &mut rng);
            let peers = overlay.node_count();
            giant_sizes.push(peers as f64);
            let s = NodeId::new(rng.gen_range(0..peers));
            let target = NodeId::new(rng.gen_range(0..peers));
            let task = SearchTask::new(s, target).with_budget(30 * peers);
            let outcome = search(&overlay, &task, &mut rng)
                .expect("suite searchers never violate the protocol");
            requests.push(outcome.requests as f64);
            found += outcome.found as usize;
        }
        Lane {
            requests: SampleStats::from_slice(&requests).expect("trials ≥ 1"),
            giant: SampleStats::from_slice(&giant_sizes)
                .expect("trials ≥ 1")
                .mean(),
            success: found as f64 / trial_count as f64,
        }
    }
}
