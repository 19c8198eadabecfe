//! E9 — the contrast: diameters and average distances stay logarithmic
//! while search cost is polynomial (paper §conclusion).

use super::print_banner;
use nonsearch_analysis::{
    average_distance, diameter_lower_bound_double_sweep, fit_linear, SampleStats, Table,
};
use nonsearch_core::{BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "diameter",
    id: "E9",
    claim: "avg distance & diameter grow like log n across the evolving models \
            — while Theorem 1/2 search cost grows like √n",
    default_seed: 0xE9,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(ctx, "E9 / logarithmic distances", SPEC.claim);

    let sizes = ctx.options.sweep(&[1024, 4096, 16384, 65536]);
    let trial_count = ctx.options.trial_count(5);
    let seeds = SeedSequence::new(ctx.seed);

    let models: Vec<(&str, Box<dyn GraphModel>)> = vec![
        (
            "mori(p=0.6,m=2)",
            Box::new(MergedMoriModel { p: 0.6, m: 2 }),
        ),
        (
            "cooper-frieze(α=0.7)",
            Box::new(CooperFriezeModel::balanced(0.7)),
        ),
        (
            "barabasi-albert(m=2)",
            Box::new(BarabasiAlbertModel { m: 2 }),
        ),
    ];

    let mut table = Table::with_columns(&["model", "n", "avg distance", "diam ≥", "avg / log2(n)"]);
    for (mi, (name, model)) in models.iter().enumerate() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (si, &n) in sizes.iter().enumerate() {
            let mut avgs = Vec::new();
            let mut diams = Vec::new();
            for t in 0..trial_count {
                let mut rng = seeds
                    .subsequence(mi as u64)
                    .subsequence(si as u64)
                    .child_rng(t as u64);
                let graph = model.sample_graph(n, &mut rng);
                avgs.push(average_distance(&graph, 8, &mut rng).expect("connected"));
                diams.push(
                    diameter_lower_bound_double_sweep(&graph, NodeId::from_label(1))
                        .expect("connected") as f64,
                );
            }
            let avg = SampleStats::from_slice(&avgs).expect("trials ≥ 1");
            let diam = SampleStats::from_slice(&diams).expect("trials ≥ 1");
            let per_log2 = avg.mean() / (n as f64).log2();
            table.row(vec![
                name.to_string(),
                n.to_string(),
                format!("{:.2} ±{:.2}", avg.mean(), avg.ci95_half_width()),
                format!("{:.1}", diam.mean()),
                format!("{per_log2:.3}"),
            ]);
            ctx.writer
                .record_cell(vec![
                    ("model", JsonValue::from(*name)),
                    ("n", JsonValue::from(n)),
                    ("trials", JsonValue::from(trial_count)),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("avg_distance", JsonValue::from(avg.mean())),
                    ("ci95", JsonValue::from(avg.ci95_half_width())),
                    ("diameter_lower_bound", JsonValue::from(diam.mean())),
                    ("avg_per_log2_n", JsonValue::from(per_log2)),
                ])
                .expect("write cell record");
            xs.push((n as f64).ln());
            ys.push(avg.mean());
        }
        if let Some(fit) = fit_linear(&xs, &ys) {
            println!(
                "{name}: avg distance ≈ {:.2}·ln(n) + {:.2} (R² = {:.3})",
                fit.slope, fit.intercept, fit.r_squared
            );
        }
    }
    println!("\n{table}");
    println!("avg/log2(n) stabilizing to a constant = logarithmic growth; the");
    println!("same graphs cost Θ(√n) to search (E1/E3) — the paper's contrast.");
}
