//! E14 — neighbor-degree dependence: evolving vs pure random graphs.
//!
//! The paper's structural argument for why mean-field analyses fail on
//! evolving models: *"the degree and age of a vertex are positively
//! correlated. In particular, the degrees of neighbors are not
//! independent"* — unlike the Molloy–Reed configuration model. This
//! experiment measures age–degree correlation, degree assortativity and
//! the `k_nn(d)` curve across both families.

use super::print_banner;
use nonsearch_analysis::{
    age_degree_correlation, degree_assortativity, mean_neighbor_degree_curve, SampleStats, Table,
};
use nonsearch_core::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, PowerLawGiantModel,
    UniformAttachmentModel,
};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_generators::SeedSequence;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "correlation",
    id: "E14",
    claim: "evolving models: age–degree correlation and degree–degree \
            dependence; configuration model: neighbor degrees independent",
    default_seed: 0xE14,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(ctx, "E14 / neighbor-degree dependence", SPEC.claim);

    let n = if ctx.options.quick { 10_000 } else { 50_000 };
    let trial_count = ctx.options.trial_count(6);
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
        (
            "uniform-attach(m=2)",
            Box::new(UniformAttachmentModel { m: 2 }),
        ),
        (
            "config-model(k=2.5)",
            Box::new(PowerLawGiantModel {
                exponent: 2.5,
                d_min: 1,
            }),
        ),
    ];

    let mut table =
        Table::with_columns(&["model", "age-degree r", "assortativity", "k_nn(1)/k_nn(8)"]);
    for (mi, (name, model)) in models.iter().enumerate() {
        let mut age_r = Vec::new();
        let mut assort = Vec::new();
        let mut knn_ratio = Vec::new();
        for t in 0..trial_count {
            let mut rng = seeds.subsequence(mi as u64).child_rng(t as u64);
            let graph = model.sample_graph(n, &mut rng);
            if let Some(r) = age_degree_correlation(&graph) {
                age_r.push(r);
            }
            if let Some(r) = degree_assortativity(&graph) {
                assort.push(r);
            }
            let curve = mean_neighbor_degree_curve(&graph);
            if let (Some(Some(k1)), Some(Some(k8))) = (curve.get(1), curve.get(8)) {
                knn_ratio.push(k1 / k8);
            }
        }
        let (age_r, assort, knn_ratio) = (
            SampleStats::from_slice(&age_r),
            SampleStats::from_slice(&assort),
            SampleStats::from_slice(&knn_ratio),
        );
        let fmt = |stats: &Option<SampleStats>| match stats {
            Some(s) => format!("{:+.3} ±{:.3}", s.mean(), s.ci95_half_width()),
            None => "-".into(),
        };
        table.row(vec![
            name.to_string(),
            fmt(&age_r),
            fmt(&assort),
            fmt(&knn_ratio),
        ]);
        // A statistic no trial produced is `null`, as the row's "-".
        let mean = |stats: &Option<SampleStats>| JsonValue::from(stats.as_ref().map(|s| s.mean()));
        let ci95 = |stats: &Option<SampleStats>| {
            JsonValue::from(stats.as_ref().map(|s| s.ci95_half_width()))
        };
        ctx.writer
            .record_cell(vec![
                ("model", JsonValue::from(*name)),
                ("n", JsonValue::from(n)),
                ("trials", JsonValue::from(trial_count)),
                ("seed", JsonValue::from(ctx.seed)),
                ("age_degree_r", mean(&age_r)),
                ("age_degree_r_ci95", ci95(&age_r)),
                ("assortativity", mean(&assort)),
                ("assortativity_ci95", ci95(&assort)),
                ("knn_ratio", mean(&knn_ratio)),
                ("knn_ratio_ci95", ci95(&knn_ratio)),
            ])
            .expect("write cell record");
    }
    println!("{table}");
    println!("reading the table:");
    println!("  age-degree r  — strongly negative for attachment models (old ⇒");
    println!("                  high degree; note config-model relabels ids so ~0)");
    println!("  assortativity — negative (disassortative) for evolving models");
    println!("  k_nn ratio    — > 1 when low-degree vertices sit next to hubs;");
    println!("                  ≈ 1 when neighbor degrees are independent");
    println!("this dependence is exactly why the paper replaces mean-field");
    println!("arguments with the conditional-equivalence technique.");
}
