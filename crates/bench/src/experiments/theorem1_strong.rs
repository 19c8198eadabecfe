//! E2 — Theorem 1, strong model: for `p < 1/2`, strong-model search
//! needs `Ω(n^{1/2−p−ε})` requests; the slowdown argument runs strong
//! algorithms natively and through the weak-model simulation.

use super::{open_corpus, print_banner, resolve_source};
use crate::{strong_cell_from, StrongKind};
use nonsearch_analysis::{fit_log_log, Table};
use nonsearch_core::{strong_model_exponent, MergedMoriModel};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_generators::SeedSequence;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem1-strong",
    id: "E2",
    claim: "for p < 1/2, strong-model search needs Ω(n^(1/2−p−ε)) requests",
    default_seed: 0xE2,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E2 / Theorem 1 (strong model)",
        "for p < 1/2, strong-model search needs Ω(n^(1/2−p−ε)) requests; \
         max degree t^p bounds the weak→strong slowdown",
    );

    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192, 16384]);
    let trial_count = ctx.options.trial_count(10);
    let p_values = if ctx.options.quick {
        vec![0.2]
    } else {
        vec![0.2, 0.4]
    };
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx);
    let tracer = ctx.tracer.clone();

    for &p in &p_values {
        let model = MergedMoriModel { p, m: 1 };
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        println!("model: mori(p={p}, m=1), strong oracle");
        let mut table = Table::with_columns(&["searcher", "n", "mean requests", "ci95", "success"]);
        let mut best_series: Vec<(usize, f64)> = Vec::new();
        for kind in StrongKind::all() {
            let mut series = Vec::new();
            for (i, &n) in sizes.iter().enumerate() {
                let _cell_span = tracer.span("size-cell");
                let cell_seeds = seeds
                    .subsequence((p * 100.0) as u64)
                    .subsequence(i as u64)
                    .subsequence(kind.name().len() as u64);
                let (lane, cell) = strong_cell_from(
                    &*source,
                    n,
                    *kind,
                    trial_count,
                    ctx.options.threads,
                    &cell_seeds,
                );
                table.row(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    format!("{:.1}", lane.mean()),
                    format!("{:.1}", lane.ci95()),
                    format!("{:.2}", lane.success_rate()),
                ]);
                ctx.writer
                    .record_cell(vec![
                        ("model", JsonValue::from("mori")),
                        ("p", JsonValue::from(p)),
                        ("m", JsonValue::from(1usize)),
                        ("searcher", JsonValue::from(kind.name())),
                        ("n", JsonValue::from(n)),
                        ("trials", JsonValue::from(trial_count)),
                        ("seed", JsonValue::from(ctx.seed)),
                        ("mean", JsonValue::from(lane.mean())),
                        ("ci95", JsonValue::from(lane.ci95())),
                        ("success", JsonValue::from(lane.success_rate())),
                    ])
                    .expect("write cell record");
                if ctx.options.profile {
                    ctx.writer
                        .record_cell_telemetry(
                            vec![
                                ("model", JsonValue::from("mori")),
                                ("p", JsonValue::from(p)),
                                ("searcher", JsonValue::from(kind.name())),
                                ("n", JsonValue::from(n)),
                            ],
                            &cell,
                        )
                        .expect("write telemetry records");
                }
                series.push((n, lane.mean()));
            }
            // Track the cheapest searcher at the largest size.
            if best_series.is_empty()
                || series.last().expect("non-empty").1 < best_series.last().expect("non-empty").1
            {
                best_series = series;
            }
        }
        println!("{table}");
        let xs: Vec<f64> = best_series.iter().map(|&(n, _)| n as f64).collect();
        let ys: Vec<f64> = best_series.iter().map(|&(_, c)| c.max(1.0)).collect();
        if let Some(fit) = fit_log_log(&xs, &ys) {
            let floor = strong_model_exponent(p, 0.0);
            println!(
                "best strong searcher exponent: {:.3} (theoretical floor 1/2−p = {:.2})\n",
                fit.slope, floor
            );
        }
    }
}
