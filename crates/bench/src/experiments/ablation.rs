//! E13 — ablations over the search-model knobs DESIGN.md calls out:
//! oracle strength, success criterion, and start-vertex policy.

use super::{open_corpus, print_banner, resolve_source};
use crate::{strong_cell_from, weak_cell_with_policy_from, StartPolicy, StrongKind};
use nonsearch_analysis::Table;
use nonsearch_core::MergedMoriModel;
use nonsearch_engine::{CellTelemetry, ExpContext, ExperimentSpec, JsonValue, LaneAggregate};
use nonsearch_generators::SeedSequence;
use nonsearch_search::{SearcherKind, SuccessCriterion};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "ablation",
    id: "E13",
    claim: "no model knob changes the Ω(√n)-shaped cost of finding vertex n",
    default_seed: 0xE13,
    run,
};

fn record(
    ctx: &mut ExpContext,
    knob: &str,
    variant: &str,
    n: usize,
    (lane, cell): (LaneAggregate, CellTelemetry),
) {
    ctx.writer
        .record_cell(vec![
            ("model", JsonValue::from("mori")),
            ("knob", JsonValue::from(knob)),
            ("variant", JsonValue::from(variant)),
            ("n", JsonValue::from(n)),
            ("trials", JsonValue::from(cell.trials)),
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
                    ("knob", JsonValue::from(knob)),
                    ("variant", JsonValue::from(variant)),
                    ("n", JsonValue::from(n)),
                ],
                &cell,
            )
            .expect("write telemetry records");
    }
}

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E13 / ablations",
        "none of the model knobs (oracle strength, success criterion, \
         start policy) changes the Ω(√n)-shaped cost of finding vertex n",
    );

    let model = MergedMoriModel { p: 0.6, m: 1 };
    let sizes = ctx.options.sweep(&[1024, 4096, 16384]);
    let trial_count = ctx.options.trial_count(10);
    let threads = ctx.options.threads;
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx);
    let source = resolve_source(corpus.as_ref(), &model, &sizes);
    let tracer = ctx.tracer.clone();

    // Knob 1: weak vs strong vs simulated-strong oracle.
    println!("oracle strength (high-degree strategy):");
    let mut t1 = Table::with_columns(&["oracle", "n", "mean requests", "success"]);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        let weak = weak_cell_with_policy_from(
            &*source,
            n,
            SearcherKind::HighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trial_count,
            30,
            threads,
            &seeds.subsequence(si as u64),
        );
        t1.row(vec![
            "weak".into(),
            n.to_string(),
            format!("{:.1}", weak.0.mean()),
            format!("{:.2}", weak.0.success_rate()),
        ]);
        record(ctx, "oracle", "weak", n, weak);
        let sim = weak_cell_with_policy_from(
            &*source,
            n,
            SearcherKind::SimStrongHighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trial_count,
            30,
            threads,
            &seeds.subsequence(100 + si as u64),
        );
        t1.row(vec![
            "simulated-strong".into(),
            n.to_string(),
            format!("{:.1}", sim.0.mean()),
            format!("{:.2}", sim.0.success_rate()),
        ]);
        record(ctx, "oracle", "simulated-strong", n, sim);
        let strong = strong_cell_from(
            &*source,
            n,
            StrongKind::HighDegree,
            trial_count,
            threads,
            &seeds.subsequence(200 + si as u64),
        );
        t1.row(vec![
            "strong (native)".into(),
            n.to_string(),
            format!("{:.1}", strong.0.mean()),
            format!("{:.2}", strong.0.success_rate()),
        ]);
        record(ctx, "oracle", "strong-native", n, strong);
    }
    println!("{t1}");

    // Knob 2: success criterion.
    println!("success criterion (high-degree strategy, weak oracle):");
    let mut t2 = Table::with_columns(&["criterion", "n", "mean requests", "success"]);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        for (criterion, name) in [
            (SuccessCriterion::DiscoverTarget, "discover target"),
            (SuccessCriterion::ReachNeighbor, "reach neighbor"),
        ] {
            let cell = weak_cell_with_policy_from(
                &*source,
                n,
                SearcherKind::HighDegree,
                criterion,
                StartPolicy::OldestHub,
                trial_count,
                30,
                threads,
                &seeds.subsequence(300 + si as u64),
            );
            t2.row(vec![
                name.into(),
                n.to_string(),
                format!("{:.1}", cell.0.mean()),
                format!("{:.2}", cell.0.success_rate()),
            ]);
            record(ctx, "criterion", name, n, cell);
        }
    }
    println!("{t2}");

    // Knob 3: start policy.
    println!("start vertex policy (high-degree strategy, weak oracle):");
    let mut t3 = Table::with_columns(&["start", "n", "mean requests", "success"]);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        for policy in [
            StartPolicy::OldestHub,
            StartPolicy::Uniform,
            StartPolicy::NearTarget,
        ] {
            let cell = weak_cell_with_policy_from(
                &*source,
                n,
                SearcherKind::HighDegree,
                SuccessCriterion::DiscoverTarget,
                policy,
                trial_count,
                30,
                threads,
                &seeds.subsequence(400 + si as u64),
            );
            t3.row(vec![
                policy.name().into(),
                n.to_string(),
                format!("{:.1}", cell.0.mean()),
                format!("{:.2}", cell.0.success_rate()),
            ]);
            record(ctx, "start", policy.name(), n, cell);
        }
    }
    println!("{t3}");
    println!("expected shape: every row grows with n at the same √n-like rate;");
    println!("neighbor criterion and strong oracle shave constants, not the");
    println!("exponent — and starting next to the target barely helps, because");
    println!("label adjacency is not graph adjacency in these models.");
}
