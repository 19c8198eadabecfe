//! E12 — Sarshar et al.'s percolation search: replication along random
//! walks plus bond-percolation broadcast makes lookups sublinear on
//! power-law overlays.

use super::print_banner;
use nonsearch_analysis::{SampleStats, Table};
use nonsearch_core::{GraphModel, PowerLawGiantModel};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;
use nonsearch_search::{percolation_search, PercolationConfig};
use rand::Rng;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "percolation",
    id: "E12",
    claim: "replication × percolation probability trade-off: success rises \
            with both, messages stay sublinear in n for fixed parameters",
    default_seed: 0xE12,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(ctx, "E12 / percolation search", SPEC.claim);

    let n = if ctx.options.quick { 8_000 } else { 30_000 };
    let trial_count = ctx.options.trial_count(60);
    let model = PowerLawGiantModel {
        exponent: 2.3,
        d_min: 1,
    };
    let seeds = SeedSequence::new(ctx.seed);

    let mut rng = seeds.child_rng(0);
    let overlay = model.sample_graph(n, &mut rng);
    let peers = overlay.node_count();
    println!("overlay: k = 2.3 giant with {peers} peers\n");

    let walks = [0usize, 50, 200, 800];
    let probs = [0.05, 0.15, 0.3];
    let mut table = Table::with_columns(&[
        "replication walk",
        "edge prob",
        "success",
        "mean messages",
        "messages / n",
    ]);
    for (wi, &walk) in walks.iter().enumerate() {
        for (qi, &q) in probs.iter().enumerate() {
            let config = PercolationConfig {
                replication_walk: walk,
                query_walk: walk.min(100),
                edge_probability: q,
            };
            let cell_seeds = seeds.subsequence(1 + wi as u64).subsequence(qi as u64);
            let mut found = 0usize;
            let mut messages = Vec::new();
            for t in 0..trial_count {
                let mut rng = cell_seeds.child_rng(t as u64);
                let owner = NodeId::new(rng.gen_range(0..peers));
                let requester = NodeId::new(rng.gen_range(0..peers));
                let out = percolation_search(&overlay, owner, requester, &config, &mut rng)
                    .expect("valid parameters");
                found += out.found as usize;
                messages.push(out.messages as f64);
            }
            let stats = SampleStats::from_slice(&messages).expect("trials ≥ 1");
            let success = found as f64 / trial_count as f64;
            let per_peer = stats.mean() / peers as f64;
            table.row(vec![
                walk.to_string(),
                format!("{q:.2}"),
                format!("{success:.2}"),
                format!("{:.0}", stats.mean()),
                format!("{per_peer:.3}"),
            ]);
            ctx.writer
                .record_cell(vec![
                    ("replication_walk", JsonValue::from(walk)),
                    ("edge_probability", JsonValue::from(q)),
                    ("peers", JsonValue::from(peers)),
                    ("trials", JsonValue::from(trial_count)),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("success", JsonValue::from(success)),
                    ("mean_messages", JsonValue::from(stats.mean())),
                    ("messages_per_n", JsonValue::from(per_peer)),
                ])
                .expect("write cell record");
        }
    }
    println!("{table}");
    println!("shape to check: success climbs with replication and edge");
    println!("probability; at moderate q the message cost is a small fraction");
    println!("of n — the sublinear lookup Sarshar et al. promise. None of");
    println!("this circumvents Theorem 1: it presumes content replicated");
    println!("*before* the query, unlike searching for a specific new vertex.");
}
