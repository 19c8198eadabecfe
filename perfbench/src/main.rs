//! `perfbench-trace` — the traced run of the benchmark.
//!
//! Replays one workload through the library's public functions with
//! spans around each layer call, then prints one JSON object: the
//! per-layer metrics, the replay's exact per-cell counters and its
//! result rows (both checked against the untraced `xp` run by
//! `perfbench/run.py`), and the replay's sweep wall time. The spans
//! stay in memory until the replay ends; then every span is written to
//! the `--spans` file as one JSON line.
//!
//! ```text
//! perfbench-trace --workload weak-sweep|corpus-replay|census --seed S --work DIR --spans FILE
//! ```
//!
//! `--seed` is the `xp` seed. `--work` is a scratch directory (the
//! corpus is built there).

#![forbid(unsafe_code)]

mod layers;
mod replay;
mod spans;

use nonsearch_engine::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    work: PathBuf,
    spans: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut work = None;
    let mut spans = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        work: work.ok_or("--work is required")?,
        spans: spans.ok_or("--spans is required")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            return ExitCode::from(2);
        }
    };
    let replay = match args.workload.as_str() {
        "weak-sweep" => replay::weak(args.seed),
        "corpus-replay" => replay::corpus(args.seed, &args.work.join("corpus")),
        "census" => replay::census(args.seed),
        other => {
            eprintln!("perfbench-trace: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&args.spans, spans::to_jsonl(&replay.logs)) {
        eprintln!("perfbench-trace: {}: {e}", args.spans.display());
        return ExitCode::FAILURE;
    }

    let metrics = layers::metrics(&replay)
        .into_iter()
        .map(|(name, value)| (name, JsonValue::from(value)))
        .collect();
    let cells = replay
        .cell_keys
        .iter()
        .zip(layers::cell_totals(&replay))
        .map(|(key, totals)| {
            let mut fields: Vec<(String, JsonValue)> = key
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            fields.extend(
                layers::CELL_COUNTERS
                    .iter()
                    .zip(totals)
                    .map(|(name, total)| (name.to_string(), JsonValue::from(total))),
            );
            JsonValue::Object(fields)
        })
        .collect();
    let out = JsonValue::object(vec![
        ("sweep_s", JsonValue::from(replay.sweep_ns as f64 * 1e-9)),
        ("metrics", JsonValue::Object(metrics)),
        ("cells", JsonValue::Array(cells)),
        ("results", JsonValue::Array(replay.results)),
    ]);
    println!("{out}");
    ExitCode::SUCCESS
}
