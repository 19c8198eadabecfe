//! Structured run records: JSON Lines and CSV alongside pretty tables.
//!
//! A run produces a stream of **cell records** — one JSON object per
//! measured cell, with deterministic content (params, seed, aggregates)
//! — followed by a single **run record** carrying the volatile envelope:
//! wall time, worker threads, git describe. Keeping the volatile fields
//! out of the cell records is what makes "same seed ⇒ byte-identical
//! cell lines, regardless of `--threads`" testable; the determinism
//! suite compares everything but the `"type":"run"` footer.

use crate::json::JsonValue;
use crate::options::{CliOptions, OutputFormat};
use crate::runner::{resolved_workers, TrialObs};
use nonsearch_obs::{Metrics, PhaseTimes, ResourceSample};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The JSONL `type` tag of per-cell records.
pub const CELL_TYPE: &str = "cell";
/// The JSONL `type` tag of the run footer.
pub const RUN_TYPE: &str = "run";
/// The JSONL `type` tag of per-cell throughput records (`--profile`).
pub const PROFILE_TYPE: &str = "profile";
/// The JSONL `type` tag of per-cell engine-metrics records.
pub const METRICS_TYPE: &str = "metrics";
/// The JSONL `type` tag of per-cell resource records (phase timers,
/// allocation counts, `/proc` samples). Wall-clock data: volatile by
/// definition, JSONL-only, never part of determinism-gated lines.
pub const RESOURCE_TYPE: &str = "resource";
/// The JSONL `type` tag of injected-fault records emitted by chaos runs
/// (`xp chaos`): one per fault a seeded plan injected, carrying the
/// trial/attempt (or file) it hit and how the run absorbed it. Fault
/// records describe the *perturbation*, never the measurements, so they
/// are JSONL-only and determinism gates keep filtering on
/// `"type":"cell"`.
pub const FAULT_TYPE: &str = "fault";
/// The JSONL `type` tag of `xp lint` static-analysis findings (one per
/// flagged source line, waived or not).
pub const DIAGNOSTIC_TYPE: &str = "diagnostic";
/// The JSONL `type` tag of the `xp lint` report footer (file and
/// finding counts for the whole pass).
pub const LINT_TYPE: &str = "lint";

/// What one measured cell's `profile`, `metrics` and `resource`
/// records carry (see [`RunWriter::record_cell_telemetry`]).
///
/// `metrics` is exact and bit-identical for any thread count; every
/// other field is wall-clock or environment data that varies run to
/// run, which is why these records ride the JSONL stream only and
/// never the determinism-gated cell lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTelemetry {
    /// Trials per lane.
    pub trials: usize,
    /// Lanes (searchers) raced per trial.
    pub lanes: usize,
    /// Worker threads the engine actually ran for the cell.
    pub workers: usize,
    /// Wall-clock time of the whole cell in milliseconds.
    pub wall_ms: f64,
    /// The cell's merged engine counters, folded in strict trial order.
    pub metrics: Metrics,
    /// Merged per-worker phase timers (generate / load / search /
    /// harvest / merge): CPU-side busy time.
    pub phases: PhaseTimes,
    /// Heap allocations during trial bodies (zero unless the binary
    /// installs `nonsearch_alloc_counter::CountingAllocator`).
    pub allocations: u64,
    /// Process-wide resource sample taken when the cell finished.
    pub resource: ResourceSample,
}

impl CellTelemetry {
    /// Runs `cell` — one engine call over `trials` trials of `lanes`
    /// lanes on `threads` workers (`0` = all cores) — and returns its
    /// result together with the cell's telemetry.
    pub fn measure<A>(
        trials: usize,
        lanes: usize,
        threads: usize,
        cell: impl FnOnce() -> (A, TrialObs),
    ) -> (A, CellTelemetry) {
        let start = Instant::now();
        let (result, obs) = cell();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let telemetry = CellTelemetry {
            trials,
            lanes,
            workers: resolved_workers(threads, trials),
            wall_ms,
            metrics: obs.metrics,
            phases: obs.phases,
            allocations: obs.allocations,
            // Sampled outside the trial hot path (reading /proc
            // allocates), after every trial has finished.
            resource: ResourceSample::current(),
        };
        (result, telemetry)
    }

    /// The cell's exact request total divided by its wall seconds.
    pub fn requests_per_sec(&self) -> f64 {
        self.metrics.requests as f64 / (self.wall_ms / 1e3).max(f64::EPSILON)
    }
}

/// Sink for one experiment run's structured records.
///
/// Created inert (no files) when the options carry no `--out`; every
/// method is then a cheap no-op, so experiments emit records
/// unconditionally.
pub struct RunWriter {
    experiment: String,
    quick: bool,
    /// Resolved worker ceiling recorded in the footer (`--threads`, with
    /// `0` resolved to the core count). Individual cells may use fewer
    /// workers — the engine also caps at each cell's trial count.
    threads: usize,
    jsonl: Option<(PathBuf, BufWriter<File>)>,
    csv: Option<CsvSink>,
    cells: usize,
    profiles: usize,
    metrics: usize,
    resources: usize,
    faults: usize,
    start: Instant,
}

struct CsvSink {
    path: PathBuf,
    writer: BufWriter<File>,
    header: Option<Vec<String>>,
}

/// What a finished run wrote, for the CLI's closing status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Cell records written.
    pub cells: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u128,
    /// Files written (empty when the writer was inert).
    pub paths: Vec<PathBuf>,
}

impl RunWriter {
    /// Opens the sinks requested by `options` for `experiment`.
    pub fn create(experiment: &str, options: &CliOptions) -> io::Result<RunWriter> {
        let mut jsonl = None;
        let mut csv = None;
        if let Some(out) = &options.out {
            match options.format {
                OutputFormat::Jsonl => jsonl = Some(open(out)?),
                OutputFormat::Csv => csv = Some(CsvSink::open(out)?),
                OutputFormat::Both => {
                    // If --out already ends in .csv, with_extension is a
                    // no-op and both sinks would clobber one file; move
                    // the JSONL stream to a .jsonl sibling instead.
                    let csv_path = out.with_extension("csv");
                    let jsonl_path = if csv_path == *out {
                        out.with_extension("jsonl")
                    } else {
                        out.clone()
                    };
                    jsonl = Some(open(&jsonl_path)?);
                    csv = Some(CsvSink::open(&csv_path)?);
                }
            }
        }
        Ok(RunWriter {
            experiment: experiment.to_string(),
            quick: options.quick,
            threads: options.resolved_threads(),
            jsonl,
            csv,
            cells: 0,
            profiles: 0,
            metrics: 0,
            resources: 0,
            faults: 0,
            start: Instant::now(),
        })
    }

    /// An inert writer (no `--out`); useful in tests and library callers.
    pub fn sink(experiment: &str) -> RunWriter {
        RunWriter::create(experiment, &CliOptions::default()).expect("inert writer cannot fail")
    }

    /// `true` when at least one structured sink is open.
    pub fn is_active(&self) -> bool {
        self.jsonl.is_some() || self.csv.is_some()
    }

    /// Writes one cell record. `fields` keep their order; `type` and
    /// `experiment` are prepended. Within one run every cell should use
    /// the same key set, so the CSV rows line up under one header.
    pub fn record_cell(&mut self, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        self.record_cell_degraded(fields, false)
    }

    /// [`record_cell`](RunWriter::record_cell) for cells that may have
    /// been abandoned by the chaos watchdog: when `degraded` is true a
    /// trailing `"degraded":true` field marks the record as a partial
    /// aggregate. Healthy cells carry no such field, so fault-free runs
    /// emit byte-identical lines through either method.
    pub fn record_cell_degraded(
        &mut self,
        fields: Vec<(&str, JsonValue)>,
        degraded: bool,
    ) -> io::Result<()> {
        self.cells += 1;
        if !self.is_active() {
            return Ok(());
        }
        let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(fields.len() + 3);
        pairs.push(("type".into(), JsonValue::from(CELL_TYPE)));
        pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        if degraded {
            pairs.push(("degraded".into(), JsonValue::from(true)));
        }
        if let Some((_, w)) = &mut self.jsonl {
            writeln!(w, "{}", JsonValue::Object(pairs.clone()))?;
        }
        if let Some(csv) = &mut self.csv {
            csv.row(&pairs)?;
        }
        Ok(())
    }

    /// Writes one throughput record (`--profile`). Profile records carry
    /// volatile timing, so they go to the JSONL stream only — never to
    /// CSV, whose single header is shaped by the deterministic cell rows
    /// — and determinism checks must filter on `"type":"cell"` as they
    /// already do.
    pub fn record_profile(&mut self, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        self.profiles += 1;
        if let Some((_, w)) = &mut self.jsonl {
            let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(fields.len() + 2);
            pairs.push(("type".into(), JsonValue::from(PROFILE_TYPE)));
            pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
            pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            writeln!(w, "{}", JsonValue::Object(pairs))?;
        }
        Ok(())
    }

    /// Writes one injected-fault record (`xp chaos`). Like profile
    /// records these carry run-specific perturbation data — which
    /// trial/attempt or file a seeded fault hit and how it was absorbed
    /// — so they ride the JSONL stream only and determinism `cmp` gates
    /// keep filtering on `"type":"cell"`.
    pub fn record_fault(&mut self, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        self.faults += 1;
        if let Some((_, w)) = &mut self.jsonl {
            let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(fields.len() + 2);
            pairs.push(("type".into(), JsonValue::from(FAULT_TYPE)));
            pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
            pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            writeln!(w, "{}", JsonValue::Object(pairs))?;
        }
        Ok(())
    }

    /// Writes one measured cell's `profile`, `metrics` and `resource`
    /// records, each opening with the identifying `key` fields (model,
    /// parameters, size, …).
    ///
    /// The profile record continues with `trials`, then `lanes` for a
    /// multi-lane cell, then the exact `requests`, `wall_ms` and
    /// `requests_per_sec`; the metrics record with
    /// [`metrics_fields`]; the resource record with
    /// [`resource_fields`].
    pub fn record_cell_telemetry(
        &mut self,
        key: Vec<(&str, JsonValue)>,
        cell: &CellTelemetry,
    ) -> io::Result<()> {
        let mut profile = key.clone();
        profile.push(("trials", JsonValue::from(cell.trials)));
        if cell.lanes > 1 {
            profile.push(("lanes", JsonValue::from(cell.lanes)));
        }
        profile.extend([
            ("requests", JsonValue::from(cell.metrics.requests)),
            ("wall_ms", JsonValue::from(cell.wall_ms)),
            ("requests_per_sec", JsonValue::from(cell.requests_per_sec())),
        ]);
        self.record_profile(profile)?;
        self.record_metrics(key.clone(), &cell.metrics)?;
        self.record_resource(
            key,
            cell.wall_ms as u64,
            cell.workers,
            &cell.phases,
            cell.allocations,
            &cell.resource,
        )
    }

    /// Writes one engine-metrics record: the identifying `fields` (model,
    /// size, …) followed by [`metrics_fields`]`(metrics)`. The counter
    /// values are deterministic (bit-identical for any `--threads`), but
    /// like profile records they ride the JSONL stream only, so the CSV
    /// header stays shaped by the cell rows and the determinism `cmp`
    /// gates keep filtering on `"type":"cell"`.
    fn record_metrics(
        &mut self,
        fields: Vec<(&str, JsonValue)>,
        metrics: &Metrics,
    ) -> io::Result<()> {
        self.metrics += 1;
        if let Some((_, w)) = &mut self.jsonl {
            let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(fields.len() + 9);
            pairs.push(("type".into(), JsonValue::from(METRICS_TYPE)));
            pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
            pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            pairs.extend(
                metrics_fields(metrics)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v)),
            );
            writeln!(w, "{}", JsonValue::Object(pairs))?;
        }
        Ok(())
    }

    /// Writes one resource record: the identifying `fields` (model,
    /// size, …) followed by [`resource_fields`]. Resource records carry
    /// wall-clock phase timers and `/proc` samples — volatile by
    /// definition — so like profiles they ride the JSONL stream only
    /// and determinism `cmp` gates keep filtering on `"type":"cell"`.
    fn record_resource(
        &mut self,
        fields: Vec<(&str, JsonValue)>,
        wall_ms: u64,
        workers: usize,
        phases: &PhaseTimes,
        allocations: u64,
        sample: &ResourceSample,
    ) -> io::Result<()> {
        self.resources += 1;
        if let Some((_, w)) = &mut self.jsonl {
            let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(fields.len() + 14);
            pairs.push(("type".into(), JsonValue::from(RESOURCE_TYPE)));
            pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
            pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            pairs.extend(
                resource_fields(wall_ms, workers, phases, allocations, sample)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v)),
            );
            writeln!(w, "{}", JsonValue::Object(pairs))?;
        }
        Ok(())
    }

    /// Writes the run footer (seed, quick, threads, git describe, wall
    /// time, cell count), flushes, and reports what was written.
    pub fn finish(mut self, seed: u64) -> io::Result<RunSummary> {
        let wall_ms = self.start.elapsed().as_millis();
        let mut paths = Vec::new();
        if let Some((path, mut w)) = self.jsonl.take() {
            let footer = JsonValue::object(vec![
                ("type", JsonValue::from(RUN_TYPE)),
                ("experiment", JsonValue::Str(self.experiment.clone())),
                ("seed", JsonValue::from(seed)),
                ("quick", JsonValue::from(self.quick)),
                ("threads", JsonValue::from(self.threads)),
                ("git", JsonValue::from(git_describe())),
                ("wall_ms", JsonValue::from(wall_ms as u64)),
                ("cells", JsonValue::from(self.cells)),
                ("profiles", JsonValue::from(self.profiles)),
                ("metrics", JsonValue::from(self.metrics)),
                ("resources", JsonValue::from(self.resources)),
                ("faults", JsonValue::from(self.faults)),
            ]);
            writeln!(w, "{footer}")?;
            w.flush()?;
            paths.push(path);
        }
        if let Some(mut csv) = self.csv.take() {
            csv.writer.flush()?;
            paths.push(csv.path);
        }
        Ok(RunSummary {
            cells: self.cells,
            wall_ms,
            paths,
        })
    }
}

fn open(path: &Path) -> io::Result<(PathBuf, BufWriter<File>)> {
    Ok((path.to_path_buf(), BufWriter::new(File::create(path)?)))
}

impl CsvSink {
    fn open(path: &Path) -> io::Result<CsvSink> {
        let (path, writer) = open(path)?;
        Ok(CsvSink {
            path,
            writer,
            header: None,
        })
    }

    fn row(&mut self, pairs: &[(String, JsonValue)]) -> io::Result<()> {
        if self.header.is_none() {
            let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            let line: Vec<String> = keys.iter().map(|k| csv_escape(k)).collect();
            writeln!(self.writer, "{}", line.join(","))?;
            self.header = Some(keys);
        }
        let header = self.header.as_ref().expect("header just ensured");
        let line: Vec<String> = header
            .iter()
            .map(|key| {
                pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(String::new(), |(_, v)| csv_cell(v))
            })
            .collect();
        writeln!(self.writer, "{}", line.join(","))
    }
}

fn csv_cell(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => String::new(),
        JsonValue::Str(s) => csv_escape(s),
        other => csv_escape(&other.to_string()),
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The canonical JSON field set of a [`Metrics`] bundle, in a fixed
/// order: the nine counters (the six work counters, then the three
/// chaos counters — `faults_injected`, `trials_retried`,
/// `trials_skipped`, all zero in fault-free runs), then
/// `hist_requests_log2` — the per-trial request-count histogram in its
/// trimmed form (bucket `0` counts zero-request trials; bucket `k ≥ 1`
/// counts trials with total requests in `[2^(k−1), 2^k)`). `xp
/// validate` checks the bucket counts sum to `trials`.
pub fn metrics_fields(metrics: &Metrics) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("trials", JsonValue::from(metrics.trials)),
        ("requests", JsonValue::from(metrics.requests)),
        ("discoveries", JsonValue::from(metrics.discoveries)),
        (
            "edge_resolutions",
            JsonValue::from(metrics.edge_resolutions),
        ),
        (
            "frontier_rescans",
            JsonValue::from(metrics.frontier_rescans),
        ),
        ("scratch_resets", JsonValue::from(metrics.scratch_resets)),
        ("faults_injected", JsonValue::from(metrics.faults_injected)),
        ("trials_retried", JsonValue::from(metrics.trials_retried)),
        ("trials_skipped", JsonValue::from(metrics.trials_skipped)),
        (
            "hist_requests_log2",
            JsonValue::Array(
                metrics
                    .trial_requests
                    .trimmed()
                    .iter()
                    .map(|&count| JsonValue::from(count))
                    .collect(),
            ),
        ),
    ]
}

/// The canonical JSON field set of a resource record's payload, in a
/// fixed order: cell wall time and worker count (the envelope the
/// phase sums are bounded by — per-worker busy time can total up to
/// `wall_ms × (workers + 1)`, the `+ 1` being the consumer thread that
/// owns the merge phase), the five phase timers, the heap-allocation
/// count harvested across trial bodies, and the `/proc` process
/// sample. `xp validate` checks these bounds.
pub fn resource_fields(
    wall_ms: u64,
    workers: usize,
    phases: &PhaseTimes,
    allocations: u64,
    sample: &ResourceSample,
) -> Vec<(&'static str, JsonValue)> {
    let mut fields = vec![
        ("wall_ms", JsonValue::from(wall_ms)),
        ("workers", JsonValue::from(workers)),
    ];
    fields.extend(
        phases
            .named()
            .into_iter()
            .map(|(name, ns)| (name, JsonValue::from(ns))),
    );
    fields.extend([
        ("allocations", JsonValue::from(allocations)),
        ("peak_rss_bytes", JsonValue::from(sample.peak_rss_bytes)),
        ("minor_faults", JsonValue::from(sample.minor_faults)),
        ("major_faults", JsonValue::from(sample.major_faults)),
        (
            "voluntary_ctx_switches",
            JsonValue::from(sample.voluntary_ctx_switches),
        ),
    ]);
    fields
}

/// `git describe --always --dirty`, or `"unknown"` outside a work tree.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "nonsearch_engine_{}_{}_{tag}",
            std::process::id(),
            unique
        ))
    }

    fn demo_fields(n: usize) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("n", JsonValue::from(n)),
            ("mean", JsonValue::from(1.5 * n as f64)),
            ("label, quoted", JsonValue::from("a \"b\",c")),
        ]
    }

    #[test]
    fn inert_writer_counts_but_writes_nothing() {
        let mut w = RunWriter::sink("demo");
        assert!(!w.is_active());
        w.record_cell(demo_fields(1)).unwrap();
        let summary = w.finish(7).unwrap();
        assert_eq!(summary.cells, 1);
        assert!(summary.paths.is_empty());
    }

    #[test]
    fn jsonl_records_parse_and_footer_carries_meta() {
        let path = temp_path("run.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            threads: 3,
            quick: true,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(128)).unwrap();
        w.record_cell(demo_fields(256)).unwrap();
        let summary = w.finish(0xE1).unwrap();
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.paths, vec![path.clone()]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            json::parse(line).unwrap();
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(|v| v.as_str()), Some(CELL_TYPE));
        assert_eq!(
            first.get("experiment").and_then(|v| v.as_str()),
            Some("demo")
        );
        assert_eq!(first.get("n").and_then(|v| v.as_f64()), Some(128.0));
        let footer = json::parse(lines[2]).unwrap();
        assert_eq!(footer.get("type").and_then(|v| v.as_str()), Some(RUN_TYPE));
        assert_eq!(footer.get("seed").and_then(|v| v.as_f64()), Some(225.0));
        assert_eq!(footer.get("cells").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(footer.get("threads").and_then(|v| v.as_f64()), Some(3.0));
        assert!(footer.get("git").is_some());
        assert!(footer.get("wall_ms").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn both_formats_write_csv_sibling() {
        let path = temp_path("run.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        let summary = w.finish(1).unwrap();
        let csv_path = path.with_extension("csv");
        assert_eq!(summary.paths, vec![path.clone(), csv_path.clone()]);

        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "type,experiment,n,mean,\"label, quoted\""
        );
        assert_eq!(lines.next().unwrap(), "cell,demo,64,96.0,\"a \"\"b\"\",c\"");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn both_with_csv_out_path_does_not_clobber() {
        let path = temp_path("run.csv");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(vec![("n", JsonValue::from(1usize))]).unwrap();
        let summary = w.finish(0).unwrap();
        let jsonl_path = path.with_extension("jsonl");
        assert_eq!(summary.paths, vec![jsonl_path.clone(), path.clone()]);
        // Both files exist with their own, intact contents.
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            json::parse(line).unwrap();
        }
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("type,experiment,n"));
        assert_eq!(csv.lines().count(), 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&jsonl_path).ok();
    }

    #[test]
    fn csv_only_uses_out_path_directly() {
        let path = temp_path("run.csv");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Csv,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(vec![("n", JsonValue::from(1usize))]).unwrap();
        let summary = w.finish(0).unwrap();
        assert_eq!(summary.paths, vec![path.clone()]);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_records_are_jsonl_only() {
        let path = temp_path("prof.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        w.record_profile(vec![
            ("n", JsonValue::from(64usize)),
            ("requests_per_sec", JsonValue::from(1.25e6)),
        ])
        .unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let profile_line = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"profile\""))
            .expect("profile record in JSONL");
        let parsed = json::parse(profile_line).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|v| v.as_str()),
            Some(PROFILE_TYPE)
        );
        assert_eq!(
            parsed.get("requests_per_sec").and_then(|v| v.as_f64()),
            Some(1.25e6)
        );
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer.get("profiles").and_then(|v| v.as_f64()), Some(1.0));
        // The CSV sibling keeps its single cell-shaped header: no
        // profile rows leak into it.
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        assert!(!csv.contains("profile"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn fault_records_are_jsonl_only_and_counted() {
        let path = temp_path("fault.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        w.record_fault(vec![
            ("kind", JsonValue::from("panic")),
            ("trial", JsonValue::from(3usize)),
            ("attempt", JsonValue::from(0usize)),
            ("outcome", JsonValue::from("retried")),
        ])
        .unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"fault\""))
            .expect("fault record in JSONL");
        let parsed = json::parse(line).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|v| v.as_str()),
            Some(FAULT_TYPE)
        );
        assert_eq!(parsed.get("kind").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(parsed.get("trial").and_then(|v| v.as_f64()), Some(3.0));
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer.get("faults").and_then(|v| v.as_f64()), Some(1.0));
        // No fault rows leak into the CSV sibling.
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        assert!(!csv.contains("fault"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn degraded_cells_carry_the_flag_and_healthy_cells_do_not() {
        let path = temp_path("degraded.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell_degraded(demo_fields(64), false).unwrap();
        w.record_cell_degraded(demo_fields(128), true).unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        let healthy = json::parse(lines[0]).unwrap();
        assert!(healthy.get("degraded").is_none(), "healthy cell flagged");
        let degraded = json::parse(lines[1]).unwrap();
        assert_eq!(
            degraded.get("degraded").and_then(|v| v.as_bool()),
            Some(true)
        );
        let footer = json::parse(lines[2]).unwrap();
        assert_eq!(footer.get("cells").and_then(|v| v.as_f64()), Some(2.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_records_are_jsonl_only_and_counted() {
        let path = temp_path("metrics.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        let mut m = Metrics::new();
        m.trials = 2;
        m.requests = 100;
        m.observe_trial_requests(60);
        m.observe_trial_requests(40);
        w.record_metrics(vec![("n", JsonValue::from(64usize))], &m)
            .unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"metrics\""))
            .expect("metrics record in JSONL");
        let parsed = json::parse(line).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|v| v.as_str()),
            Some(METRICS_TYPE)
        );
        assert_eq!(parsed.get("n").and_then(|v| v.as_f64()), Some(64.0));
        assert_eq!(parsed.get("trials").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(parsed.get("requests").and_then(|v| v.as_f64()), Some(100.0));
        // Both samples land in bucket 6 ([32, 64)); the trimmed array
        // covers buckets 0..=6 and its counts sum to the trial count.
        let hist = parsed
            .get("hist_requests_log2")
            .and_then(|v| v.as_array())
            .expect("histogram array");
        let total: f64 = hist.iter().filter_map(|v| v.as_f64()).sum();
        assert_eq!(total, 2.0);
        assert_eq!(hist.len(), 7);
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer.get("metrics").and_then(|v| v.as_f64()), Some(1.0));
        // No metrics rows leak into the CSV sibling.
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn resource_records_are_jsonl_only_and_counted() {
        let path = temp_path("resource.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        let phases = PhaseTimes {
            generate_ns: 1_000,
            search_ns: 5_000,
            harvest_ns: 100,
            merge_ns: 50,
            ..PhaseTimes::new()
        };
        let sample = ResourceSample {
            peak_rss_bytes: 4096,
            minor_faults: 10,
            major_faults: 1,
            voluntary_ctx_switches: 3,
        };
        w.record_resource(
            vec![("n", JsonValue::from(64usize))],
            12,
            4,
            &phases,
            7,
            &sample,
        )
        .unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"resource\""))
            .expect("resource record in JSONL");
        let parsed = json::parse(line).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|v| v.as_str()),
            Some(RESOURCE_TYPE)
        );
        assert_eq!(parsed.get("n").and_then(|v| v.as_f64()), Some(64.0));
        assert_eq!(parsed.get("wall_ms").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(parsed.get("workers").and_then(|v| v.as_f64()), Some(4.0));
        assert_eq!(
            parsed.get("phase_search_ns").and_then(|v| v.as_f64()),
            Some(5000.0)
        );
        assert_eq!(
            parsed.get("phase_load_ns").and_then(|v| v.as_f64()),
            Some(0.0)
        );
        assert_eq!(
            parsed.get("allocations").and_then(|v| v.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            parsed.get("peak_rss_bytes").and_then(|v| v.as_f64()),
            Some(4096.0)
        );
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer.get("resources").and_then(|v| v.as_f64()), Some(1.0));
        // No resource rows leak into the CSV sibling.
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        assert!(!csv.contains("resource"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn cell_telemetry_writes_profile_metrics_and_resource_records() {
        let path = temp_path("telemetry.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        let mut obs = TrialObs::new();
        obs.metrics.trials = 4;
        obs.metrics.requests = 100;
        for _ in 0..4 {
            obs.metrics.observe_trial_requests(25);
        }
        let (ran, one_lane) = CellTelemetry::measure(4, 1, 2, || ("ran", obs));
        assert_eq!(ran, "ran");
        assert_eq!(
            (one_lane.trials, one_lane.lanes, one_lane.workers),
            (4, 1, 2)
        );
        assert_eq!(one_lane.metrics, obs.metrics);
        let three_lanes = CellTelemetry {
            lanes: 3,
            ..one_lane
        };
        for cell in [&one_lane, &three_lanes] {
            let key = vec![
                ("model", JsonValue::from("demo")),
                ("n", JsonValue::from(64usize)),
            ];
            w.record_cell_telemetry(key, cell).unwrap();
        }
        w.finish(1).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let keys: Vec<Vec<String>> = text
            .lines()
            .map(|line| match json::parse(line).unwrap() {
                JsonValue::Object(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
                other => panic!("not an object: {other}"),
            })
            .collect();
        let head = ["type", "experiment", "model", "n"];
        let with_head = |tail: &[&str]| -> Vec<String> {
            head.iter().chain(tail).map(|k| k.to_string()).collect()
        };
        let metric_keys: Vec<&str> = metrics_fields(&obs.metrics)
            .iter()
            .map(|(k, _)| *k)
            .collect();
        let resource_keys: Vec<&str> =
            resource_fields(0, 1, &PhaseTimes::new(), 0, &ResourceSample::default())
                .iter()
                .map(|(k, _)| *k)
                .collect();
        // A single-lane profile has no `lanes` field; a multi-lane one has.
        assert_eq!(
            keys[0],
            with_head(&["trials", "requests", "wall_ms", "requests_per_sec"])
        );
        assert_eq!(keys[1], with_head(&metric_keys));
        assert_eq!(keys[2], with_head(&resource_keys));
        assert_eq!(
            keys[3],
            with_head(&["trials", "lanes", "requests", "wall_ms", "requests_per_sec"])
        );
        let profile = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            profile.get("requests").and_then(|v| v.as_f64()),
            Some(100.0)
        );
        let footer = json::parse(text.lines().last().unwrap()).unwrap();
        for counter in ["profiles", "metrics", "resources"] {
            assert_eq!(footer.get(counter).and_then(|v| v.as_f64()), Some(2.0));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn git_describe_is_nonempty() {
        assert!(!git_describe().is_empty());
    }
}
