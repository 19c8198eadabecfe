//! End-to-end tests of the `xp` binary: subcommand listing, JSONL
//! emission, the headline engine guarantee — byte-identical cell
//! records for `--threads 1` vs `--threads 4` with the same seed —
//! and the observability surface (`--trace`, metrics records,
//! `profile-diff`).

use nonsearch_engine::{parse_json, validate_chrome_trace, validate_jsonl, CELL_TYPE, RUN_TYPE};
use std::path::PathBuf;
use std::process::{Command, Output};

fn xp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp binary runs")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xp_cli_{}_{tag}", std::process::id()))
}

/// The deterministic part of a run file: every `"type":"cell"` line, in
/// order. The `"type":"run"` footer carries wall time and thread count
/// and is legitimately volatile.
fn cell_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            parse_json(l)
                .expect("every emitted line parses")
                .get("type")
                .and_then(|t| t.as_str())
                .map(|t| t == CELL_TYPE)
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn list_enumerates_the_registered_experiments() {
    let out = xp(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "theorem1-weak",
        "theorem1-strong",
        "lemma1-bound",
        "lemma2-equiv",
        "lemma3-event",
        "ablation",
        "diameter",
        "adamic",
        "kleinberg",
        "percolation",
        "correlation",
    ] {
        assert!(stdout.contains(name), "xp list misses {name}:\n{stdout}");
    }
}

#[test]
fn contrast_experiments_write_thread_invariant_valid_cells() {
    for name in [
        "diameter",
        "adamic",
        "kleinberg",
        "percolation",
        "correlation",
    ] {
        let mut cells = Vec::new();
        for threads in ["1", "2"] {
            let path = temp_path(&format!("{name}_t{threads}.jsonl"));
            let path_str = path.to_str().unwrap();
            let out = xp(&[name, "--quick", "--threads", threads, "--out", path_str]);
            assert!(
                out.status.success(),
                "{name}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(xp(&["validate", path_str]).status.success(), "{name}");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let lines: Vec<String> = cell_lines(&text).into_iter().map(String::from).collect();
            assert!(!lines.is_empty(), "{name} wrote no cell records");
            cells.push(lines);
        }
        assert_eq!(cells[0], cells[1], "{name}: cells depend on --threads");
    }
}

#[test]
fn unknown_subcommand_and_bad_flags_fail_cleanly() {
    let out = xp(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("theorem1-weak"), "should list experiments");

    let out = xp(&["theorem1-weak", "--threads", "abc"]);
    assert_eq!(out.status.code(), Some(2));

    let out = xp(&["theorem1-weak", "--wat"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn jsonl_cell_records_are_byte_identical_across_thread_counts() {
    let single = temp_path("t1.jsonl");
    let quad = temp_path("t4.jsonl");
    let common = [
        "theorem1-weak",
        "--quick",
        "--trials",
        "4",
        "--sizes",
        "128,256",
        "--seed",
        "7",
        "--out",
    ];

    let mut args: Vec<&str> = common.to_vec();
    let single_str = single.to_str().unwrap();
    args.push(single_str);
    args.extend(["--threads", "1"]);
    let out = xp(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut args: Vec<&str> = common.to_vec();
    let quad_str = quad.to_str().unwrap();
    args.push(quad_str);
    args.extend(["--threads", "4"]);
    let out = xp(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let a = std::fs::read_to_string(&single).unwrap();
    let b = std::fs::read_to_string(&quad).unwrap();

    // Both record streams validate.
    let va = validate_jsonl(&a).unwrap();
    let vb = validate_jsonl(&b).unwrap();
    assert!(va.cells > 0 && va.runs == 1, "{va:?}");
    assert_eq!(va, vb);

    // The deterministic cell lines are byte-identical.
    assert_eq!(cell_lines(&a), cell_lines(&b));

    // Only the volatile run footer differs — and it records the thread
    // count that actually ran.
    let footer = |text: &str| {
        text.lines()
            .find(|l| {
                parse_json(l)
                    .unwrap()
                    .get("type")
                    .and_then(|t| t.as_str())
                    .map(|t| t == RUN_TYPE)
                    .unwrap_or(false)
            })
            .map(|l| parse_json(l).unwrap())
            .expect("run footer present")
    };
    assert_eq!(
        footer(&a).get("threads").and_then(|v| v.as_f64()),
        Some(1.0)
    );
    assert_eq!(
        footer(&b).get("threads").and_then(|v| v.as_f64()),
        Some(4.0)
    );
    assert_eq!(footer(&a).get("seed").and_then(|v| v.as_f64()), Some(7.0));

    // `xp validate` agrees from the command line.
    let out = xp(&["validate", single_str, quad_str]);
    assert!(out.status.success());

    std::fs::remove_file(&single).ok();
    std::fs::remove_file(&quad).ok();
}

#[test]
fn csv_format_writes_aligned_rows() {
    let path = temp_path("run.csv");
    let path_str = path.to_str().unwrap();
    let out = xp(&[
        "lemma3-event",
        "--quick",
        "--trials",
        "8",
        "--format",
        "csv",
        "--out",
        path_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(&path).unwrap();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("type,experiment,"));
    let columns = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        rows += 1;
    }
    assert!(rows > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn validate_flags_corrupt_files() {
    let path = temp_path("bad.jsonl");
    std::fs::write(&path, "{\"type\":\"cell\"}\nnot json at all\n").unwrap();
    let out = xp(&["validate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&path).ok();
}

/// The `"quick"` field of the run footer emitted by one tiny run.
fn footer_quick(args: &[&str], env: Option<(&str, &str)>, tag: &str) -> bool {
    let path = temp_path(tag);
    let mut full: Vec<&str> = vec!["theorem1-weak", "--sizes", "32", "--trials", "2", "--out"];
    let path_str = path.to_str().unwrap().to_string();
    full.push(&path_str);
    full.extend_from_slice(args);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xp"));
    // Start from a known state: the ambient harness environment must
    // not leak into the regression assertions below.
    cmd.args(&full).env_remove("NONSEARCH_QUICK");
    if let Some((key, value)) = env {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("xp binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let quick = text
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .find(|v| v.get("type").and_then(|t| t.as_str()) == Some(RUN_TYPE))
        .and_then(|v| v.get("quick").and_then(|q| q.as_bool()))
        .expect("run footer carries a quick field");
    std::fs::remove_file(&path).ok();
    quick
}

#[test]
fn quick_env_zero_and_empty_do_not_enable_quick_mode() {
    // The regression pair: `NONSEARCH_QUICK=0` (and the empty string)
    // used to *enable* quick mode because only presence was checked.
    assert!(!footer_quick(
        &[],
        Some(("NONSEARCH_QUICK", "0")),
        "env0.jsonl"
    ));
    assert!(!footer_quick(
        &[],
        Some(("NONSEARCH_QUICK", "")),
        "envempty.jsonl"
    ));
    assert!(footer_quick(
        &[],
        Some(("NONSEARCH_QUICK", "1")),
        "env1.jsonl"
    ));
    assert!(footer_quick(&["--quick"], None, "flag.jsonl"));
    assert!(!footer_quick(&[], None, "plain.jsonl"));
}

#[test]
fn trace_and_metrics_flow_through_a_profiled_run() {
    let run = temp_path("obs.jsonl");
    let trace = temp_path("obs.trace.json");
    let run_str = run.to_str().unwrap();
    let trace_str = trace.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--quick",
        "--trials",
        "3",
        "--sizes",
        "64,128",
        "--profile",
        "--trace",
        trace_str,
        "--out",
        run_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The JSONL stream now carries metrics records next to the profile
    // records, and the library validator counts both.
    let text = std::fs::read_to_string(&run).unwrap();
    let summary = validate_jsonl(&text).unwrap();
    assert!(summary.cells > 0, "{summary:?}");
    assert!(summary.profiles > 0, "{summary:?}");
    assert!(summary.metrics > 0, "{summary:?}");
    assert_eq!(summary.metrics, summary.profiles, "{summary:?}");

    // The trace is a structurally valid Chrome Trace Event document
    // covering the whole span hierarchy.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let events = validate_chrome_trace(&trace_text).unwrap();
    assert!(events > 0);
    for name in ["\"run\"", "\"size-cell\"", "\"trial-batch\"", "\"trial\""] {
        assert!(trace_text.contains(name), "trace misses {name}");
    }

    // `xp validate` accepts both files from the command line.
    let out = xp(&["validate", run_str, trace_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("metrics"), "{stdout}");

    std::fs::remove_file(&run).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_diff_gates_on_a_doubled_baseline() {
    let run = temp_path("pd.jsonl");
    let run_str = run.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--trials",
        "3",
        "--sizes",
        "64",
        "--profile",
        "--out",
        run_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Self-baseline: ratio 1.0 everywhere, exit 0.
    let base = temp_path("pd_base.json");
    let base_str = base.to_str().unwrap();
    let out = xp(&["profile-diff", run_str, "--write-baseline", base_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = xp(&["profile-diff", run_str, "--baseline", base_str]);
    assert_eq!(out.status.code(), Some(0));

    // A baseline claiming 2× the measured throughput regresses at the
    // default 0.7 threshold (ratio 0.5) — and exits nonzero.
    let doubled = temp_path("pd_base2.json");
    let doubled_str = doubled.to_str().unwrap();
    let out = xp(&[
        "profile-diff",
        run_str,
        "--write-baseline",
        doubled_str,
        "--scale",
        "2.0",
    ]);
    assert!(out.status.success());
    let out = xp(&["profile-diff", run_str, "--baseline", doubled_str]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("regression"), "{stderr}");

    // A run without profile records cannot be gated — usage error.
    let bare = temp_path("pd_bare.jsonl");
    let bare_str = bare.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--trials",
        "2",
        "--sizes",
        "32",
        "--out",
        bare_str,
    ]);
    assert!(out.status.success());
    let out = xp(&["profile-diff", bare_str, "--baseline", base_str]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&run).ok();
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&doubled).ok();
    std::fs::remove_file(&bare).ok();
}

#[test]
fn quick_with_inline_value_is_rejected_not_misread() {
    // The regression: `--quick=false` used to silently enable quick
    // mode. The strict xp parser now rejects any inline value.
    for arg in ["--quick=false", "--quick=true", "--mmap=1"] {
        let out = xp(&["theorem1-weak", arg]);
        assert_eq!(out.status.code(), Some(2), "{arg} must be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("boolean"), "{arg}: {stderr}");
    }
}
