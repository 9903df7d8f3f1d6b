//! Self-tests of the benchmark: metric names, the report and result-line
//! contract on every workload, exact repeats across processes, and that a
//! run writes nothing outside its output directory.
//!
//! They run the real workloads; use `cargo test --release`.

use clic_bench::json::Json;
use clic_perfbench::metrics::{valid_name, Def, END_TO_END, PER_LAYER, REPORT_ONLY};
use clic_perfbench::workload::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

struct Run {
    report: Vec<String>,
    result: Json,
}

fn run(workload: &str, seed: u64, seconds: u32, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().expect("a result line");
    // Exactly one JSON document: the last line; every other line is a
    // report line.
    for l in &lines {
        assert!(
            l.starts_with("# ") || l.starts_with("metric ") || l.starts_with("layer "),
            "unexpected output line {l:?}"
        );
    }
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("{last:?}: {e}"));
    Run {
        report: lines,
        result,
    }
}

fn metric_values(r: &Run) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(pairs)) = r.result.get("metrics") else {
        panic!("no metrics object");
    };
    pairs
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                (
                    v.get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value"),
                    v.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                ),
            )
        })
        .collect()
}

fn assert_correct(r: &Run, what: &str) {
    assert_eq!(
        r.result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert_eq!(r.result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert!(r.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "duplicate metric names");
    for name in &all {
        assert!(valid_name(name), "invalid metric name {name:?}");
    }

    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    // name -> (unit, better)
    let listed = |key: &str| -> BTreeMap<String, (String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), (field("unit"), field("better")))
            })
            .collect()
    };
    let ours = |defs: &mut dyn Iterator<Item = &Def>| -> BTreeMap<String, (String, String)> {
        defs.map(|d| {
            let spec = (d.unit.to_string(), d.better.name().to_string());
            (d.name.to_string(), spec)
        })
        .collect()
    };
    let gated = ours(&mut END_TO_END.iter().filter(|d| !REPORT_ONLY.contains(&d.name)));
    assert_eq!(listed("end_to_end"), gated);
    assert_eq!(listed("per_layer"), ours(&mut PER_LAYER.iter()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

/// Every file under the repository root except build and benchmark
/// output directories, with its length and modification time.
fn tree_state(root: &Path) -> BTreeMap<PathBuf, (u64, SystemTime)> {
    let skip = |p: &Path| {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        matches!(name, ".git" | "target" | ".bench_build")
            || p == root.join("perfbench").join("out")
            || std::env::var_os("CARGO_TARGET_DIR").is_some_and(|t| p == Path::new(&t))
    };
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if skip(&path) {
                continue;
            }
            let meta = std::fs::symlink_metadata(&path).expect("metadata");
            if meta.is_dir() {
                stack.push(path);
            } else {
                out.insert(path, (meta.len(), meta.modified().expect("mtime")));
            }
        }
    }
    out
}

#[test]
fn every_workload_reports_every_metric_and_writes_nothing_else() {
    let root = repo_root();
    let before = tree_state(&root);
    let bench_figures = std::fs::read(root.join("BENCH_figures.json")).ok();
    for w in Workload::ALL {
        let r = run(w.name(), 0, 1, false);
        assert_correct(&r, w.name());
        // The report carries every end-to-end metric, n/a where a
        // metric does not apply.
        for d in &END_TO_END {
            let line = r
                .report
                .iter()
                .find(|l| l.split(' ').nth(1) == Some(d.name))
                .unwrap_or_else(|| panic!("{}: no report line for {}", w.name(), d.name));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[0], "metric");
            assert_eq!(fields[3], d.unit, "{line}");
            let na = fields[2] == "n/a";
            if d.name == "model_error_pct" {
                assert_eq!(na, w != Workload::PaperGrid, "{line}");
            } else {
                assert!(!na, "{line}");
            }
        }
        // The result line carries exactly the gated metrics, each non-zero.
        let values = metric_values(&r);
        let gated: Vec<_> = END_TO_END
            .iter()
            .filter(|d| !REPORT_ONLY.contains(&d.name))
            .collect();
        assert_eq!(values.len(), gated.len());
        for d in gated {
            let (v, unit) = &values[d.name];
            assert_eq!(unit, d.unit);
            assert!(*v > 0.0 && v.is_finite(), "{} {}: {v}", w.name(), d.name);
        }
    }
    assert_eq!(
        std::fs::read(root.join("BENCH_figures.json")).ok(),
        bench_figures
    );
    assert_eq!(
        tree_state(&root),
        before,
        "a benchmark run changed the tree"
    );
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let r = run("lossy-recovery", 3, 2, true);
    assert_correct(&r, "traced lossy-recovery");
    let values = metric_values(&r);
    let names: BTreeSet<&str> = values.keys().map(String::as_str).collect();
    let expected: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
    assert!(values["sim.events"].0 > 0.0);
    assert!(values["clic.retransmits"].0 > 0.0, "lossy links retransmit");
    let spans = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-lossy-recovery-seed3.json"),
    )
    .expect("spans written");
    let spans = Json::parse(&spans).expect("spans parse");
    let names: BTreeSet<&str> = spans
        .as_arr()
        .expect("span array")
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let boundaries = ["assemble", "build", "collect", "drive", "job", "runner"];
    assert_eq!(names, boundaries.into_iter().collect());
}

#[test]
fn exact_metrics_repeat_across_processes() {
    let exact = [
        "allocs_per_event",
        "alloc_bytes_per_event",
        "peak_heap_mb",
        "model_mbps",
        "model_latency_p50_us",
        "model_latency_p99_us",
    ];
    // The report lines print every metric, the report-only ones included.
    let report_value = |r: &Run, name: &str| -> String {
        r.report
            .iter()
            .find(|l| l.split(' ').nth(1) == Some(name))
            .and_then(|l| l.split(' ').nth(2))
            .unwrap_or_else(|| panic!("no report line for {name}"))
            .to_string()
    };
    let a = run("fabric-congestion", 7, 1, false);
    let b = run("fabric-congestion", 7, 1, false);
    for name in exact {
        assert_eq!(report_value(&a, name), report_value(&b, name), "{name}");
    }
}
