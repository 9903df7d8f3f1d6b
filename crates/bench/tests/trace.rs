//! The observability layer's output is part of the contract: the Chrome
//! trace of the Figure 7a packet is byte-stable (golden file), parses as
//! JSON, and its span durations are exactly the Figure 7 stage timings —
//! which themselves must be bit-identical whether the figure jobs run on
//! one worker or four.

use clic_bench::json::Json;
use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments;
use clic_cluster::observe::{run_collective_trace, run_pipeline_trace, TraceScenario};

const GOLDEN: &str = include_str!("golden/fig7a_1400_trace.json");
const GOLDEN_LOSSY: &str = include_str!("golden/fig7a_lossy_trace.json");
const GOLDEN_COLL: &str = include_str!("golden/coll_barrier_8_trace.json");

fn fig7a_trace() -> clic_cluster::observe::PipelineTrace {
    run_pipeline_trace(TraceScenario::Fig7a, 1400, 1500, 0)
}

#[test]
fn chrome_trace_matches_golden_file() {
    let t = fig7a_trace();
    assert_eq!(
        t.chrome_json, GOLDEN,
        "Chrome trace for the Figure 7a packet changed; if intentional, \
         regenerate crates/bench/tests/golden/fig7a_1400_trace.json with \
         `figures trace fig7a --out <golden path>`"
    );
}

#[test]
fn lossy_chrome_trace_matches_golden_file() {
    // A 14000-byte message over the fault-injected link (every 4th forward
    // frame lost, clean reverse path): the trace is byte-stable and shows
    // both recovery mechanisms as instant events.
    let t = run_pipeline_trace(TraceScenario::Fig7aLossy, 14_000, 1500, 0);
    assert_eq!(
        t.chrome_json, GOLDEN_LOSSY,
        "Chrome trace for the lossy Figure 7a run changed; if intentional, \
         regenerate crates/bench/tests/golden/fig7a_lossy_trace.json with \
         `figures trace fig7a-lossy --size 14000 --out <golden path>`"
    );
    assert!(t.chrome_json.contains("\"fast_retransmit\""));
    assert!(t.chrome_json.contains("\"rto\""));
    assert!(t.chrome_json.contains("\"link_drop\""));
}

#[test]
fn coll_barrier_trace_matches_golden_file() {
    // An 8-node NIC-offloaded barrier on the leaf–spine fabric: the
    // firmware combining tree's up/down instants and every control
    // frame's wire crossing, byte-stable.
    let t = run_collective_trace(8, 0);
    assert_eq!(
        t.chrome_json, GOLDEN_COLL,
        "Chrome trace for the 8-node NIC barrier changed; if intentional, \
         regenerate crates/bench/tests/golden/coll_barrier_8_trace.json with \
         `cargo test -p clic-bench --test trace regenerate_coll_golden -- --ignored`"
    );
    assert!(t.chrome_json.contains("\"nic_coll_up\""));
    assert!(t.chrome_json.contains("\"nic_coll_down\""));
}

/// Regenerates the NIC-barrier golden file in place. Run explicitly after
/// an intentional trace-format or engine change:
/// `cargo test -p clic-bench --test trace regenerate_coll_golden -- --ignored`
#[test]
#[ignore = "writes the golden file; run only to regenerate it"]
fn regenerate_coll_golden() {
    let t = run_collective_trace(8, 0);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/coll_barrier_8_trace.json"
    );
    std::fs::write(path, &t.chrome_json).expect("write golden");
}

#[test]
fn chrome_trace_parses_and_is_populated() {
    let t = fig7a_trace();
    let doc = Json::parse(&t.chrome_json).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every complete event carries the trace id and a duration.
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), t.spans.len());
    for e in complete {
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn trace_reproduces_figure7_stage_durations() {
    // The stage table printed in figures_full.txt (Figure 7a, 1400 B).
    let expected = [
        ("syscall", 0.65),
        ("clic_module_tx", 1.20),
        ("driver_tx", 1.00),
        ("nic_tx_dma", 13.56),
        ("driver_rx", 17.56),
        ("bottom_half", 0.50),
        ("clic_module_rx", 0.70),
        ("copy_to_user", 3.80),
    ];
    let t = fig7a_trace();
    for (stage, us) in expected {
        let span = t
            .spans
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} span"));
        let got = span.duration().as_us_f64();
        assert!((got - us).abs() < 0.005, "{stage}: {got} != {us}");
    }
    // Flight + interrupt wait (the paper's remaining stage): TX DMA end to
    // receive driver start.
    let dma = t.spans.iter().find(|s| s.stage == "nic_tx_dma").unwrap();
    let drx = t.spans.iter().find(|s| s.stage == "driver_rx").unwrap();
    let flight = (drx.begin - dma.end).as_us_f64();
    assert!((flight - 28.16).abs() < 0.005, "flight+irq: {flight}");
}

#[test]
fn trace_json_is_deterministic_across_runs() {
    let a = fig7a_trace();
    let b = fig7a_trace();
    assert_eq!(a.chrome_json, b.chrome_json);
    assert_eq!(a.metrics.dump(), b.metrics.dump());
}

#[test]
fn fig7_job_metrics_identical_for_jobs_1_and_4() {
    // The m.* measurement keys ride the same determinism contract as the
    // stage values: worker count must be invisible.
    let specs = experiments::fig7_jobs();
    let (serial, _) = run_jobs(&specs, &RunnerConfig::uncached(1));
    let (parallel, _) = run_jobs(&specs, &RunnerConfig::uncached(4));
    for id in ["fig7/7a", "fig7/7b"] {
        let a = &serial[id];
        let b = &parallel[id];
        assert_eq!(a, b, "{id} differs between --jobs 1 and --jobs 4");
        assert!(a.get("m.drops").is_some(), "{id} missing m.drops");
        assert!(a.get("m.retransmits").is_some());
        assert!(a.get("m.peak_switch_queue_depth").is_some());
    }
}

/// The `figures trace --metrics` dumps pinned byte for byte: one per
/// traced pipeline scenario (MTU 1500, seed 0) plus the 8-node NIC
/// barrier. File name, then the dump of that run.
fn metrics_dumps() -> Vec<(&'static str, String)> {
    let pipe = |s, size| run_pipeline_trace(s, size, 1500, 0).metrics.dump();
    vec![
        ("fig7a_1400_metrics.txt", pipe(TraceScenario::Fig7a, 1400)),
        ("fig7b_1400_metrics.txt", pipe(TraceScenario::Fig7b, 1400)),
        (
            "fig7a_lossy_14000_metrics.txt",
            pipe(TraceScenario::Fig7aLossy, 14_000),
        ),
        ("tcp_1400_metrics.txt", pipe(TraceScenario::Tcp, 1400)),
        (
            "coll_barrier_8_metrics.txt",
            run_collective_trace(8, 0).metrics.dump(),
        ),
    ]
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn metrics_dumps_match_golden_files() {
    for (name, dump) in metrics_dumps() {
        let want = std::fs::read_to_string(golden_path(name)).expect("read golden");
        assert_eq!(
            dump, want,
            "metrics dump {name} changed; if intentional, regenerate with \
             `cargo test -p clic-bench --test trace regenerate_metrics_goldens -- --ignored`"
        );
    }
}

/// Regenerates the metrics-dump golden files in place.
#[test]
#[ignore = "writes the golden files; run only to regenerate them"]
fn regenerate_metrics_goldens() {
    for (name, dump) in metrics_dumps() {
        std::fs::write(golden_path(name), dump).expect("write golden");
    }
}
