//! Every event a job executes runs under the engine probe installed with
//! [`set_job_probe_factory`], and the probe leaves results untouched.
//!
//! A job kind whose simulator skipped the factory would run its events
//! unprofiled, and a profiler (perfbench's traced pass) would then
//! under-attribute host time without any visible error. This file is its
//! own test binary because the probe factory is process-global.

use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{quick_sizes, run_serial, FigureKind, ResultMap};
use clic_cluster::jobs::{set_job_probe_factory, JobSpec};
use clic_sim::{ActionArm, EngineProbe};
use std::sync::atomic::{AtomicU64, Ordering};

static BEGINS: AtomicU64 = AtomicU64::new(0);
static ENDS: AtomicU64 = AtomicU64::new(0);

struct CountingProbe;

impl EngineProbe for CountingProbe {
    fn begin(&mut self, _arm: ActionArm) {
        BEGINS.fetch_add(1, Ordering::Relaxed);
    }

    fn end(&mut self, _arm: ActionArm) {
        ENDS.fetch_add(1, Ordering::Relaxed);
    }
}

fn counting_probe() -> Box<dyn EngineProbe> {
    Box::new(CountingProbe)
}

/// The quick grid of every family, the opt-in ones included.
fn every_family_quick() -> Vec<JobSpec> {
    let sizes = quick_sizes();
    FigureKind::ALL
        .into_iter()
        .chain([FigureKind::Chaos, FigureKind::Scale, FigureKind::Congestion])
        .flat_map(|kind| kind.jobs(&sizes))
        .collect()
}

/// Exact representation: value names and `f64` bit patterns per job.
fn bits(map: &ResultMap) -> Vec<(String, Vec<(String, u64)>)> {
    map.iter()
        .map(|(id, m)| {
            (
                id.clone(),
                m.values
                    .iter()
                    .map(|(n, v)| (n.clone(), v.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn probe_sees_every_executed_event_of_every_family() {
    let specs = every_family_quick();

    set_job_probe_factory(Some(counting_probe));
    let (probed, _) = run_jobs(&specs, &RunnerConfig::uncached(2));
    set_job_probe_factory(None);

    let executed: f64 = probed.values().map(|m| m.require("m.events")).sum();
    assert!(executed > 0.0);
    assert_eq!(BEGINS.load(Ordering::Relaxed) as f64, executed);
    assert_eq!(ENDS.load(Ordering::Relaxed) as f64, executed);

    let unprobed = run_serial(&specs);
    assert_eq!(bits(&probed), bits(&unprobed));
}
