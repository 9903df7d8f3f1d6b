//! The parallel runner must be invisible in the results: the full
//! `--quick` grid produces bit-identical measurements for `--jobs 1` and
//! `--jobs 4`.

use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{FigureKind, ResultMap};
use clic_cluster::jobs::JobSpec;

fn quick_grid() -> Vec<JobSpec> {
    let sizes = clic_cluster::experiments::quick_sizes();
    FigureKind::ALL
        .into_iter()
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
fn quick_grid_identical_for_jobs_1_and_4() {
    let specs = quick_grid();
    let (serial, r1) = run_jobs(&specs, &RunnerConfig::uncached(1));
    let (parallel, r4) = run_jobs(&specs, &RunnerConfig::uncached(4));
    assert_eq!(r1.jobs.len(), specs.len());
    assert_eq!(r4.jobs.len(), specs.len());
    assert_eq!(bits(&serial), bits(&parallel));
}

#[test]
fn scale_grid_identical_for_jobs_1_and_4() {
    // The scale family is opt-in (not in FigureKind::ALL), so the quick
    // grid above never covers it; its 8–16 node collective jobs carry the
    // same worker-count-invisibility contract.
    let sizes = clic_cluster::experiments::quick_sizes();
    let specs = FigureKind::Scale.jobs(&sizes);
    let (serial, r1) = run_jobs(&specs, &RunnerConfig::uncached(1));
    let (parallel, r4) = run_jobs(&specs, &RunnerConfig::uncached(4));
    assert_eq!(r1.jobs.len(), specs.len());
    assert_eq!(r4.jobs.len(), specs.len());
    assert_eq!(bits(&serial), bits(&parallel));
}
