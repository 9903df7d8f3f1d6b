//! Every catalog handle, recorded once with every sink enabled, reaches
//! exactly the sinks it declares; every stage handle's trace record
//! carries the handle's layer.

use clic_sim::catalog::STAGES;
use clic_sim::{Metric, Metrics, Sim, SimDuration, SimTime, Sinks, TimelineRecorder, Trace};

/// The names listed under `# <section>` in a metrics dump.
fn dump_section(dump: &str, section: &str) -> Vec<String> {
    dump.lines()
        .skip_while(|l| !l.starts_with(&format!("# {section}")))
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .map(|l| l.to_string())
        .collect()
}

#[test]
fn record_fans_out_to_exactly_the_declared_sinks() {
    for m in Metric::all() {
        let sinks = m.sinks();
        let mut sim = Sim::new(0);
        sim.metrics = Metrics::enabled();
        sim.timeline = TimelineRecorder::enabled(SimDuration::from_us(1));
        sim.record(m, 7);
        // Advance two buckets so a level (carried forward) and a rate
        // (reset to zero) tell themselves apart.
        sim.schedule_at(SimTime::from_us(2), |_| {});
        sim.run();
        sim.timeline.finish(sim.now());

        let name = m.name();
        let counted = sim.metrics.counters().any(|(n, v)| n == name && v == 7);
        assert_eq!(counted, sinks.has(Sinks::COUNTER), "{name}: counter");
        assert_eq!(
            sim.metrics.count(m) == 7,
            sinks.has(Sinks::COUNTER),
            "{name}"
        );

        let dump = sim.metrics.dump();
        let gauge = dump_section(&dump, "gauges").contains(&format!("{name} 7 7"));
        assert_eq!(gauge, sinks.has(Sinks::GAUGE), "{name}: gauge");
        assert_eq!(sim.metrics.peak(m) == 7, sinks.has(Sinks::GAUGE), "{name}");

        let hist = sim.metrics.histogram(name).map(|h| (h.count(), h.sum()));
        let want = sinks.has(Sinks::HISTOGRAM).then_some((1, 7));
        assert_eq!(hist, want, "{name}: histogram");

        let (at0, at1, at2) = (SimTime::ZERO, SimTime::from_us(1), SimTime::from_us(2));
        let want = if sinks.has(Sinks::LEVEL) {
            Some(vec![(at0, 7), (at1, 7), (at2, 7)])
        } else if sinks.has(Sinks::RATE) {
            Some(vec![(at0, 7), (at1, 0), (at2, 0)])
        } else {
            None
        };
        assert_eq!(sim.timeline.series(m), want, "{name}: timeline");
    }
}

#[test]
fn disabled_sinks_see_nothing() {
    let mut sim = Sim::new(0);
    for m in Metric::all() {
        sim.record(m, 7);
    }
    sim.timeline.finish(sim.now());
    assert!(sim.metrics.dump().is_empty());
    assert_eq!(sim.timeline.series_count(), 0);
}

#[test]
fn stage_records_carry_the_handle_layer() {
    let mut trace = Trace::enabled();
    for (i, &s) in STAGES.iter().enumerate() {
        trace.instant(SimTime::ZERO, s, i as u64);
    }
    assert_eq!(trace.events().len(), STAGES.len());
    for (e, s) in trace.events().iter().zip(STAGES) {
        assert_eq!((e.stage, e.layer), (s.name(), s.layer()));
    }
}
