//! Property-based tests of the DES engine's core invariants.

use clic_sim::stats::LatencyStats;
use clic_sim::{LogHistogram, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events always execute in nondecreasing time order, with FIFO order
    /// among equal timestamps, for arbitrary schedules.
    #[test]
    fn execution_order_sorted_stable(delays in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Sim::new(0);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ns(d), move |s| {
                log.borrow_mut().push((s.now().as_ns(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated among ties");
            }
        }
    }

    /// The clock never runs backwards even under nested scheduling.
    #[test]
    fn nested_scheduling_monotonic(seed in any::<u64>(), n in 1usize..50) {
        let mut sim = Sim::new(seed);
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        fn spawn(sim: &mut Sim, times: Rc<RefCell<Vec<u64>>>, left: usize) {
            if left == 0 {
                return;
            }
            let delay = sim.rng.gen_range_u64(0..500);
            sim.schedule_in(SimDuration::from_ns(delay), move |s| {
                times.borrow_mut().push(s.now().as_ns());
                spawn(s, times.clone(), left - 1);
            });
        }
        spawn(&mut sim, times.clone(), n);
        sim.run();
        let times = times.borrow();
        prop_assert_eq!(times.len(), n);
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(SimDuration::from_ns(s));
        }
        let p25 = stats.percentile(0.25).unwrap();
        let p50 = stats.percentile(0.5).unwrap();
        let p99 = stats.percentile(0.99).unwrap();
        prop_assert!(stats.min().unwrap() <= p25);
        prop_assert!(p25 <= p50);
        prop_assert!(p50 <= p99);
        prop_assert!(p99 <= stats.max().unwrap());
        let mean = stats.mean().unwrap();
        prop_assert!(stats.min().unwrap() <= mean && mean <= stats.max().unwrap());
    }

    /// Histogram conserves count and mean, and its quantiles stay within
    /// the observed min/max.
    #[test]
    fn histogram_conserves(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
        let expect = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-6);
        let (lo, hi) = (*values.iter().min().unwrap() as f64, *values.iter().max().unwrap() as f64);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= lo && v <= hi, "q{} = {} outside [{}, {}]", q, v, lo, hi);
        }
    }

    /// `LogHistogram::quantile` against an exact sorted-sample reference:
    /// the extreme quantiles are exactly the true min/max, and every
    /// interior estimate lands in the same log2 bucket as the
    /// nearest-rank sample of the sorted data (the tightest guarantee a
    /// log-bucketed sketch can make), bounded by `[min, max]`.
    #[test]
    fn quantile_tracks_sorted_reference(values in proptest::collection::vec(0u64..1_000_000, 1..120)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        prop_assert_eq!(h.quantile(0.0), Some(min as f64));
        prop_assert_eq!(h.quantile(1.0), Some(max as f64));
        let mut prev = f64::MIN;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let exact = nearest_rank(&sorted, q);
            let est = h.quantile(q).unwrap();
            prop_assert!(est >= min as f64 && est <= max as f64);
            let (lo, hi) = bucket_range(exact);
            prop_assert!(
                est >= lo as f64 && est < hi as f64 || est == exact as f64,
                "q{}: est {} outside bucket [{}, {}) of exact {}", q, est, lo, hi, exact
            );
            prop_assert!(est >= prev, "quantile not monotone in q at q{}", q);
            prev = est;
        }
    }

    /// Degenerate shapes are exact: a single sample answers every
    /// quantile with itself, and an all-one-bucket histogram stays inside
    /// that bucket.
    #[test]
    fn quantile_single_sample_and_one_bucket(v in 0u64..1_000_000, fill in proptest::collection::vec(0u64..8, 2..60)) {
        let mut h = LogHistogram::new();
        h.record(v);
        for q in [0.0, 0.3, 0.5, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), Some(v as f64));
        }
        // All samples land in bucket [8, 16).
        let samples: Vec<u64> = fill.iter().map(|x| 8 + x).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let (min, max) = (
            *samples.iter().min().unwrap(),
            *samples.iter().max().unwrap(),
        );
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let est = h.quantile(q).unwrap();
            prop_assert!(est >= min as f64 && est <= max as f64, "q{}: {}", q, est);
        }
        prop_assert_eq!(h.quantile(0.0), Some(min as f64));
        prop_assert_eq!(h.quantile(1.0), Some(max as f64));
    }

    /// Quantiles of a merged histogram agree with a histogram built from
    /// the concatenated samples — merge loses nothing the sketch had.
    #[test]
    fn quantile_survives_merge(
        a in proptest::collection::vec(0u64..1_000_000, 1..80),
        b in proptest::collection::vec(0u64..1_000_000, 1..80),
    ) {
        let mut ha = LogHistogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = LogHistogram::new();
        for &v in &b {
            hb.record(v);
        }
        ha.merge(&hb);
        let mut all = LogHistogram::new();
        for &v in a.iter().chain(&b) {
            all.record(v);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ha.quantile(q), all.quantile(q), "q = {}", q);
        }
        let mut sorted: Vec<u64> = a.iter().chain(&b).copied().collect();
        sorted.sort_unstable();
        prop_assert_eq!(ha.quantile(1.0), Some(sorted[sorted.len() - 1] as f64));
    }

    /// for_bytes never returns zero for nonzero payloads and scales
    /// monotonically.
    #[test]
    fn wire_time_monotone(a in 1u64..1_000_000, b in 1u64..1_000_000, bps in 1_000u64..10_000_000_000) {
        let ta = SimDuration::for_bytes(a, bps);
        let tb = SimDuration::for_bytes(b, bps);
        prop_assert!(ta.as_ns() > 0);
        if a <= b {
            prop_assert!(ta <= tb);
        } else {
            prop_assert!(ta >= tb);
        }
    }
}

/// Nearest-rank quantile over sorted samples — the exact reference
/// `LogHistogram::quantile` approximates (same rank rule: `ceil(q*n)`
/// clamped to `[1, n]`).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// `[inclusive lower, exclusive upper)` of the log2 bucket holding `v`,
/// mirroring the histogram's bucketing (bucket 0 holds only the value 0).
fn bucket_range(v: u64) -> (u64, u64) {
    if v == 0 {
        (0, 1)
    } else {
        let i = 64 - v.leading_zeros() as usize;
        (1u64 << (i - 1), 1u64 << i)
    }
}

mod schedule_model {
    use clic_sim::engine::StopReason;
    use clic_sim::{Sim, SimDuration, SimTime};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Past 2.1 ms: far enough that an event lands well beyond the
    /// near-term window of any bucketed scheduler.
    const FAR_NS: u64 = 2_100_000;

    /// Every event scheduled so far, as `(time, id)` with ids in schedule
    /// order, and the `(time, id)` of every event executed, in order.
    #[derive(Default)]
    struct Log {
        scheduled: Vec<(u64, usize)>,
        executed: Vec<(u64, usize)>,
    }

    /// Schedule one event at `at`. When it runs it logs itself and, while
    /// `depth` lasts, schedules `children` follow-ups: even-numbered ones
    /// at zero delay, odd-numbered ones `delay` later.
    fn schedule(
        sim: &mut Sim,
        log: &Rc<RefCell<Log>>,
        at: SimTime,
        depth: u8,
        children: u8,
        delay: u64,
    ) {
        let id = {
            let mut l = log.borrow_mut();
            let id = l.scheduled.len();
            l.scheduled.push((at.as_ns(), id));
            id
        };
        let log = log.clone();
        sim.schedule_at(at, move |s| {
            log.borrow_mut().executed.push((s.now().as_ns(), id));
            if depth > 0 {
                for i in 0..children {
                    let d = if i % 2 == 0 { 0 } else { delay };
                    let at = s.now() + SimDuration::from_ns(d);
                    schedule(s, &log, at, depth - 1, children, delay);
                }
            }
        });
    }

    proptest! {
        /// For arbitrary schedules the engine executes events in exactly
        /// the order of a stable sort by `(time, schedule order)`. The ops
        /// cover same-instant ties, handlers that schedule zero-delay and
        /// short follow-ups, far-future events, and `run_until` horizon
        /// stops followed by new `schedule_at`s before the run resumes.
        #[test]
        fn execution_matches_stable_sort(
            ops in proptest::collection::vec((0u8..6, 0u64..2048, 0u8..4, 0u64..4096), 1..120)
        ) {
            let mut sim = Sim::new(0);
            let log = Rc::new(RefCell::new(Log::default()));
            for &(kind, off, children, delay) in &ops {
                let now = sim.now();
                match kind {
                    // A tie with the current instant.
                    0 => schedule(&mut sim, &log, now, 2, children, delay),
                    // A near event whose handler spawns short follow-ups.
                    1 | 2 => {
                        let at = now + SimDuration::from_ns(off);
                        schedule(&mut sim, &log, at, 2, children, delay % 64);
                    }
                    // A far-future event that spawns far-future follow-ups.
                    3 => {
                        let at = now + SimDuration::from_ns(FAR_NS + off * 31);
                        schedule(&mut sim, &log, at, 1, children, FAR_NS + delay);
                    }
                    // Stop at a horizon; later ops schedule into the gap
                    // between the stop and the events still pending.
                    4 => {
                        let horizon = now + SimDuration::from_ns(off * 97);
                        let stop = sim.run_until(horizon);
                        prop_assert!(stop != StopReason::EventLimit);
                        if stop == StopReason::Horizon {
                            prop_assert_eq!(sim.now(), horizon);
                        }
                    }
                    _ => {
                        sim.step();
                    }
                }
            }
            prop_assert_eq!(sim.run(), StopReason::Drained);
            let log = log.borrow();
            let mut expect = log.scheduled.clone();
            expect.sort_by_key(|&(t, _)| t);
            prop_assert_eq!(&log.executed, &expect);
            prop_assert_eq!(sim.events_executed(), expect.len() as u64);
            prop_assert_eq!(sim.events_pending(), 0);
        }
    }
}
