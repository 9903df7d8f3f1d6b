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
    /// at zero delay, odd-numbered ones `delay` later. Bit `id % 64` of
    /// `boxed` picks the entry point, so `schedule_at` and
    /// `schedule_boxed_at` calls interleave.
    fn schedule(
        sim: &mut Sim,
        log: &Rc<RefCell<Log>>,
        at: SimTime,
        depth: u8,
        children: u8,
        delay: u64,
        boxed: u64,
    ) {
        let id = {
            let mut l = log.borrow_mut();
            let id = l.scheduled.len();
            l.scheduled.push((at.as_ns(), id));
            id
        };
        let log = log.clone();
        let action = move |s: &mut Sim| {
            log.borrow_mut().executed.push((s.now().as_ns(), id));
            if depth > 0 {
                for i in 0..children {
                    let d = if i % 2 == 0 { 0 } else { delay };
                    let at = s.now() + SimDuration::from_ns(d);
                    schedule(s, &log, at, depth - 1, children, delay, boxed);
                }
            }
        };
        if (boxed >> (id % 64)) & 1 == 1 {
            sim.schedule_boxed_at(at, Box::new(action));
        } else {
            sim.schedule_at(at, action);
        }
    }

    proptest! {
        /// For arbitrary schedules the engine executes events in exactly
        /// the order of a stable sort by `(time, schedule order)`. The ops
        /// cover same-instant ties, handlers that schedule zero-delay and
        /// short follow-ups, far-future events, and `run_until` horizon
        /// stops followed by new `schedule_at`s before the run resumes.
        /// Events enter through `schedule_at` and `schedule_boxed_at` in an
        /// arbitrary interleaving, and both keep the one order.
        #[test]
        fn execution_matches_stable_sort(
            ops in proptest::collection::vec((0u8..6, 0u64..2048, 0u8..4, 0u64..4096), 1..120),
            boxed in any::<u64>()
        ) {
            let mut sim = Sim::new(0);
            let log = Rc::new(RefCell::new(Log::default()));
            for &(kind, off, children, delay) in &ops {
                let now = sim.now();
                match kind {
                    // A tie with the current instant.
                    0 => schedule(&mut sim, &log, now, 2, children, delay, boxed),
                    // A near event whose handler spawns short follow-ups.
                    1 | 2 => {
                        let at = now + SimDuration::from_ns(off);
                        schedule(&mut sim, &log, at, 2, children, delay % 64, boxed);
                    }
                    // A far-future event that spawns far-future follow-ups.
                    3 => {
                        let at = now + SimDuration::from_ns(FAR_NS + off * 31);
                        schedule(&mut sim, &log, at, 1, children, FAR_NS + delay, boxed);
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

mod resource_model {
    use clic_sim::{Cpu, CpuClass, SerialResource, Sim, SimDuration, SimTime};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// One generated work item.
    #[derive(Clone, Copy, Debug)]
    struct Item {
        irq: bool,
        dur_ns: u64,
        /// `None`: submitted at top level at `at_ns`. `Some(p)`: submitted
        /// by item `p`'s completion (always an earlier item).
        parent: Option<usize>,
        at_ns: u64,
    }

    /// Decode generated `(class, duration, parent, time)` tuples. A third
    /// of the items are IRQ work, a fifth take zero time, half are
    /// submitted from inside an earlier item's completion, and top-level
    /// times sit on a coarse grid so that arrivals tie with each other and
    /// with completions.
    fn decode(raw: &[(u8, u64, usize, u64)]) -> Vec<Item> {
        raw.iter()
            .enumerate()
            .map(|(k, &(class, dur, back, at))| Item {
                irq: class == 0,
                dur_ns: if dur < 8 { 0 } else { dur },
                parent: (back > 2 && back - 2 <= k).then(|| k - (back - 2)),
                at_ns: at * 5,
            })
            .collect()
    }

    fn children(items: &[Item], p: usize) -> impl Iterator<Item = usize> + '_ {
        (0..items.len()).filter(move |&k| items[k].parent == Some(p))
    }

    /// What a resource did, or what the reference model says it must do.
    #[derive(Debug, Default, PartialEq)]
    struct Outcome {
        /// `(item, completion time)` in completion order.
        completions: Vec<(usize, u64)>,
        busy_irq_ns: u64,
        busy_task_ns: u64,
        max_queue: usize,
    }

    /// The reference model's wait queues.
    struct Queues<'a> {
        items: &'a [Item],
        classes: bool,
        irq: VecDeque<usize>,
        task: VecDeque<usize>,
    }

    impl Queues<'_> {
        /// Queue item `k`; returns the combined depth.
        fn push(&mut self, k: usize) -> usize {
            if self.classes && self.items[k].irq {
                self.irq.push_back(k);
            } else {
                self.task.push_back(k);
            }
            self.irq.len() + self.task.len()
        }

        /// Start the next item at `now`: `(item, completion time)`.
        fn start(&mut self, now: u64) -> Option<(usize, u64)> {
            let k = self.irq.pop_front().or_else(|| self.task.pop_front())?;
            Some((k, now + self.items[k].dur_ns))
        }
    }

    /// The plain reference: one server, never preempted, the IRQ queue
    /// served before the task queue (with `classes`; otherwise one FIFO),
    /// FIFO within a queue. Every top-level submission is scheduled before
    /// the run starts, so at one instant the top-level arrivals come
    /// before a completion. A completion submits its children first, then
    /// the server starts its next item.
    fn model(items: &[Item], classes: bool) -> Outcome {
        let mut arrivals: Vec<usize> = (0..items.len())
            .filter(|&k| items[k].parent.is_none())
            .collect();
        arrivals.sort_by_key(|&k| items[k].at_ns);
        let mut q = Queues {
            items,
            classes,
            irq: VecDeque::new(),
            task: VecDeque::new(),
        };
        let mut out = Outcome::default();
        let mut running: Option<(usize, u64)> = None;
        let mut next = 0;
        loop {
            let arrival = arrivals.get(next).map(|&k| (k, items[k].at_ns));
            match (running, arrival) {
                (Some((k, end)), _) if arrival.is_none_or(|(_, at)| end < at) => {
                    out.completions.push((k, end));
                    if classes && items[k].irq {
                        out.busy_irq_ns += items[k].dur_ns;
                    } else {
                        out.busy_task_ns += items[k].dur_ns;
                    }
                    for c in children(items, k) {
                        out.max_queue = out.max_queue.max(q.push(c));
                    }
                    running = q.start(end);
                }
                (_, Some((k, at))) => {
                    next += 1;
                    out.max_queue = out.max_queue.max(q.push(k));
                    if running.is_none() {
                        running = q.start(at);
                    }
                }
                _ => return out,
            }
        }
    }

    #[derive(Clone)]
    enum Target {
        Cpu(Rc<RefCell<Cpu>>),
        Bus(Rc<RefCell<SerialResource>>),
    }

    #[derive(Clone)]
    struct Run {
        target: Target,
        items: Rc<Vec<Item>>,
        log: Rc<RefCell<Vec<(usize, u64)>>>,
    }

    /// Submit item `k`; its completion logs it and submits its children.
    fn submit(run: &Run, sim: &mut Sim, k: usize) {
        let item = run.items[k];
        let r = run.clone();
        let done = move |s: &mut Sim| {
            r.log.borrow_mut().push((k, s.now().as_ns()));
            for c in children(&r.items, k) {
                submit(&r, s, c);
            }
        };
        let duration = SimDuration::from_ns(item.dur_ns);
        match &run.target {
            Target::Cpu(cpu) => {
                let class = if item.irq {
                    CpuClass::Irq
                } else {
                    CpuClass::Task
                };
                Cpu::run(cpu, sim, class, duration, done);
            }
            Target::Bus(bus) => SerialResource::acquire(bus, sim, duration, done),
        }
    }

    /// Run every item on `target` and report what it did.
    fn simulate(items: Vec<Item>, target: Target) -> Outcome {
        let mut sim = Sim::new(0);
        let run = Run {
            target: target.clone(),
            items: Rc::new(items),
            log: Rc::new(RefCell::new(Vec::new())),
        };
        for k in 0..run.items.len() {
            if run.items[k].parent.is_none() {
                let r = run.clone();
                sim.schedule_at(SimTime::from_ns(run.items[k].at_ns), move |s| {
                    submit(&r, s, k)
                });
            }
        }
        sim.run();
        let completions = run.log.borrow().clone();
        match target {
            Target::Cpu(cpu) => {
                let c = cpu.borrow();
                assert_eq!(c.items_run(), run.items.len() as u64);
                Outcome {
                    completions,
                    busy_irq_ns: c.busy_time(CpuClass::Irq).as_ns(),
                    busy_task_ns: c.busy_time(CpuClass::Task).as_ns(),
                    max_queue: c.max_queue_depth(),
                }
            }
            Target::Bus(bus) => {
                let b = bus.borrow();
                assert_eq!(b.items(), run.items.len() as u64);
                Outcome {
                    completions,
                    busy_irq_ns: 0,
                    busy_task_ns: b.busy_time().as_ns(),
                    max_queue: b.max_queue_depth(),
                }
            }
        }
    }

    proptest! {
        /// A `Cpu` completes every item at the time and in the order of
        /// the reference model, with the model's busy time per class,
        /// item count and queue high-water mark, for work submitted at
        /// top level and from inside completions, zero-duration work
        /// included.
        #[test]
        fn cpu_matches_reference_model(
            raw in proptest::collection::vec((0u8..3, 0u64..40, 0usize..6, 0u64..60), 1..80)
        ) {
            let items = decode(&raw);
            let expect = model(&items, true);
            prop_assert_eq!(simulate(items, Target::Cpu(Cpu::new())), expect);
        }

        /// The same for a `SerialResource`: one FIFO queue, classes ignored.
        #[test]
        fn serial_resource_matches_reference_model(
            raw in proptest::collection::vec((0u8..3, 0u64..40, 0usize..6, 0u64..60), 1..80)
        ) {
            let items = decode(&raw);
            let expect = model(&items, false);
            prop_assert_eq!(simulate(items, Target::Bus(SerialResource::new("bus"))), expect);
        }
    }
}
