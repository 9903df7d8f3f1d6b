//! Contended serial resources.
//!
//! Two flavours are enough for the whole model:
//!
//! * [`Cpu`] — the host processor. Work items carry a priority class:
//!   interrupt work ([`CpuClass::Irq`]) always jumps ahead of task work
//!   ([`CpuClass::Task`]), but an in-flight item is never preempted. This is
//!   the "IRQs beat everything, at µs granularity" approximation documented
//!   in DESIGN.md §5.
//! * [`SerialResource`] — a plain FIFO pipe with one transaction in flight
//!   (the PCI bus, the memory bus). The caller computes the service time of
//!   each transaction.
//!
//! Both keep busy-time accounting so experiments can report CPU utilisation,
//! which the paper repeatedly leans on ("90 % of peak at 15–20 % CPU on Fast
//! Ethernet would need ~100 % on GbE").
//!
//! # One allocation per work item
//!
//! A work item's whole completion (busy accounting, the caller's `done`,
//! then starting the next queued item) is boxed once, when the work is
//! submitted. The queue holds that box, and when the item reaches the
//! head of the line the same box becomes the engine event through
//! [`Sim::schedule_boxed_at`]. The completion is scheduled at the same
//! instant and from the same call point as a freshly boxed event would
//! be, so `(time, seq)` and every result are unchanged.
//!
//! The completion holds a strong reference to its resource, so an item
//! still queued when a run is abandoned keeps the resource alive (as a
//! queued `done` that captures its owner already does). A run that drains
//! its event queue leaves no queued work behind.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{Action, Sim};
use crate::time::SimDuration;

/// Priority class of CPU work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClass {
    /// Hardware interrupt / driver top half: jumps the queue.
    Irq,
    /// Everything else: syscalls, protocol processing, bottom halves, copies.
    Task,
}

/// A queued work item: its service time and its boxed completion.
struct Work {
    duration: SimDuration,
    completion: Action,
}

/// A single processor serving two FIFO queues (IRQ before task),
/// non-preemptive within a work item.
pub struct Cpu {
    busy: bool,
    irq_q: VecDeque<Work>,
    task_q: VecDeque<Work>,
    busy_irq: SimDuration,
    busy_task: SimDuration,
    items_run: u64,
    max_queue: usize,
}

impl Cpu {
    /// Create an idle CPU.
    pub fn new() -> Rc<RefCell<Cpu>> {
        Rc::new(RefCell::new(Cpu {
            busy: false,
            irq_q: VecDeque::new(),
            task_q: VecDeque::new(),
            busy_irq: SimDuration::ZERO,
            busy_task: SimDuration::ZERO,
            items_run: 0,
            max_queue: 0,
        }))
    }

    /// Submit `duration` worth of work; `done` runs when the CPU has spent
    /// that time on it. Zero-duration work is legal and completes after any
    /// work already in front of it.
    pub fn run(
        cpu: &Rc<RefCell<Cpu>>,
        sim: &mut Sim,
        class: CpuClass,
        duration: SimDuration,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cpu2 = cpu.clone();
        let completion: Action = Box::new(move |sim: &mut Sim| {
            {
                let mut c = cpu2.borrow_mut();
                match class {
                    CpuClass::Irq => c.busy_irq += duration,
                    CpuClass::Task => c.busy_task += duration,
                }
                c.items_run += 1;
            }
            // The completion may submit more work; the CPU still reads as
            // busy so it lands on the queue rather than double-starting.
            done(sim);
            cpu2.borrow_mut().busy = false;
            Self::start_next(&cpu2, sim);
        });
        {
            let mut c = cpu.borrow_mut();
            let work = Work {
                duration,
                completion,
            };
            match class {
                CpuClass::Irq => c.irq_q.push_back(work),
                CpuClass::Task => c.task_q.push_back(work),
            }
            let depth = c.irq_q.len() + c.task_q.len();
            c.max_queue = c.max_queue.max(depth);
            if c.busy {
                return;
            }
        }
        Self::start_next(cpu, sim);
    }

    fn start_next(cpu: &Rc<RefCell<Cpu>>, sim: &mut Sim) {
        let work = {
            let mut c = cpu.borrow_mut();
            debug_assert!(!c.busy, "start_next on a busy CPU");
            let Some(work) = c.irq_q.pop_front().or_else(|| c.task_q.pop_front()) else {
                return;
            };
            c.busy = true;
            work
        };
        sim.schedule_boxed_at(sim.now() + work.duration, work.completion);
    }

    /// Accumulated busy time for a class.
    pub fn busy_time(&self, class: CpuClass) -> SimDuration {
        match class {
            CpuClass::Irq => self.busy_irq,
            CpuClass::Task => self.busy_task,
        }
    }

    /// Total accumulated busy time.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_irq + self.busy_task
    }

    /// Busy fraction over an observation window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_total().as_secs_f64() / window.as_secs_f64()
    }

    /// Number of completed work items.
    pub fn items_run(&self) -> u64 {
        self.items_run
    }

    /// High-water mark of the combined queues.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue
    }
}

/// A FIFO resource with a single transaction in flight (a bus).
pub struct SerialResource {
    name: &'static str,
    busy: bool,
    queue: VecDeque<Work>,
    busy_time: SimDuration,
    items: u64,
    max_queue: usize,
}

impl SerialResource {
    /// Create an idle resource; `name` appears in panics and debug output.
    pub fn new(name: &'static str) -> Rc<RefCell<SerialResource>> {
        Rc::new(RefCell::new(SerialResource {
            name,
            busy: false,
            queue: VecDeque::new(),
            busy_time: SimDuration::ZERO,
            items: 0,
            max_queue: 0,
        }))
    }

    /// Occupy the resource for `duration`, running `done` on completion.
    pub fn acquire(
        res: &Rc<RefCell<SerialResource>>,
        sim: &mut Sim,
        duration: SimDuration,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        let res2 = res.clone();
        let completion: Action = Box::new(move |sim: &mut Sim| {
            {
                let mut r = res2.borrow_mut();
                r.busy_time += duration;
                r.items += 1;
            }
            done(sim);
            res2.borrow_mut().busy = false;
            Self::start_next(&res2, sim);
        });
        {
            let mut r = res.borrow_mut();
            r.queue.push_back(Work {
                duration,
                completion,
            });
            r.max_queue = r.max_queue.max(r.queue.len());
            if r.busy {
                return;
            }
        }
        Self::start_next(res, sim);
    }

    fn start_next(res: &Rc<RefCell<SerialResource>>, sim: &mut Sim) {
        let work = {
            let mut r = res.borrow_mut();
            debug_assert!(!r.busy, "start_next on busy resource {}", r.name);
            let Some(work) = r.queue.pop_front() else {
                return;
            };
            r.busy = true;
            work
        };
        sim.schedule_boxed_at(sim.now() + work.duration, work.completion);
    }

    /// Accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Busy fraction over an observation window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / window.as_secs_f64()
    }

    /// Completed transactions.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// High-water mark of the wait queue.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn cpu_serializes_work() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = log.clone();
            Cpu::run(
                &cpu,
                &mut sim,
                CpuClass::Task,
                SimDuration::from_us(10),
                move |s| log.borrow_mut().push((i, s.now())),
            );
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, SimTime::from_us(10)),
                (1, SimTime::from_us(20)),
                (2, SimTime::from_us(30)),
            ]
        );
        assert_eq!(
            cpu.borrow().busy_time(CpuClass::Task),
            SimDuration::from_us(30)
        );
        assert_eq!(cpu.borrow().items_run(), 3);
    }

    #[test]
    fn irq_jumps_task_queue() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        // One long task starts immediately; a second task and then an IRQ
        // queue behind it. The IRQ must run before the queued task.
        for (name, class) in [("t1", CpuClass::Task), ("t2", CpuClass::Task)] {
            let log = log.clone();
            Cpu::run(&cpu, &mut sim, class, SimDuration::from_us(10), move |_| {
                log.borrow_mut().push(name)
            });
        }
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Irq,
            SimDuration::from_us(1),
            move |_| l.borrow_mut().push("irq"),
        );
        sim.run();
        assert_eq!(*log.borrow(), vec!["t1", "irq", "t2"]);
    }

    #[test]
    fn in_flight_item_not_preempted() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(50),
            move |s| l.borrow_mut().push(("task", s.now())),
        );
        // IRQ arrives mid-task; it completes only after the task finishes.
        let cpu2 = cpu.clone();
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(5), move |s| {
            Cpu::run(&cpu2, s, CpuClass::Irq, SimDuration::from_us(1), move |s| {
                l.borrow_mut().push(("irq", s.now()))
            });
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                ("task", SimTime::from_us(50)),
                ("irq", SimTime::from_us(51)),
            ]
        );
    }

    #[test]
    fn completion_resubmitting_does_not_double_start() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let cpu2 = cpu.clone();
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(5),
            move |s| {
                l.borrow_mut().push(("a", s.now()));
                let l2 = l.clone();
                Cpu::run(
                    &cpu2,
                    s,
                    CpuClass::Task,
                    SimDuration::from_us(5),
                    move |s| {
                        l2.borrow_mut().push(("b", s.now()));
                    },
                );
            },
        );
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("a", SimTime::from_us(5)), ("b", SimTime::from_us(10))]
        );
    }

    #[test]
    fn zero_duration_work_completes() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::ZERO,
            move |_| *d.borrow_mut() = true,
        );
        sim.run();
        assert!(*done.borrow());
    }

    #[test]
    fn cpu_utilization_accounting() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(25),
            |_| {},
        );
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Irq,
            SimDuration::from_us(25),
            |_| {},
        );
        sim.run();
        let c = cpu.borrow();
        assert_eq!(c.busy_total(), SimDuration::from_us(50));
        let u = c.utilization(SimDuration::from_us(100));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
        assert_eq!(c.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn serial_resource_fifo() {
        let mut sim = Sim::new(0);
        let bus = SerialResource::new("pci");
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let log = log.clone();
            SerialResource::acquire(&bus, &mut sim, SimDuration::from_us(3), move |s| {
                log.borrow_mut().push((i, s.now()))
            });
        }
        sim.run();
        let got = log.borrow().clone();
        assert_eq!(got.len(), 4);
        for (i, (id, t)) in got.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*t, SimTime::from_us(3 * (i as u64 + 1)));
        }
        assert_eq!(bus.borrow().items(), 4);
        assert_eq!(bus.borrow().busy_time(), SimDuration::from_us(12));
        assert!(bus.borrow().max_queue_depth() >= 3);
    }

    #[test]
    fn serial_resource_interleaved_arrivals() {
        let mut sim = Sim::new(0);
        let bus = SerialResource::new("mem");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        SerialResource::acquire(&bus, &mut sim, SimDuration::from_us(10), move |s| {
            l.borrow_mut().push(("a", s.now()))
        });
        // Arrives at t=4 while "a" is in service; serviced at 10..12.
        let bus2 = bus.clone();
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(4), move |s| {
            SerialResource::acquire(&bus2, s, SimDuration::from_us(2), move |s| {
                l.borrow_mut().push(("b", s.now()))
            });
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("a", SimTime::from_us(10)), ("b", SimTime::from_us(12))]
        );
    }
}
