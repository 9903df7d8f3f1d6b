//! Host-speed calibration. The shared host's speed drifts by tens of
//! percent over seconds to minutes, and CPU time drifts with it, so a
//! host time alone says as much about the neighbours as about the
//! program. A fixed reference kernel, which no change to the program
//! touches, is timed between the measured segments; each segment is
//! scaled by how much slower or faster the kernel ran around it than on
//! the machine the benchmark was tuned on. The scaled times keep the
//! program's own speed and lose most of the host's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::ptr::NonNull;
use std::time::Instant;

/// The kernel's median sample seconds on the machine the benchmark was
/// tuned on (2 vCPUs of an Intel Xeon VM): the speed that scaled times
/// are reported at.
pub const REFERENCE_SAMPLE_S: f64 = 0.0045;
/// Measured seconds between two kernel samples.
const SAMPLE_EVERY_S: f64 = 0.04;
/// Segments a [`Clock`] holds without reallocating.
const SEGMENTS: usize = 1 << 15;

const EVENTS: u32 = 15_000;
const NODES: usize = 64;
const SLOTS: usize = 8;
const SLOT: usize = 1536;
const TABLE: usize = 1 << 16;
const KEYS: u64 = 4096;
const IN_FLIGHT: usize = 256;
const QUEUE: usize = 2048;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A payload copy allocated from [`System`] directly, so the kernel uses
/// the same allocator as the program while staying out of the counting
/// allocator's totals.
struct Packet {
    ptr: NonNull<u8>,
    layout: Layout,
}

impl Packet {
    fn copy_of(src: &[u8]) -> Packet {
        let layout = Layout::for_value(src);
        assert!(layout.size() > 0, "packets are never empty");
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { System.alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        // SAFETY: `ptr` is a fresh allocation of `src.len()` bytes, so it
        // is valid for the write and cannot overlap `src`.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.as_ptr(), src.len()) };
        Packet { ptr, layout }
    }

    fn first(&self) -> u8 {
        // SAFETY: the allocation holds at least one initialised byte.
        unsafe { *self.ptr.as_ptr() }
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `System.alloc` with `layout`.
        unsafe { System.dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

/// A fixed event loop shaped like the simulator's hot path: a timer
/// heap, frame copies between node buffers, heap-allocated packets in
/// flight, scattered counter updates and a flow-table lookup. After
/// [`Kernel::new`] it makes no allocation the counting allocator sees.
struct Kernel {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    bufs: Vec<u8>,
    table: Vec<u64>,
    flows: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    in_flight: VecDeque<Packet>,
    rng: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            queue: BinaryHeap::with_capacity(QUEUE + NODES + 2),
            bufs: vec![0; NODES * SLOTS * SLOT],
            table: vec![0; TABLE],
            flows: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            in_flight: VecDeque::with_capacity(IN_FLIGHT + 1),
            rng: GOLDEN,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One sample: the same `EVENTS` events every time.
    fn run(&mut self) -> u64 {
        self.queue.clear();
        self.flows.clear();
        self.in_flight.clear();
        self.rng = GOLDEN;
        for n in 0..NODES as u32 {
            let t = self.next() % 1000;
            self.queue.push(Reverse((t, n)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, n)) = self.queue.pop().expect("every event schedules another");
            let r = self.next();
            // Copy a frame into another node's slot and keep a copy in flight.
            let src = (n as usize * SLOTS + r as usize % SLOTS) * SLOT;
            let dst = ((r >> 8) as usize % NODES * SLOTS + (r >> 16) as usize % SLOTS) * SLOT;
            let len = 64 + (r >> 24) as usize % (SLOT - 64);
            if src != dst {
                self.bufs.copy_within(src..src + len, dst);
            }
            self.bufs[dst] = self.bufs[dst].wrapping_add(t as u8);
            self.in_flight
                .push_back(Packet::copy_of(&self.bufs[dst..dst + len]));
            if self.in_flight.len() > IN_FLIGHT {
                let done = self.in_flight.pop_front().expect("in flight is full");
                acc ^= u64::from(done.first());
            }
            // Counters scattered over a table larger than the L2 cache.
            let mut h = (t ^ u64::from(n)).wrapping_mul(GOLDEN);
            for _ in 0..4 {
                let i = (h >> 48) as usize % TABLE;
                self.table[i] = self.table[i].wrapping_add(h);
                acc ^= self.table[i];
                h = h.rotate_left(17).wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            let key = r % KEYS;
            *self.flows.entry(key).or_insert(0) += 1;
            if r & 3 == 0 {
                self.flows.remove(&(key ^ 1));
            }
            // Schedule the node's next event, and now and then another's.
            if r & 7 == 0 && self.queue.len() < QUEUE {
                let other = (r >> 32) as u32 % NODES as u32;
                self.queue.push(Reverse((t + 1 + r % 50, other)));
            }
            self.queue.push(Reverse((t + 1 + (r >> 40) % 500, n)));
            if self.queue.len() > QUEUE / 2 {
                self.queue.pop();
            }
        }
        acc
    }
}

/// One measured segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Host seconds.
    pub wall_s: f64,
    /// The same scaled to the reference speed.
    pub scaled_s: f64,
}

/// Times segments of work and scales each by the reference kernel's
/// speed in the samples before and after it. Up to `SEGMENTS` segments
/// between two [`Clock::take`] calls, and every sample, take no
/// allocation the counting allocator sees, so measured windows may
/// contain them.
pub struct Clock {
    kernel: Kernel,
    last_sample_s: f64,
    segments: Vec<Segment>,
    /// Segments before this index are scaled.
    settled: usize,
    pending_s: f64,
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

impl Clock {
    /// A clock with a warmed kernel and a first sample taken.
    pub fn new() -> Clock {
        let mut clock = Clock {
            kernel: Kernel::new(),
            last_sample_s: 0.0,
            segments: Vec::with_capacity(SEGMENTS),
            settled: 0,
            pending_s: 0.0,
        };
        black_box(clock.kernel.run());
        clock.last_sample_s = clock.sample();
        clock
    }

    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel.run());
        t0.elapsed().as_secs_f64()
    }

    /// Run `f` as one segment.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        self.segments.push(Segment {
            wall_s,
            scaled_s: f64::NAN,
        });
        self.pending_s += wall_s;
        if self.pending_s >= SAMPLE_EVERY_S {
            self.settle();
        }
        out
    }

    /// Sample the kernel and scale the segments since the last sample by
    /// the mean of the two samples around them.
    fn settle(&mut self) {
        let now = self.sample();
        let speed = REFERENCE_SAMPLE_S / ((self.last_sample_s + now) / 2.0);
        for s in &mut self.segments[self.settled..] {
            s.scaled_s = s.wall_s * speed;
        }
        self.settled = self.segments.len();
        self.pending_s = 0.0;
        self.last_sample_s = now;
    }

    /// Every segment since the last call, scaled. Allocates, so call it
    /// outside measured windows.
    pub fn take(&mut self) -> Vec<Segment> {
        if self.settled < self.segments.len() {
            self.settle();
        }
        self.settled = 0;
        self.segments.drain(..).collect()
    }
}

/// Sums of the segments' host and scaled seconds.
pub fn totals(segments: &[Segment]) -> Segment {
    segments.iter().fold(
        Segment {
            wall_s: 0.0,
            scaled_s: 0.0,
        },
        |a, s| Segment {
            wall_s: a.wall_s + s.wall_s,
            scaled_s: a.scaled_s + s.scaled_s,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Snapshot;

    // One test: the allocation counters are process-wide, so a second
    // test running alongside would show in them.
    #[test]
    fn kernel_repeats_unseen_and_segments_scale_in_order() {
        let mut clock = Clock::new();
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        let before = Snapshot::now();
        assert_eq!(a.run(), b.run());
        for i in 0..3u64 {
            assert_eq!(clock.time(|| i), i);
        }
        assert_eq!(Snapshot::now().since(before).allocs, 0);
        let segments = clock.take();
        assert_eq!(segments.len(), 3);
        for s in &segments {
            assert!(s.scaled_s.is_finite() && s.scaled_s >= 0.0);
        }
        assert!(clock.take().is_empty());
    }
}
