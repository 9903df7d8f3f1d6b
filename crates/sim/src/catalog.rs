//! The catalog: one typed handle per observability name.
//!
//! Every metric the workspace records is a [`Metric`] constant declared
//! here with its name, help text and [`Sinks`]; every trace stage is a
//! [`Stage`] constant carrying its name and emitting [`Layer`]. Model
//! crates import the handles and record through
//! [`Sim::record`](crate::Sim::record) and
//! [`Trace::begin`](crate::trace::Trace::begin) and friends, so a name
//! that is not declared here does not compile. Nothing re-checks names at
//! run time.
//!
//! Handles are declared in name order, so slot order is name order and
//! [`Metrics::dump`](crate::metrics::Metrics::dump), the timeline CSV and
//! its counter tracks list series alphabetically without sorting.
//!
//! Per-node snapshot series are rendered with an `n<idx>.` prefix (for
//! example `n0.clic.retransmits`); [`strip_node_prefix`] undoes it.

use crate::trace::Layer;

/// The sinks one [`Sim::record`](crate::Sim::record) call feeds: the
/// registry's counter or gauge and its histogram, plus at most one
/// timeline series (a level or a rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sinks(u8);

impl Sinks {
    /// Registry counter: values add up.
    pub const COUNTER: Sinks = Sinks(1);
    /// Registry gauge: the last value, with its peak.
    pub const GAUGE: Sinks = Sinks(1 << 1);
    /// Registry log-bucketed histogram of the values.
    pub const HISTOGRAM: Sinks = Sinks(1 << 2);
    /// Timeline level: each bucket holds the last value written in it.
    pub const LEVEL: Sinks = Sinks(1 << 3);
    /// Timeline rate: each bucket holds the sum of values written in it.
    pub const RATE: Sinks = Sinks(1 << 4);

    /// Whether this set includes `sink`.
    #[inline]
    pub const fn has(self, sink: Sinks) -> bool {
        self.0 & sink.0 != 0
    }
}

/// A catalogued metric: an index into [`METRICS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Metric(u16);

impl Metric {
    /// Position in [`METRICS`]; ascending slot order is ascending name
    /// order.
    #[inline]
    pub const fn slot(self) -> usize {
        self.0 as usize
    }

    /// Dotted name, without any `n<idx>.` node prefix.
    #[inline]
    pub const fn name(self) -> &'static str {
        METRICS[self.slot()].name
    }

    /// The sinks a recorded value goes to.
    #[inline]
    pub const fn sinks(self) -> Sinks {
        METRICS[self.slot()].sinks
    }

    /// What the metric measures.
    pub const fn help(self) -> &'static str {
        METRICS[self.slot()].help
    }

    /// Every handle, in name order.
    pub fn all() -> impl Iterator<Item = Metric> {
        (0..METRICS.len() as u16).map(Metric)
    }
}

/// The catalog row behind a [`Metric`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted name, without any `n<idx>.` node prefix.
    pub name: &'static str,
    /// Where recorded values go.
    pub sinks: Sinks,
    /// What the metric measures.
    pub help: &'static str,
}

/// A catalogued trace stage or instant-event name and the layer that
/// emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stage {
    name: &'static str,
    layer: Layer,
}

impl Stage {
    /// Stable stage name.
    #[inline]
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// Emitting layer (the Chrome-trace track).
    #[inline]
    pub const fn layer(self) -> Layer {
        self.layer
    }
}

/// Declares one `pub const` [`Metric`] per row (its doc comment is the
/// help text) and the [`METRICS`] table in the same order.
macro_rules! metrics {
    ($(#[doc = $help:literal] $handle:ident = $name:literal, [$($sink:ident),+];)+) => {
        #[allow(non_camel_case_types)]
        #[repr(u16)]
        enum Slot { $($handle),+ }

        $(
            #[doc = $help]
            pub const $handle: Metric = Metric(Slot::$handle as u16);
        )+

        /// Every metric, in slot (= name) order.
        pub const METRICS: &[MetricDef] = &[$(MetricDef {
            name: $name,
            sinks: Sinks(0 $(| Sinks::$sink.0)+),
            help: $help.trim_ascii_start(),
        }),+];
    };
}

/// Declares one `pub const` [`Stage`] per row (its doc comment is the
/// help text) and the [`STAGES`] table in the same order.
macro_rules! stages {
    ($(#[doc = $help:literal] $handle:ident = $name:literal, $layer:ident;)+) => {
        $(
            #[doc = $help]
            pub const $handle: Stage = Stage { name: $name, layer: Layer::$layer };
        )+

        /// Every stage, sorted by `(name, layer)`.
        pub const STAGES: &[Stage] = &[$($handle),+];
    };
}

metrics! {
    /// per-flow congestion window after the latest update, packets
    CLIC_CWND = "clic.cwnd", [GAUGE, LEVEL];
    /// packets dropped because the receive backlog was full
    CLIC_DROPS_BACKLOG = "clic.drops.backlog", [COUNTER];
    /// already-delivered packets dropped (sender missed an ACK)
    CLIC_DROPS_DUPLICATE = "clic.drops.duplicate", [COUNTER];
    /// buffered receive state discarded after peer-silence expiry
    CLIC_DROPS_EXPIRED = "clic.drops.expired", [COUNTER];
    /// packets dropped because the out-of-order buffer was full
    CLIC_DROPS_OOO = "clic.drops.ooo", [COUNTER];
    /// packets dropped for carrying a previous session epoch
    CLIC_DROPS_STALE_EPOCH = "clic.drops.stale_epoch", [COUNTER];
    /// ACKs carrying a congestion-mark echo, processed by senders
    CLIC_ECN_ECHOES = "clic.ecn_echoes", [COUNTER];
    /// effective send window after peer advertisement, packets (timeline only)
    CLIC_EFFECTIVE_WINDOW = "clic.effective_window", [LEVEL];
    /// retransmissions triggered by duplicate ACKs
    CLIC_FAST_RETRANSMITS = "clic.fast_retransmits", [COUNTER];
    /// flows torn down by any error (sum of the per-cause splits)
    CLIC_FLOW_FAILURES = "clic.flow_failures", [COUNTER];
    /// flows torn down after exhausting retransmission retries
    CLIC_FLOW_FAILURES_MAX_RETRIES = "clic.flow_failures.max_retries", [COUNTER];
    /// flows torn down after keepalive declared the peer dead
    CLIC_FLOW_FAILURES_PEER_DEAD = "clic.flow_failures.peer_dead", [COUNTER];
    /// flows torn down because the peer restarted into a new epoch
    CLIC_FLOW_FAILURES_STALE_EPOCH = "clic.flow_failures.stale_epoch", [COUNTER];
    /// payload bytes sent but not yet acknowledged (timeline only)
    CLIC_INFLIGHT_BYTES = "clic.inflight_bytes", [LEVEL];
    /// keepalive probe packets sent on silent flows
    CLIC_KEEPALIVE_PROBES = "clic.keepalive_probes", [COUNTER];
    /// per-message payload size offered to clic_send
    CLIC_MSG_BYTES = "clic.msg_bytes", [HISTOGRAM];
    /// messages delivered to receiving ports
    CLIC_MSGS_RECEIVED = "clic.msgs_received", [COUNTER];
    /// messages accepted from sending processes
    CLIC_MSGS_SENT = "clic.msgs_sent", [COUNTER];
    /// CLIC data packets received
    CLIC_PACKETS_RECEIVED = "clic.packets_received", [COUNTER];
    /// CLIC data packets sent (including retransmissions)
    CLIC_PACKETS_SENT = "clic.packets_sent", [COUNTER];
    /// receive-side buffered bytes charged against the budget (also a timeline level)
    CLIC_RECV_BUFFER_BYTES = "clic.recv_buffer_bytes", [GAUGE, LEVEL];
    /// packets retransmitted (timeout or duplicate-ACK driven)
    CLIC_RETRANSMITS = "clic.retransmits", [COUNTER];
    /// smoothed RTT variance samples feeding the adaptive RTO, ns
    CLIC_RTTVAR = "clic.rttvar", [HISTOGRAM];
    /// per-flow slow-start threshold after the latest update, packets
    CLIC_SSTHRESH = "clic.ssthresh", [GAUGE, LEVEL];
    /// 1-copy sends staged through a kernel bounce buffer
    CLIC_STAGED_COPIES = "clic.staged_copies", [COUNTER];
    /// frames corrupted in flight by fault injection
    ETH_CORRUPT = "eth.corrupt", [COUNTER];
    /// frames duplicated in flight by fault injection
    ETH_DUPLICATES = "eth.duplicates", [COUNTER];
    /// flood copies suppressed by the loop-free flood membership
    ETH_FABRIC_FLOOD_PRUNED = "eth.fabric.flood_pruned", [COUNTER];
    /// frames forwarded out switch-to-switch trunk ports
    ETH_FABRIC_TRUNK_TX_FRAMES = "eth.fabric.trunk_tx_frames", [COUNTER];
    /// on-wire frame sizes, bytes
    ETH_LINK_FRAME_BYTES = "eth.link.frame_bytes", [HISTOGRAM];
    /// frames lost in flight (fault injection or outage)
    ETH_LINK_FRAMES_LOST = "eth.link.frames_lost", [COUNTER];
    /// on-wire bytes offered to links (timeline rate only)
    ETH_LINK_TX_BYTES = "eth.link.tx_bytes", [RATE];
    /// frames reordered in flight by fault injection
    ETH_REORDERS = "eth.reorders", [COUNTER];
    /// frames tail-dropped at a full switch output queue
    ETH_SWITCH_DROPS = "eth.switch.drops", [COUNTER];
    /// frames stamped congestion-experienced at a switch output queue
    ETH_SWITCH_ECN_MARKS = "eth.switch.ecn_marks", [COUNTER, RATE];
    /// switch lifetime tail-drop total (per-run export)
    ETH_SWITCH_FRAMES_DROPPED = "eth.switch.frames_dropped", [COUNTER];
    /// frames flooded to all ports (broadcast/multicast/unknown)
    ETH_SWITCH_FRAMES_FLOODED = "eth.switch.frames_flooded", [COUNTER];
    /// frames forwarded to a learned port
    ETH_SWITCH_FRAMES_FORWARDED = "eth.switch.frames_forwarded", [COUNTER];
    /// output-queue depth at each enqueue, frames: live level, distribution and timeline
    ETH_SWITCH_QUEUE_DEPTH = "eth.switch.queue_depth", [GAUGE, HISTOGRAM, LEVEL];
    /// per-copy sizes through the memory bus, bytes
    HW_MEM_COPY_BYTES = "hw.mem.copy_bytes", [HISTOGRAM];
    /// collective operations completed by the NIC-resident engine
    HW_NIC_COLL_COMPLETIONS = "hw.nic.coll.completions", [COUNTER];
    /// collective control frames consumed by the NIC engine (no host IRQ)
    HW_NIC_COLL_MSGS_RX = "hw.nic.coll.msgs_rx", [COUNTER];
    /// collective control frames emitted by the NIC engine
    HW_NIC_COLL_MSGS_TX = "hw.nic.coll.msgs_tx", [COUNTER];
    /// interrupts raised by the NIC (after coalescing)
    HW_NIC_IRQS = "hw.nic.irqs", [COUNTER];
    /// received frames discarded by the FCS check
    HW_NIC_RX_FCS_ERRORS = "hw.nic.rx_fcs_errors", [COUNTER];
    /// frames accepted into the RX ring
    HW_NIC_RX_FRAMES = "hw.nic.rx_frames", [COUNTER];
    /// frames dropped because the RX ring was full
    HW_NIC_RX_NO_BUFFER = "hw.nic.rx_no_buffer", [COUNTER];
    /// payload bytes transmitted by the NIC (timeline rate only)
    HW_NIC_TX_BYTES = "hw.nic.tx_bytes", [RATE];
    /// frames transmitted from the TX ring
    HW_NIC_TX_FRAMES = "hw.nic.tx_frames", [COUNTER];
    /// TX descriptor posts rejected by a full ring
    HW_NIC_TX_RING_FULL = "hw.nic.tx_ring_full", [COUNTER];
    /// per-transaction DMA sizes over the PCI bus, bytes; also the timeline byte rate
    HW_PCI_DMA_BYTES = "hw.pci.dma_bytes", [HISTOGRAM, RATE];
    /// MPI message payload sizes, bytes
    MPI_MSG_BYTES = "mpi.msg_bytes", [HISTOGRAM];
    /// MPI receives completed
    MPI_RECVS = "mpi.recvs", [COUNTER];
    /// MPI sends initiated
    MPI_SENDS = "mpi.sends", [COUNTER];
    /// bottom-half executions
    OS_BOTTOM_HALVES = "os.bottom_halves", [COUNTER];
    /// process context switches
    OS_CONTEXT_SWITCHES = "os.context_switches", [COUNTER];
    /// frames handed from the driver to protocol handlers
    OS_FRAMES_RECEIVED = "os.frames_received", [COUNTER];
    /// interrupt entries into the kernel
    OS_IRQS = "os.irqs", [COUNTER];
    /// GAMMA-style lightweight system calls
    OS_LIGHTWEIGHT_CALLS = "os.lightweight_calls", [COUNTER];
    /// full system calls (0.65 us each, paper section 3.1)
    OS_SYSCALLS = "os.syscalls", [COUNTER];
    /// packet-buffer requests that allocated because the pool's size class was empty
    SIM_POOL_ALLOC_MISSES = "sim.pool.alloc_misses", [COUNTER];
    /// dropped buffers released to the allocator (class list full or unpoolable size)
    SIM_POOL_DISCARDED = "sim.pool.discarded", [COUNTER];
    /// buffer requests above the largest pool class, served unpooled
    SIM_POOL_OVERSIZE = "sim.pool.oversize", [COUNTER];
    /// packet-buffer requests served by a recycled buffer (no allocation)
    SIM_POOL_RECYCLED = "sim.pool.recycled", [COUNTER];
    /// dropped buffers recycled into the pool's free lists
    SIM_POOL_RETURNED = "sim.pool.returned", [COUNTER];
    /// TCP retransmissions triggered by triple duplicate ACKs
    TCP_FAST_RETRANSMITS = "tcp.fast_retransmits", [COUNTER];
    /// TCP segments retransmitted on RTO
    TCP_RETRANSMITS = "tcp.retransmits", [COUNTER];
}

stages! {
    /// bottom-half run delivering frames to a protocol module
    BOTTOM_HALF = "bottom_half", Os;
    /// CLIC_MODULE receive processing
    CLIC_MODULE_RX = "clic_module_rx", Clic;
    /// CLIC_MODULE send path: header composition + SK_BUFF build
    CLIC_MODULE_TX = "clic_module_tx", Clic;
    /// final copy from kernel staging into user memory
    COPY_TO_USER = "copy_to_user", Clic;
    /// driver IRQ routine moving frames NIC -> system memory
    DRIVER_RX = "driver_rx", Os;
    /// hard_start_xmit handing an SK_BUFF to the NIC
    DRIVER_TX = "driver_tx", Os;
    /// packet dropped: receive backlog full
    DROP_BACKLOG = "drop.backlog", Clic;
    /// packet dropped: already delivered
    DROP_DUPLICATE = "drop.duplicate", Clic;
    /// buffered receive state expired after prolonged peer silence
    DROP_EXPIRED = "drop.expired", Clic;
    /// frame dropped: FCS check failed at the NIC
    DROP_FCS = "drop.fcs", Hw;
    /// packet dropped: out-of-order buffer full
    DROP_OOO = "drop.ooo", Clic;
    /// frame dropped: NIC RX ring full
    DROP_RX_NO_BUFFER = "drop.rx_no_buffer", Hw;
    /// packet dropped: stamped with a previous session epoch
    DROP_STALE_EPOCH = "drop.stale_epoch", Clic;
    /// sender processed an ACK echoing a congestion mark
    ECN_ECHO = "ecn_echo", Clic;
    /// duplicate-ACK-triggered retransmission
    FAST_RETRANSMIT_CLIC = "fast_retransmit", Clic;
    /// duplicate-ACK-triggered retransmission
    FAST_RETRANSMIT_TCPIP = "fast_retransmit", TcpIp;
    /// flow torn down: retries exhausted, peer dead or stale epoch
    FLOW_FAIL = "flow_fail", Clic;
    /// IPv4 receive: checksum, reassembly, demux
    IP_RX = "ip_rx", TcpIp;
    /// IPv4 send: header build + fragmentation
    IP_TX = "ip_tx", TcpIp;
    /// keepalive probe sent on a silent flow
    KEEPALIVE = "keepalive", Clic;
    /// frame lost on the wire (fault injection/outage)
    LINK_DROP = "link_drop", Eth;
    /// MPI receive: matching + completion
    MPI_RECV = "mpi_recv", Mpi;
    /// MPI send: eager or rendezvous initiation
    MPI_SEND = "mpi_send", Mpi;
    /// NIC collective engine: release/result distributed down the tree
    NIC_COLL_DOWN = "nic_coll_down", Hw;
    /// NIC collective engine: arrival/partial combined up the tree
    NIC_COLL_UP = "nic_coll_up", Hw;
    /// NIC bus-master DMA of a received frame over PCI
    NIC_RX_DMA = "nic_rx_dma", Hw;
    /// NIC bus-master DMA gather of a frame for transmit
    NIC_TX_DMA = "nic_tx_dma", Hw;
    /// retransmission timeout fired
    RTO_CLIC = "rto", Clic;
    /// retransmission timeout fired
    RTO_TCPIP = "rto", TcpIp;
    /// 1-copy send staging into a kernel bounce buffer
    STAGED_COPY = "staged_copy", Clic;
    /// frame tail-dropped at a switch output queue
    SWITCH_DROP = "switch_drop", Eth;
    /// frame stamped congestion-experienced at a switch output queue
    SWITCH_MARK = "switch_mark", Eth;
    /// system-call entry/exit around a send or receive
    SYSCALL = "syscall", Os;
    /// TCP send: segmentation, checksum, window bookkeeping
    TCP_TX = "tcp_tx", TcpIp;
    /// frame serialization + propagation on a link
    WIRE = "wire", Eth;
}

/// Strip an `n<idx>.` per-node prefix, if present: `n0.clic.retransmits`
/// normalises to `clic.retransmits`. Names without the prefix pass through
/// unchanged.
pub fn strip_node_prefix(name: &str) -> &str {
    let Some(rest) = name.strip_prefix('n') else {
        return name;
    };
    let Some(dot) = rest.find('.') else {
        return name;
    };
    if dot > 0 && rest[..dot].bytes().all(|b| b.is_ascii_digit()) {
        &rest[dot + 1..]
    } else {
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sorted_and_unique() {
        for w in METRICS.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "METRICS out of order or duplicated at {:?}",
                w[1].name
            );
        }
        for w in STAGES.windows(2) {
            assert!(
                (w[0].name, w[0].layer) < (w[1].name, w[1].layer),
                "STAGES out of order or duplicated at {:?}",
                w[1].name
            );
        }
    }

    #[test]
    fn ascending_id_order_is_ascending_name_order() {
        // The dump, the timeline CSV and its counter tracks list series
        // in slot order without sorting.
        let handles: Vec<Metric> = Metric::all().collect();
        for w in handles.windows(2) {
            assert!(w[0] < w[1] && w[0].name() < w[1].name());
        }
        assert_eq!(handles.len(), METRICS.len());
    }

    #[test]
    fn interned_ids_resolve_at_compile_time() {
        const NAME: &str = CLIC_RETRANSMITS.name();
        const SINKS: Sinks = ETH_SWITCH_QUEUE_DEPTH.sinks();
        assert_eq!(NAME, "clic.retransmits");
        assert!(SINKS.has(Sinks::GAUGE) && SINKS.has(Sinks::HISTOGRAM));
        assert_eq!(
            CLIC_RETRANSMITS.help(),
            "packets retransmitted (timeout or duplicate-ACK driven)"
        );
        const STAGE: (&str, Layer) = (WIRE.name(), WIRE.layer());
        assert_eq!(STAGE, ("wire", Layer::Eth));
    }

    #[test]
    fn lookup_respects_kind() {
        let s = CLIC_RETRANSMITS.sinks();
        assert!(s.has(Sinks::COUNTER) && !s.has(Sinks::GAUGE) && !s.has(Sinks::LEVEL));
        // One name, several sinks.
        let q = ETH_SWITCH_QUEUE_DEPTH.sinks();
        assert!(q.has(Sinks::GAUGE) && q.has(Sinks::HISTOGRAM) && q.has(Sinks::LEVEL));
        let d = HW_PCI_DMA_BYTES.sinks();
        assert!(d.has(Sinks::HISTOGRAM) && d.has(Sinks::RATE) && !d.has(Sinks::COUNTER));
        // Timeline-only handles reach no registry sink.
        let w = CLIC_EFFECTIVE_WINDOW.sinks();
        assert!(w.has(Sinks::LEVEL) && !w.has(Sinks::GAUGE));
    }

    #[test]
    fn stage_lookup() {
        assert_eq!(
            (DRIVER_RX.name(), DRIVER_RX.layer()),
            ("driver_rx", Layer::Os)
        );
        assert_eq!((DROP_FCS.name(), DROP_FCS.layer()), ("drop.fcs", Layer::Hw));
        // Stages emitted from two layers get one handle per layer.
        assert_eq!(RTO_CLIC.name(), RTO_TCPIP.name());
        assert_eq!(
            (RTO_CLIC.layer(), RTO_TCPIP.layer()),
            (Layer::Clic, Layer::TcpIp)
        );
        assert!(STAGES.contains(&FAST_RETRANSMIT_TCPIP));
    }

    #[test]
    fn runtime_lookup_matches_const_lookup() {
        // Reading a registry by name finds the series the handle wrote.
        for m in Metric::all() {
            let mut reg = crate::metrics::Metrics::enabled();
            reg.record(m, 3);
            let s = m.sinks();
            assert_eq!(
                reg.counter(m.name()) == 3,
                s.has(Sinks::COUNTER),
                "{}",
                m.name()
            );
            assert_eq!(reg.max_gauge_peak(m.name()) == 3, s.has(Sinks::GAUGE));
            assert_eq!(reg.histogram(m.name()).is_some(), s.has(Sinks::HISTOGRAM));
        }
        assert_eq!(crate::metrics::Metrics::enabled().counter("made.up"), 0);
    }

    #[test]
    fn sink_sets_are_consistent() {
        for m in Metric::all() {
            let s = m.sinks();
            // A registry slot holds one value: a counter total or a level.
            assert!(
                !(s.has(Sinks::COUNTER) && s.has(Sinks::GAUGE)),
                "{} is both a counter and a gauge",
                m.name()
            );
            // A handle names at most one timeline series.
            assert!(
                !(s.has(Sinks::LEVEL) && s.has(Sinks::RATE)),
                "{} is both a timeline level and a rate",
                m.name()
            );
        }
    }

    #[test]
    fn node_prefix_stripping() {
        assert_eq!(strip_node_prefix("n0.clic.retransmits"), "clic.retransmits");
        assert_eq!(strip_node_prefix("n12.os.syscalls"), "os.syscalls");
        assert_eq!(strip_node_prefix("clic.retransmits"), "clic.retransmits");
        assert_eq!(strip_node_prefix("nic.rx"), "nic.rx");
        assert_eq!(strip_node_prefix("n.x"), "n.x");
        assert_eq!(strip_node_prefix("n0"), "n0");
    }
}
