//! Workload-driver tests: every stack through ping-pong and both stream
//! flavours, plus cross-stack sanity orderings.

use bytes::Bytes;
use clic_cluster::builder::{Cluster, ClusterConfig};
use clic_cluster::workload::{
    ping_pong, request_reply_cycles, stream, stream_pipelined, StackKind,
};
use clic_cluster::{CostModel, NodeConfig};
use clic_core::ClicPort;
use clic_sim::Sim;
use clic_tcpip::{ConnId, TcpStack};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn cfg_for(stack: StackKind) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = match stack {
        StackKind::Clic | StackKind::MpiClic => NodeConfig::clic_default(&model),
        StackKind::Tcp | StackKind::MpiTcp | StackKind::PvmTcp => NodeConfig::tcp_default(&model),
        StackKind::Gamma => NodeConfig::gamma_default(&model),
    };
    cfg
}

#[test]
fn ping_pong_works_on_every_stack() {
    for stack in [
        StackKind::Clic,
        StackKind::Tcp,
        StackKind::MpiClic,
        StackKind::MpiTcp,
        StackKind::Gamma,
    ] {
        let cluster = Cluster::build(&cfg_for(stack));
        let mut sim = Sim::new(1);
        let res = ping_pong(&cluster, &mut sim, stack, 256, 5);
        assert_eq!(res.rtt.count(), 5, "{stack:?}");
        let one_way = res.one_way().as_us_f64();
        assert!(
            (3.0..500.0).contains(&one_way),
            "{stack:?} one-way {one_way} us out of band"
        );
    }
}

#[test]
fn synchronous_stream_works_on_every_stack() {
    for stack in [
        StackKind::Clic,
        StackKind::Tcp,
        StackKind::MpiClic,
        StackKind::MpiTcp,
        StackKind::PvmTcp,
        StackKind::Gamma,
    ] {
        let cluster = Cluster::build(&cfg_for(stack));
        let mut sim = Sim::new(2);
        let res = stream(&cluster, &mut sim, stack, 16_384, 6);
        assert_eq!(res.msgs, 6, "{stack:?}");
        assert!(res.mbps() > 1.0, "{stack:?} bandwidth {:.1}", res.mbps());
        assert!(res.mbps() < 1_000.0, "{stack:?} exceeds the wire");
    }
}

#[test]
fn pipelined_stream_beats_synchronous() {
    // Offered load pipelines messages; the paper's synchronous benchmark
    // pays a round trip per message — the pipelined result must dominate.
    for stack in [StackKind::Clic, StackKind::Tcp] {
        let sync_mbps = {
            let cluster = Cluster::build(&cfg_for(stack));
            let mut sim = Sim::new(3);
            stream(&cluster, &mut sim, stack, 8_192, 12).mbps()
        };
        let pipe_mbps = {
            let cluster = Cluster::build(&cfg_for(stack));
            let mut sim = Sim::new(3);
            stream_pipelined(&cluster, &mut sim, stack, 8_192, 12).mbps()
        };
        assert!(
            pipe_mbps > sync_mbps,
            "{stack:?}: pipelined {pipe_mbps:.0} <= synchronous {sync_mbps:.0}"
        );
    }
}

#[test]
fn latency_ordering_matches_paper() {
    // GAMMA < CLIC < MPI-CLIC < MPI-TCP for small messages.
    let lat = |stack: StackKind| {
        let mut cfg = cfg_for(stack);
        if stack == StackKind::Clic || stack == StackKind::MpiClic {
            cfg.node.nic = CostModel::era_2002().nic_low_latency(false);
        }
        let cluster = Cluster::build(&cfg);
        let mut sim = Sim::new(4);
        ping_pong(&cluster, &mut sim, stack, 0, 8)
            .one_way()
            .as_us_f64()
    };
    let gamma = lat(StackKind::Gamma);
    let clic = lat(StackKind::Clic);
    let mpi_clic = lat(StackKind::MpiClic);
    let mpi_tcp = lat(StackKind::MpiTcp);
    assert!(gamma < clic, "GAMMA {gamma} < CLIC {clic}");
    assert!(clic < mpi_clic, "CLIC {clic} < MPI-CLIC {mpi_clic}");
    assert!(
        mpi_clic < mpi_tcp,
        "MPI-CLIC {mpi_clic} < MPI-TCP {mpi_tcp}"
    );
}

#[test]
fn request_reply_cycle_times_scale_with_size() {
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(5);
    let small = request_reply_cycles(&cluster, &mut sim, StackKind::Clic, 64, 4, 4)
        .mean()
        .unwrap();
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(5);
    let large = request_reply_cycles(&cluster, &mut sim, StackKind::Clic, 262_144, 4, 4)
        .mean()
        .unwrap();
    assert!(
        large > small * 10,
        "256 KB cycle {large} must dwarf 64 B cycle {small}"
    );
}

#[test]
fn stream_reports_cpu_utilisation() {
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(6);
    let res = stream_pipelined(&cluster, &mut sim, StackKind::Clic, 65_536, 32);
    assert!(res.sender_cpu > 0.0 && res.sender_cpu <= 1.5);
    assert!(res.receiver_cpu > 0.05, "receiver must be visibly busy");
    // Receiver does more work per byte than the sender under CLIC 0-copy.
    assert!(res.receiver_cpu > res.sender_cpu);
}

/// Message `k` of a run: byte `i` is `(i + 7k) % 251`, so bytes from the
/// wrong message or the wrong offset show up as a mismatch.
fn pattern(len: usize, k: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| ((i + 7 * k) % 251) as u8)
            .collect::<Vec<_>>(),
    )
}

#[test]
fn clic_ping_pong_delivers_the_sent_bytes() {
    // Sizes around the single-packet limit (MTU 1500 less the 12-byte
    // header and 8-byte message prefix) take the view-based receive path
    // on one side and the reassembly copy on the other.
    const ITERS: usize = 3;
    for size in [0, 1, 1479, 1480, 1481, 9000, 65_536] {
        let cluster = Cluster::build(&cfg_for(StackKind::Clic));
        let mut sim = Sim::new(7);
        let (a, b) = (&cluster.nodes[0], &cluster.nodes[1]);
        let pid_a = a.kernel.borrow_mut().processes.spawn("check-a");
        let pid_b = b.kernel.borrow_mut().processes.spawn("check-b");
        let port_a = Rc::new(ClicPort::bind(&a.clic(), pid_a, 100));
        let port_b = Rc::new(ClicPort::bind(&b.clic(), pid_b, 100));
        let (a_mac, b_mac) = (a.mac, b.mac);
        let echoed = Rc::new(Cell::new(0usize));
        let returned = Rc::new(Cell::new(0usize));

        fn echo(
            port: Rc<ClicPort>,
            sim: &mut Sim,
            peer: clic_ethernet::MacAddr,
            size: usize,
            k: usize,
            n: Rc<Cell<usize>>,
        ) {
            if k == ITERS {
                return;
            }
            let p2 = port.clone();
            port.recv(sim, move |sim, msg| {
                assert_eq!(
                    msg.data,
                    pattern(size, k),
                    "echo side, size {size}, message {k}"
                );
                n.set(n.get() + 1);
                p2.send(sim, peer, 100, msg.data);
                echo(p2.clone(), sim, peer, size, k + 1, n);
            });
        }
        echo(port_b, &mut sim, a_mac, size, 0, echoed.clone());

        fn ping(
            port: Rc<ClicPort>,
            sim: &mut Sim,
            peer: clic_ethernet::MacAddr,
            size: usize,
            k: usize,
            n: Rc<Cell<usize>>,
        ) {
            if k == ITERS {
                return;
            }
            port.send(sim, peer, 100, pattern(size, k));
            let p2 = port.clone();
            port.recv(sim, move |sim, msg| {
                assert_eq!(
                    msg.data,
                    pattern(size, k),
                    "initiator, size {size}, message {k}"
                );
                n.set(n.get() + 1);
                ping(p2, sim, peer, size, k + 1, n);
            });
        }
        ping(port_a, &mut sim, b_mac, size, 0, returned.clone());
        sim.run();
        assert_eq!(
            (echoed.get(), returned.get()),
            (ITERS, ITERS),
            "size {size}"
        );
    }
}

#[test]
fn tcp_ping_pong_delivers_the_sent_bytes() {
    // Reads at, below and above the 1460-byte MSS. With a burst of two,
    // each round sends two messages before reading, so one segment can
    // serve two reads.
    const ITERS: usize = 3;
    for (size, burst) in [
        (1, 1),
        (700, 2),
        (1459, 1),
        (1460, 1),
        (1461, 1),
        (9000, 2),
        (65_536, 1),
    ] {
        let cluster = Cluster::build(&cfg_for(StackKind::Tcp));
        let mut sim = Sim::new(8);
        let a = cluster.nodes[0].tcp();
        let b = cluster.nodes[1].tcp();
        let server: Rc<RefCell<Option<ConnId>>> = Rc::new(RefCell::new(None));
        let client: Rc<RefCell<Option<ConnId>>> = Rc::new(RefCell::new(None));
        let sc = server.clone();
        b.borrow_mut()
            .listen(9000, move |_, id| *sc.borrow_mut() = Some(id));
        let cc = client.clone();
        TcpStack::connect(&a, &mut sim, cluster.nodes[1].ip, 9000, move |_, id| {
            *cc.borrow_mut() = Some(id)
        });
        sim.run();
        let server = server.borrow().expect("accept failed");
        let client = client.borrow().expect("connect failed");
        let total = ITERS * burst;
        // One reading side of the connection. The echo side sends back
        // every message it reads; the initiator sends the next burst once
        // it has read the whole previous one.
        struct Side {
            stack: Rc<RefCell<TcpStack>>,
            conn: ConnId,
            size: usize,
            burst: usize,
            total: usize,
            echo: bool,
            read: Cell<usize>,
        }
        fn send_burst(side: &Side, sim: &mut Sim, first: usize) {
            for k in first..(first + side.burst).min(side.total) {
                TcpStack::send(&side.stack, sim, side.conn, pattern(side.size, k));
            }
        }
        fn reader(side: Rc<Side>, sim: &mut Sim) {
            let k = side.read.get();
            if k == side.total {
                return;
            }
            let s2 = side.clone();
            TcpStack::recv(&side.stack, sim, side.conn, side.size, move |sim, data| {
                let (size, echo) = (s2.size, s2.echo);
                assert_eq!(
                    data,
                    pattern(size, k),
                    "echo {echo}, size {size}, message {k}"
                );
                s2.read.set(k + 1);
                if echo {
                    TcpStack::send(&s2.stack, sim, s2.conn, data);
                } else if (k + 1).is_multiple_of(s2.burst) {
                    send_burst(&s2, sim, k + 1);
                }
                reader(s2, sim);
            });
        }
        let side = |stack: &Rc<RefCell<TcpStack>>, conn, echo| {
            Rc::new(Side {
                stack: stack.clone(),
                conn,
                size,
                burst,
                total,
                echo,
                read: Cell::new(0),
            })
        };
        let echo_side = side(&b, server, true);
        let init_side = side(&a, client, false);
        reader(echo_side.clone(), &mut sim);
        reader(init_side.clone(), &mut sim);
        send_burst(&init_side, &mut sim, 0);
        sim.run();
        assert_eq!(
            (echo_side.read.get(), init_side.read.get()),
            (total, total),
            "size {size}"
        );
    }
}
