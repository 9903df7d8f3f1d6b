//! Transport backends for the message layers.
//!
//! A transport gives rank-addressed, reliable, ordered message delivery.
//! `ClicTransport` maps it onto CLIC ports (MPI packet type); the paper's
//! point is that this mapping is nearly free: "MPI and PVM point-to-point
//! communication functions can be easily mapped to reliable point-to-point
//! communications provided by the CLIC layer". `TcpTransport` maps it onto
//! a mesh of TCP connections with length-prefixed record framing — what
//! LAM-MPI/PVM over TCP actually did.

use bytes::{BufMut, Bytes, BytesMut};
use clic_core::module::SendOptions;
use clic_core::{ClicModule, PacketType};
use clic_ethernet::MacAddr;
use clic_os::Pid;
use clic_sim::catalog::{MPI_MSG_BYTES, MPI_RECV, MPI_RECVS, MPI_SEND, MPI_SENDS};
use clic_sim::Sim;
use clic_tcpip::tcp::TcpStack;
use clic_tcpip::{ConnId, IpAddr};
use std::cell::RefCell;
use std::rc::Rc;

/// Handler for inbound transport messages: `(source rank, payload)`.
pub type MsgHandler = Rc<dyn Fn(&mut Sim, usize, Bytes)>;

/// Rank-addressed reliable ordered message delivery.
pub trait Transport {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send a message to `dst`.
    fn send(&self, sim: &mut Sim, dst: usize, data: Bytes);
    /// Install the delivery handler (call once, before traffic).
    fn set_handler(&self, handler: MsgHandler);
    /// True once the transport is ready to carry traffic.
    fn ready(&self) -> bool;
}

/// The CLIC channel the MPI layer rides on.
pub const MPI_CHANNEL: u16 = 0x4D50; // "MP"

// ---------------------------------------------------------------------
// CLIC backend
// ---------------------------------------------------------------------

/// MPI transport over CLIC.
pub struct ClicTransport {
    module: Rc<RefCell<ClicModule>>,
    rank: usize,
    peers: Vec<MacAddr>,
    handler: RefCell<Option<MsgHandler>>,
}

impl ClicTransport {
    /// Create rank `rank` of a job whose rank-to-station map is `peers`;
    /// `pid` is the local MPI process. Starts the receive loop.
    pub fn new(
        sim: &mut Sim,
        module: &Rc<RefCell<ClicModule>>,
        pid: Pid,
        rank: usize,
        peers: Vec<MacAddr>,
    ) -> Rc<ClicTransport> {
        assert!(rank < peers.len());
        module.borrow_mut().bind(pid, MPI_CHANNEL);
        let t = Rc::new(ClicTransport {
            module: module.clone(),
            rank,
            peers,
            handler: RefCell::new(None),
        });
        Self::recv_loop(t.clone(), sim);
        t
    }

    fn recv_loop(t: Rc<ClicTransport>, sim: &mut Sim) {
        let module = t.module.clone();
        ClicModule::recv(&module, sim, MPI_CHANNEL, move |sim, msg| {
            let src = t
                .peers
                .iter()
                .position(|&m| m == msg.src)
                .expect("message from station outside the job");
            sim.record(MPI_RECVS, 1);
            sim.trace.instant(sim.now(), MPI_RECV, src as u64);
            if let Some(h) = t.handler.borrow().clone() {
                h(sim, src, msg.data);
            }
            Self::recv_loop(t.clone(), sim);
        });
    }
}

impl Transport for ClicTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, sim: &mut Sim, dst: usize, data: Bytes) {
        sim.record(MPI_SENDS, 1);
        sim.record(MPI_MSG_BYTES, data.len() as u64);
        sim.trace.instant(sim.now(), MPI_SEND, dst as u64);
        let opts = SendOptions {
            ptype: PacketType::Mpi,
            ..SendOptions::data(self.peers[dst], MPI_CHANNEL)
        };
        ClicModule::send(&self.module, sim, opts, data);
    }

    fn set_handler(&self, handler: MsgHandler) {
        *self.handler.borrow_mut() = Some(handler);
    }

    fn ready(&self) -> bool {
        true // CLIC is connectionless
    }
}

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

const TCP_BASE_PORT: u16 = 18_000;

/// MPI transport over a full mesh of TCP connections.
pub struct TcpTransport {
    stack: Rc<RefCell<TcpStack>>,
    rank: usize,
    peer_ips: Vec<IpAddr>,
    conns: RefCell<Vec<Option<ConnId>>>,
    handler: RefCell<Option<MsgHandler>>,
}

impl TcpTransport {
    /// Create rank `rank`; `peer_ips[r]` is rank r's address. Initiates the
    /// connection mesh (lower rank connects to higher rank); run the
    /// simulator until [`Transport::ready`] before sending.
    pub fn new(
        sim: &mut Sim,
        stack: &Rc<RefCell<TcpStack>>,
        rank: usize,
        peer_ips: Vec<IpAddr>,
    ) -> Rc<TcpTransport> {
        assert!(rank < peer_ips.len());
        let size = peer_ips.len();
        let t = Rc::new(TcpTransport {
            stack: stack.clone(),
            rank,
            peer_ips,
            conns: RefCell::new(vec![None; size]),
            handler: RefCell::new(None),
        });
        // Accept connections from every lower rank on a port that encodes
        // the *initiator's* rank, so we can attribute the connection.
        for src in 0..rank {
            let port = TCP_BASE_PORT + src as u16;
            let t2 = t.clone();
            stack.borrow_mut().listen(port, move |sim, conn| {
                t2.conns.borrow_mut()[src] = Some(conn);
                TcpTransport::read_loop(t2.clone(), sim, src, conn);
            });
        }
        // Connect to every higher rank.
        for dst in rank + 1..size {
            let port = TCP_BASE_PORT + rank as u16;
            let ip = t.peer_ips[dst];
            let t2 = t.clone();
            TcpStack::connect(stack, sim, ip, port, move |sim, conn| {
                t2.conns.borrow_mut()[dst] = Some(conn);
                TcpTransport::read_loop(t2.clone(), sim, dst, conn);
            });
        }
        t
    }

    /// Length-prefixed record reader: 4-byte big-endian length, then body.
    fn read_loop(t: Rc<TcpTransport>, sim: &mut Sim, src: usize, conn: ConnId) {
        let stack = t.stack.clone();
        TcpStack::recv(&stack.clone(), sim, conn, 4, move |sim, len_bytes| {
            let len = u32::from_be_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]])
                as usize;
            let t2 = t.clone();
            TcpStack::recv(&stack, sim, conn, len, move |sim, body| {
                sim.record(MPI_RECVS, 1);
                sim.trace.instant(sim.now(), MPI_RECV, src as u64);
                if let Some(h) = t2.handler.borrow().clone() {
                    h(sim, src, body);
                }
                TcpTransport::read_loop(t2.clone(), sim, src, conn);
            });
        });
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.peer_ips.len()
    }

    fn send(&self, sim: &mut Sim, dst: usize, data: Bytes) {
        sim.record(MPI_SENDS, 1);
        sim.record(MPI_MSG_BYTES, data.len() as u64);
        sim.trace.instant(sim.now(), MPI_SEND, dst as u64);
        let conn = self.conns.borrow()[dst].expect("transport not ready");
        let mut framed = BytesMut::with_capacity(4 + data.len());
        framed.put_u32(data.len() as u32);
        framed.put_slice(&data);
        TcpStack::send(&self.stack, sim, conn, framed.freeze());
    }

    fn set_handler(&self, handler: MsgHandler) {
        *self.handler.borrow_mut() = Some(handler);
    }

    fn ready(&self) -> bool {
        self.conns
            .borrow()
            .iter()
            .enumerate()
            .all(|(r, c)| r == self.rank || c.is_some())
    }
}
