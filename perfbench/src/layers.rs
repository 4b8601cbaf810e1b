//! Per-op unit costs of each layer a packet crosses, measured by driving the
//! layer's public API with an op stream shaped by the workload's own counts,
//! and the reconciliation of count x unit cost against `Engine::run` time.
//!
//! The model is deliberately plain: every engine event pays one wheel
//! schedule+pop, every frame one slab insert+take, every switch hop one
//! enqueue+dequeue, every ACK one congestion-control update, every data
//! delivery one SACK/reassembly update, and every TLT data packet one
//! marking decision. What the model leaves out (event dispatch, the link,
//! the transport state machines, cache misses) is the residual.

use std::hint::black_box;
use std::time::Instant;

use dcsim::SimConfig;
use eventsim::{EventQueue, SimRng, SimTime};
use netsim::packet::{FlowId, IntHop, Packet, PacketRef, PacketSlab, SackBlock, TltMark};
use netsim::switch::{EcnConfig, Switch, SwitchConfig};
use netsim::topology::{NodeId, NodeKind, PortId, Topology};
use tlt_core::{RateTltConfig, RateTltSender, WindowTltConfig, WindowTltSender};
use transport::buffer::{RecvBuffer, Scoreboard};
use transport::cc::{AckCtx, CongestionControl, Dctcp, Hpcc, NewReno};
use transport::TransportKind;

use crate::cells::Cell;

/// Ops timed per unit-cost measurement.
const OPS: u64 = 200_000;
/// Frames standing in each egress queue while the switch is timed.
const BACKLOG: u64 = 32;

/// The engine and layer counts of one round, summed over its cells.
pub struct Counts {
    pub events: u64,
    pub deliver_transit: u64,
    pub deliver_endpoint: u64,
    /// Mean event-queue depth after a pop.
    pub mean_depth: u64,
    pub data_pkts: u64,
    pub drops: u64,
    pub ecn_marks: u64,
}

/// The counts of one cell that pick its congestion control and TLT costs.
pub struct CellCounts {
    /// Frames delivered to an endpoint (data at receivers, ACKs at senders).
    pub endpoint: u64,
    /// Data packets sent.
    pub data: u64,
    /// Frames dropped at switches.
    pub drops: u64,
}

/// The op-stream shape a workload's counts imply.
pub struct Shape {
    /// Mean pending events.
    depth: usize,
    /// Propagation delay of the workload's links (ns).
    prop_ns: u64,
    /// Data packet payload (bytes).
    mss: u32,
    /// Switch radix of the first cell's fabric.
    ports: usize,
    /// ECN discipline of the first cell's switches.
    ecn: EcnConfig,
    /// Color-aware dropping threshold, as the `+tlt` cells configure it.
    color_threshold: Option<u64>,
    /// Share of data packets lost.
    loss: f64,
    /// Share of data packets marked important.
    important: f64,
    /// Share of data packets CE-marked.
    ce: f64,
    /// The first cell's configuration, for building its topology.
    cfg: SimConfig,
}

impl Shape {
    pub fn of(cells: &[Cell], c: &Counts, important: f64) -> Shape {
        let cfg = cells[0].cfg.clone();
        let topo = cfg.topology.build();
        let ports = (0..topo.node_count())
            .map(|n| NodeId(n as u32))
            .filter(|&n| topo.kind(n) == NodeKind::Switch)
            .map(|n| topo.port_count(n))
            .max()
            .unwrap_or(2);
        let prop_ns = topo
            .link_from(topo.hosts()[0], PortId(0))
            .1
            .spec
            .delay
            .as_ns();
        let data = c.data_pkts.max(1) as f64;
        Shape {
            depth: (c.mean_depth as usize).max(16),
            prop_ns,
            mss: cfg.mss,
            ports,
            ecn: cfg.switch.ecn,
            color_threshold: cells
                .iter()
                .find_map(|c| c.cfg.switch.color_threshold)
                .or(Some(400_000)),
            loss: c.drops as f64 / data,
            important,
            ce: c.ecn_marks as f64 / data,
            cfg,
        }
    }
}

/// Measured ns per op of each layer.
pub struct Costs {
    pub wheel: f64,
    pub slab: f64,
    pub switch: f64,
    pub pin_paths: f64,
    pub newreno: f64,
    pub dctcp: f64,
    pub hpcc: f64,
    pub sack: f64,
    pub window_mark: f64,
    pub rate_mark: f64,
    /// Ops timed per figure.
    pub samples: usize,
}

impl Costs {
    pub fn list(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("eventsim.wheel_ns", self.wheel),
            ("netsim.slab_ns", self.slab),
            ("netsim.switch_ns", self.switch),
            ("netsim.pin_paths_ns", self.pin_paths),
            ("transport.cc_ack_ns.newreno", self.newreno),
            ("transport.cc_ack_ns.dctcp", self.dctcp),
            ("transport.cc_ack_ns.hpcc", self.hpcc),
            ("transport.sack_ns", self.sack),
            ("tlt-core.window_mark_ns", self.window_mark),
            ("tlt-core.rate_mark_ns", self.rate_mark),
        ]
    }
}

/// Times `ops` calls of `f` (after a warm-up of a tenth as many) and returns
/// ns per call, the fastest of three passes.
fn time_ns(ops: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let mut sink = 0u64;
    for i in 0..ops / 10 {
        sink = sink.wrapping_add(f(i));
    }
    let mut passes = [0.0f64; 3];
    for p in &mut passes {
        let t = Instant::now();
        for i in 0..ops {
            sink = sink.wrapping_add(f(i));
        }
        *p = t.elapsed().as_nanos() as f64 / ops as f64;
    }
    black_box(sink);
    passes.into_iter().fold(f64::INFINITY, f64::min)
}

/// Event horizons in the proportions a packet simulation schedules them:
/// serialization, propagation, and (one in ten) a retransmission timer.
fn horizon(rng: &mut SimRng, s: &Shape) -> u64 {
    match rng.gen_range_u64(0..10) {
        0..=3 => u64::from(s.mss) * 8 / 40,
        4..=8 => s.prop_ns + rng.gen_range_u64(0..1_000),
        _ => 4_000_000 + rng.gen_range_u64(0..1_000_000),
    }
}

fn wheel(s: &Shape) -> f64 {
    let mut rng = SimRng::seed_from(1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(s.depth * 2);
    for i in 0..s.depth as u64 {
        q.schedule(SimTime::from_ns(horizon(&mut rng, s)), i);
    }
    time_ns(OPS, |i| {
        let (t, e) = q.pop().expect("the queue holds `depth` events");
        q.schedule(t + SimTime::from_ns(horizon(&mut rng, s)), i);
        e
    })
}

fn slab(s: &Shape) -> f64 {
    let mut slab = PacketSlab::with_capacity(s.depth * 2);
    let mut live = std::collections::VecDeque::with_capacity(s.depth);
    for i in 0..s.depth as u64 {
        live.push_back(slab.insert(Packet::data(FlowId(i as u32), 0, s.mss)));
    }
    time_ns(OPS, |i| {
        let r = live.pop_front().expect("live frames");
        let p = slab.take(r);
        live.push_back(slab.insert(Packet::data(FlowId(i as u32), p.seq + 1, s.mss)));
        p.seq
    })
}

/// A data frame of the workload's size, important at the workload's rate
/// and colored as a TLT switch sees it.
fn frame(slab: &mut PacketSlab, s: &Shape, i: u64, rng: &mut SimRng) -> PacketRef {
    let mut p = Packet::data(FlowId((i % 64) as u32), i * u64::from(s.mss), s.mss);
    p.ecn_capable = true;
    if rng.gen_bool(s.important) {
        p.mark = TltMark::ImportantData;
    }
    p.colorize(s.color_threshold.is_some());
    slab.insert(p)
}

fn switch(s: &Shape) -> f64 {
    let mut cfg = SwitchConfig::trident2(s.ports);
    cfg.total_buffer = s.cfg.switch.buffer_bytes;
    cfg.ecn = s.ecn;
    cfg.color_threshold = s.color_threshold;
    let mut sw = Switch::new(cfg, 1);
    let mut slab = PacketSlab::with_capacity(4096);
    let mut rng = SimRng::seed_from(2);
    let ports = s.ports as u64;
    // A standing queue on every egress, kept constant by pairing each
    // enqueue with a dequeue on the same port.
    for e in 1..ports {
        for i in 0..BACKLOG {
            let r = frame(&mut slab, s, i, &mut rng);
            let _ = sw.enqueue(r, &mut slab, PortId(0), PortId(e as u32), SimTime::ZERO);
        }
    }
    time_ns(OPS, |i| {
        let r = frame(&mut slab, s, i, &mut rng);
        let egress = PortId(rng.gen_range_u64(1..ports) as u32);
        let _ = sw.enqueue(r, &mut slab, PortId(0), egress, SimTime::from_ns(i));
        let (out, _) = sw.dequeue(&mut slab, egress, SimTime::from_ns(i));
        out.map_or(0, |r| slab.take(r).seq)
    })
}

fn pin_paths(s: &Shape) -> f64 {
    let topo: Topology = s.cfg.topology.build();
    let hosts = topo.hosts().to_vec();
    let mut rng = SimRng::seed_from(3);
    time_ns(OPS, |i| {
        let a = hosts[rng.gen_range_usize(0..hosts.len())];
        let b = hosts[rng.gen_range_usize(0..hosts.len())];
        if a == b {
            return 0;
        }
        let (f, r) = topo.pin_paths(a, b, Topology::ecmp_hash(a, b, i));
        (f.len() + r.len()) as u64
    })
}

fn cc(s: &Shape, mut cc: impl CongestionControl, int_hops: usize) -> f64 {
    let mut rng = SimRng::seed_from(4);
    let mss = u64::from(s.mss);
    let mut ack = Packet::ack(FlowId(0), 0);
    let (mut una, mut nxt) = (0u64, 10 * mss);
    let mut tx = vec![0u64; int_hops];
    time_ns(OPS, |i| {
        ack.seq = una + mss;
        ack.int_stack.clear();
        for t in tx.iter_mut() {
            *t += mss + rng.gen_range_u64(0..mss);
            ack.int_stack.push(IntHop {
                q_len: rng.gen_range_u64(0..200_000),
                tx_bytes: *t,
                ts: SimTime::from_ns(i * 300),
                rate_bps: 40_000_000_000,
            });
        }
        una += mss;
        nxt = nxt.max(una) + mss;
        cc.on_ack(&AckCtx {
            newly_acked: mss,
            ece: rng.gen_bool(s.ce.min(1.0)),
            snd_una: una,
            snd_nxt: nxt,
            flight: nxt - una,
            now: SimTime::from_ns(i * 300),
            pkt: &ack,
        });
        cc.cwnd()
    })
}

/// One data arrival at a receiver (reassembly insert) and, at the sender,
/// the SACK block it reports plus the next-hole query; losses at the
/// workload's rate leave holes.
fn sack(s: &Shape) -> f64 {
    let mss = u64::from(s.mss);
    let flow = 1_000 * mss;
    let mut rng = SimRng::seed_from(5);
    let mut rb = RecvBuffer::new(flow);
    let mut sb = Scoreboard::new();
    let mut next = 0u64;
    time_ns(OPS, |_| {
        if next >= flow {
            rb = RecvBuffer::new(flow);
            sb = Scoreboard::new();
            next = 0;
        }
        let seg = (next, next + mss);
        next += mss;
        if rng.gen_bool(s.loss.min(0.5)) {
            return 0;
        }
        rb.insert(seg.0, seg.1);
        let una = rb.cumulative();
        if seg.0 > una {
            sb.add_block(SackBlock {
                start: seg.0,
                end: seg.1,
            });
        }
        sb.on_cumulative_ack(una);
        sb.first_hole(una).map_or(una, |(a, _)| a)
    })
}

fn window_mark() -> f64 {
    let mut t = WindowTltSender::new(WindowTltConfig::default());
    time_ns(OPS, |i| {
        let m = t.mark_data(i % 8 != 7);
        let echo = if m == TltMark::ImportantData {
            TltMark::ImportantEcho
        } else {
            TltMark::None
        };
        let _ = t.on_ack(echo, i + 1, i);
        u64::from(m == TltMark::ImportantData)
    })
}

fn rate_mark(s: &Shape) -> f64 {
    let mut t = RateTltSender::new(RateTltConfig::default());
    let mss = u64::from(s.mss);
    let flow = 100 * mss;
    time_ns(OPS, |i| {
        let seq = (i % 100) * mss;
        u64::from(t.mark_data(seq, seq + mss, flow, false) == TltMark::ImportantData)
    })
}

/// Measures every layer's unit cost for this shape.
pub fn unit_costs(s: &Shape) -> Costs {
    let bdp = 400_000;
    Costs {
        wheel: wheel(s),
        slab: slab(s),
        switch: switch(s),
        pin_paths: pin_paths(s),
        newreno: cc(s, NewReno::new(s.mss, 10), 0),
        dctcp: cc(s, Dctcp::new(s.mss, 10), 0),
        hpcc: cc(s, Hpcc::new(s.mss, SimTime::from_us(80), bdp), 6),
        sack: sack(s),
        window_mark: window_mark(),
        rate_mark: rate_mark(s),
        samples: OPS as usize,
    }
}

/// Predicted `Engine::run` seconds for one round: each count times its unit
/// cost. Per-cell counts pick the cell's congestion control and TLT mode.
pub fn predict(c: &Counts, k: &Costs, cells: &[Cell], per_cell: &[CellCounts]) -> f64 {
    let mut ns = c.events as f64 * k.wheel
        + (c.deliver_endpoint + c.drops) as f64 * k.slab
        + c.deliver_transit as f64 * k.switch;
    for (cell, n) in cells.iter().zip(per_cell) {
        let (data, delivered) = (n.data, n.data.saturating_sub(n.drops));
        let acks = n.endpoint.saturating_sub(delivered);
        let kind = cell.cfg.transport;
        ns += acks as f64
            * match kind {
                TransportKind::Tcp => k.newreno,
                TransportKind::Dctcp => k.dctcp,
                TransportKind::Hpcc => k.hpcc,
                _ => 0.0,
            };
        ns += delivered as f64 * k.sack;
        if cell.tlt {
            ns += data as f64
                * if kind.is_roce() && kind != TransportKind::Hpcc {
                    k.rate_mark
                } else {
                    k.window_mark
                };
        }
    }
    ns / 1e9
}
