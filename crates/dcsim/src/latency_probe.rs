//! The latency ledger as the engine's probe (`ledger` builds): one
//! [`FlowLedger`] per flow, fed at the flow-start, endpoint, ACK and RTO
//! hooks, plus the packet journey stamps written at the send, enqueue, tx
//! and wire hooks.

use eventsim::{EventQueue, SimTime};
use netsim::packet::{Direction, Packet, PacketRef, PacketSlab};
use netsim::topology::{NodeId, PortId};
use transport::iface::FlowSender;

use crate::engine::{Event, PortState, Ports, SimResult};
use crate::latency::FlowLedger;
use crate::probe::Probe;

pub(crate) struct LatencyProbe {
    flows: Vec<FlowLedger>,
}

/// Cumulative time a port has spent PFC-paused up to `now`. A wait
/// snapshots this at its start and diffs it at the dequeue, so the PFC
/// share of any wait costs two u64 reads, never a timeline walk.
fn pause_cum_ns(ps: &PortState, now: SimTime) -> u64 {
    ps.paused_total.as_ns()
        + if ps.paused {
            (now - ps.paused_since).as_ns()
        } else {
            0
        }
}

impl Probe for LatencyProbe {
    fn new(_links: usize, flows: usize) -> LatencyProbe {
        LatencyProbe {
            flows: vec![FlowLedger::default(); flows],
        }
    }

    /// Journey origin: the packet enters the host egress queue (always
    /// port 0 of a host) right now.
    fn on_send(&mut self, pkt: &mut Packet, now: SimTime, ports: &Ports, host: NodeId) {
        pkt.lg.origin_ns = now.as_ns();
        pkt.lg.wait_since_ns = now.as_ns();
        pkt.lg.pause_cum_ns = pause_cum_ns(&ports[host.0 as usize][0], now);
    }

    /// Wait-begin stamp: the journey's switch-queue segment opens at
    /// arrival and closes at the egress dequeue.
    fn on_enqueue(&mut self, pkt: &mut Packet, now: SimTime, ports: &Ports, n: NodeId, p: PortId) {
        pkt.lg.wait_since_ns = now.as_ns();
        pkt.lg.pause_cum_ns = pause_cum_ns(&ports[n.0 as usize][p.0 as usize], now);
    }

    /// Wait-close: a port only dequeues while unpaused, so the
    /// cumulative pause counter alone bounds how much of this packet's
    /// wait was PFC back-pressure; the rest is host/pacing wait at a
    /// NIC or switch queueing at a switch.
    fn on_tx(
        &mut self,
        _link: usize,
        _wire: u32,
        pkts: &mut PacketSlab,
        pkt: PacketRef,
        now: SimTime,
        port: &PortState,
        host: bool,
    ) {
        let p = pkts.get_mut(pkt);
        let waited = now.as_ns() - p.lg.wait_since_ns;
        let paused = port
            .paused_total
            .as_ns()
            .saturating_sub(p.lg.pause_cum_ns)
            .min(waited);
        p.lg.pause_ns += paused;
        if host {
            p.lg.host_ns += waited - paused;
        } else {
            p.lg.queue_ns += waited - paused;
        }
    }

    /// Journey contiguity: dequeue at `now`, arrival at `now + tx +
    /// delay` — accumulating exactly those two terms keeps the journey's
    /// phase sum equal to arrival − origin with no gap.
    fn on_wire(
        &mut self,
        _link: usize,
        _wire: u32,
        pkts: &mut PacketSlab,
        pkt: PacketRef,
        tx: SimTime,
        delay: SimTime,
    ) {
        let p = pkts.get_mut(pkt);
        p.lg.serialize_ns += tx.as_ns();
        p.lg.propagate_ns += delay.as_ns();
    }

    /// The ledger opens at FlowStart *execution*, which is also the
    /// recorded `spec.start` (dependent flows have it rewritten to the
    /// absolute release time), so the frontier and the FCT base
    /// coincide exactly.
    fn on_flow_start(&mut self, f: u32, t: SimTime) {
        self.flows[f as usize].begin(t.as_ns());
    }

    /// Every endpoint arrival advances the flow's frontier to `now`,
    /// attributing the window behind it — by the packet's own journey
    /// decomposition in normal operation, wholesale to the recovery
    /// phase otherwise. The completing arrival therefore closes the
    /// conservation invariant at the exact FCT instant.
    fn on_endpoint(&mut self, f: u32, now: SimTime, pkt: &Packet, open: bool) {
        if open {
            let data_fwd = pkt.dir == Direction::Fwd && !pkt.is_control();
            self.flows[f as usize].on_arrival(now.as_ns(), &pkt.lg, data_fwd);
        }
    }

    /// A delivered ACK/NACK that triggers fast (or go-back-N)
    /// retransmission flips the ledger into fast recovery; the
    /// triggering arrival itself was attributed normally, so the mode
    /// governs only the windows after it.
    fn on_ack(
        &mut self,
        f: u32,
        now: SimTime,
        open: bool,
        sender: &mut dyn FlowSender,
        deliver: impl FnOnce(&mut dyn FlowSender),
    ) {
        let pre_fast = sender.stats().fast_retx;
        deliver(sender);
        if open && sender.stats().fast_retx > pre_fast {
            self.flows[f as usize].on_fast_retx(now.as_ns());
        }
    }

    /// The quiet window that led up to this firing *was* the RTO stall,
    /// and everything after is RTO recovery until a fresh-epoch data
    /// packet lands.
    fn on_rto(&mut self, f: u32, t: SimTime, open: bool) {
        if open {
            self.flows[f as usize].on_rto(t.as_ns());
        }
    }

    /// Seals the ledgers. For every completed flow the per-arrival
    /// windows must tile [start, completion] exactly, so Σ phases ==
    /// FCT with zero unattributed time — across the full fault grid,
    /// not just clean runs.
    fn seal(&mut self, _: &mut EventQueue<Event>, res: &mut SimResult) {
        let recs = self
            .flows
            .iter()
            .zip(&res.flows)
            .enumerate()
            .map(|(i, (lg, fr))| {
                let rec = lg.to_record(i as u32, fr.end.map(|t| t.as_ns()));
                debug_assert_eq!(
                    rec.residue(),
                    fr.end.map(|_| 0i128),
                    "flow {i}: latency ledger not conserved ({:?})",
                    rec.phases
                );
                rec
            })
            .collect();
        res.ledger = Some(recs);
    }
}
