//! The engine's one instrumentation seam.
//!
//! Every instrument that watches the event loop — the event profiler
//! (`profile` feature), the latency ledger (`ledger` feature) and the
//! per-link conservation auditor (debug builds) — is a [`Probe`]: a set of
//! named hooks at the sites where the engine moves events, frames and
//! flows, each with a no-op default. The engine holds exactly one probe
//! value, of the type [`Probes`] chosen below, and calls its hooks with
//! static dispatch. An instrument a build leaves out is `()`, whose hooks
//! are empty and inline to nothing, so the engine body carries no `cfg`.
//!
//! The hooks hand over borrowed engine state (the packet arena, a port's
//! pause state, the queue) rather than values derived from it, so a build
//! whose probes ignore a hook computes nothing for it.

use eventsim::{EventQueue, SimTime};
use netsim::packet::{Packet, PacketRef, PacketSlab};
use netsim::switch::Switch;
use netsim::topology::{NodeId, PortId};
use telemetry::DropWhy;
use transport::iface::FlowSender;

use crate::engine::{Event, PortState, Ports, SimResult};

#[cfg(feature = "profile")]
type Profiler = crate::profile::EngineProf;
#[cfg(not(feature = "profile"))]
type Profiler = ();

#[cfg(feature = "ledger")]
type Latency = crate::latency_probe::LatencyProbe;
#[cfg(not(feature = "ledger"))]
type Latency = ();

#[cfg(debug_assertions)]
type Auditor = crate::ledger::ConservationLedger;
#[cfg(not(debug_assertions))]
type Auditor = ();

/// The probe this build carries: profiler, latency ledger and conservation
/// auditor, each the real instrument or `()`.
pub(crate) type Probes = (Profiler, Latency, Auditor);

/// Declares the hooks once: the trait with a no-op default for each, and
/// the tuple impl that forwards each to every member in order.
macro_rules! hooks {
    ($($(#[$doc:meta])* fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);)*) => {
        /// Named hooks into the event loop. Every hook but the constructor is
        /// a no-op by default; an instrument overrides the ones it feeds on.
        #[allow(unused_variables, clippy::too_many_arguments)]
        pub(crate) trait Probe: Sized {
            /// The probe for a run over `links` unidirectional links and
            /// `flows` flows, built before the constructor schedules anything.
            fn new(links: usize, flows: usize) -> Self;

            $($(#[$doc])* fn $hook(&mut self $(, $arg: $ty)*) {})*

            /// Wraps the delivery of a reverse-direction packet to flow `f`'s
            /// sender: `deliver` hands it over.
            fn on_ack(
                &mut self,
                f: u32,
                now: SimTime,
                open: bool,
                sender: &mut dyn FlowSender,
                deliver: impl FnOnce(&mut dyn FlowSender),
            ) {
                deliver(sender);
            }
        }

        impl Probe for () {
            fn new(_links: usize, _flows: usize) {}
        }

        impl<A: Probe, B: Probe, C: Probe> Probe for (A, B, C) {
            fn new(links: usize, flows: usize) -> Self {
                (A::new(links, flows), B::new(links, flows), C::new(links, flows))
            }

            $(#[inline]
            fn $hook(&mut self $(, $arg: $ty)*) {
                self.0.$hook($($arg),*);
                self.1.$hook($($arg),*);
                self.2.$hook($($arg),*);
            })*

            #[inline]
            fn on_ack(
                &mut self,
                f: u32,
                now: SimTime,
                open: bool,
                sender: &mut dyn FlowSender,
                deliver: impl FnOnce(&mut dyn FlowSender),
            ) {
                let (a, b, c) = self;
                a.on_ack(f, now, open, sender, |s| {
                    b.on_ack(f, now, open, s, |s| c.on_ack(f, now, open, s, deliver))
                });
            }
        }
    };
}

hooks! {
    /// `ev` was pushed onto the event queue.
    fn on_sched(&mut self, ev: &Event);
    /// `ev` popped at `t` and is about to execute.
    fn on_pop(&mut self, ev: &Event, t: SimTime, queue: &EventQueue<Event>, switches: &[Option<Switch>]);
    /// The event popped at `t` finished executing.
    fn on_executed(&mut self, t: SimTime, queue: &EventQueue<Event>);
    /// `ev` popped past the horizon: the run ends without executing it.
    fn on_horizon(&mut self, ev: &Event);
    /// A timer popped whose generation no longer matched (a cancellation).
    fn on_stale_timer(&mut self);
    /// A completed flow's timers were swept; `cancelled` of them were armed.
    fn on_disarm(&mut self, cancelled: u64);
    /// A transport emitted `pkt`; it enters the egress queue of `host`
    /// (`ports` is the engine's per-node port table).
    fn on_send(&mut self, pkt: &mut Packet, now: SimTime, ports: &Ports, host: NodeId);
    /// A frame's delivery event fired at the receiving end of `link`.
    fn on_arrival(&mut self, link: usize, pkt: &Packet);
    /// A frame is about to be offered to egress `port` of transit switch
    /// `node`.
    fn on_enqueue(&mut self, pkt: &mut Packet, now: SimTime, ports: &Ports, node: NodeId, port: PortId);
    /// The switch MMU dropped the frame just offered.
    fn on_switch_drop(&mut self, why: DropWhy);
    /// Frame `pkt` left the queue of `port` (a host NIC when `host`) and
    /// began serializing onto `link` as `wire` bytes.
    fn on_tx(&mut self, link: usize, wire: u32, pkts: &mut PacketSlab, pkt: PacketRef, now: SimTime, port: &PortState, host: bool);
    /// The frame being serialized onto `link` died on the wire.
    fn on_tx_drop(&mut self, link: usize, wire: u32, why: DropWhy);
    /// The frame serialized onto `link` in `tx` arrives after a further
    /// `delay`; its delivery is being scheduled.
    fn on_wire(&mut self, link: usize, wire: u32, pkts: &mut PacketSlab, pkt: PacketRef, tx: SimTime, delay: SimTime);
    /// An arrived frame was destroyed (downed link or stale path).
    fn on_destroy(&mut self);
    /// Flow `f`'s start event executed at `t`.
    fn on_flow_start(&mut self, f: u32, t: SimTime);
    /// A packet of flow `f` reached its endpoint at `now`, before the
    /// transport sees it. `open` is whether the flow is still incomplete.
    fn on_endpoint(&mut self, f: u32, now: SimTime, pkt: &Packet, open: bool);
    /// Flow `f` registered an RTO at `t`, before it is attributed.
    fn on_rto(&mut self, f: u32, t: SimTime, open: bool);
    /// The run is over: audit, and write exports into `res`. Whatever is
    /// still queued was never executed.
    fn seal(&mut self, queue: &mut EventQueue<Event>, res: &mut SimResult);
}
