//! Strict-invariant conservation ledger for the engine (debug builds).
//!
//! The engine moves every frame through the same narrow waist — serialized
//! at a port, destroyed on a faulty wire, delivered to a switch or an
//! endpoint — so conservation can be stated per link and audited at drain
//! time:
//!
//! ```text
//! serialized == dropped_at_tx + scheduled          (every tx accounted)
//! arrived    <= scheduled                          (rest is in flight)
//! ```
//!
//! and per *drop reason*, the ledger's engine-side counts must agree with
//! the [`AggregateStats`] the run reports. That last check is the teeth:
//! the ledger increments at the engine's emit points while the aggregate
//! counters come from switch internals and the fault state — two
//! independent accounting paths that a forgotten counter bump would split.
//!
//! Every [`telemetry::DropWhy`] variant is matched exhaustively in
//! `drop_slot`, so adding a drop reason without deciding how it is
//! accounted is a compile error here and a simlint D5 finding at the
//! source level.
//!
//! The ledger is the engine's auditor probe: debug builds carry it, release
//! builds carry `()` in its place.

use eventsim::{EventQueue, SimTime};
use netsim::packet::{Packet, PacketRef, PacketSlab};
use telemetry::DropWhy;

use crate::engine::{AggregateStats, Event, PortState, SimResult};
use crate::probe::Probe;

/// Index of a drop reason in the ledger's per-variant counts.
///
/// Exhaustive by construction: a new `DropWhy` variant fails to compile
/// until it is accounted here.
fn drop_slot(why: DropWhy) -> usize {
    match why {
        DropWhy::Color => 0,
        DropWhy::Dynamic => 1,
        DropWhy::Overflow => 2,
        DropWhy::Wire => 3,
        DropWhy::LinkDown => 4,
    }
}

/// Per-link frame/byte accounting.
#[derive(Clone, Copy, Debug, Default)]
struct LinkLedger {
    /// Frames that began serialization at the transmitting port.
    tx_frames: u64,
    tx_bytes: u64,
    /// Frames destroyed at serialization (downed or corrupting wire).
    txdrop_frames: u64,
    txdrop_bytes: u64,
    /// Frames whose delivery event was scheduled.
    sched_frames: u64,
    sched_bytes: u64,
    /// Frames whose delivery event fired (delivered or destroyed at
    /// arrival).
    arr_frames: u64,
    arr_bytes: u64,
}

/// The engine-wide conservation ledger.
#[derive(Clone, Debug)]
pub struct ConservationLedger {
    links: Vec<LinkLedger>,
    /// Frames dropped, indexed by [`drop_slot`].
    drops: [u64; 5],
}

impl ConservationLedger {
    /// Drain-time audit (`debug_assert!`-based): per-link conservation plus
    /// the cross-check of engine-side drop counts against the run's
    /// [`AggregateStats`].
    pub fn audit_final(&self, agg: &AggregateStats) {
        for (i, l) in self.links.iter().enumerate() {
            debug_assert_eq!(
                l.tx_frames,
                l.txdrop_frames + l.sched_frames,
                "link {i}: serialized frames != tx-dropped + scheduled"
            );
            debug_assert_eq!(
                l.tx_bytes,
                l.txdrop_bytes + l.sched_bytes,
                "link {i}: serialized bytes != tx-dropped + scheduled"
            );
            debug_assert!(
                l.arr_frames <= l.sched_frames && l.arr_bytes <= l.sched_bytes,
                "link {i}: more frames arrived than were scheduled"
            );
        }
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Color)],
            agg.drops_color,
            "engine-side color drops disagree with AggregateStats::drops_color"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Dynamic)],
            agg.drops_dt,
            "engine-side DT drops disagree with AggregateStats::drops_dt"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Overflow)],
            agg.drops_overflow,
            "engine-side overflow drops disagree with AggregateStats::drops_overflow"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Wire)],
            agg.wire_drops,
            "engine-side wire drops disagree with AggregateStats::wire_drops"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::LinkDown)],
            agg.down_drops,
            "engine-side link-down drops disagree with AggregateStats::down_drops"
        );
    }
}

impl Probe for ConservationLedger {
    fn new(links: usize, _flows: usize) -> ConservationLedger {
        ConservationLedger {
            links: vec![LinkLedger::default(); links],
            drops: [0; 5],
        }
    }

    fn on_arrival(&mut self, link: usize, pkt: &Packet) {
        let l = &mut self.links[link];
        l.arr_frames += 1;
        l.arr_bytes += u64::from(pkt.wire_size());
    }

    fn on_switch_drop(&mut self, why: DropWhy) {
        self.drops[drop_slot(why)] += 1;
    }

    fn on_tx(
        &mut self,
        link: usize,
        wire: u32,
        _: &mut PacketSlab,
        _: PacketRef,
        _: SimTime,
        _: &PortState,
        _: bool,
    ) {
        let l = &mut self.links[link];
        l.tx_frames += 1;
        l.tx_bytes += u64::from(wire);
    }

    fn on_tx_drop(&mut self, link: usize, wire: u32, why: DropWhy) {
        let l = &mut self.links[link];
        l.txdrop_frames += 1;
        l.txdrop_bytes += u64::from(wire);
        self.drops[drop_slot(why)] += 1;
    }

    fn on_wire(
        &mut self,
        link: usize,
        wire: u32,
        _: &mut PacketSlab,
        _: PacketRef,
        _: SimTime,
        _: SimTime,
    ) {
        let l = &mut self.links[link];
        l.sched_frames += 1;
        l.sched_bytes += u64::from(wire);
    }

    fn on_destroy(&mut self) {
        self.drops[drop_slot(DropWhy::LinkDown)] += 1;
    }

    fn seal(&mut self, _: &mut EventQueue<Event>, res: &mut SimResult) {
        self.audit_final(&res.agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::FlowId;

    /// Feeds one frame of `bytes` through the tx hook and, unless it died
    /// on the wire with `drop`, the wire hook.
    fn tx(led: &mut ConservationLedger, link: usize, bytes: u32, drop: Option<DropWhy>) {
        let mut slab = PacketSlab::with_capacity(1);
        let r = slab.insert(Packet::data(FlowId(0), 0, 0));
        let ps = PortState::default();
        led.on_tx(link, bytes, &mut slab, r, SimTime::ZERO, &ps, true);
        match drop {
            Some(why) => led.on_tx_drop(link, bytes, why),
            None => led.on_wire(link, bytes, &mut slab, r, SimTime::ZERO, SimTime::ZERO),
        }
    }

    /// A balanced ledger audits clean against matching aggregates.
    #[test]
    fn balanced_ledger_audits_clean() {
        let mut led = ConservationLedger::new(2, 0);
        let pkt = Packet::data(FlowId(0), 0, 1_000);
        tx(&mut led, 0, pkt.wire_size(), None);
        led.on_arrival(0, &pkt);
        tx(&mut led, 1, 500, Some(DropWhy::LinkDown));
        led.on_switch_drop(DropWhy::Color);
        let agg = AggregateStats {
            drops_color: 1,
            down_drops: 1,
            ..AggregateStats::default()
        };
        led.audit_final(&agg);
    }

    /// A consumed-but-unaccounted frame (scheduled without serialization)
    /// makes the per-link audit fire — the ledger is live.
    #[test]
    #[should_panic(expected = "serialized frames")]
    fn corrupted_link_ledger_fires() {
        let mut led = ConservationLedger::new(1, 0);
        let mut slab = PacketSlab::with_capacity(1);
        let r = slab.insert(Packet::data(FlowId(0), 0, 0));
        // Scheduled, never recorded as serialized.
        led.on_wire(0, 1_000, &mut slab, r, SimTime::ZERO, SimTime::ZERO);
        led.audit_final(&AggregateStats::default());
    }

    /// A drop path that forgot to report to the run-level counters fails
    /// the AggregateStats cross-check.
    #[test]
    #[should_panic(expected = "drops_color")]
    fn unreported_drop_fires_cross_check() {
        let mut led = ConservationLedger::new(1, 0);
        led.on_switch_drop(DropWhy::Color);
        led.audit_final(&AggregateStats::default()); // agg says zero drops
    }
}
