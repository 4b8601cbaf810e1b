//! The event-level engine profiler (feature `profile`).
//!
//! Compiled in only under the `profile` cargo feature — the same zero-cost
//! discipline as `ledger` — and collected unconditionally while
//! enabled, so a profiling build of any bench binary needs no extra flags.
//!
//! The profiler answers the question ROADMAP items 1–2 keep asking: where
//! do the engine's millions of events per second actually go? It tracks,
//! per [`EvKind`]:
//!
//! * **scheduled / executed / cancelled** counts. Cancellation in this
//!   engine is generation-based (a stale timer pops and no-ops) or
//!   implicit (events still queued — disarmed timers, post-horizon
//!   samples — when the run ends), so both flavors are reported:
//!   `event_stale/*` and `event_unpopped/*`, with the invariant
//!   `exec + stale + unpopped == sched` per kind.
//! * a **fan-out histogram** — how many new events each executed event
//!   scheduled. Wall-clock per event would break the determinism contract
//!   (and simlint D2); fan-out is the deterministic cost proxy that
//!   correlates with handler work, and the wall side lives in
//!   `perfbench/`, outside the simulation, where clocks are allowed.
//! * **per-component tallies** (switch / link / transport / timer / fault /
//!   sampler), splitting `Deliver` by where the frame landed — the per-LP
//!   accounting a conservative-PDES shard split will need.
//! * **queue health**: depth histogram after every pop, peak depth,
//!   push/pop churn, and timer-disarm sweep cost.
//! * three sim-time [`TimeSeries`]: events executed per window, packets in
//!   flight, and aggregate switch queue occupancy.
//!
//! Everything is integer and BTreeMap-ordered, so the exported
//! `tlt-profile/v1` JSON is byte-identical across `--jobs N`.

use eventsim::{EventQueue, SimTime};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::topology::{NodeId, PortId};
use telemetry::{Hist, Profile, TimeSeries, SERIES_BASE_WINDOW_NS};

use crate::engine::{Event, Ports, SimResult};
use crate::probe::Probe;

/// Number of event kinds in [`EvKind::ALL`].
pub const N_KINDS: usize = 10;

/// Discriminant of the engine's event enum, in a fixed export order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvKind {
    /// A flow's start time arrived.
    FlowStart,
    /// A port finished serializing a frame. Only pushed completions are
    /// counted: a port that goes idle settles its completion at its next
    /// kick, without an event.
    TxDone,
    /// A frame arrived at a node.
    Deliver,
    /// A transport timer fired (live or stale).
    Timer,
    /// A PFC pause/resume reached the upstream port.
    PfcSet,
    /// Periodic queue-depth sampling.
    QueueSample,
    /// Periodic trace sampling.
    TraceSample,
    /// A fault-schedule entry fired.
    Fault,
    /// A pause storm ended.
    StormEnd,
    /// A post-fault ECMP re-pin pass.
    Reroute,
}

impl EvKind {
    /// Every kind, in export order.
    pub const ALL: [EvKind; N_KINDS] = [
        EvKind::FlowStart,
        EvKind::TxDone,
        EvKind::Deliver,
        EvKind::Timer,
        EvKind::PfcSet,
        EvKind::QueueSample,
        EvKind::TraceSample,
        EvKind::Fault,
        EvKind::StormEnd,
        EvKind::Reroute,
    ];

    /// The metric-name suffix (`event_sched/<name>`, …).
    pub fn name(self) -> &'static str {
        match self {
            EvKind::FlowStart => "flow_start",
            EvKind::TxDone => "tx_done",
            EvKind::Deliver => "deliver",
            EvKind::Timer => "timer",
            EvKind::PfcSet => "pfc_set",
            EvKind::QueueSample => "queue_sample",
            EvKind::TraceSample => "trace_sample",
            EvKind::Fault => "fault",
            EvKind::StormEnd => "storm_end",
            EvKind::Reroute => "reroute",
        }
    }

    /// The kind bucket of an engine event.
    fn of(ev: &Event) -> EvKind {
        match ev {
            Event::FlowStart(_) => EvKind::FlowStart,
            Event::TxDone { .. } => EvKind::TxDone,
            Event::Deliver { .. } => EvKind::Deliver,
            Event::Timer { .. } => EvKind::Timer,
            Event::PfcSet { .. } => EvKind::PfcSet,
            Event::QueueSample => EvKind::QueueSample,
            Event::TraceSample => EvKind::TraceSample,
            Event::Fault(_) => EvKind::Fault,
            Event::StormEnd { .. } => EvKind::StormEnd,
            Event::Reroute => EvKind::Reroute,
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Sum of all switch egress queue bytes (the occupancy series sample).
fn total_queue_bytes(switches: &[Option<Switch>]) -> u64 {
    switches
        .iter()
        .flatten()
        .map(|sw| {
            (0..sw.config().ports)
                .map(|p| sw.queue_bytes(PortId(p as u32)))
                .sum::<u64>()
        })
        .sum()
}

/// Per-run profiler state: the engine's probe in `profile` builds, created
/// before the constructor schedules anything, so constructor-time
/// scheduling is counted too.
pub(crate) struct EngineProf {
    sched: [u64; N_KINDS],
    popped: [u64; N_KINDS],
    stale: [u64; N_KINDS],
    unpopped: [u64; N_KINDS],
    fanout: [Hist; N_KINDS],
    depth: Hist,
    deliver_endpoint: u64,
    deliver_transit: u64,
    deliver_destroyed: u64,
    disarm_sweeps: u64,
    disarm_cancels: u64,
    /// Events popped past the horizon (0 or 1): eventsim counts them in
    /// `queue_pops`, but they never execute, so no component owns them.
    horizon_pops: u64,
    /// Kind of the executing event and the queue's seq count before its
    /// handler ran (the fan-out base).
    cur: EvKind,
    seq_before: u64,
    /// `Deliver` events scheduled but not yet popped — frames on the wire.
    inflight: u64,
    /// Next sim-time (ns) at which to sample the gauge series.
    next_window: u64,
    s_events: TimeSeries,
    s_inflight: TimeSeries,
    s_qbytes: TimeSeries,
}

impl EngineProf {
    /// Samples the gauge series (in-flight frames, aggregate queue bytes)
    /// for the window containing `t`.
    fn sample_window(&mut self, t: SimTime, queue_bytes: u64) {
        self.s_inflight.record(t, self.inflight);
        self.s_qbytes.record(t, queue_bytes);
        self.next_window = (t.as_ns() / SERIES_BASE_WINDOW_NS + 1) * SERIES_BASE_WINDOW_NS;
    }

    /// Seals the run into a [`Profile`]. `peak`/`pushes`/`pops` come from
    /// the event queue's own (feature-gated) health counters; `pops` is
    /// snapshotted before the end-of-run drain that counts the unpopped.
    /// Every name is always written, even at zero, so the exported schema
    /// is identical across runs and configurations.
    ///
    /// # Panics
    ///
    /// Panics when the accounting does not close: a schedule site bypassed
    /// the profiler, an event was neither executed, stale nor unpopped, a
    /// `Deliver` pop was not split, or the component tallies plus the
    /// horizon pop miss the queue's own pop count.
    fn finish(&mut self, peak: u64, pushes: u64, pops: u64) -> Profile {
        let mut p = Profile::new();
        let exec = |s: &Self, k: EvKind| s.popped[k.idx()] - s.stale[k.idx()];

        let (mut sched_t, mut exec_t, mut stale_t, mut unpopped_t) = (0u64, 0u64, 0u64, 0u64);
        for k in EvKind::ALL {
            let i = k.idx();
            let r = &mut p.reg;
            r.inc(&format!("event_sched/{}", k.name()), self.sched[i]);
            r.inc(&format!("event_exec/{}", k.name()), exec(self, k));
            r.inc(&format!("event_stale/{}", k.name()), self.stale[i]);
            r.inc(&format!("event_unpopped/{}", k.name()), self.unpopped[i]);
            r.merge_hist(&format!("event_fanout/{}", k.name()), &self.fanout[i]);
            sched_t += self.sched[i];
            exec_t += exec(self, k);
            stale_t += self.stale[i];
            unpopped_t += self.unpopped[i];
        }
        // Every schedule site must route through the profiler, and every
        // scheduled event must end up executed, stale, or unpopped.
        assert_eq!(sched_t, pushes, "a schedule site bypassed the profiler");
        assert_eq!(
            exec_t + stale_t + unpopped_t,
            sched_t,
            "event not accounted"
        );
        assert_eq!(
            self.deliver_endpoint + self.deliver_transit + self.deliver_destroyed,
            self.popped[EvKind::Deliver.idx()],
            "deliver split incomplete"
        );

        let r = &mut p.reg;
        r.inc("events_scheduled_total", sched_t);
        r.inc("events_executed_total", exec_t);
        r.inc("events_cancelled_total", stale_t + unpopped_t);

        // Component attribution: every *executed or stale* pop belongs to
        // exactly one component; Deliver splits by where the frame landed.
        // With the horizon pop (which never executes) they close exactly
        // on the queue's own pop count.
        let popped = |k: EvKind| self.popped[k.idx()];
        let switch = self.deliver_transit + popped(EvKind::PfcSet);
        let link = popped(EvKind::TxDone) + self.deliver_destroyed;
        let transport = popped(EvKind::FlowStart) + self.deliver_endpoint;
        let timer = popped(EvKind::Timer);
        let fault = popped(EvKind::Fault) + popped(EvKind::StormEnd) + popped(EvKind::Reroute);
        let sampler = popped(EvKind::QueueSample) + popped(EvKind::TraceSample);
        assert_eq!(
            switch + link + transport + timer + fault + sampler + self.horizon_pops,
            pops,
            "component tallies plus the horizon pop miss a queue pop"
        );
        r.inc("component_exec/switch", switch);
        r.inc("component_exec/link", link);
        r.inc("component_exec/transport", transport);
        r.inc("component_exec/timer", timer);
        r.inc("component_exec/fault", fault);
        r.inc("component_exec/sampler", sampler);
        r.inc("deliver_endpoint", self.deliver_endpoint);
        r.inc("deliver_transit", self.deliver_transit);
        r.inc("deliver_destroyed", self.deliver_destroyed);
        r.inc("timer_disarm_sweeps", self.disarm_sweeps);
        r.inc("timer_disarms", self.disarm_cancels);
        r.inc("queue_pushes", pushes);
        r.inc("queue_pops", pops);
        r.gauge_max("queue_peak_depth", peak);
        r.merge_hist("queue_depth", &self.depth);

        p.series
            .insert("events".to_string(), std::mem::take(&mut self.s_events));
        p.series.insert(
            "inflight_pkts".to_string(),
            std::mem::take(&mut self.s_inflight),
        );
        p.series.insert(
            "queue_bytes".to_string(),
            std::mem::take(&mut self.s_qbytes),
        );
        p
    }
}

impl Probe for EngineProf {
    fn new(_links: usize, _flows: usize) -> EngineProf {
        EngineProf {
            sched: [0; N_KINDS],
            popped: [0; N_KINDS],
            stale: [0; N_KINDS],
            unpopped: [0; N_KINDS],
            fanout: std::array::from_fn(|_| Hist::default()),
            depth: Hist::default(),
            deliver_endpoint: 0,
            deliver_transit: 0,
            deliver_destroyed: 0,
            disarm_sweeps: 0,
            disarm_cancels: 0,
            horizon_pops: 0,
            cur: EvKind::FlowStart,
            seq_before: 0,
            inflight: 0,
            next_window: 0,
            s_events: TimeSeries::new(),
            s_inflight: TimeSeries::new(),
            s_qbytes: TimeSeries::new(),
        }
    }

    #[inline]
    fn on_sched(&mut self, ev: &Event) {
        let kind = EvKind::of(ev);
        self.sched[kind.idx()] += 1;
        if kind == EvKind::Deliver {
            self.inflight += 1;
        }
    }

    #[inline]
    fn on_pop(&mut self, ev: &Event, t: SimTime, q: &EventQueue<Event>, sw: &[Option<Switch>]) {
        self.cur = EvKind::of(ev);
        // Fan-out proxy: how many events this handler schedules (counting
        // seq reservations, so deferred timer arms still register as the
        // handler's work).
        self.seq_before = q.seq_total();
        if t.as_ns() >= self.next_window {
            self.sample_window(t, total_queue_bytes(sw));
        }
    }

    #[inline]
    fn on_executed(&mut self, t: SimTime, queue: &EventQueue<Event>) {
        let i = self.cur.idx();
        self.popped[i] += 1;
        self.fanout[i].observe(queue.seq_total() - self.seq_before);
        self.depth.observe(queue.len() as u64);
        self.s_events.record(t, 1);
        if self.cur == EvKind::Deliver {
            self.inflight -= 1;
        }
    }

    fn on_horizon(&mut self, ev: &Event) {
        self.horizon_pops += 1;
        self.unpopped[EvKind::of(ev).idx()] += 1;
    }

    #[inline]
    fn on_stale_timer(&mut self) {
        self.stale[EvKind::Timer.idx()] += 1;
    }

    #[inline]
    fn on_disarm(&mut self, cancelled: u64) {
        self.disarm_sweeps += 1;
        self.disarm_cancels += cancelled;
    }

    #[inline]
    fn on_enqueue(&mut self, _: &mut Packet, _: SimTime, _: &Ports, _: NodeId, _: PortId) {
        self.deliver_transit += 1;
    }

    #[inline]
    fn on_destroy(&mut self) {
        self.deliver_destroyed += 1;
    }

    #[inline]
    fn on_endpoint(&mut self, _: u32, _: SimTime, _: &Packet, _: bool) {
        self.deliver_endpoint += 1;
    }

    /// Everything still queued (post-horizon samples, disarmed timers,
    /// events orphaned by the all-flows-done break) is cancelled by
    /// truncation. Queue health counters are snapshotted first so the
    /// accounting drain itself isn't measured.
    fn seal(&mut self, queue: &mut EventQueue<Event>, res: &mut SimResult) {
        let peak = queue.peak_len() as u64;
        let pushes = queue.scheduled_total();
        let pops = queue.pops_total();
        while let Some((_, ev)) = queue.pop() {
            self.unpopped[EvKind::of(&ev).idx()] += 1;
        }
        res.profile = Some(self.finish(peak, pushes, pops));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dense_and_named_uniquely() {
        let mut names = std::collections::BTreeSet::new();
        for (i, k) in EvKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i, "ALL order must match discriminants");
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(names.len(), N_KINDS);
    }

    #[test]
    fn finish_reports_invariant_totals() {
        let mut slab = netsim::packet::PacketSlab::with_capacity(1);
        let pkt = slab.insert(Packet::data(netsim::packet::FlowId(0), 0, 0));
        let start = Event::FlowStart(0);
        let timer = Event::Timer {
            flow: 0,
            kind: transport::iface::TimerKind::Rto,
            gen: 0,
        };
        let deliver = Event::Deliver {
            to: NodeId(0),
            in_port: PortId(0),
            pkt,
        };
        let mut prof = EngineProf::new(0, 0);
        prof.on_sched(&start);
        prof.on_sched(&deliver);
        prof.on_sched(&timer);
        prof.on_sched(&timer);
        let q = EventQueue::with_capacity(1);
        let mut run = |ev: &Event, ns: u64| {
            prof.on_pop(ev, SimTime::from_ns(ns), &q, &[]);
            prof.on_executed(SimTime::from_ns(ns), &q);
        };
        run(&start, 10);
        run(&deliver, 20);
        run(&timer, 30);
        prof.deliver_endpoint += 1;
        prof.on_stale_timer();
        prof.on_horizon(&timer);
        let p = prof.finish(4, 4, 4);
        let r = &p.reg;
        assert_eq!(r.counter("events_scheduled_total"), 4);
        assert_eq!(r.counter("events_executed_total"), 2);
        assert_eq!(r.counter("events_cancelled_total"), 2);
        assert_eq!(r.counter("event_exec/timer"), 0);
        assert_eq!(r.counter("event_stale/timer"), 1);
        assert_eq!(r.counter("event_unpopped/timer"), 1);
        assert_eq!(r.counter("component_exec/transport"), 2);
        assert_eq!(r.counter("component_exec/timer"), 1);
        assert_eq!(r.gauge("queue_peak_depth"), 4);
        // Zero kinds are still present (schema stability).
        assert_eq!(r.counter("event_sched/reroute"), 0);
        assert!(r.hist("event_fanout/reroute").is_some());
        assert_eq!(p.series_get("events").unwrap().total_count(), 3);
    }

    /// A queue pop that is neither executed, stale nor a horizon pop breaks
    /// the component closure, and `finish` refuses to export it.
    #[test]
    #[should_panic(expected = "miss a queue pop")]
    fn unowned_queue_pop_fails_the_closure() {
        let mut prof = EngineProf::new(0, 0);
        let (start, q) = (Event::FlowStart(0), EventQueue::with_capacity(1));
        prof.on_sched(&start);
        prof.on_pop(&start, SimTime::from_ns(10), &q, &[]);
        prof.on_executed(SimTime::from_ns(10), &q);
        prof.finish(1, 1, 2);
    }
}
