//! Pinned outcomes: each scenario's result is folded into one FNV-1a
//! digest and compared against a constant recorded from a reference build
//! of the engine. Hot-path changes (event elision, queue layout, arena
//! moves) must leave every digest unchanged; a mismatch means the engine's
//! observable behaviour moved, not that the constant needs refreshing.
//!
//! The digest covers, per flow, `(start, end, timeouts, retx)`; every
//! `AggregateStats` counter (including `duration`, `events_scheduled` and
//! the pause fraction's bit pattern); the per-cause RTO counts; and a
//! summary of each sample bag.

use dcsim::{small_single_switch, Engine, FaultSchedule, FlowSpec, SimConfig, SimResult};
use eventsim::SimTime;
use netsim::switch::EcnConfig;
use netsim::topology::TopologySpec;
use transport::TransportKind;

/// FNV-1a over little-endian u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn samples(&mut self, s: &netstats::Samples) {
        self.word(s.len() as u64);
        if !s.is_empty() {
            self.word(s.min().to_bits());
            self.word(s.max().to_bits());
            self.word(s.mean().to_bits());
        }
    }
}

fn digest(res: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.word(res.flows.len() as u64);
    for f in &res.flows {
        h.word(f.start.as_ns());
        h.word(f.end.map_or(u64::MAX, |t| t.as_ns()));
        h.word(f.timeouts);
        h.word(f.retx);
    }
    let a = &res.agg;
    for x in [
        a.timeouts,
        a.fast_retx,
        a.data_pkts_sent,
        a.important_pkts,
        a.unimportant_pkts,
        a.clocking_pkts,
        a.clocking_bytes,
        a.drops_color,
        a.drops_dt,
        a.drops_overflow,
        a.drops_green_data,
        a.green_data_pkts,
        a.ce_marked,
        a.pause_frames,
        a.link_pause_fraction.to_bits(),
        a.max_queue_bytes,
        a.wire_drops,
        a.down_drops,
        a.faults_injected,
        a.first_fault_at.as_ns(),
        a.reroutes,
        a.timers_leaked,
        a.duration.as_ns(),
        a.events_scheduled,
    ] {
        h.word(x);
    }
    for (_, n) in a.rto_causes.iter() {
        h.word(n);
    }
    for s in [
        &a.queue_samples,
        &a.fg_rtt,
        &a.bg_rtt,
        &a.fg_rto,
        &a.bg_rto,
        &a.delivery,
    ] {
        h.samples(s);
    }
    h.0
}

fn check(label: &str, res: &SimResult, want: u64) {
    let got = digest(res);
    assert_eq!(
        got,
        want,
        "{label}: outcome digest moved to {got:#018x} (duration {} ns, \
         events_scheduled {}, timeouts {}, pause_frames {})",
        res.agg.duration.as_ns(),
        res.agg.events_scheduled,
        res.agg.timeouts,
        res.agg.pause_frames
    );
}

/// A drop-mode single-switch incast: 96 synchronized 8 kB flows overflow
/// the bottleneck egress and the tails recover by RTO.
#[test]
fn pinned_drop_mode_incast_with_rtos() {
    let mut cfg =
        SimConfig::tcp_family(TransportKind::Dctcp).with_topology(small_single_switch(49));
    cfg.switch.buffer_bytes = 800_000;
    cfg.switch.ecn = EcnConfig::Threshold { k: 100_000 };
    cfg.queue_sample_every = Some(SimTime::from_us(20));
    let flows: Vec<FlowSpec> = (1..49)
        .flat_map(|s| {
            [
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
            ]
        })
        .collect();
    let res = Engine::new(cfg, flows).run();
    assert!(res.agg.timeouts > 0, "the incast must fire RTOs");
    assert_eq!(res.agg.rto_causes.total(), res.agg.timeouts);
    check("incast", &res, PINNED_INCAST);
}

/// A lossless leaf–spine run: a cross-rack incast drives PFC pauses back
/// into the fabric while sparse short flows leave most ports idle between
/// frames, so paused ports and elided completions meet.
#[test]
fn pinned_leaf_spine_pfc_pauses() {
    let mut cfg = SimConfig::roce_family(TransportKind::DcqcnGbn).with_pfc();
    cfg.switch.buffer_bytes = 300_000;
    let mut flows: Vec<FlowSpec> = (1..13)
        .map(|r| FlowSpec::new(r * 8 - 3, 0, 150_000, SimTime::ZERO, true))
        .collect();
    for i in 0..24u64 {
        let src = (i as usize * 7 + 9) % 96;
        let dst = (i as usize * 13 + 50) % 96;
        if src != dst {
            flows.push(FlowSpec::new(
                src,
                dst,
                4_000,
                SimTime::from_us(3 * i),
                false,
            ));
        }
    }
    let res = Engine::new(cfg, flows).run();
    assert!(res.agg.pause_frames > 0, "PFC must engage");
    assert!(res.agg.link_pause_fraction > 0.0);
    check("leaf-spine pfc", &res, PINNED_LEAF_SPINE_PFC);
}

/// A k=4 fat-tree with an aggregation-to-core link failing mid-run under a
/// flow that crosses it; the reroute pass re-pins the flows it severed.
#[test]
fn pinned_fat_tree_link_down_reroute() {
    let cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(TopologySpec::paper_fat_tree(4, SimTime::from_us(10)));
    let topo = cfg.topology.build();
    let (src, dst) = (topo.hosts()[0], topo.hosts()[9]);
    // Flow 0's salt is `0 ^ seed`, so its pinned path is reproducible here.
    let hash = netsim::topology::Topology::ecmp_hash(src, dst, cfg.seed);
    let (fwd, _) = topo.pin_paths(src, dst, hash);
    let up = fwd[2]; // host -> edge -> [agg] -> core -> agg -> edge
    let cfg = cfg.with_faults(FaultSchedule::new().link_down_rerouted(
        SimTime::from_us(150),
        up.node.0,
        up.port.0,
        SimTime::from_us(100),
    ));
    let flows: Vec<FlowSpec> = (0..16)
        .map(|i| {
            let dst = if i == 0 { 9 } else { (i * 5 + 3) % 16 };
            let dst = if dst == i { (dst + 1) % 16 } else { dst };
            FlowSpec::new(i, dst, 400_000, SimTime::from_us(i as u64), i % 2 == 0)
        })
        .collect();
    let res = Engine::new(cfg, flows).run();
    assert!(res.agg.reroutes > 0, "the failed link must force a re-pin");
    assert!(res.agg.down_drops > 0, "frames died on the failed link");
    assert_eq!(res.agg.faults_injected, 1);
    check("fat-tree reroute", &res, PINNED_FAT_TREE_REROUTE);
}

// Recorded from the eager-completion engine (every `TxDone` pushed), which
// the lazy one must reproduce exactly.
const PINNED_INCAST: u64 = 0x7f62_ac35_c79b_d26d;
const PINNED_LEAF_SPINE_PFC: u64 = 0x9e13_3c3f_82a8_baaa;
const PINNED_FAT_TREE_REROUTE: u64 = 0x2f6e_4316_bec9_8bfa;
