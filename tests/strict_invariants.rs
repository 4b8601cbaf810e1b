//! End-to-end exercise of the runtime invariant auditors.
//!
//! The auditors are `debug_assert!`-based, so they are live whenever debug
//! assertions are (plain `cargo test`). Each scenario drives
//! the engine through every drop path the conservation ledgers account —
//! color/DT/overflow rejects at the MMU, corruption on the wire, frames
//! destroyed by a downed link, PFC pause/resume churn — and then simply
//! finishing the run is the assertion: the eventsim pop-order audit, the
//! switch MMU ledger, and the engine's per-link ledger cross-checked
//! against `AggregateStats` all `debug_assert!` along the way (tests build
//! with debug assertions on). The explicit checks below only confirm the
//! audited paths actually ran.

use dcsim::{small_single_switch, Engine, FaultSchedule, FlowSpec, SimConfig};
use eventsim::SimTime;
use transport::TransportKind;

/// Synchronized incast plus a bulk flow on a small shared buffer: the
/// traffic shape that produces MMU drops of every flavor.
fn incast_flows(senders: usize, bulk: usize) -> Vec<FlowSpec> {
    let mut v: Vec<FlowSpec> = (1..=senders)
        .flat_map(|s| {
            [
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
                FlowSpec::new(s, 0, 8_000, SimTime::ZERO, true),
            ]
        })
        .collect();
    v.push(FlowSpec::new(bulk, 0, 400_000, SimTime::ZERO, false));
    v
}

/// TLT incast under a link flap and a PFC pause storm: color and DT drops
/// at the switch, frames destroyed on the downed link, pause/resume parity
/// at the ports. The run completing is the audit passing.
#[test]
fn faulted_tlt_incast_survives_all_audits() {
    let senders = 24;
    let bulk = senders + 1;
    let faults = FaultSchedule::new()
        .link_flap(
            SimTime::from_us(300),
            bulk as u32 + 1, // bulk sender's host node (switch is node 0)
            0,
            SimTime::from_us(5),
        )
        .pause_storm(SimTime::from_us(150), 0, bulk as u32, SimTime::from_us(100));
    let mut cfg = SimConfig::tcp_family(TransportKind::Tcp)
        .with_topology(small_single_switch(senders + 2))
        .with_tlt()
        .with_faults(faults);
    cfg.switch.buffer_bytes = 400_000;
    cfg.switch.color_threshold = Some(80_000);
    cfg.pfc = true;

    let result = Engine::new(cfg, incast_flows(senders, bulk)).run();

    assert!(
        result.flows.iter().all(|f| f.end.is_some()),
        "every flow completes despite faults"
    );
    // Flap = down + up events, storm = one event.
    assert_eq!(result.agg.faults_injected, 3, "flap and storm both fired");
    assert!(
        result.agg.drops_color + result.agg.drops_dt + result.agg.drops_overflow > 0,
        "incast actually exercised the MMU drop paths"
    );
    assert!(
        result.agg.down_drops > 0,
        "the flap actually destroyed frames in flight"
    );
    assert!(
        result.agg.pause_frames > 0,
        "PFC parity audit was exercised by real pause traffic"
    );
}

/// Uniform wire corruption: every serialized frame consults the loss model,
/// so the tx-drop leg of the per-link ledger (and its cross-check against
/// `AggregateStats::wire_drops`) sees real traffic.
#[test]
fn lossy_wire_run_balances_the_link_ledger() {
    let senders = 8;
    let bulk = senders + 1;
    let mut cfg = SimConfig::tcp_family(TransportKind::Dctcp)
        .with_topology(small_single_switch(senders + 2))
        .with_tlt();
    cfg.switch.buffer_bytes = 400_000;
    cfg.wire_loss_rate = 0.005;

    let result = Engine::new(cfg, incast_flows(senders, bulk)).run();

    assert!(
        result.flows.iter().all(|f| f.end.is_some()),
        "every flow completes despite corruption"
    );
    assert!(
        result.agg.wire_drops > 0,
        "the loss model actually dropped frames at serialization"
    );
}
