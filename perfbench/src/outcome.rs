//! What a cell's simulation produced: the output checks, the outcome digest,
//! and the simulated quantities the end-to-end and per-layer metrics are
//! computed from. Nothing here is timed.

use dcsim::SimResult;
use serve::ServeWorkload;
use telemetry::{RtoCause, ServeReport};

use crate::cells::{Cell, SLO};

/// 64-bit FNV-1a, fed in a fixed order so the digest is a pure function of
/// the simulated outputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The simulated outputs of one cell that the benchmark reports or checks.
pub struct CellOutcome {
    pub tlt: bool,
    pub pfc: bool,
    /// Operations: flows, or requests on a serving cell.
    pub ops: usize,
    /// Operations that did not complete, or all of them if a check failed.
    pub failed: usize,
    pub flows: usize,
    /// FCTs of the completed flows of a `+tlt` cell (ns); empty otherwise.
    pub fct_ns: Vec<u64>,
    /// Requests issued (serving cells only).
    pub requests: usize,
    /// Latencies of the completed requests (ns).
    pub req_ns: Vec<u64>,
    /// Requests over the SLO, incomplete ones included.
    pub slo_miss: usize,
    pub timeouts: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    pub digest: u64,
    /// The `AggregateStats` counters the metrics use. The stats' sample
    /// vectors are not kept: they would inflate the peak RSS reported.
    pub agg: Counters,
    /// Retransmitted segments summed over flows.
    pub retx_pkts: u64,
    /// The engine profile's counters (`profile` feature builds only).
    pub profile: Option<telemetry::Registry>,
}

/// The `AggregateStats` counters the benchmark reports.
#[derive(Clone, Copy)]
pub struct Counters {
    pub events_scheduled: u64,
    pub data_pkts_sent: u64,
    pub important_pkts: u64,
    pub unimportant_pkts: u64,
    pub clocking_pkts: u64,
    pub fast_retx: u64,
    pub drops_color: u64,
    pub drops: u64,
    pub ce_marked: u64,
    pub pause_frames: u64,
}

/// Digests every simulated output of a run: per-flow completion, timeouts
/// and retransmissions, every `AggregateStats` counter, and the event count.
fn digest(res: &SimResult) -> u64 {
    let mut d = Digest::new();
    for f in &res.flows {
        d.u64(u64::from(f.id));
        d.u64(f.start.as_ns());
        d.u64(f.end.map_or(u64::MAX, |e| e.as_ns()));
        d.u64(f.timeouts);
        d.u64(f.retx);
    }
    let a = &res.agg;
    for v in [
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
        d.u64(v);
    }
    for c in RtoCause::ALL {
        d.u64(a.rto_causes.get(c));
    }
    d.u64(res.forensics.len() as u64);
    d.value()
}

/// The serving checks `serve_grid` asserts: per scheme, the violation causes
/// sum to the timeout-induced violations, which the recorded RTOs bound.
fn forensic_join(scheme: &str, rep: &ServeReport, rtos: usize, failures: &mut Vec<String>) {
    let viol = rep.reg.counter(&format!("serve_slo_viol_timeout/{scheme}"));
    let prefix = format!("serve_viol_cause/{scheme}/");
    let causes: u64 = rep
        .reg
        .counters()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum();
    if causes != viol {
        failures.push(format!(
            "violation causes sum to {causes}, timeout violations are {viol}"
        ));
    }
    if viol > rtos as u64 {
        failures.push(format!(
            "{viol} timeout violations but {rtos} recorded RTOs"
        ));
    }
}

/// Checks and summarizes one finished cell. On a serving cell, `requests`
/// holds the request index and `serve::account`'s report for it.
pub fn outcome(
    cell: &Cell,
    res: SimResult,
    requests: Option<(&ServeWorkload, &ServeReport)>,
) -> CellOutcome {
    let a = &res.agg;
    let mut check_failures = Vec::new();
    if a.rto_causes.total() != a.timeouts {
        check_failures.push(format!(
            "RTO causes sum to {}, timeouts are {}",
            a.rto_causes.total(),
            a.timeouts
        ));
    }
    if a.rto_causes.get(RtoCause::Unknown) != 0 {
        check_failures.push(format!(
            "{} RTOs with an unknown cause",
            a.rto_causes.get(RtoCause::Unknown)
        ));
    }
    if a.timers_leaked != 0 {
        check_failures.push(format!("{} timers leaked", a.timers_leaked));
    }
    let incomplete_flows = res.flows.iter().filter(|f| f.end.is_none()).count();
    let fct_ns: Vec<u64> = if cell.tlt {
        res.flows
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_ns())
            .collect()
    } else {
        Vec::new()
    };
    let (ops, incomplete, req_ns, slo_miss) = match requests {
        None => (res.flows.len(), incomplete_flows, Vec::new(), 0),
        Some((wl, rep)) => {
            forensic_join(&cell.name, rep, res.forensics.len(), &mut check_failures);
            let mut lat = Vec::with_capacity(wl.requests.len());
            for r in &wl.requests {
                let group = r.responses.iter().map(|&f| &res.flows[f as usize]);
                let done = r.flow_ids().all(|f| res.flows[f as usize].end.is_some());
                if let (true, Some(l)) = (done, netstats::fanin_latency(r.arrival, group)) {
                    lat.push(l.as_ns());
                }
            }
            let incomplete = wl.requests.len() - lat.len();
            let over = lat.iter().filter(|&&l| l > SLO.as_ns()).count();
            (wl.requests.len(), incomplete, lat, over + incomplete)
        }
    };
    let failed = if check_failures.is_empty() {
        incomplete
    } else {
        ops
    };
    CellOutcome {
        tlt: cell.tlt,
        pfc: cell.pfc,
        ops,
        failed,
        flows: res.flows.len(),
        digest: digest(&res),
        retx_pkts: res.flows.iter().map(|f| f.retx).sum(),
        timeouts: a.timeouts,
        fct_ns,
        requests: requests.map_or(0, |(wl, _)| wl.requests.len()),
        req_ns,
        slo_miss,
        check_failures,
        profile: res.profile.map(|p| p.reg),
        agg: Counters {
            events_scheduled: a.events_scheduled,
            data_pkts_sent: a.data_pkts_sent,
            important_pkts: a.important_pkts,
            unimportant_pkts: a.unimportant_pkts,
            clocking_pkts: a.clocking_pkts,
            fast_retx: a.fast_retx,
            drops_color: a.drops_color,
            drops: a.drops_color + a.drops_dt + a.drops_overflow,
            ce_marked: a.ce_marked,
            pause_frames: a.pause_frames,
        },
    }
}
