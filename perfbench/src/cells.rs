//! The benchmark's workloads, each a fixed list of simulation cells derived
//! from the benchmark seed.
//!
//! A cell is one (scheme, sub-seed) simulation. The simulator only ever sees
//! the `FlowSpec`s a cell's generator produces; every arrival is open-loop in
//! simulated time, and the discrete-event engine starts each one exactly when
//! it is due, so generator lateness is zero by construction.
//!
//! Flow sizes are heavy-tailed, so a fixed flow or request count offers a
//! byte volume (and so a host cost) that swings by tens of percent from seed
//! to seed. The mix and serving generators therefore run to a fixed offered
//! volume instead: the arrival stream is cut at the first flow (or request)
//! that reaches the volume a fixed count offers on average. Both generators
//! draw arrivals in sequence, so a shorter stream is a prefix of a longer
//! one from the same seed.

use dcsim::{small_single_switch, FlowSpec, SimConfig};
use eventsim::SimTime;
use netsim::topology::TopologySpec;
use netsim::LinkSpec;
use serve::{ServeParams, ServeWorkload};
use transport::TransportKind;
use workload::{incast_burst, standard_mix, FlowSizeCdf, MixParams};

/// Background flows per `leafspine_mix` cell, on average: the cell offers
/// their mean volume. Half the `tcp_family_mix` scale, so one run holds
/// enough timed rounds for a steady median.
const MIX_BG_FLOWS: usize = 200;
/// Independent inputs per `leafspine_mix` run, alternately lossy and PFC.
const MIX_INPUTS: u64 = 4;
/// Synchronized responders in one `incast_rto` burst: a degree at which the
/// baseline cells time out (at 100 none do).
const INCAST_DEGREE: usize = 200;
/// Bytes per incast response (the fig14 testbed size).
const INCAST_BYTES: u64 = 32_000;
/// Servers the incast connections are spread over (fig14).
const INCAST_SERVERS: usize = 8;
/// Independent incast bursts per `incast_rto` run.
const INCAST_INPUTS: u64 = 48;
/// Requests per `fattree_serve` cell, on average (the `serve_grid --scale
/// k8` size): the cell offers their mean volume.
const SERVE_REQUESTS: usize = 256;
/// Independent inputs per `fattree_serve` run, alternately at 1x and 2x.
const SERVE_INPUTS: u64 = 2;
/// Request SLO of `fattree_serve`.
pub const SLO: SimTime = SimTime::from_ms(2);

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["leafspine_mix", "fattree_serve", "incast_rto"];

/// How a cell makes its input.
#[derive(Clone, Debug)]
pub enum Gen {
    /// `workload::standard_mix` over the web-search CDF.
    Mix(MixParams),
    /// `workload::incast_burst`.
    Incast {
        /// Responders.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `serve::generate`.
    Serve(ServeParams, u64),
}

/// A generated cell input.
pub enum Input {
    /// Plain flows, summarized with `netstats::summarize_flows`.
    Flows(Vec<FlowSpec>),
    /// A request workload, accounted with `serve::account`.
    Serve(ServeWorkload),
}

/// The length of the shortest prefix of `sizes` whose sum reaches `target`
/// (all of it if none does).
fn prefix_reaching(sizes: impl Iterator<Item = u64>, target: f64) -> usize {
    let mut sum = 0u64;
    let mut n = 0;
    for b in sizes {
        n += 1;
        sum += b;
        if sum as f64 >= target {
            break;
        }
    }
    n
}

impl Gen {
    /// Runs the generator, cut at the fixed offered volume.
    pub fn generate(&self) -> Input {
        match self {
            Gen::Mix(p) => {
                let cdf = FlowSizeCdf::web_search();
                let target = p.bg_flows as f64 * cdf.mean_bytes();
                let mut long = *p;
                long.bg_flows = p.bg_flows * 4;
                let bg = standard_mix(&cdf, long);
                let mut cut = *p;
                cut.bg_flows =
                    prefix_reaching(bg.iter().filter(|f| !f.fg).map(|f| f.bytes), target);
                // The generator sizes the incasts from the background flow
                // count; rescale the foreground share so the cut keeps the
                // incast count (and bytes) of the nominal count.
                let odds =
                    p.fg_fraction / (1.0 - p.fg_fraction) * p.bg_flows as f64 / cut.bg_flows as f64;
                cut.fg_fraction = odds / (1.0 + odds);
                Input::Flows(standard_mix(&cdf, cut))
            }
            Gen::Incast { n, seed } => {
                Input::Flows(incast_burst(*n, INCAST_SERVERS, INCAST_BYTES, *seed))
            }
            Gen::Serve(p, seed) => {
                let width = 1.0 - p.fanout_fraction + p.fanout_fraction * p.fanout as f64;
                let per_request = width * (p.query_bytes as f64 + p.response_cdf.mean_bytes());
                let target = p.requests as f64 * per_request;
                let mut long = p.clone();
                long.requests = p.requests * 4;
                let wl = serve::generate(&long, *seed);
                let mut cut = p.clone();
                cut.requests = prefix_reaching(
                    wl.requests
                        .iter()
                        .map(|r| r.flow_ids().map(|f| wl.flows[f as usize].bytes).sum()),
                    target,
                );
                Input::Serve(serve::generate(&cut, *seed))
            }
        }
    }
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Scheme label plus sub-seed, e.g. `dctcp+pfc+tlt/s3`.
    pub name: String,
    /// Whether TLT is on (the `+tlt` cells feed the outcome metrics).
    pub tlt: bool,
    /// Whether PFC is on (guarded to emit pause frames on `leafspine_mix`).
    pub pfc: bool,
    /// Engine configuration, seeded.
    pub cfg: SimConfig,
    /// Input generator.
    pub gen: Gen,
}

fn label(kind: TransportKind, pfc: bool, tlt: bool) -> String {
    format!(
        "{}{}{}",
        kind.name().to_lowercase(),
        if pfc { "+pfc" } else { "" },
        if tlt { "+tlt" } else { "" }
    )
}

fn family(kind: TransportKind, topology: TopologySpec, tlt: bool, pfc: bool) -> SimConfig {
    let mut cfg = if kind.is_roce() {
        SimConfig::roce_family(kind)
    } else {
        SimConfig::tcp_family(kind)
    }
    .with_topology(topology);
    if tlt {
        cfg = cfg.with_tlt();
    }
    if pfc {
        cfg = cfg.with_pfc();
    }
    cfg
}

/// Input `i` of `n` for benchmark seed `seed`: distinct seeds give disjoint
/// sub-seeds.
fn sub_seed(seed: u64, n: u64, i: u64) -> u64 {
    seed.wrapping_mul(n).wrapping_add(i)
}

/// The cells of `workload` for benchmark seed `seed`, or `None` for an
/// unknown workload name. Cells compared with each other (base against
/// `+tlt`, scheme against scheme) share an input; everything else draws its
/// own, so a run averages over as many independent inputs as it can.
pub fn cells(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let mut out = Vec::new();
    let mut push = |kind: TransportKind, topo: &TopologySpec, pfc, tlt, tag: &str, s, gen: &Gen| {
        out.push(Cell {
            name: format!("{}{tag}/s{s}", label(kind, pfc, tlt)),
            tlt,
            pfc,
            cfg: family(kind, topo.clone(), tlt, pfc).with_seed(s),
            gen: gen.clone(),
        })
    };
    match workload {
        // DCTCP x {base, +tlt} x {lossy, PFC} on the 48-host leaf-spine.
        "leafspine_mix" => {
            for i in 0..MIX_INPUTS {
                let s = sub_seed(seed, MIX_INPUTS, i);
                let mut p = MixParams::reduced(MIX_BG_FLOWS);
                p.seed = s;
                let link = LinkSpec::new(p.link_bw_bps, SimTime::from_us(10));
                let topo = TopologySpec::LeafSpine {
                    cores: p.cores,
                    tors: p.tors,
                    hosts_per_tor: p.hosts / p.tors,
                    host_link: link,
                    fabric_link: link,
                };
                let pfc = i % 2 == 1;
                for tlt in [false, true] {
                    push(TransportKind::Dctcp, &topo, pfc, tlt, "", s, &Gen::Mix(p));
                }
            }
        }
        // Five schemes +- TLT at 1x and 2x load on the k=8 fat-tree.
        "fattree_serve" => {
            for i in 0..SERVE_INPUTS {
                let s = sub_seed(seed, SERVE_INPUTS, i);
                let (tag, gap_us) = if i % 2 == 0 { ("", 20) } else { ("@2x", 10) };
                let params = ServeParams {
                    hosts: 128,
                    requests: SERVE_REQUESTS,
                    mean_gap: SimTime::from_us(gap_us),
                    fanout: 32,
                    fanout_fraction: 0.25,
                    query_bytes: 1_600,
                    response_cdf: FlowSizeCdf::cache_follower(),
                    think: SimTime::from_us(5),
                    slo: SLO,
                };
                for kind in [
                    TransportKind::Tcp,
                    TransportKind::Dctcp,
                    TransportKind::DcqcnGbn,
                    TransportKind::DcqcnIrn,
                    TransportKind::Hpcc,
                ] {
                    let latency = SimTime::from_us(if kind.is_roce() { 1 } else { 10 });
                    let topo = TopologySpec::paper_fat_tree(8, latency);
                    for tlt in [false, true] {
                        push(
                            kind,
                            &topo,
                            false,
                            tlt,
                            tag,
                            s,
                            &Gen::Serve(params.clone(), s),
                        );
                    }
                }
            }
        }
        // Synchronized N->1 incast on one switch in drop mode.
        "incast_rto" => {
            let topo = small_single_switch(INCAST_SERVERS + 1);
            for i in 0..INCAST_INPUTS {
                let s = sub_seed(seed, INCAST_INPUTS, i);
                let gen = Gen::Incast {
                    n: INCAST_DEGREE,
                    seed: s,
                };
                for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
                    for tlt in [false, true] {
                        push(kind, &topo, false, tlt, "", s, &gen);
                    }
                }
            }
        }
        _ => return None,
    }
    Some(out)
}
