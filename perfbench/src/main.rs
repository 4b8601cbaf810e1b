//! The simulator's benchmark: host cost and TLT outcomes per workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--min-rounds <n>]
//!           [--traced --spans-out <file>]
//! ```
//!
//! Runs every cell of one workload (see `cells.rs`) in this process on one
//! thread: a warm-up round, then timed rounds until the next one would end
//! past `--seconds` and at least `--min-rounds` ran. Every round must
//! reproduce the warm-up round's outcome digest. Simulated metrics and
//! peak memory come from the warm-up round; simulated metrics are a pure
//! function of the seed. Host times are per cell, scaled to an unloaded
//! host's speed (see `clock.rs`), and a workload's time sums each cell's
//! median over the timed rounds.
//!
//! The last line of standard output is one JSON object. Untraced, it holds
//! the end-to-end metrics. With `--traced` (a `profile` feature build), it
//! holds the per-layer metrics instead: spans timed around each public call,
//! the engine's counts, per-op unit costs of each layer, and their
//! reconciliation with the measured `Engine::run` time; `run.py` adds the
//! overheads it measures against untraced and `ledger` builds.

mod cells;
mod clock;
mod layers;
mod outcome;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dcsim::Engine;
use outcome::{CellOutcome, Digest};

use crate::cells::{Cell, Input};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    min_rounds: usize,
    traced: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut min_rounds, mut traced, mut spans_out) = (3, false, None);
    let number = |v: String, flag: &str, max: u64| {
        v.parse::<u64>()
            .ok()
            .filter(|n| (1..=max).contains(n))
            .ok_or(format!("{flag} needs a whole number from 1 to {max}"))
    };
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => seconds = Some(number(value("--seconds")?, "--seconds", 600)?),
            "--min-rounds" => {
                min_rounds = number(value("--min-rounds")?, "--min-rounds", 100)? as usize
            }
            "--traced" => traced = true,
            "--spans-out" => spans_out = Some(value("--spans-out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        min_rounds,
        traced,
        spans_out,
    })
}

/// One timed span around a public call: the traced leg keeps these in
/// memory and writes them when the run ends. The parent is the cell.
struct Span {
    name: &'static str,
    round: usize,
    cell: usize,
    start_ns: u64,
    end_ns: u64,
}

/// The four timed calls of one cell: generation, `Engine::new`,
/// `Engine::run`, then summarization or accounting.
type Marks = [(&'static str, Instant, Instant); 4];

/// Runs one cell and returns its outcome with the span of each call.
fn run_cell(cell: &Cell) -> (CellOutcome, Marks) {
    let t0 = Instant::now();
    let input = cell.gen.generate();
    let t1 = Instant::now();
    let (flows, wl) = match input {
        Input::Flows(f) => (f, None),
        Input::Serve(mut wl) => (std::mem::take(&mut wl.flows), Some(wl)),
    };
    let eng = Engine::new(cell.cfg.clone(), flows);
    let t2 = Instant::now();
    let res = eng.run();
    let t3 = Instant::now();
    let (last, rep) = match &wl {
        None => {
            std::hint::black_box(netstats::summarize_flows(res.flows.iter(), |_| true));
            ("netstats.summarize_s", None)
        }
        // `account` reads only the request index, not the flow list that
        // was moved into the engine.
        Some(wl) => (
            "serve.account_s",
            Some(serve::account(&cell.name, wl, &res, cells::SLO)),
        ),
    };
    let t4 = Instant::now();
    let marks = [
        ("workload.gen_s", t0, t1),
        ("dcsim.new_s", t1, t2),
        ("dcsim.run_s", t2, t3),
        (last, t3, t4),
    ];
    let requests = wl.as_ref().zip(rep.as_ref());
    (outcome::outcome(cell, res, requests), marks)
}

/// The outcome digest repeats for a seed and changes with it.
fn self_test() -> Result<(), String> {
    let digest = |seed| {
        let cell = cells::cells("incast_rto", seed)
            .expect("a known workload")
            .swap_remove(0);
        run_cell(&cell).0.digest
    };
    let (a, b, c) = (digest(1), digest(1), digest(2));
    if a != b {
        return Err(format!("seed 1 gave {a:016x} then {b:016x}"));
    }
    if a == c {
        return Err(format!("seeds 1 and 2 both gave {a:016x}"));
    }
    Ok(())
}

/// Nearest-rank percentile of sorted `v` (0 when empty).
fn pct(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time this thread spent waiting for a CPU so far, in seconds.
fn runq_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// One reported metric: value, unit, and how many samples it summarizes.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<30} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The output checks of every cell plus the workload-validity guard: a
/// workload that no longer loads the mechanism it exists for is rejected.
fn check(workload: &str, cells: &[Cell], first: &[CellOutcome]) -> Vec<String> {
    let mut errors = Vec::new();
    for (cell, o) in cells.iter().zip(first) {
        for f in &o.check_failures {
            errors.push(format!("cell {}: {f}", cell.name));
        }
    }
    let base_rtos: u64 = first.iter().filter(|o| !o.tlt).map(|o| o.timeouts).sum();
    let pauses: u64 = first
        .iter()
        .filter(|o| o.pfc)
        .map(|o| o.agg.pause_frames)
        .sum();
    match workload {
        "incast_rto" if base_rtos == 0 => errors.push(
            "invalid workload: the baseline incast cells fired no RTOs, \
             so the recovery path it exists to load never ran"
                .to_string(),
        ),
        "leafspine_mix" if pauses == 0 => {
            errors.push("invalid workload: the PFC cells emitted no pause frames".to_string())
        }
        _ => {}
    }
    errors
}

/// The simulated outcomes of the first round, split into the end-to-end
/// FCT percentile and the outcomes reported with the per-layer metrics.
/// FCTs and request latencies are over the `+tlt` cells.
fn outcomes(first: &[CellOutcome]) -> (Vec<Metric>, Vec<Metric>) {
    let cells = |tlt: bool| first.iter().filter(move |o| o.tlt == tlt);
    let mut fct: Vec<u64> = cells(true).flat_map(|o| o.fct_ns.iter().copied()).collect();
    fct.sort_unstable();
    let mut req: Vec<u64> = cells(true).flat_map(|o| o.req_ns.iter().copied()).collect();
    req.sort_unstable();
    let per_1k = |tlt: bool| {
        let rtos: u64 = cells(tlt).map(|o| o.timeouts).sum();
        let flows: usize = cells(tlt).map(|o| o.flows).sum();
        (1000.0 * rtos as f64 / flows.max(1) as f64, flows)
    };
    let (base, base_n) = per_1k(false);
    let (tlt, tlt_n) = per_1k(true);
    let reqs: usize = cells(true).map(|o| o.requests).sum();
    let miss: usize = cells(true).map(|o| o.slo_miss).sum();
    let us = |ns: u64| ns as f64 / 1e3;
    let e2e = vec![metric("fct_p75_us", us(pct(&fct, 75.0)), "us", fct.len())];
    let layer = vec![
        metric("transport.fct_p50_us", us(pct(&fct, 50.0)), "us", fct.len()),
        metric("transport.fct_p99_us", us(pct(&fct, 99.0)), "us", fct.len()),
        metric("transport.rto_per_1k_base", base, "per1k", base_n),
        metric("transport.rto_per_1k_tlt", tlt, "per1k", tlt_n),
        metric("serve.req_p50_us", us(pct(&req, 50.0)), "us", req.len()),
        metric("serve.req_p99_us", us(pct(&req, 99.0)), "us", req.len()),
        metric(
            "serve.slo_miss_pct",
            100.0 * miss as f64 / reqs.max(1) as f64,
            "%",
            reqs,
        ),
    ];
    (e2e, layer)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 [--min-rounds <n>] [--traced --spans-out <file>]",
                cells::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(cells) = cells::cells(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            cells::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.traced && !cfg!(feature = "profile") {
        eprintln!("error: --traced needs a build with the `profile` feature");
        return ExitCode::from(2);
    }
    if let Err(e) = self_test() {
        eprintln!("error: digest self-test failed: {e}");
        return ExitCode::from(1);
    }

    let origin = Instant::now();
    let mut spans = args.traced.then(Vec::new);
    // Runs every cell once; in a timed round, each cell's times go to the
    // clock as soon as the cell ends, close to the reference sample that
    // scales them.
    let round = |r: usize, spans: &mut Option<Vec<Span>>, mut clock: Option<&mut clock::Clock>| {
        let mut d = Digest::new();
        let mut outs = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let (o, marks) = run_cell(cell);
            if let Some(c) = clock.as_deref_mut() {
                c.record(i, marks[1].2 - marks[0].1, marks[3].2 - marks[2].1);
            }
            d.u64(o.digest);
            outs.push((o, marks));
            if let Some(spans) = spans.as_mut() {
                spans.extend(marks.iter().map(|&(name, t0, t1)| Span {
                    name,
                    round: r,
                    cell: i,
                    start_ns: (t0 - origin).as_nanos() as u64,
                    end_ns: (t1 - origin).as_nanos() as u64,
                }));
            }
        }
        if let Some(c) = clock {
            c.flush();
        }
        (d.value(), outs)
    };
    // The warm-up round: outcomes, digest and peak memory; its times fill
    // caches and are not used. Peak memory is read now because the
    // allocator's footprint creeps up a little with each repeat.
    let (digest, warm) = round(0, &mut spans, None);
    let first: Vec<CellOutcome> = warm.into_iter().map(|(o, _)| o).collect();
    let rss = peak_rss_mb();

    let runq0 = runq_s();
    let mut clock = clock::Clock::new(cells.len());
    let mut span_min: Vec<BTreeMap<&'static str, Duration>> = vec![BTreeMap::new(); cells.len()];
    let deadline = Duration::from_secs(args.seconds);
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        let (d, outs) = round(rounds + 1, &mut spans, Some(&mut clock));
        if d != digest {
            eprintln!(
                "error: round {} digest {d:016x} differs from the warm-up's {digest:016x}",
                rounds + 1
            );
            return ExitCode::from(1);
        }
        for (i, (_, marks)) in outs.iter().enumerate() {
            for &(name, t0, t1) in marks {
                let m = span_min[i].entry(name).or_insert(t1 - t0);
                *m = (*m).min(t1 - t0);
            }
        }
        rounds += 1;
        let next_end = origin.elapsed() + round_start.elapsed();
        if rounds >= args.min_rounds && next_end > deadline {
            break;
        }
    }
    let runq = runq_s() - runq0;
    let (setup_s, wall_s) = clock.totals();

    let errors = check(&args.workload, &cells, &first);
    let attempted: usize = first.iter().map(|o| o.ops).sum();
    let failed: usize = first.iter().map(|o| o.failed).sum();
    let correct = errors.is_empty();
    let (sim, outcome_layer) = outcomes(&first);

    println!(
        "perfbench {} seed {}: {} cells x (1 warm-up + {rounds} timed rounds) on 1 thread, digest {digest:016x}",
        args.workload,
        args.seed,
        cells.len()
    );
    println!("  arrivals are open-loop in simulated time: generator lateness is 0 by construction");
    println!(
        "  operations: {attempted} attempted, {failed} failed; {} simulator events",
        first.iter().map(|o| o.agg.events_scheduled).sum::<u64>()
    );
    let mut e2e = vec![
        metric("wall_s", wall_s, "s", rounds),
        metric("setup_s", setup_s, "s", rounds),
        metric("peak_rss_mb", rss, "MB", 1),
    ];
    e2e.extend(sim);
    print_metrics(
        "end to end (n = timed rounds per cell, or samples; host s at unloaded speed):",
        &e2e,
    );
    if !args.traced {
        print_metrics(
            "outcomes (per-layer metrics of the traced leg):",
            &outcome_layer,
        );
    }
    for e in &errors {
        println!("  FAILED: {e}");
    }

    let metrics = if args.traced {
        let mut m = outcome_layer;
        m.extend(traced_metrics(&first, &span_min, &cells, rounds, runq));
        m.push(metric("traced_wall_s", wall_s, "s", rounds));
        print_metrics("per layer:", &m);
        if let (Some(path), Some(spans)) = (&args.spans_out, &spans) {
            if let Err(e) = write_spans(path, spans, &cells) {
                eprintln!("error: cannot write spans to {path}: {e}");
                return ExitCode::from(1);
            }
        }
        m
    } else {
        e2e
    };
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the traced leg's spans, one JSON object per line.
fn write_spans(path: &str, spans: &[Span], cells: &[Cell]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\": \"{}\", \"round\": {}, \"cell\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.round, cells[s.cell].name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Sums a profile counter over the cells.
fn prof_counter(outs: &[CellOutcome], name: &str) -> u64 {
    outs.iter()
        .filter_map(|o| o.profile.as_ref())
        .map(|r| r.counter(name))
        .sum()
}

/// The per-layer metrics of the traced leg.
fn traced_metrics(
    first: &[CellOutcome],
    span_min: &[BTreeMap<&'static str, Duration>],
    cells: &[Cell],
    rounds: usize,
    runq: f64,
) -> Vec<Metric> {
    // Spans are raw host seconds, each cell's fastest timed round, like the
    // unit costs they are reconciled with.
    let span = |name: &str| {
        span_min
            .iter()
            .filter_map(|b| b.get(name))
            .sum::<Duration>()
            .as_secs_f64()
    };
    let agg =
        |f: &dyn Fn(&outcome::Counters) -> u64| -> u64 { first.iter().map(|o| f(&o.agg)).sum() };
    let events = agg(&|a| a.events_scheduled);
    let run_s = span("dcsim.run_s");
    let timer_exec = prof_counter(first, "event_exec/timer");
    let timer_pops = timer_exec + prof_counter(first, "event_stale/timer");
    let profiles = || first.iter().filter_map(|o| o.profile.as_ref());
    let peak_depth = profiles()
        .map(|r| r.gauge("queue_peak_depth"))
        .max()
        .unwrap_or(0);
    let (depth_sum, depth_n) = profiles()
        .filter_map(|r| r.hist("queue_depth"))
        .fold((0u64, 0u64), |(s, n), h| (s + h.sum, n + h.count));
    let counts = layers::Counts {
        events,
        deliver_transit: prof_counter(first, "deliver_transit"),
        deliver_endpoint: prof_counter(first, "deliver_endpoint"),
        mean_depth: depth_sum / depth_n.max(1),
        data_pkts: agg(&|a| a.data_pkts_sent),
        drops: agg(&|a| a.drops),
        ecn_marks: agg(&|a| a.ce_marked),
    };
    let important = agg(&|a| a.important_pkts);
    let marked = important + agg(&|a| a.unimportant_pkts);
    let important_frac = important as f64 / marked.max(1) as f64;
    let costs = layers::unit_costs(&layers::Shape::of(cells, &counts, important_frac));
    let per_cell: Vec<layers::CellCounts> = first
        .iter()
        .map(|o| layers::CellCounts {
            endpoint: o
                .profile
                .as_ref()
                .map_or(0, |r| r.counter("deliver_endpoint")),
            data: o.agg.data_pkts_sent,
            drops: o.agg.drops,
        })
        .collect();
    let predicted = layers::predict(&counts, &costs, cells, &per_cell);
    let retx: u64 = first.iter().map(|o| o.retx_pkts).sum();
    let data = counts.data_pkts.max(1) as f64;
    let count = |name, v: u64| metric(name, v as f64, "count", 1);
    let mut m = vec![
        metric("workload.gen_s", span("workload.gen_s"), "s", rounds),
        metric("dcsim.new_s", span("dcsim.new_s"), "s", rounds),
        metric("dcsim.run_s", run_s, "s", rounds),
        metric(
            "netstats.summarize_s",
            span("netstats.summarize_s"),
            "s",
            rounds,
        ),
        metric("serve.account_s", span("serve.account_s"), "s", rounds),
        count("dcsim.events", events),
        metric(
            "dcsim.ns_per_event",
            run_s * 1e9 / events.max(1) as f64,
            "ns",
            rounds,
        ),
        count("dcsim.tx_done", prof_counter(first, "event_exec/tx_done")),
        count("dcsim.deliver_transit", counts.deliver_transit),
        count("dcsim.deliver_endpoint", counts.deliver_endpoint),
        count("dcsim.timer_pops", timer_pops),
        metric(
            "dcsim.timer_live_ratio",
            timer_exec as f64 / timer_pops.max(1) as f64,
            "ratio",
            timer_pops as usize,
        ),
        count("eventsim.queue_peak_depth", peak_depth),
        count("netsim.drops", counts.drops),
        count("netsim.color_drops", agg(&|a| a.drops_color)),
        count("netsim.ecn_marks", counts.ecn_marks),
        count("netsim.pause_frames", agg(&|a| a.pause_frames)),
        count("transport.retx_fast", agg(&|a| a.fast_retx)),
        metric(
            "transport.goodput_ratio",
            (data - retx as f64) / data,
            "ratio",
            counts.data_pkts as usize,
        ),
        metric(
            "tlt-core.important_frac",
            important_frac,
            "ratio",
            marked as usize,
        ),
        count("tlt-core.clocking_pkts", agg(&|a| a.clocking_pkts)),
    ];
    for (name, ns) in costs.list() {
        m.push(metric(name, ns, "ns", costs.samples));
    }
    m.push(metric("dcsim.predicted_run_s", predicted, "s", 1));
    m.push(metric(
        "dcsim.residual_pct",
        100.0 * (run_s - predicted) / run_s.max(1e-12),
        "%",
        rounds,
    ));
    m.push(metric("host.runq_s", runq, "s", 1));
    m
}

#[cfg(test)]
mod tests {
    #[test]
    fn digest_repeats_for_a_seed_and_changes_with_it() {
        super::self_test().expect("digest self-test");
    }
}
