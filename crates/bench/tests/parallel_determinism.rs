//! Integration test for the parallel run harness: a (scheme, seed) grid
//! executed with `--jobs 4` must reproduce the `--jobs 1` results exactly —
//! every per-seed metric sample and every flight-recorder byte.

use bench::plan::{PlanOutput, RunPlan};
use bench::runner::{self, SchemeResult, TcpVariant};
use dcsim::small_single_switch;
use netstats::Metric;
use telemetry::TraceEvent;
use transport::TransportKind;
use workload::incast_burst;

/// A small but non-trivial grid: two transports × baseline/TLT, three
/// seeds each, on the single-switch incast topology.
fn grid(jobs: usize) -> RunPlan<'static> {
    let mut plan = RunPlan::sized(jobs, 3);
    for kind in [TransportKind::Tcp, TransportKind::Dctcp] {
        for v in [TcpVariant::Baseline, TcpVariant::Tlt] {
            plan.scheme(
                format!("{}/{}", kind.name(), v.label()),
                move |_s| {
                    let p = workload::MixParams::reduced(1);
                    runner::tcp_cfg(&p, kind, v, false).with_topology(small_single_switch(9))
                },
                |s| incast_burst(24, 8, 16_000, s),
            );
        }
    }
    plan
}

fn all_metrics(r: &SchemeResult) -> [&Metric; 12] {
    [
        &r.fg_p999_ms,
        &r.fg_p99_ms,
        &r.bg_avg_ms,
        &r.bg_goodput_gbps,
        &r.timeouts_per_1k,
        &r.pause_per_1k,
        &r.pause_frac,
        &r.important_frac,
        &r.important_loss,
        &r.clocking_kb,
        &r.max_queue_kb,
        &r.median_queue_kb,
    ]
}

fn assert_same_results(seq: &PlanOutput, par: &PlanOutput) {
    assert_eq!(seq.results.len(), par.results.len());
    assert_eq!(seq.events_scheduled, par.events_scheduled);
    for (a, b) in seq.results.iter().zip(&par.results) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.events_scheduled, b.events_scheduled, "{}", a.name);
        for (ma, mb) in all_metrics(a).iter().zip(all_metrics(b)) {
            // Exact per-seed sample equality, not just equal means: the
            // parallel fold must replay the sequential accumulation order.
            assert_eq!(ma.values(), mb.values(), "metric diverged for {}", a.name);
        }
    }
}

#[test]
fn jobs4_matches_jobs1_metrics() {
    let seq = grid(1).run_detailed();
    let par = grid(4).run_detailed();
    assert_eq!(seq.jobs_run, 12);
    assert_eq!(seq.workers, 1);
    assert!(par.workers > 1);
    assert!(seq.events_scheduled > 0);
    assert_same_results(&seq, &par);
}

#[test]
fn jobs4_matches_jobs1_trace_bytes() {
    let seq = grid(1).capture_trace(None).run_detailed();
    let par = grid(4).capture_trace(None).run_detailed();
    assert!(!seq.trace.is_empty());
    assert_eq!(
        seq.trace, par.trace,
        "flight-recorder bytes differ between --jobs 1 and --jobs 4"
    );

    // The merged trace is valid JSONL in plan order: one run_start/run_end
    // bracket per (scheme, seed) job, every line parseable.
    let text = String::from_utf8(seq.trace).expect("trace is utf-8");
    let mut starts = 0;
    let mut ends = 0;
    for line in text.lines() {
        let (_, ev) = TraceEvent::from_jsonl(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {line}: {e}"));
        match ev {
            TraceEvent::RunStart { .. } => starts += 1,
            TraceEvent::RunEnd { .. } => ends += 1,
            _ => {}
        }
    }
    assert_eq!(starts, 12, "one run_start per (scheme, seed) job");
    assert_eq!(ends, 12, "one run_end per (scheme, seed) job");
}
