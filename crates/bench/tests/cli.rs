//! End-to-end tests for the harness binaries' error paths and exit codes:
//! `trace_inspect --metrics` must fail loudly (exit 2, positional
//! diagnostic) on malformed or truncated registry exports, and `benchcmp`
//! must diff two exports and refuse provenance mismatches without `--force`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tlt-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp fixture");
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A minimal well-formed `tlt-metrics/v1` export.
fn metrics_json() -> String {
    let mut reg = telemetry::Registry::new();
    reg.inc("data_pkts_sent", 128);
    reg.gauge_max("queue_peak_bytes", 9000);
    reg.observe("fct_us", 250);
    reg.to_json()
}

#[test]
fn trace_inspect_rejects_malformed_metrics_with_diagnostic() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");

    // Outright garbage: exit 2 and a parse diagnostic naming the file.
    let garbage = tmp("garbage.json", "this is not json {{{");
    let out = run(bin, &["--metrics", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot parse"), "diagnostic missing: {err}");
    assert!(err.contains("garbage.json"), "file name missing: {err}");

    // A truncated export (simulating a crashed producer) also exits 2 —
    // every prefix of a valid document must fail cleanly, never render a
    // partial registry as if it were complete.
    let good = metrics_json();
    let truncated = tmp("truncated.json", &good[..good.len() / 2]);
    let out = run(bin, &["--metrics", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-metrics JSON"));

    // The intact export still renders and exits 0.
    let intact = tmp("intact.json", &good);
    let out = run(bin, &["--metrics", intact.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("data_pkts_sent"));

    for p in [garbage, truncated, intact] {
        let _ = std::fs::remove_file(p);
    }
}

/// A minimal well-formed `tlt-spans/v1` export: one flow's phase breakdown
/// plus one request span so every section of the document is exercised.
fn spans_json() -> String {
    let mut rep = telemetry::SpanReport::new();
    let mut phases = telemetry::PhaseTimes::default();
    phases.add(telemetry::Phase::Serialization, 64_000);
    phases.add(telemetry::Phase::SwitchQueue, 21_000);
    phases.add(telemetry::Phase::RtoStall, 4_000_000);
    rep.record_flow("dctcp", &phases, phases.total(), 0);
    rep.record_violation("dctcp", telemetry::Phase::RtoStall);
    rep.push_request(telemetry::RequestSpan {
        scheme: "dctcp".to_string(),
        seed: 1,
        req: 0,
        start_ns: 0,
        latency_ns: phases.total(),
        dominant: telemetry::Phase::RtoStall,
        flows: vec![telemetry::FlowSpan {
            id: 0,
            role: "query".to_string(),
            start_ns: 0,
            end_ns: phases.total(),
            phases,
            stalls: Vec::new(),
        }],
    });
    rep.to_json()
}

#[test]
fn trace_inspect_rejects_malformed_spans_with_diagnostic() {
    let bin = env!("CARGO_BIN_EXE_trace_inspect");

    // Outright garbage: exit 2 and a parse diagnostic naming the file.
    let garbage = tmp("spans-garbage.json", "not even json [");
    let out = run(bin, &["--spans", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot parse"), "diagnostic missing: {err}");
    assert!(
        err.contains("spans-garbage.json"),
        "file name missing: {err}"
    );

    // Every truncation of a valid document must fail cleanly with the
    // positional schema diagnostic, never render a partial span report.
    let good = spans_json();
    let truncated = tmp("spans-truncated.json", &good[..good.len() * 2 / 3]);
    let out = run(bin, &["--spans", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-spans JSON"));

    // A document with the wrong schema tag is rejected, not misrendered.
    let wrong = tmp("spans-wrong-schema.json", &metrics_json());
    let out = run(bin, &["--spans", wrong.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid tlt-spans JSON"));

    // Missing file: exit 2 with an open diagnostic.
    let out = run(bin, &["--spans", "/nonexistent/spans.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot open"));

    // The intact export renders the phase table and exits 0.
    let intact = tmp("spans-intact.json", &good);
    let out = run(bin, &["--spans", intact.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(body.contains("rto_stall"), "phase table missing: {body}");
    assert!(body.contains("### spans"), "section header missing: {body}");

    for p in [garbage, truncated, wrong, intact] {
        let _ = std::fs::remove_file(p);
    }
}

/// A `tlt-metrics/v1` export with one counter value and provenance stamps.
fn metrics_report(pkts: u64, build_profile: &str) -> String {
    let mut reg = telemetry::Registry::new();
    reg.inc("data_pkts_sent", pkts);
    reg.gauge_max("queue_peak_bytes", 9000);
    reg.observe("fct_us", 250);
    reg.set_meta("scale", "quick");
    reg.set_meta("build_profile", build_profile);
    reg.to_json()
}

#[test]
fn benchcmp_diffs_and_refuses() {
    let bin = env!("CARGO_BIN_EXE_benchcmp");
    let old = tmp("cmp-old.json", &metrics_report(100, "release"));
    let more = tmp("cmp-more.json", &metrics_report(150, "release"));
    let debug = tmp("cmp-debug.json", &metrics_report(100, "debug"));
    let (old_p, more_p, debug_p) = (
        old.to_str().unwrap(),
        more.to_str().unwrap(),
        debug.to_str().unwrap(),
    );

    // Same file against itself: nothing changed, exit 0.
    let out = run(bin, &[old_p, old_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("5 keys compared, 0 changed"));

    // A changed counter shows up as a row; the diff is informational.
    let out = run(bin, &[old_p, more_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let table = stdout(&out);
    let row = table
        .lines()
        .find(|l| l.starts_with("counter/data_pkts_sent"))
        .unwrap_or_else(|| panic!("no row for the changed counter: {table}"));
    assert!(row.contains("100.000") && row.contains("150.000") && row.contains("+50.0%"));
    assert!(table.contains("1 changed"), "{table}");

    // debug-vs-release provenance: refuse without --force, warn with it.
    let out = run(bin, &[old_p, debug_p]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("build_profile"));
    let out = run(bin, &["--force", old_p, debug_p]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // Malformed input (with the parser's positional diagnostic) and bad
    // usage both exit 2.
    let bad = tmp("cmp-bad.json", "{\"schema\": ");
    let out = run(bin, &[old_p, bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("byte"), "{}", stderr(&out));
    let out = run(bin, &[old_p]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    let out = run(bin, &["--no-such-flag", old_p, more_p]);
    assert_eq!(out.status.code(), Some(2));

    // A key holding a quote and a backslash is escaped in --json output.
    let mut reg = telemetry::Registry::new();
    reg.inc("q\"uo\\te", 1);
    let q1 = tmp("cmp-q1.json", &reg.to_json());
    reg.inc("q\"uo\\te", 1);
    let q2 = tmp("cmp-q2.json", &reg.to_json());
    let out = run(bin, &["--json", q1.to_str().unwrap(), q2.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let js = stdout(&out);
    assert!(js.contains("\"schema\": \"tlt-benchcmp/v1\""), "json: {js}");
    assert!(
        js.contains(r#"{"key": "counter/q\"uo\\te", "old": 1, "new": 2, "pct": 100.0000}"#),
        "json: {js}"
    );

    for p in [old, more, debug, bad, q1, q2] {
        let _ = std::fs::remove_file(p);
    }
}
