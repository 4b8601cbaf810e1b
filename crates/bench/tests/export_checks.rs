//! The artifact checks CI once ran in Python, in Rust: `tlt-metrics/v1`,
//! `tlt-profile/v1`, `tlt-serve/v1`, `tlt-spans/v1` and the Perfetto
//! rendering of the spans, against the schema snapshot in
//! `ci/metrics_schema.json`. Key presence inside the registries is checked
//! at the source level by simlint S1/S2, and the profiler asserts its event
//! accounting itself when it seals a run, so neither is repeated here.
//!
//! Every check has a seeded mutation of a valid export that it must
//! reject, and the real `--quick` exports must pass: metrics and serve in
//! every build, profile and spans in the builds that produce them.

use std::collections::BTreeMap;

use bench::profiler::Provenance;
use bench::runner::Args;
use json::Value;
use telemetry::{FlowSpan, Phase, PhaseTimes, RequestSpan, RtoCause, SpanReport};

/// The checked-in schema snapshot: the metrics schema at the root, the
/// others in named sections.
fn schema(section: Option<&str>) -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/metrics_schema.json");
    let text = std::fs::read_to_string(path).expect("read ci/metrics_schema.json");
    let doc = json::parse(&text).expect("schema snapshot parses");
    match section {
        Some(name) => doc.get(name).expect("schema section").clone(),
        None => doc,
    }
}

/// The string list under `name` in a schema section.
fn listed<'a>(schema: &'a Value, name: &str) -> Vec<&'a str> {
    let list = schema.get(name).map(Value::str_items).unwrap_or_default();
    list.into_iter().map(|(key, _)| key).collect()
}

/// The number under `key`, 0 when absent.
fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// The envelope every artifact shares: schema tag, top-level keys and
/// required meta.
fn check_envelope(doc: &Value, schema: &Value) -> Result<(), String> {
    let want = schema.get("schema").and_then(Value::as_str);
    let got = doc.get("schema").and_then(Value::as_str);
    if got != want {
        return Err(format!("schema tag {got:?}, want {want:?}"));
    }
    if let Some(key) = listed(schema, "top_level")
        .into_iter()
        .find(|k| doc.get(k).is_none())
    {
        return Err(format!("missing top-level key {key:?}"));
    }
    let meta = doc.get("meta").ok_or("missing meta")?;
    match listed(schema, "required_meta")
        .into_iter()
        .find(|k| meta.get(k).is_none())
    {
        Some(key) => Err(format!("missing meta key {key:?}")),
        None => Ok(()),
    }
}

/// `jobs == "any"`: the export is byte-identical under every worker count.
fn check_jobs(doc: &Value) -> Result<(), String> {
    let jobs = doc
        .get("meta")
        .and_then(|m| m.get("jobs"))
        .and_then(Value::as_str);
    match jobs {
        Some("any") => Ok(()),
        _ => Err(format!("meta jobs {jobs:?}, want \"any\"")),
    }
}

/// The histograms: every one has exactly the schema's fields, and its
/// count is the sum of its buckets.
fn check_hists<'a>(
    doc: &'a Value,
    schema: &Value,
) -> Result<&'a BTreeMap<String, (Value, u32)>, String> {
    let Some(Value::Obj(hists)) = doc.get("hists") else {
        return Err("hists is not an object".into());
    };
    let mut fields = listed(schema, "hist_fields");
    fields.sort_unstable();
    for (name, (h, _)) in hists {
        let Value::Obj(h_fields) = h else {
            return Err(format!("hist {name} is not an object"));
        };
        if h_fields.keys().map(String::as_str).collect::<Vec<_>>() != fields {
            return Err(format!("hist {name} fields differ from the schema"));
        }
        let buckets = h.get("buckets").map_or(&[][..], Value::items);
        let in_buckets: u64 = buckets
            .iter()
            .filter_map(|b| b.items().get(1)?.as_u64())
            .sum();
        if num(h, "count") != in_buckets {
            return Err(format!("hist {name} count != bucket sum"));
        }
    }
    Ok(hists)
}

/// The schemes of a report: the suffixes of its hists named `prefix`.
fn schemes<'a>(
    hists: &'a BTreeMap<String, (Value, u32)>,
    prefix: &str,
    want: usize,
) -> Result<Vec<&'a str>, String> {
    let names: Vec<&str> = hists
        .keys()
        .filter_map(|n| n.strip_prefix(prefix))
        .collect();
    if names.len() != want {
        return Err(format!("{} schemes, want {want}", names.len()));
    }
    Ok(names)
}

fn check_profile(text: &str, schema: &Value) -> Result<(), String> {
    let doc = json::parse(text)?;
    check_envelope(&doc, schema)?;
    check_jobs(&doc)
}

/// A metrics export: every RTO attributed to a known cause.
fn check_metrics(text: &str, schema: &Value) -> Result<(), String> {
    let doc = json::parse(text)?;
    check_envelope(&doc, schema)?;
    check_jobs(&doc)?;
    check_hists(&doc, schema)?;
    let Some(Value::Obj(counters)) = doc.get("counters") else {
        return Err("counters is not an object".into());
    };
    let causes: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("rto_cause_"))
        .filter_map(|(_, (v, _))| v.as_u64())
        .sum();
    let timeouts = counters
        .get("timeouts")
        .and_then(|(v, _)| v.as_u64())
        .unwrap_or(0);
    if causes != timeouts {
        return Err(format!("rto causes {causes} != timeouts {timeouts}"));
    }
    match counters
        .get("rto_cause_unknown")
        .and_then(|(v, _)| v.as_u64())
    {
        Some(0) => Ok(()),
        n => Err(format!("rto_cause_unknown {n:?}, want 0")),
    }
}

/// A serve export over `want` schemes: every request lands in exactly one
/// bucket, and the forensic join (causes sum to timeout violations, bounded
/// by the recorded RTOs) holds.
fn check_serve(text: &str, schema: &Value, want: usize) -> Result<(), String> {
    let doc = json::parse(text)?;
    check_envelope(&doc, schema)?;
    check_jobs(&doc)?;
    let hists = check_hists(&doc, schema)?;
    let c = doc.get("counters").ok_or("no counters")?;
    let Value::Obj(all) = c else {
        return Err("counters is not an object".into());
    };
    for sch in schemes(hists, "serve_req_latency_ns/", want)? {
        let done = num(&hists[&format!("serve_req_latency_ns/{sch}")].0, "count");
        let total = num(c, &format!("serve_requests/{sch}"));
        if done + num(c, &format!("serve_incomplete/{sch}")) != total {
            return Err(format!("{sch}: completed + incomplete != requests"));
        }
        let viol_t = num(c, &format!("serve_slo_viol_timeout/{sch}"));
        let prefix = format!("serve_viol_cause/{sch}/");
        let causes: u64 = all
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(_, (v, _))| v.as_u64())
            .sum();
        if causes != viol_t {
            return Err(format!(
                "{sch}: causes {causes} != timeout violations {viol_t}"
            ));
        }
        if viol_t > num(c, &format!("serve_rtos/{sch}")) {
            return Err(format!("{sch}: more timeout violations than RTOs"));
        }
    }
    Ok(())
}

/// A spans export covering `schemes` schemes: the envelope, complete hists,
/// and the ledger's conservation closure per scheme and per reservoir flow.
fn check_spans(text: &str, schema: &Value, want: usize) -> Result<(), String> {
    let doc = json::parse(text)?;
    check_envelope(&doc, schema)?;
    let hists = check_hists(&doc, schema)?;
    let counters = doc.get("counters").ok_or("no counters")?;
    for sch in schemes(hists, "span_fct_ns/", want)? {
        let fct = &hists[&format!("span_fct_ns/{sch}")].0;
        let prefix = format!("span_phase_ns/{sch}/");
        let phase_sum: u64 = hists
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix))
            .map(|(_, (h, _))| num(h, "sum"))
            .sum();
        if num(counters, &format!("span_unattributed_ns/{sch}")) != 0 {
            return Err(format!("{sch}: unattributed time"));
        }
        if phase_sum != num(fct, "sum") {
            return Err(format!(
                "{sch}: phase sum {phase_sum} != fct sum {}",
                num(fct, "sum")
            ));
        }
        if num(counters, &format!("span_flows/{sch}")) != num(fct, "count") {
            return Err(format!("{sch}: span_flows != fct count"));
        }
    }
    for span in doc.get("spans").map_or(&[][..], Value::items) {
        for f in span.get("flows").map_or(&[][..], Value::items) {
            let Some(Value::Obj(phases)) = f.get("phases") else {
                return Err("reservoir flow without phases".into());
            };
            let total: u64 = phases.values().filter_map(|(v, _)| v.as_u64()).sum();
            if total != num(f, "end") - num(f, "start") {
                return Err(format!(
                    "reservoir request {} flow {} not closed",
                    num(span, "req"),
                    num(f, "id")
                ));
            }
        }
    }
    Ok(())
}

/// The Perfetto trace-event rendering of a spans export.
fn check_perfetto(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    if doc.get("displayTimeUnit").and_then(Value::as_str) != Some("ns") {
        return Err("displayTimeUnit is not ns".into());
    }
    let schema = doc
        .get("otherData")
        .and_then(|o| o.get("schema"))
        .and_then(Value::as_str);
    if schema != Some("tlt-spans/v1") {
        return Err(format!("otherData schema {schema:?}"));
    }
    let events = doc.get("traceEvents").map(Value::items).unwrap_or_default();
    if events.is_empty() {
        return Err("no trace events".into());
    }
    for e in events {
        if let Some(k) = ["name", "cat", "ph", "ts", "dur", "pid", "tid"]
            .into_iter()
            .find(|k| e.get(k).is_none())
        {
            return Err(format!("event without {k:?}"));
        }
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            return Err("event phase is not X".into());
        }
        let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
        if !["request", "flow", "stall"].contains(&cat) {
            return Err(format!("event category {cat:?}"));
        }
    }
    Ok(())
}

/// Replaces the first occurrence of `from` in `text`, which must have one.
fn mutate(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "seed {from:?} not in the export");
    text.replacen(from, to, 1)
}

/// Asserts that each mutated export fails with a message containing its
/// expected fragment.
fn assert_fires(cases: Vec<(String, &str)>, check: impl Fn(&str) -> Result<(), String>) {
    for (bad, want) in cases {
        let err = check(&bad).expect_err(want);
        assert!(err.contains(want), "{want}: got {err}");
    }
}

/// A valid profile export with one counter, stamped like a harness binary's.
fn profile_export() -> String {
    let mut p = telemetry::Profile::new();
    p.reg.inc("events_scheduled_total", 7);
    stamp(&mut p.reg);
    p.to_json()
}

/// Provenance of a `--quick` run, as a harness binary stamps it.
fn stamp(reg: &mut telemetry::Registry) {
    let args = Args::parse_from(["--quick"]).expect("args");
    Provenance::deterministic(&args).stamp(reg);
}

/// A valid metrics export: two attributed timeouts and one hist.
fn metrics_export() -> String {
    let mut reg = telemetry::Registry::new();
    stamp(&mut reg);
    for cause in RtoCause::ALL {
        reg.inc(&format!("rto_cause_{}", cause.as_str()), 0);
    }
    reg.inc("rto_cause_congestion", 2);
    reg.inc("timeouts", 2);
    reg.observe("pfc_pause_ns/n1/p0", 700);
    reg.to_json()
}

/// A valid one-scheme serve export: three requests, one incomplete, one
/// timeout violation backed by one cause and two RTOs.
fn serve_export() -> String {
    let mut reg = telemetry::Registry::new();
    stamp(&mut reg);
    reg.set_meta("slo_ns", "2000000");
    reg.set_meta("workload", "cache_follower");
    reg.observe("serve_req_latency_ns/tcp", 90_000);
    reg.observe("serve_req_latency_ns/tcp", 5_000_000);
    for (k, v) in [
        ("serve_requests/tcp", 3),
        ("serve_incomplete/tcp", 1),
        ("serve_slo_viol_timeout/tcp", 1),
        ("serve_viol_cause/tcp/congestion", 1),
        ("serve_rtos/tcp", 2),
    ] {
        reg.inc(k, v);
    }
    telemetry::ServeReport { reg }.to_json()
}

/// A valid one-scheme spans report with one closed reservoir request.
fn span_report() -> SpanReport {
    let mut rep = SpanReport::new();
    let mut phases = PhaseTimes::default();
    phases.add(Phase::Serialization, 64_000);
    phases.add(Phase::SwitchQueue, 21_000);
    phases.add(Phase::RtoStall, 4_000_000);
    rep.record_flow("dctcp", &phases, phases.total(), 0);
    rep.record_violation("dctcp", Phase::RtoStall);
    rep.push_request(RequestSpan {
        scheme: "dctcp".to_string(),
        seed: 1,
        req: 0,
        start_ns: 0,
        latency_ns: phases.total(),
        dominant: Phase::RtoStall,
        flows: vec![FlowSpan {
            id: 0,
            role: "query".to_string(),
            start_ns: 0,
            end_ns: phases.total(),
            phases,
            stalls: Vec::new(),
        }],
    });
    for (k, v) in [
        ("scale", "k8"),
        ("slo_ns", "2000000"),
        ("workload", "cache_follower"),
    ] {
        rep.reg.set_meta(k, v);
    }
    rep
}

#[test]
fn metrics_checks_fire_on_their_mutations() {
    let schema = schema(None);
    let good = metrics_export();
    check_metrics(&good, &schema).expect("valid export passes");
    let cases = vec![
        (
            mutate(&good, "\"tlt-metrics/v1\"", "\"tlt-metrics/v2\""),
            "schema tag",
        ),
        (
            mutate(&good, "\"gauges\"", "\"gauge\""),
            "top-level key \"gauges\"",
        ),
        (mutate(&good, "\"seeds\"", "\"seed\""), "meta key \"seeds\""),
        (
            mutate(&good, "\"jobs\": \"any\"", "\"jobs\": \"2\""),
            "meta jobs",
        ),
        (mutate(&good, "\"max\"", "\"top\""), "fields differ"),
        (
            mutate(&good, "\"count\":1,", "\"count\":3,"),
            "count != bucket sum",
        ),
        (
            mutate(&good, "\"timeouts\": 2", "\"timeouts\": 3"),
            "!= timeouts",
        ),
        (
            mutate(
                &good,
                "\"rto_cause_unknown\": 0",
                "\"rto_cause_unknown\": 1",
            )
            .replace("\"timeouts\": 2", "\"timeouts\": 3"),
            "rto_cause_unknown",
        ),
    ];
    assert_fires(cases, |t| check_metrics(t, &schema));
}

#[test]
fn serve_checks_fire_on_their_mutations() {
    let schema = schema(Some("serve"));
    let good = serve_export();
    check_serve(&good, &schema, 1).expect("valid export passes");
    let cases = vec![
        (
            mutate(&good, "\"tlt-serve/v1\"", "\"tlt-serve/v2\""),
            "schema tag",
        ),
        (
            mutate(&good, "\"hists\"", "\"hist\""),
            "top-level key \"hists\"",
        ),
        (
            mutate(&good, "\"slo_ns\"", "\"slo\""),
            "meta key \"slo_ns\"",
        ),
        (
            mutate(&good, "\"jobs\": \"any\"", "\"jobs\": \"2\""),
            "meta jobs",
        ),
        (mutate(&good, "\"min\"", "\"low\""), "fields differ"),
        (
            mutate(&good, "\"count\":2,", "\"count\":1,"),
            "count != bucket sum",
        ),
        (
            mutate(
                &good,
                "\"serve_incomplete/tcp\": 1",
                "\"serve_incomplete/tcp\": 0",
            ),
            "!= requests",
        ),
        (
            mutate(
                &good,
                "\"serve_viol_cause/tcp/congestion\": 1",
                "\"serve_viol_cause/tcp/congestion\": 2",
            ),
            "causes",
        ),
        (
            mutate(&good, "\"serve_rtos/tcp\": 2", "\"serve_rtos/tcp\": 0"),
            "more timeout violations than RTOs",
        ),
    ];
    assert_fires(cases, |t| check_serve(t, &schema, 1));
    let err = check_serve(&good, &schema, 10).expect_err("scheme count");
    assert!(err.contains("want 10"), "{err}");
}

#[test]
fn profile_checks_fire_on_their_mutations() {
    let schema = schema(Some("profile"));
    let good = profile_export();
    check_profile(&good, &schema).expect("valid export passes");
    let cases = vec![
        (
            mutate(&good, "\"tlt-profile/v1\"", "\"tlt-profile/v2\""),
            "schema tag",
        ),
        (
            mutate(&good, "\"series\"", "\"serie\""),
            "top-level key \"series\"",
        ),
        (
            mutate(&good, "\"build_profile\"", "\"build\""),
            "meta key \"build_profile\"",
        ),
        (
            mutate(&good, "\"jobs\": \"any\"", "\"jobs\": \"4\""),
            "meta jobs",
        ),
    ];
    assert_fires(cases, |t| check_profile(t, &schema));
}

#[test]
fn spans_checks_fire_on_their_mutations() {
    let schema = schema(Some("spans"));
    let good = span_report().to_json();
    check_spans(&good, &schema, 1).expect("valid export passes");
    let cases = vec![
        (
            mutate(&good, "\"tlt-spans/v1\"", "\"tlt-spans/v2\""),
            "schema tag",
        ),
        (
            mutate(&good, "\"spans\":", "\"span\":"),
            "top-level key \"spans\"",
        ),
        (
            mutate(&good, "\"workload\"", "\"load\""),
            "meta key \"workload\"",
        ),
        (mutate(&good, "\"min\"", "\"low\""), "fields differ"),
        (
            mutate(&good, "\"count\":1,", "\"count\":2,"),
            "count != bucket sum",
        ),
        (
            mutate(
                &good,
                "\"span_unattributed_ns/dctcp\": 0",
                "\"span_unattributed_ns/dctcp\": 5",
            ),
            "unattributed",
        ),
        (mutate(&good, "\"sum\":21000", "\"sum\":21001"), "phase sum"),
        (
            mutate(&good, "\"span_flows/dctcp\": 1", "\"span_flows/dctcp\": 2"),
            "span_flows",
        ),
        (
            mutate(&good, "\"end\":4085000", "\"end\":4085001"),
            "not closed",
        ),
    ];
    assert_fires(cases, |t| check_spans(t, &schema, 1));
    // A grid that lost a scheme.
    let err = check_spans(&good, &schema, 2).expect_err("scheme count");
    assert!(err.contains("want 2"), "{err}");
}

#[test]
fn perfetto_checks_fire_on_their_mutations() {
    let good = span_report().to_perfetto();
    check_perfetto(&good).expect("valid rendering passes");
    let empty = good[..good.find("\"traceEvents\":[").expect("events") + 15].to_string() + "]}";
    let cases = vec![
        (
            mutate(
                &good,
                "\"displayTimeUnit\":\"ns\"",
                "\"displayTimeUnit\":\"us\"",
            ),
            "displayTimeUnit",
        ),
        (
            mutate(&good, "\"schema\":\"tlt-spans/v1\"", "\"schema\":\"other\""),
            "otherData schema",
        ),
        (empty, "no trace events"),
        (
            mutate(&good, "\"tid\"", "\"thread\""),
            "event without \"tid\"",
        ),
        (
            mutate(&good, "\"ph\":\"X\"", "\"ph\":\"B\""),
            "phase is not X",
        ),
        (
            mutate(&good, "\"cat\":\"request\"", "\"cat\":\"other\""),
            "category",
        ),
    ];
    assert_fires(cases, check_perfetto);
}

/// Runs `bin --quick --jobs 1` with `flags`, each followed by a temporary
/// output path, and returns the files' contents.
fn quick_exports(bin: &str, flags: &[&str]) -> Vec<String> {
    let dir = std::env::temp_dir();
    let tag = format!("tlt-export-{}", std::process::id());
    let paths: Vec<_> = flags
        .iter()
        .map(|f| dir.join(format!("{tag}{f}.json")))
        .collect();
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--quick", "--jobs", "1"]);
    for (flag, path) in flags.iter().zip(&paths) {
        cmd.arg(flag).arg(path);
    }
    let out = cmd.output().expect("spawn harness binary");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |p: &std::path::PathBuf| {
        let text = std::fs::read_to_string(p).expect("read export");
        let _ = std::fs::remove_file(p);
        text
    };
    paths.iter().map(read).collect()
}

#[test]
fn quick_metrics_and_serve_exports_pass() {
    let metrics = quick_exports(env!("CARGO_BIN_EXE_scenario_faults"), &["--metrics"]);
    check_metrics(&metrics[0], &schema(None)).expect("scenario_faults metrics export");
    let serve = quick_exports(env!("CARGO_BIN_EXE_serve_grid"), &["--serve-out"]);
    check_serve(&serve[0], &schema(Some("serve")), 10).expect("serve_grid serve export");
}

#[test]
#[cfg(feature = "profile")]
fn quick_profile_export_passes() {
    let profile = quick_exports(env!("CARGO_BIN_EXE_serve_grid"), &["--profile-out"]);
    check_profile(&profile[0], &schema(Some("profile"))).expect("serve_grid profile export");
}

#[test]
#[cfg(feature = "ledger")]
fn quick_spans_and_perfetto_exports_pass() {
    let flags = ["--spans-out", "--perfetto-out"];
    let out = quick_exports(env!("CARGO_BIN_EXE_serve_grid"), &flags);
    check_spans(&out[0], &schema(Some("spans")), 10).expect("serve_grid spans export");
    check_perfetto(&out[1]).expect("serve_grid perfetto export");
}
