//! Cross-run artifact diff: compares two deterministic exports key by key.
//!
//! `benchcmp` reads two JSON files of the *same* schema — `tlt-metrics/v1`
//! (metrics registries), `tlt-profile/v1` (engine profiles), `tlt-serve/v1`
//! (per-request SLO reports), or `tlt-spans/v1` (latency-ledger spans) —
//! through telemetry's typed parsers, flattens each registry (plus the
//! profile's series totals) into a key → number map, and reports every key
//! whose value changed. Every artifact is a function of (config, seed), so
//! any change is a behavior diff to investigate; nothing is graded. Host
//! cost is measured by `perfbench/`, not here.
//!
//! Provenance metadata guards against apples-to-oranges comparisons: a
//! `scale`, `build_profile`, or `seeds` value present in *both* files but
//! different is a refusal (exit 2 unless `--force`); a value missing from
//! one side only warns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::registry::push_json_string;
use telemetry::{
    Profile, Registry, ServeReport, SpanReport, METRICS_SCHEMA, PROFILE_SCHEMA, SERVE_SCHEMA,
    SPANS_SCHEMA,
};

/// One artifact flattened for comparison.
#[derive(Debug)]
pub struct Doc {
    /// The schema tag (`tlt-metrics/v1`, `tlt-profile/v1`, ...).
    pub schema: &'static str,
    /// Provenance strings (`scale`, `build_profile`, `cores`, ...).
    pub meta: BTreeMap<String, String>,
    /// Every comparable number, keyed hierarchically
    /// (`counter/event_exec/deliver`, `hist/fct_us/sum`, `series/events/count`).
    pub nums: BTreeMap<String, f64>,
}

impl Doc {
    fn from_registry(schema: &'static str, reg: &Registry) -> Doc {
        let mut nums = BTreeMap::new();
        for (k, v) in reg.counters() {
            nums.insert(format!("counter/{k}"), v as f64);
        }
        for (k, v) in reg.gauges() {
            nums.insert(format!("gauge/{k}"), v as f64);
        }
        for (k, h) in reg.hists() {
            nums.insert(format!("hist/{k}/count"), h.count as f64);
            nums.insert(format!("hist/{k}/sum"), h.sum as f64);
            nums.insert(format!("hist/{k}/max"), h.max() as f64);
        }
        Doc {
            schema,
            meta: reg
                .meta()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            nums,
        }
    }
}

type ParseFn = fn(&str) -> Result<Doc, String>;

/// The typed parsers of the four deterministic artifacts, each flattening
/// its registry (the span trees are not flattened: the spans registry
/// carries the phase hists and span counters).
const PARSERS: [ParseFn; 4] = [
    |t| Ok(Doc::from_registry(METRICS_SCHEMA, &Registry::parse(t)?)),
    |t| {
        let p = Profile::parse(t)?;
        let mut doc = Doc::from_registry(PROFILE_SCHEMA, &p.reg);
        for (k, ts) in &p.series {
            doc.nums
                .insert(format!("series/{k}/sum"), ts.total_sum() as f64);
            doc.nums
                .insert(format!("series/{k}/count"), ts.total_count() as f64);
        }
        Ok(doc)
    },
    |t| {
        Ok(Doc::from_registry(
            SERVE_SCHEMA,
            &ServeReport::parse(t)?.reg,
        ))
    },
    |t| Ok(Doc::from_registry(SPANS_SCHEMA, &SpanReport::parse(t)?.reg)),
];

/// Parses and flattens one artifact. Each typed parser checks the schema
/// tag first, so every parser but the matching one stops there; the
/// matching parser's positional diagnostic is the error reported.
pub fn load(text: &str) -> Result<Doc, String> {
    let mut errs = Vec::new();
    for parse in PARSERS {
        match parse(text) {
            Ok(doc) => return Ok(doc),
            Err(e) => errs.push(e),
        }
    }
    match errs.iter().find(|e| !e.starts_with("schema mismatch")) {
        Some(e) => Err(e.clone()),
        None => Err(format!(
            "unsupported schema {}",
            errs[0].rsplit("found ").next().unwrap_or_default()
        )),
    }
}

/// One changed key's before/after pair.
#[derive(Debug)]
pub struct Delta {
    /// Flattened key.
    pub key: String,
    /// Value in the old artifact.
    pub old: f64,
    /// Value in the new artifact.
    pub new: f64,
}

impl Delta {
    /// Percent change relative to `old` (`None` when `old == 0`).
    pub fn pct(&self) -> Option<f64> {
        (self.old != 0.0).then(|| (self.new - self.old) / self.old * 100.0)
    }
}

/// The full comparison of two artifacts.
#[derive(Debug)]
pub struct Comparison {
    /// Keys present in both files.
    pub compared: usize,
    /// Keys present in both files whose value changed, in key order.
    pub changed: Vec<Delta>,
    /// Keys only the old file has (removed measurements).
    pub only_old: Vec<String>,
    /// Keys only the new file has (added measurements).
    pub only_new: Vec<String>,
    /// Non-fatal provenance notes.
    pub warnings: Vec<String>,
    /// A fatal provenance mismatch; comparing anyway needs `--force`.
    pub refusal: Option<String>,
}

impl Comparison {
    /// Renders the human-readable table of changed keys.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        let _ = writeln!(s, "{:<52}{:>14}{:>14}{:>9}", "key", "old", "new", "delta");
        for d in &self.changed {
            let _ = writeln!(
                s,
                "{:<52}{:>14.3}{:>14.3}{:>9}",
                d.key,
                d.old,
                d.new,
                d.pct().map_or("n/a".to_string(), |p| format!("{p:+.1}%"))
            );
        }
        if !self.only_old.is_empty() {
            let _ = writeln!(s, "only in old: {}", self.only_old.join(", "));
        }
        if !self.only_new.is_empty() {
            let _ = writeln!(s, "only in new: {}", self.only_new.join(", "));
        }
        let _ = writeln!(
            s,
            "{} keys compared, {} changed",
            self.compared,
            self.changed.len()
        );
        s
    }

    /// Machine-readable summary (`--json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"tlt-benchcmp/v1\",\n");
        let _ = writeln!(s, "  \"compared\": {},", self.compared);
        let _ = writeln!(s, "  \"changed\": {},", self.changed.len());
        s.push_str("  \"deltas\": [\n");
        for (i, d) in self.changed.iter().enumerate() {
            s.push_str("    {\"key\": ");
            push_json_string(&mut s, &d.key);
            let _ = write!(
                s,
                ", \"old\": {}, \"new\": {}, \"pct\": {}}}",
                d.old,
                d.new,
                d.pct().map_or("null".to_string(), |p| format!("{p:.4}"))
            );
            s.push_str(if i + 1 < self.changed.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Provenance keys that make two artifacts incomparable when they differ.
const STRICT_META: [&str; 3] = ["scale", "build_profile", "seeds"];

/// Compares two flattened artifacts. Provenance mismatches populate
/// `refusal`/`warnings` (the caller decides whether `--force` overrides a
/// refusal).
pub fn compare(old: &Doc, new: &Doc) -> Comparison {
    let mut warnings = Vec::new();
    let mut refusals = Vec::new();
    if old.schema != new.schema {
        refusals.push(format!(
            "schema mismatch: old is {:?}, new is {:?}",
            old.schema, new.schema
        ));
    }
    for key in STRICT_META {
        match (old.meta.get(key), new.meta.get(key)) {
            (Some(a), Some(b)) if a != b => {
                refusals.push(format!("{key} mismatch: old is {a:?}, new is {b:?}"));
            }
            (None, Some(_)) | (Some(_), None) => warnings.push(format!(
                "{key} provenance missing from one side; comparability unverified"
            )),
            _ => {}
        }
    }

    let mut compared = 0;
    let mut changed = Vec::new();
    let mut only_old = Vec::new();
    for (key, &o) in &old.nums {
        let Some(&n) = new.nums.get(key) else {
            only_old.push(key.clone());
            continue;
        };
        compared += 1;
        if o != n {
            changed.push(Delta {
                key: key.clone(),
                old: o,
                new: n,
            });
        }
    }
    Comparison {
        compared,
        changed,
        only_old,
        only_new: new
            .nums
            .keys()
            .filter(|k| !old.nums.contains_key(*k))
            .cloned()
            .collect(),
        warnings,
        refusal: (!refusals.is_empty()).then(|| refusals.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pkts: u64, build: Option<&str>, scale: &str) -> String {
        let mut reg = Registry::new();
        reg.inc("data_pkts_sent", pkts);
        reg.gauge_max("queue_peak_bytes", 9000);
        reg.observe("fct_us", 250);
        reg.set_meta("scale", scale);
        if let Some(b) = build {
            reg.set_meta("build_profile", b);
        }
        reg.to_json()
    }

    #[test]
    fn parses_and_flattens_metrics() {
        let doc = load(&metrics(128, Some("release"), "quick")).unwrap();
        assert_eq!(doc.schema, "tlt-metrics/v1");
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
        assert_eq!(doc.nums["counter/data_pkts_sent"], 128.0);
        assert_eq!(doc.nums["gauge/queue_peak_bytes"], 9000.0);
        assert_eq!(doc.nums["hist/fct_us/sum"], 250.0);
    }

    #[test]
    fn parses_and_flattens_profile() {
        let mut p = Profile::new();
        p.reg.inc("event_exec/deliver", 42);
        p.reg.gauge_max("queue_peak_depth", 7);
        p.reg.observe("queue_depth", 3);
        p.reg.set_meta("scale", "quick");
        p.series_mut("events").record(eventsim::SimTime::ZERO, 5);
        let doc = load(&p.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-profile/v1");
        assert_eq!(doc.nums["counter/event_exec/deliver"], 42.0);
        assert_eq!(doc.nums["gauge/queue_peak_depth"], 7.0);
        assert_eq!(doc.nums["hist/queue_depth/count"], 1.0);
        assert_eq!(doc.nums["series/events/sum"], 5.0);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("quick"));
    }

    #[test]
    fn parses_and_flattens_serve_report() {
        let mut r = ServeReport::new();
        r.reg.inc("serve_requests/dctcp", 200);
        r.reg.inc("serve_slo_viol_timeout/dctcp", 3);
        r.reg.observe("serve_req_latency_ns/dctcp", 800_000);
        r.reg.set_meta("scale", "k8");
        let doc = load(&r.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-serve/v1");
        assert_eq!(doc.nums["counter/serve_requests/dctcp"], 200.0);
        assert_eq!(doc.nums["counter/serve_slo_viol_timeout/dctcp"], 3.0);
        assert_eq!(doc.nums["hist/serve_req_latency_ns/dctcp/count"], 1.0);
        assert_eq!(doc.meta.get("scale").map(String::as_str), Some("k8"));
    }

    #[test]
    fn parses_and_flattens_spans_report() {
        let mut rep = SpanReport::new();
        let mut phases = telemetry::PhaseTimes::default();
        phases.add(telemetry::Phase::Serialization, 64_000);
        phases.add(telemetry::Phase::RtoStall, 4_000_000);
        rep.record_flow("dctcp+tlt", &phases, phases.total(), 0);
        rep.record_violation("dctcp+tlt", telemetry::Phase::RtoStall);
        rep.reg.set_meta("scale", "k8");
        let doc = load(&rep.to_json()).unwrap();
        assert_eq!(doc.schema, "tlt-spans/v1");
        assert_eq!(doc.nums["counter/span_flows/dctcp+tlt"], 1.0);
        assert_eq!(
            doc.nums["hist/span_phase_ns/dctcp+tlt/rto_stall/sum"],
            4_000_000.0
        );
        assert_eq!(doc.nums["hist/span_fct_ns/dctcp+tlt/count"], 1.0);
        assert_eq!(
            doc.nums["counter/serve_viol_phase/dctcp+tlt/rto_stall"],
            1.0
        );
    }

    #[test]
    fn reports_changed_keys_only() {
        let old = load(&metrics(100, Some("release"), "quick")).unwrap();
        let new = load(&metrics(150, Some("release"), "quick")).unwrap();
        let cmp = compare(&old, &new);
        assert!(cmp.refusal.is_none());
        assert_eq!(cmp.compared, 5);
        assert_eq!(cmp.changed.len(), 1);
        let d = &cmp.changed[0];
        assert_eq!(
            (d.key.as_str(), d.old, d.new),
            ("counter/data_pkts_sent", 100.0, 150.0)
        );
        assert_eq!(d.pct(), Some(50.0));
        assert!(cmp.render().contains("+50.0%"));
        let same = compare(&old, &old);
        assert!(same.changed.is_empty());
        assert!(same.render().contains("5 keys compared, 0 changed"));
    }

    #[test]
    fn provenance_mismatch_refuses_and_missing_only_warns() {
        let release = load(&metrics(100, Some("release"), "quick")).unwrap();
        let debug = load(&metrics(100, Some("debug"), "quick")).unwrap();
        let cmp = compare(&release, &debug);
        assert!(cmp.refusal.as_deref().unwrap().contains("build_profile"));

        let unstamped = load(&metrics(100, None, "quick")).unwrap();
        let cmp = compare(&unstamped, &release);
        assert!(cmp.refusal.is_none());
        assert!(cmp.warnings.iter().any(|w| w.contains("build_profile")));

        let full = load(&metrics(100, Some("release"), "full")).unwrap();
        let cmp = compare(&release, &full);
        assert!(cmp.refusal.as_deref().unwrap().contains("scale"));

        let profile = load(&Profile::new().to_json()).unwrap();
        let cmp = compare(&release, &profile);
        assert!(cmp.refusal.as_deref().unwrap().contains("schema"));
    }

    #[test]
    fn rejects_malformed_and_unknown_documents() {
        assert!(load("").is_err());
        assert!(load("{").is_err());
        let err = load("{\"schema\": \"wat/v9\"}").unwrap_err();
        assert_eq!(err, "unsupported schema \"wat/v9\"");
        assert!(load("{\"counters\": {}}").unwrap_err().contains("schema"));
        let good = metrics(100, Some("release"), "quick");
        assert!(load(&format!("{good}garbage"))
            .unwrap_err()
            .contains("trailing"));
        // A truncated document reports the matching parser's position.
        let err = load(&good[..good.len() / 2]).unwrap_err();
        assert!(err.contains("byte"), "{err}");
    }
}
