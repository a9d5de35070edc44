//! Per-layer readings taken from outside the program: the stage spans,
//! probe funnel, fabric counters and attribute cache that the pipeline
//! already banks in an attached `obs` hub, plus the benchmark's own timers.

use std::collections::BTreeMap;

/// Per-round samples of per-layer metrics, reduced to medians at the end.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of every sampled metric into `out`.
    pub fn into_metrics(self, out: &mut crate::util::Metrics) {
        for (name, values) in self.0 {
            out.set(name, crate::util::median(&values));
        }
    }
}

fn counter(hub: &obs::Obs, name: &str) -> f64 {
    hub.registry().counter_value(name).unwrap_or(0) as f64
}

/// Wall seconds of one pipeline stage span.
pub fn stage_s(hub: &obs::Obs, stage: &str) -> f64 {
    counter(hub, &format!("stage_{stage}_wall_us")) / 1e6
}

/// The five stage spans `run` records, in pipeline order.
pub const STAGES: [&str; 5] = [
    "collect_support",
    "collect",
    "classify",
    "analyze",
    "report",
];

/// Probe-funnel, fabric and attribute-cache counters of one run's hub.
/// `scan_probes` is the benchmark's own count of bulk-scan probes, which
/// splits the funnel into the support stage and the scan.
pub fn push_hub(s: &mut Samples, hub: &obs::Obs, scan_probes: u64, urs: u64) {
    let scheduled = counter(hub, "probe_scheduled");
    s.push(
        "core.collect.support_probes",
        scheduled - scan_probes as f64,
    );
    s.push("core.collect.probes", scan_probes as f64);
    s.push("core.collect.urs", urs as f64);
    // Attempts per probe are a histogram; its sum is the attempts sent.
    let attempts = hub
        .registry()
        .snapshot()
        .histogram("probe_attempts")
        .map_or(0, |h| h.sum);
    s.push("core.query.attempts", attempts as f64);
    s.push(
        "core.query.retransmissions",
        counter(hub, "probe_retransmissions"),
    );
    s.push(
        "core.query.backoff_wait_sim_s",
        counter(hub, "probe_backoff_wait_us") / 1e6,
    );
    s.push(
        "core.query.gave_up",
        counter(hub, "probe_gave_up") + counter(hub, "probe_skipped_quarantined"),
    );
    s.push(
        "core.query.timeouts_derived",
        counter(hub, "probe_timeout_derived"),
    );
    s.push("simnet.events", counter(hub, "net_events"));
    s.push("simnet.datagrams", counter(hub, "net_sent"));
    s.push(
        "simnet.bytes_delivered",
        counter(hub, "net_bytes_delivered"),
    );
    s.push(
        "core.classify.attr_cache_hits",
        counter(hub, "attr_cache_hits"),
    );
    s.push(
        "core.classify.attr_cache_resolved",
        counter(hub, "attr_cache_resolved"),
    );
}

/// Stage-span times of a materialized `run`, and their sum (the part of
/// the run the spans account for).
pub fn push_stages(s: &mut Samples, hub: &obs::Obs, scan_probes: u64, urs: u64) -> f64 {
    let support = stage_s(hub, "collect_support");
    let scan = stage_s(hub, "collect");
    let classify = stage_s(hub, "classify");
    s.push("core.collect.support_s", support);
    s.push("core.collect.scan_s", scan);
    s.push(
        "core.collect.us_per_probe",
        scan * 1e6 / scan_probes.max(1) as f64,
    );
    s.push("core.classify.s", classify);
    s.push(
        "core.classify.ns_per_ur",
        classify * 1e9 / urs.max(1) as f64,
    );
    s.push("core.analyze.s", stage_s(hub, "analyze"));
    s.push("core.report.s", stage_s(hub, "report"));
    STAGES.iter().map(|st| stage_s(hub, st)).sum()
}
