//! `perfbench`: the repository benchmark. Runs one named workload from its
//! seed for a fixed measuring time, checks the program's outputs against
//! computations made apart from the pipeline, and prints one JSON result
//! line: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! perfbench --workload <report-lossy|xl-stream|daemon-serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```

mod daemon_serve;
mod layers;
mod report_lossy;
mod util;
mod wire;
mod xl_stream;

/// End-to-end metrics: what a user of the scanner or the daemon sees.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("report_s", "s"),
    ("scan_urs_per_s", "URs/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not pass
/// through reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("worldgen.generate_s", "s"),
    ("core.collect.support_s", "s"),
    ("core.collect.support_probes", "count"),
    ("core.collect.scan_s", "s"),
    ("core.collect.probes", "count"),
    ("core.collect.urs", "count"),
    ("core.collect.us_per_probe", "us"),
    ("core.collect.sim_scan_s", "s"),
    ("core.query.attempts", "count"),
    ("core.query.retransmissions", "count"),
    ("core.query.backoff_wait_sim_s", "s"),
    ("core.query.timeouts_derived", "count"),
    ("core.query.gave_up", "count"),
    ("core.query.truncated_urs", "count"),
    ("simnet.events", "count"),
    ("simnet.datagrams", "count"),
    ("simnet.bytes_delivered", "bytes"),
    ("dnswire.encode_query_ns", "ns"),
    ("dnswire.encode_response_ns", "ns"),
    ("dnswire.decode_response_ns", "ns"),
    ("authdns.answer_ns", "ns"),
    ("probe.roundtrip_ns", "ns"),
    ("core.classify.s", "s"),
    ("core.classify.ns_per_ur", "ns"),
    ("core.classify.attr_cache_hits", "count"),
    ("core.classify.attr_cache_resolved", "count"),
    ("core.analyze.s", "s"),
    ("core.report.s", "s"),
    ("par.stream_scaling", "ratio"),
    ("daemon.scan_epoch_s", "s"),
    ("daemon.publish_ms", "ms"),
    ("daemon.events_per_epoch", "count"),
    ("daemon.store_lookup_us", "us"),
    ("daemon.replay_ms", "ms"),
    ("daemon.epochs_s", "s"),
    ("daemon.verdict_p50_ms", "ms"),
    ("daemon.verdict_p99_ms", "ms"),
    ("daemon.verdict_qps", "1/s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.closure_ratio", "ratio"),
];

/// What a workload run produced: check failures, operation counts, and
/// the metric table for the requested mode.
pub struct Outcome {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: util::Metrics,
}

const USAGE: &str = "usage: perfbench --workload <report-lossy|xl-stream|daemon-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The batch workloads are pinned to one CPU (see `util::pin_to_one_cpu`).
    // The daemon is not: its accept loop, its scan thread and the client
    // interleave differently on one core than on the host's cores, so
    // pinning it would measure another service.
    let (run, pin): (fn(u64, f64, bool) -> Outcome, bool) = match args.workload.as_str() {
        "report-lossy" => (report_lossy::run_workload, true),
        "xl-stream" => (xl_stream::run_workload, true),
        "daemon-serve" => (daemon_serve::run_workload, false),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if pin {
        match util::pin_to_one_cpu() {
            Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
            None => eprintln!("perfbench: CPU pinning unavailable; running unpinned"),
        }
    }
    let mut out = run(args.seed, args.seconds, args.trace);
    if !args.trace {
        for (name, _) in END_TO_END {
            if !out.metrics.get(name).is_some_and(|v| v > 0.0) {
                out.errors
                    .push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
}
