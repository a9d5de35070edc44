//! `xl-stream`: the paper-scale streamed path (`run_streamed`) on a
//! scaled-down xl world, 8 world shards and 1 stream worker, on a
//! reliable network. No support collection, no analysis, no retries: the
//! wire, fabric and authoritative-server work plus the shard fold are
//! nearly all of it.

use crate::layers::{push_hub, Samples};
use crate::util::{median, on_all_cpus, peak_rss_mib, round_seed, secs, Metrics};
use crate::wire::{self, ProbeSet};
use crate::Outcome;
use std::time::Instant;
use urhunter::{run_streamed, HunterConfig, StreamRunOutput};
use worldgen::{StreamWorld, WorldConfig};

/// World shards of the streamed scan (part of a run's canonical order).
const WORLD_SHARDS: usize = 8;
/// Stream workers of the timed scan. The run is pinned to one CPU (see
/// `util::pin_to_one_cpu`), where one worker and the fold on the calling
/// thread share the core; more workers would only time-slice it.
const WORKERS: usize = 1;
/// Stream workers of the checking rescan, which runs on every CPU and
/// gives the traced `par.stream_scaling`: the fold must not depend on how
/// many workers fed it.
const CHECK_WORKERS: usize = 2;
/// World generations per round: generating the lazy world takes
/// milliseconds, so set-up is sampled several times to give a steady
/// median.
const SETUPS_PER_ROUND: usize = 20;

/// The xl preset cut to 30% of its nameserver fleet and campaigns, so one
/// scan takes seconds instead of half a minute and a run can repeat it.
pub fn world_config() -> WorldConfig {
    let mut cfg = WorldConfig::xl();
    cfg.total_nameservers = Some(330);
    cfg.attack_campaigns = 18_000;
    cfg
}

/// The scan configuration; `seed` orders the probes.
fn hunter(seed: u64, workers: usize) -> HunterConfig {
    let mut cfg = HunterConfig::fast()
        .with_keep_raw_collected(false)
        .with_stream_workers(workers);
    cfg.scheduler_seed = seed;
    cfg
}

pub fn probe_set(world: &StreamWorld, cfg: &HunterConfig) -> ProbeSet {
    ProbeSet::new(
        &world.registry,
        &world.nameservers,
        world.scan_targets(),
        cfg.collect.min_tail_sites,
        cfg.collect.query_types.clone(),
    )
}

fn timed_scan(world: &StreamWorld, cfg: &HunterConfig) -> (StreamRunOutput, f64) {
    let t = Instant::now();
    let out = run_streamed(world, cfg, WORLD_SHARDS);
    (out, secs(t))
}

pub fn run_workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = Vec::new();
    let mut scan = Vec::new();
    let mut urs_per_s = Vec::new();
    let mut traced_scan = Vec::new();
    let mut layers = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut measured = 0.0;
    let mut round = 0u64;
    while round == 0 || measured < seconds {
        let order = round_seed(seed, round);
        let cfg = hunter(order, WORKERS);
        let mut world = None;
        let mut gen_s = 0.0;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            world = Some(StreamWorld::generate(world_config()));
            gen_s = secs(t);
            setup.push(gen_s);
            measured += gen_s;
        }
        let world = world.expect("at least one set-up per round");
        let probes = probe_set(&world, &cfg);
        let (out, scan_s) = timed_scan(&world, &cfg);
        measured += scan_s;
        eprintln!("xl-stream round {round}: set-up {gen_s:.4} s, scan {scan_s:.3} s");
        scan.push(scan_s);
        urs_per_s.push(out.total_urs as f64 / scan_s);
        attempted += out.coverage.scheduled;
        failed += out.coverage.scheduled - out.coverage.total_answered();

        // The first round (and every traced round, which also times it)
        // rescans the world with more workers: the fold must not depend on
        // how many workers fed it.
        let rescan = (round == 0 || trace)
            .then(|| on_all_cpus(|| timed_scan(&world, &hunter(order, CHECK_WORKERS))));
        if round == 0 {
            // Recorded, not asserted: the streamed path has no analysis
            // stage yet, so `malicious` reads 0 until it gains one.
            eprintln!(
                "xl-stream: {} URs = {} correct + {} protective + {} unknown + {} malicious",
                out.total_urs, out.correct, out.protective, out.unknown, out.malicious
            );
        }
        if let Err(e) = check_stream(&out, probes.count(), rescan.as_ref().map(|(o, _)| o)) {
            errors.push(format!("round {round}: {e}"));
        }
        if trace {
            let hub = obs::Obs::shared();
            let (traced, traced_s) = timed_scan(&world, &cfg.clone().with_obs(hub.clone()));
            traced_scan.push(traced_s);
            measured += traced_s + rescan.as_ref().map_or(0.0, |(_, s)| *s);
            let scan_probes = probes.count();
            push_hub(&mut layers, &hub, scan_probes, traced.total_urs);
            layers.push("worldgen.generate_s", gen_s);
            layers.push(
                "core.collect.sim_scan_s",
                traced.elapsed.as_micros() as f64 / 1e6,
            );
            layers.push("core.collect.scan_s", traced_s);
            layers.push(
                "core.collect.us_per_probe",
                traced_s * 1e6 / scan_probes as f64,
            );
            // Scaling compares like with like: the worker counts of the
            // timed scan and of the rescan, both on every CPU.
            let (_, rescan_s) = rescan.expect("traced rounds rescan with more workers");
            let (_, free_s) = on_all_cpus(|| timed_scan(&world, &cfg));
            measured += free_s;
            layers.push("par.stream_scaling", free_s / rescan_s);
            if round == 0 {
                let scanner = cfg.collect.scanner_ip;
                wire::measure(&world.scan_blueprint(), &probes, scanner, order).push(&mut layers);
            }
        }
        round += 1;
    }

    let mut metrics = Metrics::new(if trace {
        crate::PER_LAYER
    } else {
        crate::END_TO_END
    });
    if trace {
        metrics.set(
            "obs.trace_overhead_ratio",
            median(&traced_scan) / median(&scan),
        );
        layers.into_metrics(&mut metrics);
    } else {
        metrics.set("setup_s", median(&setup));
        metrics.set("report_s", median(&scan));
        metrics.set("scan_urs_per_s", median(&urs_per_s));
        metrics.set("peak_rss_mb", peak_rss_mib());
    }
    Outcome {
        errors,
        attempted,
        failed,
        metrics,
    }
}

/// Check a streamed scan: it scheduled exactly the probe set the method
/// defines (counted here from the registry, not by the pipeline), answered
/// every probe, partitioned its URs into categories, and — when given a
/// scan of the same world with another worker count — matches it exactly.
pub fn check_stream(
    out: &StreamRunOutput,
    expected_probes: u64,
    rescan: Option<&StreamRunOutput>,
) -> Result<(), String> {
    if out.coverage.scheduled != expected_probes {
        return Err(format!(
            "scheduled {} probes; the (nameserver, target, type) triples outside the \
             delegations number {expected_probes}",
            out.coverage.scheduled
        ));
    }
    if out.coverage.total_answered() != out.coverage.scheduled {
        return Err(format!(
            "answered {} of {} probes on a reliable network",
            out.coverage.total_answered(),
            out.coverage.scheduled
        ));
    }
    if out.correct + out.protective + out.unknown + out.malicious != out.total_urs {
        return Err(format!(
            "categories {} + {} + {} + {} do not partition {} URs",
            out.correct, out.protective, out.unknown, out.malicious, out.total_urs
        ));
    }
    if out.total_urs == 0 || out.correct == 0 || out.protective == 0 || out.unknown == 0 {
        return Err(format!(
            "a category is empty: {} URs, {} correct, {} protective, {} unknown",
            out.total_urs, out.correct, out.protective, out.unknown
        ));
    }
    if let Some(other) = rescan {
        let key = |o: &StreamRunOutput| {
            (
                o.sequence_hash,
                o.total_urs,
                o.correct,
                o.protective,
                o.unknown,
                o.malicious,
            )
        };
        if key(out) != key(other) || out.coverage != other.coverage {
            return Err(format!(
                "{} and {} workers disagree: (hash, urs, correct, protective, unknown, \
                 malicious) {:?} vs {:?}",
                out.workers,
                other.workers,
                key(out),
                key(other)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (StreamWorld, HunterConfig) {
        let mut cfg = WorldConfig::xl();
        cfg.top_domains = 60;
        cfg.synthetic_providers = 8;
        cfg.attack_campaigns = 300;
        cfg.total_nameservers = Some(40);
        (StreamWorld::generate(cfg), hunter(1, WORKERS))
    }

    fn scans() -> (StreamRunOutput, StreamRunOutput, u64) {
        let (world, cfg) = tiny();
        let probes = probe_set(&world, &cfg).count();
        let timed = run_streamed(&world, &cfg, WORLD_SHARDS);
        let rescan = run_streamed(&world, &hunter(1, CHECK_WORKERS), WORLD_SHARDS);
        (timed, rescan, probes)
    }

    #[test]
    fn accepts_the_pipeline_output() {
        let (timed, rescan, probes) = scans();
        check_stream(&timed, probes, Some(&rescan)).unwrap();
    }

    #[test]
    fn rejects_one_flipped_category() {
        let (mut timed, rescan, probes) = scans();
        timed.correct -= 1;
        timed.unknown += 1;
        let err = check_stream(&timed, probes, Some(&rescan)).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn rejects_one_dropped_ur() {
        let (mut timed, rescan, probes) = scans();
        timed.total_urs -= 1;
        timed.correct -= 1;
        let err = check_stream(&timed, probes, Some(&rescan)).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
        // Without the reference scan, a drop that leaves the partition
        // intact is still caught when the count no longer partitions.
        let (mut timed, _, probes) = scans();
        timed.total_urs -= 1;
        let err = check_stream(&timed, probes, None).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn rejects_a_skipped_probe() {
        let (mut timed, rescan, probes) = scans();
        timed.coverage.scheduled -= 1;
        timed.coverage.answered -= 1;
        let err = check_stream(&timed, probes, Some(&rescan)).unwrap_err();
        assert!(err.contains("triples"), "{err}");
    }
}
