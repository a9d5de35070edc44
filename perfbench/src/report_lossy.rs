//! `report-lossy`: the full five-stage measurement on the default-scale
//! world, with 2% per-flow scan loss, five attempts and adaptive timeouts.
//!
//! Each round generates the preset world and runs the pipeline to the
//! finished `Report`, with the probe order (and so the loss pattern) drawn
//! from the round seed. Every round's output is checked against the
//! generator's ground truth; the first round is also rescanned without
//! loss and replayed through the §4.2 false-negative evaluation.

use crate::layers::{push_hub, push_stages, Samples};
use crate::util::{median, peak_rss_mib, round_seed, secs, Metrics};
use crate::wire::{self, ProbeSet};
use crate::Outcome;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;
use urhunter::{evaluate_false_negatives, run, ClassifiedUr, HunterConfig, RunOutput, UrCategory};
use worldgen::{DetectionClass, World, WorldConfig};

/// Share of datagrams the scan fabric drops.
const SCAN_LOSS: f64 = 0.02;
/// Probe attempts per query.
const ATTEMPTS: u32 = 5;
/// World generations per untraced round (the last one is scanned), so the
/// set-up median rests on more samples than there are rounds.
const SETUPS_PER_ROUND: usize = 2;

/// The workload's world: the default experiment scale, as the table and
/// figure regeneration binaries scan it.
fn world_config() -> WorldConfig {
    WorldConfig::default_scale()
}

/// The workload's pipeline configuration. `seed` orders the probes, and
/// so decides which datagrams the per-flow loss lottery drops.
pub fn hunter(seed: u64) -> HunterConfig {
    lossless(seed).with_scan_faults(simnet::FaultPlan::lossy(SCAN_LOSS).scheduled_per_flow())
}

/// The same configuration on a reliable network.
fn lossless(seed: u64) -> HunterConfig {
    let mut cfg = HunterConfig::fast()
        .with_keep_raw_collected(false)
        .with_retries(ATTEMPTS)
        .with_adaptive();
    cfg.scheduler_seed = seed;
    cfg
}

fn probe_set(world: &World, cfg: &HunterConfig) -> ProbeSet {
    ProbeSet::new(
        &world.registry,
        &world.nameservers,
        world.scan_targets(),
        cfg.collect.min_tail_sites,
        cfg.collect.query_types.clone(),
    )
}

pub fn run_workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = Vec::new();
    let mut report = Vec::new();
    let mut urs_per_s = Vec::new();
    let mut layers = Samples::default();
    let mut traced_report = Vec::new();
    let mut attempted = 0u64;
    let mut errors = Vec::new();
    let mut measured = 0.0;
    let mut round = 0u64;
    while round == 0 || measured < seconds {
        let order = round_seed(seed, round);
        let cfg = hunter(order);
        // In a traced run every round also runs with a hub attached, on a
        // second copy of the same world; the order alternates so slow drift
        // on the host does not bias the overhead ratio.
        let traced_first = trace && round % 2 == 1;
        for pass in 0..if trace { 2 } else { 1 } {
            let hub = (trace && (pass == 0) == traced_first).then(obs::Obs::shared);
            let setups = if hub.is_some() { 1 } else { SETUPS_PER_ROUND };
            let mut world = None;
            let mut gen_s = 0.0;
            for _ in 0..setups {
                let t = Instant::now();
                world = Some(World::generate(world_config()));
                gen_s = secs(t);
                measured += gen_s;
                if hub.is_none() {
                    setup.push(gen_s);
                }
            }
            let mut world = world.expect("at least one set-up per round");
            let cfg = match &hub {
                Some(h) => cfg.clone().with_obs(h.clone()),
                None => cfg.clone(),
            };
            let t = Instant::now();
            let out = run(&mut world, &cfg);
            let run_s = secs(t);
            measured += run_s;
            eprintln!("report-lossy round {round}: set-up {gen_s:.4} s, run {run_s:.3} s");
            if let Err(e) = check_truth(&world, &out) {
                errors.push(format!("round {round}: {e}"));
            }
            let probes = probe_set(&world, &cfg);
            match hub {
                Some(hub) => {
                    let scan_probes = probes.count();
                    let urs = out.classified.len() as u64;
                    push_hub(&mut layers, &hub, scan_probes, urs);
                    let spans = push_stages(&mut layers, &hub, scan_probes, urs);
                    layers.push("obs.closure_ratio", spans / run_s);
                    layers.push("worldgen.generate_s", gen_s);
                    layers.push(
                        "core.collect.sim_scan_s",
                        out.scan_elapsed.as_micros() as f64 / 1e6,
                    );
                    traced_report.push(run_s);
                    if round == 0 {
                        let scanner = cfg.collect.scanner_ip;
                        wire::measure(&world.scan_blueprint(), &probes, scanner, order)
                            .push(&mut layers);
                    }
                }
                None => {
                    report.push(run_s);
                    urs_per_s.push(out.classified.len() as f64 / run_s);
                    attempted += 1;
                    if round == 0 {
                        match check_first_round(&mut world, &out, order) {
                            Ok(truncated) => {
                                layers.push("core.query.truncated_urs", truncated as f64)
                            }
                            Err(e) => errors.push(format!("round 0: {e}")),
                        }
                    }
                }
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
            median(&traced_report) / median(&report),
        );
        layers.into_metrics(&mut metrics);
    } else {
        metrics.set("setup_s", median(&setup));
        metrics.set("report_s", median(&report));
        metrics.set("scan_urs_per_s", median(&urs_per_s));
        metrics.set("peak_rss_mb", peak_rss_mib());
    }
    Outcome {
        errors,
        attempted,
        failed: 0,
        metrics,
    }
}

/// Checks only the first round pays for: the delegated records must
/// never look suspicious (§4.2), and a lossless rescan of the same world
/// must agree with the lossy scan (see [`compare_with_lossless`]).
/// Returns how many URs the lossy scan received truncated.
fn check_first_round(world: &mut World, out: &RunOutput, order: u64) -> Result<u64, String> {
    let fn_count =
        evaluate_false_negatives(world, &out.correct_db, &out.protective_db, &hunter(order));
    if fn_count != 0 {
        return Err(format!(
            "§4.2 evaluation found {fn_count} suspicious delegated records"
        ));
    }
    let mut clean_world = World::generate(world_config());
    let clean = run(&mut clean_world, &lossless(order));
    compare_with_lossless(
        &out.classified,
        &clean.classified,
        out.coverage.total_gave_up(),
    )
}

/// The lossy scan must find the lossless scan's URs in the same order,
/// missing only as many as it had probes give up, each with a subset of
/// the lossless records, and must classify every UR the same way — except
/// on a (nameserver, domain) where loss cost a record or a UR, since a TXT
/// UR takes its addresses from its sibling A record there. Returns how
/// many URs arrived with fewer records than without loss: a truncated UDP
/// answer whose TCP follow-up was lost is kept as the answer.
pub fn compare_with_lossless(
    lossy: &[ClassifiedUr],
    clean: &[ClassifiedUr],
    gave_up: u64,
) -> Result<u64, String> {
    let (mut truncated, mut missing) = (0u64, 0u64);
    let mut touched = HashSet::new();
    let mut pairs = Vec::with_capacity(lossy.len());
    let mut rest = lossy.iter().peekable();
    for c in clean {
        match rest.peek() {
            Some(l) if l.ur.key == c.ur.key => {
                let l = rest.next().expect("peeked");
                if l.ur.records != c.ur.records {
                    if !l.ur.records.iter().all(|r| c.ur.records.contains(r)) {
                        return Err(format!(
                            "UR {} at {} ({}) carries records the lossless scan never saw",
                            l.ur.key.domain, l.ur.key.ns_ip, l.ur.key.rtype
                        ));
                    }
                    truncated += 1;
                    touched.insert((l.ur.key.ns_ip, l.ur.key.domain));
                }
                pairs.push((l, c));
            }
            _ => {
                missing += 1;
                touched.insert((c.ur.key.ns_ip, c.ur.key.domain));
            }
        }
    }
    if let Some(l) = rest.next() {
        return Err(format!(
            "UR {} at {} ({}) is out of order or absent from the lossless scan",
            l.ur.key.domain, l.ur.key.ns_ip, l.ur.key.rtype
        ));
    }
    if missing > gave_up {
        return Err(format!(
            "the lossy scan lacks {missing} of the lossless scan's URs but only {gave_up} probes \
             gave up"
        ));
    }
    for (l, c) in pairs {
        if touched.contains(&(l.ur.key.ns_ip, l.ur.key.domain)) {
            continue;
        }
        if (l.category, l.correct_reason, &l.corresponding_ips)
            != (c.category, c.correct_reason, &c.corresponding_ips)
        {
            return Err(format!(
                "UR {} at {} ({}) is {:?} under loss but {:?} without",
                l.ur.key.domain, l.ur.key.ns_ip, l.ur.key.rtype, l.category, c.category
            ));
        }
    }
    Ok(truncated)
}

/// Check a finished run against the generator's ground truth.
pub fn check_truth(world: &World, out: &RunOutput) -> Result<(), String> {
    let t = out.report.totals;
    if t.correct + t.protective + t.unknown + t.malicious != t.total
        || t.total != out.classified.len()
    {
        return Err(format!(
            "categories do not partition the total: {t:?} over {} classified URs",
            out.classified.len()
        ));
    }
    let mut recount = [0usize; 4];
    for c in &out.classified {
        recount[c.category as usize] += 1;
    }
    let mut by_cat = [0usize; 4];
    by_cat[UrCategory::Malicious as usize] = t.malicious;
    by_cat[UrCategory::Correct as usize] = t.correct;
    by_cat[UrCategory::Protective as usize] = t.protective;
    by_cat[UrCategory::Unknown as usize] = t.unknown;
    if recount != by_cat {
        return Err(format!(
            "report totals {t:?} disagree with a recount of the classified URs"
        ));
    }
    if !out.coverage.is_complete() {
        return Err(format!(
            "probe accounting does not add up: {:?}",
            out.coverage
        ));
    }

    // Campaign C2 addresses by detectability. A UR belongs to a campaign
    // when it names the campaign's domain and points at one of its C2s.
    // Only campaigns alone on their (domain, provider) count: a sample of
    // one campaign resolves its domain at the provider and may be served a
    // sibling campaign's zone, so its traffic can flag the sibling's C2s.
    let mut per_host: HashMap<(&dnswire::Name, usize), usize> = HashMap::new();
    for c in &world.truth.campaigns {
        *per_host.entry((&c.domain, c.provider)).or_default() += 1;
    }
    let mut campaigns: HashMap<&dnswire::Name, Vec<usize>> = HashMap::new();
    for (i, c) in world.truth.campaigns.iter().enumerate() {
        if per_host[&(&c.domain, c.provider)] == 1 {
            campaigns.entry(&c.domain).or_default().push(i);
        }
    }
    // A suspicious UR pointing at the C2 of a campaign that vendors flag
    // must come out malicious, and no UR of an undetected campaign may.
    // (Campaigns caught by IDS alone are left out: whether their sandbox
    // traffic reaches the alert threshold is a draw of the generator.)
    let mut vendor_checked = 0usize;
    for u in &out.classified {
        let Some(ids) = campaigns.get(&u.ur.key.domain.to_name()) else {
            continue;
        };
        for &i in ids {
            let c = &world.truth.campaigns[i];
            if !u.corresponding_ips.iter().any(|ip| c.c2_ips.contains(ip)) {
                continue;
            }
            let where_ = || {
                format!(
                    "{} at {} ({})",
                    u.ur.key.domain, u.ur.key.ns_ip, u.ur.key.rtype
                )
            };
            match (c.detection, u.category) {
                (DetectionClass::Undetected, UrCategory::Malicious) => {
                    return Err(format!(
                        "UR {} of an undetected campaign is malicious",
                        where_()
                    ));
                }
                (DetectionClass::LabelOnly | DetectionClass::Both, UrCategory::Unknown) => {
                    return Err(format!(
                        "suspicious UR {} of a vendor-flagged campaign is not malicious",
                        where_()
                    ));
                }
                (DetectionClass::LabelOnly | DetectionClass::Both, UrCategory::Malicious) => {
                    vendor_checked += 1;
                }
                _ => {}
            }
        }
    }
    if vendor_checked == 0 {
        return Err("no UR of a vendor-flagged campaign was classified".into());
    }

    // Parked pages, stale past delegations and the misconfigured recursive
    // nameservers all serve records the method must explain as correct.
    let provider_name = |p: usize| world.provider_meta[p].name.as_str();
    let past: HashMap<(String, &str), Ipv4Addr> = world
        .truth
        .past_delegations
        .iter()
        .map(|(d, p, ip)| ((d.to_string(), provider_name(*p)), *ip))
        .collect();
    let oracle: HashSet<Ipv4Addr> = world.truth.oracle_ns_ips.iter().copied().collect();
    let parking = |ip: &Ipv4Addr| {
        world
            .db
            .http_of(*ip)
            .is_some_and(|h| h.kind == netdb::PageKind::Parking)
    };
    let protective_providers: HashSet<&str> = (0..world.providers.len())
        .filter(|&i| world.providers[i].borrow().policy().protective_records)
        .map(provider_name)
        .collect();
    let mut explained = 0usize;
    for u in &out.classified {
        let key = (u.ur.key.domain.to_string(), u.ur.provider.as_str());
        let a_ips = u.ur.a_ips();
        let why = if oracle.contains(&u.ur.key.ns_ip) {
            Some("a recursive nameserver")
        } else if !a_ips.is_empty() && a_ips.iter().all(parking) {
            Some("a parking page")
        } else if past.get(&key).is_some_and(|ip| a_ips.contains(ip)) {
            Some("a past delegation")
        } else {
            None
        };
        if let Some(why) = why {
            explained += 1;
            if u.category != UrCategory::Correct {
                return Err(format!(
                    "UR {} at {} ({}) from {why} is {:?}",
                    u.ur.key.domain, u.ur.key.ns_ip, u.ur.key.rtype, u.category
                ));
            }
        }
        if u.category == UrCategory::Protective && !protective_providers.contains(key.1) {
            return Err(format!(
                "protective UR {} from {}, which serves no protective records",
                u.ur.key.domain, key.1
            ));
        }
    }
    if explained == 0 {
        return Err("no parked, past-delegation or recursive-nameserver UR was seen".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> (World, RunOutput) {
        let mut world = World::generate(WorldConfig::small());
        let out = run(&mut world, &hunter(WorldConfig::small().seed));
        (world, out)
    }

    #[test]
    fn accepts_the_pipeline_output() {
        let (mut world, out) = small_run();
        check_truth(&world, &out).unwrap();
        let fn_count = evaluate_false_negatives(
            &mut world,
            &out.correct_db,
            &out.protective_db,
            &hunter(WorldConfig::small().seed),
        );
        assert_eq!(fn_count, 0);
    }

    #[test]
    fn rejects_one_flipped_category() {
        let (world, mut out) = small_run();
        let undetected = world.truth.c2_ips_of(DetectionClass::Undetected);
        let i = out
            .classified
            .iter()
            .position(|c| {
                c.category == UrCategory::Unknown
                    && c.corresponding_ips.iter().any(|ip| undetected.contains(ip))
            })
            .expect("a UR of an undetected campaign");
        out.classified[i].category = UrCategory::Malicious;
        // Keep the totals consistent with the doctored list, so only the
        // ground-truth comparison can catch the flip.
        out.report.totals.unknown -= 1;
        out.report.totals.malicious += 1;
        let err = check_truth(&world, &out).unwrap_err();
        assert!(err.contains("undetected"), "{err}");
    }

    #[test]
    fn rejects_one_dropped_ur() {
        let (world, mut out) = small_run();
        out.classified.pop();
        let err = check_truth(&world, &out).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn lossless_comparison_rejects_a_flip_and_a_drop() {
        let (_, lossy) = small_run();
        let seed = WorldConfig::small().seed;
        let clean = run(&mut World::generate(WorldConfig::small()), &lossless(seed));
        compare_with_lossless(&lossy.classified, &clean.classified, 0).unwrap();
        let mut flipped = lossy.classified.clone();
        let i = flipped
            .iter()
            .position(|c| c.category == UrCategory::Unknown)
            .expect("an unknown UR");
        flipped[i].category = UrCategory::Malicious;
        let err = compare_with_lossless(&flipped, &clean.classified, 0).unwrap_err();
        assert!(err.contains("under loss"), "{err}");
        let mut dropped = lossy.classified.clone();
        dropped.remove(i);
        let err = compare_with_lossless(&dropped, &clean.classified, 0).unwrap_err();
        assert!(err.contains("gave up"), "{err}");
    }

    #[test]
    fn rejects_a_correct_record_flagged_suspicious() {
        let (world, mut out) = small_run();
        let oracle = world.truth.oracle_ns_ips[0];
        let i = out
            .classified
            .iter()
            .position(|c| c.ur.key.ns_ip == oracle)
            .expect("a UR from a recursive nameserver");
        out.classified[i].category = UrCategory::Unknown;
        out.report.totals.correct -= 1;
        out.report.totals.unknown += 1;
        let err = check_truth(&world, &out).unwrap_err();
        assert!(err.contains("recursive"), "{err}");
    }
}
