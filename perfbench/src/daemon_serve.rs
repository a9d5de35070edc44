//! `daemon-serve`: `urhunterd` on the medium world drifting across epochs
//! while one closed-loop client asks `/verdict/<domain>` over loopback
//! TCP, one connection per request, the next request sent only after the
//! previous answer arrived. Reads run beside writes here: HTTP serving and
//! store lookups compete with epoch publishes for the state lock.
//!
//! A run is a sequence of whole daemon lifecycles: start, serve until the
//! last epoch is published, shut down, check.

use crate::util::{median, peak_rss_mib, round_seed, secs, tail, Json, Metrics, SplitMix};
use crate::wire::{self, ProbeSet};
use crate::Outcome;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use urhunterd::{DaemonConfig, DriverConfig, EpochDriver, LiveState, WorldScale};

/// Epochs per daemon lifecycle: epoch 1 ends set-up, epochs 2.. are
/// scanned and published while the client reads. Ten served epochs keep
/// most of a lifecycle inside the timed window.
const EPOCHS: u64 = 11;
/// One request in this many asks about a name no world ever hosts.
const NEVER_HOSTED_EVERY: usize = 10;
/// A lifecycle that has not published its last epoch by then is stuck.
const LIFECYCLE_LIMIT: Duration = Duration::from_secs(120);

/// The medium world with the drift `daemon_bench` uses: four months per
/// step, 50 new campaigns and 30% of campaigns expiring. `seed` orders
/// each epoch's probes.
pub fn epoch_config(seed: u64) -> DriverConfig {
    let mut cfg = DriverConfig::small();
    cfg.scale = WorldScale::Medium;
    cfg.hunter.scheduler_seed = seed;
    cfg.drift_days = 120;
    cfg.new_campaigns = 50;
    cfg.expire_fraction = 0.3;
    cfg
}

fn daemon_config(seed: u64, epochs: u64) -> DaemonConfig {
    DaemonConfig {
        listen: "127.0.0.1:0".parse().expect("static address"),
        max_epochs: Some(epochs),
        wall_interval: Duration::ZERO,
        driver: epoch_config(seed),
    }
}

/// One HTTP/1.1 GET on a fresh connection: status code and body.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, body.to_string()))
}

fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    match http_get(addr, path) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("GET {path} answered {status}: {body}")),
        Err(e) => Err(format!("GET {path} failed: {e}")),
    }
}

/// One `/verdict` exchange as the client saw it.
#[derive(Clone)]
pub struct Answer {
    pub domain: String,
    pub never_hosted: bool,
    pub status: u16,
    pub body: String,
}

/// The `"epoch":N` of a verdict answer, read without a full parse so the
/// client loop stays cheap.
fn answer_epoch(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"epoch\":")? + 8..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Everything one lifecycle measured and received.
struct Lifecycle {
    setup_s: f64,
    epochs_s: f64,
    urs_after_first: u64,
    sim_scan_s: f64,
    latencies_ms: Vec<f64>,
    serve_s: f64,
    failed: u64,
    errors: Vec<String>,
}

fn lifecycle(seed: u64) -> Result<Lifecycle, String> {
    let t0 = Instant::now();
    let handle = urhunterd::start(daemon_config(seed, EPOCHS)).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let result = serve(addr, seed, t0);
    // Shut down whatever happened, and wait for both daemon threads.
    let _ = http_get(addr, "/shutdown");
    handle.request_shutdown();
    let state = handle.join();
    let mut lc = result?;
    if let Err(e) = state.log.verify_replay() {
        lc.errors
            .push(format!("the joined event log does not replay: {e}"));
    }
    Ok(lc)
}

fn serve(addr: SocketAddr, seed: u64, t0: Instant) -> Result<Lifecycle, String> {
    // Set-up ends when epoch 1 is served.
    loop {
        if t0.elapsed() > LIFECYCLE_LIMIT {
            return Err("epoch 1 was never served".into());
        }
        if let Ok((200, body)) = http_get(addr, "/healthz") {
            let health = Json::parse(&body)?;
            if health.u64("epochs_done")? >= 1 {
                break;
            }
        }
    }
    let setup_s = secs(t0);
    let first = Json::parse(&get_ok(addr, "/deltas?since=0")?)?;
    let mut domains: Vec<String> = Vec::new();
    for epoch in first.arr("epochs")? {
        for ev in epoch.arr("events")? {
            domains.push(ev.str("domain")?.to_string());
        }
    }
    domains.sort();
    domains.dedup();
    if domains.is_empty() {
        return Err("epoch 1 published no UR".into());
    }

    let mut rng = SplitMix::new(seed ^ 0xD0_5E);
    let mut answers = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut failed = 0u64;
    let serve_start = Instant::now();
    let mut last_epoch_at = None;
    while last_epoch_at.is_none() {
        if t0.elapsed() > LIFECYCLE_LIMIT {
            return Err(format!("epoch {EPOCHS} was never published"));
        }
        let never_hosted = rng.below(NEVER_HOSTED_EVERY) == 0;
        let domain = if never_hosted {
            format!("nh{:016x}.never-hosted.invalid", rng.next_u64())
        } else {
            domains[rng.below(domains.len())].clone()
        };
        let t = Instant::now();
        let reply = http_get(addr, &format!("/verdict/{domain}"));
        latencies_ms.push(secs(t) * 1e3);
        match reply {
            Ok((status, body)) => {
                if status == 200 && answer_epoch(&body) == Some(EPOCHS) {
                    last_epoch_at = Some(Instant::now());
                }
                if status != if never_hosted { 404 } else { 200 } {
                    failed += 1;
                }
                answers.push(Answer {
                    domain,
                    never_hosted,
                    status,
                    body,
                });
            }
            Err(_) => failed += 1,
        }
    }
    let serve_s = secs(serve_start);
    let epochs_s = last_epoch_at
        .expect("loop ends on the last epoch")
        .duration_since(serve_start)
        .as_secs_f64();

    // After the timed window: the full event stream, coverage and metrics.
    let deltas = Json::parse(&get_ok(addr, "/deltas?since=0")?)?;
    let coverage = Json::parse(&get_ok(addr, "/coverage")?)?;
    let metrics = get_ok(addr, "/metrics")?;
    let mut errors = Vec::new();
    if let Err(e) = check_answers(&deltas, &answers) {
        errors.push(e);
    }
    let prom = |name: &str| -> Option<f64> {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
    };
    let scheduled = coverage.u64("scheduled")?;
    if prom("probe_scheduled") != Some(scheduled as f64) {
        errors.push(format!(
            "/metrics probe_scheduled {:?} differs from /coverage scheduled {scheduled}",
            prom("probe_scheduled")
        ));
    }
    let urs_after_first = deltas
        .arr("epochs")?
        .iter()
        .filter(|e| e.u64("epoch").is_ok_and(|n| n > 1))
        .map(|e| {
            e.get("seal")
                .ok_or("epoch without a seal")?
                .u64("total_urs")
        })
        .sum::<Result<u64, String>>()?;
    let sim_scan_s = prom("stage_collect_sim_us").ok_or("/metrics has no scan span")? / 1e6;
    Ok(Lifecycle {
        setup_s,
        epochs_s,
        urs_after_first,
        sim_scan_s,
        latencies_ms,
        serve_s,
        failed,
        errors,
    })
}

pub fn run_workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = Vec::new();
    let mut epochs = Vec::new();
    let mut urs_per_s = Vec::new();
    let mut sim = Vec::new();
    let mut latencies = Vec::new();
    let mut serve_s = 0.0;
    let mut first_peak_rss = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let run_start = Instant::now();
    let mut round = 0u64;
    while round == 0 || secs(run_start) < seconds {
        match lifecycle(round_seed(seed, round)) {
            Ok(lc) => {
                eprintln!(
                    "daemon-serve round {round}: set-up {:.3} s, epochs {:.3} s, {} requests",
                    lc.setup_s,
                    lc.epochs_s,
                    lc.latencies_ms.len(),
                );
                // The first lifecycle's peak is one daemon's footprint. Later
                // lifecycles run in a heap the earlier ones fragmented, on
                // fresh threads whose allocator arenas depend on scheduling.
                if round == 0 {
                    first_peak_rss = peak_rss_mib();
                }
                setup.push(lc.setup_s);
                epochs.push(lc.epochs_s);
                urs_per_s.push(lc.urs_after_first as f64 / lc.epochs_s);
                sim.push(lc.sim_scan_s);
                attempted += lc.latencies_ms.len() as u64;
                failed += lc.failed;
                latencies.extend(lc.latencies_ms);
                serve_s += lc.serve_s;
                errors.extend(lc.errors.into_iter().map(|e| format!("round {round}: {e}")));
            }
            Err(e) => {
                errors.push(format!("round {round}: {e}"));
                break;
            }
        }
        round += 1;
    }

    let mut metrics = Metrics::new(if trace {
        crate::PER_LAYER
    } else {
        crate::END_TO_END
    });
    if setup.is_empty() {
        return Outcome {
            errors,
            attempted: attempted.max(1),
            failed,
            metrics,
        };
    }
    if trace {
        metrics.set("daemon.epochs_s", median(&epochs));
        metrics.set("core.collect.sim_scan_s", median(&sim));
        metrics.set("daemon.verdict_p50_ms", median(&latencies));
        if latencies.len() > 10 {
            metrics.set("daemon.verdict_p99_ms", tail(&latencies).0);
        }
        metrics.set("daemon.verdict_qps", latencies.len() as f64 / serve_s);
        direct_layers(round_seed(seed, 0), &mut metrics);
    } else {
        metrics.set("setup_s", median(&setup));
        metrics.set("report_s", median(&epochs) / (EPOCHS - 1) as f64);
        metrics.set("scan_urs_per_s", median(&urs_per_s));
        metrics.set("peak_rss_mb", first_peak_rss);
    }
    Outcome {
        errors,
        attempted,
        failed,
        metrics,
    }
}

/// Store lookups timed for `daemon.store_lookup_us`.
const LOOKUPS: usize = 20_000;

/// The daemon's layers driven directly, outside the service: epoch scans
/// and publishes through `EpochDriver`, store lookups through
/// `VerdictStore`, and a full log replay.
fn direct_layers(seed: u64, m: &mut Metrics) {
    let cfg = epoch_config(seed);
    let t = Instant::now();
    let mut epochs = EpochDriver::new(cfg.clone());
    m.set("worldgen.generate_s", secs(t));
    let mut state = LiveState::default();
    let (mut scan_s, mut publish_ms, mut events, mut closure) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for epoch in 1..=EPOCHS {
        let t = Instant::now();
        let scan = epochs.scan_epoch();
        let s = secs(t);
        let spans: f64 = crate::layers::STAGES
            .iter()
            .map(|st| crate::layers::stage_s(&scan.hub, st))
            .sum();
        let t = Instant::now();
        let summary = epochs.publish(scan, &mut state);
        let p = secs(t) * 1e3;
        if epoch > 1 {
            scan_s.push(s);
            publish_ms.push(p);
            events.push((summary.observed + summary.changed + summary.gone) as f64);
            closure.push(spans / s);
        }
    }
    m.set("daemon.scan_epoch_s", median(&scan_s));
    m.set("daemon.publish_ms", median(&publish_ms));
    m.set("daemon.events_per_epoch", median(&events));
    m.set("obs.closure_ratio", median(&closure));

    let mut domains: Vec<String> = state
        .store
        .iter()
        .map(|(k, _)| k.domain.to_string())
        .collect();
    domains.sort();
    domains.dedup();
    let mut rng = SplitMix::new(seed);
    let mix: Vec<&str> = (0..LOOKUPS)
        .map(|_| domains[rng.below(domains.len())].as_str())
        .collect();
    let t = Instant::now();
    let mut served = 0usize;
    for d in &mix {
        for key in state.store.domain_keys(d).expect("indexed domain") {
            served += state.store.get(key).is_some() as usize;
        }
    }
    m.set("daemon.store_lookup_us", secs(t) * 1e6 / LOOKUPS as f64);
    assert!(served >= LOOKUPS, "store lookups found nothing");

    let t = Instant::now();
    let replayed = state.log.verify_replay().expect("the event log replays");
    m.set("daemon.replay_ms", secs(t) * 1e3);
    assert_eq!(replayed.verdict_hash(), state.store.verdict_hash());

    // Wire kernels on the same world's probe mix.
    let world = worldgen::World::generate(cfg.scale.config());
    let hunter = &cfg.hunter;
    let probes = ProbeSet::new(
        &world.registry,
        &world.nameservers,
        world.scan_targets(),
        hunter.collect.min_tail_sites,
        hunter.collect.query_types.clone(),
    );
    let mut s = crate::layers::Samples::default();
    wire::measure(
        &world.scan_blueprint(),
        &probes,
        hunter.collect.scanner_ip,
        seed,
    )
    .push(&mut s);
    s.into_metrics(m);
}

/// The benchmark's own reading of one UR's state, folded from events.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Folded {
    category: String,
    present: bool,
    first_seen: u64,
    last_event: u64,
    changes: u64,
}

/// Check every `/verdict` answer against a fold of the `/deltas` event
/// stream up to the epoch the answer reports: the same URs, and for each
/// the same category, presence, first and last epoch, and change count.
/// Names no world hosts must answer 404, sampled names 200.
pub fn check_answers(deltas: &Json, answers: &[Answer]) -> Result<(), String> {
    let mut by_epoch: BTreeMap<u64, Vec<(usize, Json)>> = BTreeMap::new();
    for (i, a) in answers.iter().enumerate() {
        match (a.never_hosted, a.status) {
            (true, 404) => continue,
            (false, 200) => {}
            (_, status) => {
                return Err(format!("/verdict/{} answered {status}", a.domain));
            }
        }
        let body = Json::parse(&a.body)?;
        if body.str("domain")? != a.domain {
            return Err(format!(
                "/verdict/{} answered for {}",
                a.domain,
                body.str("domain")?
            ));
        }
        by_epoch
            .entry(body.u64("epoch")?)
            .or_default()
            .push((i, body));
    }

    // (domain) -> (ns, rtype) -> state
    let mut store: HashMap<String, BTreeMap<(String, String), Folded>> = HashMap::new();
    let mut folded_through = 0u64;
    for record in deltas.arr("epochs")? {
        let epoch = record.u64("epoch")?;
        if epoch != folded_through + 1 {
            return Err(format!(
                "/deltas skips from epoch {folded_through} to {epoch}"
            ));
        }
        for ev in record.arr("events")? {
            let key = (ev.str("ns")?.to_string(), ev.str("rtype")?.to_string());
            let domain = store.entry(ev.str("domain")?.to_string()).or_default();
            match ev.str("kind")? {
                "observed" => {
                    let category = ev.str("category")?.to_string();
                    let s = domain.entry(key).or_insert(Folded {
                        category: category.clone(),
                        present: false,
                        first_seen: epoch,
                        last_event: epoch,
                        changes: 0,
                    });
                    s.category = category;
                    s.present = true;
                    s.last_event = epoch;
                    s.changes += 1;
                }
                kind @ ("verdict_changed" | "gone") => {
                    let s = domain
                        .get_mut(&key)
                        .ok_or_else(|| format!("{kind} event for a UR never observed"))?;
                    if kind == "gone" {
                        s.present = false;
                    } else {
                        s.category = ev.str("to")?.to_string();
                    }
                    s.last_event = epoch;
                    s.changes += 1;
                }
                other => return Err(format!("unknown event kind {other}")),
            }
        }
        folded_through = epoch;
        for (i, body) in by_epoch.remove(&epoch).unwrap_or_default() {
            let domain = &answers[i].domain;
            let mut got = BTreeMap::new();
            for r in body.arr("records")? {
                got.insert(
                    (r.str("ns")?.to_string(), r.str("rtype")?.to_string()),
                    Folded {
                        category: r.str("category")?.to_string(),
                        present: r.bool("present")?,
                        first_seen: r.u64("first_seen")?,
                        last_event: r.u64("last_event")?,
                        changes: r.u64("changes")?,
                    },
                );
            }
            let want = store.get(domain).cloned().unwrap_or_default();
            if got != want {
                let diff = want
                    .iter()
                    .find(|(k, v)| got.get(*k) != Some(v))
                    .map(|(k, v)| format!("{k:?}: folded {v:?}, served {:?}", got.get(k)))
                    .unwrap_or_else(|| {
                        format!("served {} records, folded {}", got.len(), want.len())
                    });
                return Err(format!(
                    "/verdict/{domain} at epoch {epoch} disagrees with the event stream: {diff}"
                ));
            }
        }
    }
    if let Some((epoch, _)) = by_epoch.into_iter().next() {
        return Err(format!(
            "an answer claims epoch {epoch}, past the last published one"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon on the small world run to `epochs`, and its full deltas.
    fn daemon(epochs: u64) -> (SocketAddr, urhunterd::DaemonHandle) {
        let mut cfg = daemon_config(7, epochs);
        cfg.driver.scale = WorldScale::Small;
        let handle = urhunterd::start(cfg).unwrap();
        while handle.epochs_done() < epochs {
            std::thread::sleep(Duration::from_millis(10));
        }
        (handle.addr(), handle)
    }

    fn stop(handle: urhunterd::DaemonHandle) {
        handle.request_shutdown();
        handle.join();
    }

    fn ask(addr: SocketAddr, domain: &str) -> Answer {
        let (status, body) = http_get(addr, &format!("/verdict/{domain}")).unwrap();
        Answer {
            domain: domain.to_string(),
            never_hosted: false,
            status,
            body,
        }
    }

    #[test]
    fn rejects_a_stale_verdict_record() {
        // Epoch 2 of the same seed, with its event stream.
        let (addr, handle) = daemon(2);
        let deltas = Json::parse(&http_get(addr, "/deltas?since=0").unwrap().1).unwrap();
        let epochs = deltas.arr("epochs").unwrap();
        let in_epoch = |n: usize| -> Vec<String> {
            epochs[n]
                .arr("events")
                .unwrap()
                .iter()
                .map(|e| e.str("domain").unwrap().to_string())
                .collect()
        };
        let first = in_epoch(0);
        let domain = in_epoch(1)
            .into_iter()
            .find(|d| first.contains(d))
            .expect("a domain touched in both epochs");
        let fresh = ask(addr, &domain);
        let never = Answer {
            domain: "nh0.never-hosted.invalid".into(),
            never_hosted: true,
            ..ask(addr, "nh0.never-hosted.invalid")
        };
        stop(handle);
        check_answers(&deltas, &[fresh, never]).unwrap();

        // The same domain's answer at epoch 1, relabelled as epoch 2.
        let (addr, handle) = daemon(1);
        let old = ask(addr, &domain);
        stop(handle);
        assert!(old.body.contains("\"epoch\":1"));
        let stale = Answer {
            body: old.body.replace("\"epoch\":1", "\"epoch\":2"),
            ..old
        };
        let err = check_answers(&deltas, &[stale]).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn rejects_a_served_never_hosted_name_and_a_missing_domain() {
        let (addr, handle) = daemon(1);
        let deltas = Json::parse(&http_get(addr, "/deltas?since=0").unwrap().1).unwrap();
        let domain = deltas.arr("epochs").unwrap()[0].arr("events").unwrap()[0]
            .str("domain")
            .unwrap()
            .to_string();
        let answer = ask(addr, &domain);
        stop(handle);
        let hosted_as_never = Answer {
            never_hosted: true,
            ..answer.clone()
        };
        assert!(check_answers(&deltas, &[hosted_as_never]).is_err());
        // Dropping one UR from the answer is caught too.
        let body = Json::parse(&answer.body).unwrap();
        let records = body.arr("records").unwrap();
        let kept: Vec<String> = records[1..].iter().map(render_record).collect();
        let dropped = Answer {
            body: format!(
                "{{\"domain\":\"{domain}\",\"epoch\":1,\"records\":[{}]}}",
                kept.join(",")
            ),
            ..answer.clone()
        };
        let err = check_answers(&deltas, &[dropped]).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    fn render_record(r: &Json) -> String {
        format!(
            "{{\"ns\":\"{}\",\"rtype\":\"{}\",\"category\":\"{}\",\"present\":{},\
             \"first_seen\":{},\"last_event\":{},\"changes\":{}}}",
            r.str("ns").unwrap(),
            r.str("rtype").unwrap(),
            r.str("category").unwrap(),
            r.bool("present").unwrap(),
            r.u64("first_seen").unwrap(),
            r.u64("last_event").unwrap(),
            r.u64("changes").unwrap()
        )
    }
}
