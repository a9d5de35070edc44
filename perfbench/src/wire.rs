//! The benchmark's own view of the bulk scan's probe set, and the
//! wire-layer kernels timed on a workload's seeded slice of it.
//!
//! The kernels call only public primitives — `dnswire::Message`
//! encode/decode, `authdns::dns_query`, and a replica fabric built from the
//! world's `ScanBlueprint` — so they keep working when the scan loop that
//! normally drives them is rewritten.

use crate::util::{median, SplitMix};
use authdns::DelegationRegistry;
use dnswire::{Message, Name, Question, RecordType};
use simnet::{Datagram, Endpoint};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use worldgen::{NsInfo, ScanBlueprint};

/// The addresses a target is delegated to (the delegation of its
/// registered domain), as the registry states them.
fn delegated_to(registry: &DelegationRegistry, target: &Name) -> HashSet<Ipv4Addr> {
    registry
        .registered_suffix(target)
        .and_then(|suffix| registry.delegation_of(&suffix))
        .map(|servers| servers.iter().map(|(_, ip)| *ip).collect())
        .unwrap_or_default()
}

/// The scan's probe set as the method defines it: every selected
/// nameserver (at least `min_tail` hosted tail sites) asked about every
/// target it is *not* delegated for, once per query type.
pub struct ProbeSet {
    servers: Vec<Ipv4Addr>,
    targets: Vec<Name>,
    /// Per target, the servers it is delegated to (never asked).
    delegated: Vec<HashSet<Ipv4Addr>>,
    qtypes: Vec<RecordType>,
}

impl ProbeSet {
    pub fn new(
        registry: &DelegationRegistry,
        inventory: &[NsInfo],
        targets: Vec<Name>,
        min_tail: u32,
        qtypes: Vec<RecordType>,
    ) -> Self {
        let servers = inventory
            .iter()
            .filter(|ns| ns.tail_hosted_sites >= min_tail)
            .map(|ns| ns.ip)
            .collect();
        let delegated = targets.iter().map(|t| delegated_to(registry, t)).collect();
        ProbeSet {
            servers,
            targets,
            delegated,
            qtypes,
        }
    }

    /// Number of (server, target, query type) probes the scan must send.
    pub fn count(&self) -> u64 {
        let pairs: usize = self
            .delegated
            .iter()
            .map(|d| self.servers.iter().filter(|ip| !d.contains(ip)).count())
            .sum();
        (pairs * self.qtypes.len()) as u64
    }

    /// `n` probes drawn uniformly (with replacement) from the set.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<(Ipv4Addr, Name, RecordType)> {
        let mut rng = SplitMix::new(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let ip = self.servers[rng.below(self.servers.len())];
            let ti = rng.below(self.targets.len());
            if self.delegated[ti].contains(&ip) {
                continue;
            }
            let qtype = self.qtypes[rng.below(self.qtypes.len())];
            out.push((ip, self.targets[ti].clone(), qtype));
        }
        out
    }
}

/// Probes per kernel pass.
const MIX: usize = 2_000;
/// Passes per kernel; the median pass is reported.
const PASSES: usize = 5;

/// Nanoseconds per operation of each wire-layer kernel.
pub struct WireCosts {
    pub encode_query_ns: f64,
    pub encode_response_ns: f64,
    pub decode_response_ns: f64,
    pub answer_ns: f64,
    pub roundtrip_ns: f64,
}

fn per_op_ns(ops: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let passes: Vec<f64> = (0..PASSES).map(|_| pass() * 1e9 / ops as f64).collect();
    median(&passes)
}

/// Time the wire kernels on a seeded mix from `probes`, over a replica
/// fabric of `blueprint` (reliable network, as the kernels measure cost,
/// not loss).
pub fn measure(
    blueprint: &ScanBlueprint,
    probes: &ProbeSet,
    scanner: Ipv4Addr,
    seed: u64,
) -> WireCosts {
    let mix = probes.sample(MIX, seed);
    let scope: Vec<Ipv4Addr> = {
        let mut s: Vec<Ipv4Addr> = mix.iter().map(|(ip, _, _)| *ip).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let mut net = blueprint.build_network_scoped(0, &scope);
    let id = |i: usize| (i % 60_000) as u16;

    // Full probe round trip: query encode, fabric delivery both ways, the
    // nameserver's handling, and the client-side decode (plus the TCP
    // retry a truncated answer triggers, as in the scan).
    let mut responses = Vec::with_capacity(MIX);
    let roundtrip_ns = per_op_ns(MIX, || {
        responses.clear();
        let t = Instant::now();
        for (i, (ip, name, qtype)) in mix.iter().enumerate() {
            responses.push(authdns::dns_query(
                &mut net,
                scanner,
                *ip,
                name,
                *qtype,
                id(i),
            ));
        }
        t.elapsed().as_secs_f64()
    });
    let responses: Vec<Message> = responses.into_iter().flatten().collect();
    assert!(
        responses.len() == MIX,
        "{} of {MIX} kernel probes went unanswered on a reliable fabric",
        MIX - responses.len()
    );

    let encode_query_ns = per_op_ns(MIX, || {
        let t = Instant::now();
        for (i, (_, name, qtype)) in mix.iter().enumerate() {
            let q = Message::query(id(i), Question::new(name.clone(), *qtype));
            black_box(q.encode().expect("query encodes"));
        }
        t.elapsed().as_secs_f64()
    });

    let encode_response_ns = per_op_ns(responses.len(), || {
        let t = Instant::now();
        for r in &responses {
            black_box(black_box(r).encode().expect("response encodes"));
        }
        t.elapsed().as_secs_f64()
    });

    let wire: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| r.encode().expect("response encodes"))
        .collect();
    let decode_response_ns = per_op_ns(wire.len(), || {
        let t = Instant::now();
        for w in &wire {
            black_box(Message::decode(black_box(w)).expect("response decodes"));
        }
        t.elapsed().as_secs_f64()
    });

    // Server side alone: deliver a pre-encoded query and time the single
    // fabric step in which the nameserver decodes it, looks the name up,
    // and encodes and schedules its answer.
    let queries: Vec<Vec<u8>> = mix
        .iter()
        .enumerate()
        .map(|(i, (_, name, qtype))| {
            Message::query(id(i), Question::new(name.clone(), *qtype))
                .encode()
                .expect("query encodes")
        })
        .collect();
    let src = Endpoint::new(scanner, 40_000);
    net.register_external(scanner);
    let answer_ns = per_op_ns(MIX, || {
        let mut busy = 0.0;
        for ((ip, _, _), q) in mix.iter().zip(&queries) {
            net.send(Datagram::udp(
                src,
                Endpoint::new(*ip, authdns::DNS_PORT),
                q.clone(),
            ));
            let t = Instant::now();
            net.step();
            busy += t.elapsed().as_secs_f64();
            net.run_until_idle(u64::MAX);
            for d in net.take_inbox(scanner) {
                dnswire::bufpool::release(d.payload);
            }
        }
        busy
    });

    WireCosts {
        encode_query_ns,
        encode_response_ns,
        decode_response_ns,
        answer_ns,
        roundtrip_ns,
    }
}

impl WireCosts {
    pub fn push(&self, s: &mut crate::layers::Samples) {
        s.push("dnswire.encode_query_ns", self.encode_query_ns);
        s.push("dnswire.encode_response_ns", self.encode_response_ns);
        s.push("dnswire.decode_response_ns", self.decode_response_ns);
        s.push("authdns.answer_ns", self.answer_ns);
        s.push("probe.roundtrip_ns", self.roundtrip_ns);
    }
}
