//! Deploy storm: admission latency of the staged verification pipeline,
//! compositional chain summaries versus the whole-graph oracle.
//!
//! The storm drives one controller with a large corpus of *uncached*
//! requests — every request gets a fresh module name, so the verdict
//! cache never replays and each admission pays the full pipeline
//! (lint → symbolic check; the analyzer fast path is disabled so the
//! symbolic stage always runs). The corpus mixes **stock** chains (a
//! handful of templates fleets of tenants share, alpha-renamed per
//! tenant) with **novel** one-off chains (randomized arguments, so
//! their canonical slices are unique).
//!
//! Every config ends by writing an unregistered source address, so the
//! security check rejects it after doing all the verification work:
//! rejections never commit, which keeps the module table, the address
//! pools, and the per-request cost constant across a 100k-request storm.
//!
//! Run twice from identical cold controllers:
//!
//! * `whole-graph` — summaries disabled, every element symbolically
//!   re-executed per request (the differential oracle);
//! * `compositional` — chain summaries replayed from the fleet-wide
//!   cache keyed by canonical slice text.
//!
//! The per-request latency distribution of both modes is recorded to
//! `BENCH_admission.json`.

use std::time::Instant;

use innet::controller::{ClientRequest, Controller};
use innet::prelude::*;
use innet::topology::Topology;
use innet_bench::{quick_mode, Report, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CLIENTS: usize = 16;

/// Stock templates: shared chain-safe pipelines a fleet deploys over and
/// over (each tenant's copy is alpha-renamed by the module name, which
/// the canonical slice key ignores). All end with a spoofed source so
/// admission rejects without committing.
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> DecIPTTL() -> IPFilter(allow udp dst port 1500) \
     -> SetTOS(12) -> Counter() -> IPFilter(allow udp) -> Paint(1) -> DecIPTTL() \
     -> Counter() -> IPFilter(allow udp dst port 1500) -> SetTOS(14) \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> SetTOS(46) -> Counter() \
     -> IPFilter(allow tcp) -> DecIPTTL() -> Paint(9) -> CheckIPHeader() -> Counter() \
     -> IPFilter(allow tcp syn) -> SetTOS(40) -> DecIPTTL() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> Paint(3) -> IPFilter(allow udp) -> DecIPTTL() \
     -> Counter() -> IPFilter(allow udp dst port 53) -> SetTOS(2) -> Paint(4) \
     -> DecIPTTL() -> Counter() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> DecIPTTL() -> DecIPTTL() -> SetTOS(4) -> IPFilter(allow tcp) \
     -> Counter() -> Paint(8) -> IPFilter(allow tcp dst port 443) -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(6) \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> CheckIPHeader() -> Counter() \
     -> SetTOS(10) -> IPFilter(allow udp) -> Paint(5) -> DecIPTTL() -> Counter() \
     -> IPFilter(allow udp src port 53) -> DecIPTTL() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow icmp) -> Paint(7) \
     -> DecIPTTL() -> Counter() -> IPFilter(allow icmp) -> SetTOS(22) -> Paint(11) \
     -> Counter() -> DecIPTTL() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
];

/// A novel one-off chain: randomized arguments make its canonical slice
/// unique, so its summary is computed (and cached) on first sight.
fn novel_config(rng: &mut StdRng) -> String {
    let tos = rng.gen_range(0u32..64);
    let paint = rng.gen_range(0u32..256);
    let port = rng.gen_range(0u32..256);
    format!(
        "FromNetfront() -> SetTOS({tos}) -> Paint({paint}) -> DecIPTTL() \
         -> Paint({port}) -> SetIPSrc(8.8.8.8) -> ToNetfront();"
    )
}

/// Builds request `i` of the corpus: 80% stock, 20% novel, all with a
/// unique module name so the verdict cache never short-circuits the
/// pipeline.
fn request(i: usize, rng: &mut StdRng) -> ClientRequest {
    let config = if rng.gen_range(0u32..5) < 4 {
        STOCK[rng.gen_range(0..STOCK.len())].to_string()
    } else {
        novel_config(rng)
    };
    ClientRequest::parse(&format!("module m{i}:\n{config}")).expect("corpus configs parse")
}

fn controller() -> Controller {
    let mut c = Controller::new(Topology::figure3());
    for i in 0..CLIENTS {
        c.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec!["172.16.15.133".parse().unwrap()],
        );
    }
    // Force the symbolic stage: the abstract-interpretation fast path
    // would decide these verdicts without ever touching the engines
    // under comparison.
    c.set_analysis_enabled(false);
    c
}

struct Run {
    latencies_ns: Vec<u64>,
    summary_hits: u64,
    chain_nodes: u64,
}

/// Drives the full corpus through one cold controller and records every
/// per-request admission latency.
fn storm(summaries: bool, requests: usize, seed: u64) -> Run {
    let mut c = controller();
    c.set_summaries_enabled(summaries);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies_ns = Vec::with_capacity(requests);
    for i in 0..requests {
        let req = request(i, &mut rng);
        let client = format!("tenant{}", i % CLIENTS);
        let t = Instant::now();
        let outcome = c.deploy(&client, req);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        assert!(
            outcome.is_err(),
            "storm configs spoof their source and must be rejected"
        );
    }
    let stats = c.stats();
    assert_eq!(stats.cache_hits, 0, "unique module names defeat replay");
    Run {
        latencies_ns,
        summary_hits: stats.summary_cache_hits,
        chain_nodes: stats.summary_chain_nodes,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let requests: usize = if quick_mode() { 2_000 } else { 100_000 };
    let mut r = Report::new(
        "deploy_storm",
        "Deploy storm: admission latency, compositional summaries vs whole-graph",
    );
    r.line(&format!(
        "{requests} uncached requests per mode, {} stock templates + randomized novel chains",
        STOCK.len()
    ));
    r.blank();
    r.line(&format!(
        "{:>15} {:>12} {:>12} {:>12} {:>14}",
        "mode", "mean (us)", "p50 (us)", "p99 (us)", "summary hits"
    ));

    let mut snap = Snapshot::new("admission");
    let mut means = Vec::new();
    for (mode, summaries) in [("whole-graph", false), ("compositional", true)] {
        let mut run = storm(summaries, requests, 0x5702_2015);
        run.latencies_ns.sort_unstable();
        let mean = run.latencies_ns.iter().sum::<u64>() as f64 / run.latencies_ns.len() as f64;
        let p50 = percentile(&run.latencies_ns, 0.50);
        let p99 = percentile(&run.latencies_ns, 0.99);
        r.line(&format!(
            "{:>15} {:>12.1} {:>12.1} {:>12.1} {:>14}",
            mode,
            mean / 1e3,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            run.summary_hits
        ));
        if summaries {
            assert!(
                run.summary_hits > 0 && run.chain_nodes > 0,
                "compositional mode must replay summaries"
            );
        } else {
            assert_eq!(run.summary_hits, 0, "oracle mode must not touch the cache");
        }
        snap.row([
            "mixed-stock-novel".into(),
            mode.into(),
            (requests as u64).into(),
            mean.into(),
            (p50 as f64).into(),
            (p99 as f64).into(),
            run.summary_hits.into(),
        ]);
        means.push(mean);
    }

    r.blank();
    let speedup = means[0] / means[1];
    r.line(&format!(
        "mean uncached admission latency: {speedup:.2}x lower with compositional summaries"
    ));
    r.finish();
    snap.write();
}
