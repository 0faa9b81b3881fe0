//! `admission-mixed`: one closed-loop client submits request text to a
//! `Topology::figure3()` controller running the production pipeline
//! (analysis, summaries and the verdict cache all on).
//!
//! One operation is one deploy request, timed from request text to
//! verdict (`ClientRequest::parse` + `Controller::deploy`). `kill`s keep
//! the live-module count bounded; they count toward the request rate but
//! are not requests.

use std::hint::black_box;
use std::time::{Duration, Instant};

use innet::controller::{ClientRequest, Controller, ControllerStats, DeployError, ModuleId};
use innet::prelude::RequesterClass;
use innet::topology::Topology;

use crate::stats::{percentile, spread, Metric, Report, Rng, RunOut};
use crate::Workload;

/// Requests per rep: enough that every rep's p99 has ten beyond it.
const REQUESTS_PER_REP: usize = 1000;
const CLIENTS: usize = 8;
const CLIENT_ADDR: &str = "172.16.15.133";
/// Live modules allowed before the oldest are killed, and the count the
/// kills bring it back to.
const MAX_LIVE: usize = 64;
const KEEP_LIVE: usize = 32;
/// Requests checked against the whole-graph oracle in traced runs.
const ORACLE_SAMPLE: usize = 120;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Stock,
    Novel,
    Fig4,
    Spoof,
    Resubmit,
}

const CLASSES: [(Class, &str); 5] = [
    (Class::Stock, "stock"),
    (Class::Novel, "novel"),
    (Class::Fig4, "fig4"),
    (Class::Spoof, "spoof"),
    (Class::Resubmit, "resubmit"),
];

/// Shared pipelines tenants deploy over and over under their own names.
/// Each delivers to the tenant's registered address, so it is accepted.
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) -> SetTOS(12) \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> Counter() -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> SetTOS(46) -> Counter() \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> Paint(9) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> Paint(3) -> IPFilter(allow udp) \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> Counter() -> ToNetfront();",
    "FromNetfront() -> SetTOS(4) -> IPFilter(allow tcp dst port 443) \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> Counter() -> ToNetfront();",
];

/// Chains that rewrite their source after a filter: the abstract fast
/// path cannot decide a filtered flow, so these fall back to the
/// symbolic stage and its chain-summary replay, and are rejected.
const SPOOF: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) -> SetTOS(12) \
     -> Counter() -> DecIPTTL() -> Paint(13) -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> SetTOS(46) -> Counter() \
     -> IPFilter(allow tcp) -> DecIPTTL() -> SetIPSrc(8.8.4.4) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> CheckIPHeader() -> Counter() \
     -> SetTOS(10) -> Paint(5) -> SetIPSrc(9.9.9.9) -> ToNetfront();",
];

/// The paper's Figure 4 request: a batching notification module whose
/// requirement must hold after placement.
fn fig4(name: &str) -> String {
    format!(
        "module {name}:\n\
         FromNetfront() -> IPFilter(allow udp dst port 1500) \
         -> IPRewriter(pattern - - {CLIENT_ADDR} - 0 0) -> TimedUnqueue(120, 100) \
         -> dst :: ToNetfront();\n\
         reach from internet udp\n\
         -> {name}:dst:0 dst {CLIENT_ADDR}\n\
         -> client dst port 1500\n\
         const proto && dst port && payload\n"
    )
}

/// The seeded request mix. Classes are drawn from a shuffled deck of the
/// 100 rolls, so every 100 requests hold each class in its exact share:
/// the costly Fig 4 class alone takes about two thirds of the request
/// time, and its count must not vary from rep to rep.
pub struct Mix {
    rng: Rng,
    deck: Vec<u64>,
    n: u64,
    /// Requests sent since the last kill (the verdict cache's lifetime),
    /// with whether each was accepted.
    recent: Vec<(String, bool)>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed ^ 0xad31),
            deck: Vec::new(),
            n: 0,
            recent: Vec::new(),
        }
    }

    /// The next request: its class, text and expected acceptance.
    pub fn next(&mut self) -> (Class, String, bool) {
        self.n += 1;
        let name = format!("m{}", self.n);
        if self.deck.is_empty() {
            self.deck = (0..100).collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let roll = self.deck.pop().expect("the deck was just refilled");
        if roll >= 75 && !self.recent.is_empty() {
            let i = self.rng.below(self.recent.len() as u64) as usize;
            let (text, accepted) = self.recent[i].clone();
            return (Class::Resubmit, text, accepted);
        }
        let (class, text, accepted) = match roll {
            0..=34 | 75.. => {
                let t = STOCK[self.rng.below(STOCK.len() as u64) as usize];
                (Class::Stock, format!("module {name}:\n{t}"), true)
            }
            35..=49 => {
                let tos = self.rng.below(64);
                let paint = self.rng.below(256);
                let port = 1024 + self.rng.below(60_000);
                (
                    Class::Novel,
                    format!(
                        "module {name}:\nFromNetfront() -> SetTOS({tos}) -> Paint({paint}) \
                         -> IPFilter(allow udp dst port {port}) \
                         -> IPRewriter(pattern - - {CLIENT_ADDR} - 0 0) -> ToNetfront();"
                    ),
                    true,
                )
            }
            50..=54 => (Class::Fig4, fig4(&name), true),
            _ => {
                let t = SPOOF[self.rng.below(SPOOF.len() as u64) as usize];
                (Class::Spoof, format!("module {name}:\n{t}"), false)
            }
        };
        self.recent.push((text.clone(), accepted));
        (class, text, accepted)
    }

    /// Kills flush the verdict cache: later resubmissions draw from
    /// what was sent since.
    fn flushed(&mut self) {
        self.recent.clear();
    }
}

fn controller(oracle: bool) -> Controller {
    let mut c = Controller::new(Topology::figure3());
    for i in 0..CLIENTS {
        c.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec![CLIENT_ADDR.parse().expect("valid literal address")],
        );
    }
    if oracle {
        c.set_analysis_enabled(false);
        c.set_summaries_enabled(false);
    }
    c
}

/// Whether a verdict is the expected one: accepted, or refused by the
/// security check.
fn verdict_ok(
    result: &Result<innet::controller::DeployResponse, DeployError>,
    accept: bool,
) -> bool {
    match result {
        Ok(_) => accept,
        Err(DeployError::SecurityReject(_)) => !accept,
        Err(_) => false,
    }
}

pub struct Mixed;

pub struct MixedState {
    seed: u64,
    ctl: Controller,
    mix: Mix,
    live: Vec<ModuleId>,
}

impl MixedState {
    /// Kills the oldest modules once too many are live. Returns the
    /// kill durations (µs) and counts failed kills.
    fn bound_live(&mut self, out: &mut RunOut) -> Vec<f64> {
        if self.live.len() <= MAX_LIVE {
            return Vec::new();
        }
        let victims: Vec<ModuleId> = self.live.drain(..self.live.len() - KEEP_LIVE).collect();
        let mut times = Vec::with_capacity(victims.len());
        for id in victims {
            let t = Instant::now();
            let r = self.ctl.kill(id);
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
            out.attempted += 1;
            out.fail(u64::from(r.is_err()), || format!("kill {id} failed: {r:?}"));
        }
        self.mix.flushed();
        times
    }

    /// One request, from text to verdict; returns its latency (µs) and
    /// the parse time (µs).
    fn request(&mut self, text: &str, accept: bool, out: &mut RunOut) -> (f64, f64) {
        let client = format!("tenant{}", self.mix.n as usize % CLIENTS);
        let t0 = Instant::now();
        let req = ClientRequest::parse(text);
        let t1 = Instant::now();
        let result = match req {
            Ok(req) => self.ctl.deploy(&client, req),
            Err(e) => Err(DeployError::UnknownClient(e.to_string())),
        };
        let t2 = Instant::now();
        out.attempted += 1;
        if let Ok(resp) = &result {
            self.live.push(resp.module_id);
        }
        let ok = verdict_ok(&result, accept);
        out.fail(u64::from(!ok), || {
            format!(
                "wrong verdict (expected accept={accept}): {:?}",
                result.as_ref().err()
            )
        });
        (
            (t2 - t0).as_nanos() as f64 / 1e3,
            (t1 - t0).as_nanos() as f64 / 1e3,
        )
    }

    /// The closed loop: reps of [`REQUESTS_PER_REP`] requests, each
    /// followed by the kills that bound the live modules, for at least one
    /// rep and `budget`. With `spans`, each request is also split by the
    /// controller's stage counters.
    fn drive(&mut self, budget: Duration, out: &mut RunOut, mut spans: Option<&mut Spans>) {
        let start = Instant::now();
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let mut lat = Vec::with_capacity(REQUESTS_PER_REP);
            let mut busy_us = 0.0;
            for _ in 0..REQUESTS_PER_REP {
                let (class, text, accept) = self.mix.next();
                let before = spans.is_some().then(|| self.ctl.stats());
                let (l, p) = self.request(&text, accept, out);
                if let (Some(sp), Some(s0)) = (spans.as_deref_mut(), before) {
                    sp.request(class, l, p, &s0, &self.ctl.stats());
                }
                let kills = self.bound_live(out);
                lat.push(l);
                busy_us += l + kills.iter().sum::<f64>();
                if let Some(sp) = spans.as_deref_mut() {
                    sp.kill_us.extend(kills);
                }
            }
            out.ops_per_s
                .push(REQUESTS_PER_REP as f64 / (busy_us / 1e6));
            out.push_latencies(lat);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Stage counters in pipeline order: lint, fast path, symbolic, placement.
fn stages(s: &ControllerStats) -> [u64; 4] {
    [
        s.stage_lint_ns,
        s.stage_fastpath_ns,
        s.stage_symbolic_ns,
        s.stage_placement_ns,
    ]
}

/// Per-class sums of one traced loop.
#[derive(Default, Clone)]
struct ClassAcc {
    lat_us: Vec<f64>,
    stages_ns: [u64; 4],
    n: u64,
}

/// What the traced loop accumulates around each request.
#[derive(Default)]
struct Spans {
    classes: [ClassAcc; CLASSES.len()],
    parse_us: Vec<f64>,
    kill_us: Vec<f64>,
    unattributed_us: Vec<f64>,
    stages_ns: [u64; 4],
    compile_ns: u64,
    check_ns: u64,
}

impl Spans {
    fn request(
        &mut self,
        class: Class,
        lat_us: f64,
        parse_us: f64,
        s0: &ControllerStats,
        s1: &ControllerStats,
    ) {
        let (a, b) = (stages(s0), stages(s1));
        let delta: [u64; 4] = std::array::from_fn(|i| b[i] - a[i]);
        let acc = &mut self.classes[CLASSES
            .iter()
            .position(|(c, _)| *c == class)
            .expect("every class is listed")];
        acc.lat_us.push(lat_us);
        acc.n += 1;
        for (i, ns) in delta.iter().enumerate() {
            acc.stages_ns[i] += ns;
            self.stages_ns[i] += ns;
        }
        self.compile_ns += s1.compile_ns - s0.compile_ns;
        self.check_ns += s1.check_ns - s0.check_ns;
        self.unattributed_us
            .push(lat_us - parse_us - delta.iter().sum::<u64>() as f64 / 1e3);
        self.parse_us.push(parse_us);
    }
}

impl Workload for Mixed {
    const NAME: &'static str = "admission-mixed";
    type State = MixedState;

    fn named(out: &mut RunOut) {
        out.named.push(
            Metric::new("admit_per_s", "requests/s", out.ops_per_s.clone())
                .reported(Report::Highest),
        );
        out.named.push(
            Metric::new("admit_p50_us", "us", out.lat_p50_us.clone()).reported(Report::Lowest),
        );
        out.named.push(
            Metric::new("admit_tail_us", "us", out.lat_tail_us.clone()).reported(Report::Lowest),
        );
    }

    fn setup(seed: u64) -> MixedState {
        let mut st = MixedState {
            seed,
            ctl: controller(false),
            mix: Mix::new(seed),
            live: Vec::new(),
        };
        // The first request pays one-time lazy set-up (stock summaries,
        // registry tables); do it here rather than in the first rep. The
        // same request for every seed, so set-up does the same work.
        let mut warm = RunOut::default();
        black_box(st.request(&format!("module warm:\n{}", STOCK[0]), true, &mut warm));
        st.mix = Mix::new(seed);
        st
    }

    fn measure(st: &mut MixedState, budget: Duration, out: &mut RunOut) {
        st.drive(budget, out, None);
    }

    fn trace(st: &mut MixedState, budget: Duration, out: &mut RunOut) -> (Vec<Metric>, f64) {
        let before = st.ctl.stats();
        let mut sp = Spans::default();
        st.drive(budget, out, Some(&mut sp));
        let after = st.ctl.stats();
        let d = |f: fn(&ControllerStats) -> u64| f(&after) - f(&before);
        let requests = sp.parse_us.len().max(1) as f64;
        let per_req_us = |ns: u64| ns as f64 / requests / 1e3;

        let mut layers = vec![
            Metric::one("policy.parse_us", "us", spread(&sp.parse_us).median),
            Metric::one(
                "controller.model_compile_us",
                "us",
                per_req_us(sp.compile_ns),
            ),
            Metric::one("controller.check_us", "us", per_req_us(sp.check_ns)),
            Metric::one(
                "controller.unattributed_us",
                "us",
                sp.unattributed_us.iter().sum::<f64>() / requests,
            ),
            Metric::one("controller.kill_us", "us", spread(&sp.kill_us).median),
            Metric::one(
                "controller.verdict_hit_ratio",
                "ratio",
                ratio(
                    d(|s| s.cache_hits),
                    d(|s| s.cache_hits) + d(|s| s.cache_misses),
                ),
            ),
            Metric::one(
                "controller.summary_hit_ratio",
                "ratio",
                ratio(
                    d(|s| s.summary_cache_hits),
                    d(|s| s.summary_cache_hits) + d(|s| s.summary_cache_misses),
                ),
            ),
            Metric::one(
                "controller.lint_memo_hit_ratio",
                "ratio",
                ratio(d(|s| s.lint_cache_hits), d(|s| s.cache_misses)),
            ),
            Metric::one(
                "analysis.fastpath_decided_ratio",
                "ratio",
                ratio(
                    d(|s| s.fastpath_hits),
                    d(|s| s.fastpath_hits) + d(|s| s.fastpath_fallbacks),
                ),
            ),
            Metric::one(
                "symnet.bailouts",
                "count",
                (d(|s| s.hop_cap_bailouts) + d(|s| s.visit_cap_bailouts)) as f64,
            ),
        ];
        let stage_names = ["lint", "fastpath", "symbolic", "placement"];
        for (s, ns) in stage_names.iter().zip(sp.stages_ns) {
            layers.push(Metric::one(
                format!("controller.stage_{s}_us"),
                "us",
                per_req_us(ns),
            ));
        }
        for ((_, cname), acc) in CLASSES.iter().zip(&mut sp.classes) {
            acc.lat_us.sort_by(f64::total_cmp);
            layers.push(Metric::one(
                format!("admission.{cname}_p50_us"),
                "us",
                percentile(&acc.lat_us, 0.5),
            ));
            for (s, ns) in stage_names.iter().zip(acc.stages_ns) {
                layers.push(Metric::one(
                    format!("controller.stage_{s}_us.{cname}"),
                    "us",
                    ns as f64 / acc.n.max(1) as f64 / 1e3,
                ));
            }
        }
        // The layers on a request's path: parse, the four stages, and
        // the kills amortized over the requests.
        let layer_sum_ns = spread(&sp.parse_us).median * 1e3
            + sp.stages_ns.iter().sum::<u64>() as f64 / requests
            + sp.kill_us.iter().sum::<f64>() * 1e3 / requests;
        (layers, layer_sum_ns)
    }

    fn check(st: &mut MixedState, traced: bool, out: &mut RunOut) {
        // Verdicts are checked per request in the loops; in traced runs a
        // seeded sample is also replayed against the whole-graph oracle.
        if !traced {
            return;
        }
        let mut prod = controller(false);
        let mut oracle = controller(true);
        let mut mix = Mix::new(st.seed ^ 0x0c1e);
        for i in 0..ORACLE_SAMPLE {
            let (_, text, _) = mix.next();
            let client = format!("tenant{}", i % CLIENTS);
            let parse = || ClientRequest::parse(&text).expect("mix requests parse");
            let a = prod.deploy(&client, parse());
            let b = oracle.deploy(&client, parse());
            out.attempted += 1;
            let same = a.is_ok() == b.is_ok();
            out.fail(u64::from(!same), || {
                format!(
                    "production and oracle disagree: {:?} vs {:?}",
                    a.as_ref().err(),
                    b.as_ref().err()
                )
            });
        }
    }
}
