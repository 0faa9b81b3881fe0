//! Static-analyzer integration tests.
//!
//! The load-bearing one is the differential property test: the abstract
//! interpreter's fast-path verdict must agree with full symbolic
//! execution on every generated configuration where it claims to be
//! conclusive — that agreement is the entire soundness contract of the
//! controller's fast path.

use innet::analysis::{abstract_verdict, lint};
use innet::click::{ClickConfig, Registry};
use innet::controller::HardeningPolicy;
use innet::prelude::*;
use innet::symnet::{
    check_module, check_module_summarized, SecurityContext, SummarySource, SymSummary,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::Ipv4Addr;

const ASSIGNED: &str = "192.0.2.10";
const REGISTERED: &str = "172.16.15.133";

fn ctx(class: RequesterClass) -> SecurityContext {
    SecurityContext {
        assigned_addr: ASSIGNED.parse().unwrap(),
        registered: vec![REGISTERED.parse().unwrap()],
        class,
    }
}

/// The middle-element pool the generator draws from: every packet-path
/// element family the symbolic models cover (filters, rewriters, tunnels,
/// NATs, proxies, opaque VMs, responders), with valid arguments.
const POOL: &[(&str, &[&str])] = &[
    ("Counter", &[]),
    ("Queue", &[]),
    ("TimedUnqueue", &["120", "100"]),
    ("CheckIPHeader", &[]),
    ("DecIPTTL", &[]),
    ("SetTOS", &["4"]),
    ("Paint", &["3"]),
    ("IPFilter", &["allow udp"]),
    ("IPFilter", &["allow tcp dst port 80"]),
    ("IPFilter", &["allow udp dst port 1500"]),
    ("SetIPSrc", &[ASSIGNED]),
    ("SetIPSrc", &["8.8.8.8"]),
    ("SetIPDst", &[REGISTERED]),
    ("SetIPDst", &["203.0.113.77"]),
    ("IPRewriter", &["pattern - - 172.16.15.133 - 0 0"]),
    ("ICMPPingResponder", &[]),
    ("UDPTunnelEncap", &[ASSIGNED, "7000", REGISTERED, "7001"]),
    ("UDPTunnelDecap", &[]),
    ("IPNAT", &["203.0.113.1"]),
    ("StaticIPLookup", &["172.16.0.0/12 0"]),
    ("StockX86VM", &[]),
    ("ServerS", &[]),
];

/// A random linear chain `FromNetfront -> middle* -> terminal`. Linear
/// chains over the full pool already exercise every abstract transfer
/// function (constants, copies, runtime values, filters, tunnels, havoc).
fn random_config(rng: &mut StdRng) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    let mut prev = "in".to_string();
    let middles = rng.gen_range(0usize..5);
    for i in 0..middles {
        let (class, args) = POOL[rng.gen_range(0..POOL.len())];
        let name = format!("e{i}");
        cfg.add_element(name.clone(), class, args);
        cfg.connect(prev, 0, name.clone(), 0);
        prev = name;
    }
    let terminal = if rng.gen_range(0u32..8) == 0 {
        "Discard"
    } else {
        "ToNetfront"
    };
    cfg.add_element("out", terminal, &[]);
    cfg.connect(prev, 0, "out", 0);
    cfg
}

/// ≥1000 generated configurations × every requester class: wherever the
/// analyzer returns a verdict, symbolic execution must return the same
/// one. Mismatches print the offending configuration.
#[test]
fn fast_path_agrees_with_symnet_on_generated_configs() {
    let registry = Registry::standard();
    let mut rng = StdRng::seed_from_u64(0x1e7_2015);
    let mut decisive = 0usize;
    let mut inconclusive = 0usize;
    for case in 0..1000 {
        let cfg = random_config(&mut rng);
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            let ctx = ctx(class);
            let Some(abs) = abstract_verdict(&cfg, &ctx, &registry) else {
                inconclusive += 1;
                continue;
            };
            decisive += 1;
            let sym = check_module(&cfg, &ctx, &registry).unwrap_or_else(|e| {
                panic!(
                    "case {case} ({class:?}): analyzer was conclusive but SymNet \
                     failed to model the config: {e}\n{}",
                    cfg.canonical_text()
                )
            });
            assert_eq!(
                abs.verdict,
                sym.verdict,
                "case {case} ({class:?}): fast path said {:?}, SymNet said {:?} \
                 (violations: {:?}, unknowns: {:?})\noffending config:\n{}",
                abs.verdict,
                sym.verdict,
                sym.violations,
                sym.unknowns,
                cfg.canonical_text()
            );
        }
    }
    // The fast path must be decisive often enough to matter; the exact
    // rate depends on the pool mix.
    assert!(
        decisive > 100,
        "fast path decided only {decisive} of {} cases",
        decisive + inconclusive
    );
}

/// In-test [`SummarySource`]: a plain map keyed by the canonical slice
/// text, mirroring the controller's fleet-wide cache (minus locking).
#[derive(Default)]
struct MapSource {
    entries: std::cell::RefCell<std::collections::HashMap<String, std::sync::Arc<SymSummary>>>,
    hits: std::cell::Cell<usize>,
}

impl SummarySource for MapSource {
    fn lookup(&self, cfg: &ClickConfig, chain: &[usize]) -> Option<std::sync::Arc<SymSummary>> {
        let hit = self
            .entries
            .borrow()
            .get(&cfg.canonical_slice_text(chain))
            .cloned();
        if hit.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        hit
    }

    fn store(&self, cfg: &ClickConfig, chain: &[usize], summary: std::sync::Arc<SymSummary>) {
        self.entries
            .borrow_mut()
            .insert(cfg.canonical_slice_text(chain), summary);
    }
}

/// ≥1000 generated configurations × every requester class: the
/// compositional checker (summary replay over the entry chain, cold and
/// cache-warm) must return the same verdict as whole-graph symbolic
/// execution. This is the soundness contract of the summary path — the
/// whole-graph executor stays the differential oracle.
#[test]
fn compositional_verdict_agrees_with_whole_graph() {
    let registry = Registry::standard();
    let mut rng = StdRng::seed_from_u64(0xc0_2015);
    let warm = MapSource::default();
    let mut chain_nodes = 0u64;
    for case in 0..1000 {
        let cfg = random_config(&mut rng);
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            let ctx = ctx(class);
            let oracle = check_module(&cfg, &ctx, &registry);
            // Cold: every summary computed in-call; warm: replayed from
            // the shared map that persists across all 1000 cases.
            let cold = check_module_summarized(&cfg, &ctx, &registry, None);
            let warmed = check_module_summarized(&cfg, &ctx, &registry, Some(&warm));
            for (mode, got) in [("cold", cold), ("warm", warmed)] {
                match (&oracle, got) {
                    (Ok(want), Ok((report, stats))) => {
                        assert_eq!(
                            want.verdict,
                            report.verdict,
                            "case {case} ({class:?}, {mode}): whole-graph said {:?}, \
                             compositional said {:?}\noffending config:\n{}",
                            want.verdict,
                            report.verdict,
                            cfg.canonical_text()
                        );
                        chain_nodes += stats.summary_chain_nodes;
                    }
                    (Err(_), Err(_)) => {}
                    (want, got) => panic!(
                        "case {case} ({class:?}, {mode}): whole-graph {want:?} but \
                         compositional {got:?}\noffending config:\n{}",
                        cfg.canonical_text()
                    ),
                }
            }
        }
    }
    // The summary path must actually engage (chains of >= 2 safe
    // elements exist in the pool) and the shared map must get replay
    // traffic across alpha-equivalent chains.
    assert!(chain_nodes > 0, "summary replay never engaged");
    assert!(warm.hits.get() > 0, "warm source never served a summary");
}

// --- Seeded malformed configurations: each must trip its lint rule. ---

fn lint_of(cfg: &ClickConfig) -> innet::analysis::LintReport {
    lint(cfg, &Registry::standard())
}

#[test]
fn arity_violation_is_l004() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("c", "Counter", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "c", 0);
    // Counter has exactly one output; port 1 does not exist.
    cfg.connect("c", 1, "out", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L004"), "{r}");
    assert!(r.has_errors());
}

#[test]
fn dead_output_is_l007() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("t", "Tee", &["2"]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "t", 0);
    cfg.connect("t", 0, "out", 0);
    // t[1] is wired to nothing: its copies vanish silently.
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L007"), "{r}");
}

#[test]
fn unreachable_element_is_l008() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.add_element("orphan", "Counter", &[]);
    cfg.add_element("sink", "Discard", &[]);
    cfg.connect("in", 0, "out", 0);
    cfg.connect("orphan", 0, "sink", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L008"), "{r}");
}

#[test]
fn queueless_cycle_is_l009_and_a_queue_clears_it() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Counter", &[]);
    cfg.add_element("b", "Counter", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("a", 0, "b", 0);
    cfg.connect("b", 0, "a", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L009"), "{r}");

    // The same loop through a Queue is a legitimate feedback shape.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Counter", &[]);
    cfg.add_element("q", "Queue", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("a", 0, "q", 0);
    cfg.connect("q", 0, "a", 0);
    let r = lint_of(&cfg);
    assert!(!r.has_rule("IN-L009"), "{r}");
}

#[test]
fn remaining_rules_fire() {
    // IN-L001: duplicate names.
    let mut cfg = ClickConfig::new();
    cfg.add_element("x", "Counter", &[]);
    cfg.add_element("x", "Counter", &[]);
    assert!(lint_of(&cfg).has_rule("IN-L001"));

    // IN-L002: unknown class.
    let mut cfg = ClickConfig::new();
    cfg.add_element("f", "Frobnicator", &[]);
    assert!(lint_of(&cfg).has_rule("IN-L002"));

    // IN-L003: malformed arguments.
    let mut cfg = ClickConfig::new();
    cfg.add_element("t", "SetTOS", &["not-a-number"]);
    assert!(lint_of(&cfg).has_rule("IN-L003"));

    // IN-L005: dangling connection.
    let mut cfg = ClickConfig::new();
    cfg.connect("ghost", 0, "phantom", 0);
    assert!(lint_of(&cfg).has_rule("IN-L005"));

    // IN-L006: fanout without a Tee.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Discard", &[]);
    cfg.add_element("b", "Discard", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("in", 0, "b", 0);
    assert!(lint_of(&cfg).has_rule("IN-L006"));

    // IN-L010: wiring into a source is a warning, not an error.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("in2", "FromNetfront", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "in2", 0);
    cfg.connect("in2", 0, "out", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L010"), "{r}");
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn dead_classifier_rule_is_l011() {
    // Rule 2 `udp dst port 53` can never fire: rule 0 `udp` already
    // captures every UDP packet. The warning names the shortest
    // shadowing prefix (just rule 0 here).
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         c :: IPClassifier(udp, tcp, udp dst port 53, -); \
         a :: Discard(); b :: Discard(); d :: Discard(); e :: Discard(); \
         in -> c; c[0] -> a; c[1] -> b; c[2] -> d; c[3] -> e;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L011"), "{r}");
    assert!(!r.has_errors(), "{r}");
    let d = r.diagnostics.iter().find(|d| d.rule == "IN-L011").unwrap();
    assert_eq!(d.element.as_deref(), Some("c"));
    assert!(d.message.contains("rule 2"), "{}", d.message);
    assert!(d.message.contains("0..=0"), "{}", d.message);
}

#[test]
fn dead_filter_rule_is_l011_with_multi_rule_prefix() {
    // Rule 2 `deny tcp dst port 80` is only fully covered once both
    // `tcp syn` (rule 0) and `tcp` (rule 1) are refuted, so the
    // shortest shadowing prefix is 0..=1.
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         f :: IPFilter(allow tcp syn, allow tcp, deny tcp dst port 80, allow any); \
         out :: ToNetfront(); in -> f -> out;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L011"), "{r}");
    assert!(!r.has_errors(), "{r}");
    let d = r.diagnostics.iter().find(|d| d.rule == "IN-L011").unwrap();
    assert_eq!(d.element.as_deref(), Some("f"));
    assert!(d.message.contains("rule 2"), "{}", d.message);
    assert!(d.message.contains("0..=1"), "{}", d.message);
    assert!(d.message.contains("deny tcp dst port 80"), "{}", d.message);
}

#[test]
fn live_rules_are_not_l011() {
    // The Figure 4 filter and an order-sensitive classifier where every
    // rule still has reachable packets.
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         f :: IPFilter(allow udp dst port 1500); \
         c :: IPClassifier(udp dst port 53, udp, -); \
         a :: Discard(); b :: Discard(); d :: Discard(); \
         in -> f -> c; c[0] -> a; c[1] -> b; c[2] -> d;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(!r.has_rule("IN-L011"), "{r}");
}

// --- Controller integration: lint rejection and the fast path. ---

fn controller() -> Controller {
    let mut c = Controller::new(Topology::figure3());
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec![REGISTERED.parse().unwrap()],
    );
    c.register_client(
        "cdn-corp",
        RequesterClass::ThirdParty,
        vec![Ipv4Addr::new(198, 51, 100, 1)],
    );
    c
}

#[test]
fn controller_rejects_lint_errors_with_the_diagnostic() {
    let mut c = controller();
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("t", "Tee", &["2"]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "t", 0);
    cfg.connect("t", 0, "out", 0);
    let req = ClientRequest::click("m", cfg);
    let err = c.deploy("mobile-7", req).unwrap_err();
    match err {
        DeployError::Lint(report) => {
            assert!(report.has_rule("IN-L007"), "{report}");
        }
        other => panic!("expected a lint rejection, got {other}"),
    }
    assert_eq!(c.stats().lint_rejects, 1);
    assert_eq!(c.modules().len(), 0);
}

/// The stock corpus (no requirements) must ride the fast path: every
/// verdict is decided by the analyzer, no symbolic execution at all.
#[test]
fn stock_corpus_rides_the_fast_path() {
    let mut c = controller();
    let obs = c.obs().clone();
    for (i, kind) in ["geo-dns", "reverse-proxy", "x86-vm", "explicit-proxy"]
        .iter()
        .enumerate()
    {
        let req = ClientRequest::parse(&format!("stock m{i}: {kind}")).unwrap();
        c.deploy("cdn-corp", req).unwrap();
    }
    let stats = c.stats();
    assert!(
        stats.fastpath_hits >= 4,
        "expected every stock deploy to fast-path, got {stats:?}"
    );
    assert!(stats.fastpath_hit_rate() > 0.0);
    assert_eq!(stats.check_ns, 0, "fast path must skip symbolic checking");
    assert_eq!(stats.compile_ns, 0, "fast path must skip model compilation");
    assert!(stats.analysis_ns > 0);

    // The counters are exported through the shared registry.
    let text = obs.snapshot().to_prometheus();
    assert!(text.contains("innet_ctl_fastpath_hits_total"), "{text}");
    assert!(text.contains("innet_ctl_lint_rejects_total"), "{text}");
}

/// A symbolic (non-fast-path) deploy exports the admission-pipeline
/// instrumentation: the reason-labeled bailout counter, the summary
/// cache counters, and the per-stage latency histograms.
#[test]
fn symbolic_pipeline_metrics_are_exported() {
    let mut c = controller();
    let obs = c.obs().clone();
    let req = ClientRequest::parse(
        "module batcher:\n\
         FromNetfront()\n\
           -> IPFilter(allow udp dst port 1500)\n\
           -> IPRewriter(pattern - - 172.16.15.133 - 0 0)\n\
           -> TimedUnqueue(120, 100)\n\
           -> dst :: ToNetfront();\n\
         reach from internet udp\n\
           -> batcher:dst:0 dst 172.16.15.133\n\
           -> client dst port 1500\n\
           const proto && dst port && payload",
    )
    .unwrap();
    c.deploy("mobile-7", req).unwrap();

    let stats = c.stats();
    assert!(
        stats.summary_chain_nodes > 0,
        "summaries engaged: {stats:?}"
    );
    assert_eq!(
        stats.symbolic_bailouts(),
        stats.hop_cap_bailouts + stats.visit_cap_bailouts
    );

    let text = obs.snapshot().to_prometheus();
    for metric in [
        "innet_ctl_symbolic_bailouts_total",
        "innet_ctl_summary_cache_hits_total",
        "innet_ctl_summary_cache_misses_total",
        "innet_ctl_stage_lint_ns",
        "innet_ctl_stage_fastpath_ns",
        "innet_ctl_stage_symbolic_ns",
        "innet_ctl_stage_placement_ns",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}

/// Disabling the analyzer forces the symbolic path — and the verdicts
/// stay identical (the stock x86 VM still gets its sandbox).
#[test]
fn disabling_analysis_preserves_verdicts() {
    let mut fast = controller();
    let mut slow = controller();
    slow.set_analysis_enabled(false);
    for c in [&mut fast, &mut slow] {
        let req = ClientRequest::parse("stock vm: x86-vm").unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(resp.sandboxed);
    }
    assert!(fast.stats().fastpath_hits > 0);
    assert_eq!(slow.stats().fastpath_hits, 0);
    assert!(slow.stats().check_ns > 0, "symbolic path must have run");
}

/// A spoofing config is rejected by the fast path with a security report,
/// not a lint error (it is structurally fine).
#[test]
fn fast_path_rejects_spoofing_with_security_report() {
    let mut c = controller();
    let req =
        ClientRequest::parse("module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();")
            .unwrap();
    let err = c.deploy("cdn-corp", req).unwrap_err();
    assert!(matches!(err, DeployError::SecurityReject(_)), "{err}");
    assert!(c.stats().fastpath_hits > 0);
    assert_eq!(c.stats().check_ns, 0);
}

/// Hardening gates the fast path off: the UDP-reflection ban needs
/// symbolic egress flows the analyzer does not produce.
#[test]
fn hardening_gates_the_fast_path_off() {
    let mut c = controller();
    c.set_hardening(HardeningPolicy {
        ingress_filtering: true,
        ban_udp_reflection: true,
    });
    let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
    assert!(matches!(
        c.deploy("cdn-corp", req),
        Err(DeployError::SecurityReject(_))
    ));
    assert_eq!(c.stats().fastpath_hits, 0);
    assert!(c.stats().check_ns > 0);
}
