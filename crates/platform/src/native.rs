//! Native execution: running tenant Click graphs at full speed on host
//! threads and measuring real throughput.
//!
//! The paper's data-plane numbers (Figures 8, 11, 12) are measured, not
//! modelled; this module provides the measured equivalent on our runtime.
//! Absolute rates differ from the authors' 10 Gb/s testbed (our substrate
//! is an in-process ring, not a NIC), but the *shapes* — flat consolidation
//! until the demux scan bites, sandboxing hurting small packets most,
//! per-middlebox differences — emerge from the same mechanisms.

use std::net::Ipv4Addr;
use std::time::Instant;

use innet_click::{ClickConfig, Registry, Router, RouterError};
use innet_packet::{Packet, PacketPool};

use crate::engine::Engine;

/// Result of a timed native run.
#[derive(Debug, Clone, Copy)]
pub struct NativeStats {
    /// Packets pushed in.
    pub packets: u64,
    /// Packets transmitted out.
    pub transmitted: u64,
    /// Wall-clock nanoseconds elapsed.
    pub elapsed_ns: u64,
}

impl NativeStats {
    /// Input rate in packets/second; 0.0 when no time elapsed (a rate
    /// from a zero-length interval would otherwise be `inf`/`NaN`).
    pub fn pps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Throughput in Gbit/s assuming `frame_len`-byte frames.
    pub fn gbps(&self, frame_len: usize) -> f64 {
        self.pps() * frame_len as f64 * 8.0 / 1e9
    }
}

/// Shared-registry instruments for one native runner (see
/// [`RunnerConfig::metrics`](crate::RunnerConfig::metrics)).
#[derive(Debug, Clone)]
struct NativeMetrics {
    packets: innet_obs::Counter,
    transmitted: innet_obs::Counter,
    run_ns: innet_obs::Histogram,
}

/// A single-threaded native runner around one router instance (one
/// ClickOS VM pins its Click thread to one vCPU). Build one with
/// [`NativeRunner::new`] for the default profile, or
/// [`RunnerConfig::native`](crate::RunnerConfig::native) to set batch
/// size and metrics up front.
pub struct NativeRunner {
    engine: Engine,
    metrics: Option<NativeMetrics>,
    batch: usize,
    /// Per-runner buffer pool: round inputs are copies of the caller's
    /// packet set, and in non-collecting runs the transmitted buffers
    /// recycle straight back into the next round's copies.
    pool: PacketPool,
}

impl NativeRunner {
    /// Instantiates the configuration with the default execution
    /// profile (equivalent to `RunnerConfig::new().native(cfg)`).
    pub fn new(cfg: &ClickConfig) -> Result<NativeRunner, RouterError> {
        NativeRunner::with_config(cfg, crate::RunnerConfig::new())
    }

    /// Instantiates the configuration with an explicit profile; used by
    /// [`RunnerConfig::native`](crate::RunnerConfig::native).
    pub(crate) fn with_config(
        cfg: &ClickConfig,
        config: crate::RunnerConfig,
    ) -> Result<NativeRunner, RouterError> {
        let mut engine = Engine::build(cfg, &Registry::standard(), config.compiled)?;
        let metrics = config.metrics.as_ref().map(|registry| {
            engine.attach_metrics(registry);
            NativeMetrics {
                packets: registry.counter("innet_native_packets_total"),
                transmitted: registry.counter("innet_native_transmitted_total"),
                run_ns: registry.histogram("innet_native_run_ns"),
            }
        });
        Ok(NativeRunner {
            engine,
            metrics,
            batch: config.batch,
            pool: PacketPool::new(),
        })
    }

    /// Access to the underlying interpreted router (for `element_as`
    /// counter inspection). `None` in compiled mode: the plan consumed
    /// its element instances during lowering.
    pub fn router(&self) -> Option<&Router> {
        self.engine.router()
    }

    /// Whether this runner executes the compiled plan.
    pub fn is_compiled(&self) -> bool {
        self.engine.is_compiled()
    }

    /// The compiled plan's stage listing, when running compiled (used by
    /// the parallel example's marker and by tests asserting fusion).
    pub fn plan(&self) -> Option<Vec<String>> {
        self.engine.compiled().map(|c| c.describe())
    }

    /// Pushes the packet set through the graph `rounds` times, measuring
    /// wall-clock time. Virtual time advances by `1 µs` per packet so
    /// token buckets refill realistically. Packets move in
    /// [`RunnerConfig::batch`](crate::RunnerConfig::batch)-sized batches
    /// through the router's batched delivery path.
    pub fn run(&mut self, packets: &[Packet], rounds: usize) -> NativeStats {
        self.run_inner(packets, rounds, false).0
    }

    /// Like [`NativeRunner::run`], but also returns every transmitted
    /// `(egress, packet)` pair in transmission order — the reference
    /// output the parallel runner's differential tests compare against.
    pub fn run_collect(
        &mut self,
        packets: &[Packet],
        rounds: usize,
    ) -> (NativeStats, Vec<(u16, Packet)>) {
        self.run_inner(packets, rounds, true)
    }

    fn run_inner(
        &mut self,
        packets: &[Packet],
        rounds: usize,
        collect: bool,
    ) -> (NativeStats, Vec<(u16, Packet)>) {
        let batch = self.batch.max(1);
        let mut now_ns = 0u64;
        let mut transmitted = 0u64;
        let mut out: Vec<(u16, Packet)> = Vec::new();
        let start = Instant::now();
        for _ in 0..rounds {
            for chunk in packets.chunks(batch) {
                let copies: Vec<Packet> = chunk.iter().map(|p| self.pool.copy_of(p)).collect();
                self.engine.push_batch(copies, now_ns, 1_000);
                now_ns += 1_000 * chunk.len() as u64;
                let before = out.len();
                self.engine.take_tx_into(&mut out);
                transmitted += (out.len() - before) as u64;
                if !collect {
                    for (_, pkt) in out.drain(..) {
                        self.pool.recycle(pkt);
                    }
                }
            }
        }
        let stats = NativeStats {
            packets: (packets.len() * rounds) as u64,
            transmitted,
            elapsed_ns: start.elapsed().as_nanos().max(1) as u64,
        };
        if let Some(m) = &self.metrics {
            m.packets.add(stats.packets);
            m.transmitted.add(stats.transmitted);
            m.run_ns.observe(stats.elapsed_ns);
        }
        (stats, out)
    }
}

/// Builds the consolidated multi-tenant configuration of §5/Figure 8:
/// one `IPClassifier` demultiplexer with a `dst host` rule per client,
/// each output feeding that client's firewall, all re-multiplexed onto
/// the outgoing interface.
pub fn consolidated_config(clients: &[Ipv4Addr]) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("src", "FromNetfront", &[]);
    cfg.add_element("snk", "ToNetfront", &[]);
    let rules: Vec<String> = clients.iter().map(|a| format!("dst host {a}")).collect();
    let rule_refs: Vec<&str> = rules.iter().map(|s| s.as_str()).collect();
    cfg.add_element("demux", "IPClassifier", &rule_refs);
    cfg.connect("src", 0, "demux", 0);
    for (i, addr) in clients.iter().enumerate() {
        let udp = format!("allow udp dst host {addr}");
        let tcp = format!("allow tcp dst host {addr}");
        let fw = cfg.add_element(format!("fw{i}"), "IPFilter", &[&udp, &tcp]);
        cfg.connect("demux", i, &fw, 0);
        cfg.connect(&fw, 0, "snk", 0);
    }
    cfg
}

/// The middlebox configurations of the Figure 12 sweep. Returns `None`
/// for an unknown kind instead of panicking, so callers handling
/// externally supplied kind strings can fail gracefully.
pub fn middlebox_config(kind: &str) -> Option<ClickConfig> {
    let text = match kind {
        "nat" => "FromNetfront() -> [0]n :: IPNAT(203.0.113.1); n[0] -> ToNetfront();".to_string(),
        "iprouter" => "FromNetfront() -> CheckIPHeader() -> DecIPTTL() \
             -> r :: StaticIPLookup(0.0.0.0/0 0); r[0] -> ToNetfront();"
            .to_string(),
        "firewall" => {
            "FromNetfront() -> IPFilter(allow udp, allow tcp dst port 80) -> ToNetfront();"
                .to_string()
        }
        "flowmeter" => "FromNetfront() -> FlowMeter() -> ToNetfront();".to_string(),
        _ => return None,
    };
    Some(ClickConfig::parse(&text).expect("middlebox configs are valid"))
}

/// Builds a bidirectional NAT gateway: interface 0 faces the inside
/// network, interface 1 the outside, with `IPNAT(public)` between them.
///
/// Outbound packets (ingress 0) enter the NAT's inside port and leave
/// rewritten on interface 1; inbound packets (ingress 1) enter the
/// outside port and leave translated on interface 0. This is the
/// configuration the parallel runner's stateful differential tests
/// drive with interleaved forward and reverse traffic: both directions
/// of a connection must land on the same replica (the symmetric
/// dispatch hash guarantees it) for the reverse path to find its
/// mapping.
pub fn nat_gateway_config(public: Ipv4Addr) -> ClickConfig {
    ClickConfig::parse(&format!(
        "inside :: FromNetfront(0); outside :: FromNetfront(1); \
         nat :: IPNAT({public}); \
         inside -> [0]nat; outside -> [1]nat; \
         nat[0] -> ToNetfront(1); nat[1] -> ToNetfront(0);"
    ))
    .expect("valid literal config")
}

/// Builds a bidirectional stateful firewall: interface 0 inside,
/// interface 1 outside, allowing outbound UDP and TCP and only
/// *related* inbound traffic. Like [`nat_gateway_config`], this keeps
/// per-connection state only, so it shards under the symmetric hash.
pub fn stateful_firewall_config() -> ClickConfig {
    ClickConfig::parse(
        "inside :: FromNetfront(0); outside :: FromNetfront(1); \
         fw :: StatefulFirewall(allow udp, allow tcp); \
         inside -> [0]fw; outside -> [1]fw; \
         fw[0] -> ToNetfront(1); fw[1] -> ToNetfront(0);",
    )
    .expect("valid literal config")
}

/// Wraps the firewall with a `ChangeEnforcer` on the world→module (RX)
/// path, the direction the paper's Figure 11 measures: every received
/// packet pays the enforcer's implicit-authorization bookkeeping before
/// reaching the firewall.
pub fn sandboxed_firewall(module_addr: Ipv4Addr, whitelist: Ipv4Addr) -> ClickConfig {
    ClickConfig::parse(&format!(
        "FromNetfront() -> [0]enf :: ChangeEnforcer({module_addr}, {whitelist}); \
         enf[0] -> IPFilter(allow udp, allow tcp) -> ToNetfront();"
    ))
    .expect("valid literal config")
}

/// The plain firewall the sandboxed variant is compared against.
pub fn plain_firewall() -> ClickConfig {
    ClickConfig::parse("FromNetfront() -> IPFilter(allow udp, allow tcp) -> ToNetfront();")
        .expect("valid literal config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_packet::{FlowKey, PacketBuilder};

    fn client_addrs(n: usize) -> Vec<Ipv4Addr> {
        (0..n)
            .map(|i| Ipv4Addr::new(203, 0, (113 + i / 250) as u8, (1 + i % 250) as u8))
            .collect()
    }

    #[test]
    fn consolidated_config_isolates_clients() {
        let clients = client_addrs(10);
        let cfg = consolidated_config(&clients);
        cfg.validate().unwrap();
        let mut runner = NativeRunner::new(&cfg).unwrap();
        // Traffic to client 3 passes; to a stranger drops.
        let ok = PacketBuilder::udp().dst(clients[3], 80).build();
        let bad = PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), 80)
            .build();
        let stats = runner.run(&[ok, bad], 1);
        assert_eq!(stats.packets, 2);
        assert_eq!(stats.transmitted, 1);
    }

    #[test]
    fn throughput_measurable() {
        let cfg = plain_firewall();
        let mut runner = NativeRunner::new(&cfg).unwrap();
        let pkts: Vec<Packet> = (0..64)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 0, 0, 1), i)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let stats = runner.run(&pkts, 50);
        assert_eq!(stats.transmitted, stats.packets);
        assert!(stats.pps() > 1000.0, "sane rate: {}", stats.pps());
    }

    #[test]
    fn sandbox_costs_throughput() {
        let module = Ipv4Addr::new(203, 0, 113, 10);
        let white = Ipv4Addr::new(198, 51, 100, 1);
        let pkts: Vec<Packet> = (0..64)
            .map(|i| {
                PacketBuilder::udp()
                    .src(
                        Ipv4Addr::new(8, 8, 8, (i % 250) as u8 + 1),
                        40_000 + i as u16,
                    )
                    .dst(module, 1500)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let mut plain = NativeRunner::new(&plain_firewall()).unwrap();
        let mut boxed = NativeRunner::new(&sandboxed_firewall(module, white)).unwrap();
        let p = plain.run(&pkts, 50);
        let b = boxed.run(&pkts, 50);
        // Functional: the sandboxed RX path forwards everything (inbound
        // traffic to the module is always allowed), it just costs more.
        assert_eq!(b.transmitted, b.packets);
        assert_eq!(p.transmitted, p.packets);
        // The cost *comparison* is measured by the Figure 11 bench in
        // release mode; asserting relative wall-clock times in a debug
        // test would be flaky.
    }

    #[test]
    fn zero_elapsed_stats_do_not_divide_by_zero() {
        // Regression: a zero-length interval used to yield pps() = inf
        // and gbps() = inf (or NaN for an empty run), which poisoned
        // downstream averages.
        let stats = NativeStats {
            packets: 100,
            transmitted: 100,
            elapsed_ns: 0,
        };
        assert_eq!(stats.pps(), 0.0);
        assert_eq!(stats.gbps(64), 0.0);
        let empty = NativeStats {
            packets: 0,
            transmitted: 0,
            elapsed_ns: 0,
        };
        assert!(empty.pps() == 0.0 && empty.gbps(64) == 0.0);
    }

    #[test]
    fn run_collect_returns_transmissions_in_order() {
        let cfg = plain_firewall();
        let mut runner = NativeRunner::new(&cfg).unwrap();
        let pkts: Vec<Packet> = (0..5)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
                    .pad_to(64 + i as usize)
                    .build()
            })
            .collect();
        let (stats, out) = runner.run_collect(&pkts, 1);
        assert_eq!(stats.transmitted, 5);
        assert_eq!(out.len(), 5);
        for (i, (egress, pkt)) in out.iter().enumerate() {
            assert_eq!(*egress, 0);
            assert_eq!(pkt.len(), 64 + i);
        }
    }

    #[test]
    fn batched_run_matches_unbatched_counts() {
        let clients = client_addrs(4);
        let cfg = consolidated_config(&clients);
        let pkts: Vec<Packet> = (0..97)
            .map(|i| {
                PacketBuilder::udp()
                    .dst(clients[i % clients.len()], 80)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let mut unbatched = crate::RunnerConfig::new().batch(1).native(&cfg).unwrap();
        let mut batched = crate::RunnerConfig::new().batch(32).native(&cfg).unwrap();
        let a = unbatched.run(&pkts, 3);
        let b = batched.run(&pkts, 3);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.transmitted, b.transmitted);
    }

    #[test]
    fn nat_gateway_translates_both_directions() {
        let public = Ipv4Addr::new(203, 0, 113, 1);
        let cfg = nat_gateway_config(public);
        cfg.validate().unwrap();
        let mut runner = NativeRunner::new(&cfg).unwrap();
        // Outbound from the inside network (ingress 0)...
        let out = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        let (_, tx) = runner.run_collect(&[out], 1);
        assert_eq!(tx.len(), 1);
        let (egress, rewritten) = &tx[0];
        assert_eq!(*egress, 1, "outbound leaves on the outside interface");
        let ip = rewritten.ipv4().unwrap();
        assert_eq!(ip.src(), public);
        // ...and the reply (ingress 1) translates back to the inside host.
        let mapped = FlowKey::of(rewritten).unwrap().src_port;
        let mut reply = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 53)
            .dst(public, mapped)
            .build();
        reply.meta.ingress = 1;
        let (_, tx) = runner.run_collect(&[reply], 1);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].0, 0, "inbound leaves on the inside interface");
        let ip = tx[0].1.ipv4().unwrap();
        assert_eq!(ip.dst(), Ipv4Addr::new(10, 0, 0, 7));
    }

    #[test]
    fn stateful_firewall_blocks_unrelated_inbound() {
        let cfg = stateful_firewall_config();
        cfg.validate().unwrap();
        let mut runner = NativeRunner::new(&cfg).unwrap();
        // Unsolicited inbound drops; after an outbound packet opens the
        // connection, the reverse direction passes.
        let mut unsolicited = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 53)
            .dst(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .build();
        unsolicited.meta.ingress = 1;
        let stats = runner.run(&[unsolicited.clone()], 1);
        assert_eq!(stats.transmitted, 0);
        let outbound = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 7), 5000)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        let stats = runner.run(&[outbound], 1);
        assert_eq!(stats.transmitted, 1);
        let stats = runner.run(&[unsolicited], 1);
        assert_eq!(stats.transmitted, 1, "related inbound now passes");
    }

    #[test]
    fn middlebox_configs_run() {
        assert!(middlebox_config("frobnicator").is_none());
        for kind in ["nat", "iprouter", "firewall", "flowmeter"] {
            let cfg = middlebox_config(kind).unwrap();
            let mut runner = NativeRunner::new(&cfg).unwrap();
            let pkts = vec![PacketBuilder::udp().ttl(64).build()];
            let stats = runner.run(&pkts, 10);
            assert_eq!(stats.transmitted, 10, "{kind} forwards traffic");
        }
    }
}
