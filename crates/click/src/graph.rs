//! The router: instantiates a configuration and drives packets through the
//! element graph.

use std::collections::{HashMap, VecDeque};

use innet_packet::Packet;

use crate::{
    config::{ClickConfig, PortRef},
    element::{Context, Element, Sink},
    elements::FromNetfront,
    registry::Registry,
    ElementError,
};

/// Hard bound on element hops a single injected packet (and its clones) may
/// traverse; exceeding it indicates a forwarding loop in the configuration.
const MAX_HOPS: usize = 100_000;

/// Errors produced while instantiating or running a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// Element instantiation failed.
    Element(ElementError),
    /// The configuration failed validation.
    Config(crate::config::ConfigError),
    /// A connection references a port outside the element's declared range.
    BadPort {
        /// The offending port reference.
        port: PortRef,
        /// Whether it was an input (true) or output (false) port.
        input: bool,
    },
    /// A packet exceeded the hop limit (100,000 element traversals).
    LoopDetected,
    /// `deliver` was called for an interface with no `FromNetfront`.
    NoSuchInterface(u16),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Element(e) => write!(f, "{e}"),
            RouterError::Config(e) => write!(f, "{e}"),
            RouterError::BadPort { port, input } => write!(
                f,
                "{} port [{}]{} out of range",
                if *input { "input" } else { "output" },
                port.port,
                port.element
            ),
            RouterError::LoopDetected => write!(f, "packet exceeded hop limit (loop?)"),
            RouterError::NoSuchInterface(i) => write!(f, "no FromNetfront for interface {i}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<ElementError> for RouterError {
    fn from(e: ElementError) -> Self {
        RouterError::Element(e)
    }
}

impl From<crate::config::ConfigError> for RouterError {
    fn from(e: crate::config::ConfigError) -> Self {
        RouterError::Config(e)
    }
}

/// Counters maintained by the router while processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets delivered from the outside via `deliver`.
    pub delivered: u64,
    /// Packets transmitted to the outside by `ToNetfront` elements.
    pub transmitted: u64,
    /// Packets that left an unconnected output port (dropped, as in
    /// Click — but counted, and reason-labeled when metrics are
    /// attached).
    pub dropped_unconnected: u64,
    /// Total element hops executed.
    pub hops: u64,
}

/// Shared-registry instruments a router publishes into when attached
/// via `attach_metrics`. Both engines ([`Router`] and
/// [`CompiledRouter`](crate::CompiledRouter)) register the same series,
/// and many routers attached to the same registry (every ClickOS VM on a
/// host, say) share these handles, so the registry aggregates across the
/// fleet.
#[derive(Debug, Clone)]
pub(crate) struct RouterMetrics {
    delivered: innet_obs::Counter,
    transmitted: innet_obs::Counter,
    hops: innet_obs::Counter,
    dropped_unconnected: innet_obs::Counter,
}

impl RouterMetrics {
    pub(crate) fn register(reg: &innet_obs::Registry) -> RouterMetrics {
        RouterMetrics {
            delivered: reg.counter("innet_click_delivered_total"),
            transmitted: reg.counter("innet_click_transmitted_total"),
            hops: reg.counter("innet_click_hops_total"),
            dropped_unconnected: reg
                .labeled_counter("innet_click_drops_total", "reason")
                .with("unconnected_port"),
        }
    }
}

impl RouterStats {
    /// Adds the counts `f` sets on a zero delta to these stats and, when
    /// attached, to the registry series — the one accounting call both
    /// engines make. Zero counts skip their atomic add.
    #[inline]
    pub(crate) fn record(
        &mut self,
        metrics: &Option<RouterMetrics>,
        f: impl FnOnce(&mut RouterStats),
    ) {
        let mut d = RouterStats::default();
        f(&mut d);
        self.delivered += d.delivered;
        self.transmitted += d.transmitted;
        self.dropped_unconnected += d.dropped_unconnected;
        self.hops += d.hops;
        if let Some(m) = metrics {
            for (counter, n) in [
                (&m.delivered, d.delivered),
                (&m.transmitted, d.transmitted),
                (&m.dropped_unconnected, d.dropped_unconnected),
                (&m.hops, d.hops),
            ] {
                if n != 0 {
                    counter.add(n);
                }
            }
        }
    }
}

/// An instantiated element graph with push-based execution.
///
/// See the crate-level example for typical use. The router is
/// single-threaded by design (one ClickOS VM pins its Click instance to one
/// vCPU); parallelism in In-Net comes from running many routers.
pub struct Router {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// `(element, out_port) -> (element, in_port)`.
    edges: HashMap<(usize, usize), (usize, usize)>,
    /// Interface id -> index of its `FromNetfront` element.
    rx_ifaces: HashMap<u16, usize>,
    /// Packets emitted by `ToNetfront` elements, awaiting `take_tx`.
    tx: Vec<(u16, Packet)>,
    /// Last virtual time seen.
    now_ns: u64,
    /// Execution counters.
    pub stats: RouterStats,
    /// Shared-registry mirrors of `stats`, when attached.
    metrics: Option<RouterMetrics>,
    /// Reusable worklist buffer: allocated once, reused by every
    /// `run_from` so batch processing does not pay a queue allocation
    /// per packet.
    scratch: VecDeque<(usize, usize, Packet)>,
    /// Reusable per-hop emission buffer (same rationale).
    emitted_buf: Vec<(usize, Packet)>,
}

/// Outcome of a [`Router::push_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Packets that entered the graph and ran to completion.
    pub delivered: u64,
    /// Packets that failed (unknown ingress interface or a detected
    /// forwarding loop); the rest of the batch still runs.
    pub failed: u64,
}

/// Sink used during a run: buffers port pushes for queueing and routes
/// transmissions straight into the router's tx list.
struct RunSink<'a> {
    emitted: &'a mut Vec<(usize, Packet)>,
    tx: &'a mut Vec<(u16, Packet)>,
}

impl Sink for RunSink<'_> {
    fn push(&mut self, port: usize, pkt: Packet) {
        self.emitted.push((port, pkt));
    }

    fn transmit(&mut self, iface: u16, pkt: Packet) {
        self.tx.push((iface, pkt));
    }
}

impl Router {
    /// Instantiates all elements of `cfg` via `registry` and wires them up.
    pub fn from_config(cfg: &ClickConfig, registry: &Registry) -> Result<Router, RouterError> {
        cfg.validate()?;
        let mut elements = Vec::with_capacity(cfg.elements.len());
        let mut names = Vec::with_capacity(cfg.elements.len());
        let mut index = HashMap::new();
        let mut rx_ifaces = HashMap::new();
        for decl in &cfg.elements {
            let el = registry.instantiate(&decl.class, &decl.args)?;
            if let Some(fnf) = el.as_any().downcast_ref::<FromNetfront>() {
                rx_ifaces.insert(fnf.iface(), elements.len());
            }
            index.insert(decl.name.clone(), elements.len());
            names.push(decl.name.clone());
            elements.push(el);
        }

        let mut edges = HashMap::new();
        for c in &cfg.connections {
            let from_idx = index[&c.from.element];
            let to_idx = index[&c.to.element];
            let from_ports = elements[from_idx].ports();
            let to_ports = elements[to_idx].ports();
            if c.from.port >= from_ports.outputs {
                return Err(RouterError::BadPort {
                    port: c.from.clone(),
                    input: false,
                });
            }
            if c.to.port >= to_ports.inputs {
                return Err(RouterError::BadPort {
                    port: c.to.clone(),
                    input: true,
                });
            }
            let prev = edges.insert((from_idx, c.from.port), (to_idx, c.to.port));
            debug_assert!(
                prev.is_none(),
                "duplicate wiring of {}[{}] survived validation",
                c.from.element,
                c.from.port
            );
        }

        // Graph invariants: every wire references a live element and an
        // in-range port on both sides. `validate()` plus the arity checks
        // above guarantee this; internal corruption should fail loudly
        // here rather than misroute packets later.
        debug_assert!(edges.iter().all(|(&(f, fp), &(t, tp))| {
            f < elements.len()
                && t < elements.len()
                && fp < elements[f].ports().outputs
                && tp < elements[t].ports().inputs
        }));

        Ok(Router {
            elements,
            names,
            index,
            edges,
            rx_ifaces,
            tx: Vec::new(),
            now_ns: 0,
            stats: RouterStats::default(),
            metrics: None,
            scratch: VecDeque::new(),
            emitted_buf: Vec::new(),
        })
    }

    /// Publishes this router's counters into `registry` (Prometheus
    /// namespace `innet_click_*`), in addition to the always-on
    /// [`RouterStats`] struct. Routers attached to the same registry
    /// aggregate into the same series; only events after attachment are
    /// counted there.
    pub fn attach_metrics(&mut self, registry: &innet_obs::Registry) {
        self.metrics = Some(RouterMetrics::register(registry));
    }

    /// Number of elements in the graph.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The element instance names, in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Immutable access to an element by name, downcast to `T`.
    pub fn element_as<T: 'static>(&self, name: &str) -> Option<&T> {
        let idx = *self.index.get(name)?;
        self.elements[idx].as_any().downcast_ref::<T>()
    }

    /// Mutable access to an element by name, downcast to `T`.
    pub fn element_as_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        let idx = *self.index.get(name)?;
        self.elements[idx].as_any_mut().downcast_mut::<T>()
    }

    /// Delivers an external packet to the `FromNetfront` of `iface` at
    /// virtual time `now_ns`, running the graph to completion.
    ///
    /// Returns an error when the interface does not exist or a loop is
    /// detected; transmitted packets accumulate for [`Router::take_tx`].
    pub fn deliver(&mut self, iface: u16, pkt: Packet, now_ns: u64) -> Result<(), RouterError> {
        let Some(&idx) = self.rx_ifaces.get(&iface) else {
            return Err(RouterError::NoSuchInterface(iface));
        };
        self.stats.record(&self.metrics, |d| d.delivered = 1);
        self.run_from(idx, 0, pkt, now_ns)
    }

    /// Injects a packet directly into input `port` of element `name`
    /// (used by tests and by the controller's probe machinery).
    pub fn inject(
        &mut self,
        name: &str,
        port: usize,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<(), RouterError> {
        let Some(&idx) = self.index.get(name) else {
            return Err(RouterError::Config(
                crate::config::ConfigError::UnknownElement(name.to_string()),
            ));
        };
        self.run_from(idx, port, pkt, now_ns)
    }

    fn run_from(
        &mut self,
        idx: usize,
        port: usize,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<(), RouterError> {
        self.now_ns = now_ns;
        let ctx = Context::at(now_ns);
        let mut queue = std::mem::take(&mut self.scratch);
        let mut emitted = std::mem::take(&mut self.emitted_buf);
        queue.clear();
        queue.push_back((idx, port, pkt));
        let mut hops = 0usize;
        let mut result = Ok(());
        while let Some((i, p, pkt)) = queue.pop_front() {
            hops += 1;
            if hops > MAX_HOPS {
                result = Err(RouterError::LoopDetected);
                break;
            }
            let before_tx = self.tx.len();
            emitted.clear();
            let mut sink = RunSink {
                emitted: &mut emitted,
                tx: &mut self.tx,
            };
            self.elements[i].push(p, pkt, &ctx, &mut sink);
            let transmitted = (self.tx.len() - before_tx) as u64;
            self.stats.record(&self.metrics, |d| {
                (d.hops, d.transmitted) = (1, transmitted)
            });
            for (out_port, out_pkt) in emitted.drain(..) {
                match self.edges.get(&(i, out_port)) {
                    Some(&(ni, np)) => queue.push_back((ni, np, out_pkt)),
                    None => self
                        .stats
                        .record(&self.metrics, |d| d.dropped_unconnected = 1),
                }
            }
        }
        // Return the buffers to the router for the next packet (cleared
        // of any in-flight work if a loop bailed out mid-run).
        queue.clear();
        emitted.clear();
        self.scratch = queue;
        self.emitted_buf = emitted;
        result
    }

    /// Pushes a whole batch of packets through the graph, each entering
    /// via the interface recorded in its `meta.ingress` annotation.
    ///
    /// Virtual time advances by `step_ns` *before* every packet, exactly
    /// like driving [`Router::deliver`] in a loop (the batch's last
    /// packet runs at `now_ns + step_ns * batch.len()`); per-packet
    /// failures (unknown interface, forwarding loop) are counted in the
    /// result instead of aborting the rest of the batch. The outputs of
    /// the whole batch accumulate for [`Router::take_tx`].
    ///
    /// Batching amortizes per-packet dispatch: one call covers the whole
    /// batch, the internal worklist and emission buffers are reused
    /// across packets, and when every packet in the batch enters through
    /// the same `FromNetfront` the ingress ring is drained in one
    /// batched transfer ([`NetfrontRing::transfer_batch`]) rather than
    /// one element invocation per packet.
    ///
    /// [`NetfrontRing::transfer_batch`]: crate::NetfrontRing::transfer_batch
    pub fn push_batch(&mut self, batch: Vec<Packet>, now_ns: u64, step_ns: u64) -> BatchResult {
        let mut result = BatchResult::default();
        let mut now = now_ns;

        // Fast path: a single-ingress batch skips the per-packet entry
        // dispatch — the ring is drained in one call and each packet
        // starts directly at the netfront's successor element.
        let shared_iface = match batch.as_slice() {
            [] => return result,
            [first, rest @ ..] => {
                let iface = first.meta.ingress;
                rest.iter()
                    .all(|p| p.meta.ingress == iface)
                    .then_some(iface)
            }
        };
        if let Some(iface) = shared_iface {
            if let Some(&entry) = self.rx_ifaces.get(&iface) {
                let successor = self.edges.get(&(entry, 0)).copied();
                let fnf = self.elements[entry]
                    .as_any_mut()
                    .downcast_mut::<FromNetfront>()
                    .expect("rx_ifaces only indexes FromNetfront elements");
                fnf.ring_mut().transfer_batch(&batch);
                let n = batch.len() as u64;
                // The entry hop runs once per packet on the slow path;
                // account it identically here.
                self.stats
                    .record(&self.metrics, |d| (d.delivered, d.hops) = (n, n));
                match successor {
                    Some((ni, np)) => {
                        for mut pkt in batch {
                            now += step_ns;
                            pkt.meta.ingress = iface;
                            match self.run_from(ni, np, pkt, now) {
                                Ok(()) => result.delivered += 1,
                                Err(_) => result.failed += 1,
                            }
                        }
                    }
                    None => {
                        // Unwired netfront: every packet drops exactly as
                        // it would through the per-packet path.
                        self.stats
                            .record(&self.metrics, |d| d.dropped_unconnected = n);
                        self.now_ns = now + step_ns * n;
                        result.delivered += n;
                    }
                }
                return result;
            }
        }

        for pkt in batch {
            now += step_ns;
            let iface = pkt.meta.ingress;
            match self.deliver(iface, pkt, now) {
                Ok(()) => result.delivered += 1,
                Err(_) => result.failed += 1,
            }
        }
        result
    }

    /// Advances virtual time: ticks every element, then runs any packets
    /// they released. Returns the packets transmitted during this tick.
    pub fn tick(&mut self, now_ns: u64) -> Vec<(u16, Packet)> {
        self.now_ns = now_ns;
        let ctx = Context::at(now_ns);
        let mut released: Vec<(usize, usize, Packet)> = Vec::new();
        let mut new_tx = 0u64;
        let mut emitted: Vec<(usize, Packet)> = Vec::new();
        for (i, el) in self.elements.iter_mut().enumerate() {
            let before_tx = self.tx.len();
            let mut sink = RunSink {
                emitted: &mut emitted,
                tx: &mut self.tx,
            };
            el.tick(&ctx, &mut sink);
            new_tx += (self.tx.len() - before_tx) as u64;
            for (out_port, pkt) in emitted.drain(..) {
                released.push((i, out_port, pkt));
            }
        }
        self.stats.record(&self.metrics, |d| d.transmitted = new_tx);
        for (i, out_port, pkt) in released {
            match self.edges.get(&(i, out_port)).copied() {
                Some((ni, np)) => {
                    // A tick-released packet then flows like any other.
                    let _ = self.run_from(ni, np, pkt, now_ns);
                }
                None => self
                    .stats
                    .record(&self.metrics, |d| d.dropped_unconnected = 1),
            }
        }
        self.take_tx()
    }

    /// The earliest wake-up any element wants, if any.
    pub fn next_tick_ns(&self) -> Option<u64> {
        self.elements.iter().filter_map(|e| e.next_tick_ns()).min()
    }

    /// Drains and returns packets transmitted since the last call.
    pub fn take_tx(&mut self) -> Vec<(u16, Packet)> {
        std::mem::take(&mut self.tx)
    }

    /// Drains transmitted packets into `out` without allocating a fresh
    /// vector — the batched companion of [`Router::take_tx`], used by
    /// runners that drain once per batch into a long-lived buffer.
    pub fn take_tx_into(&mut self, out: &mut Vec<(u16, Packet)>) {
        out.append(&mut self.tx);
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("elements", &self.names)
            .field("edges", &self.edges.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Counter;
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn build(cfg: &str) -> Router {
        Router::from_config(&ClickConfig::parse(cfg).unwrap(), &Registry::standard()).unwrap()
    }

    #[test]
    fn straight_pipeline_transmits() {
        let mut r = build("FromNetfront() -> cnt :: Counter() -> ToNetfront();");
        r.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        let tx = r.take_tx();
        assert_eq!(tx.len(), 1);
        assert_eq!(r.element_as::<Counter>("cnt").unwrap().packets(), 1);
        assert_eq!(r.stats.delivered, 1);
        assert_eq!(r.stats.transmitted, 1);
    }

    #[test]
    fn unconnected_output_drops() {
        let mut r = build("FromNetfront() -> Counter();");
        r.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        assert!(r.take_tx().is_empty());
        assert_eq!(r.stats.dropped_unconnected, 1);
    }

    #[test]
    fn attached_metrics_mirror_stats_and_aggregate() {
        let reg = innet_obs::Registry::new();
        let mut a = build("FromNetfront() -> Counter();");
        let mut b = build("FromNetfront() -> ToNetfront();");
        a.attach_metrics(&reg);
        b.attach_metrics(&reg);
        a.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        b.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        assert_eq!(reg.counter("innet_click_delivered_total").get(), 2);
        assert_eq!(reg.counter("innet_click_transmitted_total").get(), 1);
        assert_eq!(
            reg.labeled_counter("innet_click_drops_total", "reason")
                .get("unconnected_port"),
            1,
            "the unconnected drop is reason-labeled, not silent"
        );
        // The always-on struct still counts per router.
        assert_eq!(a.stats.dropped_unconnected, 1);
        assert_eq!(b.stats.dropped_unconnected, 0);
    }

    #[test]
    fn missing_interface_errors() {
        let mut r = build("FromNetfront(1) -> ToNetfront();");
        assert_eq!(
            r.deliver(0, PacketBuilder::udp().build(), 0).unwrap_err(),
            RouterError::NoSuchInterface(0)
        );
        r.deliver(1, PacketBuilder::udp().build(), 0).unwrap();
        assert_eq!(r.take_tx().len(), 1);
    }

    #[test]
    fn classifier_branches() {
        let mut r = build(
            r#"
            src :: FromNetfront();
            c :: IPClassifier(udp, tcp);
            u :: Counter(); t :: Counter();
            snkA :: ToNetfront(0); snkB :: ToNetfront(1);
            src -> c;
            c[0] -> u -> snkA;
            c[1] -> t -> snkB;
            "#,
        );
        r.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        r.deliver(0, PacketBuilder::tcp().build(), 0).unwrap();
        r.deliver(0, PacketBuilder::tcp().build(), 0).unwrap();
        assert_eq!(r.element_as::<Counter>("u").unwrap().packets(), 1);
        assert_eq!(r.element_as::<Counter>("t").unwrap().packets(), 2);
        let tx = r.take_tx();
        assert_eq!(tx.iter().filter(|(i, _)| *i == 0).count(), 1);
        assert_eq!(tx.iter().filter(|(i, _)| *i == 1).count(), 2);
    }

    #[test]
    fn loop_detection() {
        // Tee feeding itself creates an amplifying loop.
        let mut r = build("t :: Tee(2); t[0] -> t; t[1] -> [0]d :: Discard;");
        let err = r
            .inject("t", 0, PacketBuilder::udp().build(), 0)
            .unwrap_err();
        assert_eq!(err, RouterError::LoopDetected);
    }

    #[test]
    fn bad_port_rejected_at_build() {
        let cfg = ClickConfig::parse("c :: Counter(); d :: Discard; c[3] -> d;").unwrap();
        let err = Router::from_config(&cfg, &Registry::standard()).unwrap_err();
        assert!(matches!(err, RouterError::BadPort { input: false, .. }));
    }

    #[test]
    fn unknown_class_rejected() {
        let cfg = ClickConfig::parse("x :: FluxCapacitor();").unwrap();
        let err = Router::from_config(&cfg, &Registry::standard()).unwrap_err();
        assert!(matches!(
            err,
            RouterError::Element(ElementError::UnknownClass(_))
        ));
    }

    #[test]
    fn push_batch_matches_per_packet_delivery() {
        // Same packets, one router fed per-packet and one fed in batches:
        // identical outputs, stats, and netfront ring accounting.
        let cfg = r#"
            src :: FromNetfront();
            c :: IPClassifier(udp dst port 80, tcp);
            snkA :: ToNetfront(0); snkB :: ToNetfront(1);
            src -> c;
            c[0] -> snkA;
            c[1] -> snkB;
        "#;
        let mut serial = build(cfg);
        let mut batched = build(cfg);
        let pkts: Vec<Packet> = (0..23)
            .map(|i| {
                if i % 3 == 0 {
                    PacketBuilder::tcp()
                        .dst(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
                        .build()
                } else {
                    PacketBuilder::udp()
                        .dst(Ipv4Addr::new(10, 0, 0, 2), 80)
                        .build()
                }
            })
            .collect();

        let mut now = 0u64;
        for pkt in &pkts {
            now += 1_000;
            serial.deliver(0, pkt.clone(), now).unwrap();
        }
        let r = batched.push_batch(pkts.clone(), 0, 1_000);
        assert_eq!(r.delivered, pkts.len() as u64);
        assert_eq!(r.failed, 0);

        assert_eq!(serial.take_tx(), batched.take_tx());
        assert_eq!(serial.stats, batched.stats);
        // The batched ingress drained its ring identically.
        let a = serial
            .element_as::<FromNetfront>("src")
            .unwrap()
            .rx_packets();
        let b = batched
            .element_as::<FromNetfront>("src")
            .unwrap()
            .rx_packets();
        assert_eq!(a, b);
    }

    #[test]
    fn push_batch_mixed_ingress_and_errors() {
        let cfg = "a :: FromNetfront(0) -> snk :: ToNetfront(); b :: FromNetfront(1) -> snk2 :: ToNetfront(1);";
        let mut r = build(cfg);
        let mut batch: Vec<Packet> = Vec::new();
        for i in 0..6u16 {
            let mut p = PacketBuilder::udp().build();
            p.meta.ingress = i % 2;
            batch.push(p);
        }
        // One packet aimed at a non-existent interface fails without
        // sinking the batch.
        let mut stray = PacketBuilder::udp().build();
        stray.meta.ingress = 9;
        batch.push(stray);
        let res = r.push_batch(batch, 0, 1_000);
        assert_eq!(res.delivered, 6);
        assert_eq!(res.failed, 1);
        assert_eq!(r.take_tx().len(), 6);
    }

    #[test]
    fn push_batch_unwired_netfront_counts_drops() {
        let mut r = build("FromNetfront();");
        let res = r.push_batch(vec![PacketBuilder::udp().build(); 4], 0, 1_000);
        assert_eq!(res.delivered, 4);
        assert_eq!(r.stats.dropped_unconnected, 4);
        assert!(r.take_tx().is_empty());
    }

    #[test]
    fn take_tx_into_appends() {
        let mut r = build("FromNetfront() -> ToNetfront();");
        let mut out = Vec::new();
        r.deliver(0, PacketBuilder::udp().build(), 0).unwrap();
        r.take_tx_into(&mut out);
        r.deliver(0, PacketBuilder::udp().build(), 1).unwrap();
        r.take_tx_into(&mut out);
        assert_eq!(out.len(), 2);
        assert!(r.take_tx().is_empty());
    }

    #[test]
    fn figure4_batcher_end_to_end() {
        let mut r = build(
            r#"
            FromNetfront()
              -> IPFilter(allow udp dst port 1500)
              -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
              -> TimedUnqueue(120, 100)
              -> ToNetfront();
            "#,
        );
        // Conforming packet: batched, not yet released.
        let ok = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 999)
            .dst(Ipv4Addr::new(5, 5, 5, 5), 1500)
            .build();
        // Non-conforming packet: dropped by the filter.
        let bad = PacketBuilder::udp()
            .dst(Ipv4Addr::new(5, 5, 5, 5), 1501)
            .build();
        r.deliver(0, ok, 0).unwrap();
        r.deliver(0, bad, 1).unwrap();
        assert!(r.take_tx().is_empty());
        assert!(r.next_tick_ns().is_some());

        let tx = r.tick(120_000_000_000);
        assert_eq!(tx.len(), 1);
        let out = &tx[0].1;
        assert_eq!(out.ipv4().unwrap().dst(), Ipv4Addr::new(172, 16, 15, 133));
        assert!(out.ipv4().unwrap().verify_checksum());
    }
}
