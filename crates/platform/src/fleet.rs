//! The fleet fabric: many hosts, one operator (DESIGN.md §15).
//!
//! A [`Fleet`] owns one [`Host`] + [`SwitchController`] pair per
//! platform node of a capacitated [`Topology`], and a switch fabric that
//! forwards packets host-to-host over [`innet_sim::link::Link`]s whose
//! rate and latency come from the topology's per-link attributes — so
//! cross-host delivery pays real serialization and propagation delay
//! instead of being assumed free.
//!
//! Live migration reuses the suspend/resume machinery end to end:
//! suspend on the source host, [`Host::extract`] the parked VM, a bulk
//! state transfer over the bottleneck path link, [`Host::implant`] on
//! the destination (which charges the calibrated resume latency), and a
//! switch-controller re-bind ([`SwitchController::adopt`]). Packets
//! addressed to a migrating tenant are buffered at the fleet layer for
//! the whole window and flushed in arrival order at completion — the
//! same invariant the suspend window established, one level up.
//!
//! A 1-host fleet is the differential oracle: every packet is local, the
//! fabric is never touched, and delivery degenerates to exactly the
//! single-host `SwitchController::on_packet` path — byte- and
//! stats-identical to driving a bare [`Host`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::net::Ipv4Addr;

use innet_packet::Packet;
use innet_sim::des::SimTime;
use innet_sim::link::Link as SimLink;
use innet_topology::{NodeId, NodeKind, PathAttrs, PlatformSpec, Topology};
use rand::{rngs::StdRng, SeedableRng};

use crate::calib::vm_mem_mb;
use crate::switch::{ClientEntry, SwitchController, SwitchStats};
use crate::vm::{Host, HostError, Vm, VmState};

/// Errors from fleet operations.
#[derive(Debug)]
pub enum FleetError {
    /// The node id is not a platform of this fleet.
    UnknownPlatform(NodeId),
    /// No tenant with this address is registered anywhere in the fleet.
    UnknownTenant(Ipv4Addr),
    /// The tenant is already mid-migration.
    MigrationInProgress(Ipv4Addr),
    /// The fabric has no path between the two platforms.
    NoPath(NodeId, NodeId),
    /// The platform has been killed and cannot serve.
    DeadPlatform(NodeId),
    /// CDN replicas were requested for a stateful tenant, whose
    /// connection state cannot be copied.
    StatefulOrigin(Ipv4Addr),
    /// An underlying host operation failed.
    Host(HostError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownPlatform(id) => write!(f, "node {id} is not a fleet platform"),
            FleetError::UnknownTenant(a) => write!(f, "no tenant registered at {a}"),
            FleetError::MigrationInProgress(a) => write!(f, "tenant {a} is already migrating"),
            FleetError::NoPath(a, b) => write!(f, "no fabric path from node {a} to node {b}"),
            FleetError::DeadPlatform(id) => write!(f, "platform {id} is dead"),
            FleetError::StatefulOrigin(a) => {
                write!(f, "tenant {a} is stateful and cannot be replicated")
            }
            FleetError::Host(e) => write!(f, "host: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<HostError> for FleetError {
    fn from(e: HostError) -> Self {
        FleetError::Host(e)
    }
}

/// A completed live migration, for downtime accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The migrated tenant.
    pub addr: Ipv4Addr,
    /// Source platform.
    pub from: NodeId,
    /// Destination platform.
    pub to: NodeId,
    /// When the migration was triggered.
    pub started_at: SimTime,
    /// When the tenant's VM was runnable on the destination.
    pub completed_at: SimTime,
    /// `completed_at - started_at`: the window during which arriving
    /// packets were buffered rather than processed.
    pub downtime_ns: SimTime,
}

/// Fleet-level counters (per-host counters live in each host's and
/// switch controller's own instruments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Packets handed to the fleet.
    pub injected: u64,
    /// Packets that crossed the fabric between platforms.
    pub fabric_forwards: u64,
    /// Packets buffered at the fleet layer during a migration window.
    pub migration_buffered: u64,
    /// Migrations triggered.
    pub migrations_started: u64,
    /// Migrations completed.
    pub migrations_completed: u64,
    /// Packets abandoned because a host operation failed mid-delivery
    /// (e.g. a boot hit the memory ceiling).
    pub host_errors: u64,
    /// Packets tail-dropped at a fabric link whose queue exceeded the cap.
    pub link_drops: u64,
    /// In-flight fabric packets re-forwarded because their destination
    /// died or their tenant moved while they were on the wire.
    pub reroutes: u64,
    /// Packets lost at a dead platform (or abandoned with a dead
    /// migration) with nowhere alive to re-route to.
    pub dead_drops: u64,
    /// Tenants re-homed off a dead platform (cold moves, not migrations).
    pub rehomes: u64,
}

/// Per-link fabric accounting: what crossed, what was refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUsage {
    /// Packets accepted onto the link.
    pub packets: u64,
    /// Bytes accepted onto the link.
    pub bytes: u64,
    /// Packets tail-dropped because the queue exceeded the cap.
    pub drops: u64,
    /// Bytes of those dropped packets.
    pub dropped_bytes: u64,
}

/// One fabric link's capacity and accounting, for bandwidth audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Sending platform.
    pub from: NodeId,
    /// Receiving platform.
    pub to: NodeId,
    /// The path's bottleneck capacity the link serializes at.
    pub bandwidth_bps: u64,
    /// When the link's FIFO queue drains (last accepted bit leaves).
    pub busy_until_ns: SimTime,
    /// Accepted/dropped packet and byte counts.
    pub usage: LinkUsage,
}

/// A fabric link: the FIFO sim link plus its capacity and usage ledger.
struct FabricLink {
    link: SimLink,
    bandwidth_bps: u64,
    usage: LinkUsage,
}

/// Re-forward budget for a fabric packet before it is declared dead —
/// bounds the work a pathological re-home loop could cause.
const MAX_FABRIC_HOPS: u8 = 4;

/// A packet in flight on the fabric.
struct FabricEvent {
    at: SimTime,
    seq: u64,
    /// Where the packet entered the fabric (the re-route vantage if the
    /// destination dies while the packet is on the wire).
    origin: NodeId,
    dst: NodeId,
    /// Fabric traversals so far, compared against [`MAX_FABRIC_HOPS`].
    hops: u8,
    pkt: Packet,
}

impl PartialEq for FabricEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for FabricEvent {}

impl Ord for FabricEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for FabricEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where a migration currently is in the protocol.
enum MigrationStage {
    /// Waiting for the source host's suspend to complete.
    Suspending { done_at: SimTime },
    /// State in flight over the fabric.
    Transferring {
        arrive_at: SimTime,
        vm: Box<Vm>,
        entry: Box<ClientEntry>,
    },
    /// Resuming on the destination host.
    Resuming { ready_at: SimTime },
}

struct Migration {
    from: NodeId,
    to: NodeId,
    started_at: SimTime,
    stage: MigrationStage,
    /// Packets that arrived for the tenant during the window, flushed in
    /// arrival order at completion.
    buffered: Vec<Packet>,
}

/// One platform's host, switch controller, and shared registry.
struct Site {
    host: Host,
    switch: SwitchController,
    obs: innet_obs::Registry,
}

/// N hosts keyed by topology [`NodeId`], wired by a latency/bandwidth
/// fabric. See the module docs for the model.
pub struct Fleet {
    topo: Topology,
    sites: BTreeMap<NodeId, Site>,
    /// Tenant address -> home platform.
    locations: HashMap<Ipv4Addr, NodeId>,
    /// Shortest-path attributes from each platform, computed on demand.
    path_cache: HashMap<NodeId, Vec<Option<PathAttrs>>>,
    /// One FIFO sim link per ordered platform pair, built on first use
    /// from the path's bottleneck bandwidth and end-to-end latency.
    fabric: HashMap<(NodeId, NodeId), FabricLink>,
    /// Tail-drop threshold: a packet that would wait longer than this in
    /// a link's FIFO queue is dropped instead of enqueued.
    max_queue_ns: SimTime,
    events: BinaryHeap<Reverse<FabricEvent>>,
    seq: u64,
    migrating: BTreeMap<Ipv4Addr, Migration>,
    records: Vec<MigrationRecord>,
    /// Platforms killed by a scenario: sites stay for bookkeeping but
    /// deliver nothing and accept no placements.
    dead: BTreeSet<NodeId>,
    /// CDN tiering: extra platforms whose switches hold a replica of a
    /// tenant's config; ingress resolves to the nearest alive copy.
    replicas: HashMap<Ipv4Addr, Vec<NodeId>>,
    /// Per-tenant demand weights from an attached traffic matrix; when
    /// present, `rebalance` moves load, not VM counts.
    demand: Option<HashMap<Ipv4Addr, u64>>,
    stats: FleetStats,
    rng: StdRng,
}

/// Default fabric queue cap: 50 ms of queueing before tail drop.
const DEFAULT_MAX_QUEUE_NS: SimTime = 50_000_000;

impl Fleet {
    /// Builds a fleet with one host per platform node of `topo`, sized
    /// by each platform's `mem_mb`.
    pub fn new(topo: &Topology) -> Fleet {
        let mut sites = BTreeMap::new();
        for id in topo.platforms() {
            let NodeKind::Platform(spec) = &topo.node(id).kind else {
                unreachable!("platforms() returns platform nodes");
            };
            let obs = innet_obs::Registry::new();
            let host = Host::with_obs(spec.mem_mb, &obs);
            let mut switch = SwitchController::new();
            switch.attach_metrics(&obs);
            sites.insert(id, Site { host, switch, obs });
        }
        Fleet {
            topo: topo.clone(),
            sites,
            locations: HashMap::new(),
            path_cache: HashMap::new(),
            fabric: HashMap::new(),
            max_queue_ns: DEFAULT_MAX_QUEUE_NS,
            events: BinaryHeap::new(),
            seq: 0,
            migrating: BTreeMap::new(),
            records: Vec::new(),
            dead: BTreeSet::new(),
            replicas: HashMap::new(),
            demand: None,
            stats: FleetStats::default(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// A 1-host fleet over a trivial internet—platform topology: the
    /// differential oracle configuration (see the module docs).
    pub fn single_host(mem_mb: u64) -> Fleet {
        let mut t = Topology::new();
        let internet = t.add("internet", NodeKind::Internet).expect("fresh");
        let platform = t
            .add(
                "platform",
                NodeKind::Platform(PlatformSpec {
                    mem_mb,
                    ..PlatformSpec::default()
                }),
            )
            .expect("fresh");
        t.link_bidir(internet, 0, platform, 0);
        Fleet::new(&t)
    }

    /// The fleet's platform ids, ascending.
    pub fn platforms(&self) -> Vec<NodeId> {
        self.sites.keys().copied().collect()
    }

    /// The topology the fleet was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Fleet-level counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Completed migrations, in completion order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// Per-link capacity and usage, ascending by `(from, to)`. Only links
    /// that have carried (or refused) at least one packet appear.
    pub fn link_report(&self) -> Vec<LinkReport> {
        let mut out: Vec<LinkReport> = self
            .fabric
            .iter()
            .map(|(&(from, to), l)| LinkReport {
                from,
                to,
                bandwidth_bps: l.bandwidth_bps,
                busy_until_ns: l.link.busy_until(),
                usage: l.usage,
            })
            .collect();
        out.sort_unstable_by_key(|r| (r.from, r.to));
        out
    }

    /// Sets the fabric tail-drop cap: packets that would queue longer
    /// than `max_queue_ns` at a link are dropped (and counted) instead.
    pub fn set_fabric_queue_ns(&mut self, max_queue_ns: SimTime) {
        self.max_queue_ns = max_queue_ns;
    }

    /// Whether a platform is alive (exists and has not been killed).
    pub fn is_alive(&self, platform: NodeId) -> bool {
        self.sites.contains_key(&platform) && !self.dead.contains(&platform)
    }

    /// The fleet's alive platform ids, ascending.
    pub fn alive_platforms(&self) -> Vec<NodeId> {
        self.sites
            .keys()
            .copied()
            .filter(|id| !self.dead.contains(id))
            .collect()
    }

    /// Tenants homed at a platform, ascending by address.
    pub fn tenants_at(&self, platform: NodeId) -> Vec<Ipv4Addr> {
        let mut out: Vec<Ipv4Addr> = self
            .locations
            .iter()
            .filter(|&(_, &home)| home == platform)
            .map(|(&addr, _)| addr)
            .collect();
        out.sort_unstable();
        out
    }

    /// The extra platforms holding a replica of `addr`'s config.
    pub fn replicas(&self, addr: Ipv4Addr) -> &[NodeId] {
        self.replicas.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// CDN tiering: clones `origin`'s registration onto each alive edge
    /// platform, so ingress traffic resolves to the nearest copy instead
    /// of crossing the fabric to the origin. Returns the number of edges
    /// actually added (dead, unknown, duplicate, and origin-home edges
    /// are skipped). The origin must be a stateless tenant — replicas
    /// share no connection state.
    pub fn add_replicas(&mut self, addr: Ipv4Addr, edges: &[NodeId]) -> Result<usize, FleetError> {
        let home = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        let entry = self
            .sites
            .get(&home)
            .and_then(|s| s.switch.client(addr))
            .cloned()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if entry.stateful {
            return Err(FleetError::StatefulOrigin(addr));
        }
        let mut added = 0;
        for &edge in edges {
            if edge == home || !self.is_alive(edge) {
                continue;
            }
            let existing = self.replicas.entry(addr).or_default();
            if existing.contains(&edge) {
                continue;
            }
            existing.push(edge);
            existing.sort_unstable();
            let site = self.sites.get_mut(&edge).expect("alive platform");
            site.switch.register(entry.clone());
            added += 1;
        }
        Ok(added)
    }

    /// Attaches per-tenant demand weights (e.g. from
    /// [`crate::traffic::TrafficMatrix::demand_by_tenant`]):
    /// `rebalance` then balances offered load instead of live-VM counts.
    pub fn attach_demand(&mut self, demand: HashMap<Ipv4Addr, u64>) {
        self.demand = Some(demand);
    }

    /// Detaches the demand weights; `rebalance` falls back to VM counts.
    pub fn clear_demand(&mut self) {
        self.demand = None;
    }

    /// Whether a traffic matrix's demand weights are attached.
    pub fn demand_attached(&self) -> bool {
        self.demand.is_some()
    }

    /// The host at a platform.
    pub fn host(&self, platform: NodeId) -> Option<&Host> {
        self.sites.get(&platform).map(|s| &s.host)
    }

    /// The switch controller at a platform.
    pub fn switch(&self, platform: NodeId) -> Option<&SwitchController> {
        self.sites.get(&platform).map(|s| &s.switch)
    }

    /// The metrics registry shared by a platform's host and switch.
    pub fn obs(&self, platform: NodeId) -> Option<&innet_obs::Registry> {
        self.sites.get(&platform).map(|s| &s.obs)
    }

    /// A tenant's home platform.
    pub fn location(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.locations.get(&addr).copied()
    }

    /// Switch-controller counters summed across the fleet.
    pub fn aggregate_switch_stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for site in self.sites.values() {
            let s = site.switch.stats();
            total.packets += s.packets;
            total.boots += s.boots;
            total.resumes += s.resumes;
            total.delivered += s.delivered;
            total.buffered += s.buffered;
            total.dropped += s.dropped;
            total.unknown += s.unknown;
        }
        total
    }

    /// Registers a tenant at a platform.
    pub fn register(&mut self, platform: NodeId, entry: ClientEntry) -> Result<(), FleetError> {
        let site = self
            .sites
            .get_mut(&platform)
            .ok_or(FleetError::UnknownPlatform(platform))?;
        self.locations.insert(entry.addr, platform);
        site.switch.register(entry);
        Ok(())
    }

    fn path(&mut self, from: NodeId, to: NodeId) -> Option<PathAttrs> {
        if !self.path_cache.contains_key(&from) {
            let paths = self.topo.paths_from(from);
            self.path_cache.insert(from, paths);
        }
        self.path_cache
            .get(&from)
            .and_then(|paths| paths.get(to).copied().flatten())
    }

    /// Where a packet should be processed: its tenant's home platform,
    /// or the lowest platform (the fleet's border switch) for unknown
    /// destinations — which then records the drop, exactly like the
    /// single-host path.
    fn dest_platform(&self, pkt: &Packet) -> NodeId {
        pkt.ipv4()
            .ok()
            .and_then(|ip| self.locations.get(&ip.dst()).copied())
            .unwrap_or_else(|| *self.sites.keys().next().expect("fleet has a platform"))
    }

    /// Resolves the serving platform seen from `vantage`: the tenant's
    /// home when it is alive and untiered, else the lowest-latency alive
    /// copy among home + CDN replicas (ties to the lower platform id).
    /// Falls back to the (dead) home when nothing alive can serve, so
    /// the drop is charged where it happens.
    fn resolve_dest(&mut self, vantage: NodeId, pkt: &Packet) -> NodeId {
        let primary = self.dest_platform(pkt);
        let reps: Vec<NodeId> = pkt
            .ipv4()
            .ok()
            .and_then(|ip| self.replicas.get(&ip.dst()).cloned())
            .unwrap_or_default();
        if reps.is_empty() && !self.dead.contains(&primary) {
            return primary;
        }
        let mut best: Option<(SimTime, NodeId)> = None;
        for cand in std::iter::once(primary).chain(reps) {
            if !self.is_alive(cand) {
                continue;
            }
            let cost = if cand == vantage {
                0
            } else {
                match self.path(vantage, cand) {
                    Some(attrs) => attrs.latency_ns,
                    None => continue,
                }
            };
            if best.is_none_or(|b| (cost, cand) < b) {
                best = Some((cost, cand));
            }
        }
        best.map(|(_, n)| n).unwrap_or(primary)
    }

    /// Puts a packet on the `from -> to` fabric link at `now`. Returns
    /// `Ok(true)` when enqueued, `Ok(false)` when tail-dropped at the
    /// queue cap.
    fn fabric_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        pkt: Packet,
        now: SimTime,
        hops: u8,
    ) -> Result<bool, FleetError> {
        let attrs = self.path(from, to).ok_or(FleetError::NoPath(from, to))?;
        let link = self.fabric.entry((from, to)).or_insert_with(|| FabricLink {
            link: SimLink::new(attrs.bandwidth_bps as f64, attrs.latency_ns, 0.0),
            bandwidth_bps: attrs.bandwidth_bps,
            usage: LinkUsage::default(),
        });
        let queue_ns = link.link.busy_until().saturating_sub(now);
        if queue_ns > self.max_queue_ns {
            link.usage.drops += 1;
            link.usage.dropped_bytes += pkt.len() as u64;
            self.stats.link_drops += 1;
            return Ok(false);
        }
        let arrival = link
            .link
            .transmit(now, pkt.len(), &mut self.rng)
            .expect("fabric links are lossless");
        link.usage.packets += 1;
        link.usage.bytes += pkt.len() as u64;
        self.events.push(Reverse(FabricEvent {
            at: arrival,
            seq: self.seq,
            origin: from,
            dst: to,
            hops,
            pkt,
        }));
        self.seq += 1;
        self.stats.fabric_forwards += 1;
        Ok(true)
    }

    /// Delivers a packet at its destination platform at time `at`,
    /// appending transmissions to `out`. Packets for migrating tenants
    /// are buffered at the fleet layer.
    fn deliver_local(
        &mut self,
        platform: NodeId,
        pkt: Packet,
        at: SimTime,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        if let Ok(ip) = pkt.ipv4() {
            // Replica-served packets bypass the migration buffer: only
            // the home copy moves, the edge copies keep serving.
            let at_replica = self
                .replicas
                .get(&ip.dst())
                .is_some_and(|r| r.contains(&platform));
            if !at_replica {
                if let Some(m) = self.migrating.get_mut(&ip.dst()) {
                    m.buffered.push(pkt);
                    self.stats.migration_buffered += 1;
                    return;
                }
            }
        }
        if self.dead.contains(&platform) {
            self.stats.dead_drops += 1;
            return;
        }
        let Some(site) = self.sites.get_mut(&platform) else {
            self.stats.host_errors += 1;
            return;
        };
        match site.switch.on_packet(&mut site.host, pkt, at) {
            Ok(tx) => out.extend(tx.into_iter().map(|(iface, p)| (platform, iface, p))),
            Err(_) => self.stats.host_errors += 1,
        }
    }

    /// Hands the fleet a packet at virtual time `now`, delivered at its
    /// tenant's home platform with no fabric cost (the single-host
    /// oracle path). Returns synchronous transmissions as
    /// `(platform, iface, packet)`. Callers schedule this through
    /// [`FleetDriver::inject`](crate::FleetDriver::inject).
    pub(crate) fn inject(&mut self, pkt: Packet, now: SimTime) -> Vec<(NodeId, u16, Packet)> {
        self.stats.injected += 1;
        let primary = self.dest_platform(&pkt);
        let dst = self.resolve_dest(primary, &pkt);
        let mut out = Vec::new();
        self.deliver_local(dst, pkt, now, &mut out);
        out
    }

    /// Hands the fleet a packet arriving at platform `ingress`. If the
    /// nearest serving copy (home or CDN replica) lives elsewhere the
    /// packet crosses the fabric — paying the path's serialization and
    /// propagation delay on a FIFO link, subject to the queue cap — and
    /// is delivered by the next [`Fleet::advance`] past its arrival.
    /// Callers schedule this through
    /// [`FleetDriver::inject_at`](crate::FleetDriver::inject_at).
    pub(crate) fn inject_at(
        &mut self,
        ingress: NodeId,
        pkt: Packet,
        now: SimTime,
    ) -> Result<Vec<(NodeId, u16, Packet)>, FleetError> {
        if !self.sites.contains_key(&ingress) {
            return Err(FleetError::UnknownPlatform(ingress));
        }
        if self.dead.contains(&ingress) {
            return Err(FleetError::DeadPlatform(ingress));
        }
        self.stats.injected += 1;
        let dst = self.resolve_dest(ingress, &pkt);
        if dst == ingress {
            let mut out = Vec::new();
            self.deliver_local(dst, pkt, now, &mut out);
            return Ok(out);
        }
        self.fabric_send(ingress, dst, pkt, now, 1)?;
        Ok(Vec::new())
    }

    /// Starts a live migration of `addr`'s VM to platform `to`.
    ///
    /// The tenant's traffic is buffered at the fleet layer from this
    /// instant until the VM is runnable on `to`; [`Fleet::advance`]
    /// drives the protocol through its stages. A tenant with no bound VM
    /// (never active, or reclaimed) moves instantly with zero downtime —
    /// there is no state to transfer.
    pub fn migrate(&mut self, addr: Ipv4Addr, to: NodeId, now: SimTime) -> Result<(), FleetError> {
        if self.migrating.contains_key(&addr) {
            return Err(FleetError::MigrationInProgress(addr));
        }
        if !self.sites.contains_key(&to) {
            return Err(FleetError::UnknownPlatform(to));
        }
        if self.dead.contains(&to) {
            return Err(FleetError::DeadPlatform(to));
        }
        let from = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if self.dead.contains(&from) {
            // Nothing live to migrate; failover uses `rehome` instead.
            return Err(FleetError::DeadPlatform(from));
        }
        if from == to {
            return Ok(());
        }
        // The path must exist before we take the VM down.
        self.path(from, to).ok_or(FleetError::NoPath(from, to))?;
        let src = self.sites.get_mut(&from).expect("location is a platform");
        let Some(vm) = src.switch.binding(addr) else {
            // No VM: move the registration, done.
            let entry = src
                .switch
                .unregister(addr)
                .ok_or(FleetError::UnknownTenant(addr))?;
            let dst = self.sites.get_mut(&to).expect("checked above");
            dst.switch.register(entry);
            self.locations.insert(addr, to);
            self.stats.migrations_started += 1;
            self.stats.migrations_completed += 1;
            self.records.push(MigrationRecord {
                addr,
                from,
                to,
                started_at: now,
                completed_at: now,
                downtime_ns: 0,
            });
            return Ok(());
        };
        let state = src.host.vm(vm)?.state;
        let stage = match state {
            VmState::Running => {
                let done_at = src.host.suspend(vm, now)?;
                MigrationStage::Suspending { done_at }
            }
            // Already parked: skip straight past the suspend.
            VmState::Suspended => MigrationStage::Suspending { done_at: now },
            _ => return Err(FleetError::Host(HostError::BadState(vm, "migrate"))),
        };
        self.stats.migrations_started += 1;
        self.migrating.insert(
            addr,
            Migration {
                from,
                to,
                started_at: now,
                stage,
                buffered: Vec::new(),
            },
        );
        Ok(())
    }

    /// Advances every migration whose current stage deadline has passed,
    /// repeating until a fixed point — a single `advance` far enough
    /// into the future carries a migration all the way to completion.
    fn advance_migrations(&mut self, now: SimTime, out: &mut Vec<(NodeId, u16, Packet)>) {
        loop {
            let mut changed = false;
            let addrs: Vec<Ipv4Addr> = self.migrating.keys().copied().collect();
            for addr in addrs {
                let m = self.migrating.get_mut(&addr).expect("just listed");
                match &mut m.stage {
                    MigrationStage::Suspending { done_at } if now >= *done_at => {
                        let done_at = *done_at;
                        let (from, to) = (m.from, m.to);
                        let attrs = self.path(from, to).expect("checked at migrate()");
                        let src = self.sites.get_mut(&from).expect("platform");
                        // Let the suspend complete, then lift the VM out.
                        out.extend(
                            src.host
                                .advance(done_at)
                                .into_iter()
                                .map(|(_, iface, p)| (from, iface, p)),
                        );
                        let vm_id = src.switch.binding(addr).expect("bound at migrate()");
                        let vm = match src.host.extract(vm_id) {
                            Ok(vm) => vm,
                            Err(_) => {
                                // The VM vanished mid-protocol (e.g. an
                                // idle reclaim destroyed it). Abort the
                                // migration; buffered packets replay at
                                // the original home.
                                self.abort_migration(addr, now, out);
                                changed = true;
                                continue;
                            }
                        };
                        let entry = src.switch.unregister(addr).expect("registered");
                        let link = SimLink::new(attrs.bandwidth_bps as f64, attrs.latency_ns, 0.0);
                        let bytes = vm_mem_mb(vm.kind) * 1024 * 1024;
                        let arrive_at = done_at + link.bulk_transfer_ns(bytes);
                        let m = self.migrating.get_mut(&addr).expect("still migrating");
                        m.stage = MigrationStage::Transferring {
                            arrive_at,
                            vm: Box::new(vm),
                            entry: Box::new(entry),
                        };
                        changed = true;
                    }
                    MigrationStage::Transferring { arrive_at, .. } if now >= *arrive_at => {
                        let arrive_at = *arrive_at;
                        let to = m.to;
                        let stage = std::mem::replace(
                            &mut m.stage,
                            MigrationStage::Resuming { ready_at: 0 },
                        );
                        let MigrationStage::Transferring { vm, entry, .. } = stage else {
                            unreachable!("matched above");
                        };
                        let dst = self.sites.get_mut(&to).expect("platform");
                        match dst.host.implant(*vm, arrive_at) {
                            Ok((id, ready_at)) => {
                                dst.switch.adopt(*entry, id, arrive_at);
                                self.locations.insert(addr, to);
                                let m = self.migrating.get_mut(&addr).expect("migrating");
                                m.stage = MigrationStage::Resuming { ready_at };
                            }
                            Err(_) => {
                                // Destination filled up during the
                                // transfer: the VM's state is lost (as a
                                // destroy would lose it); surface via
                                // host_errors and drop the migration.
                                self.stats.host_errors += 1;
                                self.abort_migration(addr, now, out);
                            }
                        }
                        changed = true;
                    }
                    MigrationStage::Resuming { ready_at } if now >= *ready_at => {
                        let ready_at = *ready_at;
                        let (from, to, started_at) = (m.from, m.to, m.started_at);
                        let buffered = std::mem::take(&mut m.buffered);
                        self.migrating.remove(&addr);
                        let dst = self.sites.get_mut(&to).expect("platform");
                        // Complete the resume, then flush the window's
                        // packets in arrival order.
                        out.extend(
                            dst.host
                                .advance(ready_at)
                                .into_iter()
                                .map(|(_, iface, p)| (to, iface, p)),
                        );
                        for pkt in buffered {
                            self.deliver_local(to, pkt, ready_at, out);
                        }
                        self.stats.migrations_completed += 1;
                        self.records.push(MigrationRecord {
                            addr,
                            from,
                            to,
                            started_at,
                            completed_at: ready_at,
                            downtime_ns: ready_at.saturating_sub(started_at),
                        });
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Abandons a migration, replaying its buffered packets at the
    /// tenant's current home.
    fn abort_migration(
        &mut self,
        addr: Ipv4Addr,
        now: SimTime,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        if let Some(m) = self.migrating.remove(&addr) {
            let home = self.locations.get(&addr).copied().unwrap_or(m.from);
            for pkt in m.buffered {
                self.deliver_local(home, pkt, now, out);
            }
        }
    }

    /// Whether `platform` still serves `pkt`: it is the tenant's current
    /// home or holds a CDN replica. Packets in flight to a platform that
    /// stopped serving (death, re-home) are re-routed at arrival.
    fn serves(&self, platform: NodeId, pkt: &Packet) -> bool {
        if self.dead.contains(&platform) {
            return false;
        }
        let Ok(ip) = pkt.ipv4() else {
            // Non-IP traffic has no tenant: wherever it was headed is
            // where the unknown-destination drop gets recorded.
            return true;
        };
        match self.locations.get(&ip.dst()) {
            Some(&home) => {
                home == platform
                    || self
                        .replicas
                        .get(&ip.dst())
                        .is_some_and(|r| r.contains(&platform))
            }
            // Unknown tenant: the border switch records the drop.
            None => true,
        }
    }

    /// Advances virtual time fleet-wide: delivers fabric packets whose
    /// arrival has passed (in arrival order, re-routing ones whose
    /// destination stopped serving), drives in-flight migrations through
    /// their stages, and advances every host. Returns all transmissions
    /// as `(platform, iface, packet)`.
    ///
    /// [`FleetDriver::run`](crate::FleetDriver::run) advances time for
    /// you up to its horizon. Call this on the fleet it hands back to
    /// drain fabric packets and migrations still in flight at the
    /// horizon; it is the only way to settle them.
    pub fn advance(&mut self, now: SimTime) -> Vec<(NodeId, u16, Packet)> {
        let mut out = Vec::new();
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > now {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            if self.serves(ev.dst, &ev.pkt) {
                self.deliver_local(ev.dst, ev.pkt, ev.at, &mut out);
                continue;
            }
            // The destination died or the tenant moved mid-flight:
            // re-forward from the arrival point (or the origin if the
            // arrival point is dead), within the hop budget.
            let vantage = if self.dead.contains(&ev.dst) {
                ev.origin
            } else {
                ev.dst
            };
            let cur = self.resolve_dest(vantage, &ev.pkt);
            if ev.hops >= MAX_FABRIC_HOPS || !self.is_alive(vantage) || !self.is_alive(cur) {
                self.stats.dead_drops += 1;
                continue;
            }
            if cur == vantage {
                self.stats.reroutes += 1;
                self.deliver_local(cur, ev.pkt, ev.at, &mut out);
                continue;
            }
            match self.fabric_send(vantage, cur, ev.pkt, ev.at, ev.hops + 1) {
                Ok(true) => {
                    // fabric_send counts a fresh forward; the re-route
                    // counter records that it was not the first hop.
                    self.stats.reroutes += 1;
                }
                Ok(false) => {}
                Err(_) => self.stats.dead_drops += 1,
            }
        }
        self.advance_migrations(now, &mut out);
        let dead = self.dead.clone();
        for (&id, site) in self.sites.iter_mut() {
            if dead.contains(&id) {
                continue;
            }
            out.extend(
                site.host
                    .advance(now)
                    .into_iter()
                    .map(|(_, iface, p)| (id, iface, p)),
            );
        }
        out
    }

    /// Kills a platform: its host stops advancing, packets for it are
    /// re-routed or counted as [`FleetStats::dead_drops`], and any
    /// migration whose VM state was on the dead machine is lost.
    /// Returns the tenants left homed on the dead platform, ascending —
    /// the set a failover pass must re-home.
    pub fn kill_platform(
        &mut self,
        platform: NodeId,
        _now: SimTime,
    ) -> Result<Vec<Ipv4Addr>, FleetError> {
        if !self.sites.contains_key(&platform) {
            return Err(FleetError::UnknownPlatform(platform));
        }
        if !self.dead.insert(platform) {
            return Ok(Vec::new());
        }
        // Resolve migrations touching the dead platform.
        let addrs: Vec<Ipv4Addr> = self.migrating.keys().copied().collect();
        for addr in addrs {
            let m = self.migrating.get(&addr).expect("just listed");
            let lost = match &m.stage {
                // VM still parked on the dead source: lost with it.
                MigrationStage::Suspending { .. } => m.from == platform,
                // State headed to (or resuming on) the dead destination.
                MigrationStage::Transferring { .. } | MigrationStage::Resuming { .. } => {
                    m.to == platform
                }
            };
            if lost {
                let m = self.migrating.remove(&addr).expect("present");
                self.stats.dead_drops += m.buffered.len() as u64;
                // Land the tenant's registration on the dead platform so
                // the failover pass sees it and re-homes it. Suspending:
                // it is still registered at `from` (dead). Later stages:
                // the entry travels with the migration — re-register it.
                if let MigrationStage::Transferring { entry, .. } = m.stage {
                    let site = self.sites.get_mut(&platform).expect("exists");
                    site.switch.register(*entry);
                    self.locations.insert(addr, platform);
                }
            }
        }
        // Dead platforms stop being CDN edges.
        for edges in self.replicas.values_mut() {
            edges.retain(|&e| e != platform);
        }
        self.replicas.retain(|_, e| !e.is_empty());
        let mut affected: Vec<Ipv4Addr> = self
            .locations
            .iter()
            .filter(|&(addr, &home)| home == platform && !self.migrating.contains_key(addr))
            .map(|(&addr, _)| addr)
            .collect();
        affected.sort_unstable();
        Ok(affected)
    }

    /// Re-homes a tenant onto `to` as a cold move: the old VM (if any,
    /// typically on a dead platform) is discarded, the registration
    /// moves, and the next packet boots a fresh VM at the new home. Use
    /// [`Fleet::migrate`] for live moves that carry VM state.
    pub fn rehome(&mut self, addr: Ipv4Addr, to: NodeId) -> Result<(), FleetError> {
        if !self.sites.contains_key(&to) {
            return Err(FleetError::UnknownPlatform(to));
        }
        if self.dead.contains(&to) {
            return Err(FleetError::DeadPlatform(to));
        }
        if self.migrating.contains_key(&addr) {
            return Err(FleetError::MigrationInProgress(addr));
        }
        let from = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if from == to {
            return Ok(());
        }
        let src = self.sites.get_mut(&from).expect("location is a platform");
        if let Some(vm) = src.switch.binding(addr) {
            let _ = src.host.destroy(vm);
        }
        let entry = src
            .switch
            .unregister(addr)
            .ok_or(FleetError::UnknownTenant(addr))?;
        let dst = self.sites.get_mut(&to).expect("checked above");
        dst.switch.register(entry);
        self.locations.insert(addr, to);
        self.stats.rehomes += 1;
        Ok(())
    }

    /// Reclaims idle VMs on every host (see
    /// [`SwitchController::reclaim_idle`]). Tenants mid-migration are
    /// not affected: their VM is already suspended or in flight.
    /// Callers schedule this through
    /// [`FleetDriver::reclaim_every`](crate::FleetDriver::reclaim_every).
    pub(crate) fn reclaim_idle(&mut self, now: SimTime, idle_ns: SimTime) {
        for site in self.sites.values_mut() {
            site.switch.reclaim_idle(&mut site.host, now, idle_ns);
        }
    }

    /// Live VMs per platform, ascending by platform id.
    pub fn load(&self) -> Vec<(NodeId, usize)> {
        self.sites
            .iter()
            .map(|(&id, s)| (id, s.host.live_vms()))
            .collect()
    }

    /// Rebalances the fleet and returns the moves started as
    /// `(addr, from, to)`.
    ///
    /// With a traffic matrix attached ([`Fleet::attach_demand`]), load is
    /// offered demand: while the spread between the hottest and coldest
    /// alive hosts is at least `threshold` average-tenant-demands, the
    /// heaviest movable tenant on the hottest host (whose move strictly
    /// narrows the spread) migrates to the coldest. Without one, load is
    /// live-VM counts — the original behavior — and the lowest-addressed
    /// migratable tenant moves.
    ///
    /// Both modes are fully deterministic: hottest/coldest break ties on
    /// the lower platform id; tenant ties break on address order.
    /// Callers schedule this through
    /// [`FleetDriver::rebalance_every`](crate::FleetDriver::rebalance_every).
    pub(crate) fn rebalance(
        &mut self,
        now: SimTime,
        threshold: usize,
    ) -> Vec<(Ipv4Addr, NodeId, NodeId)> {
        if self.demand.is_some() {
            self.rebalance_by_demand(now, threshold)
        } else {
            self.rebalance_by_count(now, threshold)
        }
    }

    /// Original count-based rebalance: the fallback when no traffic
    /// matrix is attached.
    fn rebalance_by_count(
        &mut self,
        now: SimTime,
        threshold: usize,
    ) -> Vec<(Ipv4Addr, NodeId, NodeId)> {
        let threshold = threshold.max(1);
        let mut projected: BTreeMap<NodeId, usize> = self
            .sites
            .iter()
            .filter(|(id, _)| !self.dead.contains(id))
            .map(|(&id, s)| (id, s.host.live_vms()))
            .collect();
        let mut moves = Vec::new();
        while let Some((&hot, &hot_n)) = projected.iter().max_by_key(|&(&id, &n)| (n, Reverse(id)))
        {
            let Some((&cold, &cold_n)) = projected.iter().min_by_key(|&(&id, &n)| (n, id)) else {
                break;
            };
            if hot == cold || hot_n - cold_n < threshold {
                break;
            }
            // The lowest-addressed tenant homed on `hot` whose VM can be
            // migrated (Running or Suspended) and is not already moving.
            let mut candidates: Vec<Ipv4Addr> = self
                .locations
                .iter()
                .filter(|&(addr, &home)| home == hot && !self.migrating.contains_key(addr))
                .map(|(&addr, _)| addr)
                .collect();
            candidates.sort_unstable();
            let site = self.sites.get(&hot).expect("platform");
            let chosen = candidates.into_iter().find(|&addr| {
                site.switch.binding(addr).is_some_and(|vm| {
                    site.host
                        .vm(vm)
                        .map(|v| matches!(v.state, VmState::Running | VmState::Suspended))
                        .unwrap_or(false)
                })
            });
            let Some(addr) = chosen else {
                break;
            };
            if self.migrate(addr, cold, now).is_err() {
                break;
            }
            *projected.get_mut(&hot).expect("present") -= 1;
            *projected.get_mut(&cold).expect("present") += 1;
            moves.push((addr, hot, cold));
        }
        moves
    }

    /// Demand-weighted rebalance: balances offered load from the
    /// attached traffic matrix. `threshold` is in units of the average
    /// per-tenant demand, so `rebalance(now, 2)` means "act when the
    /// hot–cold spread exceeds two average tenants' worth of load" —
    /// the same intuition as the count mode.
    fn rebalance_by_demand(
        &mut self,
        now: SimTime,
        threshold: usize,
    ) -> Vec<(Ipv4Addr, NodeId, NodeId)> {
        let demand = self.demand.clone().expect("checked by caller");
        let weight = |addr: &Ipv4Addr| demand.get(addr).copied().unwrap_or(0);
        let mut projected: BTreeMap<NodeId, u64> = self
            .sites
            .keys()
            .filter(|id| !self.dead.contains(id))
            .map(|&id| (id, 0))
            .collect();
        let mut tenants = 0u64;
        let mut total = 0u64;
        for (addr, home) in &self.locations {
            if let Some(load) = projected.get_mut(home) {
                *load += weight(addr);
                total += weight(addr);
                tenants += 1;
            }
        }
        let unit = (total / tenants.max(1)).max(1);
        let threshold_w = threshold.max(1) as u64 * unit;
        let mut moves = Vec::new();
        // Each move strictly narrows the spread, so this terminates; the
        // cap is belt-and-braces against pathological weight sets.
        while moves.len() <= self.locations.len() {
            let Some((&hot, &hot_w)) = projected.iter().max_by_key(|&(&id, &w)| (w, Reverse(id)))
            else {
                break;
            };
            let Some((&cold, &cold_w)) = projected.iter().min_by_key(|&(&id, &w)| (w, id)) else {
                break;
            };
            let spread = hot_w - cold_w;
            if hot == cold || spread < threshold_w {
                break;
            }
            // The heaviest movable tenant whose move strictly narrows
            // the spread (0 < w < spread); address order breaks ties.
            let mut candidates: Vec<(u64, Ipv4Addr)> = self
                .locations
                .iter()
                .filter(|&(addr, &home)| home == hot && !self.migrating.contains_key(addr))
                .map(|(&addr, _)| (weight(&addr), addr))
                .filter(|&(w, _)| w > 0 && w < spread)
                .collect();
            candidates.sort_unstable_by_key(|&(w, addr)| (Reverse(w), addr));
            let site = self.sites.get(&hot).expect("platform");
            let chosen = candidates.into_iter().find(|&(_, addr)| {
                // Movable: no VM (instant move) or a Running/Suspended one.
                match site.switch.binding(addr) {
                    None => true,
                    Some(vm) => site
                        .host
                        .vm(vm)
                        .map(|v| matches!(v.state, VmState::Running | VmState::Suspended))
                        .unwrap_or(false),
                }
            });
            let Some((w, addr)) = chosen else {
                break;
            };
            if self.migrate(addr, cold, now).is_err() {
                break;
            }
            *projected.get_mut(&hot).expect("present") -= w;
            *projected.get_mut(&cold).expect("present") += w;
            moves.push((addr, hot, cold));
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_click::ClickConfig;
    use innet_packet::PacketBuilder;

    const TENANT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn filter_entry(addr: Ipv4Addr, stateful: bool) -> ClientEntry {
        ClientEntry {
            addr,
            config: ClickConfig::parse(
                "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
            )
            .unwrap(),
            stateful,
        }
    }

    fn udp_to(addr: Ipv4Addr, seq: u16) -> Packet {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), seq)
            .dst(addr, 1500)
            .build()
    }

    /// A two-platform fleet over a small star topology.
    fn two_pop_fleet() -> (Fleet, NodeId, NodeId) {
        let t = innet_topology::generate_fleet(&innet_topology::FleetParams {
            pops: 2,
            platforms_per_pop: 1,
            clients_per_pop: 1,
            seed: 3,
        });
        let f = Fleet::new(&t);
        let ps = f.platforms();
        assert_eq!(ps.len(), 2);
        (f, ps[0], ps[1])
    }

    #[test]
    fn single_host_fleet_matches_bare_host_byte_for_byte() {
        // The oracle: drive identical traffic through a 1-host fleet and
        // a bare Host + SwitchController; outputs and stats must match.
        let mut fleet = Fleet::single_host(16 * 1024);
        let platform = fleet.platforms()[0];
        fleet
            .register(platform, filter_entry(TENANT, false))
            .unwrap();

        let mut host = Host::new(16 * 1024);
        let mut sw = SwitchController::new();
        sw.register(filter_entry(TENANT, false));

        let stranger = PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), 1)
            .build();
        let schedule: Vec<(SimTime, Packet)> = vec![
            (0, udp_to(TENANT, 1)),
            (1_000, stranger),
            (200_000_000, udp_to(TENANT, 2)),
            (200_000_500, udp_to(TENANT, 3)),
        ];

        let mut fleet_out = Vec::new();
        let mut host_out = Vec::new();
        for (at, pkt) in schedule {
            fleet_out.extend(
                fleet
                    .inject(pkt.clone(), at)
                    .into_iter()
                    .map(|(_, iface, p)| (iface, p)),
            );
            host_out.extend(sw.on_packet(&mut host, pkt, at).unwrap());
            fleet_out.extend(
                fleet
                    .advance(at)
                    .into_iter()
                    .map(|(_, iface, p)| (iface, p)),
            );
            host_out.extend(host.advance(at).into_iter().map(|(_, iface, p)| (iface, p)));
        }
        fleet_out.extend(
            fleet
                .advance(1_000_000_000)
                .into_iter()
                .map(|(_, iface, p)| (iface, p)),
        );
        host_out.extend(
            host.advance(1_000_000_000)
                .into_iter()
                .map(|(_, iface, p)| (iface, p)),
        );

        assert_eq!(fleet_out, host_out, "byte- and order-identical");
        assert_eq!(fleet.switch(platform).unwrap().stats(), sw.stats());
        assert_eq!(fleet.stats().fabric_forwards, 0, "no fabric on one host");
    }

    #[test]
    fn fabric_delivery_pays_path_latency() {
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(b, filter_entry(TENANT, false)).unwrap();
        // Warm the VM so cross-fabric packets process synchronously.
        fleet.inject(udp_to(TENANT, 1), 0);
        fleet.advance(1_000_000_000);

        let out = fleet
            .inject_at(a, udp_to(TENANT, 2), 1_000_000_000)
            .unwrap();
        assert!(out.is_empty(), "in flight on the fabric");
        // Nothing arrives before the path latency has elapsed.
        assert!(fleet.advance(1_000_000_001).is_empty());
        let lat = fleet.path(a, b).unwrap().latency_ns;
        assert!(lat > 1_000_000, "WAN path crosses the core ring");
        let out = fleet.advance(2_000_000_000 + lat);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b, "delivered at the tenant's home platform");
        assert_eq!(fleet.stats().fabric_forwards, 1);
    }

    #[test]
    fn live_migration_moves_vm_and_counts_downtime() {
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(a, filter_entry(TENANT, true)).unwrap();
        fleet.inject(udp_to(TENANT, 1), 0);
        fleet.advance(1_000_000_000);
        assert_eq!(fleet.host(a).unwrap().live_vms(), 1);

        fleet.migrate(TENANT, b, 1_000_000_000).unwrap();
        // Mid-window traffic is buffered at the fleet layer.
        fleet.inject(udp_to(TENANT, 2), 1_000_100_000);
        assert_eq!(fleet.stats().migration_buffered, 1);

        let out = fleet.advance(60_000_000_000);
        assert_eq!(fleet.location(TENANT), Some(b));
        assert_eq!(fleet.host(a).unwrap().live_vms(), 0);
        assert_eq!(fleet.host(b).unwrap().live_vms(), 1);
        // The buffered packet was flushed through the migrated VM.
        assert_eq!(out.iter().filter(|(p, _, _)| *p == b).count(), 1);
        let rec = fleet.migrations()[0];
        assert_eq!((rec.from, rec.to), (a, b));
        assert!(rec.downtime_ns > 0, "suspend+transfer+resume take time");
        assert_eq!(rec.downtime_ns, rec.completed_at - rec.started_at);
    }

    #[test]
    fn rebalance_triggers_on_imbalance() {
        let (mut fleet, a, b) = two_pop_fleet();
        for i in 0..4u8 {
            let addr = Ipv4Addr::new(203, 0, 113, 10 + i);
            fleet.register(a, filter_entry(addr, true)).unwrap();
            fleet.inject(udp_to(addr, 1), 0);
        }
        fleet.advance(2_000_000_000);
        assert_eq!(fleet.host(a).unwrap().live_vms(), 4);

        let moves = fleet.rebalance(2_000_000_000, 2);
        assert_eq!(moves.len(), 2, "4-0 rebalances to 2-2 at threshold 2");
        fleet.advance(120_000_000_000);
        let spread =
            fleet.host(a).unwrap().live_vms() as i64 - fleet.host(b).unwrap().live_vms() as i64;
        assert!(spread.abs() < 2);
        assert_eq!(moves[0].1, a);
        assert_eq!(moves[0].2, b);
    }
}
