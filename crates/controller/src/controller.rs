//! The controller proper: client accounts, placement search, commitment,
//! and flow-rule installation.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use innet_click::{ClickConfig, Registry};
use innet_policy::Requirement;
use innet_symnet::{
    check_module_summarized, check_module_with_stats, CheckStats, ModelCache, RequesterClass,
    SecurityContext, SecurityReport, SymError, Verdict,
};
use innet_topology::{NodeId, NodeKind, Topology};
use parking_lot::RwLock;

use crate::{
    cache::{verdict_key, CachedOutcome, CachedVerdict, VerdictCache},
    hardening::{apply_udp_reflection_ban, HardeningPolicy},
    netmodel::{compile, InstalledModule, NetworkModel},
    placement::{PlacementContext, RejectReason},
    request::{ClientRequest, ModuleConfig},
    sandbox::wrap_with_enforcer,
    stock::stock_config,
    summaries::{SharedSummaries, SummaryCache},
    verify::{check_requirement_summarized, VerifyError},
};

/// Identifier of an installed module.
pub type ModuleId = u64;

/// A registered tenant.
#[derive(Debug, Clone)]
pub struct ClientAccount {
    /// Requester class (drives the security rules).
    pub class: RequesterClass,
    /// Addresses the tenant has registered with the operator (the
    /// explicit-authorization white-list of §2.1).
    pub registered: Vec<Ipv4Addr>,
}

/// A vswitch steering rule the controller installs when committing a
/// module (the OpenFlow rules of §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRule {
    /// Platform the rule is installed on.
    pub platform: String,
    /// Destination address to match.
    pub dst: Ipv4Addr,
    /// Module receiving the traffic.
    pub module: ModuleId,
}

/// Cumulative controller statistics (request latency split into the
/// model-compile and checking phases, as Figure 10 reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Requests received.
    pub requests: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Nanoseconds spent building network models.
    pub compile_ns: u64,
    /// Nanoseconds spent in symbolic checking.
    pub check_ns: u64,
    /// Deploy requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Deploy requests that ran full verification (and populated the
    /// cache).
    pub cache_misses: u64,
    /// Cached verdicts discarded by epoch bumps (operator policy,
    /// hardening, or topology changes).
    pub cache_invalidations: u64,
    /// Checking nanoseconds avoided by cache hits: each hit credits the
    /// `check_ns` the original full evaluation of that request spent.
    pub check_ns_saved: u64,
    /// Platform candidates decided by the static analyzer's fast path
    /// (symbolic execution skipped entirely).
    pub fastpath_hits: u64,
    /// Platform candidates where the analyzer was consulted but came back
    /// inconclusive, falling back to full symbolic execution.
    pub fastpath_fallbacks: u64,
    /// Requests refused by the lint pass before any verification.
    pub lint_rejects: u64,
    /// Lint reports replayed from the fleet-wide memo instead of
    /// re-running the lint pass (lint is a pure function of the
    /// materialized configuration and the element registry).
    pub lint_cache_hits: u64,
    /// Nanoseconds spent in static analysis (lint + abstract
    /// interpretation).
    pub analysis_ns: u64,
    /// Symbolic runs stopped by the global hop (state) bound.
    pub hop_cap_bailouts: u64,
    /// Symbolic branches cut by the per-node visit (depth) bound.
    pub visit_cap_bailouts: u64,
    /// Chain summaries served from the fleet-wide summary cache.
    pub summary_cache_hits: u64,
    /// Chain summaries computed fresh (and stored for the fleet).
    pub summary_cache_misses: u64,
    /// Chain elements covered by summary replay instead of per-element
    /// symbolic execution.
    pub summary_chain_nodes: u64,
    /// Cached chain summaries discarded by epoch bumps.
    pub summary_invalidations: u64,
    /// Nanoseconds spent in the admission pipeline's lint stage.
    pub stage_lint_ns: u64,
    /// Nanoseconds spent in the abstract-interpretation fast-path stage.
    pub stage_fastpath_ns: u64,
    /// Nanoseconds spent in the compositional symbolic stage (security
    /// check, summary replay included).
    pub stage_symbolic_ns: u64,
    /// Nanoseconds spent in the placement stage (capacity + address
    /// assignment, model compilation, policy and requirement checks).
    pub stage_placement_ns: u64,
    /// Per-platform placement rejections accumulated across
    /// `NoFeasiblePlacement` outcomes (one per `(platform, reason)`
    /// pair). The per-reason split is exported as
    /// `innet_ctl_placement_reject_total{reason=…}`.
    pub placement_rejects: u64,
}

impl ControllerStats {
    /// Fraction of analyzer consultations that produced a fast-path
    /// verdict (0.0 when the analyzer was never consulted).
    pub fn fastpath_hit_rate(&self) -> f64 {
        let consulted = self.fastpath_hits + self.fastpath_fallbacks;
        if consulted == 0 {
            0.0
        } else {
            self.fastpath_hits as f64 / consulted as f64
        }
    }

    /// Total symbolic bailouts: runs stopped by the state (hop) cap plus
    /// branches cut by the depth (per-node visit) cap. The split is
    /// exported as `innet_ctl_symbolic_bailouts_total{reason=…}`.
    pub fn symbolic_bailouts(&self) -> u64 {
        self.hop_cap_bailouts + self.visit_cap_bailouts
    }
}

/// The controller's instruments (Prometheus namespace `innet_ctl_*`):
/// the only store of its counters. [`Controller::stats`] is a typed read
/// of them, so what an operator exports is what the controller keeps.
#[derive(Debug, Clone)]
struct ControllerMetrics {
    requests: innet_obs::Counter,
    accepted: innet_obs::Counter,
    rejected: innet_obs::Counter,
    cache_hits: innet_obs::Counter,
    cache_misses: innet_obs::Counter,
    cache_invalidations: innet_obs::Counter,
    check_ns_saved: innet_obs::Counter,
    compile_ns_total: innet_obs::Counter,
    check_ns_total: innet_obs::Counter,
    compile_ns: innet_obs::Histogram,
    check_ns: innet_obs::Histogram,
    /// `innet_ctl_verdicts_total` cells, resolved once.
    verdict_accept: innet_obs::Counter,
    verdict_sandbox: innet_obs::Counter,
    verdict_reject: innet_obs::Counter,
    fastpath_hits: innet_obs::Counter,
    fastpath_fallbacks: innet_obs::Counter,
    lint_rejects: innet_obs::Counter,
    lint_cache_hits: innet_obs::Counter,
    analysis_ns_total: innet_obs::Counter,
    analysis_ns: innet_obs::Histogram,
    /// `innet_ctl_symbolic_bailouts_total` cells, resolved once.
    hop_cap_bailouts: innet_obs::Counter,
    visit_cap_bailouts: innet_obs::Counter,
    summary_cache_hits: innet_obs::Counter,
    summary_cache_misses: innet_obs::Counter,
    summary_chain_nodes: innet_obs::Counter,
    summary_invalidations: innet_obs::Counter,
    stage_lint_ns: innet_obs::Histogram,
    stage_fastpath_ns: innet_obs::Histogram,
    stage_symbolic_ns: innet_obs::Histogram,
    stage_placement_ns: innet_obs::Histogram,
    placement_rejects: innet_obs::LabeledCounter,
}

impl ControllerMetrics {
    fn register(reg: &innet_obs::Registry) -> ControllerMetrics {
        let verdicts = reg.labeled_counter("innet_ctl_verdicts_total", "verdict");
        let bailouts = reg.labeled_counter("innet_ctl_symbolic_bailouts_total", "reason");
        ControllerMetrics {
            requests: reg.counter("innet_ctl_requests_total"),
            accepted: reg.counter("innet_ctl_accepted_total"),
            rejected: reg.counter("innet_ctl_rejected_total"),
            cache_hits: reg.counter("innet_ctl_cache_hits_total"),
            cache_misses: reg.counter("innet_ctl_cache_misses_total"),
            cache_invalidations: reg.counter("innet_ctl_cache_invalidations_total"),
            check_ns_saved: reg.counter("innet_ctl_check_ns_saved_total"),
            compile_ns_total: reg.counter("innet_ctl_compile_ns_total"),
            check_ns_total: reg.counter("innet_ctl_check_ns_total"),
            compile_ns: reg.histogram("innet_ctl_compile_ns"),
            check_ns: reg.histogram("innet_ctl_check_ns"),
            verdict_accept: verdicts.with("accept"),
            verdict_sandbox: verdicts.with("sandbox"),
            verdict_reject: verdicts.with("reject"),
            fastpath_hits: reg.counter("innet_ctl_fastpath_hits_total"),
            fastpath_fallbacks: reg.counter("innet_ctl_fastpath_fallbacks_total"),
            lint_rejects: reg.counter("innet_ctl_lint_rejects_total"),
            lint_cache_hits: reg.counter("innet_ctl_lint_cache_hits_total"),
            analysis_ns_total: reg.counter("innet_ctl_analysis_ns_total"),
            analysis_ns: reg.histogram("innet_ctl_analysis_ns"),
            hop_cap_bailouts: bailouts.with("hop_cap"),
            visit_cap_bailouts: bailouts.with("visit_cap"),
            summary_cache_hits: reg.counter("innet_ctl_summary_cache_hits_total"),
            summary_cache_misses: reg.counter("innet_ctl_summary_cache_misses_total"),
            summary_chain_nodes: reg.counter("innet_ctl_summary_chain_nodes_total"),
            summary_invalidations: reg.counter("innet_ctl_summary_invalidations_total"),
            stage_lint_ns: reg.histogram("innet_ctl_stage_lint_ns"),
            stage_fastpath_ns: reg.histogram("innet_ctl_stage_fastpath_ns"),
            stage_symbolic_ns: reg.histogram("innet_ctl_stage_symbolic_ns"),
            stage_placement_ns: reg.histogram("innet_ctl_stage_placement_ns"),
            placement_rejects: reg.labeled_counter("innet_ctl_placement_reject_total", "reason"),
        }
    }

    /// Counts a verdict-cache hit that replays a check which cost
    /// `check_ns` when it first ran.
    fn cache_hit(&self, check_ns: u64) {
        self.cache_hits.inc();
        self.check_ns_saved.add(check_ns);
    }

    /// Counts one full (uncached) verification: the miss, the work it
    /// did, and its verdict.
    fn verified(&self, work: &Work, result: &Result<DeployResponse, DeployError>) {
        self.cache_misses.inc();
        self.compile_ns_total.add(work.compile_ns);
        self.compile_ns.observe(work.compile_ns);
        self.check_ns_total.add(work.check_ns);
        self.check_ns.observe(work.check_ns);
        self.analysis_ns_total.add(work.analysis_ns);
        self.analysis_ns.observe(work.analysis_ns);
        self.fastpath_hits.add(work.fastpath_hits);
        self.fastpath_fallbacks.add(work.fastpath_fallbacks);
        self.lint_rejects.add(u64::from(work.lint_rejected));
        self.lint_cache_hits.add(u64::from(work.lint_cache_hit));
        self.hop_cap_bailouts.add(work.check.hop_cap_bailouts);
        self.visit_cap_bailouts.add(work.check.visit_cap_bailouts);
        self.summary_cache_hits.add(work.check.summary_cache_hits);
        self.summary_cache_misses
            .add(work.check.summary_cache_misses);
        self.summary_chain_nodes.add(work.check.summary_chain_nodes);
        self.stage_lint_ns.observe(work.stage.lint);
        self.stage_fastpath_ns.observe(work.stage.fastpath);
        self.stage_symbolic_ns.observe(work.stage.symbolic);
        self.stage_placement_ns.observe(work.stage.placement);
        match result {
            Ok(resp) => {
                self.accepted.inc();
                if resp.sandboxed {
                    self.verdict_sandbox.inc();
                } else {
                    self.verdict_accept.inc();
                }
            }
            Err(e) => {
                self.verdict_reject.inc();
                self.rejected(e);
            }
        }
    }

    /// Counts a rejected request.
    fn rejected(&self, err: &DeployError) {
        self.rejected.inc();
        self.note_placement_rejects(err);
    }

    /// Counts each per-platform rejection of a `NoFeasiblePlacement`
    /// outcome, split by [`RejectReason`].
    fn note_placement_rejects(&self, err: &DeployError) {
        if let DeployError::NoFeasiblePlacement { reasons } = err {
            for (_, why) in reasons {
                self.placement_rejects
                    .with(RejectReason::classify(why).as_str())
                    .inc();
            }
        }
    }
}

/// Why a deployment failed.
#[derive(Debug, Clone)]
pub enum DeployError {
    /// The client id is not registered.
    UnknownClient(String),
    /// The configuration could not be modeled (unknown element class or
    /// malformed arguments) — per §4.1 such requests are refused.
    BadConfig(SymError),
    /// The lint pass found structural errors (wiring mistakes, dead
    /// outputs, queueless cycles, …) — refused before any verification,
    /// with the precise rule ids.
    Lint(innet_analysis::LintReport),
    /// The module provably violates the security rules. The report is
    /// shared (`Arc`): the same rejection is also memoized in the verdict
    /// cache, and a deep copy of its symbolic egress flows per request
    /// would dominate the admission path's constant costs.
    SecurityReject(Arc<SecurityReport>),
    /// No platform satisfies both the operator's policy and the client's
    /// requirements.
    NoFeasiblePlacement {
        /// Per-platform explanation of why it was rejected.
        reasons: Vec<(String, String)>,
    },
    /// A requirement referenced an unknown node.
    Verify(VerifyError),
    /// No such module (for `kill`).
    NoSuchModule(ModuleId),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownClient(c) => write!(f, "unknown client '{c}'"),
            DeployError::BadConfig(e) => write!(f, "unmodellable configuration: {e}"),
            DeployError::Lint(report) => write!(f, "configuration failed lint: {report}"),
            DeployError::SecurityReject(r) => {
                write!(f, "security violation: {:?}", r.violations)
            }
            DeployError::NoFeasiblePlacement { reasons } => {
                write!(f, "no feasible placement: {reasons:?}")
            }
            DeployError::Verify(e) => write!(f, "{e}"),
            DeployError::NoSuchModule(id) => write!(f, "no module {id}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<VerifyError> for DeployError {
    fn from(e: VerifyError) -> Self {
        DeployError::Verify(e)
    }
}

/// The controller's answer to a successful deployment (§4.3: the client
/// is given an address it can be reached at, and a module id for `kill`).
#[derive(Debug, Clone)]
pub struct DeployResponse {
    /// Handle for `kill`.
    pub module_id: ModuleId,
    /// The module's name.
    pub module_name: String,
    /// The address assigned to the module.
    pub public_addr: Ipv4Addr,
    /// Name of the hosting platform.
    pub platform: String,
    /// Whether a sandbox was injected.
    pub sandboxed: bool,
    /// Nanoseconds spent compiling network models for this request.
    pub compile_ns: u64,
    /// Nanoseconds spent checking (security + policy + requirements).
    pub check_ns: u64,
}

/// Per-stage wall time of one pass through the admission pipeline
/// (lint → abstract fast path → compositional symbolic → placement).
#[derive(Debug, Clone, Copy, Default)]
struct StageNs {
    lint: u64,
    fastpath: u64,
    symbolic: u64,
    placement: u64,
}

/// The work one full (uncached) pass through the admission pipeline did:
/// per-phase timings and static-analysis counters, counted into the
/// instruments in one place ([`ControllerMetrics::verified`]).
#[derive(Default)]
struct Work {
    compile_ns: u64,
    check_ns: u64,
    analysis_ns: u64,
    fastpath_hits: u64,
    fastpath_fallbacks: u64,
    lint_rejected: bool,
    lint_cache_hit: bool,
    check: CheckStats,
    stage: StageNs,
}

/// The In-Net controller.
pub struct Controller {
    topology: Topology,
    registry: Registry,
    operator_policy: Vec<Requirement>,
    clients: HashMap<String, ClientAccount>,
    modules: Vec<InstalledModule>,
    flow_rules: Vec<FlowRule>,
    next_id: ModuleId,
    addr_cursor: HashMap<NodeId, u32>,
    hardening: HardeningPolicy,
    /// Whether the abstract-interpretation fast path may decide verdicts
    /// (the lint pass always runs). On by default; the analyzer bench
    /// turns it off for its baseline.
    analysis_enabled: bool,
    /// Whether the security check may walk memoized chain summaries
    /// (`check_module_summarized`) instead of whole-graph symbolic
    /// execution. On by default; the admission bench turns it off for its
    /// whole-graph baseline. Participates in the verdict-cache key.
    summaries_enabled: bool,
    /// The verification verdict cache, shared (behind `parking_lot`) with
    /// the verification snapshots `deploy_batch` spawns, so shard misses
    /// warm the cache for everyone.
    verdicts: Arc<RwLock<VerdictCache>>,
    /// The chain-summary cache, shared like the verdict cache and
    /// epoch-invalidated alongside it.
    summaries: Arc<RwLock<SummaryCache>>,
    /// Fleet-wide memo of symbolic element models, handed to the
    /// compositional checker through [`SharedSummaries`] (the whole-graph
    /// oracle deliberately rebuilds its models per check). Entries are
    /// pure functions of element class + arguments; flushed with the
    /// other verification memos for hygiene only.
    models: Arc<ModelCache>,
    /// Memoized lint reports keyed by the materialized configuration's
    /// canonical text. Lint is a pure function of the configuration and
    /// the element registry, so replays are exact; flushed alongside the
    /// verdict cache for hygiene.
    lint_memo: Arc<RwLock<HashMap<String, innet_analysis::LintReport>>>,
    /// Precomputed placement-scoring context (client-vantage shortest
    /// paths). Immutable after construction — the topology is fixed for
    /// the controller's lifetime — and shared with verification shards.
    placement: Arc<PlacementContext>,
    /// The registry the instruments live in.
    obs: innet_obs::Registry,
    /// The instruments: the controller's only counter store.
    metrics: ControllerMetrics,
}

impl Controller {
    /// Creates a controller for the given operator topology, with a
    /// private metrics registry (see [`Controller::with_obs`] to share
    /// one).
    pub fn new(topology: Topology) -> Controller {
        Controller::with_obs(topology, &innet_obs::Registry::new())
    }

    /// Creates a controller publishing its counters into `obs`
    /// (Prometheus namespace `innet_ctl_*`): request/accept/reject
    /// totals, verdict-cache traffic, cumulative and per-request
    /// compile/check time, the admission stages, and
    /// `innet_ctl_verdicts_total` labeled by the outcome of each full
    /// (uncached) verification (`accept`, `sandbox`, `reject`). The
    /// registry is the store [`Controller::stats`] reads, so a second
    /// controller on the same registry shares these counts.
    pub fn with_obs(topology: Topology, obs: &innet_obs::Registry) -> Controller {
        let placement = Arc::new(PlacementContext::new(&topology));
        Controller {
            topology,
            registry: Registry::standard(),
            operator_policy: Vec::new(),
            clients: HashMap::new(),
            modules: Vec::new(),
            flow_rules: Vec::new(),
            next_id: 1,
            addr_cursor: HashMap::new(),
            hardening: HardeningPolicy::default(),
            analysis_enabled: true,
            summaries_enabled: true,
            verdicts: Arc::new(RwLock::new(VerdictCache::default())),
            summaries: Arc::new(RwLock::new(SummaryCache::default())),
            models: Arc::new(ModelCache::default()),
            lint_memo: Arc::new(RwLock::new(HashMap::new())),
            placement,
            obs: obs.clone(),
            metrics: ControllerMetrics::register(obs),
        }
    }

    /// Enables or disables the abstract-interpretation fast path (the
    /// lint pass always runs). The flag participates in the verdict-cache
    /// key, so toggling it never replays a verdict computed the other
    /// way.
    pub fn set_analysis_enabled(&mut self, enabled: bool) {
        self.analysis_enabled = enabled;
    }

    /// Whether the fast path is enabled.
    pub fn analysis_enabled(&self) -> bool {
        self.analysis_enabled
    }

    /// Enables or disables the compositional summary walk in the security
    /// check (whole-graph symbolic execution — the differential oracle —
    /// runs when disabled). Verdicts are identical either way; the flag
    /// still participates in the verdict-cache key because the reports
    /// attached to an outcome may order their details differently.
    pub fn set_summaries_enabled(&mut self, enabled: bool) {
        self.summaries_enabled = enabled;
    }

    /// Whether the compositional summary walk is enabled.
    pub fn summaries_enabled(&self) -> bool {
        self.summaries_enabled
    }

    /// Number of chain summaries currently cached.
    pub fn cached_summaries(&self) -> usize {
        self.summaries.read().len()
    }

    /// The metrics registry this controller publishes into.
    pub fn obs(&self) -> &innet_obs::Registry {
        &self.obs
    }

    /// The controller's cumulative statistics: a typed read of its
    /// instruments.
    pub fn stats(&self) -> ControllerStats {
        let m = &self.metrics;
        ControllerStats {
            requests: m.requests.get(),
            accepted: m.accepted.get(),
            rejected: m.rejected.get(),
            compile_ns: m.compile_ns_total.get(),
            check_ns: m.check_ns_total.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            cache_invalidations: m.cache_invalidations.get(),
            check_ns_saved: m.check_ns_saved.get(),
            fastpath_hits: m.fastpath_hits.get(),
            fastpath_fallbacks: m.fastpath_fallbacks.get(),
            lint_rejects: m.lint_rejects.get(),
            lint_cache_hits: m.lint_cache_hits.get(),
            analysis_ns: m.analysis_ns_total.get(),
            hop_cap_bailouts: m.hop_cap_bailouts.get(),
            visit_cap_bailouts: m.visit_cap_bailouts.get(),
            summary_cache_hits: m.summary_cache_hits.get(),
            summary_cache_misses: m.summary_cache_misses.get(),
            summary_chain_nodes: m.summary_chain_nodes.get(),
            summary_invalidations: m.summary_invalidations.get(),
            stage_lint_ns: m.stage_lint_ns.sum() as u64,
            stage_fastpath_ns: m.stage_fastpath_ns.sum() as u64,
            stage_symbolic_ns: m.stage_symbolic_ns.sum() as u64,
            stage_placement_ns: m.stage_placement_ns.sum() as u64,
            placement_rejects: m.placement_rejects.total(),
        }
    }

    /// Sets the §7 hardening policy (ingress filtering, UDP-reflection
    /// ban). Applies to subsequent deployments; an effective change
    /// invalidates all cached verdicts.
    pub fn set_hardening(&mut self, policy: HardeningPolicy) {
        if policy != self.hardening {
            self.hardening = policy;
            self.invalidate_verdicts();
        }
    }

    /// Discards every cached verification verdict by starting a new cache
    /// epoch — and the chain-summary cache with it, so all verification
    /// memoization shares one invalidation discipline. Called
    /// automatically on operator policy, hardening, and module-removal
    /// changes; operators can call it directly after out-of-band changes
    /// (e.g. topology edits).
    pub fn invalidate_verdicts(&mut self) {
        let dropped = self.verdicts.write().bump_epoch();
        self.metrics.cache_invalidations.add(dropped);
        let summaries_dropped = self.summaries.write().bump_epoch();
        self.metrics.summary_invalidations.add(summaries_dropped);
        // Model and lint memos hold pure functions of their keys and can
        // never go stale; they join the epoch flush as a memory bound.
        self.models.clear();
        self.lint_memo.write().clear();
    }

    /// Number of verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.verdicts.read().len()
    }

    /// The current hardening policy.
    pub fn hardening(&self) -> HardeningPolicy {
        self.hardening
    }

    /// Adds an operator policy rule that must hold after every network
    /// modification. Invalidates all cached verdicts: they were computed
    /// under the old rule set.
    pub fn add_operator_policy(&mut self, rule: Requirement) {
        self.operator_policy.push(rule);
        self.invalidate_verdicts();
    }

    /// Registers a tenant with its requester class and registered
    /// addresses.
    pub fn register_client(
        &mut self,
        id: impl Into<String>,
        class: RequesterClass,
        registered: Vec<Ipv4Addr>,
    ) {
        self.clients
            .insert(id.into(), ClientAccount { class, registered });
    }

    /// The currently installed modules.
    pub fn modules(&self) -> &[InstalledModule] {
        &self.modules
    }

    /// The installed vswitch flow rules.
    pub fn flow_rules(&self) -> &[FlowRule] {
        &self.flow_rules
    }

    /// The operator policy rules.
    pub fn operator_policy_rules(&self) -> &[Requirement] {
        &self.operator_policy
    }

    /// Registered client accounts.
    pub fn client_accounts(&self) -> impl Iterator<Item = (&String, &ClientAccount)> {
        self.clients.iter()
    }

    /// Installs an already-verified module set verbatim (used when
    /// building verification snapshots for parallel shards).
    pub fn adopt_modules(&mut self, modules: Vec<InstalledModule>) {
        self.next_id = modules
            .iter()
            .map(|m| m.id + 1)
            .max()
            .unwrap_or(self.next_id);
        self.modules = modules;
    }

    /// Whether the named platform still has capacity for one more module.
    pub fn platform_has_room(&self, platform_name: &str) -> bool {
        let Some(id) = self.topology.index_of(platform_name) else {
            return false;
        };
        let NodeKind::Platform(spec) = &self.topology.node(id).kind else {
            return false;
        };
        self.modules.iter().filter(|m| m.platform == id).count() < spec.capacity
    }

    /// Installed-module count per platform.
    fn occupancy(&self) -> HashMap<NodeId, usize> {
        let mut occ: HashMap<NodeId, usize> = HashMap::new();
        for m in &self.modules {
            *occ.entry(m.platform).or_insert(0) += 1;
        }
        occ
    }

    /// The topology's platforms in placement-preference order (client
    /// latency, residual capacity, link headroom — see
    /// [`PlacementContext::score`]) under current occupancy.
    pub fn ranked_platforms(&self) -> Vec<NodeId> {
        self.placement.rank(&self.topology, &self.occupancy())
    }

    /// The best-ranked platform that still has module capacity, if any.
    fn best_platform_with_room(&self) -> Option<NodeId> {
        let occupancy = self.occupancy();
        self.placement
            .rank(&self.topology, &occupancy)
            .into_iter()
            .find(|p| match &self.topology.node(*p).kind {
                NodeKind::Platform(spec) => occupancy.get(p).copied().unwrap_or(0) < spec.capacity,
                _ => false,
            })
    }

    /// Compiles the current network state into a verification model.
    pub fn network_model(&self) -> Result<NetworkModel, SymError> {
        let mut m = compile(&self.topology, &self.modules, &self.registry)?;
        m.ingress_filtering = self.hardening.ingress_filtering;
        Ok(m)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn allocate_addr(&mut self, platform: NodeId) -> Option<Ipv4Addr> {
        let NodeKind::Platform(spec) = &self.topology.node(platform).kind else {
            return None;
        };
        let cursor = self.addr_cursor.entry(platform).or_insert(10);
        let addr = spec.addr_pool.nth_host(*cursor);
        *cursor += 1;
        Some(addr)
    }

    /// Materializes a request's configuration for a concrete assigned
    /// address: binds `$SELF` placeholders in Click configurations and
    /// instantiates stock templates. Configurations without `$SELF` are
    /// address-independent and borrowed as-is — the common case on the
    /// admission hot path, where the clone would be pure overhead.
    fn materialize_config(config: &ModuleConfig, addr: Ipv4Addr) -> Cow<'_, ClickConfig> {
        match config {
            ModuleConfig::Click(c) => {
                if !c
                    .elements
                    .iter()
                    .any(|e| e.args.iter().any(|a| a.contains("$SELF")))
                {
                    return Cow::Borrowed(c);
                }
                let mut c = c.clone();
                for e in &mut c.elements {
                    for a in &mut e.args {
                        if a.contains("$SELF") {
                            *a = a.replace("$SELF", &addr.to_string());
                        }
                    }
                }
                Cow::Owned(c)
            }
            ModuleConfig::Stock(kind) => Cow::Owned(stock_config(*kind, addr)),
        }
    }

    /// Handles a deployment request (§4.3, §4.5): parse → verdict-cache
    /// lookup → security check → per-platform placement search → commit.
    ///
    /// The verdict cache is consulted before any model is compiled: a hit
    /// replays the memoized decision (re-checking only platform capacity
    /// for accepts), a miss runs the full pipeline and memoizes its
    /// outcome. See the `cache` module docs for the key derivation and
    /// the invalidation contract.
    pub fn deploy(
        &mut self,
        client_id: &str,
        request: ClientRequest,
    ) -> Result<DeployResponse, DeployError> {
        self.deploy_counted(client_id, request, true)
    }

    /// [`Controller::deploy`] with explicit control over the `requests`
    /// statistic. `deploy_batch`'s conflict path re-verifies a request
    /// that a shard already counted, so it passes `count_request: false`
    /// to keep batch and serial statistics identical.
    pub(crate) fn deploy_counted(
        &mut self,
        client_id: &str,
        request: ClientRequest,
        count_request: bool,
    ) -> Result<DeployResponse, DeployError> {
        if count_request {
            self.metrics.requests.inc();
        }
        let account = self
            .clients
            .get(client_id)
            .cloned()
            .ok_or_else(|| DeployError::UnknownClient(client_id.to_string()))?;

        let (epoch, key) = {
            let cache = self.verdicts.read();
            let epoch = cache.epoch();
            (
                epoch,
                verdict_key(
                    epoch,
                    &request,
                    &account,
                    self.hardening,
                    self.analysis_enabled,
                    self.summaries_enabled,
                ),
            )
        };
        let hit = self.verdicts.read().get(&key);
        if let Some(hit) = hit {
            match hit.outcome {
                CachedOutcome::Accept {
                    ref platform,
                    sandboxed,
                } if self.platform_has_room(platform) => {
                    self.metrics.cache_hit(hit.check_ns);
                    let platform = platform.clone();
                    return self
                        .commit_unchecked(client_id, &account, request, &platform, sandboxed);
                }
                CachedOutcome::Accept { sandboxed, .. }
                    if request.requirements.is_empty() && self.operator_policy.is_empty() =>
                {
                    // The cached placement filled up since it was
                    // verified, but with no requirements and no operator
                    // policy the verdict is placement-independent (the
                    // same argument the hit path's `commit_unchecked`
                    // already relies on) — only the placement step needs
                    // redoing. Commit on the best-ranked platform with
                    // room, still as a cache hit: no model is compiled
                    // and no check re-runs. The refreshed entry points
                    // the next hit straight at the new platform.
                    if let Some(alt) = self.best_platform_with_room() {
                        self.metrics.cache_hit(hit.check_ns);
                        let alt_name = self.topology.node(alt).name.clone();
                        self.verdicts.write().insert(
                            epoch,
                            key,
                            CachedVerdict {
                                outcome: CachedOutcome::Accept {
                                    platform: alt_name.clone(),
                                    sandboxed,
                                },
                                check_ns: hit.check_ns,
                            },
                        );
                        return self
                            .commit_unchecked(client_id, &account, request, &alt_name, sandboxed);
                    }
                    // Every platform is full: fall through to the full
                    // pipeline (counted as a miss), which reports the
                    // per-platform reasons.
                }
                CachedOutcome::Accept { .. } => {
                    // The cached placement filled up since it was
                    // verified, and the request constrains placement
                    // (requirements or operator policy), so the verdict
                    // may not transfer to another platform. Fall through
                    // to a full re-verification (counted as a miss); its
                    // outcome replaces the stale entry.
                }
                CachedOutcome::Reject(e) => {
                    self.metrics.cache_hit(hit.check_ns);
                    self.metrics.rejected(&e);
                    return Err(e);
                }
            }
        }
        let (result, work) = self.deploy_uncached(client_id, &account, request);
        self.metrics.verified(&work, &result);

        let outcome = match &result {
            Ok(resp) => Some(CachedOutcome::Accept {
                platform: resp.platform.clone(),
                sandboxed: resp.sandboxed,
            }),
            // Not verdicts about the request itself — never memoized.
            Err(DeployError::UnknownClient(_)) | Err(DeployError::NoSuchModule(_)) => None,
            // A placement that failed purely on capacity (platform full,
            // no address pool) is a property of current occupancy, not of
            // the request — occupancy changes on every commit and `kill`
            // without an epoch bump, so memoizing it would keep replaying
            // the reject after space frees up. Verdict-class rejects
            // (security, lint, policy, requirements) stay memoized.
            Err(DeployError::NoFeasiblePlacement { reasons })
                if reasons
                    .iter()
                    .all(|(_, why)| RejectReason::classify(why).is_capacity()) =>
            {
                None
            }
            Err(e) => Some(CachedOutcome::Reject(e.clone())),
        };
        if let Some(outcome) = outcome {
            self.verdicts.write().insert(
                epoch,
                key,
                CachedVerdict {
                    outcome,
                    check_ns: work.check_ns,
                },
            );
        }
        result
    }

    /// The full (uncached) admission pipeline, run as four explicit
    /// stages — lint → abstract fast path → compositional symbolic →
    /// placement — with per-stage wall time recorded in [`StageNs`] (and,
    /// via the caller, in the `innet_ctl_stage_*_ns` histograms). Returns
    /// the outcome plus the [`Work`] it did; the caller counts it.
    fn deploy_uncached(
        &mut self,
        client_id: &str,
        account: &ClientAccount,
        request: ClientRequest,
    ) -> (Result<DeployResponse, DeployError>, Work) {
        let mut work = Work::default();
        let mut reasons: Vec<(String, String)> = Vec::new();

        // Stage 1: lint. Structural rules are address-independent, so one
        // pass covers every candidate platform; `$SELF` is bound to a
        // documentation address purely so argument parsing succeeds.
        let t_lint = Instant::now();
        let lint_cfg = Controller::materialize_config(&request.config, Ipv4Addr::new(192, 0, 2, 1));
        // Lint is a pure function of (configuration, registry), so a
        // report memoized under the configuration's canonical text is an
        // exact replay — the stock chains a fleet redeploys under fresh
        // module names lint once.
        let lint_key = lint_cfg.canonical_text();
        let memoized = self.lint_memo.read().get(&lint_key).cloned();
        work.lint_cache_hit = memoized.is_some();
        let lint_report = match memoized {
            Some(report) => report,
            None => {
                let report = innet_analysis::lint(&lint_cfg, &self.registry);
                self.lint_memo.write().insert(lint_key, report.clone());
                report
            }
        };
        let lint_ns = t_lint.elapsed().as_nanos() as u64;
        work.analysis_ns += lint_ns;
        work.stage.lint += lint_ns;
        if lint_report.has_errors() {
            work.lint_rejected = true;
            return (Err(DeployError::Lint(lint_report)), work);
        }

        // Stage 2 is only sound when nothing the analyzer cannot see
        // influences the outcome: requirements and operator policy need a
        // compiled network model, and the UDP-reflection ban inspects
        // symbolic egress flows.
        let fastpath_eligible = self.analysis_enabled
            && request.requirements.is_empty()
            && self.operator_policy.is_empty()
            && !self.hardening.ban_udp_reflection;

        let result = 'search: {
            // Candidates in placement-preference order: client latency,
            // residual capacity, link headroom (see `PlacementContext`).
            // On figure-3-scale topologies with uniform links this
            // degenerates to the paper's declaration-order iteration.
            let platforms = self.placement.rank(&self.topology, &self.occupancy());
            for platform in platforms {
                let platform_name = self.topology.node(platform).name.clone();

                // Placement: capacity check and tentative address
                // assignment on this platform.
                let t_place = Instant::now();
                let NodeKind::Platform(spec) = &self.topology.node(platform).kind else {
                    continue;
                };
                let installed_here = self
                    .modules
                    .iter()
                    .filter(|m| m.platform == platform)
                    .count();
                if installed_here >= spec.capacity {
                    work.stage.placement += t_place.elapsed().as_nanos() as u64;
                    reasons.push((platform_name, "platform full".to_string()));
                    continue;
                }

                let Some(addr) = self.allocate_addr(platform) else {
                    work.stage.placement += t_place.elapsed().as_nanos() as u64;
                    reasons.push((platform_name, "no address pool".to_string()));
                    continue;
                };

                // Materialize the configuration (stock modules need the
                // assigned address; Click configurations may reference
                // the not-yet-known module address as `$SELF`).
                let raw_cfg = Controller::materialize_config(&request.config, addr);
                work.stage.placement += t_place.elapsed().as_nanos() as u64;

                let ctx = SecurityContext {
                    assigned_addr: addr,
                    registered: account.registered.clone(),
                    class: account.class,
                };

                // Stage 2: field-effect abstract interpretation. A
                // conclusive answer provably agrees with what symbolic
                // execution would decide (see innet-analysis), so both
                // the security check and the model compile are skipped.
                let mut fast = None;
                if fastpath_eligible {
                    let t = Instant::now();
                    fast = innet_analysis::abstract_verdict(&raw_cfg, &ctx, &self.registry);
                    let fast_ns = t.elapsed().as_nanos() as u64;
                    work.analysis_ns += fast_ns;
                    work.stage.fastpath += fast_ns;
                    if fast.is_some() {
                        work.fastpath_hits += 1;
                    } else {
                        work.fastpath_fallbacks += 1;
                    }
                }
                let fast_path = fast.is_some();
                let report = match fast {
                    Some(a) => SecurityReport {
                        verdict: a.verdict,
                        flows_checked: a.flows_checked,
                        violations: a.violations,
                        unknowns: a.unknowns,
                        egress_flows: Vec::new(),
                    },
                    None => {
                        // Stage 3: compositional symbolic security check
                        // (per requester class). The summary walk replays
                        // memoized chain summaries from the fleet-wide
                        // cache; disabled, the whole-graph oracle runs.
                        let t0 = Instant::now();
                        let outcome = if self.summaries_enabled {
                            let source = SharedSummaries::new(&self.summaries, &self.models);
                            check_module_summarized(&raw_cfg, &ctx, &self.registry, Some(&source))
                        } else {
                            check_module_with_stats(&raw_cfg, &ctx, &self.registry)
                        };
                        let (mut report, check_stats) = match outcome {
                            Ok(v) => v,
                            Err(e) => break 'search Err(DeployError::BadConfig(e)),
                        };
                        work.check.absorb(check_stats);
                        let sym_ns = t0.elapsed().as_nanos() as u64;
                        work.check_ns += sym_ns;
                        work.stage.symbolic += sym_ns;

                        // §7 hardening: the UDP-reflection (amplification)
                        // ban (fast-path-ineligible, so only seen here).
                        if self.hardening.ban_udp_reflection {
                            let (hardened, offenders) = apply_udp_reflection_ban(
                                account.class,
                                &report.egress_flows,
                                &report,
                            );
                            report.verdict = hardened;
                            report.violations.extend(offenders);
                        }
                        report
                    }
                };

                let (run_cfg, sandboxed) = match report.verdict {
                    Verdict::Reject => {
                        break 'search Err(DeployError::SecurityReject(Arc::new(report)));
                    }
                    Verdict::SafeWithSandbox => (
                        wrap_with_enforcer(&raw_cfg, addr, &account.registered),
                        true,
                    ),
                    Verdict::Safe => (raw_cfg.into_owned(), false),
                };

                // Pretend the module is installed here.
                let candidate = InstalledModule {
                    id: self.next_id,
                    name: request.module_name.clone(),
                    platform,
                    addr,
                    config: run_cfg,
                    sandboxed,
                    owner: client_id.to_string(),
                };
                // A fast-path verdict only fires when the requirement and
                // policy sets are empty, so the network model would have
                // nothing to check — skip compiling it.
                if !fast_path {
                    // Stage 4: placement verification — compile the
                    // network model with the candidate installed and
                    // check operator policy and client requirements
                    // against it (summary-walked where the entry chains
                    // allow).
                    let mut world = self.modules.clone();
                    world.push(candidate.clone());

                    let t1 = Instant::now();
                    let mut model = match compile(&self.topology, &world, &self.registry) {
                        Ok(m) => m,
                        Err(e) => break 'search Err(DeployError::BadConfig(e)),
                    };
                    model.ingress_filtering = self.hardening.ingress_filtering;
                    let model_ns = t1.elapsed().as_nanos() as u64;
                    work.compile_ns += model_ns;
                    work.stage.placement += model_ns;

                    // Operator policy and client requirements must all hold.
                    let t2 = Instant::now();
                    let mut ok = true;
                    let mut why = String::new();
                    let mut failure: Option<VerifyError> = None;
                    for rule in &self.operator_policy {
                        match check_requirement_summarized(&model, rule, self.summaries_enabled) {
                            Ok((true, cs)) => work.check.absorb(cs),
                            Ok((false, cs)) => {
                                work.check.absorb(cs);
                                ok = false;
                                why = format!("operator policy violated: {rule}");
                                break;
                            }
                            Err(e) => {
                                failure = Some(e);
                                break;
                            }
                        }
                    }
                    if ok && failure.is_none() {
                        for rule in &request.requirements {
                            match check_requirement_summarized(&model, rule, self.summaries_enabled)
                            {
                                Ok((true, cs)) => work.check.absorb(cs),
                                Ok((false, cs)) => {
                                    work.check.absorb(cs);
                                    ok = false;
                                    why = format!("client requirement unsatisfied: {rule}");
                                    break;
                                }
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                    let req_ns = t2.elapsed().as_nanos() as u64;
                    work.check_ns += req_ns;
                    work.stage.placement += req_ns;
                    if let Some(e) = failure {
                        break 'search Err(DeployError::Verify(e));
                    }

                    if !ok {
                        reasons.push((platform_name, why));
                        continue;
                    }
                }

                // Commit.
                let id = self.next_id;
                self.next_id += 1;
                self.flow_rules.push(FlowRule {
                    platform: platform_name.clone(),
                    dst: addr,
                    module: id,
                });
                self.modules.push(candidate);
                break 'search Ok(DeployResponse {
                    module_id: id,
                    module_name: request.module_name,
                    public_addr: addr,
                    platform: platform_name,
                    sandboxed,
                    compile_ns: work.compile_ns,
                    check_ns: work.check_ns,
                });
            }

            Err(DeployError::NoFeasiblePlacement { reasons })
        };
        (result, work)
    }

    /// Installs a request whose verdict was already established — either
    /// by a `deploy_batch` shard against an equivalent snapshot, or by a
    /// verdict-cache hit: allocates a fresh address, materializes the
    /// configuration, and commits without re-running the symbolic checks.
    /// The caller must have established that `platform_name` still has
    /// room.
    fn commit_unchecked(
        &mut self,
        client_id: &str,
        account: &ClientAccount,
        request: ClientRequest,
        platform_name: &str,
        sandboxed: bool,
    ) -> Result<DeployResponse, DeployError> {
        let platform = match self.topology.index_of(platform_name) {
            Some(p) => p,
            None => {
                let err = DeployError::NoFeasiblePlacement {
                    reasons: vec![(platform_name.to_string(), "unknown platform".to_string())],
                };
                self.metrics.note_placement_rejects(&err);
                return Err(err);
            }
        };
        let addr = match self.allocate_addr(platform) {
            Some(a) => a,
            None => {
                let err = DeployError::NoFeasiblePlacement {
                    reasons: vec![(platform_name.to_string(), "not a platform".to_string())],
                };
                self.metrics.note_placement_rejects(&err);
                return Err(err);
            }
        };
        let raw_cfg = Controller::materialize_config(&request.config, addr);
        let run_cfg = if sandboxed {
            wrap_with_enforcer(&raw_cfg, addr, &account.registered)
        } else {
            raw_cfg.into_owned()
        };
        let id = self.next_id;
        self.next_id += 1;
        self.flow_rules.push(FlowRule {
            platform: platform_name.to_string(),
            dst: addr,
            module: id,
        });
        self.modules.push(InstalledModule {
            id,
            name: request.module_name.clone(),
            platform,
            addr,
            config: run_cfg,
            sandboxed,
            owner: client_id.to_string(),
        });
        self.metrics.accepted.inc();
        Ok(DeployResponse {
            module_id: id,
            module_name: request.module_name,
            public_addr: addr,
            platform: platform_name.to_string(),
            sandboxed,
            compile_ns: 0,
            check_ns: 0,
        })
    }

    /// Commits a deployment that a shard already verified against an
    /// equivalent snapshot (same topology, same modules, an address from
    /// the same pool). Only `deploy_batch` may call this, and only when no
    /// conflicting commit landed in between.
    pub(crate) fn commit_verified(
        &mut self,
        client_id: &str,
        request: ClientRequest,
        platform_name: &str,
        sandboxed: bool,
    ) -> Result<DeployResponse, DeployError> {
        // No `requests` bump here: the shard that verified this proposal
        // already counted the request into the shared instruments —
        // counting again would make batch deployments report more
        // requests than they served.
        let account = self
            .clients
            .get(client_id)
            .cloned()
            .ok_or_else(|| DeployError::UnknownClient(client_id.to_string()))?;
        self.commit_unchecked(client_id, &account, request, platform_name, sandboxed)
    }

    /// A verification-only copy of this controller: same topology, policy,
    /// accounts, installed modules, and hardening — with independent
    /// allocators, and the *shared* verdict cache (built by direct field
    /// access so construction never bumps the cache epoch).
    ///
    /// The copy counts into this controller's instruments (atomics, so
    /// shard threads add straight into them), except `accepted`: a shard
    /// gets a private counter there, because acceptance is only real once
    /// the serial commit phase lands the proposal (or re-verifies it on
    /// conflict), and the live controller counts it then.
    pub(crate) fn verification_clone(&self) -> Controller {
        Controller {
            topology: self.topology.clone(),
            registry: Registry::standard(),
            operator_policy: self.operator_policy.clone(),
            clients: self.clients.clone(),
            modules: self.modules.clone(),
            flow_rules: Vec::new(),
            next_id: self
                .modules
                .iter()
                .map(|m| m.id + 1)
                .max()
                .unwrap_or(self.next_id),
            addr_cursor: HashMap::new(),
            hardening: self.hardening,
            analysis_enabled: self.analysis_enabled,
            summaries_enabled: self.summaries_enabled,
            verdicts: Arc::clone(&self.verdicts),
            summaries: Arc::clone(&self.summaries),
            models: Arc::clone(&self.models),
            lint_memo: Arc::clone(&self.lint_memo),
            placement: Arc::clone(&self.placement),
            obs: self.obs.clone(),
            metrics: ControllerMetrics {
                accepted: innet_obs::Counter::new(),
                ..self.metrics.clone()
            },
        }
    }

    /// Stops a module and removes its flow rules (§4.3 `kill`).
    ///
    /// Removing a module changes the installed topology, so all cached
    /// verdicts are invalidated: a placement that was infeasible
    /// ("platform full") or a requirement that failed against the old
    /// module set may now succeed.
    pub fn kill(&mut self, id: ModuleId) -> Result<(), DeployError> {
        let before = self.modules.len();
        self.modules.retain(|m| m.id != id);
        if self.modules.len() == before {
            return Err(DeployError::NoSuchModule(id));
        }
        self.flow_rules.retain(|r| r.module != id);
        self.invalidate_verdicts();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::StockModule;

    const FIG4: &str = r#"
        module batcher:
        FromNetfront()
          -> IPFilter(allow udp dst port 1500)
          -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
          -> TimedUnqueue(120, 100)
          -> dst :: ToNetfront();

        reach from internet udp
          -> batcher:dst:0 dst 172.16.15.133
          -> client dst port 1500
          const proto && dst port && payload
    "#;

    fn controller() -> Controller {
        let mut c = Controller::new(Topology::figure3());
        c.register_client(
            "mobile-7",
            RequesterClass::Client,
            vec![Ipv4Addr::new(172, 16, 15, 133)],
        );
        c.register_client(
            "cdn-corp",
            RequesterClass::ThirdParty,
            vec![Ipv4Addr::new(198, 51, 100, 1)],
        );
        c
    }

    #[test]
    fn unifying_example_deploys_on_platform3() {
        // §4.5: "only Platform 3 applies, since Platforms 1 and 2 are not
        // reachable from the outside."
        let mut c = controller();
        let req = ClientRequest::parse(FIG4).unwrap();
        let resp = c.deploy("mobile-7", req).unwrap();
        assert_eq!(resp.platform, "platform3");
        assert!(!resp.sandboxed);
        assert_eq!(c.modules().len(), 1);
        assert_eq!(c.flow_rules().len(), 1);
        assert_eq!(c.flow_rules()[0].dst, resp.public_addr);
    }

    #[test]
    fn unknown_client_rejected() {
        let mut c = controller();
        let req = ClientRequest::parse(FIG4).unwrap();
        assert!(matches!(
            c.deploy("stranger", req),
            Err(DeployError::UnknownClient(_))
        ));
    }

    #[test]
    fn spoofing_module_rejected() {
        let mut c = controller();
        let req = ClientRequest::parse(
            "module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();\n\
             reach from internet -> client",
        )
        .unwrap();
        assert!(matches!(
            c.deploy("cdn-corp", req),
            Err(DeployError::SecurityReject(_))
        ));
        assert_eq!(c.modules().len(), 0);
    }

    #[test]
    fn x86_stock_is_sandboxed() {
        let mut c = controller();
        let req = ClientRequest::parse("stock vm: x86-vm").unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(resp.sandboxed);
        let m = &c.modules()[0];
        assert!(!m.config.elements_of_class("ChangeEnforcer").is_empty());
    }

    #[test]
    fn unsatisfiable_requirement_finds_no_placement() {
        let mut c = controller();
        // Require TCP delivery *through* a module that filters it out.
        let req = ClientRequest::parse(
            "module strict:\nFromNetfront() -> IPFilter(allow udp dst port 9) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> d :: ToNetfront();\n\
             reach from internet tcp -> strict:d:0 tcp -> client",
        )
        .unwrap();
        assert!(matches!(
            c.deploy("mobile-7", req),
            Err(DeployError::NoFeasiblePlacement { .. })
        ));
    }

    #[test]
    fn kill_removes_module_and_rules() {
        let mut c = controller();
        let resp = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        c.kill(resp.module_id).unwrap();
        assert!(c.modules().is_empty());
        assert!(c.flow_rules().is_empty());
        assert!(matches!(
            c.kill(resp.module_id),
            Err(DeployError::NoSuchModule(_))
        ));
    }

    #[test]
    fn operator_policy_is_enforced() {
        let mut c = controller();
        // An absurd operator rule nothing can satisfy: all traffic to
        // clients must arrive as ICMP from the batcher module, which does
        // not exist — any deployment that lets traffic reach clients in
        // another way is fine; this rule itself fails verification, so
        // every placement is refused.
        c.add_operator_policy(
            Requirement::parse("reach from internet icmp src port 1 -> client").unwrap(),
        );
        let req = ClientRequest::parse(FIG4).unwrap();
        assert!(matches!(
            c.deploy("mobile-7", req),
            Err(DeployError::NoFeasiblePlacement { .. })
        ));
    }

    #[test]
    fn stock_dns_deploys_unsandboxed() {
        let mut c = controller();
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(!resp.sandboxed);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = controller();
        let _ = c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap());
        assert_eq!(c.stats().requests, 1);
        assert_eq!(c.stats().accepted, 1);
        assert!(c.stats().compile_ns > 0);
        assert!(c.stats().check_ns > 0);
        // Pipeline stage timings: FIG4 carries requirements, so the fast
        // path is ineligible and the symbolic + placement stages run.
        assert!(c.stats().stage_lint_ns > 0);
        assert_eq!(c.stats().stage_fastpath_ns, 0);
        assert!(c.stats().stage_symbolic_ns > 0);
        assert!(c.stats().stage_placement_ns > 0);
        // A requirement-free stock request rides the fast path instead.
        let _ = c.deploy(
            "mobile-7",
            ClientRequest::parse("stock dns: geo-dns").unwrap(),
        );
        assert!(c.stats().stage_fastpath_ns > 0);
    }

    #[test]
    fn summary_cache_warms_across_requests() {
        let mut c = controller();
        c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        let s1 = c.stats();
        assert!(
            s1.summary_cache_misses > 0,
            "first check computes summaries"
        );
        assert!(s1.summary_chain_nodes > 0, "chain elements were replayed");
        assert!(c.cached_summaries() > 0);
        // A renamed module with the same chain is a verdict-cache miss
        // (the module name is part of the verdict key) but a summary hit.
        let mut req2 = ClientRequest::parse(FIG4).unwrap();
        req2.module_name = "batcher2".to_string();
        c.deploy("mobile-7", req2).unwrap();
        let s2 = c.stats();
        assert!(s2.summary_cache_hits > s1.summary_cache_hits);
        assert_eq!(s2.summary_cache_misses, s1.summary_cache_misses);
    }

    #[test]
    fn invalidation_flushes_summary_cache() {
        let mut c = controller();
        let resp = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        assert!(c.cached_summaries() > 0);
        // `kill` bumps the shared epoch: verdicts and summaries flush
        // together.
        c.kill(resp.module_id).unwrap();
        assert_eq!(c.cached_summaries(), 0);
        assert_eq!(c.cached_verdicts(), 0);
        assert!(c.stats().summary_invalidations > 0);

        // The policy and hardening paths flush too.
        c.deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        assert!(c.cached_summaries() > 0);
        c.add_operator_policy(Requirement::parse("reach from client -> internet").unwrap());
        assert_eq!(c.cached_summaries(), 0);
    }

    #[test]
    fn summaries_toggle_agrees_with_whole_graph_oracle() {
        let accept = ClientRequest::parse(FIG4).unwrap();
        let reject = ClientRequest::parse(
            "module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();\n\
             reach from internet -> client",
        )
        .unwrap();
        let mut with = controller();
        let mut without = controller();
        without.set_summaries_enabled(false);
        assert!(!without.summaries_enabled());
        for req in [accept, reject] {
            let a = with.deploy("mobile-7", req.clone());
            let b = without.deploy("mobile-7", req);
            assert_eq!(a.is_ok(), b.is_ok(), "compositional verdict diverged");
        }
        assert_eq!(
            without.stats().summary_chain_nodes,
            0,
            "oracle mode replays nothing"
        );
        assert!(with.stats().summary_chain_nodes > 0);
    }

    #[test]
    fn second_module_gets_distinct_address() {
        let mut c = controller();
        let r1 = c
            .deploy("mobile-7", ClientRequest::parse(FIG4).unwrap())
            .unwrap();
        let mut req2 = ClientRequest::parse(FIG4).unwrap();
        req2.module_name = "batcher2".to_string();
        let r2 = c.deploy("mobile-7", req2).unwrap();
        assert_ne!(r1.public_addr, r2.public_addr);
        assert_eq!(c.modules().len(), 2);
    }

    #[test]
    fn self_placeholder_bound_at_deploy() {
        let mut c = controller();
        // A tunnel endpoint cannot know its address in advance: `$SELF`
        // is bound by the controller per candidate platform.
        let req = ClientRequest::parse(
            "module tun:\n\
             FromNetfront(0) -> UDPTunnelEncap($SELF, 7000, 172.16.15.133, 7001) \
             -> ToNetfront(1);\n\
             FromNetfront(1) -> UDPTunnelDecap() -> ToNetfront(0);",
        )
        .unwrap();
        let resp = c.deploy("mobile-7", req).unwrap();
        // The installed configuration carries the concrete address.
        let m = &c.modules()[0];
        let encap = m
            .config
            .elements
            .iter()
            .find(|e| e.class == "UDPTunnelEncap")
            .unwrap();
        assert_eq!(encap.args[0], resp.public_addr.to_string());
        assert!(!resp.sandboxed, "client tunnels verify cleanly");
    }

    #[test]
    fn udp_ban_rejects_third_party_dns() {
        use crate::hardening::HardeningPolicy;
        let mut c = controller();
        c.set_hardening(HardeningPolicy {
            ingress_filtering: true,
            ban_udp_reflection: true,
        });
        // Without the ban this deploys (Table 1: DNS is Safe); with it,
        // the amplification vector is refused for third parties…
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        assert!(matches!(
            c.deploy("cdn-corp", req),
            Err(DeployError::SecurityReject(_))
        ));
        // …while the operator's own clients remain exempt.
        let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
        assert!(c.deploy("mobile-7", req).is_ok());
    }

    #[test]
    fn stock_reverse_proxy_for_third_party() {
        let mut c = controller();
        let req = ClientRequest::parse(
            "stock edge: reverse-proxy\n\nreach from internet tcp dst port 80 -> edge",
        )
        .unwrap();
        let resp = c.deploy("cdn-corp", req).unwrap();
        assert!(!resp.sandboxed, "turn-around proxies verify cleanly");
        let _ = StockModule::ReverseHttpProxy;
    }
}
