//! Lowering a verified configuration into a flat compiled data plane.
//!
//! [`Router`] interprets the element graph: every hop is a virtual call
//! through `Box<dyn Element>`, every edge a `HashMap` probe, and every
//! classifier a linear rule scan per packet. [`CompiledRouter`] compiles
//! the same [`ClickConfig`] once, ahead of time, into a flat stage array:
//!
//! * **Decision-tree dispatch.** `IPClassifier`/`IPFilter` rule lists are
//!   specialized per protocol branch (non-IP / TCP / UDP / ICMP / other-IP)
//!   — atoms that are decidable within a branch fold away, and runs of
//!   `dst host A/32` rules become one exact-match table probe instead of a
//!   linear scan (generalizing the interpreter's one-rule `DstHost` fast
//!   path). `Classifier` byte patterns and `StaticIPLookup` route tables
//!   compile to flat programs.
//! * **Fusion.** Adjacent single-input/single-output header-touching
//!   elements (`IPFilter`, `CheckIPHeader`, `DecIPTTL`, `Counter`) fuse
//!   into one stage that runs their micro-ops back to back over a single
//!   parsed header view, eliminating the per-hop queue round-trip.
//! * **Flat edges.** The `(element, port) -> (element, port)` HashMap
//!   becomes an offset-indexed array, so forwarding a packet is two array
//!   loads.
//!
//! Semantics are bit-for-bit those of the interpreter: identical packet
//! bytes, identical emission order (the inline fast path only engages when
//! it is provably FIFO-equivalent — see `run_from`), identical
//! [`RouterStats`] accounting, and the same netfront ring cost at entry
//! and exit (that cost is the paper's Figure 8 fidelity floor, not
//! overhead to optimize away). The interpreted `Router` remains the
//! differential oracle; see DESIGN.md §13.
//!
//! [`Router`]: crate::graph::Router

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use innet_packet::{
    pattern::{Atom, Dir, PacketView, PatternExpr},
    Cidr, IpProto, Packet,
};

use crate::{
    config::ClickConfig,
    element::{Context, Element, Sink},
    elements::{
        BytePattern, CheckIPHeader, Classifier, Counter, DecIPTTL, FilterAction, FromNetfront,
        IPClassifier, IPFilter, StaticIPLookup, ToNetfront,
    },
    graph::{BatchResult, RouterError, RouterMetrics, RouterStats},
    netfront::NetfrontRing,
    registry::Registry,
};

/// Hop bound identical to the interpreter's: a compiled plan must detect
/// forwarding loops at exactly the same point.
const MAX_HOPS: usize = 100_000;

/// The packet currently being worked on: (stage index, input port, the
/// packet, and its cached header view with a "parsed L4 too" flag).
type InFlight = (u32, u32, Packet, Option<(PacketView, bool)>);

// ---------------------------------------------------------------------------
// Classifier compilation: per-protocol-branch specialization.
// ---------------------------------------------------------------------------

/// The protocol branch a packet's [`PacketView`] falls into. Every view
/// lands in exactly one branch, so rules can be specialized per branch
/// ahead of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// `view.proto == None` (non-IPv4 frames).
    NonIp,
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// ICMP.
    Icmp,
    /// IPv4 with any other protocol.
    OtherIp,
}

const BRANCHES: [Branch; 5] = [
    Branch::NonIp,
    Branch::Tcp,
    Branch::Udp,
    Branch::Icmp,
    Branch::OtherIp,
];

/// Result of specializing an expression to one branch: either decided at
/// compile time, or a (usually smaller) residual expression.
enum Spec {
    Known(bool),
    Expr(PatternExpr),
}

/// Specializes `expr` for views in branch `b`, using exactly the truth
/// table of [`Atom::matches_view`]: every non-`True` atom is false when
/// `proto` is `None`; `proto tcp/udp/icmp` is decidable in a known-proto
/// branch; port atoms are false outside TCP/UDP (no ports to compare).
/// Address (`Net`) and `Syn` atoms stay residual — they depend on packet
/// fields the branch does not determine.
fn specialize(expr: &PatternExpr, b: Branch) -> Spec {
    match expr {
        PatternExpr::Atom(a) => specialize_atom(a, b),
        PatternExpr::And(xs) => {
            let mut kept = Vec::new();
            for x in xs {
                match specialize(x, b) {
                    Spec::Known(false) => return Spec::Known(false),
                    Spec::Known(true) => {}
                    Spec::Expr(e) => kept.push(e),
                }
            }
            match kept.len() {
                0 => Spec::Known(true),
                1 => Spec::Expr(kept.pop().expect("len checked")),
                _ => Spec::Expr(PatternExpr::And(kept)),
            }
        }
        PatternExpr::Or(xs) => {
            let mut kept = Vec::new();
            for x in xs {
                match specialize(x, b) {
                    Spec::Known(true) => return Spec::Known(true),
                    Spec::Known(false) => {}
                    Spec::Expr(e) => kept.push(e),
                }
            }
            match kept.len() {
                0 => Spec::Known(false),
                1 => Spec::Expr(kept.pop().expect("len checked")),
                _ => Spec::Expr(PatternExpr::Or(kept)),
            }
        }
        PatternExpr::Not(x) => match specialize(x, b) {
            Spec::Known(v) => Spec::Known(!v),
            Spec::Expr(e) => Spec::Expr(PatternExpr::Not(Box::new(e))),
        },
    }
}

fn specialize_atom(a: &Atom, b: Branch) -> Spec {
    if matches!(a, Atom::True) {
        return Spec::Known(true);
    }
    // `matches_view` returns false for every other atom when the view has
    // no IP protocol.
    if b == Branch::NonIp {
        return Spec::Known(false);
    }
    match a {
        Atom::Proto(p) => match b {
            Branch::Tcp => Spec::Known(*p == IpProto::Tcp),
            Branch::Udp => Spec::Known(*p == IpProto::Udp),
            Branch::Icmp => Spec::Known(*p == IpProto::Icmp),
            // The other-IP branch only rules *out* the three named
            // branches; `proto sctp` and friends stay residual.
            Branch::OtherIp => {
                if matches!(p, IpProto::Tcp | IpProto::Udp | IpProto::Icmp) {
                    Spec::Known(false)
                } else {
                    Spec::Expr(PatternExpr::Atom(a.clone()))
                }
            }
            Branch::NonIp => unreachable!("handled above"),
        },
        Atom::Port(..) | Atom::PortRange(..) => match b {
            // `matches_view` gates port compares on TCP/UDP.
            Branch::Tcp | Branch::Udp => Spec::Expr(PatternExpr::Atom(a.clone())),
            _ => Spec::Known(false),
        },
        // Address and SYN predicates depend on fields the branch does not
        // fix; keep them (evaluated against the same view the interpreter
        // uses, so residual evaluation cannot diverge).
        _ => Spec::Expr(PatternExpr::Atom(a.clone())),
    }
}

/// Exact-match table over `/32` destination hosts: open addressing with
/// Fibonacci (multiplicative) hashing into a power-of-two slot array.
/// A lookup is one multiply, a shift, and a short linear probe — the
/// per-packet budget cannot absorb a SipHash `HashMap` probe per stage,
/// and this table sits on the hot path twice (classifier dispatch and
/// the fused filter's rule match).
#[derive(Debug, Default)]
struct HostTable {
    /// `(host, rule)` slots; `rule == u32::MAX` marks an empty slot
    /// (rule indices are bounded by the config size, never `MAX`).
    slots: Vec<(u32, u32)>,
    mask: usize,
    len: usize,
}

impl HostTable {
    #[inline]
    fn slot_of(host: u32, mask: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits,
        // which a power-of-two mask then folds into the table.
        ((host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Lowest rule index recorded for `host`, or `u32::MAX` when absent
    /// (the same "no table hit" sentinel [`ClassifyProgram::classify`]
    /// uses).
    #[inline]
    fn get(&self, host: u32) -> u32 {
        if self.len == 0 {
            return u32::MAX;
        }
        let mut i = Self::slot_of(host, self.mask);
        loop {
            let (k, r) = self.slots[i];
            if r == u32::MAX {
                return u32::MAX;
            }
            if k == host {
                return r;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Records `host → rule` unless the host is already present: rules
    /// compile in ascending index order, so keeping the first insert is
    /// first-match-wins.
    fn insert_first(&mut self, host: u32, rule: u32) {
        debug_assert_ne!(rule, u32::MAX);
        // Grow at 7/8 load; linear probing stays short well below that.
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            let cap = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, u32::MAX); cap]);
            self.mask = cap - 1;
            for (k, r) in old {
                if r != u32::MAX {
                    self.place(k, r);
                }
            }
        }
        if self.place(host, rule) {
            self.len += 1;
        }
    }

    /// Probes for `host` and writes into the first empty slot; returns
    /// whether a new entry was written (false when the host exists).
    fn place(&mut self, host: u32, rule: u32) -> bool {
        let mut i = Self::slot_of(host, self.mask);
        loop {
            let (k, r) = self.slots[i];
            if r == u32::MAX {
                self.slots[i] = (host, rule);
                return true;
            }
            if k == host {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// One branch of a compiled rule list: an exact-match table over the
/// destination address for `dst host A/32` rules, plus the ordered
/// residual rules that still need expression evaluation. First-match-wins
/// is preserved by recording each rule's original index and taking the
/// minimum across the two structures.
#[derive(Debug, Default)]
struct BranchPlan {
    /// `dst host A/32` rules: address → lowest matching rule index.
    host_table: HostTable,
    /// Residual rules `(original index, specialized expression)`,
    /// ascending by index.
    residual: Vec<(u32, PatternExpr)>,
}

/// Whether evaluating `e` can read the view's transport fields (ports or
/// TCP flags). Programs whose residuals are all L3-only run against the
/// cheaper [`PacketView::of_l3`] parse.
fn expr_reads_l4(e: &PatternExpr) -> bool {
    match e {
        PatternExpr::Atom(a) => matches!(a, Atom::Port(..) | Atom::PortRange(..) | Atom::Syn),
        PatternExpr::And(xs) | PatternExpr::Or(xs) => xs.iter().any(expr_reads_l4),
        PatternExpr::Not(x) => expr_reads_l4(x),
    }
}

/// A rule list (`IPClassifier` outputs or `IPFilter` rule numbers)
/// compiled into per-branch plans.
#[derive(Debug)]
pub struct ClassifyProgram {
    branches: [BranchPlan; 5],
    host_rules: usize,
    needs_l4: bool,
}

impl ClassifyProgram {
    /// Compiles an ordered rule list.
    pub fn build(rules: &[PatternExpr]) -> ClassifyProgram {
        let mut branches: [BranchPlan; 5] = Default::default();
        let mut host_rules = 0usize;
        for (bi, b) in BRANCHES.iter().enumerate() {
            let plan = &mut branches[bi];
            for (idx, rule) in rules.iter().enumerate() {
                match specialize(rule, *b) {
                    // Unmatched in this branch: the rule vanishes.
                    Spec::Known(false) => {}
                    // Always matches here: it is this branch's catch-all,
                    // and no later rule is reachable.
                    Spec::Known(true) => {
                        plan.residual.push((idx as u32, PatternExpr::any()));
                        break;
                    }
                    Spec::Expr(e) => {
                        if let PatternExpr::Atom(Atom::Net(Dir::Dst, net)) = &e {
                            if net.prefix_len() == 32 {
                                // Same address compiled twice keeps the
                                // earlier (winning) index.
                                plan.host_table.insert_first(net.first_u32(), idx as u32);
                                if *b == Branch::Udp {
                                    host_rules += 1;
                                }
                                continue;
                            }
                        }
                        plan.residual.push((idx as u32, e));
                    }
                }
            }
        }
        let needs_l4 = branches
            .iter()
            .any(|p| p.residual.iter().any(|(_, e)| expr_reads_l4(e)));
        ClassifyProgram {
            branches,
            host_rules,
            needs_l4,
        }
    }

    /// Whether any compiled rule can read ports or TCP flags. When false,
    /// [`classify`](Self::classify) is sound against an L3-only view
    /// ([`PacketView::of_l3`]): host tables read the destination address
    /// and branch dispatch reads the protocol, neither touches L4.
    #[inline]
    pub fn needs_l4(&self) -> bool {
        self.needs_l4
    }

    /// How many rules compiled to exact-match table entries (reported by
    /// [`CompiledRouter::describe`]).
    pub fn table_rules(&self) -> usize {
        self.host_rules
    }

    /// The index of the first matching rule for `view`, or `None` when no
    /// rule matches. Exactly first-match-wins: the residual scan stops as
    /// soon as indices pass the table hit.
    #[inline]
    pub fn classify(&self, view: &PacketView) -> Option<u32> {
        let plan = match view.proto {
            None => &self.branches[0],
            Some(IpProto::Tcp) => &self.branches[1],
            Some(IpProto::Udp) => &self.branches[2],
            Some(IpProto::Icmp) => &self.branches[3],
            Some(_) => &self.branches[4],
        };
        let table_hit = plan.host_table.get(view.dst);
        for (idx, expr) in &plan.residual {
            if *idx >= table_hit {
                break;
            }
            if expr.matches_view(view) {
                return Some(*idx);
            }
        }
        (table_hit != u32::MAX).then_some(table_hit)
    }
}

/// An `IPFilter` compiled as a [`ClassifyProgram`] plus per-rule actions.
#[derive(Debug)]
pub struct FilterProgram {
    prog: ClassifyProgram,
    actions: Vec<FilterAction>,
}

impl FilterProgram {
    /// Compiles an ordered allow/deny rule list.
    pub fn build(rules: &[(FilterAction, PatternExpr)]) -> FilterProgram {
        let exprs: Vec<PatternExpr> = rules.iter().map(|(_, e)| e.clone()).collect();
        FilterProgram {
            prog: ClassifyProgram::build(&exprs),
            actions: rules.iter().map(|(a, _)| *a).collect(),
        }
    }

    /// Whether any rule can read ports or TCP flags (see
    /// [`ClassifyProgram::needs_l4`]).
    #[inline]
    pub fn needs_l4(&self) -> bool {
        self.prog.needs_l4()
    }

    /// Whether `view` passes the filter (first matching rule is `allow`;
    /// no match is the implicit final deny).
    #[inline]
    pub fn pass(&self, view: &PacketView) -> bool {
        match self.prog.classify(view) {
            Some(i) => matches!(self.actions[i as usize], FilterAction::Allow),
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Stages and micro-ops.
// ---------------------------------------------------------------------------

/// One fused header operation. Each micro-op replicates one interpreted
/// element hop exactly (including its drop conditions) and counts as one
/// hop in [`RouterStats`].
// Boxing the large variants would put a pointer chase on every hop of
// the hot loop; the padding on the small variants is the cheaper trade.
#[allow(clippy::large_enum_variant)]
enum MicroOp {
    /// `IPFilter`: drop unless the compiled rule list allows.
    Filter(FilterProgram),
    /// `CheckIPHeader`: drop unless version 4 and checksum verify.
    CheckIp,
    /// `DecIPTTL`: decrement TTL + fix checksum; drop at TTL <= 1 or on
    /// unparseable headers.
    DecTtl,
    /// `Counter`: count packets/bytes and timestamps, always pass.
    Count {
        packets: u64,
        bytes: u64,
        first_ns: Option<u64>,
        last_ns: u64,
    },
}

impl MicroOp {
    fn name(&self) -> &'static str {
        match self {
            MicroOp::Filter(_) => "filter",
            MicroOp::CheckIp => "checkip",
            MicroOp::DecTtl => "decttl",
            MicroOp::Count { .. } => "count",
        }
    }
}

/// One stage of the compiled plan, indexed exactly like the source
/// configuration's elements so edge wiring carries over.
// Same trade as `MicroOp`: stages are matched once per hop, so variant
// padding beats the indirection a `Box` would introduce.
#[allow(clippy::large_enum_variant)]
enum Stage {
    /// `FromNetfront`: pay the netfront ring cost, stamp the ingress.
    Entry { iface: u16, ring: NetfrontRing },
    /// `ToNetfront`: pay the ring cost, transmit.
    Exit { iface: u16, ring: NetfrontRing },
    /// `IPClassifier` compiled to branch dispatch.
    Classify(ClassifyProgram),
    /// `Classifier` raw byte patterns, first match wins.
    ClassifyBytes(Vec<BytePattern>),
    /// `StaticIPLookup`: ordered longest-prefix route table.
    Route(Vec<(Cidr, usize)>),
    /// A fused chain of micro-ops; `exit_edge` is the last member's
    /// port-0 wire.
    Fused {
        ops: Vec<MicroOp>,
        exit_edge: Option<(u32, u32)>,
    },
    /// Any element without a native lowering runs as the interpreted
    /// instance behind dynamic dispatch.
    Dyn(Box<dyn Element>),
    /// A chain member consumed by a `Fused` stage; unreachable (fusion
    /// requires in-degree 1 from its chain predecessor).
    Gone,
}

/// Sink handed to `Dyn` stages: buffers port pushes, routes transmissions
/// straight to the tx list (identical to the interpreter's run sink).
struct StageSink<'a> {
    emitted: &'a mut Vec<(usize, Packet)>,
    tx: &'a mut Vec<(u16, Packet)>,
}

impl Sink for StageSink<'_> {
    fn push(&mut self, port: usize, pkt: Packet) {
        self.emitted.push((port, pkt));
    }

    fn transmit(&mut self, iface: u16, pkt: Packet) {
        self.tx.push((iface, pkt));
    }
}

/// Intermediate per-element lowering decision (phase 1 of `compile`).
enum Lower {
    Entry(u16),
    Exit(u16),
    Classify(ClassifyProgram),
    Bytes(Vec<BytePattern>),
    Route(Vec<(Cidr, usize)>),
    Micro(MicroOp),
    Dyn,
}

// ---------------------------------------------------------------------------
// The compiled router.
// ---------------------------------------------------------------------------

/// A [`ClickConfig`] lowered to a flat execution plan (see the module
/// docs). Mirrors the [`Router`] API so runners can hold either engine.
///
/// [`Router`]: crate::graph::Router
pub struct CompiledRouter {
    stages: Vec<Stage>,
    names: Vec<String>,
    /// Per-stage offset into `edge_to`.
    out_base: Vec<u32>,
    /// Per-stage declared output arity.
    out_count: Vec<u32>,
    /// Flat `(stage, port) -> (stage, port)` wires; `None` = unconnected.
    edge_to: Vec<Option<(u32, u32)>>,
    rx_ifaces: HashMap<u16, u32>,
    tx: Vec<(u16, Packet)>,
    now_ns: u64,
    /// Execution counters, maintained identically to the interpreter's.
    pub stats: RouterStats,
    metrics: Option<RouterMetrics>,
    scratch: VecDeque<(u32, u32, Packet)>,
    emitted_buf: Vec<(usize, Packet)>,
}

#[inline]
fn edge_of(
    out_base: &[u32],
    out_count: &[u32],
    edge_to: &[Option<(u32, u32)>],
    i: u32,
    port: usize,
) -> Option<(u32, u32)> {
    let i = i as usize;
    if port >= out_count[i] as usize {
        return None;
    }
    edge_to[out_base[i] as usize + port]
}

impl CompiledRouter {
    /// Lowers `cfg` into a compiled plan, validating it exactly like
    /// [`Router::from_config`] (any valid config compiles — elements
    /// without a native lowering run interpreted inside the plan).
    ///
    /// [`Router::from_config`]: crate::graph::Router::from_config
    pub fn compile(cfg: &ClickConfig, registry: &Registry) -> Result<CompiledRouter, RouterError> {
        cfg.validate()?;
        let mut elements: Vec<Box<dyn Element>> = Vec::with_capacity(cfg.elements.len());
        let mut names = Vec::with_capacity(cfg.elements.len());
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut rx_ifaces = HashMap::new();
        for decl in &cfg.elements {
            let el = registry.instantiate(&decl.class, &decl.args)?;
            if let Some(fnf) = el.as_any().downcast_ref::<FromNetfront>() {
                rx_ifaces.insert(fnf.iface(), elements.len() as u32);
            }
            index.insert(decl.name.clone(), elements.len());
            names.push(decl.name.clone());
            elements.push(el);
        }

        let mut edges: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for c in &cfg.connections {
            let from_idx = index[&c.from.element];
            let to_idx = index[&c.to.element];
            if c.from.port >= elements[from_idx].ports().outputs {
                return Err(RouterError::BadPort {
                    port: c.from.clone(),
                    input: false,
                });
            }
            if c.to.port >= elements[to_idx].ports().inputs {
                return Err(RouterError::BadPort {
                    port: c.to.clone(),
                    input: true,
                });
            }
            edges.insert((from_idx, c.from.port), (to_idx, c.to.port));
        }

        // Phase 1: decide each element's lowering (cloning rule data out
        // of the instances; un-lowerable elements stay `Dyn`).
        let mut lower: Vec<Option<Lower>> = elements
            .iter()
            .map(|el| {
                let any = el.as_any();
                Some(if let Some(f) = any.downcast_ref::<FromNetfront>() {
                    Lower::Entry(f.iface())
                } else if let Some(t) = any.downcast_ref::<ToNetfront>() {
                    Lower::Exit(t.iface())
                } else if let Some(c) = any.downcast_ref::<IPClassifier>() {
                    Lower::Classify(ClassifyProgram::build(c.rules()))
                } else if let Some(c) = any.downcast_ref::<Classifier>() {
                    Lower::Bytes(c.patterns().to_vec())
                } else if let Some(r) = any.downcast_ref::<StaticIPLookup>() {
                    Lower::Route(r.routes().to_vec())
                } else if let Some(f) = any.downcast_ref::<IPFilter>() {
                    Lower::Micro(MicroOp::Filter(FilterProgram::build(f.rules())))
                } else if any.is::<CheckIPHeader>() {
                    Lower::Micro(MicroOp::CheckIp)
                } else if any.is::<DecIPTTL>() {
                    Lower::Micro(MicroOp::DecTtl)
                } else if any.is::<Counter>() {
                    Lower::Micro(MicroOp::Count {
                        packets: 0,
                        bytes: 0,
                        first_ns: None,
                        last_ns: 0,
                    })
                } else {
                    Lower::Dyn
                })
            })
            .collect();

        // Phase 2: fuse chains of micro-op elements. A chain extends from
        // a head through port-0 wires as long as the successor is itself
        // micro-op-able, has in-degree exactly 1 (nobody else can inject
        // into the middle of a fused chain), and is not already consumed
        // (which also breaks cycles).
        let n = elements.len();
        let mut in_degree = vec![0usize; n];
        for &(to, _) in edges.values() {
            in_degree[to] += 1;
        }
        let micro = |l: &Option<Lower>| matches!(l, Some(Lower::Micro(_)));
        let mut consumed = vec![false; n];
        let mut chains: Vec<(usize, Vec<usize>)> = Vec::new();
        for head in 0..n {
            if consumed[head] || !micro(&lower[head]) {
                continue;
            }
            consumed[head] = true;
            let mut chain = vec![head];
            let mut cur = head;
            while let Some(&(next, next_port)) = edges.get(&(cur, 0)) {
                if next_port != 0 || consumed[next] || !micro(&lower[next]) || in_degree[next] != 1
                {
                    break;
                }
                consumed[next] = true;
                chain.push(next);
                cur = next;
            }
            chains.push((head, chain));
        }

        // Phase 3: materialize stages. Chain members collapse into their
        // head's `Fused` stage; everything else lowers in place.
        let mut stages: Vec<Stage> = Vec::with_capacity(n);
        for (i, el) in elements.into_iter().enumerate() {
            let stage = match lower[i].take() {
                Some(Lower::Entry(iface)) => Stage::Entry {
                    iface,
                    ring: NetfrontRing::default(),
                },
                Some(Lower::Exit(iface)) => Stage::Exit {
                    iface,
                    ring: NetfrontRing::default(),
                },
                Some(Lower::Classify(p)) => Stage::Classify(p),
                Some(Lower::Bytes(p)) => Stage::ClassifyBytes(p),
                Some(Lower::Route(r)) => Stage::Route(r),
                Some(Lower::Micro(op)) => {
                    // Either the head of a recorded chain, or a member
                    // already absorbed into one.
                    match chains.iter_mut().find(|(h, _)| *h == i) {
                        Some((_, chain)) => {
                            let tail = *chain.last().expect("chains are non-empty");
                            let exit_edge =
                                edges.get(&(tail, 0)).map(|&(t, p)| (t as u32, p as u32));
                            let mut ops = vec![op];
                            for &m in chain.iter().skip(1) {
                                match lower[m].take() {
                                    Some(Lower::Micro(mop)) => ops.push(mop),
                                    _ => unreachable!("chain members are micro-ops"),
                                }
                            }
                            Stage::Fused { ops, exit_edge }
                        }
                        None => Stage::Gone,
                    }
                }
                Some(Lower::Dyn) => Stage::Dyn(el),
                None => Stage::Gone,
            };
            stages.push(stage);
        }

        // Phase 4: flatten the edge map.
        let mut out_base = Vec::with_capacity(n);
        let mut out_count = Vec::with_capacity(n);
        let mut edge_to = Vec::new();
        for (i, decl) in cfg.elements.iter().enumerate() {
            // Output arity from the config declaration: re-instantiate is
            // wasteful, so recover it from the recorded edges plus the
            // stage shape. Declared arity only matters as an upper bound
            // for the port-indexed table; the max wired port suffices.
            let _ = decl;
            let max_port = edges
                .keys()
                .filter(|&&(f, _)| f == i)
                .map(|&(_, p)| p + 1)
                .max()
                .unwrap_or(0);
            out_base.push(edge_to.len() as u32);
            out_count.push(max_port as u32);
            for p in 0..max_port {
                edge_to.push(edges.get(&(i, p)).map(|&(t, tp)| (t as u32, tp as u32)));
            }
        }

        Ok(CompiledRouter {
            stages,
            names,
            out_base,
            out_count,
            edge_to,
            rx_ifaces,
            tx: Vec::new(),
            now_ns: 0,
            stats: RouterStats::default(),
            metrics: None,
            scratch: VecDeque::new(),
            emitted_buf: Vec::new(),
        })
    }

    /// Publishes counters into `registry` under the same
    /// `innet_click_*` names as the interpreter.
    pub fn attach_metrics(&mut self, registry: &innet_obs::Registry) {
        self.metrics = Some(RouterMetrics::register(registry));
    }

    /// Number of stages (== elements of the source config).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Human-readable stage listing, e.g.
    /// `["entry(0)", "classify(16 host-table)", "fused[filter]", "exit(0)"]`.
    /// Consumed chain members report as `"gone"`. Used by tests and the
    /// parallel example's compiled-mode marker.
    pub fn describe(&self) -> Vec<String> {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Entry { iface, .. } => format!("entry({iface})"),
                Stage::Exit { iface, .. } => format!("exit({iface})"),
                Stage::Classify(p) => format!("classify({} host-table)", p.table_rules()),
                Stage::ClassifyBytes(p) => format!("classify-bytes({})", p.len()),
                Stage::Route(r) => format!("route({})", r.len()),
                Stage::Fused { ops, .. } => {
                    let names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
                    format!("fused[{}]", names.join(","))
                }
                Stage::Dyn(el) => format!("dyn({})", el.class_name()),
                Stage::Gone => "gone".to_string(),
            })
            .collect()
    }

    /// The element instance names, in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Delivers one external packet, mirroring [`Router::deliver`].
    ///
    /// [`Router::deliver`]: crate::graph::Router::deliver
    pub fn deliver(&mut self, iface: u16, pkt: Packet, now_ns: u64) -> Result<(), RouterError> {
        let Some(&idx) = self.rx_ifaces.get(&iface) else {
            return Err(RouterError::NoSuchInterface(iface));
        };
        self.stats.record(&self.metrics, |d| d.delivered = 1);
        self.run_from(idx, 0, pkt, now_ns)
    }

    /// Runs the plan from `(idx, port)`.
    ///
    /// The worklist is FIFO like the interpreter's. The one structural
    /// difference is the inline fast path: when the worklist is empty and
    /// a stage emitted exactly one packet, the successor runs immediately
    /// without a queue round-trip. That is FIFO-equivalent by a two-case
    /// argument — with an empty queue, FIFO would pop that same packet
    /// next; with a non-empty queue the fast path is not taken and the
    /// emission is enqueued exactly as the interpreter would. Any
    /// fan-out (0 or 2+ emissions) always goes through the queue.
    fn run_from(
        &mut self,
        idx: u32,
        port: u32,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<(), RouterError> {
        let (_, failed) = self.run_packets(idx, port, std::iter::once(pkt), now_ns, 0);
        if failed > 0 {
            // The only error the plan body can raise.
            Err(RouterError::LoopDetected)
        } else {
            Ok(())
        }
    }

    /// Runs each packet of `pkts` to completion from `(idx, port)`. The
    /// first packet runs at `first_now`; each later one `step_ns` after
    /// its predecessor (the interpreter's virtual-time stepping). Returns
    /// `(ok, failed)` packet counts.
    ///
    /// This is the body behind both [`run_from`](Self::run_from) (a
    /// one-packet batch) and the single-ingress fast path of
    /// [`push_batch`](Self::push_batch), which amortizes the scratch
    /// queue and the stats flush over the whole batch instead of paying
    /// them per packet.
    fn run_packets<I: Iterator<Item = Packet>>(
        &mut self,
        idx: u32,
        port: u32,
        pkts: I,
        first_now: u64,
        step_ns: u64,
    ) -> (u64, u64) {
        let mut ok = 0u64;
        let mut failed = 0u64;
        let mut now = first_now;
        let mut queue = std::mem::take(&mut self.scratch);
        queue.clear();
        // Per-hop accounting accumulates in locals and flushes once on
        // exit: `RouterStats` totals and the metrics counters are only
        // observable between calls, so batching the updates is
        // invisible — and it takes three read-modify-writes plus a
        // metrics branch off every hop.
        let mut counted: u64 = 0;
        let mut sent: u64 = 0;
        for first in pkts {
            self.now_ns = now;
            let ctx = Context::at(now);
            let mut hops = 0usize;
            let mut result = Ok(());
            // The packet being worked on right now, with its (possibly
            // cached) header view. The view survives native stages — none
            // of them move the headers (`DecIPTTL` touches only TTL +
            // checksum, which the view does not read) — and is
            // invalidated by `Dyn` stages and queue crossings. The flag
            // records whether the view includes the transport fields
            // (`PacketView::of`) or is the cheaper L3-only parse
            // (`PacketView::of_l3`); a stage that needs L4 upgrades a
            // light view by re-parsing.
            let mut cur: Option<InFlight> = Some((idx, port, first, None));
            macro_rules! hop {
                ($l:lifetime) => {
                    hops += 1;
                    if hops > MAX_HOPS {
                        result = Err(RouterError::LoopDetected);
                        break $l;
                    }
                    counted += 1;
                };
            }
            macro_rules! drop_unconnected {
                () => {
                    self.stats
                        .record(&self.metrics, |d| d.dropped_unconnected = 1)
                };
            }
            macro_rules! emit {
                ($i:expr, $p:expr, $pkt:expr, $view:expr) => {
                    match edge_of(&self.out_base, &self.out_count, &self.edge_to, $i, $p) {
                        Some((ni, np)) => {
                            if queue.is_empty() {
                                cur = Some((ni, np, $pkt, $view));
                            } else {
                                queue.push_back((ni, np, $pkt));
                            }
                        }
                        None => {
                            drop_unconnected!();
                        }
                    }
                };
            }

            'run: loop {
                let (i, p, pkt, mut view) = match cur.take() {
                    Some(x) => x,
                    None => match queue.pop_front() {
                        Some((i, p, pkt)) => (i, p, pkt, None),
                        None => break,
                    },
                };
                match &mut self.stages[i as usize] {
                    Stage::Entry { iface, ring } => {
                        hop!('run);
                        ring.transfer(&pkt);
                        let mut pkt = pkt;
                        pkt.meta.ingress = *iface;
                        emit!(i, 0, pkt, view);
                    }
                    Stage::Exit { iface, ring } => {
                        hop!('run);
                        ring.transfer(&pkt);
                        self.tx.push((*iface, pkt));
                        sent += 1;
                    }
                    Stage::Classify(prog) => {
                        hop!('run);
                        let need = prog.needs_l4();
                        let (v, full) = match view.take() {
                            Some((v, full)) if full || !need => (v, full),
                            _ if need => (PacketView::of(&pkt), true),
                            _ => (PacketView::of_l3(&pkt), false),
                        };
                        // No rule matched means a classifier drop.
                        if let Some(out_port) = prog.classify(&v) {
                            emit!(i, out_port as usize, pkt, Some((v, full)));
                        }
                    }
                    Stage::ClassifyBytes(patterns) => {
                        hop!('run);
                        if let Some(out_port) = patterns.iter().position(|pat| pat.matches(&pkt)) {
                            emit!(i, out_port, pkt, view);
                        }
                    }
                    Stage::Route(routes) => {
                        hop!('run);
                        // Routing reads protocol presence and the destination
                        // only, so an L3 view always suffices here.
                        let (v, full) = view
                            .take()
                            .unwrap_or_else(|| (PacketView::of_l3(&pkt), false));
                        // `StaticIPLookup` drops non-IPv4 packets (no header
                        // to read); `proto.is_some()` is exactly the
                        // interpreter's `pkt.ipv4().is_ok()` gate.
                        if v.proto.is_some() {
                            let dst = Ipv4Addr::from(v.dst);
                            // No matching route means a drop.
                            if let Some(&(_, out_port)) =
                                routes.iter().find(|(c, _)| c.contains(dst))
                            {
                                emit!(i, out_port, pkt, Some((v, full)));
                            }
                        }
                    }
                    Stage::Fused { ops, exit_edge } => {
                        let exit_edge = *exit_edge;
                        let mut pkt = pkt;
                        let mut dropped = false;
                        for op in ops.iter_mut() {
                            hop!('run);
                            match op {
                                MicroOp::Filter(f) => {
                                    let need = f.needs_l4();
                                    let pass = match &view {
                                        Some((v, full)) if *full || !need => f.pass(v),
                                        _ => {
                                            let refreshed = if need {
                                                (PacketView::of(&pkt), true)
                                            } else {
                                                (PacketView::of_l3(&pkt), false)
                                            };
                                            let pass = f.pass(&refreshed.0);
                                            view = Some(refreshed);
                                            pass
                                        }
                                    };
                                    if !pass {
                                        dropped = true;
                                        break;
                                    }
                                }
                                MicroOp::CheckIp => {
                                    let ok = pkt
                                        .ipv4()
                                        .map(|ip| ip.version() == 4 && ip.verify_checksum())
                                        .unwrap_or(false);
                                    if !ok {
                                        dropped = true;
                                        break;
                                    }
                                }
                                MicroOp::DecTtl => {
                                    let Ok(mut ip) = pkt.ipv4_mut() else {
                                        dropped = true;
                                        break;
                                    };
                                    let ttl = ip.ttl();
                                    if ttl <= 1 {
                                        dropped = true;
                                        break;
                                    }
                                    ip.set_ttl(ttl - 1);
                                    ip.update_checksum();
                                }
                                MicroOp::Count {
                                    packets,
                                    bytes,
                                    first_ns,
                                    last_ns,
                                } => {
                                    *packets += 1;
                                    *bytes += pkt.len() as u64;
                                    first_ns.get_or_insert(now);
                                    *last_ns = now;
                                }
                            }
                        }
                        if !dropped {
                            match exit_edge {
                                Some((ni, np)) => {
                                    if queue.is_empty() {
                                        cur = Some((ni, np, pkt, view));
                                    } else {
                                        queue.push_back((ni, np, pkt));
                                    }
                                }
                                None => {
                                    drop_unconnected!();
                                }
                            }
                        }
                    }
                    Stage::Dyn(el) => {
                        hop!('run);
                        let before_tx = self.tx.len();
                        let mut emitted = std::mem::take(&mut self.emitted_buf);
                        emitted.clear();
                        {
                            let mut sink = StageSink {
                                emitted: &mut emitted,
                                tx: &mut self.tx,
                            };
                            el.push(p as usize, pkt, &ctx, &mut sink);
                        }
                        sent += (self.tx.len() - before_tx) as u64;
                        if emitted.len() == 1 && queue.is_empty() {
                            let (out_port, out_pkt) = emitted.pop().expect("len checked");
                            emit!(i, out_port, out_pkt, None);
                        } else {
                            for (out_port, out_pkt) in emitted.drain(..) {
                                match edge_of(
                                    &self.out_base,
                                    &self.out_count,
                                    &self.edge_to,
                                    i,
                                    out_port,
                                ) {
                                    Some((ni, np)) => queue.push_back((ni, np, out_pkt)),
                                    None => {
                                        drop_unconnected!();
                                    }
                                }
                            }
                        }
                        self.emitted_buf = emitted;
                    }
                    Stage::Gone => {
                        debug_assert!(false, "packet routed into a fused chain member");
                    }
                }
            }

            match result {
                Ok(()) => ok += 1,
                Err(_) => {
                    // A detected loop abandons that packet's remaining
                    // worklist, exactly as the interpreter's per-call
                    // queue teardown does; the next packet starts clean.
                    queue.clear();
                    failed += 1;
                }
            }
            now = now.wrapping_add(step_ns);
        }
        self.stats
            .record(&self.metrics, |d| (d.hops, d.transmitted) = (counted, sent));
        queue.clear();
        self.scratch = queue;
        (ok, failed)
    }

    /// Pushes a whole batch through the plan, mirroring
    /// [`Router::push_batch`] exactly (same virtual-time stepping, same
    /// single-ingress fast path and accounting).
    ///
    /// [`Router::push_batch`]: crate::graph::Router::push_batch
    pub fn push_batch(&mut self, batch: Vec<Packet>, now_ns: u64, step_ns: u64) -> BatchResult {
        let mut result = BatchResult::default();
        let mut now = now_ns;

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
                let successor = edge_of(&self.out_base, &self.out_count, &self.edge_to, entry, 0);
                let Stage::Entry { ring, .. } = &mut self.stages[entry as usize] else {
                    unreachable!("rx_ifaces only indexes Entry stages");
                };
                ring.transfer_batch(&batch);
                let n = batch.len() as u64;
                self.stats
                    .record(&self.metrics, |d| (d.delivered, d.hops) = (n, n));
                match successor {
                    Some((ni, np)) => {
                        // Packets here already carry `meta.ingress ==
                        // iface` (that equality is what made the batch
                        // single-ingress), so the Entry stamp is a no-op
                        // and the whole batch runs in one pass.
                        let (ok, failed) =
                            self.run_packets(ni, np, batch.into_iter(), now + step_ns, step_ns);
                        result.delivered += ok;
                        result.failed += failed;
                    }
                    None => {
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

    /// Advances virtual time, mirroring [`Router::tick`]: only `Dyn`
    /// stages can hold timed elements (none of the natively-lowered
    /// classes tick).
    ///
    /// [`Router::tick`]: crate::graph::Router::tick
    pub fn tick(&mut self, now_ns: u64) -> Vec<(u16, Packet)> {
        self.now_ns = now_ns;
        let ctx = Context::at(now_ns);
        let mut released: Vec<(u32, usize, Packet)> = Vec::new();
        let mut new_tx = 0u64;
        let mut emitted: Vec<(usize, Packet)> = Vec::new();
        for (i, stage) in self.stages.iter_mut().enumerate() {
            if let Stage::Dyn(el) = stage {
                let before_tx = self.tx.len();
                let mut sink = StageSink {
                    emitted: &mut emitted,
                    tx: &mut self.tx,
                };
                el.tick(&ctx, &mut sink);
                new_tx += (self.tx.len() - before_tx) as u64;
                for (out_port, pkt) in emitted.drain(..) {
                    released.push((i as u32, out_port, pkt));
                }
            }
        }
        self.stats.record(&self.metrics, |d| d.transmitted = new_tx);
        for (i, out_port, pkt) in released {
            match edge_of(&self.out_base, &self.out_count, &self.edge_to, i, out_port) {
                Some((ni, np)) => {
                    let _ = self.run_from(ni, np, pkt, now_ns);
                }
                None => self
                    .stats
                    .record(&self.metrics, |d| d.dropped_unconnected = 1),
            }
        }
        self.take_tx()
    }

    /// The earliest wake-up any (dynamic) stage wants, if any.
    pub fn next_tick_ns(&self) -> Option<u64> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Dyn(el) => el.next_tick_ns(),
                _ => None,
            })
            .min()
    }

    /// Drains and returns packets transmitted since the last call.
    pub fn take_tx(&mut self) -> Vec<(u16, Packet)> {
        std::mem::take(&mut self.tx)
    }

    /// Drains transmitted packets into `out` without allocating.
    pub fn take_tx_into(&mut self, out: &mut Vec<(u16, Packet)>) {
        out.append(&mut self.tx);
    }
}

impl std::fmt::Debug for CompiledRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledRouter")
            .field("stages", &self.describe())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Router;
    use innet_packet::PacketBuilder;

    fn both(cfg: &str) -> (Router, CompiledRouter) {
        let cfg = ClickConfig::parse(cfg).unwrap();
        let reg = Registry::standard();
        (
            Router::from_config(&cfg, &reg).unwrap(),
            CompiledRouter::compile(&cfg, &reg).unwrap(),
        )
    }

    fn mixed_trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let dst = Ipv4Addr::new(10, 0, (i % 7) as u8, (i % 23) as u8 + 1);
                match i % 4 {
                    0 => PacketBuilder::udp().dst(dst, 53).ttl(64).build(),
                    1 => PacketBuilder::tcp().dst(dst, 80).ttl(2).build(),
                    2 => PacketBuilder::udp().dst(dst, 9999).ttl(1).build(),
                    _ => PacketBuilder::tcp().dst(dst, 443).ttl(64).build(),
                }
            })
            .collect()
    }

    fn assert_identical(cfg: &str, pkts: Vec<Packet>) {
        let (mut interp, mut compiled) = both(cfg);
        let ri = interp.push_batch(pkts.clone(), 0, 1_000);
        let rc = compiled.push_batch(pkts, 0, 1_000);
        assert_eq!(ri, rc, "batch results differ");
        assert_eq!(interp.take_tx(), compiled.take_tx(), "tx differs");
        assert_eq!(interp.stats, compiled.stats, "stats differ");
    }

    #[test]
    fn straight_pipeline_identical() {
        assert_identical(
            "FromNetfront() -> Counter() -> ToNetfront();",
            mixed_trace(40),
        );
    }

    #[test]
    fn filter_chain_fuses_and_matches() {
        let cfg = "FromNetfront() -> CheckIPHeader() -> DecIPTTL() \
                   -> IPFilter(allow udp, deny tcp dst port 80, allow tcp) -> ToNetfront();";
        let (_, compiled) = both(cfg);
        let desc = compiled.describe().join(" ");
        assert!(
            desc.contains("fused[checkip,decttl,filter]"),
            "chain did not fuse: {desc}"
        );
        assert!(desc.contains("gone"), "members not consumed: {desc}");
        assert_identical(cfg, mixed_trace(64));
    }

    #[test]
    fn classifier_branches_identical() {
        let cfg = r#"
            src :: FromNetfront();
            c :: IPClassifier(dst host 10.0.1.5, udp dst port 53, tcp, -);
            a :: ToNetfront(0); b :: ToNetfront(1); d :: ToNetfront(2); e :: ToNetfront(3);
            src -> c;
            c[0] -> a; c[1] -> b; c[2] -> d; c[3] -> e;
        "#;
        assert_identical(cfg, mixed_trace(64));
    }

    #[test]
    fn host_table_first_match_wins() {
        // An earlier broad rule must beat a later host rule for packets
        // matching both, and vice versa.
        let prog = ClassifyProgram::build(&[
            "udp dst port 53".parse().unwrap(),
            "dst host 10.0.0.1".parse().unwrap(),
            "dst host 10.0.0.2".parse().unwrap(),
        ]);
        let dns_to_1 = PacketBuilder::udp()
            .dst(Ipv4Addr::new(10, 0, 0, 1), 53)
            .build();
        let tcp_to_1 = PacketBuilder::tcp()
            .dst(Ipv4Addr::new(10, 0, 0, 1), 80)
            .build();
        let tcp_to_9 = PacketBuilder::tcp()
            .dst(Ipv4Addr::new(10, 0, 0, 9), 80)
            .build();
        assert_eq!(prog.classify(&PacketView::of(&dns_to_1)), Some(0));
        assert_eq!(prog.classify(&PacketView::of(&tcp_to_1)), Some(1));
        assert_eq!(prog.classify(&PacketView::of(&tcp_to_9)), None);
    }

    #[test]
    fn specialization_prunes_branches() {
        // `udp dst port 53` in the TCP branch is Known(false); in the UDP
        // branch the proto atom folds away.
        let rules = vec!["udp dst port 53".parse().unwrap()];
        let prog = ClassifyProgram::build(&rules);
        let tcp = PacketBuilder::tcp()
            .dst(Ipv4Addr::new(1, 1, 1, 1), 53)
            .build();
        let udp = PacketBuilder::udp()
            .dst(Ipv4Addr::new(1, 1, 1, 1), 53)
            .build();
        assert_eq!(prog.classify(&PacketView::of(&tcp)), None);
        assert_eq!(prog.classify(&PacketView::of(&udp)), Some(0));
        // Differential over the mixed corpus.
        for pkt in mixed_trace(32) {
            let v = PacketView::of(&pkt);
            let want = rules[0].matches_view(&v).then_some(0);
            assert_eq!(prog.classify(&v), want);
        }
    }

    #[test]
    fn route_table_identical() {
        let cfg = r#"
            src :: FromNetfront();
            r :: StaticIPLookup(10.0.0.0/8 0, 10.1.0.0/16 1, 0.0.0.0/0 2);
            a :: ToNetfront(0); b :: ToNetfront(1); c :: ToNetfront(2);
            src -> r; r[0] -> a; r[1] -> b; r[2] -> c;
        "#;
        assert_identical(cfg, mixed_trace(48));
    }

    #[test]
    fn byte_classifier_identical() {
        let cfg = r#"
            src :: FromNetfront();
            c :: Classifier(12/0800 23/11, 12/0800, -);
            a :: ToNetfront(0); b :: ToNetfront(1); d :: ToNetfront(2);
            src -> c; c[0] -> a; c[1] -> b; c[2] -> d;
        "#;
        assert_identical(cfg, mixed_trace(48));
    }

    #[test]
    fn dyn_fallback_identical() {
        // IPNAT has no native lowering: it must run interpreted inside
        // the plan with identical results.
        let cfg = "FromNetfront() -> IPNAT(5.5.5.5) -> ToNetfront();";
        let pkts: Vec<Packet> = (0..32)
            .map(|i| {
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(10, 0, 0, (i % 5) as u8 + 1), 5000 + i as u16)
                    .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
                    .build()
            })
            .collect();
        assert_identical(cfg, pkts);
    }

    #[test]
    fn tee_fanout_preserves_order() {
        let cfg = r#"
            src :: FromNetfront();
            t :: Tee(2);
            c1 :: Counter(); c2 :: Counter();
            a :: ToNetfront(0); b :: ToNetfront(1);
            src -> t; t[0] -> c1 -> a; t[1] -> c2 -> b;
        "#;
        assert_identical(cfg, mixed_trace(24));
    }

    #[test]
    fn unconnected_and_unknown_iface_identical() {
        // Unwired netfront: batch drops with identical accounting.
        assert_identical("FromNetfront();", mixed_trace(8));
        // Unknown ingress: per-packet failures counted identically.
        let (mut interp, mut compiled) = both("FromNetfront(0) -> ToNetfront();");
        let mut pkts = mixed_trace(6);
        for (i, p) in pkts.iter_mut().enumerate() {
            p.meta.ingress = (i % 3) as u16; // ifaces 1 and 2 do not exist
        }
        let ri = interp.push_batch(pkts.clone(), 0, 1_000);
        let rc = compiled.push_batch(pkts, 0, 1_000);
        assert_eq!(ri, rc);
        assert_eq!(interp.take_tx(), compiled.take_tx());
        assert_eq!(interp.stats, compiled.stats);
    }

    #[test]
    fn timed_elements_tick_identically() {
        let cfg = "FromNetfront() -> Queue(16) -> TimedUnqueue(1, 8) -> ToNetfront();";
        let (mut interp, mut compiled) = both(cfg);
        let pkts = mixed_trace(12);
        interp.push_batch(pkts.clone(), 0, 1_000);
        compiled.push_batch(pkts, 0, 1_000);
        assert_eq!(interp.next_tick_ns(), compiled.next_tick_ns());
        let t = interp.next_tick_ns().unwrap_or(2_000_000_000);
        assert_eq!(interp.tick(t), compiled.tick(t));
        assert_eq!(interp.stats, compiled.stats);
    }

    #[test]
    fn loop_detected_identically() {
        let cfg = "c :: Counter(); d :: FromNetfront(); d -> c; c -> c;";
        let (mut interp, mut compiled) = both(cfg);
        let pkt = PacketBuilder::udp().build();
        assert_eq!(
            interp.deliver(0, pkt.clone(), 0),
            compiled.deliver(0, pkt, 0)
        );
        assert_eq!(interp.stats, compiled.stats);
    }
}
