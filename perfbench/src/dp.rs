//! The two data-plane workloads: `dp-consolidated` (the §5/Figure 8
//! consolidated VM on the compiled engine and the single-threaded
//! runner) and `dp-nat-churn` (a NAT gateway under connection churn on
//! the flow-sharded parallel runner).
//!
//! One operation is one runner call on a burst of [`BURST`] packets
//! ([`NAT_BURST`] on `dp-nat-churn`): its latency is the burst's
//! completion time, and the rate is transmitted
//! packets over the summed call time. The rate is computed here from
//! `transmitted` for both runners; `NativeStats::pps()` counts offered
//! packets and is never used.

use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use innet::click::elements::IpNat;
use innet::click::{ClickConfig, CompiledRouter, Registry, Router};
use innet::packet::{FlowKey, IpProto, Packet, PacketBuilder, PacketPool};
use innet::platform::{consolidated_config, nat_gateway_config, RunnerConfig};

use crate::stats::{spread, Metric, Report, Rng, RunOut};
use crate::Workload;

/// Packets per runner call.
const BURST: usize = 2048;
/// Runner calls per rep: enough that every rep's p90 has ten bursts
/// beyond it.
const BURSTS_PER_REP: usize = 128;
/// Packets per runner call on `dp-nat-churn`. The dispatcher and its
/// worker need both CPUs at once, so a short burst is either missed or
/// hit whole by a stall of the host's scheduler, and the p90 of short
/// bursts counts those stalls rather than the NAT. A burst this long
/// spans several of them and its latency averages them.
const NAT_BURST: usize = 8192;
/// Bursts per NAT runner. Runners never tick, so IPNAT never reaps: a
/// fresh runner every 262,144 packets keeps the table, and the ports the
/// generator keeps unique, bounded.
const RUNNER_BURSTS: usize = 32;
/// Packets per `push_batch`, the runners' default batch.
const BATCH: usize = 32;
/// Virtual time per packet, as in the runners.
const STEP_NS: u64 = 1_000;

const TENANTS: usize = 64;
const FLOWS: usize = 1024;
const PACKETS_PER_FLOW: usize = 8;

/// The NAT's public address.
const PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// Connections live at once in the churn generator.
const ACTIVE: usize = 256;

/// Threads the parallel runner may use besides the dispatcher, so that
/// dispatcher plus workers never exceed the host's CPUs.
pub fn parallel_workers() -> usize {
    crate::nproc().saturating_sub(1).max(1)
}

fn tenant_addrs() -> Vec<Ipv4Addr> {
    (0..TENANTS)
        .map(|i| Ipv4Addr::new(198, 18, 0, 1 + i as u8))
        .collect()
}

/// 1,024 UDP flows of 64-byte frames to the 64 tenants, eight packets
/// per flow, in seeded order.
pub fn consolidated_trace(seed: u64) -> Vec<Packet> {
    let mut rng = Rng::new(seed);
    let tenants = tenant_addrs();
    let flows: Vec<(Ipv4Addr, u16, Ipv4Addr, u16)> = (0..FLOWS)
        .map(|_| {
            let src = Ipv4Addr::from(0x0800_0000 | (rng.next_u64() as u32 & 0x00ff_ffff));
            let sport = 1024 + rng.below(60_000) as u16;
            let dst = tenants[rng.below(TENANTS as u64) as usize];
            let dport = [53u16, 80, 443, 1500][rng.below(4) as usize];
            (src, sport, dst, dport)
        })
        .collect();
    let mut order: Vec<usize> = (0..FLOWS * PACKETS_PER_FLOW).map(|i| i % FLOWS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
        .into_iter()
        .map(|f| {
            let (src, sport, dst, dport) = flows[f];
            PacketBuilder::udp()
                .src(src, sport)
                .dst(dst, dport)
                .pad_to(64)
                .build()
        })
        .collect()
}

/// `(egress, src, sport, dst, dport)` of a transmitted packet.
type Header = (u16, Ipv4Addr, u16, Ipv4Addr, u16);

fn header(egress: u16, pkt: &Packet) -> Option<Header> {
    let k = FlowKey::of(pkt).ok()?;
    Some((egress, k.src, k.src_port, k.dst, k.dst_port))
}

/// Counts the entries of `got` that `want` does not account for (as
/// multisets), plus those of `want` that never appeared.
fn multiset_mismatch(mut want: Vec<Header>, mut got: Vec<Header>) -> u64 {
    want.sort_unstable();
    got.sort_unstable();
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                bad += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad + (want.len() - i) as u64 + (got.len() - j) as u64
}

/// Time split of one instrumented pass: the runner's loop re-done from
/// the benchmark with a span around the copy and around the plan.
#[derive(Default)]
struct Spans {
    copy_ns: u64,
    plan_ns: u64,
    packets: u64,
    transmitted: u64,
    burst_us: Vec<f64>,
}

impl Spans {
    fn per_pkt(&self, ns: u64) -> f64 {
        ns as f64 / self.packets.max(1) as f64
    }
}

/// `NativeRunner`'s loop, with spans: copy each batch out of the pool,
/// then `push_batch` + `take_tx_into` on the compiled plan.
fn instrumented(
    router: &mut CompiledRouter,
    pool: &mut PacketPool,
    burst: &[Packet],
    spans: &mut Spans,
) {
    let mut out: Vec<(u16, Packet)> = Vec::with_capacity(BATCH * 2);
    let mut now_ns = 0u64;
    let t_burst = Instant::now();
    for chunk in burst.chunks(BATCH) {
        let t0 = Instant::now();
        let copies: Vec<Packet> = chunk.iter().map(|p| pool.copy_of(p)).collect();
        let t1 = Instant::now();
        router.push_batch(copies, now_ns, STEP_NS);
        router.take_tx_into(&mut out);
        let t2 = Instant::now();
        now_ns += STEP_NS * chunk.len() as u64;
        spans.copy_ns += (t1 - t0).as_nanos() as u64;
        spans.plan_ns += (t2 - t1).as_nanos() as u64;
        spans.transmitted += out.len() as u64;
        for (_, p) in out.drain(..) {
            pool.recycle(p);
        }
    }
    spans.packets += burst.len() as u64;
    spans
        .burst_us
        .push(t_burst.elapsed().as_nanos() as f64 / 1e3);
}

fn compile(cfg: &ClickConfig) -> CompiledRouter {
    CompiledRouter::compile(cfg, &Registry::standard()).expect("benchmark configs compile")
}

/// Plain forwarding: the I/O floor under a workload's configuration.
fn bare_config() -> ClickConfig {
    ClickConfig::parse("FromNetfront() -> ToNetfront();").expect("valid literal config")
}

/// Plain forwarding between the NAT gateway's two interfaces.
fn bare_gateway_config() -> ClickConfig {
    ClickConfig::parse(
        "inside :: FromNetfront(0); outside :: FromNetfront(1); \
         inside -> ToNetfront(1); outside -> ToNetfront(0);",
    )
    .expect("valid literal config")
}

/// Median wall time of `f` over `reps` calls, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    spread(&v).median
}

/// Records a rep of bursts: rate from transmitted packets over call time.
fn close_rep(out: &mut RunOut, lat_us: Vec<f64>, transmitted: u64) {
    let busy_s: f64 = lat_us.iter().sum::<f64>() / 1e6;
    out.ops_per_s.push(transmitted as f64 / busy_s.max(1e-9));
    out.push_latencies(lat_us);
}

/// Adds the named `delivered_mpps` figure from the per-rep rates.
fn name_mpps(out: &mut RunOut) {
    let mpps = out.ops_per_s.iter().map(|r| r / 1e6).collect();
    out.named
        .push(Metric::new("delivered_mpps", "Mpps", mpps).reported(Report::Highest));
}

// ---------------------------------------------------------------------------
// dp-consolidated
// ---------------------------------------------------------------------------

pub struct Consolidated;

pub struct ConsolidatedState {
    trace: Vec<Packet>,
    cfg: ClickConfig,
    runner: innet::platform::NativeRunner,
}

impl Workload for Consolidated {
    const NAME: &'static str = "dp-consolidated";
    type State = ConsolidatedState;

    fn named(out: &mut RunOut) {
        name_mpps(out);
    }

    fn setup(seed: u64) -> ConsolidatedState {
        let trace = consolidated_trace(seed);
        let cfg = consolidated_config(&tenant_addrs());
        let runner = RunnerConfig::new()
            .compiled(true)
            .native(&cfg)
            .expect("consolidated config instantiates");
        ConsolidatedState { trace, cfg, runner }
    }

    fn measure(st: &mut ConsolidatedState, budget: Duration, out: &mut RunOut) {
        let bursts: Vec<&[Packet]> = st.trace.chunks(BURST).collect();
        let start = Instant::now();
        let mut k = 0usize;
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let mut lat_us = Vec::with_capacity(BURSTS_PER_REP);
            let mut transmitted = 0u64;
            for _ in 0..BURSTS_PER_REP {
                let burst = bursts[k % bursts.len()];
                k += 1;
                let t = Instant::now();
                let stats = st.runner.run(burst, 1);
                lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                transmitted += stats.transmitted;
                out.attempted += burst.len() as u64;
                // Every flow is addressed to a tenant its firewall admits.
                out.fail(
                    burst.len() as u64 - stats.transmitted.min(burst.len() as u64),
                    || format!("burst delivered {} of {}", stats.transmitted, burst.len()),
                );
            }
            close_rep(out, lat_us, transmitted);
        }
    }

    fn trace(st: &mut ConsolidatedState, budget: Duration, out: &mut RunOut) -> (Vec<Metric>, f64) {
        let bursts: Vec<&[Packet]> = st.trace.chunks(BURST).collect();
        let mut plan = compile(&st.cfg);
        let mut floor = compile(&bare_config());
        let mut pool = PacketPool::new();
        let (mut copy, mut plan_ns, mut floor_ns) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut k = 0usize;
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let mut s = Spans::default();
            let mut f = Spans::default();
            for _ in 0..BURSTS_PER_REP {
                let burst = bursts[k % bursts.len()];
                k += 1;
                instrumented(&mut plan, &mut pool, burst, &mut s);
                instrumented(&mut floor, &mut pool, burst, &mut f);
            }
            out.attempted += s.packets;
            out.fail(s.packets - s.transmitted.min(s.packets), || {
                "instrumented plan dropped packets".to_string()
            });
            copy.push(s.per_pkt(s.copy_ns));
            plan_ns.push(s.per_pkt(s.plan_ns));
            floor_ns.push(f.per_pkt(f.plan_ns));
            close_rep(out, std::mem::take(&mut s.burst_us), s.transmitted);
        }
        let logic: Vec<f64> = plan_ns.iter().zip(&floor_ns).map(|(p, f)| p - f).collect();
        let compile_ms = time_ms(21, || {
            black_box(compile(black_box(&st.cfg)));
        });
        let layer_sum = spread(&copy).median + spread(&plan_ns).median;
        (
            vec![
                Metric::new("packet.copy_ns", "ns", copy),
                Metric::new("click.plan_ns", "ns", plan_ns),
                Metric::new("click.io_floor_ns", "ns", floor_ns),
                Metric::new("click.logic_ns", "ns", logic),
                Metric::one("click.compile_ms", "ms", compile_ms),
            ],
            layer_sum,
        )
    }

    fn check(st: &mut ConsolidatedState, traced: bool, out: &mut RunOut) {
        // Every packet leaves on the single egress, headers untouched.
        let want: Vec<Header> = st.trace.iter().filter_map(|p| header(0, p)).collect();
        let (_, got) = st.runner.run_collect(&st.trace, 1);
        let got: Vec<Header> = got.iter().filter_map(|(e, p)| header(*e, p)).collect();
        out.attempted += st.trace.len() as u64;
        let bad = multiset_mismatch(want, got);
        out.fail(bad, || {
            format!("{bad} consolidated outputs differ from the model")
        });

        // Both runners deliver the same count on the same trace.
        let native = st.runner.run(&st.trace, 1).transmitted;
        let parallel = RunnerConfig::new()
            .compiled(true)
            .workers(parallel_workers())
            .parallel(&st.cfg)
            .expect("consolidated config instantiates")
            .run(&st.trace, 1)
            .transmitted;
        out.attempted += 1;
        out.fail(u64::from(native != parallel), || {
            format!("native delivered {native}, parallel {parallel}")
        });

        if traced {
            let bad = interp_oracle(&st.cfg, &st.trace[..BURST]);
            out.attempted += BURST as u64;
            out.fail(bad, || {
                format!("{bad} compiled outputs differ from the interpreter")
            });
        }
    }
}

/// Runs `pkts` through the compiled plan and the interpreted `Router`
/// (the reference engine) and counts outputs that differ, egress and
/// bytes, in order.
fn interp_oracle(cfg: &ClickConfig, pkts: &[Packet]) -> u64 {
    let mut compiled = compile(cfg);
    let mut interp = Router::from_config(cfg, &Registry::standard()).expect("config instantiates");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (i, chunk) in pkts.chunks(BATCH).enumerate() {
        let now = i as u64 * BATCH as u64 * STEP_NS;
        compiled.push_batch(chunk.to_vec(), now, STEP_NS);
        compiled.take_tx_into(&mut a);
        interp.push_batch(chunk.to_vec(), now, STEP_NS);
        interp.take_tx_into(&mut b);
    }
    let same = a
        .iter()
        .zip(&b)
        .filter(|((ea, pa), (eb, pb))| ea == eb && pa.bytes() == pb.bytes())
        .count();
    (a.len().max(b.len()) - same) as u64
}

// ---------------------------------------------------------------------------
// dp-nat-churn
// ---------------------------------------------------------------------------

struct Conn {
    key: FlowKey,
    port: u16,
    opened: bool,
}

/// Bidirectional NAT traffic with connection churn: new connections keep
/// opening (and replacing live ones), replies follow their openers, and
/// one packet in fifty is an unsolicited inbound packet the NAT must
/// drop. Frames follow a fixed 7:4:1 mix of 64, 576 and 1500 bytes.
///
/// Each connection's external port is its preferred port, kept unique
/// among the connections of one runner lifetime, so the expected
/// translation of every packet is known in advance.
pub struct Churn {
    rng: Rng,
    active: Vec<Conn>,
    used: HashSet<u16>,
    next_host: u32,
}

impl Churn {
    pub fn new(seed: u64) -> Churn {
        Churn {
            rng: Rng::new(seed ^ 0x6e61_7400),
            active: Vec::new(),
            used: HashSet::new(),
            next_host: 0,
        }
    }

    /// Forgets every mapping: the next runner starts with an empty table.
    fn reset(&mut self) {
        self.used.clear();
        self.active.clear();
        for _ in 0..ACTIVE {
            let c = self.fresh();
            self.active.push(c);
        }
    }

    fn fresh(&mut self) -> Conn {
        loop {
            self.next_host = self.next_host.wrapping_add(1);
            let key = FlowKey {
                src: Ipv4Addr::from(0x0a00_0000 | (self.next_host & 0x00ff_ffff)),
                dst: Ipv4Addr::new(192, 0, 2, 1 + self.rng.below(250) as u8),
                proto: IpProto::Udp,
                src_port: 1024 + self.rng.below(60_000) as u16,
                dst_port: [53u16, 123, 443, 4500][self.rng.below(4) as usize],
            };
            let port = IpNat::preferred_port(&key);
            if self.used.insert(port) {
                return Conn {
                    key,
                    port,
                    opened: false,
                };
            }
        }
    }

    fn frame(&mut self) -> usize {
        match self.rng.below(12) {
            0..=6 => 64,
            7..=10 => 576,
            _ => 1500,
        }
    }

    /// The next `n` packets and the headers the NAT must emit for them.
    fn burst(&mut self, n: usize) -> (Vec<Packet>, Vec<Header>) {
        let mut pkts = Vec::with_capacity(n);
        let mut want = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.frame();
            if self.rng.chance(1, 50) {
                // Unsolicited: a port no live mapping owns.
                let port = loop {
                    let p = 1024 + self.rng.below(64_512) as u16;
                    if !self.used.contains(&p) {
                        break p;
                    }
                };
                let mut p = PacketBuilder::udp()
                    .src(Ipv4Addr::new(192, 0, 2, 251), 53)
                    .dst(PUBLIC, port)
                    .pad_to(len)
                    .build();
                p.meta.ingress = 1;
                pkts.push(p);
                continue;
            }
            let i = self.rng.below(ACTIVE as u64) as usize;
            if self.rng.chance(1, 32) {
                self.active[i] = self.fresh();
            }
            let outbound = !self.active[i].opened || self.rng.chance(1, 2);
            let c = &mut self.active[i];
            let k = c.key;
            if outbound {
                c.opened = true;
                pkts.push(
                    PacketBuilder::udp()
                        .src(k.src, k.src_port)
                        .dst(k.dst, k.dst_port)
                        .pad_to(len)
                        .build(),
                );
                want.push((1, PUBLIC, c.port, k.dst, k.dst_port));
            } else {
                let mut p = PacketBuilder::udp()
                    .src(k.dst, k.dst_port)
                    .dst(PUBLIC, c.port)
                    .pad_to(len)
                    .build();
                p.meta.ingress = 1;
                pkts.push(p);
                want.push((0, k.dst, k.dst_port, k.src, k.src_port));
            }
        }
        (pkts, want)
    }
}

pub struct NatChurn;

pub struct NatChurnState {
    churn: Churn,
    cfg: ClickConfig,
    workers: usize,
}

impl NatChurnState {
    fn parallel(&self) -> innet::platform::ParallelRunner {
        RunnerConfig::new()
            .compiled(true)
            .workers(self.workers)
            .parallel(&self.cfg)
            .expect("NAT gateway instantiates")
    }
}

impl Workload for NatChurn {
    const NAME: &'static str = "dp-nat-churn";
    type State = NatChurnState;

    fn named(out: &mut RunOut) {
        name_mpps(out);
    }

    fn setup(seed: u64) -> NatChurnState {
        let mut churn = Churn::new(seed);
        churn.reset();
        let st = NatChurnState {
            churn,
            cfg: nat_gateway_config(PUBLIC),
            workers: parallel_workers(),
        };
        black_box(st.parallel());
        st
    }

    fn measure(st: &mut NatChurnState, budget: Duration, out: &mut RunOut) {
        let start = Instant::now();
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let mut lat_us = Vec::with_capacity(BURSTS_PER_REP);
            let mut transmitted = 0u64;
            for _ in 0..BURSTS_PER_REP / RUNNER_BURSTS {
                st.churn.reset();
                let mut runner = st.parallel();
                for _ in 0..RUNNER_BURSTS {
                    let (burst, want) = st.churn.burst(NAT_BURST);
                    let t = Instant::now();
                    let stats = runner.run(&burst, 1);
                    lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    transmitted += stats.transmitted;
                    out.attempted += burst.len() as u64;
                    let diff = stats.transmitted.abs_diff(want.len() as u64);
                    out.fail(diff, || {
                        format!(
                            "burst transmitted {} of {} expected",
                            stats.transmitted,
                            want.len()
                        )
                    });
                }
            }
            close_rep(out, lat_us, transmitted);
        }
    }

    fn trace(st: &mut NatChurnState, budget: Duration, out: &mut RunOut) -> (Vec<Metric>, f64) {
        let workers = st.workers;
        let (mut copy, mut plan, mut floor, mut hash, mut overhead) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut pool = PacketPool::new();
        let start = Instant::now();
        let packets = (BURSTS_PER_REP * NAT_BURST) as f64;
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let mut lat_us = Vec::with_capacity(BURSTS_PER_REP);
            let mut transmitted = 0u64;
            let (mut native_ns, mut hash_ns) = (0u64, 0u64);
            let (mut s, mut f) = (Spans::default(), Spans::default());
            for _ in 0..BURSTS_PER_REP / RUNNER_BURSTS {
                st.churn.reset();
                let bursts: Vec<(Vec<Packet>, Vec<Header>)> = (0..RUNNER_BURSTS)
                    .map(|_| st.churn.burst(NAT_BURST))
                    .collect();

                // The end-to-end path, untouched: the parallel runner.
                let mut runner = st.parallel();
                for (burst, want) in &bursts {
                    let t = Instant::now();
                    let stats = runner.run(burst, 1);
                    lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    transmitted += stats.transmitted;
                    out.attempted += burst.len() as u64;
                    out.fail(stats.transmitted.abs_diff(want.len() as u64), || {
                        "traced burst transmitted the wrong count".to_string()
                    });
                }

                // The same bursts on the single-threaded runner and engine.
                let mut native = RunnerConfig::new()
                    .compiled(true)
                    .native(&st.cfg)
                    .expect("NAT gateway instantiates");
                let t = Instant::now();
                for (burst, _) in &bursts {
                    black_box(native.run(burst, 1));
                }
                native_ns += t.elapsed().as_nanos() as u64;

                // The dispatcher's per-packet work: symmetric flow hash + clone.
                let t = Instant::now();
                for (burst, _) in &bursts {
                    for p in burst {
                        black_box(FlowKey::symmetric_shard_of(black_box(p), workers));
                        black_box(p.clone());
                    }
                }
                hash_ns += t.elapsed().as_nanos() as u64;

                // Copy and plan on a fresh compiled NAT, and the same bursts
                // forwarded plainly between the two interfaces.
                let mut router = compile(&st.cfg);
                let mut bare = compile(&bare_gateway_config());
                for (burst, _) in &bursts {
                    instrumented(&mut router, &mut pool, burst, &mut s);
                    instrumented(&mut bare, &mut pool, burst, &mut f);
                }
            }
            let parallel_ns = lat_us.iter().sum::<f64>() * 1e3 / packets;
            close_rep(out, lat_us, transmitted);
            overhead.push(parallel_ns - native_ns as f64 / packets);
            hash.push(hash_ns as f64 / packets);
            copy.push(s.per_pkt(s.copy_ns));
            plan.push(s.per_pkt(s.plan_ns));
            floor.push(f.per_pkt(f.plan_ns));
        }
        let logic: Vec<f64> = plan.iter().zip(&floor).map(|(p, f)| p - f).collect();
        let compile_ms = time_ms(21, || {
            black_box(compile(black_box(&st.cfg)));
        });

        // One run call on a single packet: worker spawn and join.
        let mut runner = st.parallel();
        let (one, _) = st.churn.burst(1);
        let run_call_us = time_ms(201, || {
            black_box(runner.run(&one, 1));
        }) * 1e3;

        let layer_sum =
            spread(&hash).median + spread(&plan).median + run_call_us * 1e3 / NAT_BURST as f64;
        (
            vec![
                Metric::new("packet.copy_ns", "ns", copy),
                Metric::new("click.plan_ns", "ns", plan),
                Metric::new("click.io_floor_ns", "ns", floor),
                Metric::new("click.logic_ns", "ns", logic),
                Metric::one("click.compile_ms", "ms", compile_ms),
                Metric::new("platform.shard_hash_ns", "ns", hash),
                Metric::new("platform.parallel_overhead_ns", "ns", overhead),
                Metric::one("platform.run_call_us", "us", run_call_us),
            ],
            layer_sum,
        )
    }

    fn check(st: &mut NatChurnState, traced: bool, out: &mut RunOut) {
        // Every translation of a sample, outside the timed loop: outbound
        // rewritten to the public address and mapped port on interface 1,
        // replies rewritten back on interface 0, unsolicited dropped.
        st.churn.reset();
        let mut runner = st.parallel();
        for _ in 0..4 {
            let (burst, want) = st.churn.burst(NAT_BURST);
            let (_, got) = runner.run_collect(&burst, 1);
            let got: Vec<Header> = got.iter().filter_map(|(e, p)| header(*e, p)).collect();
            out.attempted += burst.len() as u64;
            let bad = multiset_mismatch(want, got);
            out.fail(bad, || format!("{bad} NAT outputs differ from the model"));
        }
        if traced {
            st.churn.reset();
            let (burst, _) = st.churn.burst(NAT_BURST);
            let bad = interp_oracle(&st.cfg, &burst);
            out.attempted += NAT_BURST as u64;
            out.fail(bad, || {
                format!("{bad} compiled NAT outputs differ from the interpreter")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_runners_deliver_the_same_count_on_the_consolidated_trace() {
        let trace = consolidated_trace(1);
        let cfg = consolidated_config(&tenant_addrs());
        let native = RunnerConfig::new()
            .compiled(true)
            .native(&cfg)
            .unwrap()
            .run(&trace, 1);
        let parallel = RunnerConfig::new()
            .compiled(true)
            .workers(2)
            .parallel(&cfg)
            .unwrap()
            .run(&trace, 1);
        assert_eq!(native.transmitted, trace.len() as u64);
        assert_eq!(native.transmitted, parallel.transmitted);
    }

    #[test]
    fn churn_model_matches_the_nat() {
        let mut churn = Churn::new(3);
        churn.reset();
        let cfg = nat_gateway_config(PUBLIC);
        let mut runner = RunnerConfig::new().compiled(true).native(&cfg).unwrap();
        let (burst, want) = churn.burst(4096);
        assert!(want.len() < burst.len(), "some packets are unsolicited");
        let (_, got) = runner.run_collect(&burst, 1);
        let got: Vec<Header> = got.iter().filter_map(|(e, p)| header(*e, p)).collect();
        assert_eq!(multiset_mismatch(want, got), 0);
    }
}
