//! `fleet-failover`: `FleetDriver` on the generated 1,001-node fleet with
//! `ControllerHooks`, under a gravity traffic matrix: a PoP dies at 1 s,
//! a flash crowd overruns a fabric link's queue, and the controller's
//! consolidation plan is executed by live migration.
//!
//! One rep is one `FleetDriver::run` on a freshly built fleet and traffic
//! matrix (the run consumes both; building them is set-up). Its rate is
//! matrix packets injected over the run's wall time; its latency samples
//! are the wall time of each re-home decision (`RehomeRecord::decision_ns`).
//! Downtimes and losses are modelled (virtual time) and reported as layer
//! figures, apart from wall time.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use innet::click::{ClickConfig, Registry, Router};
use innet::controller::{Controller, ControllerHooks, InstalledModule};
use innet::platform::{
    ClientEntry, DriverRun, Fleet, FleetDriver, Scenario, ScenarioEvent, TrafficMatrix,
    TrafficParams,
};
use innet::topology::{generate_fleet, FleetParams, NodeId, Topology};

use crate::stats::{percentile, spread, tail, Metric, Report, Rng, RunOut};
use crate::Workload;

const SEC: u64 = 1_000_000_000;
const HORIZON: u64 = 3 * SEC;
/// Tenants in the fleet, and how many of them live on the PoP that dies.
/// `plan_fleet` gathers every stateless tenant on one platform without
/// checking its memory; 300 ClickOS VMs fit the smallest generated
/// platform (4 GiB), so no consolidation move overruns its destination.
const TENANTS: usize = 300;
const DOOMED: usize = 120;
const DOOMED_POP: usize = 0;
const CROWD_MULTIPLIER: u32 = 1024;
/// Aggregate matrix load before the flash crowd.
const TOTAL_PPS: u64 = 8_000;
const FRAME: usize = 1500;
/// Fabric queue cap, half a frame's serialization on a 10 Gbit/s link.
/// The simulator cannot pace a crowd that fills such a link, so the cap
/// is tight: once consolidation has moved the tenants to one platform,
/// the crowd's link into it tail-drops whenever two of its packets
/// overlap.
const QUEUE_NS: u64 = 600;
/// Virtual time allowed after the horizon for in-flight work to land.
const DRAIN_NS: u64 = 60 * SEC;

fn tenant_config() -> ClickConfig {
    ClickConfig::parse(
        "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
    )
    .expect("tenant config parses")
}

fn topology(seed: u64) -> Topology {
    generate_fleet(&FleetParams {
        seed,
        ..FleetParams::default()
    })
}

fn traffic_params(seed: u64) -> TrafficParams {
    TrafficParams {
        seed,
        total_pps: TOTAL_PPS,
        frame_len: FRAME,
        ..TrafficParams::default()
    }
}

/// A fleet ready to run: tenants registered (the doomed PoP's platforms
/// first, the rest spread in seeded order) and mirrored as the
/// controller's installed modules.
pub struct Built {
    topo: Topology,
    fleet: Fleet,
    ctl: Controller,
    tenants: Vec<Ipv4Addr>,
    matrix: TrafficMatrix,
    /// The PoP whose demand surges: the heaviest sender at least a
    /// quarter of the ring away from the doomed PoP. Stranded tenants
    /// re-home near the doomed PoP, and consolidation gathers everyone on
    /// the busiest platform, so the crowd crosses the fabric to reach it.
    crowd_pop: usize,
}

fn build(seed: u64) -> Built {
    let topo = topology(seed);
    let mut fleet = Fleet::new(&topo);
    fleet.set_fabric_queue_ns(QUEUE_NS);
    let mut ctl = Controller::new(topo.clone());
    let platforms = fleet.platforms();
    let (doomed, mut others): (Vec<NodeId>, Vec<NodeId>) = platforms
        .iter()
        .partition(|&&p| topo.pop_of(p) == Some(DOOMED_POP));
    let mut rng = Rng::new(seed ^ 0xf1ee7);
    for i in (1..others.len()).rev() {
        others.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let config = tenant_config();
    let mut modules = Vec::with_capacity(TENANTS);
    let mut tenants = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let addr = Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1);
        let home = if i < DOOMED {
            doomed[i % doomed.len()]
        } else {
            others[i % others.len()]
        };
        fleet
            .register(
                home,
                ClientEntry {
                    addr,
                    config: config.clone(),
                    stateful: false,
                },
            )
            .expect("home platform exists");
        modules.push(InstalledModule {
            id: i as u64,
            name: format!("tenant{i}"),
            platform: home,
            addr,
            config: config.clone(),
            sandboxed: false,
            owner: format!("owner{}", i % 7),
        });
        tenants.push(addr);
    }
    ctl.adopt_modules(modules);
    let matrix = TrafficMatrix::gravity(&topo, &tenants, &traffic_params(seed));
    let mut pop_mpps = vec![0u64; FleetParams::default().pops as usize];
    for d in matrix.demands() {
        if let Some(p) = topo.pop_of(d.subnet) {
            pop_mpps[p] += d.milli_pps;
        }
    }
    let pops = pop_mpps.len();
    let ring = |p: usize| p.abs_diff(DOOMED_POP).min(pops - p.abs_diff(DOOMED_POP));
    let crowd_pop = (0..pops)
        .filter(|&p| ring(p) >= pops / 4)
        .max_by_key(|&p| (pop_mpps[p], std::cmp::Reverse(p)))
        .expect("the ring has PoPs a quarter of it away");
    Built {
        topo,
        fleet,
        ctl,
        tenants,
        matrix,
        crowd_pop,
    }
}

fn scenario(crowd_pop: usize) -> Scenario {
    Scenario::new("failover")
        .at(SEC, ScenarioEvent::KillPop { pop: DOOMED_POP })
        .at(SEC + SEC / 5, ScenarioEvent::ExecuteConsolidation)
        .at(
            2 * SEC + SEC / 5,
            ScenarioEvent::FlashCrowd {
                pop: crowd_pop,
                multiplier: CROWD_MULTIPLIER,
            },
        )
}

/// One timed run and its outcome.
struct Rep {
    run: DriverRun,
    wall_ns: u64,
}

fn run(b: Built) -> Rep {
    let t = Instant::now();
    let run = FleetDriver::new(b.fleet)
        .until(HORIZON)
        .traffic(b.matrix)
        .hooks(ControllerHooks::new(&b.ctl))
        .events(scenario(b.crowd_pop))
        .run();
    Rep {
        run,
        wall_ns: t.elapsed().as_nanos() as u64,
    }
}

/// The fleet's books after in-flight work lands: every injected packet
/// reached a switch or was dropped for a named reason.
struct Books {
    unaccounted: i64,
    migrations_unfinished: u64,
    rehomes_failed: u64,
}

#[allow(deprecated)] // `Fleet::advance` remains public for oracles like this one.
fn settle(rep: &mut Rep) -> Books {
    rep.run.fleet.advance(HORIZON + DRAIN_NS);
    let s = rep.run.fleet.stats();
    // What each switch did with a packet, not what it saw: a packet whose
    // VM boot fails is seen by the switch and counted in `host_errors`.
    let sw = rep.run.fleet.aggregate_switch_stats();
    let switched = sw.delivered + sw.buffered + sw.dropped;
    let accounted = switched + s.link_drops + s.dead_drops + s.host_errors;
    Books {
        unaccounted: s.injected as i64 - accounted as i64,
        migrations_unfinished: s.migrations_started - s.migrations_completed,
        rehomes_failed: rep.run.rehomes.iter().filter(|r| r.to.is_none()).count() as u64,
    }
}

/// Checks one rep outside the timed `FleetDriver::run` (conservation,
/// driver errors, re-homes, migrations) and records its figures.
fn record(rep: &mut Rep, out: &mut RunOut) -> Books {
    let books = settle(rep);
    let run = &rep.run;
    out.attempted += run.traffic_injected + run.rehomes.len() as u64;
    out.fail(run.errors, || format!("{} driver errors", run.errors));
    out.fail(books.unaccounted.unsigned_abs(), || {
        format!("{} packets unaccounted for", books.unaccounted)
    });
    out.fail(books.rehomes_failed, || {
        format!("{} tenants found no platform", books.rehomes_failed)
    });
    out.fail(books.migrations_unfinished, || {
        format!("{} migrations never finished", books.migrations_unfinished)
    });
    // The flash crowd is sized to overrun a link's queue cap; a run
    // without tail drops no longer exercises the bounded queues.
    let link_drops = run.fleet.stats().link_drops;
    out.fail(u64::from(link_drops == 0), || {
        "the flash crowd overran no fabric queue (0 link drops)".to_string()
    });
    out.fail(u64::from(run.rehomes.len() != DOOMED), || {
        format!(
            "{} re-homes for {DOOMED} stranded tenants",
            run.rehomes.len()
        )
    });
    out.ops_per_s
        .push(run.traffic_injected as f64 / (rep.wall_ns as f64 / 1e9));
    out.push_latencies(
        run.rehomes
            .iter()
            .map(|r| r.decision_ns as f64 / 1e3)
            .collect(),
    );
    books
}

pub struct Failover;

pub struct FailoverState {
    seed: u64,
    next: Option<Built>,
}

impl FailoverState {
    /// The next fleet: the one built at set-up, then a fresh one per rep
    /// (its build time is set-up time too).
    fn take(&mut self, out: &mut RunOut) -> Built {
        self.next.take().unwrap_or_else(|| {
            let t = Instant::now();
            let b = build(self.seed);
            out.setup_s.push(t.elapsed().as_secs_f64());
            b
        })
    }
}

impl Workload for Failover {
    const NAME: &'static str = "fleet-failover";
    type State = FailoverState;

    fn named(out: &mut RunOut) {
        out.named.push(
            Metric::new("fleet_pkts_per_s", "packets/s", out.ops_per_s.clone())
                .reported(Report::Highest),
        );
        out.named.push(
            Metric::new("rehome_decision_p50_us", "us", out.lat_p50_us.clone())
                .reported(Report::Lowest),
        );
    }

    fn setup(seed: u64) -> FailoverState {
        FailoverState {
            seed,
            next: Some(build(seed)),
        }
    }

    fn measure(st: &mut FailoverState, budget: Duration, out: &mut RunOut) {
        let start = Instant::now();
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let b = st.take(out);
            let mut rep = run(b);
            record(&mut rep, out);
        }
    }

    fn trace(st: &mut FailoverState, budget: Duration, out: &mut RunOut) -> (Vec<Metric>, f64) {
        let start = Instant::now();
        let mut counts: Vec<[f64; 7]> = Vec::new();
        let (mut rehome_tail, mut mig_tail, mut loss) =
            (Tail::default(), Tail::default(), Vec::new());
        let (mut rank_us, mut paths_us, mut gravity_ms, mut interp_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut rehomes_per_pkt = Vec::new();
        while out.ops_per_s.is_empty() || start.elapsed() < budget {
            let b = st.take(out);

            // Layers timed from outside, on this rep's inputs.
            let t = Instant::now();
            let mut m = TrafficMatrix::gravity(&b.topo, &b.tenants, &traffic_params(st.seed));
            let paced = m.pace(HORIZON);
            gravity_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for _ in 0..20 {
                let t = Instant::now();
                black_box(b.ctl.ranked_platforms());
                rank_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            for p in b.fleet.platforms().into_iter().take(20) {
                let t = Instant::now();
                black_box(b.topo.paths_from(p));
                paths_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            interp_ns.push(interp(paced.iter().map(|(_, _, p)| p).take(20_000)));
            drop(paced);

            let mut rep = run(b);
            let books = record(&mut rep, out);
            let run = &rep.run;
            let s = run.fleet.stats();
            counts.push([
                s.fabric_forwards as f64,
                s.link_drops as f64,
                s.reroutes as f64,
                s.dead_drops as f64,
                s.migrations_completed as f64,
                s.rehomes as f64,
                books.unaccounted as f64,
            ]);
            rehome_tail.push(
                run.rehomes
                    .iter()
                    .map(|r| r.downtime_ns as f64 / 1e6)
                    .collect(),
            );
            mig_tail.push(
                run.fleet
                    .migrations()
                    .iter()
                    .map(|m| m.downtime_ns as f64 / 1e6)
                    .collect(),
            );
            loss.push((s.link_drops + s.dead_drops) as f64 / s.injected.max(1) as f64);
            rehomes_per_pkt.push(run.rehomes.len() as f64 / run.traffic_injected.max(1) as f64);
        }
        let driver_ns: Vec<f64> = out.ops_per_s.iter().map(|r| 1e9 / r).collect();
        let col = |i: usize| counts.iter().map(|c| c[i]).collect::<Vec<f64>>();
        let rank_med = spread(&rank_us).median;
        let layer_sum_ns =
            spread(&interp_ns).median + rank_med * 1e3 * spread(&rehomes_per_pkt).median;
        let mut paths_sorted = paths_us.clone();
        paths_sorted.sort_by(f64::total_cmp);
        let mut layers = vec![
            Metric::new("click.interp_ns", "ns", interp_ns),
            Metric::new("platform.driver_ns_per_pkt", "ns", driver_ns),
            Metric::one("controller.rank_us", "us", rank_med),
            Metric::one(
                "topology.paths_from_us",
                "us",
                percentile(&paths_sorted, 0.5),
            ),
            Metric::new("traffic.gravity_ms", "ms", gravity_ms),
            Metric::new("fleet.fabric_forwards", "count", col(0)),
            Metric::new("fleet.link_drops", "count", col(1)),
            Metric::new("fleet.reroutes", "count", col(2)),
            Metric::new("fleet.dead_drops", "count", col(3)),
            Metric::new("fleet.migrations", "count", col(4)),
            Metric::new("fleet.rehomes", "count", col(5)),
            Metric::new("fleet.unaccounted", "count", col(6)),
            Metric::new("fleet.loss_frac", "share", loss),
        ];
        layers.extend(rehome_tail.metrics("fleet.rehome_downtime_tail"));
        layers.extend(mig_tail.metrics("fleet.migration_downtime_tail"));
        (layers, layer_sum_ns)
    }
}

/// Per-rep tails of a virtual downtime (ms), with the percentile each
/// used and the samples beyond it.
#[derive(Default)]
struct Tail {
    ms: Vec<f64>,
    pct: Vec<f64>,
    beyond: Vec<f64>,
}

impl Tail {
    fn push(&mut self, mut samples: Vec<f64>) {
        samples.sort_by(f64::total_cmp);
        let (p, v, beyond) = tail(&samples);
        self.ms.push(v);
        self.pct.push(p * 100.0);
        self.beyond.push(beyond as f64);
    }

    fn metrics(self, name: &str) -> [Metric; 3] {
        [
            Metric::new(format!("{name}_ms"), "ms", self.ms),
            Metric::new(format!("{name}_pct"), "percentile", self.pct),
            Metric::new(format!("{name}_beyond"), "count", self.beyond),
        ]
    }
}

/// ns/packet of the interpreted `Router` (what every fleet host runs) on
/// the tenant config, one `deliver` + `take_tx` per packet as a host
/// delivers them.
fn interp<'a>(pkts: impl Iterator<Item = &'a innet::packet::Packet>) -> f64 {
    let mut router = Router::from_config(&tenant_config(), &Registry::standard())
        .expect("tenant config instantiates");
    let pkts: Vec<innet::packet::Packet> = pkts.cloned().collect();
    let n = pkts.len().max(1) as f64;
    let t = Instant::now();
    for (i, p) in pkts.into_iter().enumerate() {
        let _ = router.deliver(0, p, i as u64 * 1_000);
        black_box(router.take_tx());
    }
    t.elapsed().as_nanos() as f64 / n
}
