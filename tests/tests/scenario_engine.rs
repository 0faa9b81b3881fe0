//! Integration tests for the fleet scenario engine.
//!
//! Five contracts:
//!
//! 1. **Bandwidth is priced, not just latency.** Property: for every
//!    fabric link, the bytes accepted onto it always fit its
//!    `bandwidth_bps` over the link's busy window, the busy window never
//!    extends past the last offer plus the bounded queue, and every
//!    offered packet is accounted as either accepted or tail-dropped.
//! 2. **The driver adds scheduling, not semantics.** A zero-event
//!    scenario run is byte- and order-identical to plain injection,
//!    one packet per single-item driver run. (The hand-rolled
//!    inject/advance loop itself is crate-private; the platform crate
//!    pins the driver against it in
//!    `driver::tests::driver_matches_manual_inject_advance_loop`.)
//! 3. **Regional failover completes at fleet scale.** Killing a PoP on
//!    the full 1,001-node generated fleet re-homes *every* affected
//!    tenant, each with a recorded per-tenant downtime.
//! 4. **Consolidation executes.** An `ExecuteConsolidation` event backed
//!    by the controller's `plan_fleet` performs the moves on the data
//!    plane via live migration — locations actually change.
//! 5. **Demand breaks placement ties.** With equal VM counts per
//!    platform, an attached traffic-demand map still triggers a
//!    rebalance off the hot platform; without demand the count-based
//!    fallback correctly sees balance and does nothing.

use std::net::Ipv4Addr;

use innet::controller::InstalledModule;
use innet::platform::{RehomeRecord, ScenarioHooks as _};
use innet::prelude::*;
use innet::sim::des::SECOND;
use innet::topology::{generate_fleet, FleetParams, NodeId};
use proptest::prelude::*;

const SEC: u64 = 1_000_000_000;
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

fn udp_to(addr: Ipv4Addr, seq: u16, len: usize) -> Packet {
    PacketBuilder::udp()
        .src(Ipv4Addr::new(8, 8, 8, 8), seq)
        .dst(addr, 1500)
        .pad_to(len)
        .build()
}

fn two_pop_fleet() -> Fleet {
    Fleet::new(&generate_fleet(&FleetParams {
        pops: 2,
        platforms_per_pop: 1,
        clients_per_pop: 1,
        seed: 3,
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn link_bandwidth_is_never_exceeded(
        frames in 8usize..96,
        frame_len in 64usize..1400,
        gap_ns in 0u64..200_000u64,
        cap_ns in 0u64..2_000_000u64,
    ) {
        let mut fleet = two_pop_fleet();
        let platforms = fleet.platforms();
        let (ingress, home) = (platforms[0], platforms[1]);
        fleet.register(home, filter_entry(TENANT, false)).unwrap();
        fleet.set_fabric_queue_ns(cap_ns);

        // Every packet enters at the remote platform, so each one is
        // offered to the ingress -> home fabric link.
        let last_offer = gap_ns * (frames as u64 - 1);
        let mut driver = FleetDriver::new(fleet).until(last_offer + 10 * SEC);
        for i in 0..frames {
            driver = driver.inject_at(
                gap_ns * i as u64,
                ingress,
                udp_to(TENANT, i as u16 + 1, frame_len),
            );
        }
        let run = driver.run();

        let reports = run.fleet.link_report();
        let accepted: u64 = reports.iter().map(|r| r.usage.packets).sum();
        let dropped: u64 = reports.iter().map(|r| r.usage.drops).sum();
        // Offered == accepted + dropped: nothing vanishes unaccounted.
        prop_assert_eq!(accepted + dropped, frames as u64);
        prop_assert_eq!(run.stats.fabric_forwards, accepted);
        prop_assert_eq!(run.stats.link_drops, dropped);

        for r in &reports {
            // Accepted bytes must serialize within the link's busy
            // window: bytes * 8 <= bandwidth * busy_window. One
            // nanosecond of rounding slack per accepted packet (the
            // per-packet serialization delay truncates).
            let lhs = r.usage.bytes as u128 * 8 * SECOND as u128;
            let rhs = r.bandwidth_bps as u128
                * (r.busy_until_ns as u128 + r.usage.packets as u128);
            prop_assert!(
                lhs <= rhs,
                "link {}->{} carried {} bytes in a {} ns busy window at {} bps",
                r.from, r.to, r.usage.bytes, r.busy_until_ns, r.bandwidth_bps
            );
            // The busy window is bounded by the queue cap: an accepted
            // packet never waits longer than cap_ns, so the queue can
            // never run away past the last offer.
            let ser_max = (frame_len as u128 * 8 * SECOND as u128)
                .div_ceil(r.bandwidth_bps as u128) as u64;
            prop_assert!(
                r.busy_until_ns <= last_offer + cap_ns + ser_max + 2,
                "link {}->{} busy until {} ns, last offer {} ns, cap {} ns",
                r.from, r.to, r.busy_until_ns, last_offer, cap_ns
            );
            // Dropped bytes mirror dropped packets exactly.
            prop_assert_eq!(r.usage.dropped_bytes, r.usage.drops * frame_len as u64);
        }
    }
}

#[test]
fn saturated_link_tail_drops_and_accounts() {
    let mut fleet = two_pop_fleet();
    let platforms = fleet.platforms();
    let (ingress, home) = (platforms[0], platforms[1]);
    fleet.register(home, filter_entry(TENANT, false)).unwrap();
    // Zero queue budget: any packet offered while the link serializes an
    // earlier one is refused at the queue, not silently absorbed.
    fleet.set_fabric_queue_ns(0);
    let mut driver = FleetDriver::new(fleet).until(5 * SEC);
    for i in 0..32u16 {
        driver = driver.inject_at(0, ingress, udp_to(TENANT, i + 1, 1400));
    }
    let run = driver.run();
    assert!(run.stats.link_drops > 0, "burst at zero cap must drop");
    let reports = run.fleet.link_report();
    assert_eq!(
        reports
            .iter()
            .map(|r| r.usage.packets + r.usage.drops)
            .sum::<u64>(),
        32
    );
    assert!(reports.iter().any(|r| r.usage.dropped_bytes > 0));
}

#[test]
fn zero_event_scenario_is_identical_to_plain_injection() {
    // Mixed home-delivery and fabric-ingress schedule, driven once
    // through a FleetDriver carrying an (empty) scenario and once as
    // plain injection: one driver run per packet, each holding only that
    // packet and ending at its instant (an inject followed by an advance
    // to the same instant), then a final drain. Byte- and order-identical.
    let build = || {
        let mut f = two_pop_fleet();
        let ps = f.platforms();
        f.register(ps[0], filter_entry(TENANT, true)).unwrap();
        (f, ps)
    };
    let (plain_fleet, ps) = build();
    let (driven_fleet, _) = build();
    let remote = ps[1];
    let schedule: Vec<(u64, Option<NodeId>, Packet)> = (0..10u64)
        .map(|i| {
            let ingress = if i % 3 == 2 { Some(remote) } else { None };
            (i * 120_000_000, ingress, udp_to(TENANT, i as u16 + 1, 64))
        })
        .collect();

    let mut plain = plain_fleet;
    let mut plain_out = Vec::new();
    for (at, ingress, pkt) in &schedule {
        let step = FleetDriver::new(plain).until(*at);
        let step = match ingress {
            None => step.inject(*at, pkt.clone()),
            Some(node) => step.inject_at(*at, *node, pkt.clone()),
        };
        let run = step.run();
        assert_eq!(run.errors, 0);
        plain_out.extend(run.out);
        plain = run.fleet;
    }
    plain_out.extend(plain.advance(4 * SEC));

    let mut driver = FleetDriver::new(driven_fleet)
        .until(4 * SEC)
        .events(Scenario::new("noop"));
    for (at, ingress, pkt) in schedule {
        driver = match ingress {
            None => driver.inject(at, pkt),
            Some(node) => driver.inject_at(at, node, pkt),
        };
    }
    let run = driver.run();

    assert!(!plain_out.is_empty(), "the schedule produces output");
    assert_eq!(run.out, plain_out, "byte- and order-identical");
    assert_eq!(run.stats, plain.stats(), "stats-identical");
    assert!(run.rehomes.is_empty() && run.consolidation_moves.is_empty());
}

#[test]
fn kill_pop_on_the_thousand_node_fleet_rehomes_every_affected_tenant() {
    let topo = generate_fleet(&FleetParams::default());
    assert_eq!(topo.nodes.len(), 1_001, "the paper-scale fleet");
    let mut fleet = Fleet::new(&topo);
    let platforms = fleet.platforms();
    let doomed: Vec<NodeId> = platforms
        .iter()
        .copied()
        .filter(|&p| topo.pop_of(p) == Some(0))
        .collect();
    let safe: Vec<NodeId> = platforms
        .iter()
        .copied()
        .filter(|&p| topo.pop_of(p) != Some(0))
        .collect();
    // Half the tenants homed inside the doomed PoP, half elsewhere.
    let mut affected = Vec::new();
    for i in 0..40usize {
        let addr = Ipv4Addr::new(198, 18, 0, i as u8 + 1);
        let home = if i % 2 == 0 {
            affected.push(addr);
            doomed[i % doomed.len()]
        } else {
            safe[i % safe.len()]
        };
        fleet.register(home, filter_entry(addr, true)).unwrap();
    }

    let run = FleetDriver::new(fleet)
        .until(3 * SEC)
        .events(Scenario::new("kill-pop0").at(SEC, ScenarioEvent::KillPop { pop: 0 }))
        .run();

    assert_eq!(
        run.rehomes.len(),
        affected.len(),
        "one failover record per affected tenant"
    );
    for rec in &run.rehomes {
        let RehomeRecord {
            addr,
            to,
            downtime_ns,
            ..
        } = *rec;
        let to = to.expect("an alive platform had room");
        assert!(run.fleet.is_alive(to));
        assert!(topo.pop_of(to) != Some(0), "landed outside the dead PoP");
        assert_eq!(run.fleet.location(addr), Some(to));
        assert!(downtime_ns >= 50_000_000, "detection delay is the floor");
        assert!(affected.contains(&addr));
    }
    assert_eq!(run.stats.rehomes, affected.len() as u64);
    // Unaffected tenants stayed put.
    for i in (1..40usize).step_by(2) {
        let addr = Ipv4Addr::new(198, 18, 0, i as u8 + 1);
        assert_eq!(run.fleet.location(addr), Some(safe[i % safe.len()]));
    }
}

#[test]
fn consolidation_event_executes_plan_fleet_moves_on_the_data_plane() {
    let topo = generate_fleet(&FleetParams {
        pops: 3,
        platforms_per_pop: 1,
        clients_per_pop: 1,
        seed: 5,
    });
    let mut fleet = Fleet::new(&topo);
    let mut ctl = Controller::new(topo.clone());
    let platforms = fleet.platforms();
    let config = ClickConfig::parse("FromNetfront() -> Counter() -> ToNetfront();").unwrap();
    let mut modules = Vec::new();
    // 2 stateless tenants on platform 0, one on each of the others.
    let spec = [(0usize, 2u8), (1, 1), (2, 1)];
    let mut addrs = Vec::new();
    for &(p, n) in &spec {
        for j in 0..n {
            let addr = Ipv4Addr::new(198, 18, p as u8, j + 1);
            fleet
                .register(
                    platforms[p],
                    ClientEntry {
                        addr,
                        config: config.clone(),
                        stateful: false,
                    },
                )
                .unwrap();
            modules.push(InstalledModule {
                id: (p * 8 + j as usize) as u64,
                name: format!("m{p}-{j}"),
                platform: platforms[p],
                addr,
                config: config.clone(),
                sandboxed: false,
                owner: "o".into(),
            });
            addrs.push(addr);
        }
    }
    ctl.adopt_modules(modules);
    let planned = ControllerHooks::new(&ctl).plan_consolidation(&fleet);
    assert_eq!(planned.len(), 2, "the two off-home tenants move");

    let run = FleetDriver::new(fleet)
        .until(90 * SEC)
        .hooks(ControllerHooks::new(&ctl))
        .events(Scenario::new("consolidate").at(SEC, ScenarioEvent::ExecuteConsolidation))
        .run();

    assert_eq!(
        run.consolidation_moves.len(),
        2,
        "moves executed, not planned"
    );
    let homes: std::collections::BTreeSet<NodeId> = addrs
        .iter()
        .map(|&a| run.fleet.location(a).unwrap())
        .collect();
    assert_eq!(homes.len(), 1, "all stateless tenants share one platform");
    assert_eq!(homes.iter().next(), Some(&platforms[0]), "fewest moves win");
}

#[test]
fn demand_breaks_rebalance_ties_that_vm_counts_cannot_see() {
    // Equal VM counts on both platforms; all the demand on platform 0.
    let seed = |demand: bool| {
        let mut fleet = two_pop_fleet();
        let ps = fleet.platforms();
        let addrs: [Ipv4Addr; 4] = std::array::from_fn(|i| Ipv4Addr::new(198, 18, 9, i as u8 + 1));
        for (i, &addr) in addrs.iter().enumerate() {
            fleet
                .register(ps[i % 2], filter_entry(addr, false))
                .unwrap();
        }
        if demand {
            // Tenants on ps[0] (indices 0 and 2) carry all the load.
            fleet.attach_demand(
                [
                    (addrs[0], 4_000u64),
                    (addrs[2], 3_000u64),
                    (addrs[1], 100u64),
                    (addrs[3], 100u64),
                ]
                .into_iter()
                .collect(),
            );
        }
        fleet
    };

    let hot = FleetDriver::new(seed(true))
        .until(90 * SEC)
        .rebalance_every(SEC, 2)
        .run();
    assert!(
        !hot.rebalance_moves.is_empty(),
        "demand-aware rebalance moves load off the hot platform"
    );
    let ps = hot.fleet.platforms();
    for &(_, from, to) in &hot.rebalance_moves {
        assert_eq!(from, ps[0], "moves leave the hot platform");
        assert_eq!(to, ps[1]);
    }

    let balanced = FleetDriver::new(seed(false))
        .until(90 * SEC)
        .rebalance_every(SEC, 2)
        .run();
    assert!(
        balanced.rebalance_moves.is_empty(),
        "count-based fallback sees equal VM counts and stays put"
    );
}

#[test]
fn cdn_tier_event_serves_from_the_nearest_alive_copy() {
    let topo = generate_fleet(&FleetParams {
        pops: 3,
        platforms_per_pop: 1,
        clients_per_pop: 1,
        seed: 5,
    });
    let fleet = {
        let mut f = Fleet::new(&topo);
        let ps = f.platforms();
        f.register(ps[0], filter_entry(TENANT, false)).unwrap();
        f
    };
    let ps = fleet.platforms();
    let run = FleetDriver::new(fleet)
        .until(4 * SEC)
        .events(Scenario::new("cdn").at(
            0,
            ScenarioEvent::CdnTier {
                origin: TENANT,
                edges: vec![ps[1], ps[2]],
            },
        ))
        .inject_at(SEC, ps[1], udp_to(TENANT, 1, 64))
        .inject_at(2 * SEC, ps[2], udp_to(TENANT, 2, 64))
        .run();
    assert_eq!(run.cdn_edges, 2);
    assert_eq!(
        run.stats.fabric_forwards, 0,
        "edge ingress is served by the local replica"
    );
    assert!(run.fleet.host(ps[1]).unwrap().live_vms() > 0);
    assert!(run.fleet.host(ps[2]).unwrap().live_vms() > 0);

    // The origin platform dying must not take the replicas with it: a
    // later edge packet is still served locally. Runs chain by handing
    // the fleet from one driver to the next.
    let pop0 = topo.pop_of(ps[0]).unwrap();
    let run2 = FleetDriver::new(run.fleet)
        .until(8 * SEC)
        .events(Scenario::new("kill-origin").at(5 * SEC, ScenarioEvent::KillPop { pop: pop0 }))
        .inject_at(6 * SEC, ps[1], udp_to(TENANT, 3, 64))
        .run();
    assert_eq!(run2.stats.fabric_forwards, 0, "replica survives the origin");
}
