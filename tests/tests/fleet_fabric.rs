//! Integration tests for the fleet fabric.
//!
//! Four contracts:
//!
//! 1. **The 1-host fleet is the oracle.** Driving the consolidated
//!    multi-tenant corpus through a [`Fleet::single_host`] and through a
//!    bare [`Host`] + [`SwitchController`] must produce byte- and
//!    order-identical output and identical switch statistics — the fleet
//!    layer adds platforms, not semantics.
//! 2. **Migration is invisible to the flow.** A flow that spans a live
//!    migration (including a packet injected inside the suspend window)
//!    is delivered byte- and order-identical to a no-migration run, and
//!    the same byte sequence the flow-sharded data plane produces at
//!    1, 2, and 4 workers.
//! 3. **Cached placements don't go stale.** Filling a platform between
//!    two canonically-identical deploys re-places the second deploy on
//!    the next-ranked platform *as a cache hit* (regression for the
//!    race where the memoized platform filled up after verification).
//! 4. **Placement rejections are observable per reason** via
//!    `innet_ctl_placement_reject_total{reason}`, and the registry agrees
//!    with `stats()` after a batch deploy.

use std::net::Ipv4Addr;

use innet::controller::InstalledModule;
use innet::platform::consolidated_config;
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams, NodeKind, PlatformSpec};

const SEC: u64 = 1_000_000_000;

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

/// One packet of *one* flow (fixed 5-tuple — packets distinguished by
/// length only), so every worker count shards it to a single replica and
/// whole-sequence order comparison is meaningful.
fn flow_packet(addr: Ipv4Addr, i: usize) -> Packet {
    udp_to(addr, 40_000, 64 + i * 16)
}

/// The two-platform WAN the migration tests run over.
fn two_pop_topology() -> Topology {
    generate_fleet(&FleetParams {
        pops: 2,
        platforms_per_pop: 1,
        clients_per_pop: 1,
        seed: 3,
    })
}

#[test]
fn one_host_fleet_matches_the_host_path_on_the_consolidated_corpus() {
    let tenants: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
    let shared = consolidated_config(&tenants);

    let mut fleet = Fleet::single_host(16 * 1024);
    let platform = fleet.platforms()[0];
    let mut host = Host::new(16 * 1024);
    let mut sw = SwitchController::new();
    for &addr in &tenants {
        let entry = ClientEntry {
            addr,
            config: shared.clone(),
            stateful: false,
        };
        fleet.register(platform, entry.clone()).unwrap();
        sw.register(entry);
    }

    // Multi-flow corpus: traffic round-robined across the consolidated
    // tenants, a stranger flow nobody registered, varied payload sizes.
    let stranger = Ipv4Addr::new(9, 9, 9, 9);
    let schedule: Vec<(u64, Packet)> = (0..24u64)
        .map(|i| {
            let dst = if i % 5 == 4 {
                stranger
            } else {
                tenants[(i % 3) as usize]
            };
            let at = i * 10_000_000;
            (at, udp_to(dst, i as u16 + 1, 64 + (i as usize % 7) * 16))
        })
        .collect();

    // The fleet side rides the FleetDriver timeline (which pins the
    // inject-then-advance order); the bare host is the hand-rolled
    // oracle it must match step for step.
    let mut driver = FleetDriver::new(fleet).until(2 * SEC);
    let mut host_out = Vec::new();
    for (at, pkt) in schedule {
        driver = driver.inject(at, pkt.clone());
        host_out.extend(sw.on_packet(&mut host, pkt, at).unwrap());
        host_out.extend(host.advance(at).into_iter().map(|(_, iface, p)| (iface, p)));
    }
    host_out.extend(
        host.advance(2 * SEC)
            .into_iter()
            .map(|(_, iface, p)| (iface, p)),
    );
    let run = driver.run();
    let fleet_out: Vec<(u16, Packet)> = run
        .out
        .into_iter()
        .map(|(_, iface, p)| (iface, p))
        .collect();

    assert!(!fleet_out.is_empty(), "the corpus produces output");
    assert_eq!(fleet_out, host_out, "byte- and order-identical");
    assert_eq!(
        run.fleet.switch(platform).unwrap().stats(),
        sw.stats(),
        "stats-identical"
    );
    assert_eq!(run.stats.fabric_forwards, 0, "one host, no fabric");
}

/// Runs the migration-spanning flow schedule through a two-platform
/// fleet, optionally migrating the tenant mid-flow, and returns the
/// delivered `(iface, bytes)` sequence.
fn fleet_flow_run(migrate: bool) -> (Vec<(u16, Vec<u8>)>, u64) {
    const TENANT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
    let topo = two_pop_topology();
    let mut fleet = Fleet::new(&topo);
    let platforms = fleet.platforms();
    let (a, b) = (platforms[0], platforms[1]);
    fleet.register(a, filter_entry(TENANT, true)).unwrap();

    let migrate_at = 1_250_000_000u64;
    // Packet 4 lands 1 ms into the suspend window: in the migration run
    // it is buffered at the fleet layer and flushed after the resume.
    let times = [
        0,
        500_000_000,
        1_000_000_000,
        migrate_at + 1_000_000,
        1_500_000_000,
        2_000_000_000,
        2_500_000_000,
        3_000_000_000,
    ];
    let mut driver = FleetDriver::new(fleet).until(200 * SEC);
    if migrate {
        driver = driver.migrate(migrate_at, TENANT, b);
    }
    for (i, &at) in times.iter().enumerate() {
        driver = driver.inject(at, flow_packet(TENANT, i));
    }
    let run = driver.run();
    assert_eq!(run.errors, 0);
    let out: Vec<(u16, Vec<u8>)> = run
        .out
        .into_iter()
        .map(|(_, iface, p)| (iface, p.bytes().to_vec()))
        .collect();
    if migrate {
        assert_eq!(run.fleet.location(TENANT), Some(b), "tenant moved");
        assert_eq!(run.fleet.migrations().len(), 1, "exactly one migration");
        assert!(
            run.stats.migration_buffered > 0,
            "the mid-window packet was buffered"
        );
    }
    (out, run.stats.migration_buffered)
}

#[test]
fn flow_spanning_live_migration_is_delivered_identically_at_1_2_4_workers() {
    let (baseline, _) = fleet_flow_run(false);
    let (migrated, buffered) = fleet_flow_run(true);
    assert!(buffered > 0);
    assert_eq!(
        baseline, migrated,
        "migration must be invisible to the flow's bytes and order"
    );

    // The same flow through the flow-sharded data plane produces the
    // same byte sequence at every worker count: migration composes with
    // sharded execution because both preserve per-flow FIFO order.
    const TENANT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
    let cfg = filter_entry(TENANT, true).config;
    let trace: Vec<Packet> = (0..8).map(|i| flow_packet(TENANT, i)).collect();
    for workers in [1usize, 2, 4] {
        let mut runner = RunnerConfig::new().workers(workers).parallel(&cfg).unwrap();
        let (_, out) = runner.run_collect(&trace, 1);
        let sharded: Vec<(u16, Vec<u8>)> = out
            .into_iter()
            .map(|(iface, p)| (iface, p.bytes().to_vec()))
            .collect();
        assert_eq!(
            sharded, baseline,
            "{workers}-worker sharded run matches the fleet delivery"
        );
    }
}

/// A Figure 4-style request with no `reach` requirements (so the verdict
/// is placement-independent): deliverable to the tenant's registered
/// address, deployable on any platform with room.
const PORTABLE: &str = r#"
    module batcher:
    FromNetfront()
      -> IPFilter(allow udp dst port 1500)
      -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
      -> ToNetfront();
"#;

/// Two equal platforms behind the internet, `capacity` slots each.
fn twin_platform_controller(capacity: usize) -> Controller {
    let mut t = Topology::new();
    let internet = t.add("internet", NodeKind::Internet).unwrap();
    let pa = t
        .add(
            "platform-a",
            NodeKind::Platform(PlatformSpec {
                addr_pool: "192.0.2.0/28".parse().unwrap(),
                capacity,
                ..PlatformSpec::default()
            }),
        )
        .unwrap();
    let pb = t
        .add(
            "platform-b",
            NodeKind::Platform(PlatformSpec {
                addr_pool: "198.18.0.0/28".parse().unwrap(),
                capacity,
                ..PlatformSpec::default()
            }),
        )
        .unwrap();
    t.link_bidir(internet, 0, pa, 0);
    t.link_bidir(internet, 1, pb, 0);
    let mut c = Controller::new(t);
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    c
}

#[test]
fn cached_placement_filled_between_identical_deploys_replaces_as_a_hit() {
    let mut c = twin_platform_controller(2);
    let req = || ClientRequest::parse(PORTABLE).unwrap();

    // First deploy: full verification, placed on the best-ranked
    // platform (ties break to the lower node id: platform-a).
    let first = c.deploy("mobile-7", req()).unwrap();
    assert_eq!(first.platform, "platform-a");

    // Fill platform-a to capacity *between* the two identical deploys —
    // the staleness window the cached verdict must survive.
    let pa = c.topology().index_of("platform-a").unwrap();
    let mut modules = c.modules().to_vec();
    let next_id = modules.iter().map(|m| m.id).max().unwrap_or(0) + 1;
    modules.push(InstalledModule {
        id: next_id,
        name: "squatter".into(),
        platform: pa,
        addr: Ipv4Addr::new(192, 0, 2, 9),
        config: ClickConfig::parse("FromNetfront() -> ToNetfront();").unwrap(),
        sandboxed: true,
        owner: "operator".into(),
    });
    c.adopt_modules(modules);
    assert!(!c.platform_has_room("platform-a"));

    // The identical second deploy must succeed on the next-ranked
    // platform as a *cache hit*: no re-verification, placement redone.
    let before = c.stats();
    let second = c.deploy("mobile-7", req()).unwrap();
    let after = c.stats();
    assert_eq!(second.platform, "platform-b", "re-placed, not stale");
    assert_eq!(after.cache_hits, before.cache_hits + 1, "still a hit");
    assert_eq!(after.cache_misses, before.cache_misses, "no re-verify");

    // The refreshed cache entry now points at platform-b directly.
    let third = c.deploy("mobile-7", req()).unwrap();
    assert_eq!(third.platform, "platform-b");
    assert_eq!(c.stats().cache_hits, after.cache_hits + 1);
}

#[test]
fn every_platform_full_after_a_cached_accept_reports_per_platform_reasons() {
    let mut c = twin_platform_controller(1);
    let req = || ClientRequest::parse(PORTABLE).unwrap();
    let first = c.deploy("mobile-7", req()).unwrap();
    // Fill the remaining platform too.
    let other = if first.platform == "platform-a" {
        "platform-b"
    } else {
        "platform-a"
    };
    let other_id = c.topology().index_of(other).unwrap();
    let mut modules = c.modules().to_vec();
    modules.push(InstalledModule {
        id: 99,
        name: "squatter".into(),
        platform: other_id,
        addr: Ipv4Addr::new(198, 18, 0, 9),
        config: ClickConfig::parse("FromNetfront() -> ToNetfront();").unwrap(),
        sandboxed: true,
        owner: "operator".into(),
    });
    c.adopt_modules(modules);

    let err = c.deploy("mobile-7", req()).unwrap_err();
    let DeployError::NoFeasiblePlacement { reasons } = err else {
        panic!("expected NoFeasiblePlacement, got {err:?}");
    };
    assert_eq!(reasons.len(), 2, "one reason per platform");
    assert!(reasons.iter().all(|(_, why)| why == "platform full"));
}

#[test]
fn placement_rejects_are_counted_per_reason() {
    let mut c = twin_platform_controller(1);
    let reg = c.obs().clone();
    let req = |name: &str| {
        ClientRequest::parse(&PORTABLE.replace("module batcher:", &format!("module {name}:")))
            .unwrap()
    };

    c.deploy("mobile-7", req("m1")).unwrap();
    c.deploy("mobile-7", req("m2")).unwrap();
    // Both platforms full: two per-platform "platform full" rejections.
    let err = c.deploy("mobile-7", req("m3")).unwrap_err();
    assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));

    assert_eq!(c.stats().placement_rejects, 2);
    let prom = reg.snapshot().to_prometheus();
    assert!(
        prom.contains("innet_ctl_placement_reject_total{reason=\"platform_full\"} 2"),
        "labeled reject counter missing from export:\n{prom}"
    );
}

/// The registry is the controller's counter store: after a batch whose
/// shard rejects placements and runs full verifications, the exported
/// series agree with `stats()` (shards count into the live instruments).
#[test]
fn batch_registry_agrees_with_stats() {
    let mut c = twin_platform_controller(1);
    let reg = c.obs().clone();
    let batch: Vec<(String, ClientRequest)> = ["m1", "m2", "m3"]
        .iter()
        .map(|name| {
            let text = PORTABLE.replace("module batcher:", &format!("module {name}:"));
            ("mobile-7".to_string(), ClientRequest::parse(&text).unwrap())
        })
        .collect();
    // One client, so one shard verifies all three against its snapshot:
    // two fill the 1-slot platforms, the third is refused on both.
    let results = c.deploy_batch(batch, 2);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 2);

    let s = c.stats();
    assert_eq!((s.requests, s.accepted, s.rejected), (3, 2, 1), "{s:?}");
    assert_eq!(s.placement_rejects, 2, "{s:?}");
    assert_eq!(s.cache_misses, 3, "{s:?}");

    let rejects = reg.labeled_counter("innet_ctl_placement_reject_total", "reason");
    assert_eq!(rejects.total(), s.placement_rejects);
    assert_eq!(rejects.get("platform_full"), 2);
    let verdicts = reg.labeled_counter("innet_ctl_verdicts_total", "verdict");
    assert_eq!(verdicts.total(), s.cache_misses);
    assert_eq!(verdicts.get("reject"), s.rejected);
    for (stage, ns) in [
        ("lint", s.stage_lint_ns),
        ("fastpath", s.stage_fastpath_ns),
        ("symbolic", s.stage_symbolic_ns),
        ("placement", s.stage_placement_ns),
    ] {
        let h = reg.histogram(&format!("innet_ctl_stage_{stage}_ns"));
        assert_eq!(h.count(), s.cache_misses, "{stage} samples");
        assert_eq!(h.sum(), u128::from(ns), "{stage} total");
    }
    for (name, v) in [
        ("innet_ctl_requests_total", s.requests),
        ("innet_ctl_accepted_total", s.accepted),
        ("innet_ctl_rejected_total", s.rejected),
        ("innet_ctl_cache_misses_total", s.cache_misses),
        ("innet_ctl_analysis_ns_total", s.analysis_ns),
    ] {
        assert_eq!(reg.counter(name).get(), v, "{name}");
    }
}
