//! The unified observability layer end to end: one shared registry wired
//! through the controller, the host, the switch controller, and the VMs'
//! Click routers, driven by a flow storm with idle reclamation, then
//! exported in both Prometheus text format and JSON.
//!
//! The closing invariant is the point of the exercise: every packet the
//! storm sent is delivered, buffered, or counted under a named drop
//! reason — nothing disappears silently.
//!
//! Run with: `cargo run -p innet-examples --bin metrics`

use std::net::Ipv4Addr;

use innet::obs;
use innet::platform::{ClientEntry, Host, SwitchController};
use innet::prelude::*;

const SEC: u64 = 1_000_000_000;

fn main() {
    let reg = obs::Registry::new();

    // Control plane: a controller verifying deployments, instrumented.
    let mut ctl = Controller::with_obs(Topology::figure3(), &reg);
    ctl.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    let request = r#"
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
    ctl.deploy("mobile-7", ClientRequest::parse(request).unwrap())
        .expect("deployable");
    ctl.deploy("mobile-7", ClientRequest::parse(request).unwrap())
        .expect("cache hit deploys too");

    // Data plane: a host and switch controller sharing the registry.
    let mut host = Host::with_obs(16 * 1024, &reg);
    let mut sw = SwitchController::with_obs(&reg);
    let tenants: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
    for (i, &addr) in tenants.iter().enumerate() {
        sw.register(ClientEntry {
            addr,
            config: ClickConfig::parse(
                "FromNetfront() -> IPFilter(allow udp, allow tcp) -> ToNetfront();",
            )
            .unwrap(),
            stateful: i % 2 == 0,
        });
    }

    // The flow storm: bursts to every tenant, strangers mixed in, idle
    // reclamation sweeping between bursts so VMs suspend and resume.
    let mut now = 0;
    for round in 0..400u64 {
        now = round * SEC / 8;
        let tenant = tenants[(round % tenants.len() as u64) as usize];
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 40_000 + round as u16)
            .dst(tenant, 1500)
            .pad_to(128)
            .build();
        sw.on_packet(&mut host, pkt, now).expect("switch accepts");
        if round % 5 == 0 {
            let stranger = PacketBuilder::udp()
                .dst(Ipv4Addr::new(9, 9, 9, round as u8), 1)
                .build();
            sw.on_packet(&mut host, stranger, now).expect("drops count");
        }
        if round % 16 == 15 {
            sw.reclaim_idle(&mut host, now, 2 * SEC);
        }
        host.advance(now);
    }

    // The storm pauses: idle reclamation suspends the stateful tenants
    // and destroys the stateless ones.
    now += 10 * SEC;
    sw.reclaim_idle(&mut host, now, 2 * SEC);
    host.advance(now);

    // A second wave: suspended tenants resume, destroyed ones re-boot,
    // and a mid-flow TCP ACK to a reclaimed tenant has nowhere to go.
    let ack = PacketBuilder::tcp()
        .dst(tenants[1], 80)
        .flags(innet::packet::TcpFlags::ACK)
        .build();
    sw.on_packet(&mut host, ack, now).expect("drop counted");
    for (i, &tenant) in tenants.iter().enumerate() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 50_000 + i as u16)
            .dst(tenant, 1500)
            .pad_to(128)
            .build();
        now += SEC / 8;
        sw.on_packet(&mut host, pkt, now).expect("switch accepts");
    }
    host.advance(now + 30 * SEC);

    let snap = reg.snapshot();
    println!("==== Prometheus text exposition ====");
    print!("{}", snap.to_prometheus());
    println!();
    println!("==== JSON ====");
    print!("{}", snap.to_json());

    // The zero-silent-drops invariant, straight from the registry.
    let s = sw.stats();
    let drops = reg.labeled_counter("innet_switch_drops_total", "reason");
    println!();
    println!(
        "invariant: {} packets in == {} delivered + {} buffered + {} dropped ({})",
        s.packets,
        s.delivered,
        s.buffered,
        s.dropped,
        drops
            .cells()
            .iter()
            .map(|(reason, n)| format!("{reason}={n}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    assert_eq!(s.packets, s.delivered + s.buffered + s.dropped);
    assert_eq!(drops.total(), s.dropped);
    println!("invariant holds: no silent packet loss");
}
