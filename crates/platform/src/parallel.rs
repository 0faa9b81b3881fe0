//! Flow-sharded parallel execution: one verified configuration, N router
//! replicas, an RSS-style dispatcher.
//!
//! The paper's platform runs each tenant module as one ClickOS VM on one
//! vCPU; scaling a hot module means giving it more cores. This module
//! reproduces the standard software-RSS recipe for doing that without
//! giving up per-flow semantics:
//!
//! * every worker owns an *independent replica* of the same verified
//!   [`ClickConfig`] — no shared element state, no locks on the data path;
//! * a flow-hash dispatcher pins each 5-tuple to one worker
//!   ([`FlowKey::shard_of`]), so all packets of a flow traverse the same
//!   replica in arrival order and per-flow output order is preserved;
//! * hand-off happens in batches over bounded FIFO rings, which
//!   back-pressure the dispatcher: a slow worker blocks it instead of
//!   losing packets.
//!
//! How much state a configuration keeps decides how it shards. The
//! element registry's field-effect summaries place every class on the
//! [`Shardability`] lattice, and [`Registry::config_shardability`]
//! aggregates the verdict:
//!
//! * **`Stateless`** — forwarding is a pure function of each packet;
//!   replicas shard freely under the directed flow hash.
//! * **`FlowPartitionable`** — state is keyed by the connection (NAT
//!   tables, firewall conntrack, per-flow meters). Still sharded, but
//!   dispatch switches to the *symmetric* hash
//!   ([`FlowKey::symmetric_shard_of`]), which pins both directions of a
//!   connection to the same replica so each replica owns a disjoint
//!   slice of connection state.
//! * **`Global`** — state spans connections (queues, token buckets,
//!   schedulers, opaque VMs); the runner degrades to **one worker**
//!   rather than silently misbehaving across replicas.

use std::time::Instant;

use innet_click::{ClickConfig, Registry, Router, RouterError, Shardability};
use innet_packet::{FlowKey, Packet};

use crate::engine::Engine;
use crate::runner::{RunnerConfig, DEFAULT_RING_CAPACITY};
use crate::spsc;

/// Virtual-time step per packet, matching
/// [`NativeRunner::run`](crate::NativeRunner::run): 1 µs, so token
/// buckets refill realistically.
const STEP_NS: u64 = 1_000;

/// Result of a timed parallel run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelStats {
    /// Packets offered to the dispatcher.
    pub packets: u64,
    /// Packets transmitted out of all replicas.
    pub transmitted: u64,
    /// Packets lost because their worker was gone when the batch was
    /// dispatched (`innet_parallel_drops_total{reason="worker_gone"}`);
    /// zero in a healthy run.
    pub dropped: u64,
    /// Wall-clock nanoseconds elapsed.
    pub elapsed_ns: u64,
    /// Workers that actually ran (1 for `Global` configurations).
    pub workers: usize,
}

impl ParallelStats {
    /// *Delivered* rate in packets/second — transmitted packets over
    /// elapsed time; 0.0 when no time elapsed. Packets that did not make
    /// it through are excluded (an offered-based figure would inflate
    /// throughput exactly when the run went wrong).
    pub fn pps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.transmitted as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// *Offered* (input) rate in packets/second — what the dispatcher was
    /// given, whether or not it made it through; 0.0 when no time
    /// elapsed.
    pub fn offered_pps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Delivered throughput in Gbit/s assuming `frame_len`-byte frames.
    pub fn gbps(&self, frame_len: usize) -> f64 {
        self.pps() * frame_len as f64 * 8.0 / 1e9
    }
}

/// Shared-registry instruments for one parallel runner
/// (`innet_parallel_*`).
#[derive(Clone)]
struct ParallelMetrics {
    /// Per-worker packets processed (`worker` label).
    packets: Vec<innet_obs::Counter>,
    /// Per-worker packets transmitted (`worker` label).
    transmitted: Vec<innet_obs::Counter>,
    /// Per-worker ring depth, sampled at each dispatch.
    queue_depth: Vec<innet_obs::Gauge>,
    /// Size of each dispatched batch.
    batch_size: innet_obs::Histogram,
    /// Wall-clock duration of each `run` call.
    run_ns: innet_obs::Histogram,
    /// Packets lost to a worker that was gone.
    drops_worker_gone: innet_obs::Counter,
}

impl ParallelMetrics {
    fn new(registry: &innet_obs::Registry, workers: usize) -> ParallelMetrics {
        let packets = registry.labeled_counter("innet_parallel_packets_total", "worker");
        let transmitted = registry.labeled_counter("innet_parallel_transmitted_total", "worker");
        ParallelMetrics {
            packets: (0..workers).map(|w| packets.with(&w.to_string())).collect(),
            transmitted: (0..workers)
                .map(|w| transmitted.with(&w.to_string()))
                .collect(),
            queue_depth: (0..workers)
                .map(|w| registry.gauge(&format!("innet_parallel_queue_depth_w{w}")))
                .collect(),
            batch_size: registry.histogram("innet_parallel_batch_size"),
            run_ns: registry.histogram("innet_parallel_run_ns"),
            drops_worker_gone: registry
                .labeled_counter("innet_parallel_drops_total", "reason")
                .with("worker_gone"),
        }
    }
}

/// A multi-threaded runner: N replicas of one router behind a flow-hash
/// dispatcher. Build one with
/// [`RunnerConfig::parallel`](crate::RunnerConfig::parallel).
pub struct ParallelRunner {
    engines: Vec<Engine>,
    requested_workers: usize,
    shardability: Shardability,
    batch: usize,
    metrics: Option<ParallelMetrics>,
}

impl ParallelRunner {
    /// Instantiates `config.workers` replicas of `cfg` (or one, if the
    /// configuration keeps global state and therefore cannot shard).
    pub(crate) fn with_config(
        cfg: &ClickConfig,
        config: RunnerConfig,
    ) -> Result<ParallelRunner, RouterError> {
        let registry = Registry::standard();
        let shardability = registry.config_shardability(cfg);
        let effective = if shardability == Shardability::Global {
            1
        } else {
            config.workers
        };
        let mut engines = Vec::with_capacity(effective);
        for _ in 0..effective {
            let mut engine = Engine::build(cfg, &registry, config.compiled)?;
            if let Some(reg) = &config.metrics {
                // Replicas share the same click counters: the registry
                // hands out one shared cell per name, so `innet_click_*`
                // aggregates across workers.
                engine.attach_metrics(reg);
            }
            engines.push(engine);
        }
        Ok(ParallelRunner {
            engines,
            requested_workers: config.workers,
            shardability,
            batch: config.batch,
            metrics: config
                .metrics
                .as_ref()
                .map(|r| ParallelMetrics::new(r, effective)),
        })
    }

    /// Workers actually running (1 when the configuration keeps global
    /// state).
    pub fn effective_workers(&self) -> usize {
        self.engines.len()
    }

    /// Workers asked for via [`RunnerConfig::workers`].
    pub fn requested_workers(&self) -> usize {
        self.requested_workers
    }

    /// The registry's [`Shardability`] verdict for this configuration
    /// ([`Registry::config_shardability`]): it decides both the worker
    /// count and the dispatch hash.
    pub fn shardability(&self) -> Shardability {
        self.shardability
    }

    /// Whether the configuration passed the registry's replication-safety
    /// check (its verdict is not [`Shardability::Global`]).
    pub fn shardable(&self) -> bool {
        self.shardability != Shardability::Global
    }

    /// Access to a worker's interpreted router replica (for counter
    /// inspection). `None` for an out-of-range worker — or in compiled
    /// mode, where replicas are flat plans with no element instances.
    pub fn router(&self, worker: usize) -> Option<&Router> {
        self.engines.get(worker).and_then(|e| e.router())
    }

    /// Whether the replicas execute the compiled plan.
    pub fn is_compiled(&self) -> bool {
        self.engines.first().is_some_and(|e| e.is_compiled())
    }

    /// Pushes the packet set through the sharded replicas `rounds`
    /// times, measuring wall-clock time.
    pub fn run(&mut self, packets: &[Packet], rounds: usize) -> ParallelStats {
        self.run_inner(packets, rounds, false).0
    }

    /// Like [`ParallelRunner::run`], but also returns every transmitted
    /// `(egress, packet)` pair, concatenated worker by worker. Within
    /// one worker's slice — and therefore within any one flow — packets
    /// appear in transmission order.
    pub fn run_collect(
        &mut self,
        packets: &[Packet],
        rounds: usize,
    ) -> (ParallelStats, Vec<(u16, Packet)>) {
        self.run_inner(packets, rounds, true)
    }

    fn run_inner(
        &mut self,
        packets: &[Packet],
        rounds: usize,
        collect: bool,
    ) -> (ParallelStats, Vec<(u16, Packet)>) {
        let workers = self.engines.len();
        let batch = self.batch;
        let metrics = self.metrics.clone();
        let start = Instant::now();
        let mut dropped = 0u64;
        let mut transmitted = 0u64;
        let mut collected: Vec<(u16, Packet)> = Vec::new();

        std::thread::scope(|s| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for (w, engine) in self.engines.iter_mut().enumerate() {
                let (tx, rx) = spsc::ring::<Vec<Packet>>(DEFAULT_RING_CAPACITY);
                senders.push(tx);
                let worker_metrics = metrics
                    .as_ref()
                    .map(|m| (m.packets[w].clone(), m.transmitted[w].clone()));
                handles.push(s.spawn(move || {
                    let mut clock = 0u64;
                    let mut tx_count = 0u64;
                    let mut out: Vec<(u16, Packet)> = Vec::new();
                    while let Some(b) = rx.recv() {
                        let n = b.len() as u64;
                        engine.push_batch(b, clock, STEP_NS);
                        clock += STEP_NS * n;
                        let before = out.len();
                        engine.take_tx_into(&mut out);
                        let emitted = (out.len() - before) as u64;
                        tx_count += emitted;
                        if let Some((pkts, txs)) = &worker_metrics {
                            pkts.add(n);
                            txs.add(emitted);
                        }
                        if !collect {
                            out.clear();
                        }
                    }
                    (tx_count, out)
                }));
            }

            // The dispatcher: flow-hash every packet to its worker,
            // flushing per-worker batches as they fill. Because one flow
            // always hashes to one worker and the rings are FIFO,
            // per-flow order is preserved end to end.
            //
            // Flow-partitionable configs (NAT, stateful firewall) carry
            // per-connection state, so both directions of a connection
            // must land on the same replica: they dispatch under the
            // symmetric hash, which keys on the remote endpoint and is
            // invariant under source NAT. Stateless configs keep the
            // plain directed hash.
            let symmetric = self.shardability == Shardability::FlowPartitionable;
            let mut pending: Vec<Vec<Packet>> =
                (0..workers).map(|_| Vec::with_capacity(batch)).collect();
            for _ in 0..rounds {
                for pkt in packets {
                    let shard = if symmetric {
                        FlowKey::symmetric_shard_of(pkt, workers)
                    } else {
                        FlowKey::shard_of(pkt, workers)
                    };
                    pending[shard].push(pkt.clone());
                    if pending[shard].len() >= batch {
                        let full =
                            std::mem::replace(&mut pending[shard], Vec::with_capacity(batch));
                        dropped += dispatch(&senders[shard], full, shard, &metrics);
                    }
                }
            }
            for (shard, rest) in pending.into_iter().enumerate() {
                if !rest.is_empty() {
                    dropped += dispatch(&senders[shard], rest, shard, &metrics);
                }
            }
            // Hang up: each worker drains its ring, then returns.
            drop(senders);
            for h in handles {
                let (tx_count, out) = h.join().expect("worker panicked");
                transmitted += tx_count;
                if collect {
                    collected.extend(out);
                }
            }
        });

        let stats = ParallelStats {
            packets: (packets.len() * rounds) as u64,
            transmitted,
            dropped,
            elapsed_ns: start.elapsed().as_nanos().max(1) as u64,
            workers,
        };
        if let Some(m) = &self.metrics {
            m.run_ns.observe(stats.elapsed_ns);
        }
        (stats, collected)
    }
}

/// Sends one batch to one worker ring, blocking while the ring is full.
/// Returns the number of packets lost because the worker was gone.
// Kept out of line: inlined into the per-packet loop of `run_inner`, it
// slowed the flow-sharded path by about 5% (`dp-nat-churn`, 2 CPUs).
#[inline(never)]
fn dispatch(
    sender: &spsc::RingSender<Vec<Packet>>,
    batch: Vec<Packet>,
    shard: usize,
    metrics: &Option<ParallelMetrics>,
) -> u64 {
    let size = batch.len() as u64;
    let dropped = match sender.send(batch) {
        Ok(()) => 0,
        Err(b) => b.len() as u64,
    };
    if let Some(m) = metrics {
        m.batch_size.observe(size);
        m.queue_depth[shard].set(sender.len() as i64);
        if dropped > 0 {
            m.drops_worker_gone.add(dropped);
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{consolidated_config, middlebox_config, plain_firewall};
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::udp()
                    .src(
                        Ipv4Addr::new(8, 8, (i % 13) as u8, (i % 251) as u8 + 1),
                        1000,
                    )
                    .dst(Ipv4Addr::new(10, 0, 0, 1), 1500 + (i % 7) as u16)
                    .pad_to(64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn stateless_config_shards_to_requested_workers() {
        let runner = RunnerConfig::new()
            .workers(4)
            .parallel(&plain_firewall())
            .unwrap();
        assert!(runner.shardable());
        assert_eq!(runner.effective_workers(), 4);
        assert_eq!(runner.requested_workers(), 4);
    }

    #[test]
    fn flow_partitionable_config_shards_under_symmetric_hash() {
        // NAT keeps per-connection state only: it shards, and the
        // verdict selects the symmetric dispatch hash.
        let cfg = middlebox_config("nat").unwrap();
        let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
        assert!(runner.shardable());
        assert_eq!(runner.shardability(), Shardability::FlowPartitionable);
        assert_eq!(runner.effective_workers(), 8);
        assert_eq!(runner.requested_workers(), 8);
    }

    #[test]
    fn global_config_degrades_to_one_worker() {
        // A queue shares timing state across all flows: replicating it
        // would change drop/ordering behavior, so the runner pins the
        // config to a single worker no matter how many were requested.
        let cfg = ClickConfig::parse("FromNetfront() -> Queue(16) -> ToNetfront();").unwrap();
        let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
        assert!(!runner.shardable());
        assert_eq!(runner.shardability(), Shardability::Global);
        assert_eq!(runner.effective_workers(), 1);
        assert_eq!(runner.requested_workers(), 8);

        let rr = ClickConfig::parse(
            "FromNetfront() -> rr :: RoundRobinSwitch(2); rr[0] -> ToNetfront(); rr[1] -> ToNetfront();",
        )
        .unwrap();
        let runner = RunnerConfig::new().workers(4).parallel(&rr).unwrap();
        assert_eq!(runner.shardability(), Shardability::Global);
        assert_eq!(runner.effective_workers(), 1);
    }

    #[test]
    fn all_packets_accounted_for() {
        let mut runner = RunnerConfig::new()
            .workers(4)
            .batch(8)
            .parallel(&plain_firewall())
            .unwrap();
        let pkts = trace(1000);
        let stats = runner.run(&pkts, 3);
        assert_eq!(stats.packets, 3000);
        assert_eq!(stats.transmitted, 3000);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn consolidated_config_runs_sharded() {
        let clients: Vec<Ipv4Addr> = (0..8).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
        let cfg = consolidated_config(&clients);
        let mut runner = RunnerConfig::new().workers(4).parallel(&cfg).unwrap();
        assert!(runner.shardable());
        let pkts: Vec<Packet> = (0..256)
            .map(|i| {
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(8, 8, 8, (i % 251) as u8 + 1), 4000 + i as u16)
                    .dst(clients[i % clients.len()], 80)
                    .pad_to(64)
                    .build()
            })
            .collect();
        let stats = runner.run(&pkts, 2);
        assert_eq!(stats.transmitted, stats.packets);
    }

    #[test]
    fn metrics_published_per_worker() {
        let registry = innet_obs::Registry::new();
        let mut runner = RunnerConfig::new()
            .workers(2)
            .batch(4)
            .metrics(&registry)
            .parallel(&plain_firewall())
            .unwrap();
        let pkts = trace(100);
        runner.run(&pkts, 1);
        let per_worker = registry.labeled_counter("innet_parallel_packets_total", "worker");
        assert_eq!(per_worker.get("0") + per_worker.get("1"), 100);
        let tx = registry.labeled_counter("innet_parallel_transmitted_total", "worker");
        assert_eq!(tx.get("0") + tx.get("1"), 100);
    }

    #[test]
    fn batches_for_a_gone_worker_count_as_worker_gone_drops() {
        let registry = innet_obs::Registry::new();
        let metrics = Some(ParallelMetrics::new(&registry, 1));
        let (tx, rx) = spsc::ring::<Vec<Packet>>(1);
        assert_eq!(dispatch(&tx, trace(4), 0, &metrics), 0);
        drop(rx);
        assert_eq!(dispatch(&tx, trace(3), 0, &metrics), 3);
        let drops = registry.labeled_counter("innet_parallel_drops_total", "reason");
        assert_eq!(drops.get("worker_gone"), 3);
        assert_eq!(drops.get("ring_full"), 0);
    }

    #[test]
    fn zero_elapsed_stats_do_not_divide_by_zero() {
        let stats = ParallelStats {
            packets: 10,
            transmitted: 10,
            dropped: 0,
            elapsed_ns: 0,
            workers: 1,
        };
        assert_eq!(stats.pps(), 0.0);
        assert_eq!(stats.offered_pps(), 0.0);
        assert_eq!(stats.gbps(64), 0.0);
    }

    #[test]
    fn pps_reports_delivered_not_offered() {
        // 10 offered over 1 s, 4 delivered: pps() must report the 4
        // that made it through, offered_pps() the 10 that were pushed.
        let stats = ParallelStats {
            packets: 10,
            transmitted: 4,
            dropped: 6,
            elapsed_ns: 1_000_000_000,
            workers: 2,
        };
        assert_eq!(stats.pps(), 4.0);
        assert_eq!(stats.offered_pps(), 10.0);
        assert_eq!(stats.gbps(125), 4.0 * 125.0 * 8.0 / 1e9);
    }
}
