//! Parallel request verification — the paper's §4.3 "Scaling the
//! controller" conjecture, implemented:
//!
//! > "we conjecture it is fairly easy to parallelize the controller by
//! > simply having multiple machines answer the queries. Care must be
//! > taken, however, to ensure requests of the same user reach the same
//! > controller (to ensure ordering of operations), or to deal with
//! > problems that may arise when different controllers simultaneously
//! > decide to take conflicting actions: e.g. install new processing
//! > modules onto the same platform that does not have enough capacity."
//!
//! [`Controller::deploy_batch`] shards a batch of requests by client (so
//! one client's requests stay ordered on one shard), verifies every shard
//! against a snapshot of the network in parallel, and then commits
//! serially. A commit that finds its proposed platform filled up by an
//! earlier commit — the conflicting-action case — is re-verified from
//! scratch against the now-current network.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::{
    controller::{Controller, DeployError, DeployResponse},
    request::ClientRequest,
};

/// A shard's verified proposal, awaiting serial commit.
struct Proposal {
    batch_index: usize,
    client: String,
    request: ClientRequest,
    platform: String,
    sandboxed: bool,
}

impl Controller {
    /// Deploys a batch of requests using `shards` parallel verifiers.
    ///
    /// Results are returned in batch order. Requests from the same client
    /// are processed by the same shard, in order. Proposals whose platform
    /// ran out of capacity between snapshot and commit are transparently
    /// re-verified against the live network.
    pub fn deploy_batch(
        &mut self,
        batch: Vec<(String, ClientRequest)>,
        shards: usize,
    ) -> Vec<Result<DeployResponse, DeployError>> {
        let shards = shards.max(1);
        let n = batch.len();

        // Partition by client hash: per-user ordering within a shard.
        let mut partitions: Vec<Vec<(usize, String, ClientRequest)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (i, (client, request)) in batch.into_iter().enumerate() {
            let mut h = DefaultHasher::new();
            client.hash(&mut h);
            partitions[(h.finish() as usize) % shards].push((i, client, request));
        }

        // Phase 1: parallel verification against the snapshot.
        let mut results: Vec<Option<Result<DeployResponse, DeployError>>> =
            (0..n).map(|_| None).collect();
        let mut proposals: Vec<Proposal> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .into_iter()
                .map(|part| {
                    let snapshot = self.verification_clone();
                    scope.spawn(move || {
                        let mut snapshot = snapshot;
                        let mut out = Vec::new();
                        for (idx, client, request) in part {
                            let r = snapshot.deploy(&client, request.clone());
                            out.push((idx, client, request, r));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                // Shard verification runs against throwaway snapshots that
                // count into this controller's instruments, so a batch
                // deploy reports the same statistics as the serial
                // equivalent.
                for (idx, client, request, r) in h.join().expect("shard panicked") {
                    match r {
                        Ok(resp) => proposals.push(Proposal {
                            batch_index: idx,
                            client,
                            request,
                            platform: resp.platform,
                            sandboxed: resp.sandboxed,
                        }),
                        Err(e) => results[idx] = Some(Err(e)),
                    }
                }
            }
        });

        // Phase 2: serial commit, in batch order, re-verifying on
        // conflict (the proposed platform no longer has room).
        proposals.sort_by_key(|p| p.batch_index);
        for p in proposals {
            let conflict = !self.platform_has_room(&p.platform);
            let r = if conflict {
                // The conflicting-action case: full re-verification
                // against the live network. The shard already counted
                // this request, so the re-run must not count it again.
                self.deploy_counted(&p.client, p.request, false)
            } else {
                // The shard verified this placement against an equivalent
                // snapshot (addresses within one pool are
                // interchangeable): commit without re-checking.
                self.commit_verified(&p.client, p.request, &p.platform, p.sandboxed)
            };
            results[p.batch_index] = Some(r);
        }

        results
            .into_iter()
            .map(|r| r.expect("every request produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_symnet::RequesterClass;
    use innet_topology::{NodeKind, PlatformSpec, Topology};
    use std::collections::HashSet;

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
        for i in 0..8 {
            c.register_client(
                format!("client{i}"),
                RequesterClass::Client,
                vec!["172.16.15.133".parse().unwrap()],
            );
        }
        c
    }

    fn request(i: usize) -> ClientRequest {
        let mut r = ClientRequest::parse(FIG4).unwrap();
        r.module_name = format!("batcher{i}");
        // Way-points must reference the renamed module.
        let req = format!(
            "reach from internet udp -> batcher{i}:dst:0 dst 172.16.15.133 \
             -> client dst port 1500 const proto && dst port && payload"
        );
        r.requirements = vec![innet_policy::Requirement::parse(&req).unwrap()];
        r
    }

    #[test]
    fn batch_deploys_all_with_distinct_addresses() {
        let mut c = controller();
        let batch: Vec<_> = (0..8).map(|i| (format!("client{i}"), request(i))).collect();
        let results = c.deploy_batch(batch, 4);
        assert_eq!(results.len(), 8);
        let mut addrs = HashSet::new();
        for r in results {
            let resp = r.expect("all deployable");
            assert!(addrs.insert(resp.public_addr), "addresses must be unique");
        }
        assert_eq!(c.modules().len(), 8);
        assert_eq!(c.flow_rules().len(), 8);
    }

    #[test]
    fn capacity_conflict_resolved_serially() {
        // Shrink platform 3 to one slot: two parallel shards both propose
        // it; only one commit can land there, and the other must fail
        // cleanly after re-verification (platforms 1/2 are unreachable
        // from the Internet, so there is nowhere else to go).
        let mut topo = Topology::figure3();
        let p3 = topo.index_of("platform3").unwrap();
        if let NodeKind::Platform(spec) = &mut topo.nodes[p3].kind {
            *spec = PlatformSpec {
                capacity: 1,
                ..spec.clone()
            };
        }
        let mut c = Controller::new(topo);
        c.register_client(
            "client0",
            RequesterClass::Client,
            vec!["172.16.15.133".parse().unwrap()],
        );
        c.register_client(
            "client1",
            RequesterClass::Client,
            vec!["172.16.15.133".parse().unwrap()],
        );
        let results = c.deploy_batch(
            vec![
                ("client0".to_string(), request(0)),
                ("client1".to_string(), request(1)),
            ],
            2,
        );
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 1, "exactly one deployment fits");
        assert_eq!(c.modules().len(), 1);
    }

    #[test]
    fn same_client_requests_stay_ordered() {
        let mut c = controller();
        let batch: Vec<_> = (0..4)
            .map(|i| ("client0".to_string(), request(i)))
            .collect();
        let results = c.deploy_batch(batch, 4);
        // All land (platform3 has room); module ids are committed in
        // batch order.
        let ids: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().expect("deployable").module_id)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "commit order follows batch order");
    }

    #[test]
    fn parallel_matches_serial_outcome() {
        let mut serial = controller();
        let mut parallel = controller();
        let batch: Vec<_> = (0..6).map(|i| (format!("client{i}"), request(i))).collect();
        for (client, req) in batch.clone() {
            serial.deploy(&client, req).expect("deployable");
        }
        let results = parallel.deploy_batch(batch, 3);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(serial.modules().len(), parallel.modules().len());
    }
}
