//! Property-based tests over the core data structures and protocol
//! invariants.

use ndp::core::{attach_flow, NdpFlowCfg, PathSet};
use ndp::metrics::Cdf;
use ndp::net::host::HostLatency;
use ndp::net::{Packet, Queue};
use ndp::sim::{Speed, Time, World};
use ndp::topology::{BackToBack, QueueSpec, SingleBottleneck};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any flow size over a clean link is delivered exactly once,
    /// regardless of the initial window.
    #[test]
    fn ndp_delivers_exact_bytes(size in 1u64..2_000_000, iw in 1u64..64, seed in 0u64..1000) {
        let mut w: World<Packet> = World::new(seed);
        let b2b = BackToBack::build(
            &mut w,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::ndp_default(),
            HostLatency::default(),
        );
        let cfg = NdpFlowCfg { n_paths: 1, iw_pkts: iw, ..NdpFlowCfg::new(size) };
        attach_flow(&mut w, 1, (b2b.hosts[0], 0), (b2b.hosts[1], 1), cfg, Time::ZERO);
        w.run_until(Time::from_secs(10));
        let rx = ndp::core::flow::receiver_stats(&w, b2b.hosts[1], 1);
        prop_assert_eq!(rx.payload_bytes, size);
        prop_assert!(rx.completion_time.is_some());
        let tx = ndp::core::flow::sender_stats(&w, b2b.hosts[0], 1);
        prop_assert_eq!(tx.retransmissions, 0, "no retransmissions on a clean link");
    }

    /// Even with corruption on both directions, every byte eventually
    /// arrives exactly once (RTO reliability net).
    #[test]
    fn ndp_survives_corruption(size in 1u64..300_000, p in 0.0f64..0.15, seed in 0u64..200) {
        let mut w: World<Packet> = World::new(seed);
        use ndp::net::{Host, Pipe};
        use ndp::net::queue::LinkClass;
        let h0 = w.reserve();
        let h1 = w.reserve();
        let speed = Speed::gbps(10);
        let p01 = w.add(Pipe::new(Time::from_us(1), h1).with_corruption(p));
        let nic0 = w.add(Queue::new(speed, p01, LinkClass::HostNic, QueueSpec::ndp_default().build_host_nic(9000)));
        let p10 = w.add(Pipe::new(Time::from_us(1), h0).with_corruption(p));
        let nic1 = w.add(Queue::new(speed, p10, LinkClass::HostNic, QueueSpec::ndp_default().build_host_nic(9000)));
        w.install(h0, Host::new(0, nic0, speed, 9000));
        w.install(h1, Host::new(1, nic1, speed, 9000));
        let cfg = NdpFlowCfg { n_paths: 1, ..NdpFlowCfg::new(size) };
        attach_flow(&mut w, 1, (h0, 0), (h1, 1), cfg, Time::ZERO);
        w.run_until(Time::from_secs(60));
        let rx = ndp::core::flow::receiver_stats(&w, h1, 1);
        prop_assert_eq!(rx.payload_bytes, size, "all payload delivered despite corruption");
    }

    /// The path permutation visits every path exactly once per round, for
    /// any path count.
    #[test]
    fn pathset_round_coverage(n in 1u32..64, seed in 0u64..1000) {
        let mut ps = PathSet::new(n, false);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _round in 0..4 {
            let mut seen = vec![0u32; n as usize];
            for _ in 0..n {
                seen[ps.next(&mut rng) as usize] += 1;
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "round must be a permutation: {:?}", seen);
        }
    }

    /// CDF percentile queries are monotone and bounded by min/max.
    #[test]
    fn cdf_percentiles_monotone(mut xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let c = Cdf::from_samples(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let v = c.percentile(p);
            prop_assert!(v >= prev);
            prop_assert!(v >= c.min() && v <= c.max());
            prev = v;
        }
        prop_assert_eq!(c.percentile(1.0), *xs.last().unwrap());
    }

    /// NDP queue invariants under arbitrary overload: metadata lossless
    /// until header-queue capacity, occupancy bounded, WRR bounded.
    #[test]
    fn ndp_queue_never_exceeds_capacity(n_pkts in 1usize..600, seed in 0u64..500) {
        let mut w: World<Packet> = World::new(seed);
        struct Sink;
        impl ndp::sim::Component<Packet> for Sink {
            fn handle(&mut self, _ev: ndp::sim::Event<Packet>, _ctx: &mut ndp::sim::Ctx<'_, Packet>) {}
            fn as_any(&self) -> &dyn std::any::Any { self }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
        }
        let sink = w.add(Sink);
        let q = w.add(Queue::new(
            Speed::gbps(10),
            sink,
            ndp::net::LinkClass::TorDown,
            ndp::net::Policy::ndp(8, 9000),
        ));
        for i in 0..n_pkts {
            w.post(Time::from_ns(i as u64 * 100), q, Packet::data(0, 1, 0, i as u64, 9000));
        }
        w.run_until_idle();
        let queue = w.get::<Queue>(q);
        // Occupancy never exceeded data-cap + header-cap bytes.
        prop_assert!(queue.stats.max_occupancy_bytes <= 8 * 9000 + 8 * 9000);
        // With no RTS target, any overflow shows as dropped_data; the sum
        // of outcomes equals the input.
        prop_assert_eq!(
            queue.stats.forwarded_pkts + queue.stats.dropped_data
                + queue.queued_packets() as u64,
            n_pkts as u64
        );
    }

    /// Retirement safety: under any interleaving of adds, retires and
    /// in-flight events, (a) a stale event is never delivered to a slot's
    /// new occupant, (b) every event sent to a live component arrives,
    /// (c) `ids()` / `try_get` exactly track the live population.
    #[test]
    fn retirement_never_misdelivers(ops in proptest::collection::vec(0u8..10, 1..80), seed in 0u64..1000) {
        use ndp::sim::{Component, ComponentId, Ctx, Event, World};
        use std::any::Any;
        /// Records every payload it receives; payloads encode the id the
        /// harness addressed, so misdelivery is detectable.
        struct Tagged { tag: u64, got: Vec<u64> }
        impl Component<u64> for Tagged {
            fn handle(&mut self, ev: Event<u64>, _ctx: &mut Ctx<'_, u64>) {
                if let Event::Msg(v) = ev { self.got.push(v); }
            }
            fn as_any(&self) -> &dyn Any { self }
            fn as_any_mut(&mut self) -> &mut dyn Any { self }
        }
        let mut w: World<u64> = World::new(seed);
        let mut live: Vec<(ComponentId, u64)> = Vec::new();
        let mut retired: Vec<(ComponentId, u64)> = Vec::new();
        // Events posted while a component was live but retired before the
        // run are stale too; track in-flight counts per target.
        let mut pending: std::collections::HashMap<ComponentId, u64> =
            std::collections::HashMap::new();
        let mut next_tag = 0u64;
        let mut expect_stale = 0u64;
        let mut t = 0u64;
        for &op in &ops {
            t += 1;
            match op {
                // Add a fresh component (reuses retired slots).
                0..=3 => {
                    let tag = { next_tag += 1; next_tag };
                    let id = w.add(Tagged { tag, got: vec![] });
                    live.push((id, tag));
                }
                // Retire one live component (round-robin victim); whatever
                // was already addressed to it must now be dropped.
                4..=5 => {
                    if !live.is_empty() {
                        let victim = live.remove(t as usize % live.len());
                        prop_assert!(w.retire(victim.0));
                        expect_stale += pending.remove(&victim.0).unwrap_or(0);
                        retired.push(victim);
                    }
                }
                // Post to a live component.
                6..=8 => {
                    if !live.is_empty() {
                        let (id, tag) = live[t as usize % live.len()];
                        w.post(ndp::sim::Time::from_us(t), id, tag);
                        *pending.entry(id).or_default() += 1;
                    }
                }
                // Post to a retired id: must vanish.
                _ => {
                    if !retired.is_empty() {
                        let (id, tag) = retired[t as usize % retired.len()];
                        w.post(ndp::sim::Time::from_us(t), id, tag);
                        expect_stale += 1;
                    }
                }
            }
        }
        let sent_live: u64 = pending.values().sum();
        w.run_until_idle();
        prop_assert_eq!(w.live_components(), live.len());
        let seen: Vec<ComponentId> = w.ids().collect();
        prop_assert_eq!(seen.len(), live.len());
        let mut delivered = 0u64;
        for &(id, tag) in &live {
            let c = w.try_get::<Tagged>(id).expect("live component visible");
            prop_assert_eq!(c.tag, tag);
            // Every payload delivered here was addressed to this tag.
            prop_assert!(c.got.iter().all(|&v| v == tag), "misdelivered: {:?}", c.got);
            delivered += c.got.len() as u64;
        }
        for &(id, _) in &retired {
            prop_assert!(w.try_get::<Tagged>(id).is_none(), "stale id resolved");
        }
        prop_assert_eq!(delivered, sent_live, "live sends must all arrive");
        prop_assert_eq!(w.stale_events_dropped(), expect_stale);
    }

    /// Fair-share fractions from the blast sink are within [0, ~1] for any
    /// sender count (no accounting leaks).
    #[test]
    fn blast_fair_share_bounded(n in 1usize..40, seed in 0u64..100) {
        let mut w: World<Packet> = World::new(seed);
        let sb = SingleBottleneck::build(&mut w, n, Speed::gbps(10), Time::from_us(1), 9000, QueueSpec::ndp_default());
        for s in 0..n {
            ndp::baselines::blast::attach_blast(
                &mut w,
                s as u64 + 1,
                (sb.senders[s], s as u32),
                (sb.receiver, n as u32),
                9000,
                Speed::gbps(10),
                Time::ZERO,
            );
        }
        let span = Time::from_ms(2);
        w.run_until(span);
        use ndp::net::Host;
        let host = w.get::<Host>(sb.receiver);
        let total: u64 = (1..=n as u64)
            .map(|f| host.endpoint::<ndp::baselines::blast::CountSink>(f).payload_bytes)
            .sum();
        let frac = ndp::baselines::blast::fair_share_fraction(total, 1, Speed::gbps(10), 9000, span);
        prop_assert!(frac <= 1.05, "goodput cannot exceed the link: {frac}");
        if n >= 1 {
            prop_assert!(frac > 0.5, "the link should be mostly busy: {frac}");
        }
    }
}

// ---------------------------------------------------------------------------
// Fused-vs-unfused A/B: folding wire propagation into the upstream queue's
// TX-done post must be observationally invisible — identical completion
// times, ordering and throughput — on every registered topology shape.

mod fused_unfused_ab {
    use ndp::experiments::harness::{incast_run, permutation_run};
    use ndp::experiments::{Proto, TopoSpec};
    use ndp::sim::{Speed, Time};
    use ndp::topology::{FatTreeCfg, LeafSpineCfg, TwoTierCfg};
    use proptest::prelude::*;

    /// (fused, unfused) spec pairs mirroring all six registry entries at
    /// quick scale (smaller where quick scale would make a dev-profile
    /// proptest case too slow).
    fn spec_pair(ti: usize) -> (TopoSpec, TopoSpec) {
        match ti {
            0 => (
                TopoSpec::fattree(FatTreeCfg::new(4)),
                TopoSpec::fattree(FatTreeCfg::new(4).unfused()),
            ),
            1 => (
                TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4)),
                TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4).unfused()),
            ),
            2 => (
                TopoSpec::fattree(FatTreeCfg::new(4).with_hosts_per_tor(8)),
                TopoSpec::fattree(FatTreeCfg::new(4).with_hosts_per_tor(8).unfused()),
            ),
            3 => (
                TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4).with_uplink_speed(Speed::gbps(5))),
                TopoSpec::leafspine(
                    LeafSpineCfg::new(4, 4, 4)
                        .with_uplink_speed(Speed::gbps(5))
                        .unfused(),
                ),
            ),
            4 => (
                TopoSpec::twotier(TwoTierCfg::testbed()),
                TopoSpec::twotier(TwoTierCfg::testbed().unfused()),
            ),
            _ => (TopoSpec::backtoback(), TopoSpec::backtoback_unfused()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Incast completion times (and their order) are bit-identical
        /// with and without hop fusion, for every protocol family's
        /// fabric via NDP (the trimming fabric exercises the RNG-coupled
        /// paths hardest: trim coins, pull spraying, RTS bounces).
        #[test]
        fn incast_fcts_identical(ti in 0usize..6, seed in 0u64..1000) {
            let (fused, unfused) = spec_pair(ti);
            let n = (fused.n_hosts() - 1).min(8);
            let horizon = Time::from_ms(500);
            let a = incast_run(Proto::Ndp, fused, n, 45_000, None, seed, horizon);
            let b = incast_run(Proto::Ndp, unfused, n, 45_000, None, seed, horizon);
            prop_assert_eq!(a.incomplete, b.incomplete);
            prop_assert_eq!(a.fcts, b.fcts, "arrival-driven completions must match exactly");
        }

        /// Permutation throughput (per-flow goodput and utilization) is
        /// bit-identical with and without hop fusion.
        #[test]
        fn permutation_goodput_identical(ti in 0usize..6, seed in 0u64..1000) {
            let (fused, unfused) = spec_pair(ti);
            let dur = Time::from_us(500);
            let a = permutation_run(Proto::Ndp, fused, dur, seed, Some(12));
            let b = permutation_run(Proto::Ndp, unfused, dur, seed, Some(12));
            prop_assert_eq!(a.per_flow_gbps, b.per_flow_gbps);
            prop_assert_eq!(a.utilization, b.utilization);
            prop_assert!(
                a.events_processed < b.events_processed,
                "fusion must dispatch fewer events ({} vs {})",
                a.events_processed, b.events_processed
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Topology-registry invariants: every registered fabric shape must uphold the
// `Topology` contract the experiment harnesses build on.

mod topology_invariants {
    use ndp::experiments::topo::{TopoEntry, TOPOLOGIES};
    use ndp::experiments::{Proto, Scale};
    use ndp::net::{Host, Packet};
    use ndp::sim::{Time, World};
    use ndp::topology::{QueueSpec, Topology};
    use ndp::transport::FlowSpec;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn build(entry: &TopoEntry, fabric: QueueSpec) -> (World<Packet>, Box<dyn Topology>) {
        let mut w: World<Packet> = World::new(1);
        let topo = entry.spec(Scale::Quick).build(&mut w, fabric);
        (w, topo)
    }

    /// A deterministic (src, dst) pair with src != dst.
    fn pair(n: usize, seed: u64) -> (u32, u32) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        (src as u32, dst as u32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Path and hop counts are symmetric, and a tagged raw packet
        /// injected at any source reaches the right destination for every
        /// valid path tag — on every registered topology.
        #[test]
        fn paths_are_symmetric_and_every_tag_delivers(
            ti in 0usize..TOPOLOGIES.len(),
            seed in 0u64..10_000,
        ) {
            let entry = &TOPOLOGIES[ti];
            let (mut w, topo) = build(entry, QueueSpec::ndp_default());
            let (src, dst) = pair(topo.n_hosts(), seed);
            prop_assert_eq!(
                topo.n_paths(src, dst), topo.n_paths(dst, src),
                "{}: n_paths asymmetric for ({}, {})", entry.name, src, dst
            );
            prop_assert_eq!(
                topo.n_hops(src, dst), topo.n_hops(dst, src),
                "{}: n_hops asymmetric for ({}, {})", entry.name, src, dst
            );
            prop_assert!(topo.n_paths(src, dst) >= 1);
            prop_assert_eq!(
                topo.n_hops(src, dst) as usize,
                topo.path_profile(src, dst).len(),
                "{}: hop count disagrees with the path profile", entry.name
            );
            let n_paths = topo.n_paths(src, dst);
            for tag in 0..n_paths {
                let pkt = Packet::data(src, dst, 1000 + tag as u64, 0, topo.mtu())
                    .with_path(tag);
                w.post(Time::ZERO, topo.host_nic(src), pkt);
            }
            w.run_until_idle();
            // No endpoints are registered, so deliveries land in the
            // unknown-flow counter — a delivery proof per tag.
            let h = w.get::<Host>(topo.host(dst));
            prop_assert_eq!(
                h.stats().unknown_flow_drops + h.stats().timewait_rejects,
                n_paths as u64,
                "{}: not every tag of ({}, {}) delivered", entry.name, src, dst
            );
        }

        /// `ideal_fct` is a true lower bound on an unloaded single-flow
        /// run for every registered topology — including the shapes with
        /// slow uplinks, whose bound comes from per-hop speeds.
        #[test]
        fn ideal_fct_is_a_lower_bound_on_an_unloaded_run(
            ti in 0usize..TOPOLOGIES.len(),
            seed in 0u64..10_000,
            size in 1u64..400_000,
        ) {
            let entry = &TOPOLOGIES[ti];
            let proto = Proto::Ndp;
            let (mut w, topo) = build(entry, proto.fabric());
            let (src, dst) = pair(topo.n_hosts(), seed);
            let spec = FlowSpec::new(1, src, dst, size);
            proto.transport().attach(
                &mut w,
                &spec,
                (topo.host(src), src),
                (topo.host(dst), dst),
                topo.n_paths(src, dst),
                topo.mtu(),
            );
            w.run_until(Time::from_secs(5));
            let done = proto
                .transport()
                .completion_time(&w, topo.host(dst), 1)
                .expect("unloaded flow must complete");
            let ideal = topo.ideal_fct(src, dst, size);
            prop_assert!(
                done >= ideal,
                "{}: measured FCT {} beat the 'ideal' bound {} for ({}, {}, {}B)",
                entry.name, done, ideal, src, dst, size
            );
        }
    }
}

mod chaos_invariants {
    use ndp::experiments::topo::{TopoEntry, TOPOLOGIES};
    use ndp::experiments::Scale;
    use ndp::net::{Host, LinkClass, Packet, Queue};
    use ndp::sim::{Time, World};
    use ndp::topology::{poisson_campaign, CampaignCfg, FabricOp, LinkRef, QueueSpec, Topology};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The registry entries whose switches carry class-labeled uplinks and
    /// reroute-capable routers — the shapes the chaos subsystem targets.
    const MULTIPATH: &[&str] = &[
        "fattree",
        "leafspine",
        "oversubscribed",
        "leafspine-oversub",
    ];

    fn build(name: &str) -> (World<Packet>, Box<dyn Topology>) {
        let entry: &TopoEntry = TOPOLOGIES
            .iter()
            .find(|e| e.name == name)
            .expect("registered topology");
        let mut w: World<Packet> = World::new(1);
        let topo = entry
            .spec(Scale::Quick)
            .build(&mut w, QueueSpec::ndp_default());
        (w, topo)
    }

    /// Uplink indices grouped by owning switch: the label prefix before
    /// the final `[port]` (`"tor_up[3]"` collects all of `tor_up[3][..]`).
    fn uplinks_by_switch(links: &[LinkRef]) -> Vec<Vec<usize>> {
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, l) in links.iter().enumerate() {
            if !matches!(l.class, LinkClass::TorUp | LinkClass::AggUp) {
                continue;
            }
            let key = &l.label[..l.label.rfind('[').expect("uplink labels end in [port]")];
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }

    /// A deterministic (src, dst) pair with src != dst.
    fn pair(n: usize, seed: u64) -> (u32, u32) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        (src as u32, dst as u32)
    }

    /// Inject one raw tagged packet per path of (src, dst) and run the
    /// world dry. With no endpoints registered, deliveries land in the
    /// destination host's unknown-flow counter — a proof per tag.
    fn inject_all_tags(
        w: &mut World<Packet>,
        topo: &dyn Topology,
        src: u32,
        dst: u32,
        base_flow: u64,
    ) {
        let at = w.now();
        for tag in 0..topo.n_paths(src, dst) {
            let pkt = Packet::data(src, dst, base_flow + tag as u64, 0, topo.mtu()).with_path(tag);
            w.post(at, topo.host_nic(src), pkt);
        }
        w.run_until_idle();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After failing ANY strict per-switch subset of the uplinks, every
        /// path tag still delivers src -> dst (the switches reroute around
        /// the masked ports); after restoring, delivery still holds and the
        /// failed queues are back up at their nominal rates.
        #[test]
        fn every_path_delivers_during_failures_and_after_recovery(
            ni in 0usize..MULTIPATH.len(),
            seed in 0u64..10_000,
        ) {
            let (mut w, topo) = build(MULTIPATH[ni]);
            let links = topo.links();
            let groups = uplinks_by_switch(&links);
            prop_assert!(!groups.is_empty(), "{} exposes no uplinks", MULTIPATH[ni]);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xC4A0);
            let mut failed: Vec<usize> = Vec::new();
            for g in &groups {
                // A strict subset per switch: one uplink always survives,
                // so the reroute contract (a live equivalent exists) holds.
                let keep = rng.gen_range(0..g.len());
                for (i, &li) in g.iter().enumerate() {
                    if i != keep && rng.gen_bool(0.5) {
                        failed.push(li);
                    }
                }
            }
            if failed.is_empty() {
                // Keep the property non-vacuous: kill one uplink of the
                // first switch that has a spare.
                if let Some(g) = groups.iter().find(|g| g.len() >= 2) {
                    failed.push(g[0]);
                }
            }
            prop_assert!(!failed.is_empty());
            for &li in &failed {
                topo.fail_link(&mut w, links[li].queue);
            }
            let (src, dst) = pair(topo.n_hosts(), seed);
            let n_paths = topo.n_paths(src, dst) as u64;
            inject_all_tags(&mut w, topo.as_ref(), src, dst, 2_000);
            let delivered = |w: &World<Packet>| {
                let h = w.get::<Host>(topo.host(dst));
                h.stats().unknown_flow_drops + h.stats().timewait_rejects
            };
            prop_assert_eq!(
                delivered(&w), n_paths,
                "{}: not every tag of ({}, {}) delivered with {} uplinks down",
                MULTIPATH[ni], src, dst, failed.len()
            );
            for &li in &failed {
                topo.restore_link(&mut w, links[li].queue);
            }
            for &li in &failed {
                let q = w.get::<Queue>(links[li].queue);
                prop_assert!(!q.is_down(), "{} still down after restore", links[li].label);
                prop_assert_eq!(
                    q.rate(), q.nominal_rate(),
                    "{} not back at nominal rate", links[li].label
                );
            }
            inject_all_tags(&mut w, topo.as_ref(), src, dst, 3_000);
            prop_assert_eq!(
                delivered(&w), 2 * n_paths,
                "{}: delivery broken after recovery", MULTIPATH[ni]
            );
        }

        /// A Poisson campaign is (a) bit-identical per seed, (b) time-sorted,
        /// and (c) well-formed: every `LinkDown` hits a currently-up link of
        /// an eligible class inside [start, end), and is paired with a later
        /// `LinkUp` on the same link.
        #[test]
        fn poisson_campaigns_are_seed_deterministic_and_well_formed(
            seed in 0u64..u64::MAX,
            mtbf_us in 100u64..5_000,
            horizon_us in 500u64..20_000,
        ) {
            let (_w, topo) = build("fattree");
            let links = topo.links();
            let cfg = CampaignCfg {
                classes: vec![LinkClass::TorUp, LinkClass::AggUp],
                mtbf: Time::from_us(mtbf_us),
                mttr: Time::from_us(mtbf_us / 3 + 1),
                start: Time::ZERO,
                end: Time::from_us(horizon_us),
                seed,
            };
            let a = poisson_campaign(&links, &cfg);
            let b = poisson_campaign(&links, &cfg);
            prop_assert_eq!(&a, &b, "same seed must give the same schedule");
            let mut down: Vec<usize> = Vec::new();
            let mut last = Time::ZERO;
            for ev in &a {
                prop_assert!(ev.at >= last, "schedule must be time-sorted");
                last = ev.at;
                match ev.op {
                    FabricOp::LinkDown { link } => {
                        prop_assert!(ev.at < cfg.end, "failures only arrive in [start, end)");
                        prop_assert!(
                            matches!(links[link].class, LinkClass::TorUp | LinkClass::AggUp),
                            "campaign failed an ineligible link: {}", links[link].label
                        );
                        prop_assert!(!down.contains(&link), "double-killed a down link");
                        down.push(link);
                    }
                    FabricOp::LinkUp { link } => {
                        let i = down.iter().position(|&l| l == link);
                        prop_assert!(i.is_some(), "repair without a failure");
                        down.swap_remove(i.unwrap());
                    }
                    other => prop_assert!(false, "campaigns only emit link events, got {:?}", other),
                }
            }
            prop_assert!(down.is_empty(), "every failure must be paired with a repair");
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler delay-lane equivalence: the TwoTier scheduler with per-delay FIFO
// lanes must deliver in exactly the Classic heap's (time, posting-seq) order
// under arbitrary interleavings of hot repeated delays, same-instant trains,
// zero-delay forwards, partial drains, and retirement churn.

mod scheduler_lanes {
    use ndp::sim::{Component, ComponentId, Ctx, Event, SchedulerKind, Time, World};
    use proptest::prelude::*;
    use std::any::Any;

    /// Logs every arrival; when `peer` is set, forwards each payload with
    /// zero delay, exercising the fast lane from inside dispatch.
    struct Echo {
        peer: Option<ComponentId>,
        log: Vec<(Time, u64)>,
    }
    impl Component<u64> for Echo {
        fn handle(&mut self, ev: Event<u64>, ctx: &mut Ctx<'_, u64>) {
            if let Event::Msg(v) = ev {
                self.log.push((ctx.now(), v));
                if let Some(p) = self.peer {
                    ctx.send(p, v, Time::ZERO);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Hot repeats (lane-promotable), rarer lane-eligible delays from
    /// 65.5 ns to 3 ms (each earns a lane only once it repeats), and a
    /// lane-ineligible 30 s delay that always rides the heap.
    fn delay(r: u64) -> Time {
        match r % 9 {
            0 | 1 => Time::from_ns(100),
            2 | 3 => Time::from_ns(250),
            4 => Time::from_ns(777),
            5 => Time::from_ps(65_536),
            6 => Time::from_us(80),
            7 => Time::from_ms(3),
            _ => Time::from_secs(30),
        }
    }

    /// Everything observable about a run: per-component delivery logs
    /// (time + payload, in order), the trace hash, the dispatched-event
    /// count, and the stale-drop count.
    type Outcome = (Vec<Vec<(Time, u64)>>, (u64, u64), u64, u64);

    fn run(kind: SchedulerKind, ops: &[u16]) -> Outcome {
        let mut w: World<u64> = World::with_scheduler(7, kind);
        w.enable_trace();
        let sink = w.add(Echo {
            peer: None,
            log: vec![],
        });
        let fwd = w.add(Echo {
            peer: Some(sink),
            log: vec![],
        });
        let mut retired: Vec<ComponentId> = Vec::new();
        let mut base = Time::ZERO;
        let mut tag = 0u64;
        for &x in ops {
            tag += 1;
            let (op, r) = (x % 12, (x / 12) as u64);
            match op {
                0..=2 => w.post(base + delay(r), sink, tag),
                // Through the forwarder: arrival triggers a zero-delay hop
                // from inside dispatch.
                3 | 4 => w.post(base + delay(r), fwd, tag),
                // Same-instant train; routed through the forwarder half the
                // time so one train spawns a run of zero-delay hops.
                5 | 6 => {
                    let to = if op == 6 { fwd } else { sink };
                    let msgs: Vec<u64> = (0..r % 4 + 1).map(|i| tag * 1000 + i).collect();
                    w.post_train(base + delay(r), to, msgs);
                }
                // Spawn-and-retire churn: the pre-retire post goes stale.
                7 => {
                    let victim = w.add(Echo {
                        peer: None,
                        log: vec![],
                    });
                    w.post(base + delay(r), victim, tag);
                    assert!(w.retire(victim));
                    retired.push(victim);
                }
                // Post to an already-retired id: stale on arrival.
                8 => {
                    if let Some(&id) = retired.last() {
                        w.post(base + delay(r), id, tag);
                    }
                }
                // Partial drain, then advance the posting base.
                9 | 10 => {
                    let h = base + Time::from_ns(1 + r * 7);
                    w.run_until(h);
                    base = h;
                }
                _ => w.shrink_idle(),
            }
        }
        w.run_until_idle();
        let logs = vec![
            w.get::<Echo>(sink).log.clone(),
            w.get::<Echo>(fwd).log.clone(),
        ];
        (
            logs,
            w.trace_hash(),
            w.events_processed(),
            w.stale_events_dropped(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two worlds — Classic and TwoTier — fed the same op script must
        /// agree on every delivery (time and order), the trace hash, the
        /// event count and the stale count.
        #[test]
        fn lanes_preserve_exact_delivery_order(
            ops in proptest::collection::vec(0u16..u16::MAX, 1..120),
        ) {
            let classic = run(SchedulerKind::Classic, &ops);
            let two_tier = run(SchedulerKind::TwoTier, &ops);
            prop_assert_eq!(&two_tier, &classic, "TwoTier diverged from Classic");
        }
    }
}

// ---------------------------------------------------------------------------
// TwoTier vs Classic A/B at the experiment level: the fast lane, the delay
// lanes and the heap are a pure scheduler-internal reshuffling of the
// Classic heap's order, so FCTs, goodput and even the dispatched event count
// must be bit-identical on every registered topology entry.

mod lane_ab {
    use ndp::experiments::harness::{incast_run, permutation_run};
    use ndp::experiments::{Proto, TopoSpec};
    use ndp::sim::{set_default_scheduler, SchedulerKind, Speed, Time};
    use ndp::topology::{FatTreeCfg, LeafSpineCfg, TwoTierCfg};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Serializes sections that flip the process-wide scheduler default, so
    /// the A and B runs of one case can't interleave with another case's
    /// flip.
    static SCHED_TOGGLE: Mutex<()> = Mutex::new(());

    /// All six registered topology entries at quick scale.
    fn spec(ti: usize) -> TopoSpec {
        match ti {
            0 => TopoSpec::fattree(FatTreeCfg::new(4)),
            1 => TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4)),
            2 => TopoSpec::fattree(FatTreeCfg::new(4).with_hosts_per_tor(8)),
            3 => TopoSpec::leafspine(LeafSpineCfg::new(4, 4, 4).with_uplink_speed(Speed::gbps(5))),
            4 => TopoSpec::twotier(TwoTierCfg::testbed()),
            _ => TopoSpec::backtoback(),
        }
    }

    /// Runs `f` twice — TwoTier, then Classic — restoring the TwoTier
    /// default.
    fn ab<T>(f: impl Fn() -> T) -> (T, T) {
        let _guard = SCHED_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        set_default_scheduler(SchedulerKind::TwoTier);
        let a = f();
        set_default_scheduler(SchedulerKind::Classic);
        let b = f();
        set_default_scheduler(SchedulerKind::TwoTier);
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Incast completion times are bit-identical on TwoTier and
        /// Classic, on all six registered topology entries.
        #[test]
        fn incast_fcts_lane_invariant(seed in 0u64..1000) {
            for ti in 0..6 {
                let s = spec(ti);
                let n = (s.n_hosts() - 1).min(8);
                let horizon = Time::from_ms(500);
                let (a, b) =
                    ab(|| incast_run(Proto::Ndp, spec(ti), n, 45_000, None, seed, horizon));
                prop_assert_eq!(a.incomplete, b.incomplete, "topology {}", ti);
                prop_assert_eq!(a.fcts, b.fcts, "scheduler changed FCTs on topology {}", ti);
                prop_assert_eq!(
                    a.events_processed, b.events_processed,
                    "schedulers reorder nothing, so event counts must match (topology {})", ti
                );
            }
        }

        /// Permutation goodput and utilization are bit-identical on
        /// TwoTier and Classic, on all six registered topology entries.
        #[test]
        fn permutation_goodput_lane_invariant(seed in 0u64..1000) {
            for ti in 0..6 {
                let dur = Time::from_us(500);
                let (a, b) = ab(|| permutation_run(Proto::Ndp, spec(ti), dur, seed, Some(12)));
                prop_assert_eq!(&a.per_flow_gbps, &b.per_flow_gbps, "topology {}", ti);
                prop_assert_eq!(a.utilization, b.utilization, "topology {}", ti);
                prop_assert_eq!(a.events_processed, b.events_processed, "topology {}", ti);
            }
        }
    }
}
