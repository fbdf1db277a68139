//! Isolation kernels: one layer's operation, run alone and timed from
//! outside with host nanoseconds per operation and the operation count.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ndp_experiments::harness::{attach_on, FlowSpec, Proto};
use ndp_experiments::openloop::DistKind;
use ndp_metrics::{SlowdownBins, TenantDigest};
use ndp_net::{Host, HostId, Packet};
use ndp_sim::{Component, ComponentId, Ctx, Event, Time, World};
use ndp_topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::{self, Size, Workload};

/// One kernel's result.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub name: String,
    pub ns_per_op: f64,
    pub ops: u64,
    /// Failed output checks of the kernel.
    pub violations: Vec<String>,
}

impl Kernel {
    fn timed(name: impl Into<String>, ns: u128, ops: u64) -> Kernel {
        Kernel {
            name: name.into(),
            ns_per_op: ns as f64 / ops.max(1) as f64,
            ops,
            violations: Vec::new(),
        }
    }
}

/// Wake chains on one component: each wake re-arms its chain after a
/// delay, so every event is one scheduler pop plus one post.
struct Chains {
    spread: bool,
    left: u64,
    lcg: u64,
}

/// The hot delay every lane-kernel post repeats.
const LANE_DELAY: Time = Time::from_ns(100);

impl Component<u64> for Chains {
    fn handle(&mut self, ev: Event<u64>, ctx: &mut Ctx<'_, u64>) {
        let Event::Wake(tok) = ev else { return };
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let delay = if self.spread {
            // Distinct delays between 1 µs and 1 ms, at ps resolution.
            self.lcg = self
                .lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Time::from_ps(1_000_000 + (self.lcg >> 24) % 999_000_000)
        } else {
            LANE_DELAY
        };
        ctx.wake_in(delay, tok);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Scheduler post/pop on a no-op component: 512 concurrent chains with
/// one repeated delay (`spread = false`) or a distinct delay per post.
pub fn post_pop(seed: u64, spread: bool, events: u64) -> Kernel {
    const CHAINS: u64 = 512;
    let mut w: World<u64> = World::new(seed);
    let id = w.add(Chains {
        spread,
        left: events - CHAINS,
        lcg: seed | 1,
    });
    for c in 0..CHAINS {
        w.post_wake(Time::from_ps(c), id, c);
    }
    let start = Instant::now();
    w.run_until_idle();
    let ns = start.elapsed().as_nanos();
    let name = if spread {
        "sim.post_pop_spread"
    } else {
        "sim.post_pop_lane"
    };
    let mut k = Kernel::timed(name, ns, w.events_processed());
    if w.events_processed() != events {
        k.violations.push(format!(
            "{name}: {} events processed, {events} posted",
            w.events_processed()
        ));
    }
    k
}

/// Injects one data packet per host NIC every wire time, toward the
/// host's permutation partner, on a random path.
struct Injector {
    nics: Vec<ComponentId>,
    dsts: Vec<u32>,
    n_paths: Vec<u32>,
    size: u32,
    gap: Time,
    rounds_left: u64,
    seq: u64,
    rng: SmallRng,
}

impl Component<Packet> for Injector {
    fn handle(&mut self, ev: Event<Packet>, ctx: &mut Ctx<'_, Packet>) {
        if !matches!(ev, Event::Wake(_)) {
            return;
        }
        for (h, &nic) in self.nics.iter().enumerate() {
            let path = self.rng.gen_range(0..self.n_paths[h]);
            let pkt = Packet::data(h as HostId, self.dsts[h], h as u64 + 1, self.seq, self.size)
                .with_path(path);
            ctx.forward(nic, pkt);
        }
        self.seq += 1;
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.wake_in(self.gap, 0);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Bare forwarding on the k=8 FatTree with NDP queues and no transport:
/// every host injects `size`-byte data packets at line rate on a
/// permutation pattern. One operation is one packet leaving one queue.
pub fn forwarding(seed: u64, size: u32, rounds: u64) -> Kernel {
    let mut world: World<Packet> = World::new(seed);
    let topo = workload::permutation_topo().build(&mut world, Proto::Ndp.fabric());
    let n = topo.n_hosts();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF0D);
    let dsts: Vec<u32> = ndp_workloads::permutation(n, &mut rng)
        .into_iter()
        .map(|d| d as u32)
        .collect();
    let injector = Injector {
        nics: (0..n).map(|h| topo.host_nic(h as HostId)).collect(),
        n_paths: (0..n).map(|h| topo.n_paths(h as HostId, dsts[h])).collect(),
        dsts,
        size,
        gap: topo.host_link_speed().tx_time(size as u64),
        rounds_left: rounds,
        seq: 0,
        rng,
    };
    let id = world.add(injector);
    world.post_wake(Time::ZERO, id, 0);
    let start = Instant::now();
    world.run_until_idle();
    let ns = start.elapsed().as_nanos();
    let (mut hops, mut dropped) = (0u64, 0u64);
    for (_, st) in topo.stats_by_class(&world) {
        hops += st.forwarded_pkts;
        dropped += st.dropped_data + st.dropped_ctrl + st.dropped_down;
    }
    let delivered: u64 = (0..n)
        .map(|h| {
            world
                .get::<Host>(topo.host(h as HostId))
                .stats()
                .delivered_pkts
        })
        .sum();
    let injected = rounds * n as u64;
    let name = format!("net.fwd_{size}B");
    let mut k = Kernel::timed(&name, ns, hops);
    if delivered + dropped != injected {
        k.violations.push(format!(
            "{name}: {injected} packets injected but {delivered} delivered + {dropped} dropped"
        ));
    }
    k
}

/// Attach and then detach flows on a built, never-run fabric, in batches
/// of live flows like the open-loop workload's. Returns the attach and
/// the detach kernel.
pub fn attach_detach(seed: u64, proto: Proto, flows: u64) -> (Kernel, Kernel) {
    const BATCH: u64 = 256;
    let mut world: World<Packet> = World::new(seed);
    let topo = workload::openloop_topo().build(&mut world, proto.fabric());
    let n = topo.n_hosts() as u32;
    let sizes = DistKind::WebSearch.cdf();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA77);
    let (mut attach_ns, mut detach_ns) = (0u128, 0u128);
    let mut next_flow = 1u64;
    while next_flow <= flows {
        let batch: Vec<FlowSpec> = (0..BATCH.min(flows + 1 - next_flow))
            .map(|i| {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                FlowSpec::new(next_flow + i, src, dst, sizes.sample(&mut rng))
            })
            .collect();
        next_flow += batch.len() as u64;
        let start = Instant::now();
        for spec in &batch {
            attach_on(&mut world, topo.as_ref(), proto, spec);
        }
        attach_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        for spec in &batch {
            black_box(proto.transport().detach(
                &mut world,
                topo.host(spec.src),
                topo.host(spec.dst),
                spec.flow,
            ));
        }
        detach_ns += start.elapsed().as_nanos();
    }
    let label = proto.label().to_ascii_lowercase();
    (
        Kernel::timed(format!("transport.attach.{label}"), attach_ns, flows),
        Kernel::timed(format!("transport.detach.{label}"), detach_ns, flows),
    )
}

/// Repeat `once` (which returns its operation count) until `min_ops`
/// operations ran; host ns per operation.
fn repeat(name: &str, min_ops: u64, mut once: impl FnMut() -> u64) -> Kernel {
    let (mut ops, mut ns) = (0u64, 0u128);
    while ops < min_ops {
        let start = Instant::now();
        let n = once();
        ns += start.elapsed().as_nanos();
        assert!(n > 0, "{name}: an empty pass would never finish");
        ops += n;
    }
    Kernel::timed(name, ns, ops)
}

/// Workload generation with no simulation: drain the open-loop flow
/// stream and the RPC request stream of the seed. Also returns the
/// streams' flows, requests and legs.
pub struct Generation {
    pub flows: Kernel,
    pub requests: Kernel,
    pub flows_offered: u64,
    pub requests_offered: u64,
    pub legs: u64,
    /// Payload bytes of all request legs.
    pub request_bytes: u64,
}

pub fn generation(seed: u64, size: &Size) -> Generation {
    let (n, link) = open_fabric();
    let flows_offered = workload::openloop_stream(n, link, seed, size.openloop).count() as u64;
    let flows = repeat("workloads.gen_flow", 200_000, || {
        workload::openloop_stream(n, link, seed, size.openloop)
            .map(black_box)
            .count() as u64
    });
    let mut world: World<Packet> = World::new(seed);
    let topo = workload::rpc_topo().build(&mut world, Proto::Ndp.fabric());
    let (mut requests_offered, mut legs, mut request_bytes) = (0u64, 0u64, 0u64);
    for r in workload::rpc_stream(topo.as_ref(), seed, size.rpc) {
        requests_offered += 1;
        legs += r.legs.len() as u64 + r.response.is_some() as u64;
        request_bytes += r
            .legs
            .iter()
            .chain(&r.response)
            .map(|l| l.bytes)
            .sum::<u64>();
    }
    let requests = repeat("workloads.gen_request", 100_000, || {
        workload::rpc_stream(topo.as_ref(), seed, size.rpc)
            .map(black_box)
            .count() as u64
    });
    Generation {
        flows,
        requests,
        flows_offered,
        requests_offered,
        legs,
        request_bytes,
    }
}

/// Hosts and NIC speed of the open-loop fabric.
fn open_fabric() -> (usize, u64) {
    let mut world: World<Packet> = World::new(0);
    let topo = workload::openloop_topo().build(&mut world, Proto::Ndp.fabric());
    (topo.n_hosts(), topo.host_link_speed().as_bps())
}

/// `Topology::ideal_fct` over the open-loop flow stream of the seed.
pub fn ideal_fct(seed: u64, size: &Size) -> Kernel {
    let mut world: World<Packet> = World::new(seed);
    let topo: Arc<dyn Topology> =
        Arc::from(workload::openloop_topo().build(&mut world, Proto::Ndp.fabric()));
    let stream: Vec<_> = workload::openloop_stream(
        topo.n_hosts(),
        topo.host_link_speed().as_bps(),
        seed,
        size.openloop,
    )
    .collect();
    repeat("topology.ideal_fct", 200_000, || {
        for f in &stream {
            black_box(topo.ideal_fct(f.src, f.dst, f.bytes));
        }
        stream.len() as u64
    })
}

/// Slowdown and tenant-digest recording: `flows` samples into
/// `SlowdownBins::add` and `requests` into `TenantDigest::record`, then
/// the percentile queries the workloads make. One operation is one
/// sample; the queries are charged to the samples.
pub fn record(seed: u64, flows: u64, requests: u64) -> Kernel {
    let sizes = DistKind::WebSearch.cdf();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EC);
    let flow_samples: Vec<(u64, f64)> = (0..flows)
        .map(|_| {
            (
                sizes.sample(&mut rng),
                1.0 + 100.0 * rng.gen::<f64>().powi(4),
            )
        })
        .collect();
    let latencies: Vec<(f64, usize)> = (0..requests)
        .map(|_| {
            (
                50.0 + 2000.0 * rng.gen::<f64>().powi(3),
                rng.gen_range(0..8usize),
            )
        })
        .collect();
    repeat("metrics.record", 200_000, || {
        let mut bins = SlowdownBins::new();
        for &(bytes, s) in &flow_samples {
            bins.add(bytes, s);
        }
        for i in 0..bins.n_bins() {
            black_box((bins.percentile(i, 0.5), bins.percentile(i, 0.99)));
        }
        let mut digest = TenantDigest::new("websearch_rpc", 500.0);
        for &(lat, leg) in &latencies {
            digest.record(lat, leg, leg == 0);
        }
        black_box((
            digest.latency_us(0.5),
            digest.latency_us(0.99),
            digest.latency_us(0.999),
            digest.fingerprint(),
        ));
        flows + requests
    })
}

/// Median host ns of one topology build of the workload's fabric, over
/// every transport's service model, and the components one build adds.
pub fn topology_build(w: Workload, seed: u64) -> (Kernel, usize) {
    let spec = match w {
        Workload::FabricPermutation => workload::permutation_topo(),
        Workload::OpenloopWebsearch => workload::openloop_topo(),
        Workload::RpcTenantMix => workload::rpc_topo(),
    };
    let mut samples = Vec::new();
    let mut components = 0;
    for _ in 0..5 {
        for &proto in w.protos() {
            let mut world: World<Packet> = World::new(seed);
            let start = Instant::now();
            let topo = spec.build(&mut world, proto.fabric());
            samples.push(start.elapsed().as_nanos() as f64);
            black_box(topo);
            components = world.live_components();
        }
    }
    let ops = samples.len() as u64;
    let mut k = Kernel::timed("topology.build", 0, ops);
    k.ns_per_op = crate::stats::median(&mut samples);
    (k, components)
}
