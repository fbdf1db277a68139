//! The three benchmark workloads, driven through the simulator's public
//! functions only.
//!
//! * `fabric_permutation` — NDP long flows on a k=8 FatTree permutation
//!   (the Figure 14 shape), assembled here from `TopoSpec::build`,
//!   `ndp_workloads::permutation`, `attach_on`, `World::run_until` and
//!   `delivered_bytes`, so the benchmark holds the world and can read its
//!   queue and host counters. Pure per-packet forwarding.
//! * `openloop_websearch` — open-loop Poisson web-search flows at 60 %
//!   load on the quick leaf-spine, through `openloop_run`, for NDP, DCTCP
//!   and pHost on the same seed. Flow-lifecycle work.
//! * `rpc_tenant_mix` — three open-loop RPC tenants on a quick k=4
//!   FatTree, through `rpc_world_run`, for the same three transports.
//!   Fan-in trim/NACK queues, spread timer delays, request trees.

use std::sync::Arc;

use ndp_experiments::harness::{attach_on, delivered_bytes, FlowSpec, Proto, LONG_FLOW};
use ndp_experiments::openloop::{openloop_run, DistKind, OpenLoopResult, Spawner};
use ndp_experiments::rpc::{
    resolve_mix, rpc_world_run, ArrivalSpec, RpcDriver, RpcPoint, RpcPointResult, TenantSpec,
};
use ndp_experiments::sweep::OpenLoopPoint;
use ndp_experiments::topo::TopoSpec;
use ndp_net::{CompletionSink, Host, HostId, Packet};
use ndp_sim::{EventKindCounts, Time, World};
use ndp_topology::{FatTreeCfg, LeafSpineCfg, Topology};
use ndp_workloads::{ArrivalProcess, DynamicWorkload, EmpiricalCdf, RpcWorkload, TreeShape};
use rand::SeedableRng;

use crate::trace::{Layer, Tracer};

/// The transports the open-loop and RPC workloads run, in run order.
pub const PROTOS: [Proto; 3] = [Proto::Ndp, Proto::Dctcp, Proto::PHost];

/// Open-loop offered load, as a fraction of the host NIC.
pub const OPENLOOP_LOAD: f64 = 0.6;

/// Chunks each simulated window is stepped in (permutation).
const RUN_CHUNKS: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FabricPermutation,
    OpenloopWebsearch,
    RpcTenantMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FabricPermutation,
        Workload::OpenloopWebsearch,
        Workload::RpcTenantMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricPermutation => "fabric_permutation",
            Workload::OpenloopWebsearch => "openloop_websearch",
            Workload::RpcTenantMix => "rpc_tenant_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The transports this workload runs.
    pub fn protos(self) -> &'static [Proto] {
        match self {
            Workload::FabricPermutation => &PROTOS[..1],
            _ => &PROTOS,
        }
    }
}

/// Warmup (arrivals not measured), measure, and drain cap.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup: Time,
    pub measure: Time,
    pub drain: Time,
}

impl Windows {
    pub fn arrivals_end(&self) -> Time {
        self.warmup + self.measure
    }
}

/// Simulated lengths of the three workloads.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub permutation: Time,
    pub openloop: Windows,
    pub rpc: Windows,
}

/// The benchmark's size. The open-loop and RPC windows are long enough
/// that the work per seed varies little between seeds (events per
/// repetition: 5 % and 3 % coefficient of variation over seeds 200–211),
/// and every reported p99 has well over ten samples beyond it.
pub const FULL: Size = Size {
    permutation: Time::from_ms(10),
    openloop: Windows {
        warmup: Time::from_ms(2),
        measure: Time::from_ms(180),
        drain: Time::from_ms(1000),
    },
    rpc: Windows {
        warmup: Time::from_ms(1),
        measure: Time::from_ms(64),
        drain: Time::from_ms(1000),
    },
};

/// A short size for the determinism tests.
#[cfg(test)]
pub const SHORT: Size = Size {
    permutation: Time::from_ms(1),
    openloop: Windows {
        warmup: Time::from_ms(1),
        measure: Time::from_ms(4),
        drain: Time::from_ms(20),
    },
    rpc: Windows {
        warmup: Time::from_ms(1),
        measure: Time::from_ms(2),
        drain: Time::from_ms(20),
    },
};

pub fn permutation_topo() -> TopoSpec {
    TopoSpec::fattree(FatTreeCfg::new(8))
}

pub fn openloop_topo() -> TopoSpec {
    TopoSpec::leafspine(LeafSpineCfg::new(8, 4, 4))
}

pub fn rpc_topo() -> TopoSpec {
    TopoSpec::fattree(FatTreeCfg::new(4))
}

/// The RPC workload's tenants: fan-out-8 web-search RPC, data-mining
/// bulk, and a diurnal 8 KB blast.
pub fn rpc_tenants() -> Vec<TenantSpec> {
    let shard = EmpiricalCdf::new(
        "rpc-shard",
        vec![
            (0.0, 1_000.0),
            (0.5, 4_000.0),
            (0.9, 16_000.0),
            (1.0, 64_000.0),
        ],
    );
    vec![
        TenantSpec {
            name: "websearch_rpc",
            shape: TreeShape::FanIn,
            fanout: 8,
            leg_sizes: shard,
            response_sizes: Some(EmpiricalCdf::fixed("rpc-upstream", 1460)),
            arrivals: ArrivalSpec::Load(0.35),
            slo: Time::from_us(500),
        },
        TenantSpec {
            name: "datamining_bulk",
            shape: TreeShape::FanIn,
            fanout: 1,
            leg_sizes: EmpiricalCdf::datamining(),
            response_sizes: None,
            arrivals: ArrivalSpec::Load(0.08),
            slo: Time::from_ms(50),
        },
        TenantSpec {
            name: "background_blast",
            shape: TreeShape::FanIn,
            fanout: 4,
            leg_sizes: EmpiricalCdf::fixed("blast", 8_192),
            response_sizes: None,
            arrivals: ArrivalSpec::DiurnalLoad {
                base: 0.1,
                peak: 0.5,
                period: Time::from_ms(2),
                burst_frac: 0.3,
            },
            slo: Time::from_us(300),
        },
    ]
}

pub fn openloop_point(proto: Proto, seed: u64, w: Windows) -> OpenLoopPoint {
    OpenLoopPoint {
        proto,
        topo: openloop_topo(),
        dist: DistKind::WebSearch,
        load: OPENLOOP_LOAD,
        seed,
        warmup: w.warmup,
        measure: w.measure,
        drain: w.drain,
    }
}

pub fn rpc_point(proto: Proto, seed: u64, w: Windows) -> RpcPoint {
    RpcPoint {
        proto,
        topo: rpc_topo(),
        tenants: rpc_tenants(),
        seed,
        warmup: w.warmup,
        measure: w.measure,
        drain: w.drain,
        sched: None,
        key: "bench".into(),
    }
}

/// The open-loop flow stream of a seed — the one `openloop_run` replays
/// for every transport. The seed mixes here and in [`rpc_stream`] repeat
/// the harness runners', so the set-up and generation kernels see the
/// streams the timed points see.
pub fn openloop_stream(n_hosts: usize, link_bps: u64, seed: u64, w: Windows) -> DynamicWorkload {
    let sizes = DistKind::WebSearch.cdf();
    let process = ArrivalProcess::poisson_for_load(OPENLOOP_LOAD, link_bps, sizes.mean_size());
    DynamicWorkload::new(
        n_hosts,
        process,
        sizes,
        seed ^ 0xD15C,
        w.arrivals_end().as_ps(),
    )
}

/// The RPC request stream of a seed on a built fabric.
pub fn rpc_stream(topo: &dyn Topology, seed: u64, w: Windows) -> RpcWorkload {
    let mix = resolve_mix(&rpc_tenants(), topo);
    RpcWorkload::new(topo.n_hosts(), mix, seed ^ 0x52BC, w.arrivals_end().as_ps())
}

/// A simulated-time output of a workload's NDP point.
#[derive(Clone, Debug)]
pub struct SimMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Queue and host counters of the permutation world.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    pub forwarded_pkts: u64,
    pub trimmed: u64,
    pub bounced: u64,
    pub dropped: u64,
    pub max_queue_bytes: u64,
    pub pulls_sent: u64,
}

/// Engine counters of one transport's point.
#[derive(Clone, Copy, Debug)]
pub struct ProtoCounters {
    pub proto: Proto,
    pub events: u64,
    pub kinds: EventKindCounts,
    /// Flows (or request legs) the point offered; 0 when unknown.
    pub flows: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub kinds: EventKindCounts,
    pub events: u64,
    /// Payload KB delivered, where the harness reports it.
    pub delivered_kb: Option<f64>,
    pub peak_live_components: usize,
    pub peak_live_flows: usize,
    pub peak_live_requests: usize,
    /// Components left at the end beyond the pre-traffic baseline.
    pub arena_leak: i64,
    pub per_proto: Vec<ProtoCounters>,
    pub net: Option<NetCounters>,
}

/// What one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub sim: Vec<SimMetric>,
    /// The simulated outputs, one line per point; equal lines mean equal
    /// results.
    pub digest: Vec<String>,
    /// Failed output checks.
    pub violations: Vec<String>,
    pub counters: Counters,
}

impl Outcome {
    /// FNV-1a over the digest lines.
    pub fn digest_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &self.digest {
            for b in line.bytes().chain(std::iter::once(b'\n')) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Build every point of `w` up to its first `run_until`, then drop it:
/// topology build, workload resolve and initial attaches.
pub fn setup(w: Workload, seed: u64, size: &Size) {
    match w {
        Workload::FabricPermutation => {
            std::hint::black_box(permutation_setup(seed, &mut Tracer::new(false)));
        }
        Workload::OpenloopWebsearch => {
            for &proto in w.protos() {
                let win = size.openloop;
                let mut world: World<Packet> = World::new(seed);
                let topo: Arc<dyn Topology> =
                    Arc::from(openloop_topo().build(&mut world, proto.fabric()));
                attach_sink(&mut world, topo.as_ref());
                let stream =
                    openloop_stream(topo.n_hosts(), topo.host_link_speed().as_bps(), seed, win);
                Spawner::install_into(&mut world, proto, topo, stream, win.warmup);
                std::hint::black_box(world);
            }
        }
        Workload::RpcTenantMix => {
            for &proto in w.protos() {
                let win = size.rpc;
                let mut world: World<Packet> = World::new(seed);
                let topo: Arc<dyn Topology> =
                    Arc::from(rpc_topo().build(&mut world, proto.fabric()));
                attach_sink(&mut world, topo.as_ref());
                let stream = rpc_stream(topo.as_ref(), seed, win);
                RpcDriver::install_into(&mut world, proto, topo, stream, win.warmup);
                std::hint::black_box(world);
            }
        }
    }
}

/// The totals-only completion sink the harness runners install.
fn attach_sink(world: &mut World<Packet>, topo: &dyn Topology) {
    let sink = world.add(CompletionSink::totals_only());
    for h in 0..topo.n_hosts() {
        world
            .get_mut::<Host>(topo.host(h as HostId))
            .set_completion_sink(sink);
    }
}

/// Run `w` for the given transports (a subset of [`Workload::protos`]).
pub fn run(w: Workload, seed: u64, size: &Size, protos: &[Proto], tr: &mut Tracer) -> Outcome {
    match w {
        Workload::FabricPermutation => permutation(seed, size.permutation, tr),
        Workload::OpenloopWebsearch => openloop(seed, size.openloop, protos, tr),
        Workload::RpcTenantMix => rpc(seed, size.rpc, protos, tr),
    }
}

struct PermutationWorld {
    world: World<Packet>,
    topo: Box<dyn Topology>,
    dsts: Vec<usize>,
    baseline: usize,
}

fn permutation_setup(seed: u64, tr: &mut Tracer) -> PermutationWorld {
    let proto = Proto::Ndp;
    let mut world: World<Packet> = World::new(seed);
    let topo = tr.span(Layer::Topology, "build", || {
        permutation_topo().build(&mut world, proto.fabric())
    });
    let baseline = world.live_components();
    let n = topo.n_hosts();
    let dsts = tr.span(Layer::Workloads, "permutation", || {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xDEAD);
        ndp_workloads::permutation(n, &mut rng)
    });
    tr.span(Layer::Transport, "attach", || {
        for (src, &dst) in dsts.iter().enumerate() {
            let spec = FlowSpec::new(src as u64 + 1, src as u32, dst as u32, LONG_FLOW);
            attach_on(&mut world, topo.as_ref(), proto, &spec);
        }
    });
    PermutationWorld {
        world,
        topo,
        dsts,
        baseline,
    }
}

fn permutation(seed: u64, window: Time, tr: &mut Tracer) -> Outcome {
    let proto = Proto::Ndp;
    let PermutationWorld {
        mut world,
        topo,
        dsts,
        baseline,
    } = permutation_setup(seed, tr);
    for i in 1..=RUN_CHUNKS {
        let until = Time::from_ps(window.as_ps() / RUN_CHUNKS * i);
        tr.span(Layer::Sim, "run_until", || world.run_until(until));
    }
    let bytes: Vec<u64> = tr.span(Layer::Transport, "harvest", || {
        dsts.iter()
            .enumerate()
            .map(|(src, &dst)| {
                delivered_bytes(&world, topo.host(dst as u32), src as u64 + 1, proto)
            })
            .collect()
    });
    let line = topo.host_link_speed().as_gbps();
    let mut out = Outcome::default();
    let (gbps, util, net) = tr.span(Layer::Metrics, "summarise", || {
        let gbps: Vec<f64> = bytes
            .iter()
            .map(|&b| b as f64 * 8.0 / window.as_secs() / 1e9)
            .collect();
        let util = gbps.iter().sum::<f64>() / (gbps.len() as f64 * line);
        let mut net = NetCounters::default();
        for (_, st) in topo.stats_by_class(&world) {
            net.forwarded_pkts += st.forwarded_pkts;
            net.trimmed += st.trimmed;
            net.bounced += st.bounced;
            net.dropped += st.dropped_data + st.dropped_ctrl + st.dropped_down;
            net.max_queue_bytes = net.max_queue_bytes.max(st.max_occupancy_bytes);
        }
        net.pulls_sent = (0..topo.n_hosts())
            .map(|h| world.get::<Host>(topo.host(h as HostId)).stats().pulls_sent)
            .sum();
        (gbps, util, net)
    });
    let n = gbps.len();
    out.attempted = n as u64;
    out.failed = gbps.iter().filter(|&&g| g < line / 10.0).count() as u64;
    for (i, &g) in gbps.iter().enumerate() {
        out.check(g <= line, || {
            format!("flow {} goodput {g} Gb/s exceeds line rate {line}", i + 1)
        });
    }
    out.check(util >= 0.9, || {
        format!("NDP permutation utilisation {util:.4} is below 0.9")
    });
    out.sim.push(SimMetric {
        name: "sim_util",
        unit: "ratio",
        value: util,
        samples: n,
    });
    let mut sorted = gbps.clone();
    sorted.sort_by(f64::total_cmp);
    out.digest.push(format!(
        "fabric_permutation/NDP flows={n} util={util:?} min_gbps={:?} max_gbps={:?} \
         bytes_hash={:016x} events={} trimmed={} bounced={} dropped={}",
        sorted[0],
        sorted[n - 1],
        hash_u64s(&bytes),
        world.events_processed(),
        net.trimmed,
        net.bounced,
        net.dropped
    ));
    let kinds = world.event_kind_counts();
    let events = world.events_processed();
    out.counters = Counters {
        kinds,
        events,
        delivered_kb: Some(bytes.iter().sum::<u64>() as f64 / 1e3),
        peak_live_components: world.peak_live_components(),
        peak_live_flows: n,
        peak_live_requests: 0,
        arena_leak: world.live_components() as i64 - baseline as i64,
        per_proto: vec![ProtoCounters {
            proto,
            events,
            kinds,
            flows: n as u64,
        }],
        net: Some(net),
    };
    out
}

fn openloop(seed: u64, win: Windows, protos: &[Proto], tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut delivered = 0u64;
    for &proto in protos {
        let r: OpenLoopResult = tr.span(Layer::Experiments, "openloop_run", || {
            openloop_run(openloop_point(proto, seed, win))
        });
        let label = proto.label();
        let summary = tr.span(Layer::Metrics, "summarise", || {
            let s = &r.slowdown;
            let bins: Vec<String> = (0..s.n_bins())
                .map(|i| {
                    format!(
                        "{}:{:?}/{:?}",
                        s.bin(i).len(),
                        s.percentile(i, 0.5),
                        s.percentile(i, 0.99)
                    )
                })
                .collect();
            let overall = (!s.is_empty())
                .then(|| (s.overall().percentile(0.5), s.overall().percentile(0.99)));
            (bins, overall)
        });
        let (bins, overall) = summary;
        let completed = r.slowdown.len();
        out.attempted += r.measured as u64;
        out.failed += r.incomplete as u64;
        out.check(completed + r.incomplete == r.measured, || {
            format!(
                "openloop {label}: completed {completed} + incomplete {} != measured {}",
                r.incomplete, r.measured
            )
        });
        let leak = r.live_components_end as i64 - r.live_components_baseline as i64;
        out.check(leak == 0, || {
            format!("openloop {label}: arena leak of {leak} components")
        });
        if proto == Proto::Ndp {
            match overall {
                Some((p50, p99)) => {
                    let beyond = samples_beyond(completed, 0.99);
                    out.check(beyond >= 10, || {
                        format!("openloop NDP p99 has only {beyond} samples beyond it")
                    });
                    out.sim.push(SimMetric {
                        name: "sim_slowdown_p50",
                        unit: "ratio",
                        value: p50,
                        samples: completed,
                    });
                    out.sim.push(SimMetric {
                        name: "sim_slowdown_p99",
                        unit: "ratio",
                        value: p99,
                        samples: completed,
                    });
                }
                None => out
                    .violations
                    .push("openloop NDP completed no flows".into()),
            }
        }
        out.digest.push(format!(
            "openloop_websearch/{label} measured={} incomplete={} offered={} delivered={} \
             events={} bins={}",
            r.measured,
            r.incomplete,
            r.offered,
            r.delivered_bytes,
            r.events_processed,
            bins.join(",")
        ));
        delivered += r.delivered_bytes;
        let c = &mut out.counters;
        c.kinds = c.kinds + r.event_kinds;
        c.events += r.events_processed;
        c.peak_live_components = c.peak_live_components.max(r.peak_live_components);
        c.peak_live_flows = c.peak_live_flows.max(r.peak_live_flows);
        c.arena_leak += leak;
        c.per_proto.push(ProtoCounters {
            proto,
            events: r.events_processed,
            kinds: r.event_kinds,
            flows: r.offered as u64,
        });
    }
    out.counters.delivered_kb = Some(delivered as f64 / 1e3);
    out
}

fn rpc(seed: u64, win: Windows, protos: &[Proto], tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    for &proto in protos {
        let r: RpcPointResult = tr.span(Layer::Experiments, "rpc_world_run", || {
            rpc_world_run(&rpc_point(proto, seed, win))
        });
        let label = proto.label();
        let tenants: Vec<String> = tr.span(Layer::Metrics, "summarise", || {
            r.tenants
                .iter()
                .map(|t| {
                    format!(
                        "{}:{}/{}/{}/{:016x}",
                        t.name, t.offered, t.completed, t.incomplete, t.fingerprint
                    )
                })
                .collect()
        });
        for t in &r.tenants {
            out.attempted += t.offered;
            out.failed += t.incomplete;
            out.check(t.completed + t.incomplete == t.offered, || {
                format!(
                    "rpc {label}/{}: completed {} + incomplete {} != offered {}",
                    t.name, t.completed, t.incomplete, t.offered
                )
            });
        }
        let leak = r.live_components_end as i64 - r.live_components_baseline as i64;
        out.check(leak == 0, || {
            format!("rpc {label}: arena leak of {leak} components")
        });
        if proto == Proto::Ndp {
            let web = &r.tenants[0];
            out.check(web.incomplete == 0, || {
                format!(
                    "rpc NDP {}: {} requests incomplete",
                    web.name, web.incomplete
                )
            });
            let n = web.completed as usize;
            let beyond = samples_beyond(n, 0.99);
            out.check(beyond >= 10, || {
                format!("rpc NDP p99 has only {beyond} samples beyond it")
            });
            match (web.p50_us, web.p99_us) {
                (Some(p50), Some(p99)) => {
                    out.sim.push(SimMetric {
                        name: "sim_rpc_p50_us",
                        unit: "us",
                        value: p50,
                        samples: n,
                    });
                    out.sim.push(SimMetric {
                        name: "sim_rpc_p99_us",
                        unit: "us",
                        value: p99,
                        samples: n,
                    });
                }
                _ => out
                    .violations
                    .push("rpc NDP web-search tenant has no supported p50/p99".into()),
            }
        }
        out.digest.push(format!(
            "rpc_tenant_mix/{label} offered={} measured={} events={} tenants={}",
            r.offered,
            r.measured,
            r.events_processed,
            tenants.join(",")
        ));
        let c = &mut out.counters;
        c.kinds = c.kinds + r.event_kinds;
        c.events += r.events_processed;
        c.peak_live_components = c.peak_live_components.max(r.peak_live_components);
        c.peak_live_flows = c.peak_live_flows.max(r.peak_live_flows);
        c.peak_live_requests = c.peak_live_requests.max(r.peak_live_requests);
        c.arena_leak += leak;
        c.per_proto.push(ProtoCounters {
            proto,
            events: r.events_processed,
            kinds: r.event_kinds,
            flows: 0,
        });
    }
    out
}

fn hash_u64s(xs: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_sim::{set_default_scheduler, SchedulerKind};

    fn run_all(seed: u64) -> Vec<Outcome> {
        Workload::ALL
            .iter()
            .map(|&w| run(w, seed, &SHORT, w.protos(), &mut Tracer::new(false)))
            .collect()
    }

    fn assert_same(a: &[Outcome], b: &[Outcome], what: &str) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.digest, y.digest, "{what}: digests differ");
            assert_eq!(x.counters.events, y.counters.events, "{what}: events");
            assert_eq!(x.counters.kinds, y.counters.kinds, "{what}: event kinds");
            assert_eq!((x.attempted, x.failed), (y.attempted, y.failed), "{what}");
            assert_eq!(x.violations, y.violations, "{what}: checks");
        }
    }

    // One test body: the default scheduler is process-wide state.
    #[test]
    fn outputs_repeat_per_seed_and_across_schedulers() {
        let first = run_all(11);
        assert!(first
            .iter()
            .all(|o| !o.digest.is_empty() && o.attempted > 0));
        assert_same(&first, &run_all(11), "same seed twice");

        set_default_scheduler(SchedulerKind::Classic);
        let classic = run_all(11);
        set_default_scheduler(SchedulerKind::TwoTier);
        assert_same(&first, &classic, "classic scheduler");

        // The assembled permutation is the harness's permutation run.
        let harness = ndp_experiments::harness::permutation_run(
            Proto::Ndp,
            permutation_topo(),
            SHORT.permutation,
            11,
            None,
        );
        let util = first[0].sim[0].value;
        assert!(
            (util - harness.utilization).abs() < 1e-12,
            "{util} vs harness"
        );
        assert_eq!(first[0].counters.events, harness.events_processed);
    }
}
