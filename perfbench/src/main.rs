//! The simulator's benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics in a separate traced run, and a
//! steadiness mode that repeats runs in fresh processes.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric_permutation --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits with
//! 1 when an output check failed and with 2 on a usage error. See
//! `perfbench/README.md` for the metrics and workloads.

mod kernels;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ndp_experiments::harness::Proto;
use ndp_experiments::json::{self, Json};
use ndp_perfbench_reference as reference;

use crate::trace::{Layer, Tracer};
use crate::workload::{Outcome, Workload, FULL, PROTOS};

const USAGE: &str = "usage: ndp-perfbench --workload <fabric_permutation|openloop_websearch|\
rpc_tenant_mix> --seed <n> --seconds <n> --trace <0|1>\n       \
ndp-perfbench --steadiness <runs> --seed <first seed> --seconds <n>";

/// Timed repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Set-up repetitions, each in a fresh process: after every timed
/// repetition, as many as start within this slice (at least one), and
/// at least this many in all.
const SETUP_SLICE: Duration = Duration::from_millis(100);
const SETUP_MIN_REPS: usize = 15;

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_norm", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
    ("sim_util", "ratio"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
    /// Time one set-up of the workload in this fresh process and exit.
    setup_once: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 10,
        trace: false,
        steadiness: None,
        setup_once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value '{value}' for {flag}")),
                }
            }
            "--steadiness" => args.steadiness = Some(value.parse().map_err(bad)?),
            "--setup-once" => args.setup_once = value == "1",
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload.is_none() && args.steadiness.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A run's result: the benchmark's last output line.
struct Report {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report {
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.violations.is_empty())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steadiness {
        return steadiness(runs, args.seed, args.seconds);
    }
    let w = args.workload.expect("checked by parse_args");
    if args.setup_once {
        let t = Instant::now();
        workload::setup(w, args.seed, &FULL);
        println!("{}", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let seconds = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced(w, args.seed, seconds)
    } else {
        measured(w, args.seed, seconds)
    };
    for v in &report.violations {
        println!("CHECK FAILED: {v}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", report.json());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Process peak resident memory (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak_rss_mb reads /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

fn print_digest(out: &Outcome) {
    for line in &out.digest {
        println!("digest {line}");
    }
}

/// Append set-up seconds of every point of `w` to `samples`: at least
/// `min` set-ups, then more while `slice` lasts. Each set-up runs first
/// thing in a fresh process, as a user's run pays it: in one long-lived
/// process, whether the allocator hands back the previous repetition's
/// pages or faults in new ones changes from process to process, and
/// that moved the permutation's median between ~18 ms and ~45 ms.
fn setup_samples(w: Workload, seed: u64, min: usize, slice: Duration, samples: &mut Vec<f64>) {
    let exe = std::env::current_exe().expect("own executable path");
    let start = Instant::now();
    let mut ran = 0;
    while ran < min || start.elapsed() < slice {
        ran += 1;
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--setup-once", "1"])
            .output()
            .expect("run a set-up process");
        let secs = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        match secs {
            Ok(secs) if out.status.success() => samples.push(secs),
            _ => panic!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    }
}

/// What the timed repetitions measured, one entry per repetition.
struct Timings {
    /// Host seconds of the repetition's simulation points.
    walls: Vec<f64>,
    /// The sum over the repetition's points of each point's seconds over
    /// the mean of the reference kernel's seconds right before and right
    /// after it.
    norms: Vec<f64>,
    /// Host seconds of each reference run, one more than points run.
    refs: Vec<f64>,
    /// Host seconds of each set-up, taken between repetitions so that
    /// they sample the host's speed over the whole run.
    setups: Vec<f64>,
    /// Peak resident memory in MB after the untimed first repetition.
    peak_rss_mb: f64,
}

/// Timed repetitions of `w` for `seconds` (at least [`MIN_REPS`]), after
/// an untimed first one. Each simulation point (one per transport) is
/// bracketed by runs of the reference kernel, so the host's speed is
/// sampled every second or two. Each repetition must reproduce the first
/// one's outputs.
fn timed_reps(
    w: Workload,
    seed: u64,
    seconds: Duration,
    report: &mut Report,
) -> (Timings, Outcome) {
    // The untimed first repetition warms up, gives the outputs and the
    // operation counts every repetition repeats (so the counts depend on
    // the seed, not on how many repetitions fit in the time), and the
    // peak memory of the simulation alone: the reference kernel has not
    // run yet, and the allocator keeps what it frees.
    let first = workload::run(w, seed, &FULL, w.protos(), &mut Tracer::new(false));
    report.attempted = first.attempted;
    report.failed = first.failed;
    let mut tm = Timings {
        walls: Vec::new(),
        norms: Vec::new(),
        refs: Vec::new(),
        setups: Vec::new(),
        peak_rss_mb: peak_rss_mb(),
    };
    let deadline = Instant::now() + seconds;
    reference::seconds(); // warm-up: first-touch page faults
    tm.refs.push(reference::seconds());
    loop {
        let rep = Instant::now();
        let (mut wall, mut norm) = (0.0, 0.0);
        let mut points = Vec::new();
        for &proto in w.protos() {
            let t = Instant::now();
            points.push(workload::run(
                w,
                seed,
                &FULL,
                &[proto],
                &mut Tracer::new(false),
            ));
            let secs = t.elapsed().as_secs_f64();
            let before = tm.refs[tm.refs.len() - 1];
            let after = reference::seconds();
            tm.refs.push(after);
            wall += secs;
            norm += secs / ((before + after) / 2.0);
        }
        setup_samples(w, seed, 1, SETUP_SLICE, &mut tm.setups);
        tm.walls.push(wall);
        tm.norms.push(norm);
        let n = tm.walls.len();
        println!("repetition {n}: {wall:.6} s, normalised {norm:.4}");
        let digest: Vec<String> = points.into_iter().flat_map(|o| o.digest).collect();
        if digest != first.digest {
            report.violations.push(format!(
                "repetition {n} of {} changed the simulated outputs",
                w.name()
            ));
        }
        // Stop before a repetition that would end past the deadline.
        if n >= MIN_REPS && Instant::now() + rep.elapsed() > deadline {
            break;
        }
    }
    let short = SETUP_MIN_REPS.saturating_sub(tm.setups.len());
    setup_samples(w, seed, short, Duration::ZERO, &mut tm.setups);
    (tm, first)
}

/// The end-to-end run: tracing off.
fn measured(w: Workload, seed: u64, seconds: Duration) -> Report {
    let mut report = Report::new();
    let (mut tm, out) = timed_reps(w, seed, seconds, &mut report);
    println!(
        "{}: {} timed repetitions, seed {seed}, digest {:016x}",
        w.name(),
        tm.walls.len(),
        out.digest_hash()
    );
    // Printed beside `wall_norm`, not bounded: they follow the host's speed.
    println!("wall_s = {} s (median)", stats::median(&mut tm.walls));
    println!("reference_s = {} s (median)", stats::median(&mut tm.refs));
    println!("setup: {} fresh processes", tm.setups.len());
    print_digest(&out);
    report.violations.extend(out.violations.iter().cloned());
    let mut sim = out.sim.clone();
    if w != Workload::FabricPermutation {
        println!("generator lateness: none, arrivals are scheduled in simulated time");
        // Every run reports every end-to-end metric: the permutation's
        // NDP point runs once more here, untimed and after the memory
        // reading, for `sim_util`.
        let o = workload::run(
            Workload::FabricPermutation,
            seed,
            &FULL,
            &[Proto::Ndp],
            &mut Tracer::new(false),
        );
        print_digest(&o);
        report.violations.extend(o.violations);
        sim.extend(o.sim);
    }
    for m in &sim {
        println!(
            "{} = {} {} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    let completed_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    for (name, unit) in END_TO_END {
        let value = match name {
            "wall_norm" => stats::median(&mut tm.norms),
            "setup_s" => stats::median(&mut tm.setups),
            "peak_rss_mb" => tm.peak_rss_mb,
            "completed_frac" => completed_frac,
            _ => match sim.iter().find(|m| m.name == name) {
                Some(m) => m.value,
                None => {
                    report.violations.push(format!("{name} was not measured"));
                    f64::NAN
                }
            },
        };
        report.metric(name, value, unit);
    }
    report
}

fn lower(p: Proto) -> String {
    p.label().to_ascii_lowercase()
}

/// Host ns inside the spans that run the event loop: the `run_until`
/// chunks the benchmark makes itself, or whole harness points.
fn event_loop_ns(t: &Tracer, run: u32) -> u64 {
    t.total_ns(run, Layer::Sim, "run_until")
        + t.total_ns(run, Layer::Experiments, "openloop_run")
        + t.total_ns(run, Layer::Experiments, "rpc_world_run")
}

/// The traced run: per-layer metrics.
fn traced(w: Workload, seed: u64, seconds: Duration) -> Report {
    let mut report = Report::new();
    let mut tracer = Tracer::new(true);

    // Untraced and traced repetitions, alternating, for `seconds` (at
    // least one pair).
    let deadline = Instant::now() + seconds;
    let (mut plain, mut spanned, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let out = loop {
        let t = Instant::now();
        let reference = workload::run(w, seed, &FULL, w.protos(), &mut Tracer::new(false));
        plain.push(t.elapsed().as_secs_f64());
        let run = tracer.begin_run();
        let root = tracer.enter(Layer::Bench, w.name());
        let t = Instant::now();
        let out = workload::run(w, seed, &FULL, w.protos(), &mut tracer);
        spanned.push(t.elapsed().as_secs_f64());
        tracer.exit(root);
        runs.push(run);
        report.attempted = out.attempted;
        report.failed = out.failed;
        if reference.digest != out.digest {
            report
                .violations
                .push("tracing changed the simulated outputs".into());
        }
        let pair = Duration::from_secs_f64(plain[plain.len() - 1] + spanned[spanned.len() - 1]);
        if Instant::now() + pair > deadline {
            break out;
        }
    };
    report.violations.extend(out.violations.iter().cloned());
    println!(
        "{}: {} untraced + {} traced repetitions, seed {seed}, digest {:016x}",
        w.name(),
        plain.len(),
        spanned.len(),
        out.digest_hash()
    );
    print_digest(&out);

    let c = &out.counters;
    let gen = kernels::generation(seed, &FULL);
    let kb = match w {
        // The RPC harness reports no delivered bytes: every transport
        // replays the same request stream, so count its offered payload.
        Workload::RpcTenantMix => gen.request_bytes as f64 / 1e3 * w.protos().len() as f64,
        _ => c
            .delivered_kb
            .expect("permutation and open loop report bytes"),
    };
    let mut loop_ns: Vec<f64> = runs
        .iter()
        .map(|&r| event_loop_ns(&tracer, r) as f64)
        .collect();
    report.metric("sim.events", c.events as f64, "count");
    report.metric("sim.posts_forward", c.kinds.forward as f64, "count");
    report.metric("sim.posts_timed", c.kinds.timed_msg as f64, "count");
    report.metric("sim.posts_wake", c.kinds.wake as f64, "count");
    report.metric("sim.events_per_kb", c.events as f64 / kb, "1/KB");
    report.metric(
        "sim.run_ns_per_event",
        stats::median(&mut loop_ns) / c.events as f64,
        "ns",
    );
    report.metric(
        "sim.peak_live_components",
        c.peak_live_components as f64,
        "count",
    );

    // Isolation kernels.
    let mut ks = vec![
        kernels::post_pop(seed, false, 4_000_000),
        kernels::post_pop(seed, true, 1_000_000),
        kernels::forwarding(seed, 64, 2_000),
        kernels::forwarding(seed, 9000, 2_000),
    ];
    for p in PROTOS {
        let (a, d) = kernels::attach_detach(seed, p, 20_000);
        ks.push(a);
        ks.push(d);
    }
    ks.push(gen.flows.clone());
    ks.push(gen.requests.clone());
    ks.push(kernels::ideal_fct(seed, &FULL));
    ks.push(kernels::record(
        seed,
        gen.flows_offered,
        gen.requests_offered,
    ));
    let (build, components) = kernels::topology_build(w, seed);
    ks.push(build);
    for k in &ks {
        println!(
            "kernel {}: {:.2} ns/op over {} ops",
            k.name, k.ns_per_op, k.ops
        );
        report.violations.extend(k.violations.iter().cloned());
    }
    let ns = |name: &str| {
        ks.iter()
            .find(|k| k.name == name)
            .map(|k| k.ns_per_op)
            .expect("kernel ran")
    };
    report.metric("sim.post_pop_lane_ns", ns("sim.post_pop_lane"), "ns");
    report.metric("sim.post_pop_spread_ns", ns("sim.post_pop_spread"), "ns");

    // Queue and host counters come from the permutation world.
    let net = match w {
        Workload::FabricPermutation => c.net,
        _ => {
            workload::run(
                Workload::FabricPermutation,
                seed,
                &FULL,
                &[Proto::Ndp],
                &mut Tracer::new(false),
            )
            .counters
            .net
        }
    }
    .expect("the permutation world reports net counters");
    report.metric("net.fwd_ns_per_hop_64b", ns("net.fwd_64B"), "ns");
    report.metric("net.fwd_ns_per_hop_mtu", ns("net.fwd_9000B"), "ns");
    report.metric("net.forwarded_pkts", net.forwarded_pkts as f64, "count");
    report.metric("net.trimmed", net.trimmed as f64, "count");
    report.metric(
        "net.trim_frac",
        net.trimmed as f64 / net.forwarded_pkts as f64,
        "ratio",
    );
    report.metric("net.bounced", net.bounced as f64, "count");
    report.metric("net.dropped", net.dropped as f64, "count");
    report.metric("net.max_queue_kb", net.max_queue_bytes as f64 / 1e3, "KB");
    report.metric("net.pulls_sent", net.pulls_sent as f64, "count");

    report.metric("topology.build_ns", ns("topology.build"), "ns");
    report.metric("topology.components", components as f64, "count");
    report.metric("topology.ideal_fct_ns", ns("topology.ideal_fct"), "ns");

    // Per-transport engine work comes from the open-loop points.
    let per_proto = match w {
        Workload::OpenloopWebsearch => c.per_proto.clone(),
        _ => {
            workload::run(
                Workload::OpenloopWebsearch,
                seed,
                &FULL,
                &PROTOS,
                &mut Tracer::new(false),
            )
            .counters
            .per_proto
        }
    };
    for p in PROTOS {
        let l = lower(p);
        report.metric(
            format!("transport.attach_ns.{l}"),
            ns(&format!("transport.attach.{l}")),
            "ns",
        );
        report.metric(
            format!("transport.detach_ns.{l}"),
            ns(&format!("transport.detach.{l}")),
            "ns",
        );
        let pc = per_proto
            .iter()
            .find(|pc| pc.proto == p)
            .expect("every transport ran");
        report.metric(
            format!("transport.events_per_flow.{l}"),
            pc.events as f64 / pc.flows as f64,
            "count",
        );
        report.metric(
            format!("transport.wake_share.{l}"),
            pc.kinds.wake as f64 / pc.kinds.total() as f64,
            "ratio",
        );
    }

    report.metric("workloads.gen_ns_per_flow", gen.flows.ns_per_op, "ns");
    report.metric("workloads.gen_ns_per_request", gen.requests.ns_per_op, "ns");
    report.metric("workloads.flows_offered", gen.flows_offered as f64, "count");
    report.metric(
        "workloads.requests_offered",
        gen.requests_offered as f64,
        "count",
    );
    report.metric(
        "workloads.legs_per_request",
        gen.legs as f64 / gen.requests_offered as f64,
        "count",
    );

    report.metric(
        "experiments.peak_live_flows",
        c.peak_live_flows as f64,
        "count",
    );
    report.metric(
        "experiments.peak_live_requests",
        c.peak_live_requests as f64,
        "count",
    );
    report.metric("experiments.arena_leak", c.arena_leak as f64, "count");

    report.metric("metrics.record_ns", ns("metrics.record"), "ns");

    let (overhead, records) = telemetry_overhead(seed);
    report.metric("telemetry.overhead_frac", overhead, "ratio");
    report.metric("telemetry.span_records", records as f64, "count");

    // Self time per layer: median over the traced repetitions.
    for layer in Layer::ALL {
        let mut s: Vec<f64> = runs
            .iter()
            .map(|&r| {
                tracer
                    .self_seconds(r)
                    .into_iter()
                    .find(|(l, _)| *l == layer)
                    .map_or(0.0, |(_, s)| s)
            })
            .collect();
        report.metric(
            format!("{}.self_s", layer.name()),
            stats::median(&mut s),
            "s",
        );
    }
    let overhead = stats::median(&mut spanned) / stats::median(&mut plain) - 1.0;
    report.metric("trace.overhead_frac", overhead, "ratio");

    let path = format!("perfbench/out/trace-{}-seed{seed}.ndjson", w.name());
    match std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, tracer.to_ndjson(w.name(), seed)))
    {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => report.violations.push(format!("cannot write {path}: {e}")),
    }
    report
}

/// `rpc_tenant_mix`'s NDP point with a telemetry session active against
/// the same point with none: two alternating pairs, medians compared.
/// Also returns the span and request records one session collected.
fn telemetry_overhead(seed: u64) -> (f64, usize) {
    let point = workload::rpc_point(Proto::Ndp, seed, FULL.rpc);
    let (mut off, mut on, mut records) = (Vec::new(), Vec::new(), 0);
    for _ in 0..2 {
        let t = Instant::now();
        std::hint::black_box(ndp_experiments::rpc::rpc_world_run(&point));
        off.push(t.elapsed().as_secs_f64());
        ndp_telemetry::session::begin(ndp_telemetry::TelemetryConfig::default());
        let t = Instant::now();
        std::hint::black_box(ndp_experiments::rpc::rpc_world_run(&point));
        on.push(t.elapsed().as_secs_f64());
        let (_, points) = ndp_telemetry::session::end().expect("session was begun");
        records = points
            .iter()
            .map(|p| p.spans.len() + p.requests.len())
            .sum();
    }
    (
        stats::median(&mut on) / stats::median(&mut off) - 1.0,
        records,
    )
}

/// Run every workload `runs` times in fresh processes, alternating the
/// workload order and stepping the seed, and print the median, quartiles
/// and spread of each end-to-end metric.
fn steadiness(runs: usize, first_seed: u64, seconds: u64) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<(Workload, &str, Vec<f64>)> = Vec::new();
    for i in 0..runs {
        let mut order = Workload::ALL;
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = first_seed + i as u64;
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let doc = match json::parse(last) {
                Ok(doc) if out.status.success() => doc,
                _ => {
                    eprintln!("{} seed {seed} failed:\n{stdout}", w.name());
                    return ExitCode::from(1);
                }
            };
            print!("{} seed {seed}:", w.name());
            for (name, _) in END_TO_END {
                let v = doc
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("every end-to-end metric is reported");
                print!(" {name}={v:.6}");
                match values
                    .iter_mut()
                    .find(|(vw, vn, _)| *vw == w && *vn == name)
                {
                    Some((_, _, vs)) => vs.push(v),
                    None => values.push((w, name, vec![v])),
                }
            }
            println!();
        }
    }
    println!("workload metric median q1 q3 spread");
    for (w, name, vs) in &mut values {
        let (q1, q3) = if vs.len() >= 2 {
            stats::quartiles(vs)
        } else {
            (vs[0], vs[0])
        };
        let median = stats::median(vs);
        println!(
            "{} {name} {median:.6} {q1:.6} {q3:.6} {:.4}",
            w.name(),
            (q3 - q1) / median
        );
    }
    ExitCode::SUCCESS
}
