//! Regenerate (or gate on) `BENCH_engine.json`: the hot-path engine suite.
//!
//! Three workloads with very different event mixes — steady long-flow
//! permutation, a trim-heavy large incast, and dynamic open-loop traffic —
//! each measured as *effective* events/sec: the unfused reference event
//! count (explicit `Pipe` per link, the seed's wiring) divided by the wall
//! time of the fused-hop run that produces bit-identical results. That
//! credits hop fusion for the events it makes unnecessary while staying
//! comparable with the committed pre-fusion events/sec trajectory.
//!
//! Usage (from the repository root):
//!
//! ```sh
//! cargo run --release -p ndp-bench --bin engine_json [reps]      # regenerate
//! cargo run --release -p ndp-bench --bin engine_json -- --check  # CI perf gate
//! ```
//!
//! `--check` re-measures the suite and exits non-zero if the geometric-mean
//! events/sec regressed more than 10% below the committed
//! `BENCH_engine.json`; commits tagged `[skip-perf-gate]` bypass it in CI.
//! It also prints a per-workload delta table against the committed file and,
//! when `GITHUB_STEP_SUMMARY` is set (as in CI), appends the same table as
//! markdown to the job summary. The best of `reps` runs (default 3) is
//! reported per workload to filter scheduling noise.
//!
//! Alongside the three end-to-end workloads the suite tracks a
//! **scheduler-only post/pop kernel** (`sched_post_pop`): raw engine posts at
//! hot, granule-aligned, overflow and zero delays with a no-op component, so
//! scheduler regressions are visible even when protocol work masks them.
//! The kernel is recorded in `BENCH_engine.json` but excluded from the gated
//! geomean (its rate is an order of magnitude above the workloads').

use ndp_experiments::harness::{incast_run, permutation_run, Proto};
use ndp_experiments::json;
use ndp_experiments::openloop::{openloop_run, DistKind};
use ndp_experiments::sweep::OpenLoopPoint;
use ndp_experiments::topo::TopoSpec;
use ndp_sim::{Component, Ctx, Event, Time, World};
use ndp_topology::{FatTreeCfg, LeafSpineCfg};
use std::time::Instant;

/// The committed two-tier events/sec of the pre-fusion single-workload
/// suite (NDP permutation, k=8): the trajectory this suite is gated
/// against.
const PRE_FUSION_EPS: f64 = 15_905_998.0;

/// Allowed relative slack before `--check` fails the build.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Run one workload to completion and return its dispatched-event count.
/// `fused` selects the default fused-hop wiring or the seed's explicit
/// `Pipe` reference; both produce bit-identical protocol behaviour (pinned
/// by the golden traces and the fused/unfused A/B proptests).
fn run_permutation(fused: bool) -> u64 {
    let cfg = if fused {
        FatTreeCfg::new(8)
    } else {
        FatTreeCfg::new(8).unfused()
    };
    let r = permutation_run(
        Proto::Ndp,
        TopoSpec::fattree(cfg),
        Time::from_ms(2),
        7,
        None,
    );
    assert!(
        r.utilization > 0.5,
        "degenerate permutation (util {:.2})",
        r.utilization
    );
    r.events_processed
}

fn run_incast(fused: bool) -> u64 {
    // 431-to-1 over a k=12 fat-tree (432 hosts), 450 KB per sender — the
    // paper's large-incast shape, dominated by trims and retransmissions.
    let cfg = if fused {
        FatTreeCfg::new(12)
    } else {
        FatTreeCfg::new(12).unfused()
    };
    let r = incast_run(
        Proto::Ndp,
        TopoSpec::fattree(cfg),
        431,
        450_000,
        None,
        7,
        Time::from_ms(500),
    );
    assert_eq!(r.incomplete, 0, "incast did not finish within the horizon");
    r.events_processed
}

fn run_openloop(fused: bool) -> u64 {
    let cfg = if fused {
        LeafSpineCfg::new(8, 4, 4)
    } else {
        LeafSpineCfg::new(8, 4, 4).unfused()
    };
    let r = openloop_run(OpenLoopPoint {
        proto: Proto::Ndp,
        topo: TopoSpec::leafspine(cfg),
        dist: DistKind::WebSearch,
        load: 0.6,
        seed: 7,
        warmup: Time::from_ms(2),
        measure: Time::from_ms(20),
        drain: Time::from_ms(20),
    });
    assert!(r.measured > 0, "open-loop point measured no flows");
    r.events_processed
}

/// Scheduler-only kernel: post bursts across the delay classes the engine
/// distinguishes — lane-hot repeats, a 65.536 ns delay, RTO-scale delays
/// and zero-delay refeeds — against a no-op component, so the measured rate
/// is pure post/pop cost.
fn run_sched_micro() -> (u64, f64) {
    struct Sink;
    impl Component<u64> for Sink {
        fn handle(&mut self, _ev: Event<u64>, _ctx: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    const ROUNDS: u64 = 40_000;
    const BATCH: u64 = 64;
    let mut w: World<u64> = World::new(7);
    let sink = w.add(Sink);
    let start = Instant::now();
    for round in 0..ROUNDS {
        let base = Time::from_ns(round * 1000);
        for i in 0..8 {
            w.post(w.now(), sink, i); // fast-lane refeed
        }
        for i in 0..BATCH {
            let d = match i % 16 {
                0..=7 => Time::from_ns(100),
                8..=11 => Time::from_ns(250),
                12 | 13 => Time::from_ns(777),
                14 => Time::from_ps(65_536),
                _ => Time::from_ms(3),
            };
            w.post(base + d, sink, i);
        }
        w.run_until(base + Time::from_ns(1000));
    }
    w.run_until_idle();
    (w.events_processed(), start.elapsed().as_secs_f64())
}

/// Best-of-`reps` post/pop rate of the scheduler kernel.
fn measure_sched(reps: usize) -> Row {
    eprintln!("measuring sched_post_pop ({reps} reps)...");
    let mut events = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (e, secs) = run_sched_micro();
        if events != 0 {
            assert_eq!(e, events, "sched kernel is nondeterministic");
        }
        events = e;
        best = best.min(secs);
    }
    Row {
        name: "sched_post_pop",
        describe: "scheduler-only kernel: 64-post bursts over lane-hot / granule / \
                   overflow delays plus zero-delay refeeds, no-op component, seed 7",
        ref_events: events,
        fused_events: events,
        ref_secs: best,
        best_secs: best,
    }
}

struct Workload {
    name: &'static str,
    describe: &'static str,
    run: fn(bool) -> u64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "permutation_k8",
        describe: "NDP permutation, k=8 FatTree (128 hosts), 2 ms simulated, seed 7",
        run: run_permutation,
    },
    Workload {
        name: "incast_432",
        describe: "NDP 431-to-1 incast, k=12 FatTree (432 hosts), 450 KB per sender, seed 7",
        run: run_incast,
    },
    Workload {
        name: "openloop_websearch_60",
        describe: "open-loop web-search at 60% load, quick leaf-spine (32 hosts), 20 ms measured",
        run: run_openloop,
    },
];

struct Row {
    name: &'static str,
    describe: &'static str,
    ref_events: u64,
    fused_events: u64,
    ref_secs: f64,
    best_secs: f64,
}

impl Row {
    /// Effective events/sec: reference (unfused) work over fused wall time.
    fn events_per_sec(&self) -> f64 {
        self.ref_events as f64 / self.best_secs
    }
}

fn measure(w: &Workload, reps: usize) -> Row {
    eprintln!("measuring {} ({reps} reps)...", w.name);
    // Unfused runs fix the reference event count (a pure function of the
    // workload) and a same-machine, same-build reference wall time.
    let mut ref_events = 0;
    let mut ref_secs = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        ref_events = (w.run)(false);
        ref_secs = ref_secs.min(start.elapsed().as_secs_f64());
    }
    let mut best = f64::INFINITY;
    let mut fused_events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let events = (w.run)(true);
        best = best.min(start.elapsed().as_secs_f64());
        if fused_events != 0 {
            assert_eq!(events, fused_events, "{} is nondeterministic", w.name);
        }
        fused_events = events;
    }
    assert!(
        fused_events < ref_events,
        "{}: fusion must dispatch fewer events ({fused_events} vs {ref_events})",
        w.name
    );
    Row {
        name: w.name,
        describe: w.describe,
        ref_events,
        fused_events,
        ref_secs,
        best_secs: best,
    }
}

fn geomean(rates: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = rates.fold((0.0, 0u32), |(s, n), r| (s + r.ln(), n + 1));
    (sum / n as f64).exp()
}

fn render(rows: &[Row], micro: &Row) -> String {
    let g = geomean(rows.iter().map(Row::events_per_sec));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"suite\": \"engine hot-path: effective events/sec = unfused-reference \
         events / fused wall seconds, best of N reps\",\n",
    );
    out.push_str(&format!(
        "  \"pre_fusion_two_tier_events_per_sec\": {PRE_FUSION_EPS:.0},\n"
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\",\n      \"describe\": \"{}\",\n      \
             \"ref_events\": {}, \"fused_events\": {}, \"ref_secs\": {:.4}, \
             \"secs\": {:.4}, \"events_per_sec\": {:.0} }}{}\n",
            r.name,
            r.describe,
            r.ref_events,
            r.fused_events,
            r.ref_secs,
            r.best_secs,
            r.events_per_sec(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"sched_micro\": {{ \"name\": \"{}\",\n    \"describe\": \"{}\",\n    \
         \"events\": {}, \"secs\": {:.4}, \"post_pop_events_per_sec\": {:.0} }},\n",
        micro.name,
        micro.describe,
        micro.ref_events,
        micro.best_secs,
        micro.events_per_sec(),
    ));
    out.push_str(&format!("  \"geomean_events_per_sec\": {g:.0},\n"));
    out.push_str(&format!(
        "  \"speedup_vs_pre_fusion\": {:.3}\n",
        g / PRE_FUSION_EPS
    ));
    out.push_str("}\n");
    out
}

/// One delta-table line: measured vs the committed rate for the same name.
fn delta_cell(committed: Option<f64>, measured: f64) -> (String, String) {
    match committed {
        Some(c) if c > 0.0 => (
            format!("{c:.0}"),
            format!("{:+.1}%", (measured / c - 1.0) * 100.0),
        ),
        _ => ("—".into(), "—".into()),
    }
}

/// Per-workload markdown delta table (also readable as plain text). The
/// same string goes to stdout and, in CI, to the job summary.
fn delta_table(doc: &json::Json, rows: &[Row], micro: &Row, got: f64, committed: f64) -> String {
    let committed_of = |name: &str| -> Option<f64> {
        doc.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(json::Json::as_str) == Some(name))?
            .get("events_per_sec")?
            .as_f64()
    };
    let mut t = String::new();
    t.push_str("| workload | committed ev/s | measured ev/s | delta |\n");
    t.push_str("| --- | ---: | ---: | ---: |\n");
    for r in rows {
        let (c, d) = delta_cell(committed_of(r.name), r.events_per_sec());
        t.push_str(&format!(
            "| {} | {} | {:.0} | {} |\n",
            r.name,
            c,
            r.events_per_sec(),
            d
        ));
    }
    let committed_micro = doc
        .get("sched_micro")
        .and_then(|m| m.get("post_pop_events_per_sec"))
        .and_then(json::Json::as_f64);
    let (c, d) = delta_cell(committed_micro, micro.events_per_sec());
    t.push_str(&format!(
        "| {} (ungated) | {} | {:.0} | {} |\n",
        micro.name,
        c,
        micro.events_per_sec(),
        d
    ));
    let (c, d) = delta_cell(Some(committed), got);
    t.push_str(&format!("| **geomean** | {c} | {got:.0} | {d} |\n"));
    t
}

/// `--check`: re-measure and compare against the committed file.
fn check(reps: usize) -> ! {
    let committed = std::fs::read_to_string("BENCH_engine.json")
        .expect("BENCH_engine.json must exist (run engine_json without --check first)");
    let doc = json::parse(&committed).expect("BENCH_engine.json must be valid JSON");
    let committed_geomean = doc
        .get("geomean_events_per_sec")
        .and_then(json::Json::as_f64)
        .expect("committed suite must record geomean_events_per_sec");
    let rows: Vec<Row> = WORKLOADS.iter().map(|w| measure(w, reps)).collect();
    let micro = measure_sched(reps);
    let got = geomean(rows.iter().map(Row::events_per_sec));
    let floor = committed_geomean * (1.0 - REGRESSION_TOLERANCE);
    println!(
        "perf gate: measured geomean {got:.0} events/sec vs committed {committed_geomean:.0} \
         (floor {floor:.0})"
    );
    let table = delta_table(&doc, &rows, &micro, got, committed_geomean);
    println!("{table}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        let summary = format!("### Engine perf gate (best of {reps})\n\n{table}\n");
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
        {
            let _ = f.write_all(summary.as_bytes());
        }
    }
    if got < floor {
        eprintln!(
            "perf gate FAILED: events/sec regressed more than {:.0}% below the committed \
             baseline; fix the regression or regenerate BENCH_engine.json (and justify it), \
             or tag the commit [skip-perf-gate]",
            REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("perf gate OK");
    std::process::exit(0);
}

fn main() {
    let mut reps = 3usize;
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            gate = true;
        } else if let Ok(n) = arg.parse() {
            reps = n;
        } else {
            panic!("unrecognized argument '{arg}' (expected a rep count or --check)");
        }
    }
    if gate {
        check(reps);
    }
    let rows: Vec<Row> = WORKLOADS.iter().map(|w| measure(w, reps)).collect();
    let micro = measure_sched(reps);
    let out = render(&rows, &micro);
    // The pretty writer above must stay machine-readable: --check (and any
    // downstream tooling) reloads the committed file through the parser.
    json::parse(&out).expect("rendered suite must be valid JSON");
    print!("{out}");
    std::fs::write("BENCH_engine.json", out).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");
}
