//! Spans recorded by the benchmark around each call it makes into a
//! layer of the simulator.
//!
//! A span has a layer, a name, a start, an end, a parent and the id of the
//! workload run it belongs to. Spans stay in memory and are written out
//! once, when the benchmark ends. A disabled tracer records nothing and
//! never reads the clock, so untraced runs pay nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// The repository's crates, as seen from the benchmark. `Bench` is the
/// benchmark's own code between layer calls (the root span of a run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Sim,
    Topology,
    Transport,
    Workloads,
    Experiments,
    Metrics,
}

impl Layer {
    /// Every layer a span can be charged to, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Sim,
        Layer::Topology,
        Layer::Transport,
        Layer::Workloads,
        Layer::Experiments,
        Layer::Metrics,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sim => "sim",
            Layer::Topology => "topology",
            Layer::Transport => "transport",
            Layer::Workloads => "workloads",
            Layer::Experiments => "experiments",
            Layer::Metrics => "metrics",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start a new workload run: later spans carry the new run id.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run: self.run,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span. `f` must not use the tracer; nest with
    /// [`Tracer::enter`] / [`Tracer::exit`] instead.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(layer, name);
        let r = f();
        self.exit(open);
        r
    }

    /// Spans of one run.
    pub fn run_spans(&self, run: u32) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.run == run)
    }

    /// Self time per layer of one run: each span's duration minus the
    /// part its child spans cover, summed by layer (seconds).
    pub fn self_seconds(&self, run: u32) -> Vec<(Layer, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.run_spans(run) {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let ns: u64 = self
                    .run_spans(run)
                    .filter(|s| s.layer == layer)
                    .map(|s| s.dur_ns().saturating_sub(child_ns[s.id as usize]))
                    .sum();
                (layer, ns as f64 / 1e9)
            })
            .collect()
    }

    /// Total duration of one run's spans with this layer and name (ns).
    pub fn total_ns(&self, run: u32, layer: Layer, name: &str) -> u64 {
        self.run_spans(run)
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Every span as NDJSON, one object per line.
    pub fn to_ndjson(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"run\":{},\"id\":{},\
                 \"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.run,
                s.id,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let run = t.begin_run();
        let root = t.enter(Layer::Bench, "run");
        t.span(Layer::Sim, "run_until", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let selfs = t.self_seconds(run);
        let sim = selfs.iter().find(|(l, _)| *l == Layer::Sim).unwrap().1;
        let bench = selfs.iter().find(|(l, _)| *l == Layer::Bench).unwrap().1;
        assert!(sim >= 0.002);
        assert!(bench < sim);
        assert_eq!(t.run_spans(run).count(), 2);

        let mut off = Tracer::new(false);
        let r = off.begin_run();
        off.span(Layer::Sim, "x", || ());
        assert_eq!(off.run_spans(r).count(), 0);
    }
}
