//! Timing of program calls, and the spans of the traced run.
//!
//! Every call into the program goes through a [`Meter`], which times it
//! for the end-to-end figures. In a traced run the meter also records a
//! span per call (name, start, end, parent, round) and the program's
//! public counters at round boundaries, all in memory; they are written
//! out once, after the run. Tracing alternates round by round, so the
//! traced and untraced rounds of one run give the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write;
use std::time::Instant;

/// What a call counts as in the end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Refresh,
    Read,
}

/// Name of the span that encloses one round; its self time is the
/// benchmark's own work between program calls.
pub const ROUND: &str = "round";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A public counter's value, by name.
pub type Counters = Vec<(&'static str, u64)>;

/// An open compound call (see [`Meter::open`]).
pub struct Open {
    start: Instant,
    span: Option<usize>,
}

#[derive(Debug)]
pub struct Meter {
    t0: Instant,
    trace_run: bool,
    traced: bool,
    round: u64,
    round_start: Option<Instant>,
    parents: Vec<usize>,
    begin_counters: Counters,
    pub spans: Vec<Span>,
    /// Per traced round: the counter deltas across it.
    pub round_counters: Vec<(u64, Counters)>,
    pub write_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Call timings by span name, traced and untraced rounds alike.
    pub layer_ms: BTreeMap<&'static str, Vec<f64>>,
    /// `(traced, ms)` per round.
    pub round_ms: Vec<(bool, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds spent inside rounds: the timed phase, oracle excluded.
    pub timed_s: f64,
}

impl Meter {
    pub fn new(trace_run: bool) -> Meter {
        Meter {
            t0: Instant::now(),
            trace_run,
            traced: false,
            round: 0,
            round_start: None,
            parents: Vec::new(),
            begin_counters: Vec::new(),
            spans: Vec::new(),
            round_counters: Vec::new(),
            write_ms: Vec::new(),
            refresh_ms: Vec::new(),
            read_ms: Vec::new(),
            layer_ms: BTreeMap::new(),
            round_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            timed_s: 0.0,
        }
    }

    /// Whether the current round records spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Start a round. In a traced run every second round is traced and
    /// gets `counters()` snapshotted at its start and end.
    pub fn begin_round(&mut self, counters: impl FnOnce() -> Counters) {
        self.round += 1;
        self.traced = self.trace_run && self.round.is_multiple_of(2);
        if self.traced {
            self.begin_counters = counters();
        }
        let now = Instant::now();
        self.round_start = Some(now);
        if self.traced {
            let span = self.push_span(ROUND, now);
            self.parents.push(span);
        }
    }

    pub fn end_round(&mut self, counters: impl FnOnce() -> Counters) {
        let start = self.round_start.take().expect("round open");
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        self.timed_s += ms / 1e3;
        self.round_ms.push((self.traced, ms));
        if self.traced {
            let span = self.parents.pop().expect("round span");
            self.spans[span].end_ns = self.ns(end);
            let after = counters();
            let delta = after
                .iter()
                .map(|&(name, v)| {
                    let before = self
                        .begin_counters
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0, |&(_, b)| b);
                    (name, v.saturating_sub(before))
                })
                .collect();
            self.round_counters.push((self.round, delta));
        }
        self.traced = false;
    }

    fn push_span(&mut self, name: &'static str, start: Instant) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parents.last().copied(),
            round: self.round,
        });
        self.spans.len() - 1
    }

    fn sample(&mut self, kind: Kind, ms: f64) {
        match kind {
            Kind::Write => self.write_ms.push(ms),
            Kind::Refresh => self.refresh_ms.push(ms),
            Kind::Read => self.read_ms.push(ms),
        }
    }

    /// One timed program call: counted as attempted (and as failed when
    /// it returns an error, which is reported, not hidden), timed as
    /// `kind` and under `layer`.
    pub fn op<T, E: Display>(
        &mut self,
        kind: Kind,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let open = self.open(layer);
        let result = f();
        self.close(open, layer, kind, result)
    }

    /// Start a compound call whose parts are timed with [`Meter::step`]
    /// and which ends with [`Meter::close`].
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let span = self.traced.then(|| self.push_span(name, start));
        if let Some(s) = span {
            self.parents.push(s);
        }
        Open { start, span }
    }

    /// One part of an open compound call: timed under `layer`, not
    /// counted as an operation of its own.
    pub fn step<T, E: Display>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let span = self.traced.then(|| self.push_span(layer, start));
        let result = f();
        let end = Instant::now();
        if let Some(s) = span {
            self.spans[s].end_ns = self.ns(end);
        }
        self.layer_ms
            .entry(layer)
            .or_default()
            .push((end - start).as_secs_f64() * 1e3);
        result.map_err(|e| e.to_string())
    }

    pub fn close<T, E: Display>(
        &mut self,
        open: Open,
        layer: &'static str,
        kind: Kind,
        result: Result<T, E>,
    ) -> Option<T> {
        let end = Instant::now();
        let ms = (end - open.start).as_secs_f64() * 1e3;
        if let Some(s) = open.span {
            self.parents.pop();
            self.spans[s].end_ns = self.ns(end);
        }
        self.attempted += 1;
        match result {
            Ok(v) => {
                self.sample(kind, ms);
                self.layer_ms.entry(layer).or_default().push(ms);
                Some(v)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {layer} failed: {e}");
                None
            }
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over the run.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write the spans and counter snapshots as tab-separated lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "kind\tround\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.round, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (round, counters) in &self.round_counters {
            for (name, delta) in counters {
                writeln!(out, "counter\t{round}\t-\t-\t{name}\t{delta}\t-")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut m = Meter::new(true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 2,
        };
        m.spans = vec![
            span(ROUND, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 50, 90, Some(0)),
            span("b", 55, 85, Some(2)),
        ];
        let s = m.self_ns();
        assert_eq!(s[ROUND], 100 - 30 - 40);
        assert_eq!(s["a"], 30);
        assert_eq!(s["g"], 10);
        assert_eq!(s["b"], 30);
    }

    #[test]
    fn every_second_round_is_traced_and_failures_count() {
        let mut m = Meter::new(true);
        for _ in 0..4 {
            m.begin_round(|| vec![("c", 1)]);
            m.op(Kind::Write, "w", || Ok::<_, String>(()));
            m.op(Kind::Read, "r", || Err::<(), _>("boom".to_string()));
            m.end_round(|| vec![("c", 3)]);
        }
        assert_eq!(m.attempted, 8);
        assert_eq!(m.failed, 4);
        assert_eq!(m.write_ms.len(), 4);
        assert!(m.read_ms.is_empty());
        assert_eq!(m.round_ms.iter().filter(|(t, _)| *t).count(), 2);
        // Two traced rounds, each a round span and two call spans.
        assert_eq!(m.spans.len(), 6);
        assert_eq!(
            m.round_counters,
            vec![(2, vec![("c", 2)]), (4, vec![("c", 2)])]
        );
    }

    #[test]
    fn untraced_run_records_no_spans() {
        let mut m = Meter::new(false);
        m.begin_round(Vec::new);
        m.op(Kind::Refresh, "x", || Ok::<_, String>(1));
        m.end_round(Vec::new);
        assert!(m.spans.is_empty());
        assert_eq!(m.refresh_ms.len(), 1);
    }
}
