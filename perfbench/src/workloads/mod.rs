//! The four workloads and what they share: the run context, the timed
//! loop, set-up repetition and the public counters.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ivm_core::{IvmCompiler, IvmFlags, IvmSession};
use ivm_engine::{Catalog, Value};

use crate::trace::{Counters, Meter};

pub mod catchup_spill;
pub mod extension_lazy;
pub mod htap_join;
pub mod served_eager;

/// Names accepted by `--workload`.
pub const NAMES: [&str; 4] = [
    "extension-lazy",
    "htap-join",
    "served-eager",
    "catchup-spill",
];

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Oracle checks per run, spread evenly over the timed phase (the last
/// one at its end).
const CHECKS: f64 = 4.0;

#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Executor workers; `None` keeps the engine's default.
    pub parallelism: Option<usize>,
    /// Scratch directory of this run (data directories, spill files),
    /// inside the checkout and removed when the run ends.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn configure(&self, s: &mut IvmSession) {
        if let Some(p) = self.parallelism {
            s.set_parallelism(p);
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub meter: Meter,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident set before set-up: the benchmark's own share of
    /// `peak_rss_mb`.
    pub bench_rss_mb: f64,
    /// Base-table rows inserted, updated or deleted in the timed phase.
    pub changes: u64,
    /// Whether eager propagation runs inside the write calls, so that
    /// the write calls are the refresh calls too.
    pub refresh_in_write: bool,
    /// Public counters: their change across the timed phase.
    pub deltas: BTreeMap<&'static str, u64>,
    /// Per-layer figures that are not counter deltas (see
    /// `report::PER_LAYER`).
    pub layer: BTreeMap<&'static str, f64>,
    /// Reference figures printed on the report lines only.
    pub notes: Vec<(String, f64, &'static str)>,
}

/// One workload: a model-backed generator plus the program it drives.
pub trait Workload {
    /// Generate the next round's inputs from the seeded stream and
    /// advance the model past them. Returns the round's change count.
    fn prepare(&mut self) -> u64;
    /// Make the prepared round's calls through the meter.
    fn run(&mut self, m: &mut Meter);
    /// Checks on what the round read (outside the timed phase).
    fn verify_round(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The full oracle: every view against the model, and against its
    /// own recomputation.
    fn check(&mut self) -> Result<(), String>;
    /// The program's public counters, cumulative.
    fn counters(&self) -> Counters;
}

/// The timed phase: whole rounds until `ctx.seconds` of round time have
/// passed, with the oracle at even intervals and at the end. Returns the
/// change count and the counter deltas across the phase.
pub fn drive(
    ctx: &Ctx,
    w: &mut impl Workload,
    m: &mut Meter,
) -> Result<(u64, BTreeMap<&'static str, u64>), String> {
    let before = w.counters();
    let every = ctx.seconds / CHECKS;
    let mut next_check = every;
    let mut changes = 0;
    while m.timed_s < ctx.seconds {
        changes += w.prepare();
        m.begin_round(|| w.counters());
        w.run(m);
        m.end_round(|| w.counters());
        w.verify_round()?;
        if m.timed_s >= next_check && m.timed_s < ctx.seconds {
            w.check()?;
            next_check += every;
        }
    }
    let after = w.counters();
    w.check()?;
    let deltas = after
        .iter()
        .map(|&(name, v)| {
            let b = before.iter().find(|(n, _)| *n == name).map_or(0, |p| p.1);
            (name, v.saturating_sub(b))
        })
        .collect();
    Ok((changes, deltas))
}

/// What the set-up repetitions left.
pub struct Setup<T> {
    /// The last repetition's state: the one the timed phase measures.
    pub state: T,
    /// Seconds per repetition.
    pub seconds: Vec<f64>,
    /// The process's peak resident set (MB) just before the first
    /// repetition: the benchmark's own inputs and model, which
    /// `peak_rss_mb` includes.
    pub bench_rss_mb: f64,
}

/// Run `setup` [`SETUP_REPS`] times, timing each, and keep the last
/// result. Inputs are built before this is called; `setup` takes the
/// repetition's index.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<Setup<T>, String> {
    let bench_rss_mb = crate::report::peak_rss_mb()?;
    let mut seconds = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Free the previous repetition before building the next.
        drop(last.take());
        let start = Instant::now();
        let state = setup(rep)?;
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok(Setup {
        state: last.expect("SETUP_REPS > 0"),
        seconds,
        bench_rss_mb,
    })
}

pub fn values(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Integer(v)).collect()
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `CREATE MATERIALIZED VIEW name AS query`.
pub fn create_view(name: &str, query: &str) -> String {
    format!("CREATE MATERIALIZED VIEW {name} AS {query}")
}

/// Milliseconds of `IvmCompiler::compile_sql` per view, compiled under a
/// fresh name against the live catalog (the view's own name is taken).
pub fn compile_ms(catalog: &Catalog, flags: &IvmFlags, views: &[(&str, &str)]) -> Vec<f64> {
    let compiler = IvmCompiler::new();
    views
        .iter()
        .map(|(name, query)| {
            let sql = create_view(&format!("{name}_probe"), query);
            let start = Instant::now();
            let artifacts = compiler.compile_sql(&sql, catalog, flags);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(artifacts).expect("benchmark views compile");
            ms
        })
        .collect()
}

/// Microseconds of `ivm_sql::parse_statement` per text.
pub fn parse_us(texts: &[String]) -> Vec<f64> {
    texts
        .iter()
        .map(|sql| {
            let start = Instant::now();
            let stmt = ivm_sql::parse_statement(sql);
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(stmt).expect("benchmark SQL parses");
            us
        })
        .collect()
}

/// How many statement texts of a run the parser probe keeps.
pub const PARSE_SAMPLE: usize = 400;

/// The extension and engine counters of one session.
pub fn session_counters(s: &IvmSession, out: &mut Counters) {
    let stats = s.stats();
    let db = s.database();
    let (plan_entries, plan_hits) = db.plan_cache_stats();
    let (typed, fallback) = db.typed_path_stats();
    let spill = db.spill_stats();
    out.extend([
        (
            "extension.maintenance_statements",
            stats.maintenance_statements as u64,
        ),
        ("extension.intercepted_dml", stats.intercepted_dml as u64),
        ("engine.plan_cache_hits", plan_hits as u64),
        ("engine.plan_cache_entries", plan_entries as u64),
        ("exec.typed_rows", typed),
        ("exec.fallback_rows", fallback),
        ("spill.bytes", spill.spilled_bytes),
        ("spill.files", spill.spill_files),
        ("spill.rehydrated_rows", spill.rehydrated_rows),
        ("spill.overlap_ns", spill.overlap_nanos),
    ]);
    if let Some(w) = db.wal_stats() {
        out.extend([
            ("wal.records", w.records),
            ("wal.bytes", w.bytes_written),
            ("wal.commits", w.commits),
            ("wal.syncs", w.syncs),
            ("wal.rotations", w.rotations),
        ]);
    }
    if let Some(b) = db.buffer_pool_stats() {
        out.extend([
            ("buffer.hits", b.hits),
            ("buffer.misses", b.misses),
            ("buffer.evictions", b.evictions),
            ("buffer.pages_written", b.pages_written),
        ]);
    }
}
