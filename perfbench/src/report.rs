//! Turning a workload's [`Outcome`] into the printed report: readable
//! lines first, then the one JSON object the last line must hold.

use std::collections::BTreeMap;

use crate::stats::{median, summarize};
use crate::workloads::Outcome;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("changes_per_s", "1/s"),
    ("write_ms_p50", "ms"),
    ("refresh_ms_p50", "ms"),
    ("read_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with tracing on. A
/// layer a workload does not run reads 0 in its counts and shares.
/// Counter deltas are per round of the timed phase, so that a faster
/// program, which runs more rounds in the same time, does not read as
/// doing more work.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sql.parse_us_p50", "us"),
    ("compiler.compile_ms", "ms"),
    ("extension.create_view_ms", "ms"),
    ("extension.maintenance_statements", "count/round"),
    ("extension.intercepted_dml", "count/round"),
    ("engine.plan_cache_hits", "count/round"),
    ("engine.plan_cache_misses", "count/round"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("exec.typed_rows", "count/round"),
    ("exec.fallback_rows", "count/round"),
    ("spill.bytes", "B/round"),
    ("spill.files", "count/round"),
    ("spill.rehydrated_rows", "count/round"),
    ("spill.peak_used_bytes", "B"),
    ("wal.records", "count/round"),
    ("wal.bytes", "B/round"),
    ("wal.commits", "count/round"),
    ("wal.syncs", "count/round"),
    ("wal.rotations", "count/round"),
    ("wal.bytes_per_change", "B"),
    ("recovery.replayed_records", "count/round"),
    ("buffer.hits", "count/round"),
    ("buffer.misses", "count/round"),
    ("buffer.evictions", "count/round"),
    ("buffer.pages_written", "count/round"),
    ("snapshot.epochs_per_write", "count"),
    ("snapshot.plan_cache_hit_ratio", "ratio"),
    ("oltp.statements", "count/round"),
    ("bridge.rows_shipped", "count/round"),
    ("bridge.batches", "count/round"),
    ("self.extension_write_pct", "%"),
    ("self.extension_refresh_pct", "%"),
    ("self.extension_read_pct", "%"),
    ("self.snapshot_read_pct", "%"),
    ("self.oltp_pct", "%"),
    ("self.bridge_pct", "%"),
    ("self.bench_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Counter deltas copied as they are.
const COPIED: [&str; 21] = [
    "extension.maintenance_statements",
    "extension.intercepted_dml",
    "engine.plan_cache_hits",
    "exec.typed_rows",
    "exec.fallback_rows",
    "spill.bytes",
    "spill.files",
    "spill.rehydrated_rows",
    "wal.records",
    "wal.bytes",
    "wal.commits",
    "wal.syncs",
    "wal.rotations",
    "buffer.hits",
    "buffer.misses",
    "buffer.evictions",
    "buffer.pages_written",
    "oltp.statements",
    "bridge.rows_shipped",
    "bridge.batches",
    "recovery.replayed_records",
];

/// The self-time share a span's self time counts toward.
fn share_of(span: &str) -> &'static str {
    match span {
        "extension.execute" | "extension.ingest_deltas" => "self.extension_write_pct",
        "extension.refresh" => "self.extension_refresh_pct",
        "extension.query_view" => "self.extension_read_pct",
        "snapshot.read" => "self.snapshot_read_pct",
        "oltp.execute" => "self.oltp_pct",
        "bridge.sync" => "self.bridge_pct",
        // The round's own span and the glue inside compound calls: the
        // benchmark's work between program calls.
        _ => "self.bench_pct",
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of a run.
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let m = &o.meter;
    let refresh = if o.refresh_in_write {
        &m.write_ms
    } else {
        &m.refresh_ms
    };
    let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let rounds: Vec<f64> = m.round_ms.iter().map(|&(_, ms)| ms).collect();
    BTreeMap::from([
        ("setup_s", p50(&o.setup_s)),
        // Every round carries the same changes, so the rate at the
        // median round is changes per round over its time; a few stalled
        // rounds do not swing it as they swing the mean.
        (
            "changes_per_s",
            o.changes as f64 / m.round_ms.len() as f64 / p50(&rounds) * 1e3,
        ),
        ("write_ms_p50", p50(&m.write_ms)),
        ("refresh_ms_p50", p50(refresh)),
        ("read_ms_p50", p50(&m.read_ms)),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let d = |name: &str| o.deltas.get(name).copied().unwrap_or(0) as f64;
    let rounds = o.meter.round_ms.len() as f64;
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for name in COPIED {
        out.insert(name, ratio(d(name), rounds));
    }
    // Every cached-plan lookup that finds no plan for the current
    // catalog shape stores one; the entry count grows by the misses.
    let (hits, misses) = (d("engine.plan_cache_hits"), d("engine.plan_cache_entries"));
    out.insert("engine.plan_cache_misses", ratio(misses, rounds));
    out.insert("engine.plan_cache_hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "wal.bytes_per_change",
        ratio(d("wal.bytes"), o.changes as f64),
    );
    out.insert(
        "snapshot.epochs_per_write",
        ratio(d("snapshot.epochs"), o.meter.write_ms.len() as f64),
    );
    let (shits, smisses) = (d("snapshot.plan_hits"), d("snapshot.plan_misses"));
    out.insert(
        "snapshot.plan_cache_hit_ratio",
        ratio(shits, shits + smisses),
    );
    let self_ns = o.meter.self_ns();
    let total: u64 = self_ns.values().sum();
    for (span, ns) in &self_ns {
        *out.get_mut(share_of(span)).expect("listed") += ratio(*ns as f64, total as f64) * 100.0;
    }
    let rounds = |traced: bool| -> Vec<f64> {
        o.meter
            .round_ms
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|&(_, ms)| ms)
            .collect()
    };
    if let (Some(on), Some(off)) = (median(&rounds(true)), median(&rounds(false))) {
        out.insert("trace.overhead_pct", (on / off - 1.0) * 100.0);
    }
    for (&name, &v) in &o.layer {
        out.insert(name, v);
    }
    out
}

/// Readable report lines: every metric, the timings' tails and sample
/// counts, and the per-call timings behind the per-layer figures.
pub fn lines(
    o: &Outcome,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> Vec<String> {
    let m = &o.meter;
    let mut out = Vec::new();
    let timing = |label: &str, v: &[f64]| match summarize(v) {
        Some(s) => {
            let tail = s
                .tail
                .map_or(String::new(), |(p, v)| format!(" p{p}={v:.4}"));
            format!("timing {label}: p50={:.4}{tail} n={}", s.p50, s.n)
        }
        None => format!("timing {label}: no samples"),
    };
    out.push(timing("setup_s", &o.setup_s));
    let reps: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    out.push(format!("setup_s repetitions: {}", reps.join(" ")));
    out.push(timing("write_ms", &m.write_ms));
    out.push(timing("refresh_ms", &m.refresh_ms));
    out.push(timing("read_ms", &m.read_ms));
    let rounds: Vec<f64> = m.round_ms.iter().map(|&(_, ms)| ms).collect();
    out.push(timing("round_ms", &rounds));
    for (layer, v) in &m.layer_ms {
        out.push(timing(&format!("call {layer} ms"), v));
    }
    // The benchmark's own share of `peak_rss_mb`: its model and inputs,
    // resident before the program's first call.
    out.push(format!("note bench_rss_mb = {} MB", o.bench_rss_mb));
    for (name, value, unit) in &o.notes {
        out.push(format!("note {name} = {value} {unit}"));
    }
    for &(name, unit) in units {
        out.push(format!("metric {name} = {} {unit}", metrics[name]));
    }
    out
}

/// The last line: `correct`, `attempted`, `failed` and `metrics`.
/// Only runs whose every check passed get this far, so `correct` holds.
pub fn json(
    o: &Outcome,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in units {
        let v = metrics[name];
        if !v.is_finite() {
            return Err(format!("{name} has no value ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.meter.attempted,
        o.meter.failed,
        parts.join(", ")
    ))
}
