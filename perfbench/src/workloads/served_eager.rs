//! `served-eager`: the configuration `openivm --serve` runs, in process.
//! A shared session (`IvmSession::share`) with eager propagation takes
//! single-row SQL writes through `IvmSession::execute`; point and range
//! reads of a per-branch aggregate go through one `ReadSession`, on the
//! same load thread between writes. The only workload that runs
//! snapshot publication, copy-on-write and the shared prepared-statement
//! cache. No reader threads, so the figures measure the program and not
//! the scheduler.

use std::collections::BTreeMap;

use ivm_core::{IvmFlags, IvmSession, PropagationMode};
use ivm_engine::{ReadSession, SnapshotHub};

use super::{
    compile_ms, create_view, drive, err, parse_us, repeat_setup, session_counters, values, Ctx,
    Outcome, Workload, PARSE_SAMPLE,
};
use crate::model::{compare, decode, expect, group_agg, Agg, KeyedTable, ViewRows};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Counters, Kind, Meter};

const BASE_ROWS: i64 = 200_000;
const BRANCHES: i64 = 100;
const AMOUNTS: i64 = 1_000;
/// Branches a range read covers.
const RANGE: i64 = 10;

const TABLE: &str = "CREATE TABLE sales (id INTEGER PRIMARY KEY, branch INTEGER, amount INTEGER)";
const VIEWS: [(&str, &str); 1] = [(
    "branch_totals",
    "SELECT branch, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY branch",
)];

/// One write and the read that follows it, with what the read must
/// return given every write before it.
struct Step {
    write: String,
    read: String,
    want: ViewRows,
}

struct ServedEager {
    s: IvmSession,
    hub: SnapshotHub,
    reader: ReadSession,
    rng: Rng,
    model: KeyedTable,
    /// Per-branch SUM/COUNT, kept in step with `model` write by write.
    branches: BTreeMap<i64, Agg>,
    next_id: i64,
    round: Vec<Step>,
    reads: Vec<Option<Vec<Vec<ivm_engine::Value>>>>,
    texts: Vec<String>,
    keep_texts: bool,
}

fn add(branches: &mut BTreeMap<i64, Agg>, row: &[i64], sign: i64) {
    let a = branches.entry(row[1]).or_insert(Agg {
        sum: 0,
        count: 0,
        max: 0,
    });
    a.sum += sign * row[2];
    a.count += sign;
    if a.count == 0 {
        branches.remove(&row[1]);
    }
}

impl ServedEager {
    fn point(&self, branch: i64) -> Step {
        Step {
            write: String::new(),
            read: format!("SELECT branch, total, n FROM branch_totals WHERE branch = {branch}"),
            want: self
                .branches
                .get(&branch)
                .map(|a| (branch, vec![a.sum, a.count]))
                .into_iter()
                .collect(),
        }
    }
}

impl Workload for ServedEager {
    fn prepare(&mut self) -> u64 {
        let mut steps = Vec::new();
        // INSERT one row, then read its branch.
        let row = [
            self.next_id,
            self.rng.range(0, BRANCHES),
            self.rng.range(0, AMOUNTS),
        ];
        self.next_id += 1;
        let write = format!(
            "INSERT INTO sales VALUES ({}, {}, {})",
            row[0], row[1], row[2]
        );
        add(&mut self.branches, &row, 1);
        self.model.insert(&row);
        steps.push(Step {
            write,
            ..self.point(row[1])
        });
        // UPDATE one row's amount by key, then read its branch.
        let id = self
            .model
            .key_at(self.rng.below(self.model.len() as u64) as usize);
        let old = self.model.get(id).expect("live").to_vec();
        let mut new = old.clone();
        new[2] = self.rng.range(0, AMOUNTS);
        let write = format!("UPDATE sales SET amount = {} WHERE id = {id}", new[2]);
        add(&mut self.branches, &old, -1);
        add(&mut self.branches, &new, 1);
        self.model.update(&new);
        steps.push(Step {
            write,
            ..self.point(old[1])
        });
        // DELETE one row by key, then read a range of branches.
        let id = self
            .model
            .key_at(self.rng.below(self.model.len() as u64) as usize);
        let write = format!("DELETE FROM sales WHERE id = {id}");
        let old = self.model.delete(id);
        add(&mut self.branches, &old, -1);
        let lo = self.rng.range(0, BRANCHES - RANGE + 1);
        steps.push(Step {
            write,
            read: format!(
                "SELECT branch, total, n FROM branch_totals WHERE branch >= {lo} AND branch < {}",
                lo + RANGE
            ),
            want: self
                .branches
                .range(lo..lo + RANGE)
                .map(|(b, a)| (*b, vec![a.sum, a.count]))
                .collect(),
        });
        if self.keep_texts && self.texts.len() < PARSE_SAMPLE {
            self.texts.extend(steps.iter().map(|s| s.write.clone()));
        }
        self.round = steps;
        3
    }

    fn run(&mut self, m: &mut Meter) {
        self.reads.clear();
        for step in &self.round {
            let s = &mut self.s;
            let reader = &mut self.reader;
            m.op(Kind::Write, "extension.execute", || s.execute(&step.write));
            let read = m.op(Kind::Read, "snapshot.read", || reader.query(&step.read));
            self.reads.push(read.map(|r| r.rows));
        }
    }

    /// Read-your-writes: each read after a write equals the model at
    /// that point.
    fn verify_round(&mut self) -> Result<(), String> {
        for (step, read) in self.round.iter().zip(&self.reads) {
            let Some(rows) = read else { continue };
            compare(&step.read, &decode(rows)?, &step.want)?;
        }
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let aggs = group_agg(self.model.rows(), 1, 2);
        let want = expect(&aggs, |a| vec![a.sum, a.count]);
        let incremental: ViewRows = expect(&self.branches, |a| vec![a.sum, a.count]);
        compare("incremental model", &incremental, &want)?;
        let (name, _) = VIEWS[0];
        compare(
            name,
            &decode(&self.s.query_view(name).map_err(err)?.rows)?,
            &want,
        )?;
        let served = self
            .reader
            .query("SELECT branch, total, n FROM branch_totals")
            .map_err(err)?;
        compare("served branch_totals", &decode(&served.rows)?, &want)?;
        if !self.s.check_consistency(name).map_err(err)? {
            return Err(format!("{name} differs from its recomputation"));
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut c = Vec::new();
        session_counters(&self.s, &mut c);
        let (_, hits, misses) = self.hub.plan_cache_stats();
        c.extend([
            ("snapshot.epochs", self.hub.current_epoch()),
            ("snapshot.plan_hits", hits),
            ("snapshot.plan_misses", misses),
        ]);
        c
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut create_ms = Vec::new();
    let flags = IvmFlags {
        propagation: PropagationMode::Eager,
        ..IvmFlags::paper_defaults()
    };
    let mut rng = Rng::new(ctx.seed, 3);
    let mut model = KeyedTable::new(3);
    for id in 0..BASE_ROWS {
        model.insert(&[id, rng.range(0, BRANCHES), rng.range(0, AMOUNTS)]);
    }
    let setup = repeat_setup(|_| {
        let mut s = IvmSession::new(flags.clone());
        ctx.configure(&mut s);
        s.execute(TABLE).map_err(err)?;
        let table = s
            .database_mut()
            .catalog_mut()
            .table_mut("sales")
            .map_err(err)?;
        for row in model.rows() {
            table.insert(values(row)).map_err(err)?;
        }
        create_ms.clear();
        for (name, query) in VIEWS {
            let start = std::time::Instant::now();
            s.execute(&create_view(name, query)).map_err(err)?;
            create_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let hub = s.share();
        Ok((s, hub))
    })?;
    let (s, hub) = setup.state;
    let mut reader = hub.reader();
    if let Some(p) = ctx.parallelism {
        reader.set_parallelism(p);
    }
    let branches = group_agg(model.rows(), 1, 2);
    let mut w = ServedEager {
        s,
        hub,
        reader,
        rng,
        model,
        branches,
        next_id: BASE_ROWS,
        round: Vec::new(),
        reads: Vec::new(),
        texts: Vec::new(),
        keep_texts: ctx.trace,
    };
    w.check()?;
    let mut meter = Meter::new(ctx.trace);
    let (changes, deltas) = drive(ctx, &mut w, &mut meter)?;
    let mut layer = BTreeMap::new();
    if ctx.trace {
        let catalog = w.s.database().catalog();
        layer.insert(
            "compiler.compile_ms",
            median(&compile_ms(catalog, &flags, &VIEWS)).expect("views"),
        );
        layer.insert(
            "sql.parse_us_p50",
            median(&parse_us(&w.texts)).expect("texts"),
        );
    }
    layer.insert(
        "extension.create_view_ms",
        median(&create_ms).expect("views"),
    );
    Ok(Outcome {
        meter,
        setup_s: setup.seconds,
        bench_rss_mb: setup.bench_rss_mb,
        changes,
        refresh_in_write: true,
        deltas,
        layer,
        notes: Vec::new(),
    })
}
