//! `catchup-spill`: a keyless table with many groups takes a backlog in
//! large `ingest_deltas` batches (inserts plus deletions of existing
//! rows) under a memory budget below the view's hash state; each batch
//! is followed by `refresh` and `query_view`. The only workload where
//! big deltas put the morsel executor, the spill layer and the keyless
//! mirror index to work.

use std::collections::BTreeMap;

use ivm_core::IvmSession;
use ivm_engine::Value;

use super::{
    compile_ms, create_view, drive, err, parse_us, repeat_setup, session_counters, values, Ctx,
    Outcome, Workload,
};
use crate::model::{compare, decode, expect, group_agg, Bag};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Counters, Kind, Meter};

/// Base rows. Every round leaves tombstoned slots the engine never
/// reclaims, so the process grows with the round count; at this size the
/// set-up's memory outweighs that growth and `peak_rss_mb` does not
/// follow the machine's speed.
const BASE_ROWS: usize = 800_000;
const GROUPS: i64 = 50_000;
const VALUES: i64 = 1_000;
/// Changes per batch: half inserts, half deletions of existing rows.
const BATCH: usize = 5_000;
/// Executor memory budget: below the hash state of the refresh's
/// grouping and join over the batch and the view.
const BUDGET: usize = 4 << 20;

const TABLE: &str = "CREATE TABLE events (grp INTEGER, val INTEGER)";
const VIEWS: [(&str, &str); 1] = [(
    "grp_totals",
    "SELECT grp, SUM(val) AS total, COUNT(*) AS n FROM events GROUP BY grp",
)];

struct CatchupSpill {
    s: IvmSession,
    rng: Rng,
    model: Bag,
    batch: Vec<(Vec<Value>, bool)>,
}

impl Workload for CatchupSpill {
    fn prepare(&mut self) -> u64 {
        let mut batch = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            if i % 2 == 0 {
                let row = [self.rng.range(0, GROUPS), self.rng.range(0, VALUES)];
                batch.push((values(&row), true));
                self.model.insert(&row);
            } else {
                let victim = self.rng.below(self.model.len() as u64) as usize;
                batch.push((values(&self.model.remove_at(victim)), false));
            }
        }
        self.batch = batch;
        BATCH as u64
    }

    fn run(&mut self, m: &mut Meter) {
        let s = &mut self.s;
        let batch = &self.batch;
        let (name, _) = VIEWS[0];
        m.op(Kind::Write, "extension.ingest_deltas", || {
            s.ingest_deltas("events", batch)
        });
        m.op(Kind::Refresh, "extension.refresh", || s.refresh(name));
        m.op(Kind::Read, "extension.query_view", || s.query_view(name));
    }

    fn check(&mut self) -> Result<(), String> {
        let want = expect(&group_agg(self.model.rows(), 0, 1), |a| {
            vec![a.sum, a.count]
        });
        let (name, _) = VIEWS[0];
        compare(
            name,
            &decode(&self.s.query_view(name).map_err(err)?.rows)?,
            &want,
        )?;
        if !self.s.check_consistency(name).map_err(err)? {
            return Err(format!("{name} differs from its recomputation"));
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut c = Vec::new();
        session_counters(&self.s, &mut c);
        c
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut create_ms = Vec::new();
    let mut rng = Rng::new(ctx.seed, 4);
    let mut model = Bag::new(2);
    for _ in 0..BASE_ROWS {
        model.insert(&[rng.range(0, GROUPS), rng.range(0, VALUES)]);
    }
    let setup = repeat_setup(|_| {
        let mut s = IvmSession::with_defaults();
        ctx.configure(&mut s);
        s.database_mut().set_spill_dir(&ctx.dir);
        s.execute(TABLE).map_err(err)?;
        let table = s
            .database_mut()
            .catalog_mut()
            .table_mut("events")
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
        s.set_memory_budget(Some(BUDGET));
        Ok(s)
    })?;
    let mut w = CatchupSpill {
        s: setup.state,
        rng,
        model,
        batch: Vec::new(),
    };
    w.check()?;
    let mut meter = Meter::new(ctx.trace);
    let (changes, deltas) = drive(ctx, &mut w, &mut meter)?;
    // The workload exists to measure the spill path: a refresh that fits
    // the budget would quietly time another path.
    let rounds = meter.round_ms.len() as u64;
    let files = deltas.get("spill.files").copied().unwrap_or(0);
    if files < rounds {
        return Err(format!(
            "{files} spill files in {rounds} rounds: the refresh no longer \
             spills under the {BUDGET}-byte budget; lower BUDGET"
        ));
    }
    let spill = w.s.spill_stats();
    let mut layer = BTreeMap::new();
    if ctx.trace {
        let flags = w.s.flags().clone();
        let catalog = w.s.database().catalog();
        layer.insert(
            "compiler.compile_ms",
            median(&compile_ms(catalog, &flags, &VIEWS)).expect("views"),
        );
        // No SQL DML here: the parser probe takes the refresh's own
        // maintenance statements.
        let texts =
            w.s.view(VIEWS[0].0)
                .expect("registered")
                .artifacts
                .maintenance_statements();
        layer.insert(
            "sql.parse_us_p50",
            median(&parse_us(&texts)).expect("texts"),
        );
    }
    layer.insert(
        "extension.create_view_ms",
        median(&create_ms).expect("views"),
    );
    layer.insert("spill.peak_used_bytes", spill.peak_used as f64);
    let overlap_ms = deltas.get("spill.overlap_ns").copied().unwrap_or(0) as f64 / 1e6;
    Ok(Outcome {
        meter,
        setup_s: setup.seconds,
        bench_rss_mb: setup.bench_rss_mb,
        changes,
        refresh_in_write: false,
        deltas,
        layer,
        notes: vec![("spill.overlap_ms".into(), overlap_ms, "ms")],
    })
}
