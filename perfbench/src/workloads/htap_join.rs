//! `htap-join` (demo ii): OLTP deltas shipped into OLAP views. An
//! `HtapPipeline` whose OLAP side is durable (a fresh data directory)
//! keeps a join-aggregate view (revenue per region over
//! `orders ⋈ customers`, written as a user writes it) and a per-customer
//! aggregate. Each round sends a burst of INSERT/UPDATE/DELETE on
//! `orders` and one customer region change through `execute_oltp`, then
//! `sync_and_refresh`, then reads both views. After the timed phase the
//! pipeline is dropped without `close` and reopened, so the reopen
//! replays the WAL. The only workload that runs the OLTP row store, the
//! bridge, PK-mirror ingest, join maintenance and the WAL.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ivm_core::IvmFlags;
use ivm_htap::HtapPipeline;

use super::{
    compile_ms, create_view, drive, err, parse_us, repeat_setup, session_counters, values, Ctx,
    Outcome, Workload, PARSE_SAMPLE, SETUP_REPS,
};
use crate::model::{compare, decode, expect, group_agg, revenue_by_region, KeyedTable, ViewRows};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Counters, Kind, Meter};

/// Customers, spread uniformly over the regions.
const CUSTOMERS: i64 = 300;
const REGIONS: i64 = 10;
/// Base orders, each for a uniformly chosen customer.
const ORDERS: i64 = 6_000;
/// Order amounts are uniform in `1..AMOUNTS`.
const AMOUNTS: i64 = 1_000;
/// Per round: rows in the one orders INSERT, single-row UPDATEs and
/// DELETEs of orders by key, and one customer region change. Inserts
/// and deletes balance.
const INSERT_ROWS: usize = 6;
const UPDATES: usize = 6;
const DELETES: usize = 6;

const TABLES: [&str; 2] = [
    "CREATE TABLE customers (c_id INTEGER PRIMARY KEY, region INTEGER)",
    "CREATE TABLE orders (o_id INTEGER PRIMARY KEY, c_id INTEGER, amount INTEGER)",
];
const VIEWS: [(&str, &str); 2] = [
    (
        "region_revenue",
        "SELECT customers.region, SUM(orders.amount) AS revenue, COUNT(*) AS n \
         FROM orders JOIN customers ON orders.c_id = customers.c_id \
         GROUP BY customers.region",
    ),
    (
        "customer_totals",
        "SELECT c_id, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY c_id",
    ),
];

struct Model {
    customers: KeyedTable,
    orders: KeyedTable,
}

impl Model {
    fn new(seed: u64) -> (Rng, Model) {
        let mut rng = Rng::new(seed, 2);
        let mut customers = KeyedTable::new(2);
        for c in 0..CUSTOMERS {
            customers.insert(&[c, rng.range(0, REGIONS)]);
        }
        let mut orders = KeyedTable::new(3);
        for o in 0..ORDERS {
            orders.insert(&[o, rng.range(0, CUSTOMERS), rng.range(1, AMOUNTS)]);
        }
        (rng, Model { customers, orders })
    }

    fn views(&self) -> [ViewRows; 2] {
        let by_region = revenue_by_region(&self.orders, &self.customers);
        let by_customer = group_agg(self.orders.rows(), 1, 2);
        let cols = |a: &crate::model::Agg| vec![a.sum, a.count];
        [expect(&by_region, cols), expect(&by_customer, cols)]
    }
}

struct HtapJoin {
    h: HtapPipeline,
    rng: Rng,
    model: Model,
    next_id: i64,
    round: Vec<String>,
    texts: Vec<String>,
    keep_texts: bool,
}

/// Rows of `table` on the OLAP mirror, keyed by column 0.
fn mirror(h: &HtapPipeline, table: &str) -> Result<ViewRows, String> {
    let rows = h
        .olap()
        .database()
        .query(&format!("SELECT * FROM {table}"))
        .map_err(err)?
        .rows;
    decode(&rows)
}

fn model_rows(t: &KeyedTable) -> ViewRows {
    t.rows().map(|r| (r[0], r[1..].to_vec())).collect()
}

/// The whole oracle: mirrors and views against the model, each view
/// against its recomputation, and the pipeline's own mirror-vs-source
/// check.
fn check_pipeline(h: &mut HtapPipeline, model: &Model) -> Result<(), String> {
    compare(
        "customers mirror",
        &mirror(h, "customers")?,
        &model_rows(&model.customers),
    )?;
    compare(
        "orders mirror",
        &mirror(h, "orders")?,
        &model_rows(&model.orders),
    )?;
    for ((name, _), want) in VIEWS.iter().zip(model.views()) {
        compare(
            name,
            &decode(&h.query_view(name).map_err(err)?.rows)?,
            &want,
        )?;
        if !h.olap_mut().check_consistency(name).map_err(err)? {
            return Err(format!("{name} differs from its recomputation"));
        }
    }
    let report = h.check_consistency().map_err(err)?;
    if !report.is_consistent() {
        return Err(format!("pipeline consistency: {report:?}"));
    }
    Ok(())
}

impl Workload for HtapJoin {
    fn prepare(&mut self) -> u64 {
        let rng = &mut self.rng;
        let orders = &mut self.model.orders;
        let mut sql = Vec::new();
        let rows: Vec<String> = (0..INSERT_ROWS)
            .map(|_| {
                let row = [self.next_id, rng.range(0, CUSTOMERS), rng.range(1, AMOUNTS)];
                self.next_id += 1;
                let text = format!("({}, {}, {})", row[0], row[1], row[2]);
                orders.insert(&row);
                text
            })
            .collect();
        sql.push(format!("INSERT INTO orders VALUES {}", rows.join(", ")));
        for _ in 0..UPDATES {
            let id = orders.key_at(rng.below(orders.len() as u64) as usize);
            let mut row = orders.get(id).expect("live").to_vec();
            row[2] = rng.range(1, AMOUNTS);
            sql.push(format!(
                "UPDATE orders SET amount = {} WHERE o_id = {id}",
                row[2]
            ));
            orders.update(&row);
        }
        for _ in 0..DELETES {
            let id = orders.key_at(rng.below(orders.len() as u64) as usize);
            sql.push(format!("DELETE FROM orders WHERE o_id = {id}"));
            orders.delete(id);
        }
        let c = rng.range(0, CUSTOMERS);
        let region = rng.range(0, REGIONS);
        sql.push(format!(
            "UPDATE customers SET region = {region} WHERE c_id = {c}"
        ));
        self.model.customers.update(&[c, region]);
        if self.keep_texts && self.texts.len() < PARSE_SAMPLE {
            self.texts.extend(sql.iter().cloned());
        }
        self.round = sql;
        (INSERT_ROWS + UPDATES + DELETES + 1) as u64
    }

    fn run(&mut self, m: &mut Meter) {
        let h = &mut self.h;
        for sql in &self.round {
            m.op(Kind::Write, "oltp.execute", || h.execute_oltp(sql));
        }
        const REFRESH: &str = "htap.sync_and_refresh";
        if m.traced() {
            // The two public halves, so the bridge and the OLAP refresh
            // get spans of their own.
            let open = m.open(REFRESH);
            let result = m
                .step("bridge.sync", || h.sync())
                .and_then(|_| m.step("extension.refresh", || h.olap_mut().refresh_all()));
            m.close(open, REFRESH, Kind::Refresh, result);
        } else {
            m.op(Kind::Refresh, REFRESH, || h.sync_and_refresh());
        }
        for (name, _) in VIEWS {
            m.op(Kind::Read, "extension.query_view", || h.query_view(name));
        }
    }

    fn check(&mut self) -> Result<(), String> {
        check_pipeline(&mut self.h, &self.model)
    }

    fn counters(&self) -> Counters {
        let mut c = Vec::new();
        session_counters(self.h.olap(), &mut c);
        let ship = self.h.ship_stats();
        c.extend([
            ("oltp.statements", self.h.oltp().statements_executed()),
            ("bridge.rows_shipped", ship.rows as u64),
            ("bridge.batches", ship.batches as u64),
        ]);
        c
    }
}

/// Open a pipeline in the empty directory `dir`, bulk-load both sides
/// from the model, create the views and checkpoint.
fn setup(dir: &Path, model: &Model, create_ms: &mut Vec<f64>) -> Result<HtapPipeline, String> {
    let mut h = HtapPipeline::open(dir, IvmFlags::paper_defaults()).map_err(err)?;
    for t in TABLES {
        h.mirror_table(t).map_err(err)?;
    }
    for (table, rows) in [("customers", &model.customers), ("orders", &model.orders)] {
        h.oltp_mut()
            .load_rows(table, rows.rows().map(values).collect())
            .map_err(err)?;
        let mirror = h
            .olap_mut()
            .database_mut()
            .catalog_mut()
            .table_mut(table)
            .map_err(err)?;
        for row in rows.rows() {
            mirror.insert(values(row)).map_err(err)?;
        }
    }
    create_ms.clear();
    for (name, query) in VIEWS {
        let view_start = Instant::now();
        h.create_materialized_view(&create_view(name, query))
            .map_err(err)?;
        create_ms.push(view_start.elapsed().as_secs_f64() * 1e3);
    }
    // The WAL then holds only what the timed phase writes.
    h.checkpoint().map_err(err)?;
    Ok(h)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = |rep: usize| -> PathBuf { ctx.dir.join(format!("olap-{rep}")) };
    let mut create_ms = Vec::new();
    // Each repetition gets a fresh data directory, made before timing.
    for rep in 0..SETUP_REPS {
        std::fs::create_dir_all(dir(rep)).map_err(err)?;
    }
    let (rng, model) = Model::new(ctx.seed);
    let setup = repeat_setup(|rep| {
        let mut h = setup(&dir(rep), &model, &mut create_ms)?;
        if let Some(p) = ctx.parallelism {
            h.set_parallelism(p);
        }
        Ok(h)
    })?;
    let data_dir = dir(SETUP_REPS - 1);
    for rep in 0..SETUP_REPS - 1 {
        std::fs::remove_dir_all(dir(rep)).map_err(err)?;
    }
    let h = setup.state;
    let mut w = HtapJoin {
        h,
        rng,
        model,
        next_id: ORDERS,
        round: Vec::new(),
        texts: Vec::new(),
        keep_texts: ctx.trace,
    };
    w.check()?;
    let mut meter = Meter::new(ctx.trace);
    let (changes, deltas) = drive(ctx, &mut w, &mut meter)?;

    let mut layer = BTreeMap::new();
    if ctx.trace {
        let flags = w.h.olap().flags().clone();
        let catalog = w.h.olap().database().catalog();
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

    // Crash: drop without close, then reopen, which replays the WAL.
    let HtapJoin { h, model, .. } = w;
    drop(h);
    let start = Instant::now();
    let mut h = HtapPipeline::open(&data_dir, IvmFlags::paper_defaults()).map_err(err)?;
    let recovery_s = start.elapsed().as_secs_f64();
    if let Some(p) = ctx.parallelism {
        h.set_parallelism(p);
    }
    let replayed = h
        .olap()
        .database()
        .recovery_stats()
        .map_or(0, |r| r.replayed_records);
    check_pipeline(&mut h, &model).map_err(|e| format!("after reopening: {e}"))?;
    h.close().map_err(err)?;
    let mut deltas = deltas;
    deltas.insert("recovery.replayed_records", replayed);

    let wal_bytes = deltas.get("wal.bytes").copied().unwrap_or(0) as f64;
    Ok(Outcome {
        meter,
        setup_s: setup.seconds,
        bench_rss_mb: setup.bench_rss_mb,
        changes,
        refresh_in_write: false,
        deltas,
        layer,
        notes: vec![
            ("recovery_s".into(), recovery_s, "s"),
            (
                "wal_bytes_per_change".into(),
                wal_bytes / changes as f64,
                "B",
            ),
        ],
    })
}
