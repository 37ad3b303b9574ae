//! `extension-lazy` (demo i): OpenIVM inside the engine. An in-memory
//! session with the paper's default flags (lazy propagation) keeps
//! Listing 1's SUM view and a MAX view over one keyed table. Each round
//! sends one multi-row INSERT and single-row UPDATEs and DELETEs by key
//! through `IvmSession::execute`, then `refresh_all`, then reads both
//! views. Small deltas against a large base: SQL interception, planning
//! and the plan cache, ART upserts and the MAX recompute path.

use std::collections::BTreeMap;

use ivm_core::IvmSession;

use super::{
    compile_ms, create_view, drive, err, parse_us, repeat_setup, session_counters, values, Ctx,
    Outcome, Workload, PARSE_SAMPLE,
};
use crate::model::{compare, decode, expect, group_agg, KeyedTable};
use crate::rng::Rng;
use crate::trace::{Counters, Kind, Meter};

/// Base rows (E1's largest scale).
const BASE_ROWS: i64 = 1_000_000;
/// Groups: √BASE_ROWS, as in E1, so the views stay small.
const GROUPS: i64 = 1_000;
/// Values are uniform in `0..VALUES`.
const VALUES: i64 = 1_000;
/// Per round: rows in the one INSERT, and single-row UPDATEs and
/// DELETEs by key. Inserts and deletes balance, so the table keeps its
/// size.
const INSERT_ROWS: usize = 8;
const UPDATES: usize = 8;
const DELETES: usize = 8;

const TABLE: &str =
    "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index INTEGER, group_value INTEGER)";
const VIEWS: [(&str, &str); 2] = [
    (
        "query_groups",
        "SELECT group_index, SUM(group_value) AS total_value FROM groups GROUP BY group_index",
    ),
    (
        "max_groups",
        "SELECT group_index, MAX(group_value) AS max_value FROM groups GROUP BY group_index",
    ),
];

struct ExtensionLazy {
    s: IvmSession,
    rng: Rng,
    model: KeyedTable,
    next_id: i64,
    round: Vec<String>,
    /// Texts kept for the parser probe.
    texts: Vec<String>,
    keep_texts: bool,
}

fn base_rows(seed: u64) -> (Rng, KeyedTable) {
    let mut rng = Rng::new(seed, 1);
    let mut model = KeyedTable::new(3);
    for id in 0..BASE_ROWS {
        model.insert(&[id, rng.range(0, GROUPS), rng.range(0, VALUES)]);
    }
    (rng, model)
}

impl Workload for ExtensionLazy {
    fn prepare(&mut self) -> u64 {
        let rng = &mut self.rng;
        let mut sql = Vec::new();
        let rows: Vec<String> = (0..INSERT_ROWS)
            .map(|_| {
                let row = [self.next_id, rng.range(0, GROUPS), rng.range(0, VALUES)];
                self.next_id += 1;
                let text = format!("({}, {}, {})", row[0], row[1], row[2]);
                self.model.insert(&row);
                text
            })
            .collect();
        sql.push(format!("INSERT INTO groups VALUES {}", rows.join(", ")));
        for _ in 0..UPDATES {
            let id = self
                .model
                .key_at(rng.below(self.model.len() as u64) as usize);
            let mut row = self.model.get(id).expect("live").to_vec();
            row[2] = rng.range(0, VALUES);
            sql.push(format!(
                "UPDATE groups SET group_value = {} WHERE id = {id}",
                row[2]
            ));
            self.model.update(&row);
        }
        for _ in 0..DELETES {
            let id = self
                .model
                .key_at(rng.below(self.model.len() as u64) as usize);
            sql.push(format!("DELETE FROM groups WHERE id = {id}"));
            self.model.delete(id);
        }
        if self.keep_texts && self.texts.len() < PARSE_SAMPLE {
            self.texts.extend(sql.iter().cloned());
        }
        self.round = sql;
        (INSERT_ROWS + UPDATES + DELETES) as u64
    }

    fn run(&mut self, m: &mut Meter) {
        let s = &mut self.s;
        for sql in &self.round {
            m.op(Kind::Write, "extension.execute", || s.execute(sql));
        }
        m.op(Kind::Refresh, "extension.refresh", || s.refresh_all());
        for (name, _) in VIEWS {
            m.op(Kind::Read, "extension.query_view", || s.query_view(name));
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let aggs = group_agg(self.model.rows(), 1, 2);
        let want = [
            expect(&aggs, |a| vec![a.sum]),
            expect(&aggs, |a| vec![a.max]),
        ];
        for ((name, _), want) in VIEWS.iter().zip(&want) {
            let got = decode(&self.s.query_view(name).map_err(err)?.rows)?;
            compare(name, &got, want)?;
            if !self.s.check_consistency(name).map_err(err)? {
                return Err(format!("{name} differs from its recomputation"));
            }
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
    let (rng, model) = base_rows(ctx.seed);
    let mut create_ms = Vec::new();
    let setup = repeat_setup(|_| {
        let mut s = IvmSession::with_defaults();
        ctx.configure(&mut s);
        s.execute(TABLE).map_err(err)?;
        let table = s
            .database_mut()
            .catalog_mut()
            .table_mut("groups")
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
        Ok(s)
    })?;
    let mut w = ExtensionLazy {
        s: setup.state,
        rng,
        model,
        next_id: BASE_ROWS,
        round: Vec::new(),
        texts: Vec::new(),
        keep_texts: ctx.trace,
    };
    w.check()?;
    let mut meter = Meter::new(ctx.trace);
    let (changes, deltas) = drive(ctx, &mut w, &mut meter)?;
    let mut layer = BTreeMap::new();
    if ctx.trace {
        let flags = w.s.flags().clone();
        layer.insert(
            "compiler.compile_ms",
            crate::stats::median(&compile_ms(w.s.database().catalog(), &flags, &VIEWS))
                .expect("views"),
        );
        layer.insert(
            "sql.parse_us_p50",
            crate::stats::median(&parse_us(&w.texts)).expect("texts"),
        );
    }
    layer.insert(
        "extension.create_view_ms",
        crate::stats::median(&create_ms).expect("views"),
    );
    Ok(Outcome {
        meter,
        setup_s: setup.seconds,
        bench_rss_mb: setup.bench_rss_mb,
        changes,
        refresh_in_write: false,
        deltas,
        layer,
        notes: Vec::new(),
    })
}
