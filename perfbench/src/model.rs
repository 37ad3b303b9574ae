//! The oracles' own models of the base tables, and the view contents
//! they imply. Nothing here calls the program: expected views are
//! computed from the model alone and compared with what the program
//! returns.

use std::collections::BTreeMap;

use ivm_engine::Value;

/// A base table with a non-negative integer primary key (column 0).
/// Every row is integer and NULL-free. Rows sit in one flat vector of
/// fixed width and keys index a dense slot vector, so the model of a
/// million-row table costs little more than its integers.
#[derive(Debug, Clone)]
pub struct KeyedTable {
    width: usize,
    /// Live rows, `width` integers each, in slot order.
    cells: Vec<i64>,
    /// Key → slot of its row, [`DEAD`] when the key is not live.
    slot: Vec<u32>,
    len: usize,
}

const DEAD: u32 = u32::MAX;

impl KeyedTable {
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "a row holds at least its key");
        KeyedTable {
            width,
            cells: Vec::new(),
            slot: Vec::new(),
            len: 0,
        }
    }

    fn slot_of(&self, key: i64) -> Option<usize> {
        let s = *self.slot.get(usize::try_from(key).ok()?)?;
        (s != DEAD).then_some(s as usize)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, key: i64) -> Option<&[i64]> {
        self.slot_of(key).map(|i| self.row(i))
    }

    fn row(&self, i: usize) -> &[i64] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// The `i`-th live key (`i < len`); the order is arbitrary but
    /// determined by the sequence of operations.
    pub fn key_at(&self, i: usize) -> i64 {
        self.row(i)[0]
    }

    pub fn insert(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.width, "row width");
        let key = row[0];
        assert!(self.slot_of(key).is_none(), "duplicate key {key}");
        let k = usize::try_from(key).expect("keys are non-negative");
        if k >= self.slot.len() {
            self.slot.resize(k + 1, DEAD);
        }
        self.slot[k] = u32::try_from(self.len).expect("fewer than 2^32 - 1 rows");
        self.len += 1;
        self.cells.extend_from_slice(row);
    }

    pub fn update(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.width, "row width");
        let i = self.slot_of(row[0]).expect("update of a live key");
        self.cells[i * self.width..(i + 1) * self.width].copy_from_slice(row);
    }

    pub fn delete(&mut self, key: i64) -> Vec<i64> {
        let i = self.slot_of(key).expect("delete of a live key");
        self.slot[key as usize] = DEAD;
        let row = swap_remove_row(&mut self.cells, self.width, i);
        self.len -= 1;
        if i < self.len {
            let moved = self.key_at(i);
            self.slot[moved as usize] = i as u32;
        }
        row
    }

    pub fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.cells.chunks_exact(self.width)
    }
}

/// Remove row `i` of a flat `width`-wide vector by moving the last row
/// into its place; returns the removed row.
fn swap_remove_row(cells: &mut Vec<i64>, width: usize, i: usize) -> Vec<i64> {
    let last = cells.len() / width - 1;
    let row = cells[i * width..(i + 1) * width].to_vec();
    if i != last {
        cells.copy_within(last * width..(last + 1) * width, i * width);
    }
    cells.truncate(last * width);
    row
}

/// A keyless base table: a multiset of integer rows of fixed width,
/// stored flat.
#[derive(Debug, Clone)]
pub struct Bag {
    width: usize,
    cells: Vec<i64>,
}

impl Bag {
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "rows have columns");
        Bag {
            width,
            cells: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    pub fn insert(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.width, "row width");
        self.cells.extend_from_slice(row);
    }

    /// Remove and return the `i`-th row (`i < len`).
    pub fn remove_at(&mut self, i: usize) -> Vec<i64> {
        swap_remove_row(&mut self.cells, self.width, i)
    }

    pub fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.cells.chunks_exact(self.width)
    }
}

/// Per-group aggregates of one integer column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    pub sum: i64,
    pub count: i64,
    pub max: i64,
}

/// `GROUP BY key_col` with SUM, COUNT and MAX of `val_col`. Groups with
/// no rows do not appear.
pub fn group_agg<'a>(
    rows: impl Iterator<Item = &'a [i64]>,
    key_col: usize,
    val_col: usize,
) -> BTreeMap<i64, Agg> {
    let mut out: BTreeMap<i64, Agg> = BTreeMap::new();
    for row in rows {
        let v = row[val_col];
        out.entry(row[key_col])
            .and_modify(|a| {
                a.sum += v;
                a.count += 1;
                a.max = a.max.max(v);
            })
            .or_insert(Agg {
                sum: v,
                count: 1,
                max: v,
            });
    }
    out
}

/// `orders(o_id, c_id, amount) ⋈ customers(c_id, region)` grouped by
/// region: SUM(amount) and COUNT(*). Orders whose customer is missing
/// join nothing.
pub fn revenue_by_region(orders: &KeyedTable, customers: &KeyedTable) -> BTreeMap<i64, Agg> {
    let joined: Vec<Vec<i64>> = orders
        .rows()
        .filter_map(|o| customers.get(o[1]).map(|c| vec![c[1], o[2]]))
        .collect();
    group_agg(joined.iter().map(Vec::as_slice), 0, 1)
}

/// A view read as `key → remaining columns`, all integers.
pub type ViewRows = BTreeMap<i64, Vec<i64>>;

/// Decode a view read whose first column is a unique integer key.
pub fn decode(rows: &[Vec<Value>]) -> Result<ViewRows, String> {
    let int = |v: &Value| match v {
        Value::Integer(i) => Ok(*i),
        other => Err(format!("expected an integer, read {other:?}")),
    };
    let mut out = ViewRows::new();
    for row in rows {
        let key = int(row.first().ok_or("empty row")?)?;
        let rest = row[1..].iter().map(int).collect::<Result<Vec<_>, _>>()?;
        if out.insert(key, rest).is_some() {
            return Err(format!("key {key} read twice"));
        }
    }
    Ok(out)
}

/// Expected view rows from model aggregates, projected by `cols`.
pub fn expect(aggs: &BTreeMap<i64, Agg>, cols: fn(&Agg) -> Vec<i64>) -> ViewRows {
    aggs.iter().map(|(k, a)| (*k, cols(a))).collect()
}

/// Compare a view read with its expected rows; `Err` names the first
/// few differing keys.
pub fn compare(view: &str, got: &ViewRows, want: &ViewRows) -> Result<(), String> {
    let mut diffs = Vec::new();
    for key in got
        .keys()
        .chain(want.keys().filter(|k| !got.contains_key(k)))
    {
        let (g, w) = (got.get(key), want.get(key));
        if g != w {
            diffs.push(format!("key {key}: read {g:?}, model {w:?}"));
        }
        if diffs.len() == 5 {
            break;
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{view}: {} rows read, {} expected; {}",
            got.len(),
            want.len(),
            diffs.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_table_tracks_live_keys() {
        let mut t = KeyedTable::new(2);
        for k in 0..5 {
            t.insert(&[k, k * 10]);
        }
        assert_eq!(t.delete(1), vec![1, 10]);
        assert_eq!(t.delete(4), vec![4, 40]);
        t.update(&[2, 99]);
        assert_eq!(t.len(), 3);
        let mut keys: Vec<i64> = (0..t.len()).map(|i| t.key_at(i)).collect();
        keys.sort();
        assert_eq!(keys, vec![0, 2, 3]);
        assert_eq!(t.get(2), Some(&[2, 99][..]));
        assert_eq!(t.get(1), None);
        // Slots stay consistent after rows move into freed slots.
        let last = t.key_at(t.len() - 1);
        t.delete(last);
        for i in 0..t.len() {
            let key = t.key_at(i);
            assert_eq!(t.get(key).unwrap()[0], key);
        }
        let mut rows: Vec<&[i64]> = t.rows().collect();
        rows.sort();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| t.get(r[0]) == Some(*r)));
    }

    #[test]
    fn group_agg_drops_empty_groups_and_recomputes_max() {
        let mut t = KeyedTable::new(3);
        t.insert(&[1, 7, 5]);
        t.insert(&[2, 7, 9]);
        t.insert(&[3, 8, 4]);
        let before = group_agg(t.rows(), 1, 2);
        assert_eq!(
            before[&7],
            Agg {
                sum: 14,
                count: 2,
                max: 9
            }
        );
        t.delete(2);
        t.delete(3);
        let after = group_agg(t.rows(), 1, 2);
        assert_eq!(after.len(), 1, "group 8 lost its last row");
        assert_eq!(
            after[&7],
            Agg {
                sum: 5,
                count: 1,
                max: 5
            }
        );
    }

    #[test]
    fn bag_keeps_duplicates() {
        let mut b = Bag::new(2);
        b.insert(&[1, 2]);
        b.insert(&[1, 2]);
        b.insert(&[3, 4]);
        b.remove_at(0);
        let a = group_agg(b.rows(), 0, 1);
        assert_eq!(
            a[&1],
            Agg {
                sum: 2,
                count: 1,
                max: 2
            }
        );
        assert_eq!(a[&3].count, 1);
    }

    #[test]
    fn join_model_follows_region_changes() {
        let mut customers = KeyedTable::new(2);
        customers.insert(&[1, 100]);
        customers.insert(&[2, 200]);
        let mut orders = KeyedTable::new(3);
        orders.insert(&[10, 1, 5]);
        orders.insert(&[11, 2, 7]);
        orders.insert(&[12, 2, 1]);
        let r = revenue_by_region(&orders, &customers);
        assert_eq!(
            r[&100],
            Agg {
                sum: 5,
                count: 1,
                max: 5
            }
        );
        assert_eq!(
            r[&200],
            Agg {
                sum: 8,
                count: 2,
                max: 7
            }
        );
        customers.update(&[2, 100]);
        let r = revenue_by_region(&orders, &customers);
        assert_eq!(r.len(), 1);
        assert_eq!(r[&100].sum, 13);
    }

    #[test]
    fn compare_reports_differences() {
        let want: ViewRows = [(1, vec![2]), (3, vec![4])].into();
        let read = decode(&[
            vec![Value::Integer(3), Value::Integer(4)],
            vec![Value::Integer(1), Value::Integer(2)],
        ])
        .unwrap();
        assert!(compare("v", &read, &want).is_ok());
        let wrong: ViewRows = [(1, vec![2]), (5, vec![4])].into();
        let err = compare("v", &wrong, &want).unwrap_err();
        assert!(err.contains("key 3") && err.contains("key 5"), "{err}");
        assert!(decode(&[vec![Value::Null, Value::Integer(1)]]).is_err());
        assert!(decode(&[
            vec![Value::Integer(1), Value::Integer(1)],
            vec![Value::Integer(1), Value::Integer(2)]
        ])
        .is_err());
    }
}
