//! Expected answers computed from the generated rows in plain Rust, never
//! through the engine, and the checks that hold each result against them.
//!
//! Results arrive either as an engine `Table` (in-process runs) or as a
//! rendered wire reply; both are turned into [`Rows`] of cell strings, so
//! one set of checks serves both surfaces.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tdp_core::storage::Table;

use crate::data::{cat_name, SalesData, LANGS, REGIONS};

/// Relative tolerance for float aggregates: the engine sums `f32`
/// columns and reports sums as `f32`, the reference sums in `f64`.
pub const REL_TOL: f64 = 1e-4;

/// A result as column names plus rows of rendered cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub cols: Vec<String>,
    pub data: Vec<Vec<String>>,
}

impl Rows {
    pub fn from_table(t: &Table) -> Rows {
        let cells: Vec<Vec<String>> = t
            .columns()
            .iter()
            .map(|c| c.data.decode_strings())
            .collect();
        Rows {
            cols: t.columns().iter().map(|c| c.name.clone()).collect(),
            data: (0..t.rows())
                .map(|r| cells.iter().map(|c| c[r].clone()).collect())
                .collect(),
        }
    }

    /// Parse a reply of the server's line protocol: `OK <n> rows`, a
    /// header line, then `n` rows of whitespace-separated cells. Cells of
    /// the benchmark's tables never contain whitespace.
    pub fn from_reply(reply: &str) -> Result<Rows, String> {
        let mut lines = reply.lines();
        let first = lines.next().ok_or("empty reply")?;
        let n: usize = first
            .strip_prefix("OK ")
            .and_then(|s| s.strip_suffix(" rows"))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("not a result reply: {first:?}"))?;
        let cols: Vec<String> = lines
            .next()
            .ok_or("reply has no header")?
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let data: Vec<Vec<String>> = lines
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        if data.len() != n {
            return Err(format!("reply says {n} rows, carries {}", data.len()));
        }
        if let Some(bad) = data.iter().find(|r| r.len() != cols.len()) {
            return Err(format!("row {bad:?} does not match header {cols:?}"));
        }
        Ok(Rows { cols, data })
    }

    fn col(&self, name: &str) -> Result<usize, String> {
        self.cols
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("no column {name} in {:?}", self.cols))
    }
}

fn num(cell: &str) -> Result<f64, String> {
    cell.parse()
        .map_err(|_| format!("cell {cell:?} is not a number"))
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// One row per key (the `key` column's cell), in any order; the
    /// `values` columns hold numbers equal to the reference within
    /// [`REL_TOL`].
    Keyed {
        key: &'static str,
        values: Vec<&'static str>,
        rows: BTreeMap<String, Vec<f64>>,
    },
    /// `ORDER BY order DESC LIMIT k` over an `f32` column: the `order`
    /// column must read exactly `top`, and each row's `key` must name a
    /// distinct row that qualifies with that value — ties at the cut may
    /// be broken either way.
    TopK {
        key: &'static str,
        order: &'static str,
        top: Vec<f32>,
        candidates: HashMap<String, f32>,
    },
}

impl Expect {
    pub fn check(&self, got: &Rows) -> Result<(), String> {
        match self {
            Expect::Keyed { key, values, rows } => {
                if got.data.len() != rows.len() {
                    return Err(format!("{} rows, expected {}", got.data.len(), rows.len()));
                }
                let k = got.col(key)?;
                let vs: Vec<usize> = values
                    .iter()
                    .map(|v| got.col(v))
                    .collect::<Result<_, _>>()?;
                let mut seen = BTreeSet::new();
                for row in &got.data {
                    let want = rows
                        .get(&row[k])
                        .ok_or_else(|| format!("unexpected {key} {}", row[k]))?;
                    if !seen.insert(&row[k]) {
                        return Err(format!("{key} {} repeated", row[k]));
                    }
                    for ((&c, w), name) in vs.iter().zip(want).zip(values) {
                        let g = num(&row[c])?;
                        if !close(g, *w) {
                            return Err(format!("{key} {}: {name} = {g}, expected {w}", row[k]));
                        }
                    }
                }
                Ok(())
            }
            Expect::TopK {
                key,
                order,
                top,
                candidates,
            } => {
                let (k, o) = (got.col(key)?, got.col(order)?);
                let values: Vec<f32> = got
                    .data
                    .iter()
                    .map(|r| {
                        r[o].parse()
                            .map_err(|_| format!("cell {:?} is not an f32", r[o]))
                    })
                    .collect::<Result<_, _>>()?;
                if &values != top {
                    return Err(format!("{order} reads {values:?}, expected {top:?}"));
                }
                let mut seen = BTreeSet::new();
                for (row, v) in got.data.iter().zip(&values) {
                    if candidates.get(&row[k]) != Some(v) || !seen.insert(&row[k]) {
                        return Err(format!("row {key}={} {order}={v} does not qualify", row[k]));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Reference answers over the generated `sales` and `stores` rows.
pub struct SalesRef<'a> {
    d: &'a SalesData,
    /// `qty_prefix[i]` = sum of `qty[..i]`.
    qty_prefix: Vec<i64>,
}

impl<'a> SalesRef<'a> {
    pub fn new(d: &'a SalesData) -> SalesRef<'a> {
        let mut qty_prefix = Vec::with_capacity(d.rows() + 1);
        qty_prefix.push(0);
        for &q in &d.qty {
            qty_prefix.push(qty_prefix.last().expect("seeded with 0") + q);
        }
        SalesRef { d, qty_prefix }
    }

    /// `SELECT cat, COUNT(*) AS n, SUM(qty) AS q FROM sales WHERE price > ? GROUP BY cat`
    pub fn group_cat(&self, price_gt: f32) -> Expect {
        let mut acc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..self.d.rows() {
            if self.d.price[i] > price_gt {
                let e = acc
                    .entry(cat_name(self.d.cat[i]))
                    .or_insert_with(|| vec![0.0, 0.0]);
                e[0] += 1.0;
                e[1] += self.d.qty[i] as f64;
            }
        }
        Expect::Keyed {
            key: "cat",
            values: vec!["n", "q"],
            rows: acc,
        }
    }

    /// `SELECT store, COUNT(*) AS n, SUM(price) AS rev FROM sales WHERE qty >= ? GROUP BY store`
    pub fn group_store(&self, qty_ge: i64) -> Expect {
        let mut acc: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for i in 0..self.d.rows() {
            if self.d.qty[i] >= qty_ge {
                let e = acc.entry(self.d.store[i]).or_insert_with(|| vec![0.0, 0.0]);
                e[0] += 1.0;
                e[1] += self.d.price[i] as f64;
            }
        }
        let rows = acc.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Expect::Keyed {
            key: "store",
            values: vec!["n", "rev"],
            rows,
        }
    }

    /// The filtered fact rows joined to `stores` through a hash map from
    /// store id to region, grouped by region.
    pub fn join_region(&self, price_lt: f32) -> Expect {
        let region: HashMap<i64, &str> = self
            .d
            .region
            .iter()
            .enumerate()
            .map(|(id, &r)| (id as i64, REGIONS[r]))
            .collect();
        let mut acc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..self.d.rows() {
            if self.d.price[i] < price_lt {
                if let Some(r) = region.get(&self.d.store[i]) {
                    let e = acc.entry(r.to_string()).or_insert_with(|| vec![0.0, 0.0]);
                    e[0] += 1.0;
                    e[1] += self.d.qty[i] as f64;
                }
            }
        }
        Expect::Keyed {
            key: "region",
            values: vec!["n", "q"],
            rows: acc,
        }
    }

    /// Top-`k` prices among rows selected by `pick`, by a full sort.
    fn topk(&self, k: usize, pick: impl Fn(usize) -> bool) -> Expect {
        let mut prices: Vec<f32> = (0..self.d.rows())
            .filter(|&i| pick(i))
            .map(|i| self.d.price[i])
            .collect();
        prices.sort_by(|a, b| b.total_cmp(a));
        prices.truncate(k);
        let cut = prices.last().copied().unwrap_or(f32::INFINITY);
        let candidates = (0..self.d.rows())
            .filter(|&i| pick(i) && self.d.price[i] >= cut)
            .map(|i| (self.d.ts[i].to_string(), self.d.price[i]))
            .collect();
        Expect::TopK {
            key: "ts",
            order: "price",
            top: prices,
            candidates,
        }
    }

    /// `SELECT ts, price FROM sales WHERE cat = ? ORDER BY price DESC LIMIT k`
    pub fn topk_cat(&self, cat: usize, k: usize) -> Expect {
        self.topk(k, |i| self.d.cat[i] == cat)
    }

    /// `… WHERE ts BETWEEN lo AND hi ORDER BY price DESC LIMIT k`
    pub fn topk_range(&self, lo: i64, hi: i64, k: usize) -> Expect {
        let (a, b) = self.span(lo, hi);
        self.topk(k, |i| i >= a && i < b)
    }

    /// Row positions `a..b` whose `ts` lies in `[lo, hi]`, found by
    /// binary search on the sorted key.
    fn span(&self, lo: i64, hi: i64) -> (usize, usize) {
        let a = self.d.ts.partition_point(|&t| t < lo);
        let b = self.d.ts.partition_point(|&t| t <= hi);
        (a, b.max(a))
    }

    /// `SELECT COUNT(*) AS n, SUM(qty) AS q FROM sales WHERE ts BETWEEN lo AND hi`,
    /// by arithmetic on the sorted key and a prefix sum. SQL gives one row
    /// with a NULL sum over no rows; the benchmark's ranges are never empty.
    pub fn range_ts(&self, lo: i64, hi: i64) -> Expect {
        let (a, b) = self.span(lo, hi);
        let q = self.qty_prefix[b] - self.qty_prefix[a];
        Expect::Keyed {
            key: "n",
            values: vec!["q"],
            rows: BTreeMap::from([((b - a).to_string(), vec![q as f64])]),
        }
    }

    /// `SELECT DISTINCT store FROM sales WHERE cat = ? AND qty > ?`, through a set.
    pub fn distinct_store(&self, cat: usize, qty_gt: i64) -> Expect {
        let set: BTreeSet<i64> = (0..self.d.rows())
            .filter(|&i| self.d.cat[i] == cat && self.d.qty[i] > qty_gt)
            .map(|i| self.d.store[i])
            .collect();
        Expect::Keyed {
            key: "store",
            values: vec![],
            rows: set.into_iter().map(|s| (s.to_string(), vec![])).collect(),
        }
    }

    /// `SELECT ts, store, price, qty FROM sales WHERE ts = ?`
    pub fn point(&self, ts: i64) -> Expect {
        let rows = match self.d.ts.binary_search(&ts) {
            Ok(i) => BTreeMap::from([(
                ts.to_string(),
                vec![
                    self.d.store[i] as f64,
                    self.d.price[i] as f64,
                    self.d.qty[i] as f64,
                ],
            )]),
            Err(_) => BTreeMap::new(),
        };
        Expect::Keyed {
            key: "ts",
            values: vec!["store", "price", "qty"],
            rows,
        }
    }

    /// `SELECT region, COUNT(*) AS n FROM stores WHERE store_id < ? GROUP BY region`
    pub fn dim_group(&self, below: i64) -> Expect {
        let mut acc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (id, &r) in self.d.region.iter().enumerate() {
            if (id as i64) < below {
                acc.entry(REGIONS[r].to_string())
                    .or_insert_with(|| vec![0.0])[0] += 1.0;
            }
        }
        Expect::Keyed {
            key: "region",
            values: vec!["n"],
            rows: acc,
        }
    }
}

/// Running reference of `docs`: per-language counts and score sums above
/// each threshold the workload uses, maintained as batches are appended.
pub struct DocsRef {
    pub thresholds: Vec<f32>,
    /// `[threshold][lang] -> (count, score sum)`.
    acc: Vec<Vec<(f64, f64)>>,
    pub rows: usize,
}

impl DocsRef {
    pub fn new(thresholds: Vec<f32>) -> DocsRef {
        let acc = vec![vec![(0.0, 0.0); LANGS.len()]; thresholds.len()];
        DocsRef {
            thresholds,
            acc,
            rows: 0,
        }
    }

    pub fn add(&mut self, lang: &[usize], score: &[f32]) {
        for (t, th) in self.thresholds.iter().enumerate() {
            for (&l, &s) in lang.iter().zip(score) {
                if s > *th {
                    self.acc[t][l].0 += 1.0;
                    self.acc[t][l].1 += s as f64;
                }
            }
        }
        self.rows += lang.len();
    }

    /// `SELECT lang, COUNT(*) AS n, SUM(score) AS s FROM docs WHERE score > ? GROUP BY lang`
    pub fn group_lang(&self, t: usize) -> Expect {
        let rows = LANGS
            .iter()
            .zip(&self.acc[t])
            .filter(|(_, (n, _))| *n > 0.0)
            .map(|(l, (n, s))| (l.to_string(), vec![*n, *s]))
            .collect();
        Expect::Keyed {
            key: "lang",
            values: vec!["n", "s"],
            rows,
        }
    }

    /// `SELECT COUNT(*) AS n FROM docs WHERE id >= lo AND id < hi`: ids are
    /// `0..rows`, so the count is the overlap of two ranges.
    pub fn id_count(&self, lo: i64, hi: i64) -> Expect {
        let n = (hi.min(self.rows as i64) - lo.max(0)).max(0);
        Expect::Keyed {
            key: "n",
            values: vec![],
            rows: BTreeMap::from([(n.to_string(), vec![])]),
        }
    }
}

/// The `id` column of an ANN result.
pub fn ann_ids(t: &Table) -> Vec<usize> {
    t.column("id")
        .map(|c| {
            c.data
                .decode_i64()
                .data()
                .iter()
                .map(|&v| v as usize)
                .collect()
        })
        .unwrap_or_default()
}

pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum()
}

/// Exact top-`k` row ids by L2 distance over the first `rows` vectors of
/// a row-major `dim`-wide matrix, by brute force.
pub fn brute_force_topk(
    vectors: &[f32],
    dim: usize,
    rows: usize,
    q: &[f32],
    k: usize,
) -> Vec<usize> {
    let mut d: Vec<(f64, usize)> = (0..rows)
        .map(|i| (l2(&vectors[i * dim..(i + 1) * dim], q), i))
        .collect();
    let k = k.min(rows);
    if k == 0 {
        return Vec::new();
    }
    d.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
    d.truncate(k);
    d.sort_by(|a, b| a.0.total_cmp(&b.0));
    d.into_iter().map(|(_, i)| i).collect()
}

/// The properties every ANN answer must have whatever the index: as many
/// ids as the exact answer `exact`, distinct, in range, at distances that
/// never decrease (within [`REL_TOL`]). Returns the recall against `exact`.
pub fn check_ann(
    ids: &[usize],
    vectors: &[f32],
    dim: usize,
    rows: usize,
    q: &[f32],
    exact: &[usize],
) -> Result<f64, String> {
    if ids.len() != exact.len() {
        return Err(format!("{} ids, expected {}", ids.len(), exact.len()));
    }
    let mut seen = BTreeSet::new();
    let mut last = f64::NEG_INFINITY;
    for &id in ids {
        if id >= rows || !seen.insert(id) {
            return Err(format!("id {id} out of range or repeated"));
        }
        let d = l2(&vectors[id * dim..(id + 1) * dim], q);
        // The engine ranks by f32 distances; the f64 recomputation may
        // order two near-equal distances the other way.
        if d < last - REL_TOL * last.abs().max(1.0) {
            return Err(format!("distance falls to {d} after {last}"));
        }
        last = d;
    }
    Ok(ids.iter().filter(|i| exact.contains(i)).count() as f64 / exact.len().max(1) as f64)
}

/// Soft class counts of the trainable LLP query: the column sums of
/// `softmax(X · W + b)` for `X` of shape `[n, f]`, `W` `[f, 2]`, `b` `[2]`.
pub fn soft_counts(x: &[f32], features: usize, w: &[f32], b: &[f32]) -> [f64; 2] {
    let mut out = [0.0; 2];
    for row in x.chunks_exact(features) {
        let mut z = [b[0] as f64, b[1] as f64];
        for (j, &v) in row.iter().enumerate() {
            z[0] += v as f64 * w[j * 2] as f64;
            z[1] += v as f64 * w[j * 2 + 1] as f64;
        }
        let m = z[0].max(z[1]);
        let (e0, e1) = ((z[0] - m).exp(), (z[1] - m).exp());
        out[0] += e0 / (e0 + e1);
        out[1] += e1 / (e0 + e1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SalesData {
        SalesData {
            ts: vec![10, 12, 15, 16, 20],
            store: vec![0, 1, 0, 2, 1],
            cat: vec![0, 1, 0, 0, 1],
            price: vec![5.0, 9.0, 7.5, 9.0, 1.0],
            qty: vec![1, 2, 3, 4, 5],
            region: vec![0, 1, 1],
        }
    }

    fn keyed(rows: &[(&str, &[f64])]) -> BTreeMap<String, Vec<f64>> {
        rows.iter()
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect()
    }

    #[test]
    fn groups_joins_and_ranges_on_hand_made_rows() {
        let d = tiny();
        let r = SalesRef::new(&d);
        match r.group_cat(4.0) {
            Expect::Keyed { rows, .. } => {
                assert_eq!(rows, keyed(&[("c00", &[3.0, 8.0]), ("c01", &[1.0, 2.0])]))
            }
            e => panic!("{e:?}"),
        }
        match r.group_store(3) {
            Expect::Keyed { rows, .. } => {
                assert_eq!(
                    rows,
                    keyed(&[("0", &[1.0, 7.5]), ("1", &[1.0, 1.0]), ("2", &[1.0, 9.0])])
                )
            }
            e => panic!("{e:?}"),
        }
        // Stores 1 and 2 lie in region 1 ("coast").
        match r.join_region(9.5) {
            Expect::Keyed { rows, .. } => {
                assert_eq!(
                    rows,
                    keyed(&[("central", &[2.0, 4.0]), ("coast", &[3.0, 11.0])])
                )
            }
            e => panic!("{e:?}"),
        }
        assert_eq!(
            r.range_ts(11, 16),
            Expect::Keyed {
                key: "n",
                values: vec!["q"],
                rows: keyed(&[("3", &[9.0])])
            }
        );
        assert_eq!(
            r.distinct_store(0, 1),
            Expect::Keyed {
                key: "store",
                values: vec![],
                rows: keyed(&[("0", &[]), ("2", &[])])
            }
        );
        assert_eq!(
            r.point(13),
            Expect::Keyed {
                key: "ts",
                values: vec!["store", "price", "qty"],
                rows: BTreeMap::new()
            }
        );
    }

    #[test]
    fn topk_accepts_either_side_of_a_tie() {
        let d = tiny();
        let e = SalesRef::new(&d).topk_range(0, 100, 1);
        let a = Rows {
            cols: vec!["ts".into(), "price".into()],
            data: vec![vec!["12".into(), "9".into()]],
        };
        let b = Rows {
            cols: vec!["ts".into(), "price".into()],
            data: vec![vec!["16".into(), "9".into()]],
        };
        let wrong = Rows {
            cols: vec!["ts".into(), "price".into()],
            data: vec![vec!["15".into(), "9".into()]],
        };
        assert!(e.check(&a).is_ok() && e.check(&b).is_ok());
        assert!(e.check(&wrong).is_err());
    }

    #[test]
    fn keyed_check_catches_missing_extra_and_wrong_values() {
        let e = Expect::Keyed {
            key: "k",
            values: vec!["v"],
            rows: keyed(&[("a", &[1.0]), ("b", &[2.0])]),
        };
        let rows = |d: &[(&str, &str)]| Rows {
            cols: vec!["k".into(), "v".into()],
            data: d
                .iter()
                .map(|(k, v)| vec![k.to_string(), v.to_string()])
                .collect(),
        };
        assert!(e.check(&rows(&[("b", "2"), ("a", "1.00001")])).is_ok());
        assert!(e.check(&rows(&[("a", "1")])).is_err());
        assert!(e.check(&rows(&[("a", "1"), ("c", "2")])).is_err());
        assert!(e.check(&rows(&[("a", "1"), ("b", "2.1")])).is_err());
        assert!(e.check(&rows(&[("a", "1"), ("a", "1")])).is_err());
    }

    #[test]
    fn parses_a_wire_reply() {
        let r = Rows::from_reply("OK 2 rows\nregion   n  \n  east  3  \nwest  4").unwrap();
        assert_eq!(r.cols, vec!["region", "n"]);
        assert_eq!(r.data[1], vec!["west", "4"]);
        assert!(Rows::from_reply("OK 3 rows\na\n1").is_err());
        assert!(Rows::from_reply("ERR EXEC boom").is_err());
    }

    #[test]
    fn docs_reference_counts_and_ranges() {
        let mut r = DocsRef::new(vec![0.5]);
        r.add(&[0, 1, 0], &[0.9, 0.2, 0.6]);
        match r.group_lang(0) {
            Expect::Keyed { rows, .. } => assert_eq!(rows.len(), 1),
            e => panic!("{e:?}"),
        }
        assert_eq!(
            r.id_count(1, 10),
            Expect::Keyed {
                key: "n",
                values: vec![],
                rows: keyed(&[("2", &[])])
            }
        );
    }

    #[test]
    fn ann_properties_and_recall() {
        // Four 1-d points; the query sits at 2.1.
        let v = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(brute_force_topk(&v, 1, 4, &[2.1], 2), vec![2, 3]);
        let exact = brute_force_topk(&v, 1, 4, &[2.1], 2);
        assert_eq!(check_ann(&[2, 3], &v, 1, 4, &[2.1], &exact), Ok(1.0));
        assert_eq!(check_ann(&[2, 1], &v, 1, 4, &[2.1], &exact), Ok(0.5));
        assert!(check_ann(&[3, 2], &v, 1, 4, &[2.1], &exact).is_err());
        assert!(check_ann(&[2, 2], &v, 1, 4, &[2.1], &exact).is_err());
        assert!(check_ann(&[2, 9], &v, 1, 4, &[2.1], &exact).is_err());
        assert!(check_ann(&[2], &v, 1, 4, &[2.1], &exact).is_err());
        // Two points at distances equal in f32 but not in f64 may come in
        // either order.
        let near = [1.0, 1.0 + 1e-7];
        assert!(check_ann(&[1, 0], &near, 1, 2, &[0.0], &[0, 1]).is_ok());
    }

    #[test]
    fn soft_counts_of_a_zero_model_split_evenly() {
        let c = soft_counts(&[1.0, 2.0, 3.0, 4.0], 2, &[0.0; 4], &[0.0, 0.0]);
        assert_eq!(c, [1.0, 1.0]);
        // A large bias on class 1 sends nearly all mass there.
        let c = soft_counts(&[1.0, 2.0], 2, &[0.0; 4], &[0.0, 50.0]);
        assert!(c[1] > 0.999);
    }
}
