//! `olap_refresh`: one dashboard refresh is seven prepared statements run
//! back to back in one in-process session, over a sorted fact table, a
//! dimension table and an IVF-indexed embedding table.

use std::time::Instant;

use tdp_core::index::{IvfParams, Metric};
use tdp_core::storage::Table;
use tdp_core::tensor::F32Tensor;
use tdp_core::{IndexKind, ParamValues, Session, TdpEngine};

use crate::data::{self, cat_name, Embedder, Rng, SalesData, CATS, DIM, SALES_ROWS};
use crate::harness::{
    closed_loop, ms_since, register, span_median, table_bytes, Counters, Fail, Mode, Outcome,
    SetupClock, Tally,
};
use crate::reference::{ann_ids, brute_force_topk, check_ann, Expect, Rows, SalesRef};
use crate::trace::Tracer;

pub const STATEMENTS: [(&str, &str); 7] = [
    (
        "group_cat",
        "SELECT cat, COUNT(*) AS n, SUM(qty) AS q FROM sales WHERE price > ? GROUP BY cat",
    ),
    (
        "group_store",
        "SELECT store, COUNT(*) AS n, SUM(price) AS rev FROM sales WHERE qty >= ? GROUP BY store",
    ),
    (
        "join_region",
        "SELECT r.region, COUNT(*) AS n, SUM(s.qty) AS q \
         FROM (SELECT store, qty FROM sales WHERE price < ?) AS s \
         JOIN stores AS r ON s.store = r.store_id GROUP BY r.region",
    ),
    (
        "topk_cat",
        "SELECT ts, price FROM sales WHERE cat = ? ORDER BY price DESC LIMIT 10",
    ),
    (
        "range_ts",
        "SELECT COUNT(*) AS n, SUM(qty) AS q FROM sales WHERE ts BETWEEN ? AND ?",
    ),
    (
        "distinct_store",
        "SELECT DISTINCT store FROM sales WHERE cat = ? AND qty > ?",
    ),
    (
        "ann_items",
        "SELECT id FROM items ORDER BY distance(emb, ?) LIMIT 10",
    ),
];

/// Span names of the six relational statements, index-aligned with
/// [`STATEMENTS`]; the seventh is the ANN search.
const RUN_SPANS: [&str; 6] = [
    "exec.run.group_cat",
    "exec.run.group_store",
    "exec.run.join_region",
    "exec.run.topk_cat",
    "exec.run.range_ts",
    "exec.run.distinct_store",
];

/// Distinct parameter sets; refresh `i` uses set `i % PARAM_SETS`.
const PARAM_SETS: usize = 24;
/// IVF index of `items`: k-means cells and cells probed per query.
pub const ITEMS_NLIST: usize = 32;
pub const ITEMS_NPROBE: usize = 4;
/// Mean recall@10 the ANN answers must reach over a run.
pub const MIN_RECALL: f64 = 0.8;
const ANN_K: usize = 10;

/// The parameters of one refresh. The thresholds that set how many rows
/// the three heavy statements aggregate are drawn from bands one cent
/// wide in selectivity terms (price) or fixed (quantity), so every
/// refresh does the same work whatever the seed and no percentile falls
/// between a light and a heavy parameter set; the seed picks categories,
/// time windows and query vectors, which cost the same whichever is
/// drawn. Float thresholds sit half a cent off the generated prices, so
/// no comparison depends on rounding.
struct Params {
    price_gt: f64,
    qty_ge: i64,
    price_lt: f64,
    top_cat: usize,
    lo: i64,
    hi: i64,
    distinct_cat: usize,
    distinct_qty_gt: i64,
    query: Vec<f32>,
}

impl Params {
    fn generate(r: &mut Rng, d: &SalesData, emb: &Embedder) -> Params {
        let n = d.rows();
        let a = r.below(n - n / 10);
        Params {
            price_gt: 49.505 + r.below(2) as f64,
            qty_ge: 6,
            price_lt: 49.505 + r.below(2) as f64,
            top_cat: r.below(CATS),
            lo: d.ts[a],
            hi: d.ts[a + n / 10],
            distinct_cat: r.below(CATS),
            distinct_qty_gt: 6 + r.below(2) as i64,
            query: emb.one(r),
        }
    }

    fn bindings(&self) -> [ParamValues; 7] {
        [
            ParamValues::new().number(self.price_gt),
            ParamValues::new().number(self.qty_ge as f64),
            ParamValues::new().number(self.price_lt),
            ParamValues::new().string(cat_name(self.top_cat)),
            ParamValues::new()
                .number(self.lo as f64)
                .number(self.hi as f64),
            ParamValues::new()
                .string(cat_name(self.distinct_cat))
                .number(self.distinct_qty_gt as f64),
            ParamValues::new().tensor(F32Tensor::from_vec(self.query.clone(), &[DIM])),
        ]
    }

    fn expect(&self, r: &SalesRef, items: &[f32]) -> ([Expect; 6], Vec<usize>) {
        (
            [
                r.group_cat(self.price_gt as f32),
                r.group_store(self.qty_ge),
                r.join_region(self.price_lt as f32),
                r.topk_cat(self.top_cat, 10),
                r.range_ts(self.lo, self.hi),
                r.distinct_store(self.distinct_cat, self.distinct_qty_gt),
            ],
            brute_force_topk(items, DIM, items.len() / DIM, &self.query, ANN_K),
        )
    }
}

/// Generated inputs of the sales workloads, kept beside the engine's copy.
pub struct SalesInputs {
    pub d: SalesData,
    pub sales: Table,
    pub stores: Table,
}

impl SalesInputs {
    pub fn generate(seed: u64) -> SalesInputs {
        let d = SalesData::generate(seed, SALES_ROWS);
        SalesInputs {
            sales: d.sales_table(),
            stores: d.stores_table(),
            d,
        }
    }

    pub fn register(&self, s: &Session, clock: &mut SetupClock, tr: &mut Tracer) {
        register(s, &self.sales, clock, tr);
        register(s, &self.stores, clock, tr);
    }
}

pub fn run(seed: u64, seconds: f64, mode: Mode, tracer: &mut Tracer) -> Outcome {
    let inputs = SalesInputs::generate(seed);
    let (items, emb) = data::items(seed);
    let items_table = data::items_table(&items);
    let mut pr = Rng::stream(seed, 10);
    let params: Vec<Params> = (0..PARAM_SETS)
        .map(|_| Params::generate(&mut pr, &inputs.d, &emb))
        .collect();
    let reference = SalesRef::new(&inputs.d);
    let expected: Vec<_> = params
        .iter()
        .map(|p| p.expect(&reference, &items))
        .collect();

    let mut out = Outcome::default();
    let rounds = mode.setup_rounds(9);
    for round in 0..rounds {
        let mut clock = SetupClock::default();
        let engine = clock.time(TdpEngine::new);
        let session = clock.time(|| engine.session());
        tracer.set_on(mode == Mode::Traced);
        inputs.register(&session, &mut clock, tracer);
        register(&session, &items_table, &mut clock, tracer);
        let open = tracer.enter("index.build");
        clock
            .time(|| {
                let kind = IndexKind::IvfFlat(IvfParams::new(ITEMS_NLIST), ITEMS_NPROBE);
                session.create_vector_index("items", "emb", Metric::L2, kind, seed)
            })
            .expect("index items.emb");
        tracer.exit(open);
        tracer.set_on(false);
        let prepared: Vec<_> = STATEMENTS
            .iter()
            .map(|(name, sql)| {
                clock
                    .time(|| session.prepare(sql))
                    .unwrap_or_else(|e| panic!("prepare {name}: {e}"))
            })
            .collect();
        out.setup_s.push(clock.seconds());
        if round + 1 < rounds {
            continue;
        }

        let before = Counters::snapshot(&session, &engine);
        let mut recalls = Vec::new();
        let mut tally = Tally::default();
        out.lat = closed_loop(mode, 3, seconds, tracer, &mut tally, |i, tr| {
            let k = i as usize % PARAM_SETS;
            let bindings = params[k].bindings();
            let t = Instant::now();
            let mut results = Vec::with_capacity(STATEMENTS.len());
            for (j, (p, b)) in prepared.iter().zip(bindings).enumerate() {
                let name = STATEMENTS[j].0;
                let bound = match p.bind(b) {
                    Ok(bound) => bound,
                    Err(e) => return (0.0, Err(Fail::error(name, e))),
                };
                let span = RUN_SPANS
                    .get(j)
                    .copied()
                    .unwrap_or("index.search.ann_items");
                match tr.span(span, || bound.run()) {
                    Ok(table) => results.push(table),
                    Err(e) => return (0.0, Err(Fail::error(name, e))),
                }
            }
            let ms = ms_since(t);
            let (expect, exact) = &expected[k];
            for (j, e) in expect.iter().enumerate() {
                if let Err(m) = e.check(&Rows::from_table(&results[j])) {
                    return (ms, Err(Fail::wrong(STATEMENTS[j].0, m)));
                }
            }
            let ids = ann_ids(&results[6]);
            match check_ann(
                &ids,
                &items,
                DIM,
                items.len() / DIM,
                &params[k].query,
                exact,
            ) {
                Ok(r) => recalls.push(r),
                Err(m) => return (ms, Err(Fail::wrong("ann_items", m))),
            }
            if tr.is_on() {
                // PROFILE of the same statement, outside the refresh's latency.
                let [group_cat, ..] = params[k].bindings();
                let bound = prepared[0].bind(group_cat);
                let profiled =
                    bound.and_then(|b| tr.span("exec.profiled.group_cat", || b.run_profiled()));
                match profiled {
                    Ok((table, _)) => {
                        if let Err(m) = expect[0].check(&Rows::from_table(&table)) {
                            return (ms, Err(Fail::wrong("group_cat (profiled)", m)));
                        }
                    }
                    Err(e) => return (ms, Err(Fail::error("group_cat (profiled)", e))),
                }
            }
            (ms, Ok(()))
        });
        let recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
        eprintln!(
            "olap_refresh: mean recall@{ANN_K} of ann_items {recall:.4} over {} queries",
            recalls.len()
        );
        if recall < MIN_RECALL {
            tally.violation(format!(
                "ann_items mean recall@{ANN_K} {recall:.4} < {MIN_RECALL}"
            ));
        }
        out.tally = tally;

        if mode == Mode::Traced {
            for (j, span) in RUN_SPANS.iter().enumerate() {
                let name = format!("exec.run_ms.{}", STATEMENTS[j].0);
                out.layers
                    .push((name, span_median(tracer, span, 1.0), "ms"));
            }
            let layers = [
                (
                    "exec.profiled_ms.group_cat",
                    span_median(tracer, "exec.profiled.group_cat", 1.0),
                    "ms",
                ),
                (
                    "index.search_ms.ann_items",
                    span_median(tracer, "index.search.ann_items", 1.0),
                    "ms",
                ),
            ];
            out.layers
                .extend(layers.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));
            out.counters = Counters::snapshot(&session, &engine).since(&before);
            out.counters.table_bytes = table_bytes(&engine, &["sales", "stores", "items"]);
        }
    }
    out
}
