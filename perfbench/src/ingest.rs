//! `ingest_search`: writes beside reads, in process. One cycle appends a
//! small batch to the IVF-indexed `docs` table, then prepares and runs an
//! ANN top-10, a filtered GROUP BY and an id-range count. The table grows
//! by one batch per cycle, so answers are checked after the run against a
//! reference replayed batch by batch.

use std::time::Instant;

use tdp_core::index::{IvfParams, Metric};
use tdp_core::tensor::F32Tensor;
use tdp_core::{IndexKind, ParamValues, TdpEngine};

use crate::data::{DocRows, Embedder, Rng, BATCH_ROWS, DIM, DOCS_ROWS};
use crate::harness::{
    closed_loop, ms_since, register, span_median, table_bytes, Counters, Fail, Mode, Outcome,
    SetupClock, Tally,
};
use crate::reference::{ann_ids, brute_force_topk, check_ann, DocsRef, Rows};
use crate::trace::Tracer;

const STATEMENTS: [(&str, &str); 3] = [
    (
        "ann_docs",
        "SELECT id FROM docs ORDER BY distance(emb, ?) LIMIT 10",
    ),
    (
        "group_lang",
        "SELECT lang, COUNT(*) AS n, SUM(score) AS s FROM docs WHERE score > ? GROUP BY lang",
    ),
    (
        "id_count",
        "SELECT COUNT(*) AS n FROM docs WHERE id >= ? AND id < ?",
    ),
];
/// Score thresholds of `group_lang`, half a step off the generated
/// scores (multiples of 1/1000) so no comparison depends on rounding.
const THRESHOLDS: [f32; 4] = [0.1005, 0.3005, 0.5005, 0.9005];
/// IVF index of `docs`: k-means cells, Lloyd iterations, cells probed.
pub const DOCS_NLIST: usize = 32;
pub const DOCS_TRAIN_ITERS: usize = 8;
pub const DOCS_NPROBE: usize = 4;
const ANN_K: usize = 10;

/// What one cycle saw, kept for the check after the run.
struct Observed {
    op: u64,
    rows: usize,
    query: Vec<f32>,
    ids: Vec<usize>,
    threshold: usize,
    groups: Rows,
    range: (i64, i64),
    count: Rows,
}

pub fn run(seed: u64, seconds: f64, mode: Mode, tracer: &mut Tracer) -> Outcome {
    let mut r = Rng::stream(seed, 3);
    let emb = Embedder::new(&mut r);
    let initial = DocRows::generate(&mut r, &emb, 0, DOCS_ROWS);
    let initial_table = initial.table();

    let mut out = Outcome::default();
    let rounds = mode.setup_rounds(5);
    for round in 0..rounds {
        let mut clock = SetupClock::default();
        let engine = clock.time(TdpEngine::new);
        let session = clock.time(|| engine.session());
        tracer.set_on(mode == Mode::Traced);
        register(&session, &initial_table, &mut clock, tracer);
        tracer
            .span("index.build", || {
                clock.time(|| {
                    let params = IvfParams::new(DOCS_NLIST).train_iters(DOCS_TRAIN_ITERS);
                    let kind = IndexKind::IvfFlat(params, DOCS_NPROBE);
                    session.create_vector_index("docs", "emb", Metric::L2, kind, seed)
                })
            })
            .expect("index docs.emb");
        tracer.set_on(false);
        for (name, sql) in STATEMENTS {
            clock
                .time(|| session.prepare(sql))
                .unwrap_or_else(|e| panic!("prepare {name}: {e}"));
        }
        out.setup_s.push(clock.seconds());
        if round + 1 < rounds {
            continue;
        }

        // Every input of the cycles comes from these two streams, drawn in
        // cycle order, so a seed fixes the whole sequence.
        let mut batches = Rng::stream(seed, 30);
        let mut queries = Rng::stream(seed, 31);
        let mut all = initial.clone();
        let mut observed = Vec::new();
        let before = Counters::snapshot(&session, &engine);
        let mut tally = Tally::default();
        out.lat = closed_loop(mode, 5, seconds, tracer, &mut tally, |op, tr| {
            let batch = DocRows::generate(&mut batches, &emb, all.rows() as i64, BATCH_ROWS);
            let table = batch.table();
            all.extend(&batch);
            let rows = all.rows();
            let query = emb.one(&mut queries);
            let threshold = queries.below(THRESHOLDS.len());
            let lo = queries.below(rows) as i64;
            let range = (lo, lo + queries.below(50_000) as i64);
            let bindings = [
                ParamValues::new().tensor(F32Tensor::from_vec(query.clone(), &[DIM])),
                ParamValues::new().number(THRESHOLDS[threshold] as f64),
                ParamValues::new()
                    .number(range.0 as f64)
                    .number(range.1 as f64),
            ];

            let t = Instant::now();
            if !tr.span("storage.append", || session.append_rows("docs", &table)) {
                return (
                    0.0,
                    Err(Fail::error("append", "append_rows refused the batch")),
                );
            }
            let mut results = Vec::with_capacity(STATEMENTS.len());
            for ((name, sql), b) in STATEMENTS.iter().zip(bindings) {
                let span = if *name == "ann_docs" {
                    "index.search.ann_docs"
                } else {
                    "exec.run.docs"
                };
                match session
                    .prepare(sql)
                    .and_then(|p| p.bind(b))
                    .and_then(|q| tr.span(span, || q.run()))
                {
                    Ok(table) => results.push(table),
                    Err(e) => return (0.0, Err(Fail::error(name, e))),
                }
            }
            let ms = ms_since(t);

            let now = engine.catalog().get("docs").map_or(0, |t| t.rows());
            if now != rows {
                return (
                    ms,
                    Err(Fail::wrong(
                        "append",
                        format!("docs has {now} rows, expected {rows}"),
                    )),
                );
            }
            observed.push(Observed {
                op,
                rows,
                ids: ann_ids(&results[0]),
                query,
                threshold,
                groups: Rows::from_table(&results[1]),
                range,
                count: Rows::from_table(&results[2]),
            });
            (ms, Ok(()))
        });

        // Replay the appends into the reference and check every cycle.
        let mut reference = DocsRef::new(THRESHOLDS.to_vec());
        reference.add(&all.lang[..DOCS_ROWS], &all.score[..DOCS_ROWS]);
        let mut recalls = Vec::new();
        for o in &observed {
            let from = reference.rows;
            reference.add(&all.lang[from..o.rows], &all.score[from..o.rows]);
            let checks = [
                (
                    "group_lang",
                    reference.group_lang(o.threshold).check(&o.groups),
                ),
                (
                    "id_count",
                    reference.id_count(o.range.0, o.range.1).check(&o.count),
                ),
            ];
            if let Some((name, Err(m))) = checks.into_iter().find(|(_, c)| c.is_err()) {
                tally.fail_after(o.op, Fail::wrong(name, m));
                continue;
            }
            let exact = brute_force_topk(&all.emb, DIM, o.rows, &o.query, ANN_K);
            match check_ann(&o.ids, &all.emb, DIM, o.rows, &o.query, &exact) {
                Ok(r) => recalls.push(r),
                Err(m) => tally.fail_after(o.op, Fail::wrong("ann_docs", m)),
            }
        }
        let recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
        eprintln!(
            "ingest_search: mean recall@{ANN_K} of ann_docs {recall:.4} over {} cycles",
            recalls.len()
        );
        if recall < crate::olap::MIN_RECALL {
            tally.violation(format!(
                "ann_docs mean recall@{ANN_K} {recall:.4} < {}",
                crate::olap::MIN_RECALL
            ));
        }
        out.tally = tally;

        if mode == Mode::Traced {
            out.layers.push((
                "storage.append_ms".into(),
                span_median(tracer, "storage.append", 1.0),
                "ms",
            ));
            out.layers.push((
                "index.search_ms.ann_docs".into(),
                span_median(tracer, "index.search.ann_docs", 1.0),
                "ms",
            ));
            out.counters = Counters::snapshot(&session, &engine).since(&before);
            out.counters.table_bytes = table_bytes(&engine, &["docs"]);
        }
    }
    out
}
