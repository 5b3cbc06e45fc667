//! Seeded input generation. Every input the engine sees is made here from
//! the run's `--seed`, with a generator of the benchmark's own, so the same
//! seed always gives the same rows, parameters and batches.

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::F32Tensor;

/// Rows of the `sales` fact table (`olap_refresh`, `wire_lookup`).
pub const SALES_ROWS: usize = 1 << 18;
/// Rows of the `stores` dimension; `sales.store` draws from `0..STORES`.
pub const STORES: usize = 1000;
/// Distinct values of the dictionary column `sales.cat`.
pub const CATS: usize = 16;
/// Values of the dictionary column `stores.region`.
pub const REGIONS: [&str; 8] = [
    "central", "coast", "east", "highland", "north", "plain", "south", "west",
];
/// Rows and dimension of the IVF-indexed `items` table (`olap_refresh`).
pub const ITEMS_ROWS: usize = 16_384;
pub const DIM: usize = 32;
/// Cluster centres the embeddings scatter around.
pub const CLUSTERS: usize = 64;
/// Rows of the `docs` table before the first append (`ingest_search`).
pub const DOCS_ROWS: usize = 100_000;
/// Rows appended by one `ingest_search` cycle.
pub const BATCH_ROWS: usize = 100;
/// Values of the dictionary column `docs.lang`.
pub const LANGS: [&str; 4] = ["de", "en", "fr", "ja"];
/// `train_llp`: features per record, records per bag, bags per epoch.
pub const LLP_FEATURES: usize = 10;
pub const BAG_SIZE: usize = 64;
pub const BAGS: usize = 32;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F7D_B5EE_D000)
    }

    /// An independent stream for one purpose (tables, parameters, …), so
    /// adding draws to one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 ^= purpose.wrapping_mul(0xA076_1D64_78BD_642F);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Index drawn with probability proportional to `1 / (i + 1)`:
    /// a skewed categorical distribution.
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut target = self.unit() * total;
        for i in 0..n {
            target -= 1.0 / (i + 1) as f64;
            if target <= 0.0 {
                return i;
            }
        }
        n - 1
    }
}

pub fn cat_name(i: usize) -> String {
    format!("c{i:02}")
}

/// The generated rows of `sales` and `stores`, kept beside the engine's
/// copy so the reference computations never read results back from it.
#[derive(Debug)]
pub struct SalesData {
    /// Strictly increasing: `ts[i] = 1_000_000 + 3 i + u`, `u ∈ {0,1,2}`.
    pub ts: Vec<i64>,
    pub store: Vec<i64>,
    /// Index into [`cat_name`].
    pub cat: Vec<usize>,
    /// Whole cents in `[1.00, 100.00)`.
    pub price: Vec<f32>,
    pub qty: Vec<i64>,
    /// `stores.region` of store `i`, as an index into [`REGIONS`].
    pub region: Vec<usize>,
}

impl SalesData {
    pub fn generate(seed: u64, rows: usize) -> SalesData {
        let mut r = Rng::stream(seed, 1);
        let mut d = SalesData {
            ts: Vec::with_capacity(rows),
            store: Vec::with_capacity(rows),
            cat: Vec::with_capacity(rows),
            price: Vec::with_capacity(rows),
            qty: Vec::with_capacity(rows),
            region: (0..STORES).map(|_| r.below(REGIONS.len())).collect(),
        };
        for i in 0..rows {
            d.ts.push(1_000_000 + 3 * i as i64 + r.below(3) as i64);
            d.store.push(r.below(STORES) as i64);
            d.cat.push(r.below(CATS));
            d.price.push((100 + r.below(9_900)) as f32 / 100.0);
            d.qty.push(1 + r.below(10) as i64);
        }
        d
    }

    pub fn rows(&self) -> usize {
        self.ts.len()
    }

    pub fn sales_table(&self) -> Table {
        let cats: Vec<String> = self.cat.iter().map(|&c| cat_name(c)).collect();
        TableBuilder::new()
            .col_i64("ts", self.ts.clone())
            .col_i64("store", self.store.clone())
            .col_str("cat", &cats)
            .col_f32("price", self.price.clone())
            .col_i64("qty", self.qty.clone())
            .build("sales")
    }

    pub fn stores_table(&self) -> Table {
        let regions: Vec<&str> = self.region.iter().map(|&r| REGIONS[r]).collect();
        TableBuilder::new()
            .col_i64("store_id", (0..STORES as i64).collect())
            .col_str("region", &regions)
            .build("stores")
    }
}

/// Clustered embeddings: `CLUSTERS` centres with unit-normal coordinates,
/// each row a centre plus normal noise of standard deviation 0.25.
#[derive(Debug)]
pub struct Embedder {
    centres: Vec<f32>,
}

impl Embedder {
    pub fn new(r: &mut Rng) -> Embedder {
        Embedder {
            centres: (0..CLUSTERS * DIM).map(|_| r.normal() as f32).collect(),
        }
    }

    /// `rows` embeddings appended to `out` (row-major, `DIM` wide).
    pub fn fill(&self, r: &mut Rng, rows: usize, out: &mut Vec<f32>) {
        for _ in 0..rows {
            let c = r.below(CLUSTERS);
            for j in 0..DIM {
                out.push(self.centres[c * DIM + j] + 0.25 * r.normal() as f32);
            }
        }
    }

    pub fn one(&self, r: &mut Rng) -> Vec<f32> {
        let mut v = Vec::with_capacity(DIM);
        self.fill(r, 1, &mut v);
        v
    }
}

/// The `items` table: `id` and a `[ITEMS_ROWS, DIM]` embedding.
pub fn items(seed: u64) -> (Vec<f32>, Embedder) {
    let mut r = Rng::stream(seed, 2);
    let emb = Embedder::new(&mut r);
    let mut v = Vec::with_capacity(ITEMS_ROWS * DIM);
    emb.fill(&mut r, ITEMS_ROWS, &mut v);
    (v, emb)
}

pub fn items_table(vectors: &[f32]) -> Table {
    let n = vectors.len() / DIM;
    TableBuilder::new()
        .col_i64("id", (0..n as i64).collect())
        .col_tensor("emb", F32Tensor::from_vec(vectors.to_vec(), &[n, DIM]))
        .build("items")
}

/// Rows of `docs`, the initial table or one appended batch.
#[derive(Debug, Clone, Default)]
pub struct DocRows {
    pub id: Vec<i64>,
    /// Index into [`LANGS`].
    pub lang: Vec<usize>,
    /// Multiples of 1/1000 in `[0, 1)`.
    pub score: Vec<f32>,
    pub emb: Vec<f32>,
}

impl DocRows {
    /// `rows` rows with ids `first_id..first_id + rows`.
    pub fn generate(r: &mut Rng, emb: &Embedder, first_id: i64, rows: usize) -> DocRows {
        let mut d = DocRows {
            id: (first_id..first_id + rows as i64).collect(),
            ..DocRows::default()
        };
        for _ in 0..rows {
            d.lang.push(r.zipf(LANGS.len()));
            d.score.push(r.below(1000) as f32 / 1000.0);
        }
        emb.fill(r, rows, &mut d.emb);
        d
    }

    pub fn rows(&self) -> usize {
        self.id.len()
    }

    pub fn table(&self) -> Table {
        let langs: Vec<&str> = self.lang.iter().map(|&l| LANGS[l]).collect();
        TableBuilder::new()
            .col_i64("id", self.id.clone())
            .col_str("lang", &langs)
            .col_f32("score", self.score.clone())
            .col_tensor(
                "emb",
                F32Tensor::from_vec(self.emb.clone(), &[self.rows(), DIM]),
            )
            .build("docs")
    }

    pub fn extend(&mut self, other: &DocRows) {
        self.id.extend_from_slice(&other.id);
        self.lang.extend_from_slice(&other.lang);
        self.score.extend_from_slice(&other.score);
        self.emb.extend_from_slice(&other.emb);
    }
}

/// One bag of the learning-from-label-proportions task: a feature matrix
/// and the count of each class among its records.
#[derive(Debug, Clone)]
pub struct Bag {
    pub features: Vec<f32>,
    pub counts: [f32; 2],
}

/// `BAGS` bags of census-like records: normal features, labels from a
/// hidden linear rule with 10% of them flipped.
pub fn bags(seed: u64) -> Vec<Bag> {
    let mut r = Rng::stream(seed, 4);
    let w: Vec<f64> = (0..LLP_FEATURES).map(|_| r.normal()).collect();
    (0..BAGS)
        .map(|_| {
            let mut features = Vec::with_capacity(BAG_SIZE * LLP_FEATURES);
            let mut counts = [0.0f32; 2];
            for _ in 0..BAG_SIZE {
                let x: Vec<f64> = (0..LLP_FEATURES).map(|_| r.normal()).collect();
                let mut label = (x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() > 0.0) as usize;
                if r.unit() < 0.1 {
                    label = 1 - label;
                }
                counts[label] += 1.0;
                features.extend(x.iter().map(|&v| v as f32));
            }
            Bag { features, counts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = SalesData::generate(7, 1000);
        let b = SalesData::generate(7, 1000);
        let c = SalesData::generate(8, 1000);
        assert_eq!(a.ts, b.ts);
        assert_eq!(a.price, b.price);
        assert_ne!(a.ts, c.ts);
    }

    #[test]
    fn ts_is_strictly_increasing() {
        let d = SalesData::generate(1, 10_000);
        assert!(d.ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bag_counts_cover_every_record() {
        for bag in bags(3) {
            assert_eq!(bag.counts[0] + bag.counts[1], BAG_SIZE as f32);
            assert_eq!(bag.features.len(), BAG_SIZE * LLP_FEATURES);
        }
    }
}
