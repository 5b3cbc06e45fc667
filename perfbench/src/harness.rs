//! What every workload shares: repeated set-up, the closed loop that
//! times operations, and the outcome a workload hands back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdp_core::storage::Table;
use tdp_core::{Session, TdpEngine};

use crate::data::Rng;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// How a workload runs. Plain runs are timed with tracing off and set up
/// several times; a traced run sets up once, alternates tracing per
/// operation and reports per-layer figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Plain,
    Traced,
}

impl Mode {
    /// Set-up rounds: plain runs take the median of several, since a
    /// later change must not move work into set-up unseen.
    pub fn setup_rounds(self, plain: usize) -> usize {
        match self {
            Mode::Plain => plain,
            Mode::Traced => 1,
        }
    }
}

/// Why an operation failed.
#[derive(Debug, Clone)]
pub enum Fail {
    /// The engine returned an error.
    Error(String),
    /// The engine answered, and the answer disagrees with the reference.
    Wrong(String),
}

impl Fail {
    pub fn error(statement: &str, e: impl std::fmt::Display) -> Fail {
        Fail::Error(format!("{statement}: {e}"))
    }

    pub fn wrong(statement: &str, e: impl std::fmt::Display) -> Fail {
        Fail::Wrong(format!("{statement}: {e}"))
    }
}

/// Counts of one workload run; warm-up operations count too.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations whose answer was wrong (a subset of `failed`).
    pub wrong: u64,
    /// Run-level properties that did not hold (recall, loss decrease).
    pub violations: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: u64, r: &Result<(), Fail>) {
        self.attempted += 1;
        if let Err(f) = r {
            self.failed += 1;
            let msg = match f {
                Fail::Error(m) => format!("error: {m}"),
                Fail::Wrong(m) => {
                    self.wrong += 1;
                    format!("wrong answer: {m}")
                }
            };
            if self.failed <= 5 {
                eprintln!("operation {op} failed, {msg}");
            }
        }
    }

    /// A check made after the run found that operation `op`, already
    /// recorded as done, answered wrongly.
    pub fn fail_after(&mut self, op: u64, f: Fail) {
        self.attempted -= 1;
        self.record(op, &Err(f));
    }

    pub fn violation(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.violations.push(msg);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.violations.extend(other.violations);
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations.is_empty()
    }
}

/// Latency samples in milliseconds. Every sample is kept up to
/// [`Samples::CAP`]; beyond that a uniform random subset of that size is
/// (reservoir sampling), so the benchmark's own memory stays the same
/// however many operations a run completes and `peak_rss_mb` speaks of
/// the engine.
#[derive(Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            kept: Vec::with_capacity(Samples::CAP),
            seen: 0,
            rng: Rng::new(0),
        }
    }
}

impl Samples {
    pub const CAP: usize = 1 << 16;

    pub fn push(&mut self, ms: f64) {
        self.seen += 1;
        if self.kept.len() < Samples::CAP {
            self.kept.push(ms);
        } else {
            let j = self.rng.below(self.seen as usize);
            if j < Samples::CAP {
                self.kept[j] = ms;
            }
        }
    }

    /// Operations recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

/// Windows the timed phase is cut into. The end-to-end figures are
/// medians over the windows, so a burst of load from the host's other
/// tenants that covers fewer than half of them moves no figure.
pub const WINDOWS: usize = 5;

/// Operation latencies of the timed phase, split by whether the
/// operation was traced (plain runs trace none), and the untraced ones
/// again by the window of the timed phase they completed in.
#[derive(Debug)]
pub struct Latencies {
    pub untraced: Samples,
    pub traced: Samples,
    pub windows: [Samples; WINDOWS],
    /// When the last operation of each window completed, in seconds
    /// since the timed phase began; a window lasts from the previous
    /// window's last completion to its own.
    pub window_end_s: [f64; WINDOWS],
    /// CPU time the host withheld from this machine in each window, in
    /// clock ticks of `/proc/stat`; printed beside the window's figures.
    pub window_steal: [u64; WINDOWS],
    /// Wall time of the timed phase, and the planned length of a window
    /// (the last one also holds the operation that overran the end).
    pub wall_s: f64,
    pub window_s: f64,
}

/// Operations per second, median latency and p90 latency of one window,
/// and the share of the machine's CPU time the host withheld in it.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub ops_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub steal_pct: f64,
}

/// Steal ticks of all CPUs so far (`/proc/stat`, eighth field of the
/// `cpu` line); 0 where the file is missing.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies::new(0.0)
    }
}

impl Latencies {
    fn new(seconds: f64) -> Latencies {
        Latencies {
            untraced: Samples::default(),
            traced: Samples::default(),
            windows: std::array::from_fn(|_| Samples::default()),
            window_end_s: [0.0; WINDOWS],
            window_steal: [0; WINDOWS],
            wall_s: 0.0,
            window_s: seconds / WINDOWS as f64,
        }
    }

    /// Operations completed in the timed phase.
    pub fn completed(&self) -> u64 {
        self.untraced.seen() + self.traced.seen()
    }

    pub fn all_ms(&self) -> Vec<f64> {
        let mut v = self.untraced.kept().to_vec();
        v.extend_from_slice(self.traced.kept());
        v
    }

    /// Each window's figures, in time order. Throughput counts untraced
    /// operations only, so it speaks of plain runs.
    pub fn window_stats(&self) -> Vec<WindowStats> {
        // `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.windows
            .iter()
            .enumerate()
            .map(|(w, s)| {
                let begin = self.window_end_s[..w].iter().copied().fold(0.0, f64::max);
                let ops_s = match s.seen() {
                    0 => 0.0,
                    n => n as f64 / (self.window_end_s[w] - begin),
                };
                let ticks = 100.0 * cpus as f64 * (self.window_end_s[w] - begin);
                WindowStats {
                    ops_s,
                    p50_ms: quantile(s.kept(), 0.5).unwrap_or(f64::NAN),
                    p90_ms: quantile(s.kept(), 0.9).unwrap_or(f64::NAN),
                    steal_pct: 100.0 * self.window_steal[w] as f64 / ticks,
                }
            })
            .collect()
    }

    /// Median traced over median untraced latency, minus one, in percent.
    pub fn overhead_pct(&self) -> f64 {
        match (median(self.traced.kept()), median(self.untraced.kept())) {
            (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
            _ => f64::NAN,
        }
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds spent in the engine's own set-up calls, one per round.
    pub setup_s: Vec<f64>,
    pub lat: Latencies,
    pub tally: Tally,
    /// Per-layer figures of a traced run: name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Engine counters over the timed phase of a traced run.
    pub counters: Counters,
}

/// Stopwatch over the engine's set-up calls only: data generation and
/// table cloning happen between `time` calls and are not counted.
#[derive(Debug, Default)]
pub struct SetupClock(Duration);

impl SetupClock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed();
        out
    }

    pub fn seconds(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// Register a copy of `t` (timed into `clock`, traced as a storage span).
pub fn register(s: &Session, t: &Table, clock: &mut SetupClock, tr: &mut Tracer) {
    let t = t.clone();
    tr.span("storage.register", || clock.time(|| s.register_table(t)));
}

/// Run operations back to back: `warmup` untimed ones, then as many as
/// fit in `seconds`. `op` does one operation and returns the latency of
/// its engine calls in milliseconds — its checks run after the clock
/// stops. In traced mode every other timed operation is traced.
pub fn closed_loop(
    mode: Mode,
    warmup: u64,
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut op: impl FnMut(u64, &mut Tracer) -> (f64, Result<(), Fail>),
) -> Latencies {
    let mut lat = Latencies::new(seconds);
    for i in 0..warmup {
        tracer.set_on(false);
        let (_, r) = op(i, tracer);
        tally.record(i, &r);
    }
    let start = Instant::now();
    let (mut current, mut steal_mark) = (0, steal_ticks());
    let mut i = warmup;
    while start.elapsed().as_secs_f64() < seconds {
        let traced = mode == Mode::Traced && i % 2 == 1;
        tracer.set_on(traced);
        tracer.set_op(i);
        let (ms, r) = op(i, tracer);
        let done_s = start.elapsed().as_secs_f64();
        let window = ((done_s / lat.window_s) as usize).min(WINDOWS - 1);
        if window > current {
            let now = steal_ticks();
            lat.window_steal[current] += now.saturating_sub(steal_mark);
            (current, steal_mark) = (window, now);
        }
        tracer.set_on(false);
        tally.record(i, &r);
        if r.is_ok() {
            if traced {
                lat.traced.push(ms);
            } else {
                lat.untraced.push(ms);
                lat.windows[window].push(ms);
                lat.window_end_s[window] = done_s;
            }
        }
        i += 1;
    }
    lat.window_steal[current] += steal_ticks().saturating_sub(steal_mark);
    lat.wall_s = start.elapsed().as_secs_f64();
    lat
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of the named spans' durations in the unit asked for
/// (`1.0` = milliseconds, `1e3` = microseconds, `1e-3` = seconds).
pub fn span_median(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    median(&tracer.durations_ms(name)).map_or(f64::NAN, |m| m * scale)
}

/// Sum of the named spans' durations, same units as [`span_median`].
pub fn span_total(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    tracer.durations_ms(name).iter().sum::<f64>() * scale
}

/// Engine counters read through the public stats calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub kernel_hits: u64,
    pub kernel_misses: u64,
    pub kernel_fallbacks: u64,
    pub morsels_pruned: u64,
    pub morsels_scanned: u64,
    pub ann_queries: u64,
    pub ivf_stale_fallbacks: u64,
    /// Memory-pool high-water mark (absolute, not a difference).
    pub mem_high_water: u64,
    /// `Table::memory_bytes` of the workload's tables at the end.
    pub table_bytes: u64,
}

impl Counters {
    pub fn snapshot(s: &Session, e: &Arc<TdpEngine>) -> Counters {
        let plan = e.stats().plan_cache;
        let k = s.chain_kernel_stats();
        let a = e.access_path_stats();
        Counters {
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            kernel_hits: k.hits,
            kernel_misses: k.misses,
            kernel_fallbacks: k.fallbacks,
            morsels_pruned: a.morsels_pruned,
            morsels_scanned: a.morsels_scanned,
            ann_queries: a.ann_queries,
            ivf_stale_fallbacks: a.ivf_stale_fallbacks,
            mem_high_water: e.memory_pool().high_water(),
            table_bytes: 0,
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(self, before: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            kernel_hits: self.kernel_hits - before.kernel_hits,
            kernel_misses: self.kernel_misses - before.kernel_misses,
            kernel_fallbacks: self.kernel_fallbacks - before.kernel_fallbacks,
            morsels_pruned: self.morsels_pruned - before.morsels_pruned,
            morsels_scanned: self.morsels_scanned - before.morsels_scanned,
            ann_queries: self.ann_queries - before.ann_queries,
            ivf_stale_fallbacks: self.ivf_stale_fallbacks - before.ivf_stale_fallbacks,
            ..self
        }
    }

    pub fn add(self, o: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits + o.plan_hits,
            plan_misses: self.plan_misses + o.plan_misses,
            kernel_hits: self.kernel_hits + o.kernel_hits,
            kernel_misses: self.kernel_misses + o.kernel_misses,
            kernel_fallbacks: self.kernel_fallbacks + o.kernel_fallbacks,
            morsels_pruned: self.morsels_pruned + o.morsels_pruned,
            morsels_scanned: self.morsels_scanned + o.morsels_scanned,
            ann_queries: self.ann_queries + o.ann_queries,
            ivf_stale_fallbacks: self.ivf_stale_fallbacks + o.ivf_stale_fallbacks,
            mem_high_water: self.mem_high_water.max(o.mem_high_water),
            table_bytes: self.table_bytes + o.table_bytes,
        }
    }
}

/// `Table::memory_bytes` summed over the named tables.
pub fn table_bytes(e: &TdpEngine, names: &[&str]) -> u64 {
    names
        .iter()
        .filter_map(|t| e.catalog().get(t))
        .map(|t| t.memory_bytes() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_keep_everything_below_the_cap_and_a_fixed_size_above() {
        let mut s = Samples::default();
        for i in 0..10 {
            s.push(i as f64);
        }
        assert_eq!((s.seen(), s.kept().len()), (10, 10));
        for i in 0..3 * Samples::CAP {
            s.push(i as f64);
        }
        assert_eq!(s.kept().len(), Samples::CAP);
        assert_eq!(s.seen(), 10 + 3 * Samples::CAP as u64);
    }

    #[test]
    fn window_figures_come_from_each_window_alone() {
        let mut lat = Latencies::new(10.0);
        for w in 0..WINDOWS {
            for ms in 1..=10 {
                lat.windows[w].push((ms * (w + 1)) as f64);
            }
            lat.window_end_s[w] = 2.0 * (w + 1) as f64;
        }
        // The third window holds no operation; the fourth then spans two.
        lat.windows[2] = Samples::default();
        lat.window_end_s[2] = 0.0;
        let stats = lat.window_stats();
        assert_eq!(stats[0].ops_s, 5.0);
        assert_eq!((stats[1].p50_ms, stats[1].p90_ms), (10.0, 18.0));
        assert_eq!(stats[2].ops_s, 0.0);
        assert_eq!(stats[3].ops_s, 2.5);
    }
}
