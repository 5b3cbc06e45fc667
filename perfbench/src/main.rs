//! End-to-end and per-layer benchmark of the Tensor Data Platform engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_refresh --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` one workload runs with tracing off and the last line
//! of standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1` every workload runs in turn, alternating traced and
//! untraced operations, and the JSON carries the per-layer metrics; the
//! spans are written to `perfbench-trace/`. See `perfbench/README.md`.

mod data;
mod harness;
mod ingest;
mod llp;
mod olap;
mod reference;
mod stats;
mod trace;
mod wire;

use std::time::Instant;

use harness::{span_total, Counters, Mode, Outcome, Tally, WindowStats};
use stats::{beyond, median};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["olap_refresh", "wire_lookup", "ingest_search", "train_llp"];
/// Spans written per workload of a traced run; medians use all of them.
const SPANS_WRITTEN: usize = 50_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, mode: Mode, tracer: &mut Tracer) -> Outcome {
    match name {
        "olap_refresh" => olap::run(seed, seconds, mode, tracer),
        "wire_lookup" => wire::run(seed, seconds, mode, tracer),
        "ingest_search" => ingest::run(seed, seconds, mode, tracer),
        "train_llp" => llp::run(seed, seconds, mode, tracer),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working directory
/// without looking outside it.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment the figures were measured in, printed before them.
fn print_environment(args: &Args) {
    let session = tdp_core::TdpEngine::new().session();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "environment: nproc={nproc} rustc=\"{}\" commit={} session_threads={} morsel_rows={} partitions={} \
         workload={} seed={} seconds={} trace={}",
        rustc_version(),
        git_commit(),
        session.threads(),
        session.morsel_rows(),
        session.partitions(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
    );
}

type Metric = (String, f64, &'static str);

/// The end-to-end figures: set-up is the median over the set-up rounds;
/// throughput, p50 and p90 are each the median over the timed phase's
/// windows of that window's figure.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let lat = out.lat.all_ms();
    let done = out.lat.completed();
    if beyond(&lat, 0.9) < 10 {
        eprintln!("warning: {done} operations leave fewer than ten beyond p90");
    }
    eprintln!(
        "{done} timed operations in {:.3} s; setup rounds {:?} s",
        out.lat.wall_s, out.setup_s
    );
    let windows = out.lat.window_stats();
    for (w, s) in windows.iter().enumerate() {
        eprintln!(
            "window {w}: {:.4} ops/s, p50 {:.4} ms, p90 {:.4} ms, host steal {:.1}%",
            s.ops_s, s.p50_ms, s.p90_ms, s.steal_pct
        );
    }
    let over = |f: fn(&WindowStats) -> f64| {
        median(&windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    vec![
        (
            "setup_s".into(),
            median(&out.setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("throughput_ops_s".into(), over(|s| s.ops_s), "1/s"),
        ("latency_p50_ms".into(), over(|s| s.p50_ms), "ms"),
        ("latency_p90_ms".into(), over(|s| s.p90_ms), "ms"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Run every workload traced, each for a quarter of the run, and gather
/// the per-layer metrics. The first spans of each workload go to
/// `perfbench-trace/<workload>-seed<n>.jsonl`.
fn traced(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let clock = Instant::now();
    let mut layers = Vec::new();
    let mut counters = Vec::new();
    let mut setup_register_ms = 0.0;
    let mut setup_index_s = 0.0;
    let mut trace_file = std::fs::create_dir_all("perfbench-trace")
        .and_then(|_| {
            std::fs::File::create(format!(
                "perfbench-trace/{}-seed{}.jsonl",
                args.workload, args.seed
            ))
        })
        .map(std::io::BufWriter::new);
    for name in WORKLOADS {
        let mut tracer = Tracer::new(clock);
        let out = run_workload(
            name,
            args.seed,
            args.seconds / WORKLOADS.len() as f64,
            Mode::Traced,
            &mut tracer,
        );
        if name == "olap_refresh" || name == "ingest_search" {
            setup_register_ms += span_total(&tracer, "storage.register", 1.0);
            setup_index_s += span_total(&tracer, "index.build", 1e-3);
        }
        if let Ok(f) = trace_file.as_mut() {
            if let Err(e) = tracer.write_jsonl(f, name, SPANS_WRITTEN) {
                eprintln!("writing spans: {e}");
            }
        }
        layers.extend(out.layers);
        layers.push((
            format!("trace.overhead_pct.{name}"),
            out.lat.overhead_pct(),
            "%",
        ));
        counters.push((name, out.counters));
        tally.absorb(out.tally);
    }
    if let Ok(mut f) = trace_file {
        use std::io::Write;
        if let Err(e) = f.flush() {
            eprintln!("writing spans: {e}");
        }
    }
    let sum = |names: &[&str]| {
        counters
            .iter()
            .filter(|(n, _)| names.contains(n))
            .fold(Counters::default(), |acc, (_, c)| acc.add(c))
    };
    let plan = sum(&["wire_lookup", "ingest_search"]);
    let kernels = sum(&["olap_refresh", "ingest_search"]);
    let morsels = sum(&["olap_refresh", "wire_lookup"]);
    let ann = sum(&["ingest_search"]);
    let memory = sum(&["olap_refresh", "ingest_search"]);
    layers.extend([
        (
            "core.plan_cache_hit_ratio".into(),
            ratio(plan.plan_hits, plan.plan_hits + plan.plan_misses),
            "ratio",
        ),
        (
            "exec.kernel_cache_hit_ratio".into(),
            ratio(
                kernels.kernel_hits,
                kernels.kernel_hits + kernels.kernel_misses,
            ),
            "ratio",
        ),
        (
            "exec.kernel_fallbacks".into(),
            kernels.kernel_fallbacks as f64,
            "count",
        ),
        (
            "exec.morsels_pruned_ratio".into(),
            ratio(
                morsels.morsels_pruned,
                morsels.morsels_pruned + morsels.morsels_scanned,
            ),
            "ratio",
        ),
        (
            "index.stale_fallback_ratio".into(),
            ratio(ann.ivf_stale_fallbacks, ann.ann_queries),
            "ratio",
        ),
        ("index.build_s".into(), setup_index_s, "s"),
        ("storage.register_ms".into(), setup_register_ms, "ms"),
        (
            "storage.table_mb".into(),
            memory.table_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        (
            "mem.high_water_mb".into(),
            memory.mem_high_water as f64 / (1 << 20) as f64,
            "MiB",
        ),
    ]);
    layers
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The engine must run at its defaults: every knob it reads is a
    // TDP_* variable, so any of them set makes the figures incomparable.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TDP_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with engine settings in the environment: {}",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    print_environment(&args);

    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &mut tally)
    } else {
        let out = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            Mode::Plain,
            &mut Tracer::new(Instant::now()),
        );
        let metrics = end_to_end(&out);
        tally.absorb(out.tally);
        metrics
    };

    for (name, value, unit) in &metrics {
        eprintln!("{name:<36} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
