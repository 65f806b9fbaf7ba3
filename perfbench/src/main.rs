//! End-to-end benchmark of the top-k query engine: SQL text in, row ids
//! out, through the serving layer, streaming ingest with standing views,
//! the replicated sharded server and the CPU engine.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_stack --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run records spans, writes
//! them as a chrome trace and reports the per-layer metrics instead.
//! Every completed read is checked against a host oracle after the timed
//! phase; any mismatch makes the command exit non-zero.

mod gen;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, p50_p95, ratio};
use trace::Tracer;
use workloads::Outcome;

const USAGE: &str = "usage: perfbench --workload <sim_stack|cpu_engine> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// End-to-end metrics and their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_qps", "1/s"),
    ("host_p50_ms", "ms"),
    ("host_p95_ms", "ms"),
    ("completed_frac", "1"),
    ("host_peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, printed with `--trace 1`. A layer
/// a workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 63] = [
    ("serve_mixed.host_qps", "1/s"),
    ("serve_mixed.sim_qps", "1/s"),
    ("serve_mixed.sim_p50_ms", "ms"),
    ("serve_mixed.sim_p95_ms", "ms"),
    ("ingest_views.host_qps", "1/s"),
    ("ingest_views.sim_qps", "1/s"),
    ("ingest_views.sim_p50_ms", "ms"),
    ("ingest_views.sim_p95_ms", "ms"),
    ("ingest_views.sim_fresh_p50_ms", "ms"),
    ("ingest_views.sim_fresh_p95_ms", "ms"),
    ("cluster_failover.host_qps", "1/s"),
    ("cluster_failover.sim_qps", "1/s"),
    ("cluster_failover.sim_p50_ms", "ms"),
    ("cluster_failover.sim_p95_ms", "ms"),
    ("trace.host_qps", "1/s"),
    ("trace.overhead_frac", "1"),
    ("trace.self_ms.bench", "ms"),
    ("trace.self_ms.qdb.sql", "ms"),
    ("trace.self_ms.qdb.server", "ms"),
    ("trace.self_ms.qdb.shard", "ms"),
    ("trace.self_ms.qdb.stream", "ms"),
    ("trace.self_ms.qdb.backend", "ms"),
    ("datagen.generate_s", "s"),
    ("simt.upload_s", "s"),
    ("simt.launches_per_query", "count"),
    ("simt.host_us_per_launch", "us"),
    ("simt.sim_kernel_ms_per_query", "ms"),
    ("simt.global_bytes_per_query", "B"),
    ("simt.sectors_per_access", "count"),
    ("simt.conflict_degree", "count"),
    ("simt.log_len", "count"),
    ("qdb.engine.sim_filter_ms", "ms"),
    ("topk.sim_topk_ms", "ms"),
    ("topk-costmodel.rel_err", "1"),
    ("qdb.sql.parse_us", "us"),
    ("qdb.server.submit_us", "us"),
    ("qdb.server.drain_ms", "ms"),
    ("qdb.server.sim_queue_ms", "ms"),
    ("qdb.server.sim_exec_ms", "ms"),
    ("qdb.server.overlap", "1"),
    ("qdb.server.coalesced_frac", "1"),
    ("qdb.server.cache_hit_frac", "1"),
    ("qdb.server.cache_recomputes", "count"),
    ("qdb.server.retries", "count"),
    ("qdb.stream.append_us", "us"),
    ("qdb.stream.refresh_us", "us"),
    ("qdb.stream.sim_append_ms", "ms"),
    ("qdb.stream.sim_refresh_ms", "ms"),
    ("qdb.stream.refresh_bytes", "B"),
    ("qdb.stream.delta_merge_frac", "1"),
    ("qdb.shard.submit_us", "us"),
    ("qdb.shard.drain_ms", "ms"),
    ("qdb.shard.sim_local_ms", "ms"),
    ("qdb.shard.sim_gather_ms", "ms"),
    ("qdb.shard.sim_drain_growth_ms", "ms"),
    ("qdb.shard.failovers", "count"),
    ("qdb.shard.rebuilds", "count"),
    ("qdb.shard.breaker_trips", "count"),
    ("simt.topology.link_bytes_per_query", "B"),
    ("simt.topology.link_busy_ms", "ms"),
    ("topk-cpu.filter_ms", "ms"),
    ("topk-cpu.topk_ms", "ms"),
    ("topk-cpu.overhead_ms", "ms"),
];

/// Host-timed spans reported as per-layer means: metric, layer, span
/// name, whether the span is a set-up one, scale from seconds.
const SPAN_MEANS: [(&str, &str, &str, bool, f64); 9] = [
    ("datagen.generate_s", "datagen", "generate", true, 1.0),
    ("simt.upload_s", "simt", "upload", true, 1.0),
    ("qdb.sql.parse_us", "qdb.sql", "parse", false, 1e6),
    ("qdb.server.submit_us", "qdb.server", "submit", false, 1e6),
    ("qdb.server.drain_ms", "qdb.server", "drain", false, 1e3),
    ("qdb.stream.append_us", "qdb.stream", "append", false, 1e6),
    ("qdb.stream.refresh_us", "qdb.stream", "refresh", false, 1e6),
    ("qdb.shard.submit_us", "qdb.shard", "submit", false, 1e6),
    ("qdb.shard.drain_ms", "qdb.shard", "drain", false, 1e3),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds: {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Sets the workload up [`SETUP_REPEATS`] times, keeps the last fixture
/// and runs the timed phase on it. Returns the outcome, the set-up times
/// and the generator calls made during the timed phase.
fn measure<F>(
    a: &Args,
    tr: &mut Tracer,
    setup: fn(u64, &mut Tracer) -> F,
    run: fn(&F, f64, &mut Tracer) -> Outcome,
) -> (Outcome, Vec<f64>, usize) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(setup(a.seed, tr));
        setups.push(t.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("at least one set-up");
    let before = gen::generator_calls();
    let out = run(&fixture, a.seconds, tr);
    (out, setups, gen::generator_calls() - before)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(a.trace);
    let (mut out, setups, generated) = match a.workload.as_str() {
        "sim_stack" => measure(&a, &mut tr, workloads::stack_setup, workloads::stack_run),
        "cpu_engine" => measure(&a, &mut tr, workloads::cpu_setup, workloads::cpu_run),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // ---- correctness, outside the timed phase
    let host = workloads::oracle_table(a.seed, out.base_rows, out.appended_batches);
    let wrong = oracle::mismatches(&host, &out.answered);
    for &i in wrong.iter().take(5) {
        let x = &out.answered[i];
        eprintln!(
            "perfbench: ORACLE MISMATCH: {:?} k={} over {} rows",
            x.shape, x.k, x.rows
        );
    }
    if generated != 0 {
        eprintln!("perfbench: {generated} input generator call(s) inside the timed phase");
    }
    let attempted = out.reads + out.ops;
    let failed = (out.reads - out.reads_completed) + out.ops_failed + wrong.len();
    let correct = wrong.is_empty() && generated == 0;

    // ---- metrics
    let wall = out.wall.as_secs_f64();
    let host_qps = ratio(out.reads_completed as f64, wall);
    let (host_p50, host_p95) = p50_p95(&out.host_lat_ms);
    let e2e = [
        median(&setups),
        host_qps,
        host_p50,
        host_p95,
        ratio((attempted - failed) as f64, attempted as f64),
        out.peak_rss_mb,
    ];
    let mut layer: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (name, v) in std::mem::take(&mut out.layer) {
        assert!(layer.contains_key(name), "unlisted per-layer metric {name}");
        layer.insert(name, v);
    }
    if a.trace {
        layer.insert("trace.host_qps", host_qps);
        layer.insert("trace.overhead_frac", tr.cost().as_secs_f64() / wall);
        for (l, s) in tr.self_seconds() {
            let name = format!("trace.self_ms.{l}");
            if let Some(slot) = layer.get_mut(name.as_str()) {
                *slot = ratio(s * 1e3, out.reads_completed as f64);
            }
        }
        for (metric, l, span, setup, scale) in SPAN_MEANS {
            layer.insert(metric, tr.mean_seconds(l, span, setup) * scale);
        }
        match write_trace(&a, &tr, &out.meta) {
            Ok(path) => eprintln!("perfbench: chrome trace written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace: {e}");
                return ExitCode::from(1);
            }
        }
    }

    eprintln!(
        "perfbench: {} seed {}: {} reads ({} completed) + {} other ops in {:.2} s; \
         setup median {:.3} s; {} wrong; {} spans",
        a.workload,
        a.seed,
        out.reads,
        out.reads_completed,
        out.ops,
        wall,
        median(&setups),
        wrong.len(),
        tr.spans().len()
    );
    for (name, v) in &out.meta {
        eprintln!("perfbench: {name} = {v}");
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let printed: Vec<(&str, &str, f64)> = if a.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, layer[n])).collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    for (i, (name, unit, value)) in printed.into_iter().enumerate() {
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the chrome trace beside the benchmark's executable, inside its
/// build directory, and returns its path.
fn write_trace(a: &Args, tr: &Tracer, meta: &[(&str, String)]) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .expect("an executable lives in a directory")
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}_seed{}.json", a.workload, a.seed));
    std::fs::write(&path, tr.chrome_trace(meta))?;
    Ok(path.display().to_string())
}
