//! The unified benchmark harness binary: runs the top-k figure suite,
//! the qdb serving suite, the real-CPU backend suite, the streaming
//! suite and the multi-device cluster suite, and writes one
//! machine-readable `BENCH_<suite>.json` report per suite (see
//! `bench::report` for the schema).
//!
//! ```text
//! harness [--out-dir DIR] [--only topk|serve|cluster|cpu|stream]
//! ```
//!
//! Scale comes from `TOPK_REPRO_LOG2N`: unset runs the full profile
//! (top-k at 2^22, serving at 2^17); `TOPK_REPRO_LOG2N=16` is the small
//! profile the CI perf gate uses. Compare the written reports against
//! the committed baseline with `bench-diff`, and render the paper's
//! tables from them with `tables`.

use bench::harness::{
    run_cluster_suite, run_cpu_suite, run_serve_suite, run_stream_suite, run_topk_suite,
    HarnessScales,
};
use bench::report::BenchReport;

const SUITES: [&str; 5] = ["topk", "serve", "cpu", "stream", "cluster"];

fn main() {
    let mut out_dir = std::path::PathBuf::from(".");
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = args.next().expect("--out-dir needs a directory").into();
            }
            "--only" => {
                let suite = args
                    .next()
                    .expect("--only needs topk|serve|cluster|cpu|stream");
                assert!(
                    SUITES.contains(&suite.as_str()),
                    "--only accepts topk, serve, cluster, cpu or stream, got '{suite}'"
                );
                only = Some(suite);
            }
            other => panic!(
                "unknown argument '{other}' \
                 (usage: harness [--out-dir DIR] [--only topk|serve|cluster|cpu|stream])"
            ),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let scales = HarnessScales::from_env();
    println!(
        "== bench harness: profile '{}' (topk n=2^{}, serve n=2^{}, cpu n=2^{}, stream n=2^{}) ==",
        scales.profile,
        scales.topk_log2n,
        scales.serve_log2n,
        scales.cpu_log2n,
        scales.stream_log2n
    );

    type Suite = fn(u32, &str) -> BenchReport;
    let suites: [(Suite, u32); 5] = [
        (run_topk_suite, scales.topk_log2n),
        (run_serve_suite, scales.serve_log2n),
        (run_cpu_suite, scales.cpu_log2n),
        (run_stream_suite, scales.stream_log2n),
        (run_cluster_suite, scales.topk_log2n),
    ];
    for (name, (run, log2n)) in SUITES.into_iter().zip(suites) {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let wall = std::time::Instant::now();
        let report = run(log2n, &scales.profile);
        let cells = report.experiments.len();
        let secs = wall.elapsed().as_secs_f64();
        println!("{name} suite: {cells} cells in {secs:.1}s host wall");
        let path = out_dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, report.render()).expect("write report");
        println!("wrote {} ({cells} experiments)", path.display());
    }
}
