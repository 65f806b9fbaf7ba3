//! Renders the paper's tables as markdown from harness reports (see
//! `bench::tables`).
//!
//! ```text
//! tables <BENCH_*.json>...
//! ```
//!
//! Pass any subset of the reports `harness` wrote; tables whose cells
//! are absent are skipped.

use bench::report::BenchReport;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: tables <BENCH_*.json>...");
        std::process::exit(2);
    }
    let reports: Vec<BenchReport> = paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"));
            BenchReport::from_json(&text)
                .unwrap_or_else(|e| panic!("{p} is not a valid report: {e}"))
        })
        .collect();
    print!("{}", bench::tables::render(&reports));
}
