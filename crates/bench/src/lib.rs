#![forbid(unsafe_code)]
//! The experiment pipeline: every paper figure and serving workload is a
//! cell of one harness run, and every table is rendered from the
//! reports it writes.
//!
//! * [`harness`] — runs the suites, collecting simulator counters plus
//!   host wall-clock into versioned `BENCH_*.json` reports (the
//!   `harness` binary);
//! * [`report`] — the machine-readable report schema;
//! * [`diff`] — the regression gate comparing a report against the
//!   committed baseline in `crates/bench/baseline/` and machine-checking
//!   paper claims (the `bench-diff` binary);
//! * [`tables`] — renders the paper's tables from reports (the `tables`
//!   binary);
//! * [`json`] — the minimal JSON layer all of them share.
//!
//! Simulated times are **modeled device milliseconds**. Dataset size
//! defaults to 2^22 (the paper uses 2^29) and is overridden with
//! `TOPK_REPRO_LOG2N`; bandwidth-bound kernels scale linearly in n, so
//! multiplying by 2^(29−log2n) extrapolates to the paper's scale (launch
//! overheads do not scale, so the extrapolation slightly overestimates).

pub mod diff;
pub mod harness;
pub mod json;
pub mod report;
pub mod tables;

/// The k sweep used by Figures 11, 12 and 17.
pub const K_SWEEP: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
