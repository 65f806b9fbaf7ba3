//! Renders the paper's tables as markdown from harness reports. Every
//! table in EXPERIMENTS.md is a view over `BENCH_*.json` cells; nothing
//! here runs an experiment. A row whose cells are all absent is
//! dropped and a table with no rows is skipped, so any subset of the
//! suites renders. An absent cell in a kept row (`—`) is one the harness
//! omitted because its launch failed.

use std::fmt::Display;

use qdb::Strategy;
use simt::DeviceSpec;
use topk::bitonic::OptLevel;
use topk::TopKAlgorithm;

use crate::harness::{
    device_presets, distributions, planner_log2ns, EPT_SWEEP, HYBRID_GPU_PCTS, MAPD_Q2_KS,
    MAPD_Q3_KS, PLANNER_KS, PLANNER_TOLERANCE, SERVE_LOADS,
};
use crate::report::BenchReport;
use crate::K_SWEEP;

type Row = (String, Vec<Option<String>>);

/// Renders every table whose cells appear in `reports`.
pub fn render(reports: &[BenchReport]) -> String {
    let mut out = String::new();
    let find = |kind: &str| reports.iter().find(|r| r.kind == kind);
    if let Some(r) = find("topk") {
        topk_tables(&mut out, r, find("cpu"));
    }
    if let Some(r) = find("serve") {
        serve_table(&mut out, r);
    }
    out
}

fn fixed(v: Option<f64>, digits: usize) -> Option<String> {
    v.map(|v| format!("{v:.digits$}"))
}

fn ratio(v: Option<f64>) -> Option<String> {
    v.map(|v| format!("{v:.2}×"))
}

/// A header naming the first column `first` and the rest `cols`.
fn header(first: &str, cols: &[&str]) -> String {
    format!("{first} | {}", cols.join(" | "))
}

/// One row per label, one modeled time (ms) per column, read from the
/// cell `id(row, col)`.
fn times<R: Display>(
    r: &BenchReport,
    rows: impl IntoIterator<Item = R>,
    cols: &[&str],
    id: impl Fn(&str, &str) -> String,
) -> Vec<Row> {
    rows.into_iter()
        .map(|row| {
            let row = row.to_string();
            let cells = cols
                .iter()
                .map(|c| fixed(r.metric(&id(&row, c), "sim_time_ms"), 3))
                .collect();
            (row, cells)
        })
        .collect()
}

/// Appends a markdown table; `header` names its columns, `" | "`-separated.
fn table(out: &mut String, title: &str, header: &str, rows: Vec<Row>) {
    let rows: Vec<Row> = rows
        .into_iter()
        .filter(|(_, cells)| cells.iter().any(Option::is_some))
        .collect();
    if rows.is_empty() {
        return;
    }
    let columns = header.split(" | ").count();
    out.push_str(&format!(
        "### {title}\n\n| {header} |\n|{}\n",
        "---|".repeat(columns)
    ));
    for (label, cells) in rows {
        let cells: Vec<String> = cells
            .into_iter()
            .map(|c| c.unwrap_or_else(|| "—".to_string()))
            .collect();
        out.push_str(&format!("| {label} | {} |\n", cells.join(" | ")));
    }
    out.push('\n');
}

fn topk_tables(out: &mut String, r: &BenchReport, cpu: Option<&BenchReport>) {
    let l = r.scale.log2n;
    let get = |id: &str, metric: &str| r.metric(id, metric);
    let all = TopKAlgorithm::all();
    let algs: Vec<&str> = all.iter().map(|a| a.name()).collect();
    // the measured winner among `<prefix>/<alg>` cells
    let winner = |prefix: &str, algs: &[&str]| -> Option<(String, f64)> {
        let time = |a: &&str| get(&format!("{prefix}/{a}"), "sim_time_ms");
        let ts = algs.iter().filter_map(|a| Some((a.to_string(), time(a)?)));
        ts.min_by(|x, y| x.1.total_cmp(&y.1))
    };

    let paper = 2f64.powi(29 - l as i32);
    let levels = OptLevel::ladder().map(|o| o.name());
    let mut rows = times(r, levels, &["time"], |o, _| format!("ladder/{o}"));
    for (level, cells) in &mut rows {
        let get = |m: &str| get(&format!("ladder/{level}"), m);
        cells.push(fixed(get("sim_time_ms").map(|t| t * paper), 1));
        cells.push(fixed(get("sim_shared_bytes").map(|b| b / 1e6), 2));
        cells.push(fixed(get("sim_conflict_cycles"), 0));
        cells.push(fixed(get("sim_launches"), 0));
    }
    let title = format!("Section 4.3 — bitonic top-32 optimization ladder, n = 2^{l}");
    let cols = "level | time (ms) | @2^29 (ms) | shared (MB) | conflicts | launches";
    table(out, &title, cols, rows);

    let mut rows = times(r, EPT_SWEEP, &["time"], |b, _| format!("ept/b{b}"));
    for (b, cells) in &mut rows {
        let get = |m: &str| get(&format!("ept/b{b}"), m);
        cells.push(fixed(get("sim_shared_ms"), 3));
        cells.push(fixed(get("sim_conflict_cycles"), 0));
        cells.push(fixed(get("sim_first_occupancy"), 3));
    }
    let title = format!("Figure 8 — elements per thread (B), bitonic top-32, n = 2^{l}");
    let cols = "B | time (ms) | t_shared (ms) | conflicts | occupancy";
    table(out, &title, cols, rows);

    let floor = DeviceSpec::titan_x_maxwell().scan_floor_seconds(4 << l) * 1e3;
    for (fig, input, what) in [
        ("11a", "uniform", "uniform f32"),
        ("11b", "uniform-u32", "uniform u32"),
        ("11c", "uniform-f64", "uniform f64 at n/2 (same bytes)"),
        ("12a", "increasing", "increasing f32"),
        ("12b", "bucket-killer", "bucket-killer f32"),
    ] {
        let rows = times(r, K_SWEEP, &algs, |k, a| format!("vary_k/{input}/{a}/k{k}"));
        let title =
            format!("Figure {fig} — varying k, {what}, n = 2^{l} (bandwidth floor {floor:.3} ms)");
        table(out, &title, &header("k", &algs), rows);
    }

    let base = get("regime/uniform/per-thread/k8", "sim_time_ms");
    let dists = ["uniform", "increasing", "decreasing"];
    let mut rows = times(r, dists, &["k8"], |d, _| {
        format!("regime/{d}/per-thread/k8")
    });
    for (d, cells) in &mut rows {
        let t = get(&format!("regime/{d}/per-thread/k8"), "sim_time_ms");
        cells.push(ratio(t.zip(base).map(|(t, b)| t / b)));
    }
    let title = format!(
        "Figure 12a regime — per-thread top-8 on the 5-SM preset, n = 2^{}",
        l + 2
    );
    table(out, &title, "distribution | time (ms) | vs uniform", rows);

    let rows = times(r, 1..=l, &algs, |x, a| {
        format!("vary_n/uniform/{a}/log2n{x}")
    });
    let title = "Figure 13 — varying n, k = 64, uniform f32";
    table(out, title, &header("log2(n)", &algs), rows);

    let two = ["radix-select", "bitonic"];
    for (item, bytes) in [("kv", 8), ("kkv", 12), ("kkkv", 16)] {
        let rows = times(r, K_SWEEP, &two, |k, a| format!("kv/{item}/{a}/k{k}"));
        let title = format!(
            "Figure 14 — {} payload ({bytes} B/item), n = 2^{}",
            item.to_uppercase(),
            l - 1
        );
        table(out, &title, &header("k", &two), rows);
    }

    let k256 = K_SWEEP.into_iter().filter(|&k| k <= 256);
    for (panel, input) in [("a", "uniform"), ("b", "increasing")] {
        let gpu = ["bitonic", "radix-select"];
        let mut rows = times(r, k256.clone(), &gpu, |k, a| {
            format!("vary_k/{input}/{a}/k{k}")
        });
        for (k, cells) in &mut rows {
            let host = ["stl-pq", "hand-pq", "cpu-bitonic"].map(|a| {
                let id = format!("cpu-baseline/{input}/{a}/k{k}");
                fixed(cpu.and_then(|c| c.metric(&id, "host_wall_ms")), 2)
            });
            cells.splice(0..0, host);
        }
        let cpu_n = cpu.map_or(String::new(), |c| format!(", CPU n = 2^{}", c.scale.log2n));
        let title = format!(
            "Figure 15{panel} — CPU (host ms) vs GPU (modeled ms), {input} f32, \
             GPU n = 2^{l}{cpu_n}"
        );
        let cols = "k | stl-pq | hand-pq | cpu-bitonic | gpu bitonic | gpu radix-select";
        table(out, &title, cols, rows);
    }

    let st = Strategy::all().map(|s| s.name());
    let rows = times(r, (0..=100).step_by(10), &st, |s, st| {
        format!("mapd/q1/sel{s}/{st}")
    });
    let title = format!(
        "Figure 16a — MapD Q1: time filter, ORDER BY retweet_count LIMIT 50, n = 2^{}",
        l.min(19)
    );
    table(out, &title, &header("selectivity (%)", &st), rows);
    let rows = times(r, MAPD_Q2_KS, &st, |k, st| format!("mapd/q2/k{k}/{st}"));
    let title = "Figure 16b — MapD Q2: ORDER BY retweet_count + 0.5 * likes_count LIMIT K";
    table(out, title, &header("K", &st), rows);
    let rows = times(r, MAPD_Q3_KS, &st, |k, st| format!("mapd/q3/k{k}/{st}"));
    let title = "MapD Q3: WHERE lang = 'en' OR lang = 'es' LIMIT K";
    table(out, title, &header("K", &st), rows);
    let mut rows = times(r, ["sort", "bitonic"], &["total"], |s, _| {
        format!("mapd/q4/{s}")
    });
    for (s, cells) in &mut rows {
        cells.push(fixed(get(&format!("mapd/q4/{s}"), "sim_group_ms"), 3));
        cells.push(fixed(get(&format!("mapd/q4/{s}"), "sim_topk_ms"), 3));
    }
    let title = "MapD Q4: GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50";
    let cols = "top-k | total (ms) | group-by (ms) | top-k step (ms)";
    table(out, title, cols, rows);

    let mut rows = times(r, K_SWEEP, &two, |k, a| format!("vary_k/uniform/{a}/k{k}"));
    for (k, cells) in &mut rows {
        let model = |m: &str| fixed(get(&format!("costmodel/k{k}"), m), 3);
        cells.insert(1, model("sim_radix_model_ms"));
        cells.push(model("sim_bitonic_model_ms"));
    }
    let title = format!("Figure 17 — cost model vs measured, uniform f32, n = 2^{l}");
    let cols = "k | radix measured | radix predicted | bitonic measured | bitonic predicted";
    table(out, &title, cols, rows);

    for (panel, input) in [("a", "uniform"), ("b", "increasing"), ("c", "decreasing")] {
        let rows = times(
            r,
            k256.clone(),
            &["per-thread", "per-thread-regs"],
            |k, a| format!("vary_k/{input}/{a}/k{k}"),
        );
        let title = format!(
            "Figure 18{panel} — per-thread top-k, shared heap vs register buffer, {input} f32"
        );
        table(out, &title, "k | shared-heap | register-buffer", rows);
    }

    let dists: Vec<&str> = distributions().iter().map(|(d, _)| *d).collect();
    let mut rows = times(r, &dists, &algs, |d, a| format!("dist/{d}/{a}/k32"));
    let spread = algs.iter().map(|a| {
        let ts = dists
            .iter()
            .filter_map(|d| get(&format!("dist/{d}/{a}/k32"), "sim_time_ms"));
        let (lo, hi) = ts.fold((f64::MAX, 0f64), |(lo, hi), t| (lo.min(t), hi.max(t)));
        ratio((hi > 0.0).then(|| hi / lo))
    });
    rows.push(("worst/best".to_string(), spread.collect()));
    let title = format!("Robustness — six distributions, k = 32, n = 2^{l}");
    table(out, &title, &header("distribution", &algs), rows);

    let three = ["bitonic", "radix-select", "select-bitonic"];
    let rows = times(r, K_SWEEP, &three, |k, a| format!("hybrid/{a}/k{k}"));
    let title = format!("Hybrid — select→bitonic vs the pure algorithms, n = 2^{l}");
    table(out, &title, &header("k", &three), rows);
    let rows = HYBRID_GPU_PCTS
        .iter()
        .map(|p| {
            let get = |m: &str| get(&format!("hybrid/split/gpu{p}"), m);
            let cells = vec![
                fixed(get("sim_gpu_fraction"), 2),
                fixed(get("sim_gpu_ms"), 3),
                fixed(get("host_cpu_ms"), 3),
                fixed(get("host_combined_ms"), 3),
            ];
            (format!("{p}%"), cells)
        })
        .collect();
    let title = "Hybrid — CPU+GPU split, top-32 (GPU modeled, CPU host wall-clock)";
    let cols = "asked | GPU share | GPU (ms) | CPU (ms) | combined (ms)";
    table(out, title, cols, rows);

    let three = ["bitonic", "radix-select", "delegate-select"];
    for (preset, spec) in device_presets() {
        let mut rows = times(r, K_SWEEP, &three, |k, a| {
            format!("device/{preset}/k{k}/{a}")
        });
        for (k, cells) in &mut rows {
            let prefix = format!("device/{preset}/k{k}");
            cells.push(winner(&prefix, &three).map(|w| w.0));
            cells.push(ratio(get(&format!("{prefix}/pick"), "sim_pick_over_best")));
        }
        let title = format!(
            "Section 7 — {preset} (B_G = {:.0} GB/s, B_S = {:.1} TB/s), n = 2^{l}",
            spec.global_bw / 1e9,
            spec.shared_bw / 1e12
        );
        let cols = format!("{} | winner | pick/best", header("k", &three));
        table(out, &title, &cols, rows);
    }

    let six: Vec<&str> = algs
        .iter()
        .copied()
        .filter(|a| *a != "per-thread-regs")
        .collect();
    let mut rows = Vec::new();
    for x in planner_log2ns(l) {
        for k in PLANNER_KS.into_iter().filter(|&k| k <= 1 << x) {
            let prefix = format!("planner/log2n{x}/k{k}");
            let (Some((best, t_best)), Some(p)) = (
                winner(&prefix, &six),
                get(&format!("{prefix}/pick"), "sim_pick_over_best"),
            ) else {
                continue;
            };
            // the pick is the algorithm whose time sits at p × best
            let off = |a: &&str| {
                let t = get(&format!("{prefix}/{a}"), "sim_time_ms");
                t.map_or(f64::MAX, |t| (t - p * t_best).abs())
            };
            let pick = six.iter().min_by(|a, b| off(a).total_cmp(&off(b)));
            let verdict = match p {
                p if p <= 1.0 => "match",
                p if p <= PLANNER_TOLERANCE => "near",
                _ => "MISS",
            };
            let cells = [k.to_string(), pick.unwrap_or(&"—").to_string(), best];
            let mut cells: Vec<_> = cells.into_iter().map(Some).collect();
            cells.extend([ratio(Some(p)), Some(verdict.to_string())]);
            rows.push((format!("2^{x}"), cells));
        }
    }
    let title = "Planner — six-way recommend_full pick vs the measured winner";
    let cols = "n | k | pick | winner | pick/best | verdict";
    table(out, title, cols, rows);
}

fn serve_table(out: &mut String, r: &BenchReport) {
    let rows = SERVE_LOADS
        .iter()
        .map(|load| {
            let get = |m: &str| r.metric(&format!("serve/load{load}"), m);
            let us = |m: &str| fixed(get(m).map(|v| v * 1e3), 1);
            let (qps, speedup) = (get("sim_qps"), get("sim_speedup"));
            let cells = vec![
                fixed(qps.zip(speedup).map(|(q, s)| q / s), 0),
                fixed(qps, 0),
                ratio(speedup),
                us("sim_p50_ms"),
                us("sim_p95_ms"),
                us("sim_p99_ms"),
            ];
            (load.to_string(), cells)
        })
        .collect();
    let title = format!(
        "Serving — offered load vs throughput, n = 2^{} tweets",
        r.scale.log2n
    );
    let cols = "queries | serial q/s | served q/s | speedup | p50 (µs) | p95 (µs) | p99 (µs)";
    table(out, &title, cols, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Experiment, Scale};

    #[test]
    fn renders_a_vary_k_and_a_mapd_table_from_cells() {
        let cell = |id: &str, t: f64| Experiment {
            id: id.to_string(),
            metrics: [("sim_time_ms".to_string(), t)].into_iter().collect(),
        };
        let r = BenchReport {
            kind: "topk".to_string(),
            commit: "test".to_string(),
            scale: Scale::new(16),
            experiments: vec![
                cell("vary_k/uniform-u32/sort/k1", 0.0567),
                cell("vary_k/uniform-u32/per-thread/k1", 0.0134),
                cell("vary_k/uniform-u32/bitonic/k1", 0.0113),
                cell("vary_k/uniform-u32/sort/k512", 0.0567),
                cell("vary_k/uniform-u32/bitonic/k512", 0.0189),
                cell("mapd/q1/sel0/filter+sort", 0.0071),
                cell("mapd/q1/sel0/filter+bitonic", 0.0069),
                cell("mapd/q1/sel0/combined-bitonic", 0.0042),
                cell("mapd/q1/sel100/filter+sort", 0.0831),
                cell("mapd/q1/sel100/filter+bitonic", 0.0224),
                cell("mapd/q1/sel100/combined-bitonic", 0.0126),
            ],
        };
        let expected = "\
### Figure 11b — varying k, uniform u32, n = 2^16 (bandwidth floor 0.001 ms)

| k | sort | per-thread | per-thread-regs | radix-select | bucket-select | bitonic | delegate-select |
|---|---|---|---|---|---|---|---|
| 1 | 0.057 | 0.013 | — | — | — | 0.011 | — |
| 512 | 0.057 | — | — | — | — | 0.019 | — |

### Figure 16a — MapD Q1: time filter, ORDER BY retweet_count LIMIT 50, n = 2^16

| selectivity (%) | filter+sort | filter+bitonic | combined-bitonic |
|---|---|---|---|
| 0 | 0.007 | 0.007 | 0.004 |
| 100 | 0.083 | 0.022 | 0.013 |

";
        assert_eq!(render(&[r]), expected);
    }
}
