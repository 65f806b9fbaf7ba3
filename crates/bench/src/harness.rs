//! The unified benchmark harness — the only place an experiment runs. It
//! drives every paper figure plus the qdb serving, cluster, CPU and
//! streaming workloads, collects per-run metrics from the simulator's
//! counters plus host wall-clock, and emits versioned [`BenchReport`]s
//! (`BENCH_<suite>.json`); [`crate::tables`] renders the paper's tables
//! from them.
//!
//! Top-k cell families (the figure each reproduces in parentheses):
//!
//! * `vary_k/<input>/<alg>/k<k>` — algorithms across the paper's k
//!   sweep: `uniform` f32 (11a, 15a, 17, 18a), `uniform-u32` (11b),
//!   `uniform-f64` at n/2 (11c), `increasing` (12a, 15b, 18b),
//!   `bucket-killer` (12b), and `decreasing` for the two per-thread
//!   variants only (18c);
//! * `vary_n/uniform/<alg>/log2n<x>` — scaling in n at k = 64 (13);
//! * `dist/<distribution>/<alg>/k32` — the six-distribution robustness
//!   sweep (skew claims are machine-checked from these cells);
//! * `ept/b<B>` and `ladder/<level>` — bitonic top-32 per elements per
//!   thread (8) and per cumulative optimization level (§4.3);
//! * `kv/<kv|kkv|kkkv>/<alg>/k<k>` — key+value payloads at n/2 (14);
//! * `mapd/q<1-4>/...` — the MapD integration queries (16);
//! * `regime/<distribution>/per-thread/k8` — per-thread top-k at
//!   4n elements on the 5-SM preset, the paper's elements-per-thread
//!   regime (12a);
//! * `hybrid/<alg>/k<k>` and `hybrid/split/gpu<pct>` — the algorithm
//!   and CPU+GPU hybrids (§8);
//! * `device/<preset>/k<k>/<alg>` — three algorithms on three GPU
//!   generations (§7);
//! * `planner/log2n<x>/k<k>/<alg>` — the six-way planner's grid;
//! * `costmodel/k<k>` and every `.../pick` cell — model outputs only:
//!   the Section 7 predictions (17) and each planner's pick time over
//!   the measured winner's (`sim_pick_over_best`, claim 12).
//!
//! The serving suite's `serve/load<q>` cells put the qdb serving layer
//! under increasing offered load; the cpu suite's `cpu-baseline/...`
//! cells are the Figure 15 CPU baselines, and its `cpu-engine/...` cells
//! time the qdb CPU engine's fused scan per query shape.
//!
//! Cells whose launch legitimately fails (per-thread top-k at k ≥ 512
//! exceeds shared memory, Section 6.2) are omitted from the report; the
//! diff gate treats a *disappearing* cell as a regression, so an
//! algorithm that starts failing where it used to run cannot slip by.

use std::time::Instant;

use datagen::twitter::TweetTable;
use datagen::{
    BucketKiller, Clustered, Decreasing, Distribution, Increasing, Kkkv, Kkv, Kv, Normal, TopKItem,
    Uniform,
};
use qdb::queries::{filtered_topk, group_topk, ranked_topk};
use qdb::shard::{
    partition_indices, sharded_delegate_topk, sharded_topk, PartitionPolicy, ReplicationFactor,
    ShardedLoadReport, ShardedServer, ShardedTable,
};
use qdb::{
    execute_on, execute_sql, parse_sql, BackendTable, FilterOp, GpuTweetTable, QdbError,
    QueryResult, Server, ServerConfig, Strategy, SubmitOptions, TopKStrategy,
};
use simt::topology::{Cluster, ClusterSpec};
use simt::{Device, DeviceSpec, FaultPlan, GpuBuffer, LaunchReport, LaunchWindow, SimTime};
use topk::bitonic::{bitonic_topk, BitonicConfig, OptLevel};
use topk::delegate::{warm_delegate_index, DelegateConfig};
use topk::hybrid::{cpu_gpu_topk, select_then_bitonic};
use topk::{Backend, CpuBackend, ExecBackend, TopKAlgorithm, TopKRequest};
use topk_costmodel::planner::Algorithm;
use topk_costmodel::{
    bitonic_topk_seconds, cluster_topk_seconds, radix_select_seconds, recommend, recommend_full,
    BitonicModelInput, ClusterModelInput, FullAlgorithm, ReductionProfile,
};
use topk_cpu::{CpuBitonic, CpuTopK, HandPq, StlPq};

use crate::report::{current_commit, BenchReport, Experiment, Scale};
use crate::K_SWEEP;

/// The scales one harness invocation runs at, resolved from
/// `TOPK_REPRO_LOG2N`.
#[derive(Debug, Clone)]
pub struct HarnessScales {
    /// Element-count exponent for the top-k suite (default 22).
    pub topk_log2n: u32,
    /// Resident-table exponent for the serving suite (default 17,
    /// capped by the top-k scale when overridden).
    pub serve_log2n: u32,
    /// Element-count exponent for the real-CPU backend suite (default
    /// 20 — the scale the thread-scaling claim gates at — capped by the
    /// top-k scale when overridden).
    pub cpu_log2n: u32,
    /// Resident-table exponent for the streaming-ingest suite (default
    /// 20 — the scale the delta-maintenance traffic claim gates at —
    /// capped by the top-k scale when overridden).
    pub stream_log2n: u32,
    /// Profile name stamped into both reports.
    pub profile: String,
}

impl HarnessScales {
    /// Resolves scales from the environment: unset means the full
    /// profile (top-k at 2^22, serving at 2^17); `TOPK_REPRO_LOG2N=16`
    /// is the CI gate's small profile.
    pub fn from_env() -> Self {
        let topk_log2n = datagen::repro_log2n(22);
        HarnessScales {
            topk_log2n,
            serve_log2n: topk_log2n.min(17),
            cpu_log2n: topk_log2n.min(20),
            stream_log2n: topk_log2n.min(20),
            profile: Scale::profile_name(topk_log2n),
        }
    }
}

/// The distribution line-up of the robustness sweep, by stable name.
pub fn distributions() -> Vec<(&'static str, Box<dyn Distribution<f32>>)> {
    vec![
        ("uniform", Box::new(Uniform)),
        ("normal", Box::new(Normal)),
        ("increasing", Box::new(Increasing)),
        ("decreasing", Box::new(Decreasing)),
        ("bucket-killer", Box::new(BucketKiller)),
        ("clustered", Box::new(Clustered)),
    ]
}

/// Fixed k for the distribution sweep (matches the robustness ablation).
pub const DIST_SWEEP_K: usize = 32;

/// Fixed k for the vary-n sweep (matches Figure 13).
pub const VARY_N_K: usize = 64;

/// The k sweep of the six-way planner grid.
pub const PLANNER_KS: [usize; 5] = [1, 16, 64, 256, 1024];

/// A planner pick whose measured time is within this factor of the
/// measured winner's is a near-miss, not a miss (claim 12).
pub const PLANNER_TOLERANCE: f64 = 1.25;

/// The planner grid's sizes: 2^(L−4), 2^(L−2) and 2^L — exactly 2^18,
/// 2^20 and 2^22 at the full profile.
pub fn planner_log2ns(log2n: u32) -> [u32; 3] {
    [log2n.saturating_sub(4), log2n.saturating_sub(2), log2n]
}

/// Elements per thread of the Figure 8 sweep.
pub const EPT_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];

/// GPU shares (percent) of the CPU+GPU hybrid split.
pub const HYBRID_GPU_PCTS: [u32; 5] = [0, 50, 80, 95, 100];

/// The LIMITs of MapD Q2 (Figure 16b).
pub const MAPD_Q2_KS: [usize; 5] = [16, 32, 64, 128, 256];

/// The LIMITs of MapD Q3.
pub const MAPD_Q3_KS: [usize; 3] = [16, 64, 256];

/// The GPU generations of the device-preset family, by stable name.
pub fn device_presets() -> [(&'static str, DeviceSpec); 3] {
    [
        ("titan-x-maxwell", DeviceSpec::titan_x_maxwell()),
        ("titan-x-pascal", DeviceSpec::titan_x_pascal()),
        ("tesla-v100", DeviceSpec::tesla_v100()),
    ]
}

fn cell(id: String, metrics: &[(&str, f64)]) -> Experiment {
    Experiment {
        id,
        metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    }
}

fn report(kind: &str, log2n: u32, profile: &str, experiments: Vec<Experiment>) -> BenchReport {
    BenchReport {
        kind: kind.to_string(),
        commit: current_commit(),
        scale: Scale {
            log2n,
            profile: profile.to_string(),
        },
        experiments,
    }
}

fn run_cell<T: TopKItem>(
    dev: &Device,
    alg: &TopKAlgorithm,
    input: &GpuBuffer<T>,
    k: usize,
    id: String,
) -> Option<Experiment> {
    dev.take_lint_reports(); // bound accumulation across the sweep
    let wall = Instant::now();
    let result = TopKRequest::largest(k)
        .with_alg(*alg)
        .run(dev, input)
        .ok()?;
    let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let w = LaunchWindow::from_reports(&result.reports);
    let mut metrics = vec![
        ("sim_time_ms", result.time.millis()),
        ("sim_global_bytes", w.stats.global_bytes() as f64),
        ("sim_sectors_per_access", w.stats.sectors_per_access()),
        ("sim_conflict_degree", w.stats.avg_conflict_degree()),
        ("sim_occupancy", w.time_weighted_occupancy),
        ("sim_launches", w.launches as f64),
        ("host_wall_ms", host_wall_ms),
    ];
    // the static analyzer's pre-launch predictions, present whenever
    // every launch in the window carried an access-spec contract; the
    // diff gate requires them to bit-match the measured metrics above
    if let Some(p) = &w.static_pred {
        metrics.push(("sim_static_sectors_per_access", p.sectors_per_access()));
        metrics.push(("sim_static_conflict_degree", p.avg_conflict_degree()));
    }
    Some(cell(id, &metrics))
}

/// Runs `algs` × `ks` (k ≤ n) over `data` on a fresh lint-enabled
/// `spec` device, one cell per successful run, named `id(alg, k)`.
/// Delegate cells measure warm queries: the index builds once per
/// buffer, and its extraction launch lands outside every cell window.
fn sweep<T: TopKItem>(
    out: &mut Vec<Experiment>,
    spec: DeviceSpec,
    data: &[T],
    algs: &[TopKAlgorithm],
    ks: &[usize],
    id: impl Fn(&str, usize) -> String,
) {
    let dev = Device::new(spec);
    dev.enable_lint();
    let input = dev.upload(data);
    if algs
        .iter()
        .any(|a| matches!(a, TopKAlgorithm::DelegateSelect(_)))
    {
        warm_delegate_index(&dev, &input, DelegateConfig::default()).expect("delegate index");
    }
    for alg in algs {
        for &k in ks.iter().filter(|&&k| k <= data.len()) {
            out.extend(run_cell(&dev, alg, &input, k, id(alg.name(), k)));
        }
    }
}

/// Pushes `<prefix>/pick`: the measured time of a planner's `pick` over
/// the fastest measured `<prefix>/<alg>` cell. Omitted when the pick
/// could not run, so claim 12 fails it as unverifiable.
fn push_pick(out: &mut Vec<Experiment>, prefix: String, pick: &str) {
    let times: Vec<(&str, f64)> = out
        .iter()
        .filter_map(|e| {
            let alg = e.id.strip_prefix(&prefix)?.strip_prefix('/')?;
            Some((alg, e.metrics["sim_time_ms"]))
        })
        .collect();
    let best = times.iter().map(|t| t.1).fold(f64::MAX, f64::min);
    if let Some(&(_, t)) = times.iter().find(|(alg, _)| *alg == pick) {
        let pick = cell(
            format!("{prefix}/pick"),
            &[("sim_pick_over_best", t / best)],
        );
        out.push(pick);
    }
}

/// One bitonic top-32 run at `cfg`, with the shared-memory counters
/// that explain Figure 8 and the optimization ladder.
fn bitonic_cell(
    dev: &Device,
    input: &GpuBuffer<f32>,
    cfg: BitonicConfig,
    id: String,
) -> Experiment {
    let r = bitonic_topk(dev, input, 32, cfg).expect("bitonic top-32");
    let sum = |f: fn(&LaunchReport) -> f64| r.reports.iter().map(f).sum::<f64>();
    let first_occupancy = r.reports.first().map_or(0.0, |x| x.occupancy.occupancy);
    cell(
        id,
        &[
            ("sim_time_ms", r.time.millis()),
            ("sim_shared_ms", sum(|x| x.t_shared.millis())),
            ("sim_shared_bytes", sum(|x| x.stats.shared_eff_bytes as f64)),
            (
                "sim_conflict_cycles",
                sum(|x| x.stats.shared_conflict_cycles as f64),
            ),
            ("sim_first_occupancy", first_occupancy),
            ("sim_launches", r.reports.len() as f64),
        ],
    )
}

fn full_alg(f: FullAlgorithm) -> TopKAlgorithm {
    match f {
        FullAlgorithm::Sort => TopKAlgorithm::Sort,
        FullAlgorithm::PerThread => TopKAlgorithm::PerThread,
        FullAlgorithm::RadixSelect => TopKAlgorithm::RadixSelect,
        FullAlgorithm::BucketSelect => TopKAlgorithm::BucketSelect,
        FullAlgorithm::BitonicTopK => TopKAlgorithm::Bitonic(BitonicConfig::default()),
        FullAlgorithm::DelegateSelect => TopKAlgorithm::DelegateSelect(DelegateConfig::default()),
    }
}

/// Runs the top-k suite at `2^log2n` elements and returns its report.
pub fn run_topk_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let titan = DeviceSpec::titan_x_maxwell();
    let algs = TopKAlgorithm::all();
    let mut out = Vec::new();

    // vary-k on uniform f32 (the Figure 11a shape)
    let uniform: Vec<f32> = Uniform.generate(n, 11);
    sweep(&mut out, titan, &uniform, &algs, &K_SWEEP, |a, k| {
        format!("vary_k/uniform/{a}/k{k}")
    });

    // vary-n at k = 64 (the Figure 13 shape)
    for x in (log2n.min(14)..=log2n).step_by(2) {
        let data: Vec<f32> = Uniform.generate(1 << x, 13);
        sweep(&mut out, titan, &data, &algs, &[VARY_N_K], |a, _| {
            format!("vary_n/uniform/{a}/log2n{x}")
        });
    }

    // distribution robustness at k = 32 (the skew-claim cells)
    for (name, dist) in distributions() {
        sweep(
            &mut out,
            titan,
            &dist.generate(n, 40),
            &algs,
            &[DIST_SWEEP_K],
            |a, k| format!("dist/{name}/{a}/k{k}"),
        );
    }

    // the other vary-k inputs: Figures 11b, 11c (half the elements, the
    // same bytes), 12a and 12b, and the decreasing panel of Figure 18
    let u32_keys: Vec<u32> = Uniform.generate(n, 12);
    sweep(&mut out, titan, &u32_keys, &algs, &K_SWEEP, |a, k| {
        format!("vary_k/uniform-u32/{a}/k{k}")
    });
    let f64_keys: Vec<f64> = Uniform.generate(n / 2, 13);
    sweep(&mut out, titan, &f64_keys, &algs, &K_SWEEP, |a, k| {
        format!("vary_k/uniform-f64/{a}/k{k}")
    });
    let increasing: Vec<f32> = Increasing.generate(n, 14);
    sweep(&mut out, titan, &increasing, &algs, &K_SWEEP, |a, k| {
        format!("vary_k/increasing/{a}/k{k}")
    });
    let bucket_killer: Vec<f32> = BucketKiller.generate(n, 15);
    sweep(&mut out, titan, &bucket_killer, &algs, &K_SWEEP, |a, k| {
        format!("vary_k/bucket-killer/{a}/k{k}")
    });
    let per_thread = [TopKAlgorithm::PerThread, TopKAlgorithm::PerThreadRegisters];
    let decreasing: Vec<f32> = Decreasing.generate(n, 22);
    sweep(
        &mut out,
        titan,
        &decreasing,
        &per_thread,
        &K_SWEEP[..9],
        |a, k| format!("vary_k/decreasing/{a}/k{k}"),
    );

    // Figure 8 and the Section 4.3 ladder
    let ept_keys: Vec<f32> = Uniform.generate(n, 23);
    let dev = Device::new(titan);
    let input = dev.upload(&ept_keys);
    for b in EPT_SWEEP {
        let cfg = BitonicConfig::with_elems_per_thread(b);
        out.push(bitonic_cell(&dev, &input, cfg, format!("ept/b{b}")));
    }
    let ladder_keys: Vec<f32> = Uniform.generate(n, 24);
    let dev = Device::new(titan);
    let input = dev.upload(&ladder_keys);
    for opt in OptLevel::ladder() {
        let id = format!("ladder/{}", opt.name());
        out.push(bitonic_cell(&dev, &input, BitonicConfig::at_level(opt), id));
    }

    // Figure 14: key(s)+value payloads at n/2 (the paper's 2^28)
    {
        let m = n / 2;
        let keys: [Vec<f32>; 3] = [17, 18, 19].map(|seed| Uniform.generate(m, seed));
        let two = [
            TopKAlgorithm::RadixSelect,
            TopKAlgorithm::Bitonic(BitonicConfig::default()),
        ];
        let kv: Vec<_> = (0..m).map(|i| Kv::new(keys[0][i], i as u32)).collect();
        sweep(&mut out, titan, &kv, &two, &K_SWEEP, |a, k| {
            format!("kv/kv/{a}/k{k}")
        });
        let kkv: Vec<_> = (0..m)
            .map(|i| Kkv::new(keys[0][i], keys[1][i], i as u32))
            .collect();
        sweep(&mut out, titan, &kkv, &two, &K_SWEEP, |a, k| {
            format!("kv/kkv/{a}/k{k}")
        });
        let kkkv: Vec<_> = (0..m)
            .map(|i| Kkkv::new(keys[0][i], keys[1][i], keys[2][i], i as u32))
            .collect();
        sweep(&mut out, titan, &kkkv, &two, &K_SWEEP, |a, k| {
            format!("kv/kkkv/{a}/k{k}")
        });
    }

    // Figure 16: the MapD integration queries on 2^min(log2n, 19) tweets
    {
        let host = TweetTable::generate(1 << log2n.min(19), 2017);
        let dev = Device::new(titan);
        let table = GpuTweetTable::upload(&dev, &host);
        let ms = |r: Result<QueryResult, QdbError>| r.expect("MapD query").kernel_time.millis();
        let mut push = |id: String, t: f64| out.push(cell(id, &[("sim_time_ms", t)]));
        for s in 0..=10 {
            let op = FilterOp::TimeLess(host.time_cutoff_for_selectivity(s as f64 / 10.0));
            for st in Strategy::all() {
                let t = ms(filtered_topk(&dev, &table, &op, 50, st));
                push(format!("mapd/q1/sel{}/{}", s * 10, st.name()), t);
            }
        }
        for k in MAPD_Q2_KS {
            for st in Strategy::all() {
                push(
                    format!("mapd/q2/k{k}/{}", st.name()),
                    ms(ranked_topk(&dev, &table, k, st)),
                );
            }
        }
        let lang = FilterOp::LangIn(vec![0, 1]);
        for k in MAPD_Q3_KS {
            for st in Strategy::all() {
                let t = ms(filtered_topk(&dev, &table, &lang, k, st));
                push(format!("mapd/q3/k{k}/{}", st.name()), t);
            }
        }
        for (name, st) in [
            ("sort", TopKStrategy::Sort),
            ("bitonic", TopKStrategy::Bitonic),
        ] {
            let r = group_topk(&dev, &table, 50, st).expect("MapD query");
            let group: f64 = r
                .breakdown
                .iter()
                .filter(|(kernel, _)| kernel.contains("group"))
                .map(|(_, t)| t.millis())
                .sum();
            let total = r.kernel_time.millis();
            out.push(cell(
                format!("mapd/q4/{name}"),
                &[
                    ("sim_time_ms", total),
                    ("sim_group_ms", group),
                    ("sim_topk_ms", total - group),
                ],
            ));
        }
    }

    // Figure 12a's regime: per-thread top-8 at 4n elements on the 5-SM
    // preset (~3300 elements per thread at the full profile; the paper's
    // 2^29 gives ~11000), where sorted input's penalty shows
    for (name, dist) in distributions() {
        if ["uniform", "increasing", "decreasing"].contains(&name) {
            let spec = DeviceSpec::small_mobile();
            sweep(
                &mut out,
                spec,
                &dist.generate(n << 2, 70),
                &per_thread[..1],
                &[8],
                |a, k| format!("regime/{name}/{a}/k{k}"),
            );
        }
    }

    // Section 8 hybrids: select→bitonic against the pure algorithms, and
    // the CPU+GPU device split (GPU modeled, CPU measured)
    {
        let data: Vec<f32> = Uniform.generate(n, 55);
        let two = [
            TopKAlgorithm::Bitonic(BitonicConfig::default()),
            TopKAlgorithm::RadixSelect,
        ];
        sweep(&mut out, titan, &data, &two, &K_SWEEP, |a, k| {
            format!("hybrid/{a}/k{k}")
        });
        let dev = Device::new(titan);
        let input = dev.upload(&data);
        for k in K_SWEEP.into_iter().filter(|&k| k <= n) {
            let t = select_then_bitonic(&dev, &input, k)
                .expect("hybrid top-k")
                .time;
            let id = format!("hybrid/select-bitonic/k{k}");
            out.push(cell(id, &[("sim_time_ms", t.millis())]));
        }
        let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
        for pct in HYBRID_GPU_PCTS {
            let frac = f64::from(pct) / 100.0;
            let r = cpu_gpu_topk(&dev, &data, 32, frac, threads).expect("cpu+gpu top-k");
            out.push(cell(
                format!("hybrid/split/gpu{pct}"),
                &[
                    ("sim_gpu_fraction", r.gpu_fraction),
                    ("sim_gpu_ms", r.gpu_time.millis()),
                    ("host_cpu_ms", r.cpu_seconds * 1e3),
                    ("host_combined_ms", r.combined_seconds * 1e3),
                ],
            ));
        }
    }

    // Section 7 across GPU generations: the three-way planner's pick
    // against the measured winner on each preset
    let three = [
        TopKAlgorithm::Bitonic(BitonicConfig::default()),
        TopKAlgorithm::RadixSelect,
        TopKAlgorithm::DelegateSelect(DelegateConfig::default()),
    ];
    let data: Vec<f32> = Uniform.generate(n, 99);
    for (preset, spec) in device_presets() {
        sweep(&mut out, spec, &data, &three, &K_SWEEP, |a, k| {
            format!("device/{preset}/k{k}/{a}")
        });
        for k in K_SWEEP.into_iter().filter(|&k| k <= n) {
            let pick = match recommend(&spec, n, k, 4, &ReductionProfile::UniformFloats).algorithm {
                Algorithm::BitonicTopK => three[0],
                Algorithm::RadixSelect => three[1],
                Algorithm::DelegateSelect => three[2],
            };
            push_pick(&mut out, format!("device/{preset}/k{k}"), pick.name());
        }
    }

    // the six-way planner (`recommend_full`) against the measured winner
    // over an (n, k) grid (claim 12)
    let six: Vec<_> = algs
        .iter()
        .filter(|a| !matches!(a, TopKAlgorithm::PerThreadRegisters))
        .copied()
        .collect();
    for x in planner_log2ns(log2n) {
        let data: Vec<f32> = Uniform.generate(1 << x, 60 + u64::from(x));
        sweep(&mut out, titan, &data, &six, &PLANNER_KS, |a, k| {
            format!("planner/log2n{x}/k{k}/{a}")
        });
        for k in PLANNER_KS.into_iter().filter(|&k| k <= 1 << x) {
            let ranked = recommend_full(&titan, 1 << x, k, 4, &ReductionProfile::UniformFloats);
            let pick = full_alg(ranked[0].algorithm);
            push_pick(&mut out, format!("planner/log2n{x}/k{k}"), pick.name());
        }
    }

    // Figure 17's predictions (the measured columns are vary_k/uniform)
    for k in K_SWEEP {
        let radix = radix_select_seconds(&titan, n, 4, &ReductionProfile::UniformFloats);
        let bitonic = bitonic_topk_seconds(
            &titan,
            BitonicModelInput {
                n,
                k,
                item_bytes: 4,
                elems_per_thread: 16,
                conflict_degree: if k <= 256 { 1.0 } else { 1.3 },
            },
        );
        out.push(cell(
            format!("costmodel/k{k}"),
            &[
                ("sim_radix_model_ms", radix * 1e3),
                ("sim_bitonic_model_ms", bitonic * 1e3),
            ],
        ));
    }

    report("topk", log2n, profile, out)
}

/// Device counts the cluster suite sweeps.
pub const CLUSTER_DEVICES: [usize; 4] = [1, 2, 4, 8];

/// Fixed k for the cluster sweep (matches the scaling claim).
pub const CLUSTER_K: usize = 64;

/// Replication factors the availability sweep serves at.
pub const AVAIL_REPLICATION: [usize; 3] = [1, 2, 3];

/// Devices in the availability sweep's cluster.
pub const AVAIL_DEVICES: usize = 4;

/// Queries per batch in the availability sweep (>= the breaker
/// threshold, so a loss trips the lost device's breaker).
pub const AVAIL_QUERIES: usize = 5;

/// Availability workload: the sharded-servable query shapes.
fn avail_sql(host: &TweetTable, i: usize) -> String {
    match i % 3 {
        0 => {
            let cutoff = host.time_cutoff_for_selectivity(0.1 + 0.05 * (i % 4) as f64);
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT {}",
                6 + i
            )
        }
        1 => format!(
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {}",
            4 + i
        ),
        _ => format!(
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {}",
            3 + i
        ),
    }
}

/// Runs the multi-device sharded top-k suite: device count × partition
/// policy over uniform keyed items, with the single-device bitonic
/// result as the exactness oracle (`sim_exact`) and the
/// `topk-costmodel` cluster estimate alongside for Figure 17-style
/// model-vs-measurement comparison.
pub fn run_cluster_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let items: Vec<Kv<f32>> = Uniform
        .generate(n, 23)
        .into_iter()
        .enumerate()
        .map(|(i, k)| Kv::new(k, i as u32))
        .collect();

    // single-device oracle for the exactness column
    let oracle = {
        let dev = Device::titan_x();
        let input = dev.upload(&items);
        bitonic_topk(&dev, &input, CLUSTER_K, BitonicConfig::default())
            .expect("oracle top-k")
            .items
    };

    let mut experiments = Vec::new();
    for policy in PartitionPolicy::all() {
        for devices in CLUSTER_DEVICES {
            let wall = Instant::now();
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts: Vec<Vec<Kv<f32>>> = partition_indices(n, devices, policy)
                .into_iter()
                .map(|rows| rows.into_iter().map(|r| items[r]).collect())
                .collect();
            let shard_rows: Vec<usize> = parts.iter().map(Vec::len).collect();
            let r = sharded_topk(&cluster, &parts, CLUSTER_K, BitonicConfig::default(), 0)
                .expect("sharded top-k");
            let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let est = cluster_topk_seconds(
                cluster.spec(),
                &ClusterModelInput {
                    shard_rows,
                    k: CLUSTER_K,
                    item_bytes: Kv::<f32>::SIZE_BYTES,
                },
            );
            let max_local = r.local.iter().map(|t| t.seconds()).fold(0.0, f64::max);
            let metrics = [
                ("sim_time_ms", r.sim_time.millis()),
                ("sim_local_ms", max_local * 1e3),
                ("sim_transfer_done_ms", r.transfer_done.millis()),
                ("sim_merge_ms", r.merge_time.millis()),
                ("sim_candidate_bytes", r.candidate_bytes as f64),
                ("sim_exact", f64::from(r.items == oracle)),
                ("sim_model_ms", est.total_seconds() * 1e3),
                ("host_wall_ms", host_wall_ms),
            ];
            experiments.push(cell(
                format!("cluster/{}/dev{devices}", policy.name()),
                &metrics,
            ));
        }
    }

    // delegates of delegates: shards run delegate select locally and
    // ship their winners (one cell — round-robin across the largest
    // device count — exercising the two-level decomposition)
    {
        let devices = *CLUSTER_DEVICES.last().expect("non-empty sweep");
        let policy = PartitionPolicy::RoundRobin;
        let wall = Instant::now();
        let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
        let parts: Vec<Vec<Kv<f32>>> = partition_indices(n, devices, policy)
            .into_iter()
            .map(|rows| rows.into_iter().map(|r| items[r]).collect())
            .collect();
        let r = sharded_delegate_topk(&cluster, &parts, CLUSTER_K, DelegateConfig::default(), 0)
            .expect("sharded delegate top-k");
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let max_local = r.local.iter().map(|t| t.seconds()).fold(0.0, f64::max);
        let metrics = [
            ("sim_time_ms", r.sim_time.millis()),
            ("sim_local_ms", max_local * 1e3),
            ("sim_transfer_done_ms", r.transfer_done.millis()),
            ("sim_merge_ms", r.merge_time.millis()),
            ("sim_candidate_bytes", r.candidate_bytes as f64),
            ("sim_exact", f64::from(r.items == oracle)),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(cell(
            format!("cluster/delegate-{}/dev{devices}", policy.name()),
            &metrics,
        ));
    }

    // availability under permanent device loss: a replicated sharded
    // server at r ∈ {1,2,3} serves three batches — healthy, one device
    // lost with the batch already admitted, and post-rebuild recovery.
    // `sim_exact` encodes the availability claim: completed queries are
    // bit-exact at every r; r >= 2 completes every query through the
    // loss; r = 1 fails loudly with typed device faults, never a
    // truncated result.
    {
        let avail_log2n = log2n.min(16);
        let host_table = TweetTable::generate(1usize << avail_log2n, 2018);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host_table);
        let sqls: Vec<String> = (0..AVAIL_QUERIES)
            .map(|i| avail_sql(&host_table, i))
            .collect();
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &gpu, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();
        let exact = |rep: &ShardedLoadReport| {
            rep.queries
                .iter()
                .enumerate()
                .all(|(i, sq)| !sq.completed() || sq.ids == oracle[i])
        };
        for r_factor in AVAIL_REPLICATION {
            let wall = Instant::now();
            let cluster = Cluster::new(ClusterSpec::pcie_node(AVAIL_DEVICES));
            let table = ShardedTable::partition_replicated(
                &cluster,
                &host_table,
                PartitionPolicy::Hash,
                ReplicationFactor(r_factor),
            )
            .expect("replicated partition");
            let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
            // batch A: the healthy baseline
            for s in &sqls {
                server.submit(s).expect("healthy admission");
            }
            let a = server.drain();
            // batch B admitted, then device 1 dies permanently under it
            for s in &sqls {
                server.submit(s).expect("admission before loss");
            }
            cluster
                .device(1)
                .set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
            let b = server.drain();
            // batch C: service after online rebuild
            for s in &sqls {
                server.submit(s).expect("post-rebuild admission");
            }
            let c = server.drain();
            let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

            let loud = b.queries.iter().all(|sq| match &sq.error {
                None => true,
                Some(QdbError::DeviceFault { transient, .. }) => !transient && sq.ids.is_empty(),
                Some(_) => false,
            });
            let full = sqls.len();
            let compliant = exact(&a)
                && exact(&b)
                && exact(&c)
                && a.resilience.completed == full
                && c.resilience.completed == full
                && loud
                && (r_factor < 2 || b.resilience.completed == full);
            let completed =
                a.resilience.completed + b.resilience.completed + c.resilience.completed;
            let metrics = [
                ("sim_exact", f64::from(compliant)),
                ("sim_completed_frac", completed as f64 / (3 * full) as f64),
                ("sim_failovers", b.resilience.failovers as f64),
                ("sim_rebuilds", b.resilience.rebuilds as f64),
                ("sim_breaker_trips", b.resilience.breaker_trips as f64),
                ("sim_loss_makespan_ms", b.makespan.millis()),
                ("host_wall_ms", host_wall_ms),
            ];
            experiments.push(cell(format!("cluster/avail/r{r_factor}"), &metrics));
        }
    }

    report("cluster", log2n, profile, experiments)
}

/// The worker-thread sweep of the CPU backend suite.
pub const CPU_THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Fixed k for the CPU backend suite.
pub const CPU_SUITE_K: usize = 64;

/// Repetitions per CPU cell; the fastest is reported (wall-clock cells
/// gate on the *worse* direction only, so best-of-N just trims
/// scheduler noise).
pub const CPU_SUITE_REPS: usize = 3;

/// Runs the real-CPU backend suite through the [`topk::Backend`] trait:
/// every algorithm across the thread sweep on `2^log2n` uniform f32
/// keys. Cells are `cpu/<alg>/t<threads>` and carry only `host_*`
/// metrics — there is nothing modeled here, every number is wall-clock
/// from [`topk::ExecReport`]. The scaling claim (multi-thread beats
/// single-thread, checked by `bench-diff`) reads the `t1` cell against
/// the rest of the sweep. The `cpu-baseline/<input>/<alg>/k<k>` cells
/// time the three `topk-cpu` baselines of Figure 15 on uniform and
/// increasing keys, and the `cpu-engine/...` cells time the qdb CPU engine
/// (see `cpu_engine_cells`).
pub fn run_cpu_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let data: Vec<f32> = Uniform.generate(n, 31);

    let mut experiments = Vec::new();
    for alg in TopKAlgorithm::all() {
        for threads in CPU_THREAD_SWEEP {
            let be = CpuBackend::with_threads(threads);
            let input = be.upload(&data);
            let req = TopKRequest::largest(CPU_SUITE_K).with_alg(alg);
            let mut best: Option<topk::ExecReport> = None;
            for _ in 0..CPU_SUITE_REPS {
                let r = req.run_on(&be, &input).expect("cpu top-k");
                assert_eq!(r.items.len(), CPU_SUITE_K.min(n));
                if best
                    .as_ref()
                    .is_none_or(|b| r.report.host_wall < b.host_wall)
                {
                    best = Some(r.report);
                }
            }
            let report = best.expect("at least one rep ran");
            experiments.push(Experiment {
                id: format!("cpu/{}/t{threads}", alg.name()),
                metrics: report.metric_cells().into_iter().collect(),
            });
        }
    }

    // Figure 15's CPU baselines, best of CPU_SUITE_REPS on every core
    // (the GPU columns are the topk suite's vary_k cells)
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let baselines: [&dyn CpuTopK<f32>; 3] = [&StlPq, &HandPq, &CpuBitonic::default()];
    let increasing: Vec<f32> = Increasing.generate(n, 20);
    for (dist, data) in [
        ("uniform", Uniform.generate(n, 20)),
        ("increasing", increasing),
    ] {
        for alg in baselines {
            for k in K_SWEEP.into_iter().filter(|&k| k <= 256 && k <= n) {
                let best = (0..CPU_SUITE_REPS)
                    .map(|_| {
                        let wall = Instant::now();
                        assert_eq!(alg.topk(&data, k, threads).len(), k);
                        wall.elapsed().as_secs_f64() * 1e3
                    })
                    .fold(f64::MAX, f64::min);
                experiments.push(cell(
                    format!("cpu-baseline/{dist}/{}/k{k}", alg.name()),
                    &[("host_wall_ms", best), ("host_threads", threads as f64)],
                ));
            }
        }
    }

    experiments.extend(cpu_engine_cells(n));
    report("cpu", log2n, profile, experiments)
}

/// The k sweep of the `cpu-engine/...` cells.
const CPU_ENGINE_KS: [usize; 3] = [1, 32, 1024];

/// The qdb CPU engine through `execute_on` on one worker, one query
/// shape per cell, best of [`CPU_SUITE_REPS`]:
/// `cpu-engine/<table>/<shape>/k<k>`. Tables are the generated tweets
/// (`uniform`) and the same rows with `retweet_count` and `likes_count`
/// set to the row id (`increasing`: every row beats the running k-th
/// best, the fused scan's worst case). Shapes are a 1% and a 30% time
/// filter (`narrow`, `wide`), the ranking function (`rank`), bottom-k
/// (`asc`) and the group-by count (`group`).
fn cpu_engine_cells(n: usize) -> Vec<Experiment> {
    let be = ExecBackend::cpu(1);
    let uniform = TweetTable::generate(n, 31);
    let mut increasing = uniform.clone();
    for (row, (rt, likes)) in increasing
        .retweet_count
        .iter_mut()
        .zip(&mut increasing.likes_count)
        .enumerate()
    {
        (*rt, *likes) = (row as u32, row as u32);
    }
    let mut cells = Vec::new();
    for (name, host) in [("uniform", &uniform), ("increasing", &increasing)] {
        let table = BackendTable::load(&be, host);
        for k in CPU_ENGINE_KS {
            let filtered = |sel| {
                let cutoff = host.time_cutoff_for_selectivity(sel);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {k}"
                )
            };
            let shapes = [
                ("narrow", filtered(0.01)),
                ("wide", filtered(0.3)),
                (
                    "rank",
                    format!(
                        "SELECT id FROM tweets \
                         ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {k}"
                    ),
                ),
                (
                    "asc",
                    format!("SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {k}"),
                ),
                (
                    "group",
                    format!(
                        "SELECT uid, COUNT(*) FROM tweets GROUP BY uid \
                         ORDER BY COUNT(*) DESC LIMIT {k}"
                    ),
                ),
            ];
            for (shape, sql) in shapes {
                let q = parse_sql(&sql).expect("cell SQL parses");
                let best = (0..CPU_SUITE_REPS)
                    .map(|_| {
                        let r = execute_on(&be, &table, &q, Strategy::StageBitonic)
                            .expect("cpu engine query");
                        assert!(!r.ids.is_empty() && r.ids.len() <= k, "{sql}");
                        r.host_wall.as_secs_f64() * 1e3
                    })
                    .fold(f64::MAX, f64::min);
                cells.push(cell(
                    format!("cpu-engine/{name}/{shape}/k{k}"),
                    &[("host_wall_ms", best), ("host_threads", 1.0)],
                ));
            }
        }
    }
    cells
}

/// The offered-load sweep of the serving suite.
pub const SERVE_LOADS: [usize; 4] = [1, 4, 16, 64];

/// Runs the qdb serving suite over a `2^log2n`-row resident table.
pub fn run_serve_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let host = TweetTable::generate(n, 2018);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);

    // the Q1 shape at low selectivity (5–15%), k in 8..64: small queries
    // that cannot fill the device alone, the regime serving exists for
    let sql_for = |i: usize| {
        let sel = 0.05 + 0.1 * (i % 16) as f64 / 16.0;
        let cutoff = host.time_cutoff_for_selectivity(sel);
        let k = 8 << (i % 4);
        format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT {k}"
        )
    };

    let mut experiments = Vec::new();
    for load in SERVE_LOADS {
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for i in 0..load {
            server
                .submit(&sql_for(i), SubmitOptions::default())
                .expect("workload sql");
        }
        let report = server.drain();
        let metrics = [
            ("sim_qps", report.queries_per_sec),
            ("sim_speedup", report.speedup()),
            ("sim_makespan_ms", report.makespan.millis()),
            ("sim_p50_ms", report.p50.millis()),
            ("sim_p95_ms", report.p95.millis()),
            ("sim_p99_ms", report.p99.millis()),
            ("host_wall_ms", report.host_wall.as_secs_f64() * 1e3),
            ("host_qps", report.host_queries_per_sec()),
        ];
        experiments.push(cell(format!("serve/load{load}"), &metrics));
    }

    report("serve", log2n, profile, experiments)
}

/// Delta denominators the streaming view suite sweeps: each cell appends
/// `n / denom` rows and refreshes a standing view over them.
pub const STREAM_FRACS: [usize; 4] = [256, 64, 16, 4];

/// Fixed k for the streaming view suite.
pub const STREAM_K: usize = 32;

/// Distinct queries per batch in the read/write serving mix.
pub const STREAM_MIX_PERIODS: [usize; 2] = [2, 8];

/// Append/query rounds per read/write-mix cell.
pub const STREAM_MIX_ROUNDS: usize = 5;

/// Runs the streaming-ingest suite over a `2^log2n`-row resident table.
///
/// Two cell families:
///
/// * `stream/view/frac{d}` — a standing [`qdb::TopKView`] absorbs an
///   appended delta of `n/d` rows. The cell records the maintenance
///   refresh's traffic (`sim_global_bytes`) next to a from-scratch
///   rescan of the grown table (`sim_rescan_bytes`) — the pair behind
///   the delta-maintenance traffic claim — plus `sim_exact`: the
///   maintained result must be bit-identical to the rescan.
/// * `stream/mix/period{p}` — the serving layer under a read/write mix
///   with the epoch-tagged result cache on: each round submits `p`
///   distinct queries, re-submits them (all must come back as cache
///   hits), then appends a batch (invalidating every entry). Every
///   completed read, cached or computed, must match a same-epoch serial
///   execution bit for bit.
pub fn run_stream_suite(log2n: u32, profile: &str) -> BenchReport {
    use qdb::{TopKView, ViewConfig, ViewMode};

    let n = 1usize << log2n;
    let sql = format!("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT {STREAM_K}");
    let mut experiments = Vec::new();

    for denom in STREAM_FRACS {
        let delta = (n / denom).max(1);
        let wall = Instant::now();
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 7);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, n + delta);
        let view = TopKView::register(&sql, Strategy::StageBitonic, ViewConfig::default())
            .expect("supported view shape");
        view.refresh(&dev, &gpu).expect("initial build");

        let batch = TweetTable::generate_at(delta, 77, n as u32);
        gpu.append_batch(&dev, &batch).expect("headroom");
        let log0 = dev.log_len();
        let r = view.refresh(&dev, &gpu).expect("maintenance refresh");
        assert_eq!(r.mode, ViewMode::DeltaMerge, "fraction below the crossover");
        let w = dev.window_since(log0);

        // the from-scratch baseline at the same (grown) table size
        let log1 = dev.log_len();
        let rescan = execute_sql(
            &dev,
            &gpu,
            &parse_sql(&sql).expect("view sql"),
            Strategy::StageBitonic,
        )
        .expect("rescan oracle");
        let rw = dev.window_since(log1);
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        let metrics = [
            ("sim_time_ms", r.kernel_time.millis()),
            ("sim_global_bytes", w.stats.global_bytes() as f64),
            ("sim_launches", w.launches as f64),
            ("sim_rescan_ms", rescan.kernel_time.millis()),
            ("sim_rescan_bytes", rw.stats.global_bytes() as f64),
            ("sim_exact", f64::from(r.ids == rescan.ids)),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(cell(format!("stream/view/frac{denom}"), &metrics));
    }

    for period in STREAM_MIX_PERIODS {
        let delta = (n / 64).max(1);
        let wall = Instant::now();
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 2018);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, n + STREAM_MIX_ROUNDS * delta);
        // coalescing off so every read is comparable to a serial
        // execution by ids, not just by key sequence
        let mut server = Server::new(
            &dev,
            &gpu,
            ServerConfig {
                result_cache: true,
                coalesce: false,
                ..ServerConfig::default()
            },
        );
        let sqls: Vec<String> = (0..period).map(|i| avail_sql(&host, i)).collect();

        let mut exact = true;
        let mut makespan = SimTime::ZERO;
        let mut cache_hits = 0usize;
        let mut cache_refreshes = 0usize;
        let mut completed = 0usize;
        let mut next_id = n as u32;
        for round in 0..STREAM_MIX_ROUNDS {
            // two drains at the same epoch: the first computes (or
            // refreshes stale entries), the second must hit for every
            // query
            for pass in 0..2 {
                for s in &sqls {
                    server.submit(s, SubmitOptions::default()).expect("submit");
                }
                let rep = server.drain();
                makespan += rep.makespan;
                cache_hits += rep.resilience.cache_hits;
                cache_refreshes += rep.resilience.cache_refreshes;
                completed += rep.resilience.completed;
                if pass == 1 && rep.resilience.cache_hits != sqls.len() {
                    exact = false;
                }
                for q in &rep.queries {
                    let oracle = execute_sql(
                        &dev,
                        &gpu,
                        &parse_sql(&q.sql).expect("mix sql"),
                        Strategy::StageBitonic,
                    )
                    .expect("mix oracle");
                    if q.result.ids != oracle.ids {
                        exact = false;
                    }
                }
            }
            let batch = TweetTable::generate_at(delta, 3000 + round as u64, next_id);
            gpu.append_batch(&dev, &batch).expect("headroom");
            next_id += delta as u32;
        }
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let total_queries = 2 * period * STREAM_MIX_ROUNDS;
        let metrics = [
            ("sim_exact", f64::from(exact && completed == total_queries)),
            ("sim_qps", total_queries as f64 / makespan.seconds()),
            ("sim_makespan_ms", makespan.millis()),
            ("sim_cache_hits", cache_hits as f64),
            ("sim_cache_refreshes", cache_refreshes as f64),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(cell(format!("stream/mix/period{period}"), &metrics));
    }

    report("stream", log2n, profile, experiments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchReport as Parsed;

    #[test]
    fn topk_suite_produces_a_schema_valid_deterministic_report() {
        let r = run_topk_suite(10, "test");
        // bitonic and sort must cover the whole k sweep
        for k in K_SWEEP {
            assert!(r
                .experiment(&format!("vary_k/uniform/bitonic/k{k}"))
                .is_some());
            assert!(r.experiment(&format!("vary_k/uniform/sort/k{k}")).is_some());
        }
        // skew cells present for the claim checks
        assert!(r.experiment("dist/increasing/per-thread/k32").is_some());
        assert!(r.experiment("dist/uniform/per-thread/k32").is_some());
        // every figure family at its expected size: per-thread top-k
        // cannot launch at k >= 512 (k >= 256 for f64), and the n/2 and
        // planner families keep k <= n
        for (family, cells) in [
            ("vary_k/uniform/", 75),
            ("vary_n/", 7),
            ("dist/", 42),
            ("vary_k/uniform-u32/", 75),
            ("vary_k/uniform-f64/", 68),
            ("vary_k/increasing/", 75),
            ("vary_k/bucket-killer/", 75),
            ("vary_k/decreasing/", 18),
            ("ept/", EPT_SWEEP.len()),
            ("ladder/", 7),
            ("kv/", 60),
            ("mapd/", 59),
            ("regime/", 3),
            ("hybrid/", 38),
            ("device/", 132),
            ("planner/", 83),
            ("costmodel/", K_SWEEP.len()),
        ] {
            let got = r.experiments.iter().filter(|e| e.id.starts_with(family));
            assert_eq!(got.count(), cells, "{family}");
        }
        // serializes to a document that re-validates
        let parsed = Parsed::from_json(&r.render()).expect("schema-valid");
        assert_eq!(parsed.experiments.len(), r.experiments.len());

        // deterministic sim metrics: a second run reproduces exact bits
        let r2 = run_topk_suite(10, "test");
        assert_eq!(r.experiments.len(), r2.experiments.len());
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(
                        v.to_bits(),
                        b.metrics[name].to_bits(),
                        "{}/{name} must be deterministic",
                        a.id
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_suite_is_exact_deterministic_and_schema_valid() {
        let r = run_cluster_suite(12, "test");
        assert_eq!(r.kind, "cluster");
        // policy × device sweep, the delegates-of-delegates cell, and
        // the availability sweep
        assert_eq!(
            r.experiments.len(),
            PartitionPolicy::all().len() * CLUSTER_DEVICES.len() + 1 + AVAIL_REPLICATION.len()
        );
        // availability: r >= 2 rides through the loss at full
        // completion; r = 1 is loud but compliant (typed, untruncated)
        for r_factor in AVAIL_REPLICATION {
            let id = format!("cluster/avail/r{r_factor}");
            let e = r.experiment(&id).expect("availability cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id} claim compliance");
            assert!(e.metrics["sim_rebuilds"] > 0.0, "{id}");
            if r_factor >= 2 {
                assert_eq!(e.metrics["sim_completed_frac"], 1.0, "{id}");
                assert!(e.metrics["sim_failovers"] > 0.0, "{id}");
            } else {
                assert!(e.metrics["sim_completed_frac"] < 1.0, "{id}");
            }
        }
        let dd = r
            .experiment("cluster/delegate-round-robin/dev8")
            .expect("delegates-of-delegates cell");
        assert_eq!(dd.metrics["sim_exact"], 1.0);
        assert!(dd.metrics["sim_candidate_bytes"] > 0.0);
        for policy in PartitionPolicy::all() {
            for devices in CLUSTER_DEVICES {
                let id = format!("cluster/{}/dev{devices}", policy.name());
                let e = r.experiment(&id).expect("cell");
                assert_eq!(e.metrics["sim_exact"], 1.0, "{id} must be oracle-exact");
                assert!(e.metrics["sim_time_ms"] > 0.0);
                assert!(e.metrics["sim_model_ms"] > 0.0);
                if devices > 1 {
                    assert!(e.metrics["sim_candidate_bytes"] > 0.0, "{id}");
                }
            }
        }
        Parsed::from_json(&r.render()).expect("schema-valid");

        // deterministic across runs, bit for bit
        let r2 = run_cluster_suite(12, "test");
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(v.to_bits(), b.metrics[name].to_bits(), "{}/{name}", a.id);
                }
            }
        }
    }

    #[test]
    fn cpu_suite_produces_a_host_only_schema_valid_report() {
        let r = run_cpu_suite(12, "test");
        assert_eq!(r.kind, "cpu");
        let baselines = r
            .experiments
            .iter()
            .filter(|e| e.id.starts_with("cpu-baseline/"));
        // three baselines × two inputs × k in 1..=256
        assert_eq!(baselines.count(), 3 * 2 * 9);
        let engine = r
            .experiments
            .iter()
            .filter(|e| e.id.starts_with("cpu-engine/"));
        // two tables × five shapes × three k
        assert_eq!(engine.count(), 2 * 5 * CPU_ENGINE_KS.len());
        assert_eq!(
            r.experiments.len(),
            TopKAlgorithm::all().len() * CPU_THREAD_SWEEP.len()
                + 3 * 2 * 9
                + 2 * 5 * CPU_ENGINE_KS.len()
        );
        for e in &r.experiments {
            // nothing modeled here: every metric is wall-clock
            assert!(
                e.metrics.keys().all(|m| m.starts_with("host_")),
                "{}: {:?}",
                e.id,
                e.metrics.keys()
            );
            assert!(e.metrics["host_wall_ms"] > 0.0, "{}", e.id);
            assert!(e.metrics["host_threads"] >= 1.0, "{}", e.id);
        }
        for threads in CPU_THREAD_SWEEP {
            assert!(r.experiment(&format!("cpu/bitonic/t{threads}")).is_some());
        }
        Parsed::from_json(&r.render()).expect("schema-valid");
        // the same cells, in the same order, on every run
        let ids = |r: &BenchReport| {
            r.experiments
                .iter()
                .map(|e| e.id.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&r), ids(&run_cpu_suite(12, "test")));
    }

    #[test]
    fn stream_suite_is_exact_deterministic_and_schema_valid() {
        let r = run_stream_suite(12, "test");
        assert_eq!(r.kind, "stream");
        assert_eq!(
            r.experiments.len(),
            STREAM_FRACS.len() + STREAM_MIX_PERIODS.len()
        );
        for denom in STREAM_FRACS {
            let id = format!("stream/view/frac{denom}");
            let e = r.experiment(&id).expect("view cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id} must match the rescan");
            assert!(
                e.metrics["sim_global_bytes"] < e.metrics["sim_rescan_bytes"],
                "{id}: delta maintenance must move less than a rescan"
            );
        }
        // smaller deltas cost less maintenance traffic
        let bytes_at = |d: usize| {
            r.metric(&format!("stream/view/frac{d}"), "sim_global_bytes")
                .unwrap()
        };
        assert!(bytes_at(256) < bytes_at(64));
        assert!(bytes_at(64) < bytes_at(4));
        for period in STREAM_MIX_PERIODS {
            let id = format!("stream/mix/period{period}");
            let e = r.experiment(&id).expect("mix cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id}");
            // every re-submitted round hits: period queries per round
            assert_eq!(
                e.metrics["sim_cache_hits"],
                (period * STREAM_MIX_ROUNDS) as f64,
                "{id}"
            );
            // appends invalidate: rounds after the first must refresh
            assert_eq!(
                e.metrics["sim_cache_refreshes"],
                (period * (STREAM_MIX_ROUNDS - 1)) as f64,
                "{id}"
            );
            assert!(e.metrics["sim_qps"] > 0.0);
        }
        Parsed::from_json(&r.render()).expect("schema-valid");

        // deterministic across runs, bit for bit
        let r2 = run_stream_suite(12, "test");
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(v.to_bits(), b.metrics[name].to_bits(), "{}/{name}", a.id);
                }
            }
        }
    }

    #[test]
    fn serve_suite_produces_a_schema_valid_report() {
        let r = run_serve_suite(10, "test");
        assert_eq!(r.kind, "serve");
        for load in SERVE_LOADS {
            let e = r.experiment(&format!("serve/load{load}")).expect("cell");
            assert!(e.metrics["sim_qps"] > 0.0);
            assert!(e.metrics["host_wall_ms"] > 0.0);
        }
        Parsed::from_json(&r.render()).expect("schema-valid");
    }
}
