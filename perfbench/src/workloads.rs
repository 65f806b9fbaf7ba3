//! The two workloads. `sim_stack` interleaves three simulated
//! deployments (`serve_mixed`, `ingest_views`, `cluster_failover`) as
//! phases of one closed loop; `cpu_engine` drives the real CPU engine.
//! Each has a set-up (generation, upload, initial builds) and a timed
//! loop that drives the public qdb APIs and records what came back.
//! Modeled-time aggregates cover a fixed window of the first round trips,
//! so they repeat exactly for a seed; host figures cover every round trip
//! of the timed phase.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datagen::twitter::TweetTable;

use qdb::shard::{PartitionPolicy, ReplicationFactor, ShardedServer, ShardedTable};
use qdb::{
    execute_on, explain_filtered_topk, parse_sql, BackendTable, FilterOp, GpuTweetTable,
    LoadReport, QdbError, ResilienceStats, Server, ServerConfig, Strategy, SubmitOptions,
    TableStats, TopKView, ViewConfig, ViewStats,
};
use simt::topology::{Cluster, ClusterSpec};
use simt::{Device, FaultPlan, LaunchWindow, SimTime};
use topk::ExecBackend;

use crate::gen::{self, IngestInputs, Request, Shape, BLOCK};
use crate::oracle::Answered;
use crate::stats::{mean, median, p50_p95, ratio, slope};
use crate::trace::{Tracer, SETUP};

/// Rows of the base table of every `sim_stack` phase.
pub const SIM_ROWS: usize = 1 << 15;
/// Rows of the `cpu_engine` table.
pub const CPU_ROWS: usize = 1 << 20;
/// Blocks of eight queries in a generated pool; the loop cycles through
/// the pool when a run outlasts it.
const POOL_BLOCKS: usize = 64;
/// Round trips in the modeled-time window of `serve_mixed`.
const SERVE_WINDOW: usize = 32;
/// Round trips in the modeled-time window of `cluster_failover`.
const CLUSTER_WINDOW: usize = 24;
/// The round trip whose drain loses device 1.
const CLUSTER_LOSS_AT: usize = 12;
const CLUSTER_DEVICES: usize = 4;
/// Epochs in the modeled-time window of `ingest_views`.
const INGEST_WINDOW: usize = 16;
/// Epochs generated (and table headroom provisioned) for `ingest_views`.
const INGEST_EPOCHS: usize = 256;
/// Rows per arrival batch: n/256.
const INGEST_BATCH: usize = SIM_ROWS / 256;
/// The standing views of `ingest_views`.
const VIEWS: [(Shape, usize); 4] = [
    (Shape::Top, 32),
    (Shape::Top, 256),
    (Shape::Asc, 64),
    (Shape::Rank, 64),
];
/// Queries in the fixed window of `cpu_engine`.
const CPU_WINDOW: usize = 256;
/// Worker threads of the CPU engine. One: on a two-vCPU machine shared
/// with other tenants, two workers make each query wait for the slower
/// vCPU, and the latencies swing far more between runs than the
/// engine's own cost does.
const CPU_THREADS: usize = 1;

/// What one timed phase produced.
#[derive(Default)]
pub struct Outcome {
    /// Every completed read and view refresh, for the oracle.
    pub answered: Vec<Answered>,
    /// Read queries attempted and completed.
    pub reads: usize,
    pub reads_completed: usize,
    /// Other checked operations (appends, view refreshes) attempted and
    /// failed.
    pub ops: usize,
    pub ops_failed: usize,
    /// Host latency of every completed read, in ms.
    pub host_lat_ms: Vec<f64>,
    /// Host time of the timed phase (of a phase: of its own steps).
    pub wall: Duration,
    /// Resident-set high-water mark when the fixed window closed, so it
    /// measures a fixed amount of work, not the host's speed.
    pub peak_rss_mb: f64,
    /// Rows of the base table and arrival batches appended since: the
    /// oracle's table is the base table plus this many batches.
    pub base_rows: usize,
    pub appended_batches: usize,
    /// Modeled latency of every completed read in the window, in ms.
    pub sim_lat_ms: Vec<f64>,
    /// Completed reads in the window and the modeled time they took.
    pub sim_reads: usize,
    pub sim_busy: SimTime,
    /// Modeled append-to-view-current times, in ms.
    pub sim_fresh_ms: Vec<f64>,
    /// Retained launch reports on the devices when the window closed.
    pub launch_log: usize,
    /// Per-layer metrics this workload or phase measures.
    pub layer: BTreeMap<&'static str, f64>,
    /// Extra series for the trace file.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new(base_rows: usize) -> Self {
        Outcome {
            base_rows,
            ..Outcome::default()
        }
    }

    fn read(&mut self, req: &Request, rows: usize, ids: Option<Vec<u32>>, host_ms: f64) {
        self.reads += 1;
        if let Some(ids) = ids {
            self.reads_completed += 1;
            self.host_lat_ms.push(host_ms);
            self.answered.push(Answered {
                shape: req.shape,
                k: req.k,
                rows,
                ids,
            });
        }
    }

    /// A phase's own host throughput and its modeled throughput and
    /// latency percentiles over the window, as per-layer metrics.
    fn phase_metrics(&mut self, names: &PhaseNames) {
        let (p50, p95) = p50_p95(&self.sim_lat_ms);
        let host_qps = ratio(self.reads_completed as f64, self.wall.as_secs_f64());
        let sim_qps = ratio(self.sim_reads as f64, self.sim_busy.seconds());
        for (name, v) in [
            (names.host_qps, host_qps),
            (names.sim_qps, sim_qps),
            (names.sim_p50_ms, p50),
            (names.sim_p95_ms, p95),
        ] {
            self.layer.insert(name, v);
        }
    }

    /// Marks the end of the fixed window.
    fn close_window(&mut self) {
        self.peak_rss_mb = crate::stats::peak_rss_mb();
    }

    fn finish(&mut self, start: Instant) {
        self.wall = start.elapsed();
        if self.peak_rss_mb == 0.0 {
            self.close_window();
        }
    }
}

/// Names of a phase's own per-layer metrics.
struct PhaseNames {
    host_qps: &'static str,
    sim_qps: &'static str,
    sim_p50_ms: &'static str,
    sim_p95_ms: &'static str,
}

const SERVE_NAMES: PhaseNames = PhaseNames {
    host_qps: "serve_mixed.host_qps",
    sim_qps: "serve_mixed.sim_qps",
    sim_p50_ms: "serve_mixed.sim_p50_ms",
    sim_p95_ms: "serve_mixed.sim_p95_ms",
};

const INGEST_NAMES: PhaseNames = PhaseNames {
    host_qps: "ingest_views.host_qps",
    sim_qps: "ingest_views.sim_qps",
    sim_p50_ms: "ingest_views.sim_p50_ms",
    sim_p95_ms: "ingest_views.sim_p95_ms",
};

const CLUSTER_NAMES: PhaseNames = PhaseNames {
    host_qps: "cluster_failover.host_qps",
    sim_qps: "cluster_failover.sim_qps",
    sim_p50_ms: "cluster_failover.sim_p50_ms",
    sim_p95_ms: "cluster_failover.sim_p95_ms",
};

/// Keeps looping while the modeled window is unfinished or the host
/// budget is unspent.
fn keep_going(round: usize, window: usize, start: Instant, seconds: f64) -> bool {
    round < window || start.elapsed().as_secs_f64() < seconds
}

fn pool_block(pool: &[Request], round: usize) -> &[Request] {
    let b = round % (pool.len() / BLOCK);
    &pool[b * BLOCK..(b + 1) * BLOCK]
}

/// Where a kernel's modeled time is booked: the engine's scan stages or
/// the top-k operator.
fn is_engine_kernel(name: &str) -> bool {
    name.starts_with("qdb_") && name != "qdb_fused_sort_reducer"
}

/// Submits one round trip to a single-device server and drains it.
/// Returns the report and, per request, its position in the report or
/// the admission error.
fn server_round(
    server: &mut Server<'_>,
    reqs: &[&Request],
    tr: &mut Tracer,
    round: u64,
) -> (LoadReport, Vec<Option<usize>>) {
    let mut tickets = Vec::with_capacity(reqs.len());
    for r in reqs {
        if tr.enabled() {
            let s = tr.begin("qdb.sql", "parse", round);
            std::hint::black_box(parse_sql(&r.sql).ok());
            tr.end(s);
        }
        let s = tr.begin("qdb.server", "submit", round);
        tickets.push(server.submit(&r.sql, SubmitOptions::default()).ok());
        tr.end(s);
    }
    let s = tr.begin("qdb.server", "drain", round);
    let report = server.drain();
    tr.end(s);
    let pos = tickets
        .into_iter()
        .map(|t| t.and_then(|t| report.queries.iter().position(|q| q.ticket == t)))
        .collect();
    (report, pos)
}

/// Modeled-time ledger of single-device drains in the window.
#[derive(Default)]
struct ServeLedger {
    makespan: f64,
    serial: f64,
    queued_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    filter_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    coalesced: usize,
    computed: usize,
    res: ResilienceStats,
    drain_host_s: f64,
}

impl ServeLedger {
    fn add(&mut self, report: &LoadReport, out: &mut Outcome) {
        self.makespan += report.makespan.seconds();
        self.serial += report.serial_time.seconds();
        self.drain_host_s += report.host_wall.as_secs_f64();
        add_resilience(&mut self.res, &report.resilience);
        out.sim_busy += report.makespan;
        for q in report.queries.iter().filter(|q| q.completed()) {
            out.sim_reads += 1;
            out.sim_lat_ms.push(q.timing.total.millis());
            if q.cached {
                continue;
            }
            self.computed += 1;
            self.coalesced += usize::from(q.coalesced);
            self.queued_ms.push(q.timing.queued.millis());
            self.exec_ms.push(q.timing.exec.millis());
            let (mut f, mut t) = (0.0, 0.0);
            for (name, time) in &q.result.breakdown {
                if is_engine_kernel(name) {
                    f += time.millis();
                } else {
                    t += time.millis();
                }
            }
            self.filter_ms.push(f);
            self.topk_ms.push(t);
        }
    }

    /// Execution metrics: queueing, overlap, coalescing and the split of
    /// modeled time between the engine and the top-k operator.
    fn report_exec(&self, out: &mut Outcome) {
        let l = &mut out.layer;
        l.insert("qdb.server.sim_queue_ms", mean(&self.queued_ms));
        l.insert("qdb.server.sim_exec_ms", mean(&self.exec_ms));
        l.insert("qdb.server.overlap", ratio(self.serial, self.makespan));
        l.insert(
            "qdb.server.coalesced_frac",
            ratio(self.coalesced as f64, self.computed as f64),
        );
        l.insert("qdb.server.retries", self.res.retries as f64);
        l.insert("qdb.engine.sim_filter_ms", mean(&self.filter_ms));
        l.insert("topk.sim_topk_ms", mean(&self.topk_ms));
    }

    /// Result-cache metrics.
    fn report_cache(&self, out: &mut Outcome) {
        let l = &mut out.layer;
        let lookups = self.res.cache_hits + self.res.cache_misses + self.res.cache_refreshes;
        l.insert(
            "qdb.server.cache_hit_frac",
            ratio(self.res.cache_hits as f64, lookups as f64),
        );
        l.insert(
            "qdb.server.cache_recomputes",
            self.res.cache_refreshes as f64,
        );
        l.insert("qdb.server.retries", self.res.retries as f64);
    }
}

fn add_resilience(acc: &mut ResilienceStats, r: &ResilienceStats) {
    acc.retries += r.retries;
    acc.failovers += r.failovers;
    acc.rebuilds += r.rebuilds;
    acc.breaker_trips += r.breaker_trips;
    acc.cache_hits += r.cache_hits;
    acc.cache_misses += r.cache_misses;
    acc.cache_refreshes += r.cache_refreshes;
}

/// Device-side counters of a launch window, per completed read.
fn simt_layer(out: &mut Outcome, w: &LaunchWindow, drain_host_s: f64) {
    let reads = out.sim_reads as f64;
    let l = &mut out.layer;
    l.insert("simt.launches_per_query", ratio(w.launches as f64, reads));
    l.insert(
        "simt.host_us_per_launch",
        ratio(drain_host_s * 1e6, w.launches as f64),
    );
    l.insert(
        "simt.sim_kernel_ms_per_query",
        ratio(w.time.millis(), reads),
    );
    l.insert(
        "simt.global_bytes_per_query",
        ratio(w.stats.global_bytes() as f64, reads),
    );
    l.insert("simt.sectors_per_access", w.stats.sectors_per_access());
    l.insert("simt.conflict_degree", w.stats.avg_conflict_degree());
}

fn setup_span<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let s = tr.begin(layer, name, SETUP);
    let v = f();
    tr.end(s);
    v
}

// ---------------------------------------------------------------- serve_mixed

pub struct Serve {
    dev: Device,
    gpu: GpuTweetTable,
    pool: Vec<Request>,
}

pub fn serve_setup(seed: u64, tr: &mut Tracer) -> Serve {
    let (host, pool) = setup_span(tr, "datagen", "generate", || {
        (
            gen::table(SIM_ROWS, seed),
            gen::query_mix(seed, POOL_BLOCKS, true),
        )
    });
    let dev = Device::titan_x();
    let gpu = setup_span(tr, "simt", "upload", || GpuTweetTable::upload(&dev, &host));
    Serve { dev, gpu, pool }
}

/// The `serve_mixed` phase: one block of the mix per step, submitted to
/// a single-device server with a cold cache and drained.
struct ServeLoop<'a> {
    fx: &'a Serve,
    server: Server<'a>,
    out: Outcome,
    ledger: ServeLedger,
    /// Per Q1 read in the window: cutoff, LIMIT, measured modeled exec.
    q1: Vec<(u32, usize, f64)>,
    log0: usize,
    window: Option<LaunchWindow>,
    round: usize,
}

impl<'a> ServeLoop<'a> {
    fn new(fx: &'a Serve) -> Self {
        ServeLoop {
            fx,
            server: Server::new(&fx.dev, &fx.gpu, ServerConfig::default()),
            out: Outcome::new(SIM_ROWS),
            ledger: ServeLedger::default(),
            q1: Vec::new(),
            log0: fx.dev.log_len(),
            window: None,
            round: 0,
        }
    }

    fn window_open(&self) -> bool {
        self.round < SERVE_WINDOW
    }

    fn step(&mut self, tr: &mut Tracer) {
        let (fx, round) = (self.fx, self.round);
        if round == SERVE_WINDOW {
            self.window = Some(fx.dev.window_since(self.log0));
            self.out.launch_log = fx.dev.log_len();
        }
        let block: Vec<&Request> = pool_block(&fx.pool, round).iter().collect();
        let root = tr.begin("bench", "round_trip", round as u64);
        let t0 = Instant::now();
        let (report, pos) = server_round(&mut self.server, &block, tr, round as u64);
        let took = t0.elapsed();
        tr.end(root);
        self.out.wall += took;
        let host_ms = took.as_secs_f64() * 1e3;
        for (req, p) in block.iter().zip(&pos) {
            let served = p.map(|i| &report.queries[i]).filter(|q| q.completed());
            self.out
                .read(req, SIM_ROWS, served.map(|q| q.result.ids.clone()), host_ms);
            if let (Some(q), true, Shape::TimeTop { cutoff }) =
                (served, round < SERVE_WINDOW, req.shape)
            {
                self.q1.push((cutoff, req.k, q.timing.exec.seconds()));
            }
        }
        if round < SERVE_WINDOW {
            self.ledger.add(&report, &mut self.out);
        }
        self.round += 1;
    }

    fn finish(self) -> Outcome {
        let ServeLoop {
            fx,
            mut out,
            ledger,
            q1,
            log0,
            window,
            ..
        } = self;
        let window = window.unwrap_or_else(|| fx.dev.window_since(log0));
        if out.launch_log == 0 {
            out.launch_log = fx.dev.log_len();
        }
        simt_layer(&mut out, &window, ledger.drain_host_s);
        ledger.report_exec(&mut out);
        // the cost model's prediction for the strategy the server ran,
        // against the measured modeled execution of each Q1 query
        let stats = TableStats::gather(&fx.gpu);
        let errs: Vec<f64> = q1
            .iter()
            .filter(|(_, _, measured)| *measured > 0.0)
            .map(|&(cutoff, k, measured)| {
                let plan = explain_filtered_topk(
                    fx.dev.spec(),
                    &fx.gpu,
                    &stats,
                    &FilterOp::TimeLess(cutoff),
                    k,
                );
                let predicted = plan
                    .costs
                    .iter()
                    .find(|c| c.strategy == Strategy::StageBitonic)
                    .expect("every plan prices stage-bitonic")
                    .predicted_seconds;
                (predicted - measured).abs() / measured
            })
            .collect();
        out.layer.insert("topk-costmodel.rel_err", median(&errs));
        out.phase_metrics(&SERVE_NAMES);
        out
    }
}

// --------------------------------------------------------------- ingest_views

pub struct Ingest {
    dev: Device,
    gpu: GpuTweetTable,
    inputs: IngestInputs,
    views: Vec<(TopKView, Request)>,
}

fn ingest_inputs(seed: u64) -> IngestInputs {
    gen::ingest_inputs(seed, SIM_ROWS, INGEST_EPOCHS, INGEST_BATCH)
}

pub fn ingest_setup(seed: u64, tr: &mut Tracer) -> Ingest {
    let (host, inputs) = setup_span(tr, "datagen", "generate", || {
        (gen::table(SIM_ROWS, seed), ingest_inputs(seed))
    });
    let dev = Device::titan_x();
    let gpu = setup_span(tr, "simt", "upload", || {
        GpuTweetTable::upload_with_capacity(&dev, &host, SIM_ROWS + INGEST_EPOCHS * INGEST_BATCH)
    });
    let views = VIEWS
        .iter()
        .map(|&(shape, k)| {
            let req = Request::new(shape, k);
            let view = TopKView::register(&req.sql, Strategy::StageBitonic, ViewConfig::default())
                .expect("standing views are decomposable");
            setup_span(tr, "qdb.stream", "refresh", || view.refresh(&dev, &gpu))
                .expect("initial view build");
            (view, req)
        })
        .collect();
    Ingest {
        dev,
        gpu,
        inputs,
        views,
    }
}

/// The `ingest_views` phase: one epoch per step — an arrival batch, the
/// refresh of every standing view, then the epoch's read round trips
/// through the result cache.
struct IngestLoop<'a> {
    fx: &'a Ingest,
    server: Server<'a>,
    out: Outcome,
    ledger: ServeLedger,
    append_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    refresh_bytes: Vec<f64>,
    stats0: Vec<ViewStats>,
    stats_w: Option<Vec<ViewStats>>,
    epoch: usize,
}

impl<'a> IngestLoop<'a> {
    fn new(fx: &'a Ingest) -> Self {
        let cfg = ServerConfig {
            result_cache: true,
            ..ServerConfig::default()
        };
        IngestLoop {
            fx,
            server: Server::new(&fx.dev, &fx.gpu, cfg),
            out: Outcome::new(SIM_ROWS),
            ledger: ServeLedger::default(),
            append_ms: Vec::new(),
            refresh_ms: Vec::new(),
            refresh_bytes: Vec::new(),
            stats0: fx.views.iter().map(|(v, _)| v.stats()).collect(),
            stats_w: None,
            epoch: 0,
        }
    }

    fn window_open(&self) -> bool {
        self.epoch < INGEST_WINDOW
    }

    /// Runs the next epoch; does nothing once the generated epochs are
    /// used up.
    fn step(&mut self, tr: &mut Tracer) {
        let (fx, epoch) = (self.fx, self.epoch);
        if epoch == INGEST_EPOCHS {
            return;
        }
        if epoch == INGEST_WINDOW {
            self.out.launch_log = fx.dev.log_len();
            self.stats_w = Some(fx.views.iter().map(|(v, _)| v.stats()).collect());
        }
        let in_window = epoch < INGEST_WINDOW;
        let rt = epoch as u64;
        let out = &mut self.out;
        let root = tr.begin("bench", "round_trip", rt);
        let t0 = Instant::now();

        // 1. the next arrival batch lands
        out.ops += 1;
        let s = tr.begin("qdb.stream", "append", rt);
        let receipt = fx
            .gpu
            .append_batch(&fx.dev, &fx.inputs.batches[out.appended_batches]);
        tr.end(s);
        let rows = fx.gpu.len();
        let mut fresh = match receipt {
            Ok(r) => {
                out.appended_batches += 1;
                if in_window {
                    self.append_ms.push(r.transfer_time.millis());
                }
                r.transfer_time
            }
            Err(_) => {
                out.ops_failed += 1;
                SimTime::ZERO
            }
        };

        // 2. every standing view catches up, in registration order
        for (view, req) in &fx.views {
            out.ops += 1;
            let l0 = fx.dev.log_len();
            let s = tr.begin("qdb.stream", "refresh", rt);
            let r = view.refresh(&fx.dev, &fx.gpu);
            tr.end(s);
            match r {
                Ok(r) => {
                    fresh += r.kernel_time;
                    if in_window {
                        out.sim_fresh_ms.push(fresh.millis());
                        self.refresh_ms.push(r.kernel_time.millis());
                        let bytes = fx.dev.window_since(l0).stats.global_bytes();
                        self.refresh_bytes.push(bytes as f64);
                    }
                    out.answered.push(Answered {
                        shape: req.shape,
                        k: req.k,
                        rows,
                        ids: r.ids,
                    });
                }
                Err(_) => out.ops_failed += 1,
            }
        }
        out.wall += t0.elapsed();
        tr.end(root);

        // 3. the read round trips
        for round in fx.inputs.reads[epoch].chunks(BLOCK) {
            let reqs: Vec<&Request> = round.iter().map(|&i| &fx.inputs.hot[i]).collect();
            let root = tr.begin("bench", "round_trip", rt);
            let t0 = Instant::now();
            let (report, pos) = server_round(&mut self.server, &reqs, tr, rt);
            let took = t0.elapsed();
            tr.end(root);
            out.wall += took;
            let host_ms = took.as_secs_f64() * 1e3;
            for (req, p) in reqs.iter().zip(&pos) {
                let served = p.map(|i| &report.queries[i]).filter(|q| q.completed());
                out.read(req, rows, served.map(|q| q.result.ids.clone()), host_ms);
            }
            if in_window {
                self.ledger.add(&report, out);
            }
        }
        self.epoch += 1;
    }

    fn finish(self) -> Outcome {
        let IngestLoop {
            fx,
            mut out,
            ledger,
            append_ms,
            refresh_ms,
            refresh_bytes,
            stats0,
            stats_w,
            ..
        } = self;
        if out.launch_log == 0 {
            out.launch_log = fx.dev.log_len();
        }
        ledger.report_cache(&mut out);
        let stats_w = stats_w.unwrap_or_else(|| fx.views.iter().map(|(v, _)| v.stats()).collect());
        let (mut merges, mut refreshes) = (0, 0);
        for (a, b) in stats0.iter().zip(&stats_w) {
            merges += b.delta_merges - a.delta_merges;
            refreshes += (b.delta_merges + b.rescans + b.current_hits)
                - (a.delta_merges + a.rescans + a.current_hits);
        }
        let (fresh_p50, fresh_p95) = p50_p95(&out.sim_fresh_ms);
        let l = &mut out.layer;
        l.insert("qdb.stream.sim_append_ms", mean(&append_ms));
        l.insert("qdb.stream.sim_refresh_ms", mean(&refresh_ms));
        l.insert("qdb.stream.refresh_bytes", mean(&refresh_bytes));
        l.insert(
            "qdb.stream.delta_merge_frac",
            ratio(merges as f64, refreshes as f64),
        );
        l.insert("ingest_views.sim_fresh_p50_ms", fresh_p50);
        l.insert("ingest_views.sim_fresh_p95_ms", fresh_p95);
        out.phase_metrics(&INGEST_NAMES);
        out
    }
}

// ----------------------------------------------------------- cluster_failover

pub struct Sharded {
    cluster: Cluster,
    table: ShardedTable,
    pool: Vec<Request>,
}

pub fn cluster_setup(seed: u64, tr: &mut Tracer) -> Sharded {
    let (host, pool) = setup_span(tr, "datagen", "generate", || {
        (
            gen::table(SIM_ROWS, seed),
            gen::query_mix(seed, POOL_BLOCKS, false),
        )
    });
    let cluster = Cluster::new(ClusterSpec::pcie_node(CLUSTER_DEVICES));
    let table = setup_span(tr, "simt", "upload", || {
        ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
    })
    .expect("partitioning a healthy cluster succeeds");
    Sharded {
        cluster,
        table,
        pool,
    }
}

/// The `cluster_failover` phase: one block per step through the
/// replicated sharded server; device 1 is lost with round trip
/// [`CLUSTER_LOSS_AT`] admitted.
struct ClusterLoop<'a> {
    fx: &'a Sharded,
    server: ShardedServer<'a>,
    out: Outcome,
    res: ResilienceStats,
    makespans: Vec<f64>,
    slowest: Vec<f64>,
    drain_host_s: f64,
    xfer0: usize,
    window_end: Option<(Vec<usize>, usize)>,
    round: usize,
}

impl<'a> ClusterLoop<'a> {
    fn new(fx: &'a Sharded) -> Self {
        ClusterLoop {
            fx,
            server: ShardedServer::new(&fx.cluster, &fx.table, ServerConfig::default()),
            out: Outcome::new(SIM_ROWS),
            res: ResilienceStats::default(),
            makespans: Vec::new(),
            slowest: Vec::new(),
            drain_host_s: 0.0,
            xfer0: fx.cluster.transfers_len(),
            window_end: None,
            round: 0,
        }
    }

    fn window_open(&self) -> bool {
        self.round < CLUSTER_WINDOW
    }

    fn step(&mut self, tr: &mut Tracer) {
        let (fx, round) = (self.fx, self.round);
        let devices = fx.cluster.devices();
        if round == CLUSTER_WINDOW {
            self.window_end = Some(window_marks(&fx.cluster));
        }
        let rt = round as u64;
        let block = pool_block(&fx.pool, round);
        let root = tr.begin("bench", "round_trip", rt);
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(BLOCK);
        for r in block {
            if tr.enabled() {
                let s = tr.begin("qdb.sql", "parse", rt);
                std::hint::black_box(parse_sql(&r.sql).ok());
                tr.end(s);
            }
            let s = tr.begin("qdb.shard", "submit", rt);
            tickets.push(self.server.submit(&r.sql).ok());
            tr.end(s);
        }
        if round == CLUSTER_LOSS_AT {
            // the loss lands with the batch admitted: queries routed to
            // device 1 must fail over during this drain
            devices[1].set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
        }
        let s = tr.begin("qdb.shard", "drain", rt);
        let d0 = Instant::now();
        let report = self.server.drain();
        let drain_s = d0.elapsed().as_secs_f64();
        tr.end(s);
        let took = t0.elapsed();
        tr.end(root);
        let out = &mut self.out;
        out.wall += took;
        let host_ms = took.as_secs_f64() * 1e3;
        for (req, t) in block.iter().zip(tickets) {
            let served = t
                .and_then(|t| report.queries.iter().find(|q| q.ticket == t))
                .filter(|q| q.completed());
            out.read(req, SIM_ROWS, served.map(|q| q.ids.clone()), host_ms);
        }
        if round < CLUSTER_WINDOW {
            self.drain_host_s += drain_s;
            add_resilience(&mut self.res, &report.resilience);
            out.sim_busy += report.makespan;
            for q in report.queries.iter().filter(|q| q.completed()) {
                out.sim_reads += 1;
                out.sim_lat_ms.push(q.latency.millis());
            }
            self.makespans.push(report.makespan.millis());
            self.slowest.push(
                report
                    .shard_reports
                    .iter()
                    .map(|r| r.makespan.millis())
                    .fold(0.0, f64::max),
            );
        }
        self.round += 1;
    }

    fn finish(self) -> Outcome {
        let ClusterLoop {
            fx,
            mut out,
            res,
            makespans,
            slowest,
            xfer0,
            window_end,
            ..
        } = self;
        let (logs_w, xfer_w) = window_end.unwrap_or_else(|| window_marks(&fx.cluster));
        out.launch_log = logs_w.iter().sum();
        let transfers = &fx.cluster.transfers()[xfer0..xfer_w];
        let drains = makespans.len() as f64;
        let reads = out.sim_reads as f64;
        let gather: Vec<f64> = makespans.iter().zip(&slowest).map(|(m, s)| m - s).collect();
        let l = &mut out.layer;
        l.insert("qdb.shard.sim_local_ms", mean(&slowest));
        l.insert("qdb.shard.sim_gather_ms", mean(&gather));
        l.insert("qdb.shard.sim_drain_growth_ms", slope(&makespans));
        l.insert("qdb.shard.failovers", res.failovers as f64);
        l.insert("qdb.shard.rebuilds", res.rebuilds as f64);
        l.insert("qdb.shard.breaker_trips", res.breaker_trips as f64);
        l.insert("qdb.server.retries", res.retries as f64);
        l.insert(
            "simt.topology.link_bytes_per_query",
            ratio(transfers.iter().map(|t| t.bytes as f64).sum(), reads),
        );
        l.insert(
            "simt.topology.link_busy_ms",
            ratio(
                transfers.iter().map(|t| t.duration().millis()).sum(),
                drains,
            ),
        );
        out.meta.push(("drain_makespan_ms", json_list(&makespans)));
        out.meta.push(("slowest_shard_ms", json_list(&slowest)));
        out.phase_metrics(&CLUSTER_NAMES);
        out
    }
}

/// Per-device launch-log lengths and the cluster's transfer count.
fn window_marks(cluster: &Cluster) -> (Vec<usize>, usize) {
    (
        cluster.devices().iter().map(Device::log_len).collect(),
        cluster.transfers_len(),
    )
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

// ------------------------------------------------------------------ sim_stack

/// The three simulated deployments of `sim_stack`, each set up on its
/// own devices.
pub struct Stack {
    serve: Serve,
    ingest: Ingest,
    cluster: Sharded,
}

pub fn stack_setup(seed: u64, tr: &mut Tracer) -> Stack {
    Stack {
        serve: serve_setup(seed, tr),
        ingest: ingest_setup(seed, tr),
        cluster: cluster_setup(seed, tr),
    }
}

/// Per-layer metrics two phases both report; they add up. Any other
/// metric has one phase that owns it.
const SUMMED: [&str; 1] = ["qdb.server.retries"];

/// Round trips of `serve_mixed` and of `cluster_failover` per
/// `ingest_views` epoch in a cycle of `sim_stack`. With four, the 48
/// reads of the epoch's six all-cached round trips stay below half of a
/// cycle's 128 reads, so the median read is a computed one.
const STACK_ROUNDS: usize = 4;

/// Interleaves the three phases in cycles of [`STACK_ROUNDS`]
/// `serve_mixed` and `cluster_failover` round trips, alternating, with
/// one `ingest_views` epoch in the middle, so that the host's speed over
/// the whole run weighs on each phase alike. Loops until every modeled
/// window has closed and `seconds` have passed.
pub fn stack_run(fx: &Stack, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut serve = ServeLoop::new(&fx.serve);
    let mut ingest = IngestLoop::new(&fx.ingest);
    let mut cluster = ClusterLoop::new(&fx.cluster);
    let mut peak_rss_mb = None;
    let start = Instant::now();
    loop {
        let open = serve.window_open() || ingest.window_open() || cluster.window_open();
        if !open {
            peak_rss_mb.get_or_insert_with(crate::stats::peak_rss_mb);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        for i in 0..STACK_ROUNDS {
            serve.step(tr);
            cluster.step(tr);
            if i == STACK_ROUNDS / 2 - 1 {
                ingest.step(tr);
            }
        }
    }
    let wall = start.elapsed();

    let mut out = Outcome::new(SIM_ROWS);
    for part in [serve.finish(), ingest.finish(), cluster.finish()] {
        out.answered.extend(part.answered);
        out.reads += part.reads;
        out.reads_completed += part.reads_completed;
        out.ops += part.ops;
        out.ops_failed += part.ops_failed;
        out.host_lat_ms.extend(part.host_lat_ms);
        out.appended_batches += part.appended_batches;
        out.launch_log += part.launch_log;
        out.meta.extend(part.meta);
        for (name, v) in part.layer {
            match out.layer.get_mut(name) {
                Some(slot) if SUMMED.contains(&name) => *slot += v,
                Some(_) => panic!("per-layer metric {name} reported by two phases"),
                None => {
                    out.layer.insert(name, v);
                }
            }
        }
    }
    out.wall = wall;
    out.peak_rss_mb = peak_rss_mb.expect("the windows closed inside the loop");
    out.layer.insert("simt.log_len", out.launch_log as f64);
    out
}

// ----------------------------------------------------------------- cpu_engine

pub struct Cpu {
    be: ExecBackend<'static>,
    table: BackendTable,
    pool: Vec<Request>,
}

pub fn cpu_setup(seed: u64, tr: &mut Tracer) -> Cpu {
    let (host, pool) = setup_span(tr, "datagen", "generate", || {
        (
            gen::table(CPU_ROWS, seed),
            gen::query_mix(seed, POOL_BLOCKS, true),
        )
    });
    let be = ExecBackend::cpu(CPU_THREADS);
    let table = setup_span(tr, "qdb.backend", "load", || BackendTable::load(&be, &host));
    Cpu { be, table, pool }
}

pub fn cpu_run(fx: &Cpu, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(CPU_ROWS);
    let (mut filter_ms, mut topk_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while keep_going(round, CPU_WINDOW, start, seconds) {
        if round == CPU_WINDOW {
            out.close_window();
        }
        let req = &fx.pool[round % fx.pool.len()];
        let rt = round as u64;
        let root = tr.begin("bench", "round_trip", rt);
        let t0 = Instant::now();
        let s = tr.begin("qdb.sql", "parse", rt);
        let parsed = parse_sql(&req.sql);
        tr.end(s);
        let s = tr.begin("qdb.backend", "execute_on", rt);
        let r = parsed
            .map_err(QdbError::from)
            .and_then(|q| execute_on(&fx.be, &fx.table, &q, Strategy::StageBitonic));
        tr.end(s);
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        if let Ok(r) = &r {
            let stage = |topk: bool| -> f64 {
                r.stages
                    .iter()
                    .filter(|(n, _)| (n == "cpu_topk") == topk)
                    .map(|(_, ms)| ms)
                    .sum()
            };
            filter_ms.push(stage(false));
            topk_ms.push(stage(true));
            overhead_ms.push(r.host_wall.as_secs_f64() * 1e3 - stage(false) - stage(true));
        }
        out.read(req, CPU_ROWS, r.ok().map(|r| r.ids), host_ms);
        round += 1;
    }
    out.finish(start);
    let l = &mut out.layer;
    l.insert("topk-cpu.filter_ms", mean(&filter_ms));
    l.insert("topk-cpu.topk_ms", mean(&topk_ms));
    l.insert("topk-cpu.overhead_ms", mean(&overhead_ms));
    out
}

/// The table the oracle answers from: the base table of `base_rows`
/// rows plus the first `appended` arrival batches of `ingest_views`, all
/// generated again from the seed.
pub fn oracle_table(seed: u64, base_rows: usize, appended: usize) -> TweetTable {
    let mut host = gen::table(base_rows, seed);
    if appended > 0 {
        for batch in &ingest_inputs(seed).batches[..appended] {
            host.extend_from(batch);
        }
    }
    host
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set-up generates the inputs; the timed loop only reads them.
    #[test]
    fn the_timed_phase_generates_nothing() {
        let mut tr = Tracer::new(false);
        let before = gen::generator_calls();
        let fx = stack_setup(5, &mut tr);
        let generated = gen::generator_calls();
        assert!(generated > before);
        let mut serve = ServeLoop::new(&fx.serve);
        let mut ingest = IngestLoop::new(&fx.ingest);
        let mut cluster = ClusterLoop::new(&fx.cluster);
        for _ in 0..2 {
            serve.step(&mut tr);
            ingest.step(&mut tr);
            cluster.step(&mut tr);
        }
        assert_eq!(gen::generator_calls(), generated);
        let epoch_reads: usize = fx.ingest.inputs.reads[..2].iter().map(Vec::len).sum();
        for (out, reads) in [
            (serve.finish(), 2 * BLOCK),
            (ingest.finish(), epoch_reads),
            (cluster.finish(), 2 * BLOCK),
        ] {
            assert_eq!(out.reads, reads);
            assert_eq!(out.reads_completed, reads);
        }
    }
}
