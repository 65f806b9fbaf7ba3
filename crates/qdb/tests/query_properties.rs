//! Property-based end-to-end tests of the query engine: for random
//! tables, selectivities, and limits, every execution strategy must agree
//! with a naive host-side SQL evaluation.

use datagen::twitter::TweetTable;
use proptest::prelude::*;
use qdb::{
    execute_on, execute_sharded, parse_sql,
    queries::{filtered_topk, group_topk, ranked_topk},
    BackendTable, FilterOp, GpuTweetTable, PartitionPolicy, ReplicationFactor, ServerConfig,
    ShardedServer, ShardedTable, Strategy, SubmitOptions, TopKStrategy, TopKView, ViewConfig,
};
use simt::topology::{Cluster, ClusterSpec};
use simt::Device;
use topk::ExecBackend;

/// One SQL text per query shape the single-device, sharded and view
/// paths all serve: time filter, language filter, DESC, ASC and rank.
fn shape_sql(shape: usize, host: &TweetTable, k: usize) -> String {
    let order = "ORDER BY retweet_count";
    match shape {
        0 => format!(
            "SELECT id FROM tweets WHERE tweet_time < {} {order} DESC LIMIT {k}",
            host.time_cutoff_for_selectivity(0.6)
        ),
        1 => {
            format!("SELECT id FROM tweets WHERE lang = 'en' OR lang = 'ja' {order} DESC LIMIT {k}")
        }
        2 => format!("SELECT id FROM tweets {order} DESC LIMIT {k}"),
        3 => format!("SELECT id FROM tweets {order} ASC LIMIT {k}"),
        _ => format!("SELECT id FROM tweets {order} + 0.5 * likes_count DESC LIMIT {k}"),
    }
}

/// Naive host evaluation of Q1/Q3: filter, order by retweet_count desc,
/// limit k — returns the winning retweet counts (ids may tie-permute).
fn host_q1(host: &TweetTable, pred: impl Fn(usize) -> bool, k: usize) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..host.len())
        .filter(|&r| pred(r))
        .map(|r| host.retweet_count[r])
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.truncate(k);
    keys
}

/// The ids of the best `k` `(key, id)` pairs, best first: larger keys
/// first, key ties to the smaller id — or, for `ascending`, smaller keys
/// first and ties to the larger id (the reversed order of the `Rev` view).
fn oracle_ids(mut items: Vec<(f64, u32)>, k: usize, ascending: bool) -> Vec<u32> {
    items.sort_unstable_by(|a, b| {
        let by_key = b.0.partial_cmp(&a.0).expect("no NaN keys");
        let ordered = by_key.then(a.1.cmp(&b.1));
        if ascending {
            ordered.reverse()
        } else {
            ordered
        }
    });
    items.into_iter().take(k).map(|(_, id)| id).collect()
}

/// One SQL text per CPU engine shape — a time filter, a language filter,
/// DESC, ASC, rank, group-by and a filter no row passes — with its
/// host oracle answer.
fn engine_case(shape: usize, host: &TweetTable, k: usize) -> (String, Vec<u32>) {
    let rows = 0..host.len();
    let keyed = |r: usize| (f64::from(host.retweet_count[r]), host.id[r]);
    match shape {
        0..=3 => {
            let sql = shape_sql(shape, host, k);
            let q = parse_sql(&sql).unwrap();
            let items = rows
                .filter(|&r| {
                    q.filter
                        .as_ref()
                        .is_none_or(|op| op.matches_row(host.tweet_time[r], host.lang[r]))
                })
                .map(keyed)
                .collect();
            (sql, oracle_ids(items, k, q.ascending))
        }
        4 => {
            let rank = |r: usize| host.retweet_count[r] as f32 + 0.5 * host.likes_count[r] as f32;
            let items = rows.map(|r| (f64::from(rank(r)), host.id[r])).collect();
            (shape_sql(4, host, k), oracle_ids(items, k, false))
        }
        5 => {
            let mut counts = std::collections::HashMap::new();
            for &u in &host.uid {
                *counts.entry(u).or_insert(0u32) += 1;
            }
            let items = counts.into_iter().map(|(u, c)| (f64::from(c), u)).collect();
            let sql = format!(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT {k}"
            );
            (sql, oracle_ids(items, k, false))
        }
        _ => {
            let sql = format!(
                "SELECT id FROM tweets WHERE tweet_time < 0 ORDER BY retweet_count DESC LIMIT {k}"
            );
            (sql, Vec::new())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CPU engine's fused scan returns the oracle's ids in order for
    /// every strategy and thread count, on the generated table and on
    /// key columns built to stress the running bar: only ties, keys
    /// strictly increasing in row order (every row beats the bar) and
    /// strictly decreasing.
    #[test]
    fn cpu_engine_returns_the_oracle_ids_in_order(
        seed in any::<u64>(),
        n in 5_000usize..20_000,
        k_pick in 0usize..4,
    ) {
        let generated = TweetTable::generate(n, seed);
        let with_keys = |key: &dyn Fn(usize) -> u32| {
            let mut t = generated.clone();
            for r in 0..n {
                t.retweet_count[r] = key(r);
                t.likes_count[r] = key(r);
            }
            t
        };
        let inputs = [
            ("generated", generated.clone()),
            ("ties", with_keys(&|_| 7)),
            ("increasing", with_keys(&|r| r as u32)),
            ("decreasing", with_keys(&|r| (n - r) as u32)),
        ];
        let k = [1, 32, 300, 1025][k_pick];
        for (name, host) in &inputs {
            for threads in [1, 3] {
                let be = ExecBackend::cpu(threads);
                let table = BackendTable::load(&be, host);
                for shape in 0..7 {
                    let (sql, oracle) = engine_case(shape, host, k);
                    let q = parse_sql(&sql).unwrap();
                    for strat in Strategy::all() {
                        let got = execute_on(&be, &table, &q, strat).unwrap();
                        prop_assert_eq!(
                            &got.ids, &oracle,
                            "{} t={} {}: {}", name, threads, strat.name(), sql
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn q1_agrees_for_random_selectivity_and_k(
        seed in any::<u64>(),
        sel in 0.0f64..1.0,
        k in 1usize..200,
    ) {
        let host = TweetTable::generate(20_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(sel);
        let expect = host_q1(&host, |r| host.tweet_time[r] < cutoff, k);
        for strat in Strategy::all() {
            let r = filtered_topk(&dev, &table, &FilterOp::TimeLess(cutoff), k, strat).unwrap();
            let keys: Vec<u32> = r.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            prop_assert_eq!(&keys, &expect, "{} sel={} k={}", strat.name(), sel, k);
            for &id in &r.ids {
                prop_assert!(host.tweet_time[id as usize] < cutoff);
            }
        }
    }

    #[test]
    fn q2_agrees_for_random_k(seed in any::<u64>(), k in 1usize..100) {
        let host = TweetTable::generate(10_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let rank = |r: usize| host.retweet_count[r] as f32 + 0.5 * host.likes_count[r] as f32;
        let mut expect: Vec<f32> = (0..host.len()).map(rank).collect();
        expect.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(k);
        for strat in Strategy::all() {
            let r = ranked_topk(&dev, &table, k, strat).unwrap();
            let keys: Vec<f32> = r.ids.iter().map(|&id| rank(id as usize)).collect();
            prop_assert_eq!(&keys, &expect, "{}", strat.name());
        }
    }

    #[test]
    fn q4_group_counts_agree(seed in any::<u64>(), k in 1usize..50) {
        let host = TweetTable::generate(15_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let mut counts = std::collections::HashMap::new();
        for &u in &host.uid {
            *counts.entry(u).or_insert(0u32) += 1;
        }
        let mut expect: Vec<u32> = counts.values().copied().collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k.min(expect.len()));
        for strat in [TopKStrategy::Sort, TopKStrategy::Bitonic] {
            let r = group_topk(&dev, &table, k, strat).unwrap();
            let got: Vec<u32> = r.ids.iter().map(|uid| counts[uid]).collect();
            prop_assert_eq!(&got, &expect, "{:?}", strat);
        }
    }

    /// The serving layer's batch coalescing must never change results:
    /// for random small-query workloads, a coalesced drain and a
    /// coalescing-disabled drain return identical key sequences, which
    /// also match the naive host evaluation.
    #[test]
    fn coalesced_drain_agrees_with_per_query(
        seed in any::<u64>(),
        sels in prop::collection::vec(0.01f64..0.2, 2..10),
        ks in prop::collection::vec(1usize..40, 2..10),
    ) {
        let host = TweetTable::generate(12_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let sqls: Vec<String> = sels
            .iter()
            .zip(ks.iter().cycle())
            .map(|(&sel, &k)| {
                let cutoff = host.time_cutoff_for_selectivity(sel);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {k}"
                )
            })
            .collect();
        let run = |coalesce: bool| {
            let cfg = qdb::ServerConfig { coalesce, ..qdb::ServerConfig::default() };
            let mut server = qdb::Server::new(&dev, &table, cfg);
            for sql in &sqls {
                server.submit(sql, SubmitOptions::default()).unwrap();
            }
            server.drain()
        };
        let on = run(true);
        let off = run(false);
        for ((sql, a), b) in sqls.iter().zip(&on.queries).zip(&off.queries) {
            let ak: Vec<u32> = a.result.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            let bk: Vec<u32> = b.result.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            prop_assert_eq!(&ak, &bk, "{}", sql);
            let q = qdb::parse_sql(sql).unwrap();
            let cutoff = match q.filter {
                Some(FilterOp::TimeLess(c)) => c,
                _ => unreachable!(),
            };
            let expect = host_q1(&host, |r| host.tweet_time[r] < cutoff, q.limit);
            prop_assert_eq!(&ak, &expect, "{}", sql);
        }
    }

    /// Fusion must never change results, only traffic.
    #[test]
    fn fused_and_staged_always_agree(seed in any::<u64>(), langs in prop::collection::btree_set(0u8..6, 1..4)) {
        let host = TweetTable::generate(8_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let op = FilterOp::LangIn(langs.into_iter().collect());
        let staged = filtered_topk(&dev, &table, &op, 25, Strategy::StageBitonic).unwrap();
        let fused = filtered_topk(&dev, &table, &op, 25, Strategy::CombinedBitonic).unwrap();
        let sk: Vec<u32> = staged.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
        let fk: Vec<u32> = fused.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
        prop_assert_eq!(sk, fk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every query path answers the same SQL with the same ids in the
    /// same order: one device's `Server`, the sharded server, a direct
    /// sharded execution, and a standing view brought current after an
    /// append on one device, on the CPU engine and across shards. Tables
    /// are small so that LIMIT often exceeds a shard's row count, and
    /// every shard-local sub-query has to clamp it.
    #[test]
    fn every_query_path_returns_the_same_ids(
        seed in any::<u64>(),
        n in 12usize..48,
        shape in 0usize..5,
        policy_idx in 0usize..3,
        r in 1usize..3,
        limit_pick in 0usize..3,
        append in 1usize..7,
    ) {
        let policy = PartitionPolicy::all()[policy_idx];
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let mut host = TweetTable::generate(n, seed);
        let batch = TweetTable::generate_at(append, seed ^ 0x5eed, n as u32);
        let cap = n + append;
        let sharded = ShardedTable::partition_replicated_with_capacity(
            &cluster,
            &host,
            policy,
            ReplicationFactor(r),
            cap,
        )
        .unwrap();
        let smallest_shard = sharded.shard_rows().into_iter().min().unwrap();
        let k = match limit_pick {
            0 => 1,
            1 => (smallest_shard + 1).min(n),
            _ => n,
        };
        let sql = shape_sql(shape, &host, k);

        // standing views built before the append, refreshed after it
        let view = || TopKView::register(&sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, cap);
        let cpu_be = ExecBackend::cpu(2);
        let cpu = BackendTable::load_with_capacity(&cpu_be, &host, cap);
        let (dev_view, cpu_view, sharded_view) = (view(), view(), view());
        dev_view.refresh(&dev, &gpu).unwrap();
        cpu_view.refresh_on(&cpu_be, &cpu).unwrap();
        sharded_view.refresh_sharded(&cluster, &sharded, 2).unwrap();

        gpu.append_batch(&dev, &batch).unwrap();
        cpu.append_batch(&cpu_be, &batch).unwrap();
        sharded.append_batch(&cluster, &batch).unwrap();
        host.extend_from(&batch);

        let oracle = {
            let dev = Device::titan_x();
            let table = GpuTweetTable::upload(&dev, &host);
            qdb::execute_sql(&dev, &table, &parse_sql(&sql).unwrap(), Strategy::StageBitonic)
                .unwrap()
                .ids
        };

        let mut server = qdb::Server::new(&dev, &gpu, ServerConfig::default());
        let t = server.submit(&sql, SubmitOptions::default()).unwrap();
        let served = server.drain();
        prop_assert_eq!(&served.queries[t.0].result.ids, &oracle, "Server: {}", sql);

        let mut sharded_server = ShardedServer::new(&cluster, &sharded, ServerConfig::default());
        let t = sharded_server.submit(&sql).unwrap();
        let report = sharded_server.drain();
        prop_assert_eq!(&report.queries[t.0].ids, &oracle, "ShardedServer: {}", sql);

        let direct = execute_sharded(
            &cluster,
            &sharded,
            &parse_sql(&sql).unwrap(),
            Strategy::StageBitonic,
            2,
        )
        .unwrap();
        prop_assert_eq!(&direct.ids, &oracle, "execute_sharded: {}", sql);

        let refreshed = dev_view.refresh(&dev, &gpu).unwrap();
        prop_assert_eq!(&refreshed.ids, &oracle, "refresh ({:?}): {}", refreshed.mode, sql);
        let refreshed = cpu_view.refresh_on(&cpu_be, &cpu).unwrap();
        prop_assert_eq!(&refreshed.ids, &oracle, "refresh_on cpu ({:?}): {}", refreshed.mode, sql);
        let refreshed = sharded_view.refresh_sharded(&cluster, &sharded, 2).unwrap();
        prop_assert_eq!(&refreshed.ids, &oracle, "refresh_sharded ({:?}): {}", refreshed.mode, sql);
    }
}
