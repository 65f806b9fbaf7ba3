//! The CPU query engine: the real multi-threaded execution path behind
//! `qdb::backend::execute_on` for [`CpuBackend`](topk::CpuBackend).
//!
//! Every query shape runs as one fused scan, the host form of the
//! paper's Section 5 FusedSortReducer: filter, ranking projection and
//! top-k selection happen in the same pass and the intermediate result
//! is never materialized. Each [`par_chunks`] worker streams the
//! `(key, id)` item of every qualifying row into a [`CutBuffer`]:
//!
//! * **The bar.** Once the buffer has been cut, its k-th best item is a
//!   bar; a row enters only if it beats the bar under the full
//!   `item_lt` order, so most rows cost one compare and no write.
//! * **The cut.** A full buffer is cut back to its top k with the
//!   strategy's reducer ([`Cut`]: a full sort for `StageSort`, the
//!   Appendix C `CpuBitonic` otherwise), which raises the bar. The
//!   per-worker survivors are merged with one final cut.
//! * **Scan direction.** Rows are scanned in the order the tie-break
//!   prefers ([`ScanItem`]): ascending row ids for DESC, where the
//!   smaller id wins a key tie, and descending for the `Rev` view of
//!   ASC. An equal key met later then never passes the bar, so a
//!   tie-heavy column does not refill the buffer.
//! * **Exactness.** `item_lt` is a strict total order (row ids are
//!   unique), so the top-k list is unique: it does not depend on which
//!   rows a bar rejected, on where the cuts fell, on the thread count or
//!   on the reducer. The final cut sorts the winners by that order.
//!
//! `GROUP BY uid` counts uids in per-worker hash maps first and then
//! streams the `(count, uid)` groups through the same buffer.
//!
//! Stage names follow the staged plan this replaces: the scan stage
//! (`cpu_filter`, `cpu_project_rank` or `cpu_group_count`) includes the
//! bar checks and the buffer cuts, and `cpu_topk` is the final cut.
//!
//! The serving ladder's CPU rung runs the same [`fused_query`] over the
//! device-resident columns, single-threaded, with the heap reducer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::time::Instant;

use datagen::twitter::TweetTable;
use datagen::{Kv, RadixBits, Rev, SortKey, TopKItem};
use topk_cpu::bitonic::DEFAULT_VECTOR;
use topk_cpu::{CpuBitonic, CpuTopK};

use crate::engine::FilterOp;
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::sql::{validate, OrderBy, Query, SqlError};
use crate::table::GpuTweetTable;

/// One CPU query outcome: ranked ids plus the per-stage wall-clock
/// breakdown in milliseconds.
pub(crate) struct CpuQueryOutput {
    pub ids: Vec<u32>,
    pub stages: Vec<(String, f64)>,
}

/// Splits `0..n` into at most `threads` contiguous chunks and maps each
/// on its own scoped thread, returning per-chunk outputs in row order —
/// the scan-stage skeleton every query shape shares.
fn par_chunks<R: Send>(n: usize, threads: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let threads = threads.max(1);
    if threads == 1 || n < 4 * threads {
        return vec![f(0..n)];
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<_> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(|| f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
}

/// The reducer a [`CutBuffer`] cuts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cut {
    /// Full sort by the item order (the MapD-style baseline).
    Sort,
    /// The Appendix C bitonic port.
    Bitonic,
    /// The `topk-cpu` heap: the serving ladder's infallible rung.
    Heap,
}

impl Cut {
    /// The CPU counterpart of the simulated engine's `TopKStrategy`.
    pub(crate) fn of(strategy: Strategy) -> Cut {
        match strategy {
            Strategy::StageSort => Cut::Sort,
            _ => Cut::Bitonic,
        }
    }

    /// The top `k` of `items` (`k ≤ items.len()`) as a set; only
    /// [`Cut::Sort`] and [`Cut::Bitonic`] also return them best first.
    fn apply<T: TopKItem>(self, items: &[T], k: usize) -> Vec<T> {
        match self {
            Cut::Sort => {
                let mut v = items.to_vec();
                v.sort_unstable_by(best_first);
                v.truncate(k);
                v
            }
            Cut::Bitonic => CpuBitonic::default().partition_topk(items, k),
            Cut::Heap => topk_cpu::heap_topk(items, k),
        }
    }
}

/// The item order, best first.
fn best_first<T: TopKItem>(a: &T, b: &T) -> std::cmp::Ordering {
    if b.item_lt(a) {
        std::cmp::Ordering::Less
    } else if a.item_lt(b) {
        std::cmp::Ordering::Greater
    } else {
        std::cmp::Ordering::Equal
    }
}

/// The top-k operator for a strategy over a materialized candidate list
/// (the host delta merge of standing views), best first.
pub(crate) fn strategy_topk<T: TopKItem>(
    strategy: Strategy,
    items: &[T],
    k: usize,
    threads: usize,
) -> Vec<T> {
    let k = k.min(items.len());
    if k == 0 {
        return Vec::new();
    }
    match Cut::of(strategy) {
        Cut::Bitonic => CpuBitonic::default().topk(items, k, threads),
        cut => cut.apply(items, k),
    }
}

/// Items a [`CutBuffer`] for `k` holds before it cuts: at least two
/// `CpuBitonic` L1 vectors, so every cut takes its vectorized
/// SortReducer path, and 16 survivors' worth per winner, so re-reducing
/// the previous cut's `k` survivors is at most 1/16 of a cut's work.
fn capacity(k: usize) -> usize {
    2 * DEFAULT_VECTOR.max(8 * k.next_power_of_two())
}

/// A bounded top-k candidate buffer behind a running k-th-best bar: a
/// full buffer is cut back to its top `k`, and the worst of those
/// becomes the bar every later item must beat.
pub(crate) struct CutBuffer<T: TopKItem> {
    items: Vec<T>,
    cap: usize,
    k: usize,
    cut: Cut,
    bar: Option<T>,
}

impl<T: TopKItem> CutBuffer<T> {
    fn new(k: usize, cut: Cut) -> Self {
        CutBuffer {
            items: Vec::new(),
            cap: capacity(k),
            k,
            cut,
            bar: None,
        }
    }

    /// Offers one item; it enters only if it beats the bar.
    #[inline]
    fn push(&mut self, x: T) {
        if self.bar.is_some_and(|bar| !bar.item_lt(&x)) {
            return;
        }
        self.items.push(x);
        if self.items.len() == self.cap {
            let top = self.cut.apply(&self.items, self.k);
            self.bar = top
                .iter()
                .copied()
                .reduce(|a, b| if b.item_lt(&a) { b } else { a });
            self.items.clear();
            self.items.extend_from_slice(&top);
        }
    }

    /// The items still in the buffer: a superset of the top `k` of
    /// everything offered, in no particular order.
    fn into_survivors(self) -> Vec<T> {
        self.items
    }
}

/// The final cut: the top `k` of the merged survivors, best first.
fn final_cut<T: TopKItem>(mut survivors: Vec<T>, k: usize, cut: Cut) -> Vec<T> {
    if survivors.len() > k {
        survivors = cut.apply(&survivors, k);
    }
    survivors.sort_unstable_by(best_first);
    survivors
}

/// Items the fused scan streams rows into: the id each carries, and the
/// row order that meets each key's winning tie first.
trait ScanItem: TopKItem {
    /// Whether a key tie prefers the higher row id, so rows are scanned
    /// downwards.
    const SCAN_DOWN: bool;
    /// The row id (or uid) the item ranks.
    fn id(&self) -> u32;
}

impl<K: SortKey> ScanItem for Kv<K> {
    const SCAN_DOWN: bool = false;
    fn id(&self) -> u32 {
        self.value
    }
}

impl<T: ScanItem> ScanItem for Rev<T>
where
    T::KeyBits: RadixBits,
{
    const SCAN_DOWN: bool = !T::SCAN_DOWN;
    fn id(&self) -> u32 {
        self.0.id()
    }
}

/// Column access for the fused scan: the host table the CPU engine owns,
/// or the device-resident columns the serving ladder reads in place.
pub(crate) trait Rows {
    fn id(&self, row: usize) -> u32;
    fn retweet_count(&self, row: usize) -> u32;
    fn likes_count(&self, row: usize) -> u32;
    fn uid(&self, row: usize) -> u32;
    fn matches(&self, op: &FilterOp, row: usize) -> bool;
    /// Maps `f` over contiguous row chunks, on up to `threads` workers
    /// where the columns can be shared across threads.
    fn chunks<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(&Self, Range<usize>) -> R + Sync,
    ) -> Vec<R>;
}

impl Rows for TweetTable {
    fn id(&self, row: usize) -> u32 {
        self.id[row]
    }
    fn retweet_count(&self, row: usize) -> u32 {
        self.retweet_count[row]
    }
    fn likes_count(&self, row: usize) -> u32 {
        self.likes_count[row]
    }
    fn uid(&self, row: usize) -> u32 {
        self.uid[row]
    }
    fn matches(&self, op: &FilterOp, row: usize) -> bool {
        op.matches_row(self.tweet_time[row], self.lang[row])
    }
    fn chunks<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(&Self, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        par_chunks(self.len(), threads, |r| f(self, r))
    }
}

impl Rows for GpuTweetTable {
    fn id(&self, row: usize) -> u32 {
        self.id.get(row)
    }
    fn retweet_count(&self, row: usize) -> u32 {
        self.retweet_count.get(row)
    }
    fn likes_count(&self, row: usize) -> u32 {
        self.likes_count.get(row)
    }
    fn uid(&self, row: usize) -> u32 {
        self.uid.get(row)
    }
    fn matches(&self, op: &FilterOp, row: usize) -> bool {
        op.matches(self, row)
    }
    /// Device buffers are not shared across threads: one chunk.
    fn chunks<R: Send>(&self, _: usize, f: impl Fn(&Self, Range<usize>) -> R + Sync) -> Vec<R> {
        vec![f(self, 0..self.len())]
    }
}

/// Streams `item(row)` of every row that yields one through a per-chunk
/// [`CutBuffer`], rows in the tie-break's preferred order; returns every
/// chunk's survivors.
fn scan_rows<C: Rows, T: ScanItem>(
    t: &C,
    k: usize,
    cut: Cut,
    threads: usize,
    item: impl Fn(&C, usize) -> Option<T> + Sync,
) -> Vec<T> {
    t.chunks(threads, |t, rows| {
        let mut buf = CutBuffer::new(k, cut);
        let mut offer = |row| {
            if let Some(x) = item(t, row) {
                buf.push(x);
            }
        };
        if T::SCAN_DOWN {
            rows.rev().for_each(&mut offer);
        } else {
            rows.for_each(&mut offer);
        }
        buf.into_survivors()
    })
    .concat()
}

/// Multiplicative hashing of one `u32` key (uids need no DoS-resistant
/// hashing, and SipHash dominates the count otherwise).
#[derive(Default)]
struct UidHasher(u64);

impl Hasher for UidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type UidCounts = HashMap<u32, u32, BuildHasherDefault<UidHasher>>;

/// Counts rows per uid and streams the `(count, uid)` groups through a
/// [`CutBuffer`]; returns its survivors.
fn count_groups<C: Rows>(t: &C, k: usize, cut: Cut, threads: usize) -> Vec<Kv<u32>> {
    let counts = t
        .chunks(threads, |t, rows| {
            let mut counts = UidCounts::default();
            for row in rows {
                *counts.entry(t.uid(row)).or_insert(0) += 1;
            }
            counts
        })
        .into_iter()
        .reduce(|mut all, part| {
            for (uid, c) in part {
                *all.entry(uid).or_insert(0) += c;
            }
            all
        })
        .unwrap_or_default();
    // groups arrive in hash order; under the total (count, uid) order
    // the top-k is unique, so no candidate order can change it
    let mut buf = CutBuffer::new(k, cut);
    for (uid, c) in counts {
        buf.push(Kv::new(c, uid));
    }
    buf.into_survivors()
}

/// Times the fused scan under `stage` and the final cut under
/// `cpu_topk`; returns the winners' ids, best first.
fn select<T: ScanItem>(
    stages: &mut Vec<(String, f64)>,
    stage: &str,
    k: usize,
    cut: Cut,
    scan: impl FnOnce() -> Vec<T>,
) -> Vec<u32> {
    let t0 = Instant::now();
    let survivors = scan();
    stages.push((stage.to_string(), ms(t0)));
    let t0 = Instant::now();
    let top = final_cut(survivors, k, cut);
    stages.push(("cpu_topk".to_string(), ms(t0)));
    top.iter().map(ScanItem::id).collect()
}

/// Runs a query shape as one fused scan over `t`: the CPU engine's whole
/// plan, and the serving ladder's CPU rung.
pub(crate) fn fused_query<C: Rows>(
    t: &C,
    q: &Query,
    cut: Cut,
    threads: usize,
) -> Result<CpuQueryOutput, QdbError> {
    let k = q.limit;
    let mut stages = Vec::new();
    let ids = match (&q.order_by, q.group_by_uid) {
        (OrderBy::Count, true) => select(&mut stages, "cpu_group_count", k, cut, || {
            count_groups(t, k, cut, threads)
        }),
        (OrderBy::Rank { likes_weight }, false) => {
            let w = *likes_weight;
            select(&mut stages, "cpu_project_rank", k, cut, || {
                scan_rows(t, k, cut, threads, |t, row| {
                    let rank = t.retweet_count(row) as f32 + w * t.likes_count(row) as f32;
                    Some(Kv::new(rank, t.id(row)))
                })
            })
        }
        (OrderBy::RetweetCount, false) => {
            let op = q.filter.as_ref();
            let item = |t: &C, row| {
                op.is_none_or(|op| t.matches(op, row))
                    .then(|| Kv::new(t.retweet_count(row), t.id(row)))
            };
            if q.ascending {
                // the order-reversed view, same as the device path
                select(&mut stages, "cpu_filter", k, cut, || {
                    scan_rows(t, k, cut, threads, |t, row| item(t, row).map(Rev))
                })
            } else {
                select(&mut stages, "cpu_filter", k, cut, || {
                    scan_rows(t, k, cut, threads, item)
                })
            }
        }
        _ => return Err(SqlError::Unsupported("this SELECT/GROUP BY combination").into()),
    };
    Ok(CpuQueryOutput { ids, stages })
}

/// Executes a query against a host-resident table with real
/// `threads`-way parallelism. Mirrors the simulated engine's supported
/// shapes exactly, including its typed rejections ([`validate`]); an
/// empty table is rejected too.
pub(crate) fn execute_cpu(
    t: &TweetTable,
    q: &Query,
    strategy: Strategy,
    threads: usize,
) -> Result<CpuQueryOutput, QdbError> {
    validate(q, None)?;
    if t.is_empty() {
        return Err(QdbError::EmptyTable);
    }
    fused_query(t, q, Cut::of(strategy), threads)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;

    #[test]
    fn parallel_scan_matches_single_threaded() {
        let t = TweetTable::generate(30_000, 55);
        let sqls = [
            "SELECT id FROM tweets WHERE tweet_time < 1500000 ORDER BY retweet_count DESC LIMIT 40".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 25".into(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count ASC LIMIT 15".into(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap();
            let single = execute_cpu(&t, &q, Strategy::StageBitonic, 1).unwrap();
            let multi = execute_cpu(&t, &q, Strategy::StageBitonic, 8).unwrap();
            assert_eq!(single.ids, multi.ids, "{sql}");
            assert!(!multi.stages.is_empty());
        }
    }

    #[test]
    fn mirrors_simulated_engine_rejections() {
        let t = TweetTable::generate(100, 1);
        let q =
            parse("SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5")
                .unwrap();
        assert!(matches!(
            execute_cpu(&t, &q, Strategy::StageBitonic, 2),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
    }

    /// Sort-and-truncate under the item order: the buffer's oracle.
    fn oracle<T: TopKItem>(items: &[T], k: usize) -> Vec<T> {
        let mut v = items.to_vec();
        v.sort_unstable_by(best_first);
        v.truncate(k);
        v
    }

    /// Streams `items` through one buffer in order and returns the final
    /// cut.
    fn through_buffer<T: TopKItem>(items: &[T], k: usize, cut: Cut) -> Vec<T> {
        let mut buf = CutBuffer::new(k, cut);
        items.iter().for_each(|&x| buf.push(x));
        // a bar exactly when the buffer filled at least once
        assert_eq!(buf.bar.is_some(), items.len() >= buf.cap);
        final_cut(buf.into_survivors(), k, cut)
    }

    #[test]
    fn cut_buffer_equals_sort_and_truncate() {
        let cap = capacity(1);
        // k around the buffer's first two capacity steps, with at least
        // three cuts each, and k above the input size
        let cases = [1, cap / 16, cap / 16 + 1, cap / 4, cap / 4 + 1]
            .map(|k| (k, 3 * capacity(k) + 17))
            .into_iter()
            .chain([(cap + 1, cap)]);
        for (k, n) in cases {
            // tie-heavy keys, strictly increasing keys and strictly
            // decreasing keys; ids are the row numbers
            let keys: [(&str, &dyn Fn(usize) -> u32); 3] = [
                ("ties", &|row| (row % 7) as u32),
                ("increasing", &|row| row as u32),
                ("decreasing", &|row| (n - row) as u32),
            ];
            for (name, key) in keys {
                let rows: Vec<Kv<u32>> = (0..n).map(|row| Kv::new(key(row), row as u32)).collect();
                // both scan directions: rows upwards and downwards
                for upwards in [true, false] {
                    let mut kv = rows.clone();
                    if !upwards {
                        kv.reverse();
                    }
                    let rev: Vec<Rev<Kv<u32>>> = kv.iter().copied().map(Rev).collect();
                    for cut in [Cut::Sort, Cut::Bitonic, Cut::Heap] {
                        let what = format!("{name} k={k} n={n} {cut:?} upwards={upwards}");
                        assert_eq!(through_buffer(&kv, k, cut), oracle(&kv, k), "Kv {what}");
                        assert_eq!(through_buffer(&rev, k, cut), oracle(&rev, k), "Rev {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_bar_rejects_later_ties_in_the_preferred_direction() {
        // an all-equal key: scanning in the tie-break's order, nothing
        // after the first cut can pass the bar
        let k = 8;
        let mut buf = CutBuffer::new(k, Cut::Bitonic);
        let cap = buf.cap;
        for row in 0..4 * cap {
            buf.push(Kv::new(0u32, row as u32));
        }
        let survivors = buf.into_survivors();
        assert_eq!(survivors.len(), k);
        let mut ids: Vec<u32> = survivors.iter().map(|kv| kv.value).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..k as u32).collect::<Vec<_>>());
    }
}
