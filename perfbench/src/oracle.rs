//! The host oracle: a plain sort-based answer for every query shape,
//! computed from the generated table and the request's shape — no SQL
//! parser, no engine, no simulator. Ties follow the engine's contract:
//! DESC orders equal keys by ascending row id, ASC (the reversed order)
//! by descending row id.

use std::cmp::Ordering;
use std::collections::HashMap;

use datagen::twitter::TweetTable;

use crate::gen::Shape;

/// The ids of the top `k` rows of `rows` rows under `cmp` (best first).
fn top_by<K: Copy>(
    mut items: Vec<(K, u32)>,
    k: usize,
    cmp: impl Fn(&(K, u32), &(K, u32)) -> Ordering,
) -> Vec<u32> {
    let k = k.min(items.len());
    if k == 0 {
        return Vec::new();
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(&cmp);
    items.into_iter().map(|(_, id)| id).collect()
}

fn desc<K: PartialOrd>(a: &(K, u32), b: &(K, u32)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .expect("oracle keys are never NaN")
        .then(a.1.cmp(&b.1))
}

/// The answer over the first `rows` rows of `t`.
pub fn answer(t: &TweetTable, rows: usize, shape: Shape, k: usize) -> Vec<u32> {
    let rows = 0..rows.min(t.len());
    match shape {
        Shape::TimeTop { cutoff } => top_by(
            rows.filter(|&r| t.tweet_time[r] < cutoff)
                .map(|r| (t.retweet_count[r], t.id[r]))
                .collect(),
            k,
            desc,
        ),
        Shape::Top => top_by(
            rows.map(|r| (t.retweet_count[r], t.id[r])).collect(),
            k,
            desc,
        ),
        Shape::Asc => top_by(
            rows.map(|r| (t.retweet_count[r], t.id[r])).collect(),
            k,
            |a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)),
        ),
        Shape::Rank => top_by(
            rows.map(|r| {
                (
                    t.retweet_count[r] as f32 + 0.5 * t.likes_count[r] as f32,
                    t.id[r],
                )
            })
            .collect(),
            k,
            desc,
        ),
        Shape::GroupBy => {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for r in rows {
                *counts.entry(t.uid[r]).or_insert(0) += 1;
            }
            top_by(
                counts.into_iter().map(|(uid, c)| (c, uid)).collect(),
                k,
                desc,
            )
        }
    }
}

/// One result the program returned, to be checked.
#[derive(Debug, Clone)]
pub struct Answered {
    pub shape: Shape,
    pub k: usize,
    /// Table rows the program saw when it answered.
    pub rows: usize,
    pub ids: Vec<u32>,
}

/// Checks every answer against the oracle (memoized per distinct
/// question) and returns the indices of the ones that differ.
pub fn mismatches(t: &TweetTable, answered: &[Answered]) -> Vec<usize> {
    let mut memo: HashMap<(Shape, usize, usize), Vec<u32>> = HashMap::new();
    answered
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            let want = memo
                .entry((a.shape, a.k, a.rows))
                .or_insert_with(|| answer(t, a.rows, a.shape, a.k));
            *want != a.ids
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{query_mix, table};
    use qdb::{execute_on, parse_sql, BackendTable, Strategy};
    use topk::ExecBackend;

    /// The oracle agrees with the CPU engine on every shape of the mix,
    /// tie order included (retweet counts are mostly zero, so ties are
    /// everywhere).
    #[test]
    fn oracle_matches_the_cpu_engine() {
        let host = table(20_000, 11);
        let be = ExecBackend::cpu(2);
        let t = BackendTable::load(&be, &host);
        let mix = query_mix(11, 4, true);
        let answered: Vec<Answered> = mix
            .iter()
            .map(|r| Answered {
                shape: r.shape,
                k: r.k,
                rows: host.len(),
                ids: execute_on(&be, &t, &parse_sql(&r.sql).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids,
            })
            .collect();
        assert_eq!(mismatches(&host, &answered), Vec::<usize>::new());
    }

    /// A single corrupted id in an otherwise correct answer is caught.
    #[test]
    fn a_corrupted_id_is_caught() {
        let host = table(5_000, 3);
        let mut answered: Vec<Answered> = query_mix(3, 1, true)
            .iter()
            .map(|r| Answered {
                shape: r.shape,
                k: r.k,
                rows: host.len(),
                ids: answer(&host, host.len(), r.shape, r.k),
            })
            .collect();
        assert!(mismatches(&host, &answered).is_empty());
        let victim = answered.iter().position(|a| a.ids.len() > 1).unwrap();
        let ids = &mut answered[victim].ids;
        ids.swap(0, 1);
        assert_eq!(mismatches(&host, &answered), vec![victim]);
        answered[victim].ids = answer(
            &host,
            host.len(),
            answered[victim].shape,
            answered[victim].k,
        );
        let last = answered[victim].ids.len() - 1;
        answered[victim].ids[last] ^= 1;
        assert_eq!(mismatches(&host, &answered), vec![victim]);
    }

    /// The answer over a prefix only sees the prefix's rows.
    #[test]
    fn prefix_answers_ignore_later_rows() {
        let host = table(1_000, 4);
        assert!(answer(&host, 100, Shape::Top, 1000)
            .iter()
            .all(|&id| id < 100));
        assert_eq!(answer(&host, 100, Shape::Top, 1000).len(), 100);
    }
}
