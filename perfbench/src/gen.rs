//! Seeded input generation. Every SQL text, table and append batch a
//! run uses is made here, from the `--seed`, before the timed phase
//! starts; the timed loops only index into what was generated.

use std::cell::Cell;

use datagen::twitter::{TweetTable, MONTH_SECONDS};

thread_local! {
    /// Calls into this module's generators on this thread. The runner
    /// reads it before and after the timed phase and fails the run if it
    /// moved.
    static GENERATED: Cell<usize> = const { Cell::new(0) };
}

/// How many generator calls have run on this thread so far.
pub fn generator_calls() -> usize {
    GENERATED.with(Cell::get)
}

fn count_call() {
    GENERATED.with(|c| c.set(c.get() + 1));
}

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The query shapes the engine serves, with the parameters the oracle
/// needs to answer them without parsing SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Q1: `WHERE tweet_time < cutoff ORDER BY retweet_count DESC`.
    TimeTop { cutoff: u32 },
    /// `ORDER BY retweet_count DESC`, no filter.
    Top,
    /// `ORDER BY retweet_count ASC` (bottom-k), no filter.
    Asc,
    /// Q2: `ORDER BY retweet_count + 0.5 * likes_count DESC`.
    Rank,
    /// Q4: `GROUP BY uid ORDER BY COUNT(*) DESC`.
    GroupBy,
}

/// One generated request: the SQL text the program sees and the shape
/// and LIMIT the oracle answers from.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub sql: String,
    pub shape: Shape,
    pub k: usize,
}

impl Request {
    pub fn new(shape: Shape, k: usize) -> Self {
        let sql = match shape {
            Shape::TimeTop { cutoff } => format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT {k}"
            ),
            Shape::Top => format!("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT {k}"),
            Shape::Asc => format!("SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {k}"),
            Shape::Rank => format!(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {k}"
            ),
            Shape::GroupBy => format!(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT {k}"
            ),
        };
        Request { sql, shape, k }
    }
}

/// Queries per block of the mix; a block is one round trip of C = 8 on
/// the served workloads.
pub const BLOCK: usize = 8;

#[derive(Clone, Copy)]
enum Slot {
    /// Time filter at 0.1–10% selectivity: small enough to coalesce.
    Narrow,
    /// Time filter at 10–50% selectivity: too large to coalesce.
    Wide,
    Rank,
    Asc,
    GroupBy,
}

impl Slot {
    /// The request for this slot with LIMIT from `stratum` (one of eight
    /// log-spaced strata of 1..=1024) and selectivity quantile `q` in
    /// `[0, 1)`; `u` places k inside its stratum.
    fn request(self, stratum: usize, u: f64, q: f64) -> Request {
        let log2k = 10.0 * (stratum as f64 + u) / BLOCK as f64;
        let k = (log2k.exp2() as usize).clamp(1, 1024);
        let shape = match self {
            Slot::Narrow => time_top(10f64.powf(-3.0 + 2.0 * q)),
            Slot::Wide => time_top(0.1 + 0.4 * q),
            Slot::Rank => Shape::Rank,
            Slot::Asc => Shape::Asc,
            Slot::GroupBy => Shape::GroupBy,
        };
        Request::new(shape, k)
    }
}

/// The mixed query stream: blocks of eight with a fixed composition —
/// three narrow and one wide Q1, two Q2, one ASC bottom-k and one Q4
/// group-by (a fourth narrow Q1 when `group_by` is false) — in a seeded
/// order. The seed sets every LIMIT and selectivity, but the costs are
/// balanced by construction: each slot steps through eight log-spaced
/// LIMIT strata of 1..=1024 over any eight consecutive blocks, and each
/// slot's selectivities are stratified over the pool. So every block
/// costs about the same and a run's figures depend little on the seed.
pub fn query_mix(seed: u64, blocks: usize, group_by: bool) -> Vec<Request> {
    count_call();
    let mut rng = Rng::new(seed, 1);
    let slots = [
        Slot::Narrow,
        Slot::Narrow,
        Slot::Narrow,
        Slot::Wide,
        Slot::Rank,
        Slot::Rank,
        Slot::Asc,
        if group_by {
            Slot::GroupBy
        } else {
            Slot::Narrow
        },
    ];
    let rotation = rng.below(BLOCK);
    // per block, each slot's selectivity bucket: one seeded permutation
    // of 0..blocks per slot
    let mut buckets = vec![[0usize; BLOCK]; blocks];
    for j in 0..BLOCK {
        let mut perm: Vec<usize> = (0..blocks).collect();
        rng.shuffle(&mut perm);
        for (row, bucket) in buckets.iter_mut().zip(perm) {
            row[j] = bucket;
        }
    }
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for (b, bucket) in buckets.iter().enumerate() {
        let mut block: Vec<Request> = slots
            .iter()
            .zip(bucket)
            .enumerate()
            .map(|(j, (slot, &bucket))| {
                let q = (bucket as f64 + rng.unit()) / blocks as f64;
                slot.request((j + b + rotation) % BLOCK, rng.unit(), q)
            })
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// The hot set of `ingest_views`, hottest first: a fixed shape and LIMIT
/// stratum per popularity rank, so the seed moves values, not costs.
const HOT: [(Slot, usize); BLOCK] = [
    (Slot::Narrow, 3),
    (Slot::Rank, 1),
    (Slot::Asc, 5),
    (Slot::Narrow, 0),
    (Slot::GroupBy, 2),
    (Slot::Wide, 6),
    (Slot::Rank, 7),
    (Slot::Narrow, 4),
];

/// The read round trips of one `ingest_views` epoch, as hot-set ranks.
/// The first round trip after an append reads the five hottest texts,
/// the two hottest more than once, so duplicate stale queries meet in one
/// drain; the second brings the first reads of the cold tail; the rest
/// find every text cached. Over the epoch the 64 reads follow Zipf(1)
/// popularity. The seed shuffles the order inside each round trip.
const HOT_ROUNDS: [[usize; BLOCK]; 8] = [
    [0, 0, 0, 1, 1, 2, 3, 4],
    [5, 6, 7, 0, 0, 1, 2, 3],
    [0, 0, 0, 1, 1, 2, 3, 5],
    [0, 0, 0, 1, 2, 2, 4, 6],
    [0, 0, 0, 1, 1, 2, 3, 7],
    [0, 0, 0, 1, 1, 3, 4, 5],
    [0, 0, 1, 1, 2, 3, 4, 6],
    [0, 0, 0, 1, 2, 2, 5, 7],
];

fn time_top(selectivity: f64) -> Shape {
    Shape::TimeTop {
        cutoff: (MONTH_SECONDS as f64 * selectivity) as u32,
    }
}

/// The base table of a run.
pub fn table(rows: usize, seed: u64) -> TweetTable {
    count_call();
    TweetTable::generate(rows, Rng::new(seed, 2).next_u64())
}

/// Everything `ingest_views` feeds the program: arrival batches, the hot
/// SQL set and, per epoch, the reads (indices into `hot`).
#[derive(Debug, Clone)]
pub struct IngestInputs {
    pub batches: Vec<TweetTable>,
    pub hot: Vec<Request>,
    pub reads: Vec<Vec<usize>>,
}

/// `epochs` arrival batches of `batch_rows` rows whose ids continue the
/// base table's, the eight hot SQL texts and, per epoch, the reads of
/// [`HOT_ROUNDS`] in a seeded order.
pub fn ingest_inputs(
    seed: u64,
    base_rows: usize,
    epochs: usize,
    batch_rows: usize,
) -> IngestInputs {
    count_call();
    let mut rng = Rng::new(seed, 3);
    let batches = (0..epochs)
        .map(|e| {
            TweetTable::generate_at(
                batch_rows,
                rng.next_u64(),
                (base_rows + e * batch_rows) as u32,
            )
        })
        .collect();
    // the whole run reuses these eight texts, so their values stay near
    // the middle of their strata: the seed moves them, not the costs
    let mut mid = || 0.4 + 0.2 * rng.unit();
    let hot = HOT
        .iter()
        .map(|&(slot, stratum)| slot.request(stratum, mid(), mid()))
        .collect();
    let reads = (0..epochs)
        .map(|_| {
            HOT_ROUNDS
                .iter()
                .flat_map(|round| {
                    let mut r = *round;
                    rng.shuffle(&mut r);
                    r
                })
                .collect()
        })
        .collect();
    IngestInputs {
        batches,
        hot,
        reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_bytes(t: &TweetTable) -> Vec<u8> {
        let mut out = Vec::new();
        for col in [
            &t.id,
            &t.tweet_time,
            &t.retweet_count,
            &t.likes_count,
            &t.uid,
        ] {
            for v in col.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&t.lang);
        out
    }

    fn ingest_bytes(i: &IngestInputs) -> Vec<u8> {
        let mut out: Vec<u8> = i.batches.iter().flat_map(table_bytes).collect();
        for r in &i.hot {
            out.extend_from_slice(r.sql.as_bytes());
        }
        for epoch in &i.reads {
            out.extend(epoch.iter().map(|&x| x as u8));
        }
        out
    }

    fn sql_bytes(reqs: &[Request]) -> Vec<u8> {
        reqs.iter()
            .flat_map(|r| r.sql.bytes().chain([b'\n']))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            sql_bytes(&query_mix(7, 16, true)),
            sql_bytes(&query_mix(7, 16, true))
        );
        assert_eq!(
            ingest_bytes(&ingest_inputs(7, 4096, 8, 16)),
            ingest_bytes(&ingest_inputs(7, 4096, 8, 16))
        );
        assert_eq!(table_bytes(&table(4096, 7)), table_bytes(&table(4096, 7)));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        assert_ne!(
            sql_bytes(&query_mix(7, 16, true)),
            sql_bytes(&query_mix(8, 16, true))
        );
        assert_ne!(
            ingest_bytes(&ingest_inputs(7, 4096, 8, 16)),
            ingest_bytes(&ingest_inputs(8, 4096, 8, 16))
        );
        assert_ne!(table_bytes(&table(4096, 7)), table_bytes(&table(4096, 8)));
    }

    #[test]
    fn blocks_have_the_fixed_composition() {
        let mix = query_mix(3, 32, true);
        for block in mix.chunks(BLOCK) {
            let count = |f: fn(&Shape) -> bool| block.iter().filter(|r| f(&r.shape)).count();
            assert_eq!(count(|s| matches!(s, Shape::TimeTop { .. })), 4);
            assert_eq!(count(|s| *s == Shape::Rank), 2);
            assert_eq!(count(|s| *s == Shape::Asc), 1);
            assert_eq!(count(|s| *s == Shape::GroupBy), 1);
            assert!(block.iter().all(|r| (1..=1024).contains(&r.k)));
        }
        // every eight consecutive blocks give each slot every LIMIT stratum
        let mut ks: Vec<usize> = mix[..8 * BLOCK]
            .iter()
            .filter(|r| r.shape == Shape::GroupBy)
            .map(|r| (8.0 * (r.k as f64).log2() / 10.0) as usize)
            .collect();
        ks.sort_unstable();
        assert_eq!(ks, (0..8).collect::<Vec<_>>());
        assert!(query_mix(3, 32, false)
            .iter()
            .all(|r| r.shape != Shape::GroupBy));
    }

    #[test]
    fn ingest_batches_continue_the_id_sequence() {
        let i = ingest_inputs(5, 1000, 3, 10);
        assert_eq!(i.batches[0].id[0], 1000);
        assert_eq!(i.batches[2].id[9], 1029);
        assert_eq!(i.hot.len(), BLOCK);
        for epoch in &i.reads {
            assert_eq!(epoch.len(), 64);
            // the cold tail is first read in the second round trip
            for rank in 5..BLOCK {
                let first = epoch.iter().position(|&r| r == rank).unwrap();
                assert!(
                    (BLOCK..2 * BLOCK).contains(&first),
                    "rank {rank} at {first}"
                );
            }
            // popularity falls with rank
            let count = |rank| epoch.iter().filter(|&&r| r == rank).count();
            assert!((0..4).all(|r| count(r) > count(r + 1)));
        }
    }
}
