//! Sharded top-k: scatter-gather query execution over a simulated
//! multi-GPU node (see [`simt::topology`]).
//!
//! The structure is the delegate-centric one: partition the rows across
//! devices ([`PartitionPolicy`]), run the per-shard top-k *locally* on
//! each device, ship only each shard's k delegate candidates over the
//! interconnect, and merge the delegate runs on device 0 with the
//! existing bitonic reduction ([`topk::bitonic::bitonic_topk_from_runs`]).
//! Because every comparison in the bitonic path breaks key ties by row id
//! (see [`datagen::Kv`]), the merged result is **bit-identical** to the
//! single-device result — the global top-k is always a subset of the
//! union of per-shard top-k sets, and both sides rank it by the same
//! total order.
//!
//! Three layers:
//!
//! * [`sharded_topk`] — the raw primitive over pre-partitioned items;
//! * [`execute_sharded`] — parsed queries against a [`ShardedTable`];
//! * [`ShardedServer`] — serving: one [`Server`] per (shard, replica),
//!   each with its own admission queue and degradation ladder, with
//!   drain-time gather and merge. SQL is parsed once, at
//!   [`ShardedServer::submit`]; each shard's server admits the parsed
//!   query itself, LIMIT clamped to the shard's rows.
//!
//! The query path, the server and sharded view refreshes
//! ([`crate::stream`]) share one shard executor (`run_shard`: one copy,
//! bounded transient retries) and one delegate gather (`gather`: typed
//! delegates through the one ORDER BY dispatch `merge_by_key`, shipped
//! and merged by `ship_and_merge`).
//!
//! Failures are never silently truncated: a shard whose local pass or
//! delegate transfer is defeated (after bounded retries) fails the whole
//! query with a typed [`QdbError`].
//!
//! Permanent loss is survived by replication ([`ReplicationFactor`]):
//! each partition is placed on `r` devices (ring placement, replica
//! loads charged on the interconnect), every read path serves from the
//! first *healthy* replica, and the serving layer adds a per-device
//! circuit breaker ([`BreakerState`]), query-time failover and online
//! shard rebuild from the pristine host copy — see DESIGN.md §4.5.
//! Because the merged result is a pure function of the delegate sets,
//! which replica serves never changes a single bit of the answer.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;

use datagen::twitter::TweetTable;
use datagen::{Kv, Rev, TopKItem};
use simt::topology::Cluster;
use simt::{Device, GpuBuffer, SimTime};
use sortnet::next_pow2;
use topk::bitonic::{bitonic_topk, bitonic_topk_from_runs, BitonicConfig};
use topk::delegate::{delegate_select_topk, DelegateConfig};

use crate::error::QdbError;
use crate::queries::Strategy;
use crate::server::{
    DegradeLevel, LoadReport, QueryTicket, ResilienceStats, ResultCache, Server, ServerConfig,
    SubmitOptions,
};
use crate::sql::{execute, parse, validate, OrderBy, Query, SqlError};
use crate::table::{GpuTweetTable, ROW_BYTES};

/// How rows are distributed across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Contiguous row ranges, one per device (shard i gets rows
    /// `[i·n/d, (i+1)·n/d)`).
    Range,
    /// Multiplicative hash of the row id — decorrelates the shard from
    /// any ordering in the data.
    Hash,
    /// Row `i` goes to shard `i mod d`.
    RoundRobin,
}

impl PartitionPolicy {
    /// Stable name for experiment tables and EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::Range => "range",
            PartitionPolicy::Hash => "hash",
            PartitionPolicy::RoundRobin => "round-robin",
        }
    }

    /// All policies, in display order.
    pub fn all() -> [PartitionPolicy; 3] {
        [
            PartitionPolicy::Range,
            PartitionPolicy::Hash,
            PartitionPolicy::RoundRobin,
        ]
    }

    /// Shard index for row `row` of `n` under `shards` shards.
    pub fn assign(&self, row: usize, n: usize, shards: usize) -> usize {
        match self {
            PartitionPolicy::Range => (row * shards) / n.max(1),
            PartitionPolicy::Hash => {
                (((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
            }
            PartitionPolicy::RoundRobin => row % shards,
        }
    }
}

/// Splits row indices `0..n` into per-shard lists (row order preserved
/// within each shard, so shard-local id columns stay sorted).
pub fn partition_indices(n: usize, shards: usize, policy: PartitionPolicy) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::with_capacity(n / shards.max(1) + 1); shards];
    for row in 0..n {
        parts[policy.assign(row, n, shards)].push(row);
    }
    parts
}

/// How many devices hold a copy of each partition.
///
/// `r = 1` is the unreplicated behavior (and the default); `r >= 2`
/// survives permanent device loss — reads fail over to any healthy
/// replica, and the answer stays bit-identical regardless of which copy
/// serves. Values above the device count are clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationFactor(pub usize);

impl ReplicationFactor {
    /// The unreplicated default.
    pub const ONE: ReplicationFactor = ReplicationFactor(1);

    /// The factor actually used on a `devices`-wide cluster.
    pub fn effective(self, devices: usize) -> usize {
        self.0.clamp(1, devices.max(1))
    }
}

impl Default for ReplicationFactor {
    fn default() -> Self {
        ReplicationFactor::ONE
    }
}

/// One device-resident copy of a shard.
pub struct Replica {
    /// Cluster index of the device holding this copy.
    pub device: usize,
    /// The copy itself.
    pub gpu: GpuTweetTable,
}

/// One shard: the host-side sub-table (global row ids preserved) and its
/// device-resident replicas (the first is the primary).
pub struct Shard {
    /// Host columns of this shard's rows; `host.id` holds *global* row
    /// ids, strictly increasing. Device loss never touches this copy
    /// (appends extend it, but only with rows every replica also
    /// receives), which is what makes online rebuild possible.
    host: RefCell<TweetTable>,
    /// Rows this shard's device columns were allocated for.
    cap_rows: usize,
    replicas: Vec<Replica>,
}

impl Shard {
    /// The shard's host-side rows (shared-borrow: appends extend the
    /// same columns through a `&ShardedTable`).
    pub fn host(&self) -> Ref<'_, TweetTable> {
        self.host.borrow()
    }

    /// Rows this shard's device columns can hold (append headroom is
    /// `capacity() - host().len()`).
    pub fn capacity(&self) -> usize {
        self.cap_rows
    }

    /// The device the shard's primary copy lives on.
    pub fn primary_device(&self) -> usize {
        self.replicas[0].device
    }

    /// The primary device-resident copy.
    pub fn primary_gpu(&self) -> &GpuTweetTable {
        &self.replicas[0].gpu
    }

    /// All device-resident copies, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

/// The outcome of one sharded append: what landed where, what the
/// replica fan-out cost on the interconnect, and the table epoch after
/// the splice (the sharded twin of [`AppendReceipt`]).
///
/// [`AppendReceipt`]: crate::table::AppendReceipt
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedAppendReceipt {
    /// Rows appended (across all shards).
    pub rows: usize,
    /// Payload bytes charged on the interconnect, summed over every
    /// live replica splice.
    pub bytes: usize,
    /// When the last replica splice landed.
    pub transfer_done: SimTime,
    /// The table epoch after this append.
    pub epoch: u64,
    /// Transfer retries consumed against fault plans.
    pub transfer_retries: usize,
    /// Replica copies skipped because their device is permanently down
    /// (rebuild restores them from the extended host columns).
    pub skipped_replicas: usize,
}

/// A tweet table partitioned across a cluster's devices.
pub struct ShardedTable {
    policy: PartitionPolicy,
    replication: usize,
    epoch: Cell<u64>,
    shards: Vec<Shard>,
}

impl ShardedTable {
    /// Partitions `host` across the cluster's devices under `policy`,
    /// uploading each shard to its device and charging the host→device
    /// load transfers on the interconnect. Unreplicated — identical to
    /// [`ShardedTable::partition_replicated`] with
    /// [`ReplicationFactor::ONE`].
    pub fn partition(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
    ) -> Result<Self, QdbError> {
        Self::partition_replicated(cluster, host, policy, ReplicationFactor::ONE)
    }

    /// Partitions `host` across the cluster's devices under `policy`,
    /// placing each partition on `r` devices.
    ///
    /// Shard `i`'s primary lands on device `i` and is charged the real
    /// host→device load transfer; replica `j` lands on device
    /// `(i + j) mod d` (ring placement: load stays even and no two
    /// copies of a shard share a device) and is charged a device→device
    /// copy from the primary — over the peer link when the cluster has
    /// one, staged through host otherwise, so replication cost follows
    /// the topology.
    pub fn partition_replicated(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
        r: ReplicationFactor,
    ) -> Result<Self, QdbError> {
        Self::partition_replicated_with_capacity(cluster, host, policy, r, host.len())
    }

    /// Like [`ShardedTable::partition_replicated`], but allocates every
    /// shard's device columns with enough headroom that the table as a
    /// whole can grow to `cap_total` rows via
    /// [`ShardedTable::append_batch`]. The headroom is provisioned *per
    /// shard* (a skewed policy may route an entire arrival batch to one
    /// shard), so each shard's capacity is its initial rows plus the
    /// full table-level headroom. Kernels scan only the logical prefix,
    /// so the no-headroom path (`cap_total == host.len()`) is
    /// bit-identical to the frozen-table loader.
    pub fn partition_replicated_with_capacity(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
        r: ReplicationFactor,
        cap_total: usize,
    ) -> Result<Self, QdbError> {
        let d = cluster.num_devices();
        let r = r.effective(d);
        let headroom = cap_total.saturating_sub(host.len());
        let parts = partition_indices(host.len(), d, policy);
        let mut shards = Vec::with_capacity(d);
        for (i, rows) in parts.iter().enumerate() {
            let sub = TweetTable {
                id: rows.iter().map(|&r| host.id[r]).collect(),
                tweet_time: rows.iter().map(|&r| host.tweet_time[r]).collect(),
                retweet_count: rows.iter().map(|&r| host.retweet_count[r]).collect(),
                likes_count: rows.iter().map(|&r| host.likes_count[r]).collect(),
                lang: rows.iter().map(|&r| host.lang[r]).collect(),
                uid: rows.iter().map(|&r| host.uid[r]).collect(),
            };
            let cap_rows = sub.len() + headroom;
            let bytes = rows.len() * ROW_BYTES;
            let dev = cluster.device(i);
            let gpu = GpuTweetTable::upload_with_capacity(dev, &sub, cap_rows);
            let label = format!("load:shard{i}");
            retry_transfer(
                cluster,
                usize::MAX,
                i,
                bytes,
                &label,
                SimTime::ZERO,
                3,
                &mut 0,
            )?;
            let mut replicas = Vec::with_capacity(r);
            replicas.push(Replica { device: i, gpu });
            for j in 1..r {
                let target = (i + j) % d;
                let gpu =
                    GpuTweetTable::upload_with_capacity(cluster.device(target), &sub, cap_rows);
                let label = format!("replicate:shard{i}->dev{target}");
                retry_transfer(cluster, i, target, bytes, &label, SimTime::ZERO, 3, &mut 0)?;
                replicas.push(Replica {
                    device: target,
                    gpu,
                });
            }
            shards.push(Shard {
                host: RefCell::new(sub),
                cap_rows,
                replicas,
            });
        }
        Ok(ShardedTable {
            policy,
            replication: r,
            epoch: Cell::new(0),
            shards,
        })
    }

    /// Routes an arrival batch through the table's partition policy and
    /// splices each sub-batch into its shard — host columns first (the
    /// pristine copy rebuilds draw from), then every *live* replica's
    /// device columns, each charged as a real host→device transfer on
    /// the interconnect. A replica on a permanently down device is
    /// skipped and counted in the receipt: the data is safe on the host
    /// and on the surviving replicas, and the next drain's rebuild
    /// re-materializes full replication from the (now extended) host
    /// columns.
    ///
    /// Batch ids must continue the table's global row numbering
    /// (`len()..len() + batch.len()`, see
    /// [`datagen::twitter::TweetTable::generate_at`]) — the delegate
    /// gather path resolves global ids by binary search over each
    /// shard's strictly increasing id column, so a gap or permutation
    /// would corrupt results. Violations are a typed
    /// [`QdbError::Internal`]. Capacity is checked on every shard before
    /// anything splices, so a [`QdbError::CapacityExceeded`] append
    /// changes nothing.
    pub fn append_batch(
        &self,
        cluster: &Cluster,
        batch: &TweetTable,
    ) -> Result<ShardedAppendReceipt, QdbError> {
        let old_total = self.len();
        let new_total = old_total + batch.len();
        for (j, &id) in batch.id.iter().enumerate() {
            if id as usize != old_total + j {
                return Err(QdbError::Internal {
                    what: format!(
                        "append batch id {id} at offset {j} breaks the global row \
                         numbering (expected {})",
                        old_total + j
                    ),
                });
            }
        }
        let d = self.shards.len();
        // route rows, then capacity-check every shard before any splice
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); d];
        for (j, &id) in batch.id.iter().enumerate() {
            routed[self.policy.assign(id as usize, new_total, d)].push(j);
        }
        for (i, rows) in routed.iter().enumerate() {
            let shard = &self.shards[i];
            let needed = shard.host().len() + rows.len();
            if needed > shard.cap_rows {
                return Err(QdbError::CapacityExceeded {
                    needed,
                    cap: shard.cap_rows,
                });
            }
        }
        let epoch = self.epoch.get() + 1;
        let mut transfer_done = SimTime::ZERO;
        let mut bytes_total = 0usize;
        let mut retries = 0usize;
        let mut skipped_replicas = 0usize;
        for (i, rows) in routed.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let sub = TweetTable {
                id: rows.iter().map(|&r| batch.id[r]).collect(),
                tweet_time: rows.iter().map(|&r| batch.tweet_time[r]).collect(),
                retweet_count: rows.iter().map(|&r| batch.retweet_count[r]).collect(),
                likes_count: rows.iter().map(|&r| batch.likes_count[r]).collect(),
                lang: rows.iter().map(|&r| batch.lang[r]).collect(),
                uid: rows.iter().map(|&r| batch.uid[r]).collect(),
            };
            let bytes = sub.len() * ROW_BYTES;
            let shard = &self.shards[i];
            shard.host.borrow_mut().extend_from(&sub);
            for rep in &shard.replicas {
                if cluster.device(rep.device).is_down() {
                    skipped_replicas += 1;
                    continue;
                }
                // capacity was pre-checked against the same per-shard
                // allocation every replica shares, so this cannot fail
                rep.gpu.splice_rows(&sub)?;
                let label = format!("append:shard{i}->dev{}:epoch{epoch}", rep.device);
                let t = retry_transfer(
                    cluster,
                    usize::MAX,
                    rep.device,
                    bytes,
                    &label,
                    SimTime::ZERO,
                    3,
                    &mut retries,
                )?;
                bytes_total += bytes;
                if t.end.0 > transfer_done.0 {
                    transfer_done = t.end;
                }
            }
        }
        self.epoch.set(epoch);
        Ok(ShardedAppendReceipt {
            rows: batch.len(),
            bytes: bytes_total,
            transfer_done,
            epoch,
            transfer_retries: retries,
            skipped_replicas,
        })
    }

    /// Monotonic data epoch: 0 at partition time, +1 per completed
    /// append. Serving layers key their caches and rebuilt copies on it.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// The partition policy the table was built with.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// The replication factor the table was built with (clamped to the
    /// device count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of shards (== cluster devices).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard by device index.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Rows per shard, in device order.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.host().len()).collect()
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.host().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Issues one delegate (or load) transfer, ready at `ready`, with
/// bounded retries against fault-plan drops. `src == usize::MAX` means
/// host → device `dst`.
#[allow(clippy::too_many_arguments)]
fn retry_transfer(
    cluster: &Cluster,
    src: usize,
    dst: usize,
    bytes: usize,
    label: &str,
    ready: SimTime,
    max_retries: usize,
    retries: &mut usize,
) -> Result<simt::topology::Transfer, QdbError> {
    let mut attempt = 0usize;
    loop {
        let r = if src == usize::MAX {
            cluster.host_to_device(dst, bytes, label, ready)
        } else {
            cluster.device_to_device(src, dst, bytes, label, ready)
        };
        match r {
            Ok(t) => return Ok(t),
            Err(e) if !e.permanent && attempt < max_retries => {
                attempt += 1;
                *retries += 1;
            }
            Err(e) => {
                // a permanently down endpoint can never be retried; in
                // both cases name the device so ledgers attribute the
                // fault to hardware, not to the query
                return Err(QdbError::DeviceFault {
                    what: e.to_string(),
                    transient: !e.permanent,
                    attempts: attempt + 1,
                    device: Some(e.device),
                });
            }
        }
    }
}

/// First device at or after `start` (ring order) that is not permanently
/// down; `None` when the whole cluster is lost.
pub(crate) fn first_healthy_from(cluster: &Cluster, start: usize) -> Option<usize> {
    let d = cluster.num_devices();
    (0..d)
        .map(|o| (start + o) % d)
        .find(|&i| !cluster.device(i).is_down())
}

/// The typed error for a cluster with no healthy device left.
pub(crate) fn all_devices_down(device: usize) -> QdbError {
    QdbError::DeviceFault {
        what: "every device in the cluster is permanently down".to_string(),
        transient: false,
        attempts: 1,
        device: Some(device),
    }
}

/// Stamps `device` into an unattributed device fault so sharded ledger
/// entries name the hardware that failed, not just the kernel.
pub(crate) fn attribute_device(e: QdbError, device: usize) -> QdbError {
    match e {
        QdbError::DeviceFault {
            what,
            transient,
            attempts,
            device: None,
        } => QdbError::DeviceFault {
            what,
            transient,
            attempts,
            device: Some(device),
        },
        other => other,
    }
}

/// What one delegate gather cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GatherCost {
    /// When the last delegate run landed on the merge device.
    pub(crate) transfer_done: SimTime,
    /// Kernel time of the merge.
    pub(crate) merge_time: SimTime,
    /// Delegate bytes shipped over the interconnect.
    pub(crate) candidate_bytes: usize,
    /// Transfer and merge retries spent against fault plans.
    pub(crate) transfer_retries: usize,
}

impl GatherCost {
    /// End-to-end modeled time: `max(local, transfers) + merge`.
    pub(crate) fn total(&self) -> SimTime {
        self.transfer_done + self.merge_time
    }
}

/// Ships each shard's delegates (descending-sorted, ≤ k items) from its
/// serving device to `merge_dev` and merges them with the bitonic run
/// reducer. `local[i]` is shard `i`'s local completion time — the
/// earliest its delegates can hit the wire; `serving[i]` is the device
/// that produced them (with replication, whichever healthy replica
/// served). Delegates already resident on the merge device skip the
/// wire.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ship_and_merge<T: TopKItem>(
    cluster: &Cluster,
    delegates: Vec<Vec<T>>,
    local: &[SimTime],
    serving: &[usize],
    merge_dev: usize,
    k: usize,
    cfg: BitonicConfig,
    max_retries: usize,
) -> Result<(Vec<T>, GatherCost), QdbError> {
    let mdev = cluster.device(merge_dev);
    let total: usize = delegates.iter().map(|d| d.len()).sum();
    // merge-resident shards never cross the wire: start the clock at
    // their local completion
    let mut cost = GatherCost::default();
    for (i, &l) in local.iter().enumerate() {
        if serving[i] == merge_dev && l.0 > cost.transfer_done.0 {
            cost.transfer_done = l;
        }
    }
    if total == 0 {
        for &l in local {
            if l.0 > cost.transfer_done.0 {
                cost.transfer_done = l;
            }
        }
        return Ok((Vec::new(), cost));
    }
    let k_req = k.min(total);
    let k_eff = next_pow2(k_req);

    // scatter-gather: every non-resident shard ships its delegates to
    // the merge device; transfers sharing a channel serialize there
    for (i, d) in delegates.iter().enumerate() {
        if serving[i] == merge_dev || d.is_empty() {
            continue;
        }
        let bytes = d.len() * T::SIZE_BYTES;
        cost.candidate_bytes += bytes;
        let label = format!("delegates:shard{i}");
        let t = retry_transfer(
            cluster,
            serving[i],
            merge_dev,
            bytes,
            &label,
            local[i],
            max_retries,
            &mut cost.transfer_retries,
        )?;
        if t.end.0 > cost.transfer_done.0 {
            cost.transfer_done = t.end;
        }
    }

    // pad each delegate list into a whole k_eff run (a descending run
    // with MIN-sentinel tail is a valid bitonic run) and reduce on the
    // merge device
    let mut runs: Vec<T> = Vec::with_capacity(delegates.len() * k_eff);
    for mut d in delegates {
        debug_assert!(d.len() <= k_eff, "delegate list exceeds its run");
        d.resize(k_eff, T::min_sentinel());
        runs.extend(d);
    }
    let valid = runs.len();
    let mut attempt = 0usize;
    loop {
        let buf = mdev
            .try_upload(&runs)
            .map_err(|e| attribute_device(e.into(), merge_dev))?;
        let log0 = mdev.log_len();
        match bitonic_topk_from_runs(mdev, &buf, valid, k_req, cfg) {
            Ok(r) => {
                cost.merge_time = mdev.window_since(log0).time;
                return Ok((r.items, cost));
            }
            Err(e) => {
                let e: QdbError = e.into();
                if e.is_transient() && attempt < max_retries {
                    attempt += 1;
                    cost.transfer_retries += 1;
                } else {
                    return Err(attribute_device(e, merge_dev));
                }
            }
        }
    }
}

/// Outcome of one raw sharded top-k.
#[derive(Debug, Clone)]
pub struct ShardedTopK<T> {
    /// The merged top-k, descending — bit-identical to the single-device
    /// result over the concatenated input.
    pub items: Vec<T>,
    /// Per-shard local kernel time (shards run concurrently).
    pub local: Vec<SimTime>,
    /// When the last delegate run landed on device 0.
    pub transfer_done: SimTime,
    /// Kernel time of the delegate merge on device 0.
    pub merge_time: SimTime,
    /// End-to-end modeled time: `max(local, transfers) + merge`.
    pub sim_time: SimTime,
    /// Delegate bytes shipped over the interconnect.
    pub candidate_bytes: usize,
    /// Transfer/merge retries consumed against fault plans.
    pub retries: usize,
}

/// Raw sharded top-k over pre-partitioned items: each `parts[i]` runs the
/// bitonic top-k locally on device `i`, delegates ship to device 0, and
/// the runs merge there. Returns the largest `k` items, descending.
pub fn sharded_topk<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    cfg: BitonicConfig,
    max_retries: usize,
) -> Result<ShardedTopK<T>, QdbError> {
    sharded_select(cluster, parts, k, cfg, max_retries, |dev, buf, k| {
        Ok(bitonic_topk(dev, buf, k, cfg)?.items)
    })
}

/// Delegates of delegates: like [`sharded_topk`], but each shard runs
/// *delegate select* locally — per-subrange delegates, threshold over
/// the delegate set, refinement of the contributing subranges — and
/// ships its k local winners (themselves a delegate list) to device 0,
/// where the same bitonic run merge produces the global result. The
/// two-level decomposition composes: the shard-level delegate list is
/// exact (tie-safe threshold, full item order), so the merged result is
/// bit-identical to the single-device answer, while each shard's global
/// traffic drops to its refinement volume once its index is warm.
pub fn sharded_delegate_topk<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    cfg: DelegateConfig,
    max_retries: usize,
) -> Result<ShardedTopK<T>, QdbError> {
    sharded_select(
        cluster,
        parts,
        k,
        cfg.bitonic,
        max_retries,
        |dev, buf, k| Ok(delegate_select_topk(dev, buf, k, cfg)?.items),
    )
}

/// The raw primitives' shared body: `select` runs each part's local
/// top-k on its home device (the next healthy one when home is down)
/// with bounded transient retries, and the delegates merge on the first
/// healthy device.
fn sharded_select<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    merge_cfg: BitonicConfig,
    max_retries: usize,
    select: impl Fn(&Device, &GpuBuffer<T>, usize) -> Result<Vec<T>, QdbError>,
) -> Result<ShardedTopK<T>, QdbError> {
    assert_eq!(
        parts.len(),
        cluster.num_devices(),
        "one part per cluster device"
    );
    let Some(merge_dev) = first_healthy_from(cluster, 0) else {
        return Err(all_devices_down(0));
    };
    let mut delegates: Vec<Vec<T>> = Vec::with_capacity(parts.len());
    let mut local = Vec::with_capacity(parts.len());
    let mut serving = Vec::with_capacity(parts.len());
    let mut retries = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            delegates.push(Vec::new());
            local.push(SimTime::ZERO);
            serving.push(merge_dev);
            continue;
        }
        let home = first_healthy_from(cluster, i).unwrap_or(merge_dev);
        let dev = cluster.device(home);
        serving.push(home);
        let mut attempt = 0usize;
        let (items, time) = loop {
            let log0 = dev.log_len();
            let buf = dev
                .try_upload(part)
                .map_err(|e| attribute_device(e.into(), home))?;
            match select(dev, &buf, k.min(part.len())) {
                Ok(items) => break (items, dev.window_since(log0).time),
                Err(e) if e.is_transient() && attempt < max_retries => {
                    attempt += 1;
                    retries += 1;
                }
                Err(e) => return Err(attribute_device(e, home)),
            }
        };
        delegates.push(items);
        local.push(time);
    }
    let (items, cost) = ship_and_merge(
        cluster,
        delegates,
        &local,
        &serving,
        merge_dev,
        k,
        merge_cfg,
        max_retries,
    )?;
    Ok(ShardedTopK {
        items,
        sim_time: cost.total(),
        local,
        transfer_done: cost.transfer_done,
        merge_time: cost.merge_time,
        candidate_bytes: cost.candidate_bytes,
        retries: retries + cost.transfer_retries,
    })
}

/// Outcome of one sharded SQL query.
#[derive(Debug, Clone)]
pub struct ShardedQueryResult {
    /// Result tweet ids, ranked — bit-identical to the single-device
    /// result for the bitonic strategies.
    pub ids: Vec<u32>,
    /// End-to-end modeled time: `max(local, transfers) + merge`.
    pub sim_time: SimTime,
    /// Per-shard local kernel time.
    pub local: Vec<SimTime>,
    /// When the last delegate run landed on device 0.
    pub transfer_done: SimTime,
    /// Kernel time of the delegate merge on device 0.
    pub merge_time: SimTime,
    /// Delegate bytes shipped over the interconnect.
    pub candidate_bytes: usize,
    /// Local-pass, transfer and merge retries consumed.
    pub retries: usize,
}

/// A candidate row's ORDER BY inputs, read from whichever copy of the
/// table holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) id: u32,
    pub(crate) retweets: u32,
    pub(crate) likes: u32,
}

impl Candidate {
    /// Row `row` of a host table.
    pub(crate) fn at(t: &TweetTable, row: usize) -> Self {
        Candidate {
            id: t.id[row],
            retweets: t.retweet_count[row],
            likes: t.likes_count[row],
        }
    }
}

/// Selects the top `k` of descending candidate runs of one key type —
/// across a cluster, on one device, or on the host.
pub(crate) trait RunMerge {
    fn merge<T: TopKItem>(&mut self, runs: Vec<Vec<T>>, k: usize) -> Result<Vec<T>, QdbError>;
}

/// The one dispatch from a query's ORDER BY to its merge key: the
/// `retweet_count` pair (order-reversed for ASC) or the f32 rank the
/// ranking kernels compute. Every run merge — the sharded gather and
/// both view refresh merges — keys its candidates here, so ties resolve
/// by the same full item order everywhere. Returns the merged ids,
/// ranked.
pub(crate) fn merge_by_key(
    q: &Query,
    runs: Vec<Vec<Candidate>>,
    m: &mut impl RunMerge,
) -> Result<Vec<u32>, QdbError> {
    fn keyed<T>(runs: Vec<Vec<Candidate>>, key: impl Fn(Candidate) -> T) -> Vec<Vec<T>> {
        runs.into_iter()
            .map(|run| run.into_iter().map(&key).collect())
            .collect()
    }
    let k = q.limit;
    match (&q.order_by, q.ascending) {
        (OrderBy::RetweetCount, false) => {
            let top = m.merge(keyed(runs, |c| Kv::new(c.retweets, c.id)), k)?;
            Ok(top.iter().map(|kv| kv.value).collect())
        }
        (OrderBy::RetweetCount, true) => {
            let top = m.merge(keyed(runs, |c| Rev(Kv::new(c.retweets, c.id))), k)?;
            Ok(top.iter().map(|kv| kv.0.value).collect())
        }
        (OrderBy::Rank { .. }, _) => {
            let rank = |c: Candidate| Kv::new(c.retweets as f32 + 0.5 * c.likes as f32, c.id);
            let top = m.merge(keyed(runs, rank), k)?;
            Ok(top.iter().map(|kv| kv.value).collect())
        }
        (OrderBy::Count, _) => Err(SqlError::Unsupported("GROUP BY counts in a run merge").into()),
    }
}

/// The cluster-wide [`RunMerge`]: ships every run to the merge device
/// and merges there, recording what that cost.
struct ClusterMerge<'c> {
    cluster: &'c Cluster,
    local: Vec<SimTime>,
    serving: Vec<usize>,
    merge_dev: usize,
    max_retries: usize,
    cost: GatherCost,
}

impl RunMerge for ClusterMerge<'_> {
    fn merge<T: TopKItem>(&mut self, runs: Vec<Vec<T>>, k: usize) -> Result<Vec<T>, QdbError> {
        let (items, cost) = ship_and_merge(
            self.cluster,
            runs,
            &self.local,
            &self.serving,
            self.merge_dev,
            k,
            BitonicConfig::default(),
            self.max_retries,
        )?;
        self.cost = cost;
        Ok(items)
    }
}

/// One shard's local pass: its ranked ids, when they were ready, the
/// device holding them and the transient retries it spent.
pub(crate) struct ShardRun {
    pub(crate) ids: Vec<u32>,
    pub(crate) local: SimTime,
    pub(crate) device: usize,
    pub(crate) retries: usize,
}

impl ShardRun {
    /// A shard that contributes nothing, charged to `device`.
    pub(crate) fn empty(device: usize) -> Self {
        ShardRun {
            ids: Vec::new(),
            local: SimTime::ZERO,
            device,
            retries: 0,
        }
    }
}

/// The delegate gather every sharded read path shares — queries, the
/// sharded server and sharded view refreshes. Rebuilds each shard's
/// typed (key, id) delegates from its host columns (a missing id is a
/// typed [`QdbError::Internal`], never a panic), adds the `standing` run
/// when there is one — already resident on the merge device, since it
/// is host state — and ships and merges every run on `merge_dev`.
pub(crate) fn gather(
    cluster: &Cluster,
    table: &ShardedTable,
    q: &Query,
    shards: Vec<ShardRun>,
    standing: Option<&[u32]>,
    merge_dev: usize,
    max_retries: usize,
) -> Result<(Vec<u32>, GatherCost), QdbError> {
    let mut runs = Vec::with_capacity(shards.len() + 1);
    let mut m = ClusterMerge {
        cluster,
        local: Vec::with_capacity(shards.len() + 1),
        serving: Vec::with_capacity(shards.len() + 1),
        merge_dev,
        max_retries,
        cost: GatherCost::default(),
    };
    for (i, s) in shards.into_iter().enumerate() {
        let h = table.shard(i).host();
        let run = s.ids.iter().map(|&id| match h.id.binary_search(&id) {
            Ok(row) => Ok(Candidate::at(&h, row)),
            Err(_) => Err(QdbError::Internal {
                what: format!("delegate id {id} does not belong to its shard"),
            }),
        });
        runs.push(run.collect::<Result<Vec<_>, _>>()?);
        m.local.push(s.local);
        m.serving.push(s.device);
    }
    if let Some(standing) = standing {
        let run = standing.iter().map(|&id| locate(table, id));
        runs.push(run.collect::<Result<Vec<_>, _>>()?);
        m.local.push(SimTime::ZERO);
        m.serving.push(merge_dev);
    }
    let ids = merge_by_key(q, runs, &mut m)?;
    Ok((ids, m.cost))
}

/// A standing id's candidate, from whichever shard holds it (shard id
/// columns are strictly increasing, so each probe is one binary search).
fn locate(table: &ShardedTable, id: u32) -> Result<Candidate, QdbError> {
    for i in 0..table.num_shards() {
        let h = table.shard(i).host();
        if let Ok(row) = h.id.binary_search(&id) {
            return Ok(Candidate::at(&h, row));
        }
    }
    Err(QdbError::Internal {
        what: format!("view id {id} is not resident in any shard"),
    })
}

/// Shard `i`'s first replica on a device that is not permanently down,
/// primary first — which copy serves cannot change the answer, only
/// where the delegates start.
pub(crate) fn healthy_replica<'t>(
    cluster: &Cluster,
    table: &'t ShardedTable,
    i: usize,
) -> Result<&'t Replica, QdbError> {
    let shard = table.shard(i);
    shard
        .replicas()
        .iter()
        .find(|rep| !cluster.device(rep.device).is_down())
        .ok_or_else(|| QdbError::DeviceFault {
            what: format!("shard {i}: every replica device is permanently down"),
            transient: false,
            attempts: 1,
            device: Some(shard.primary_device()),
        })
}

/// Runs `q` on one copy of shard `i` with bounded transient retries —
/// the shard executor every sharded read path shares. With `delta_from`
/// only the shard's rows from that index on are scanned (a view's
/// delta), through a device-side slice whose copy counts towards the
/// local time; otherwise the whole copy runs. LIMIT is clamped to the
/// rows scanned. A copy on a permanently down device fails typed without
/// launching; any other failure is attributed to the copy's device.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard(
    cluster: &Cluster,
    table: &ShardedTable,
    i: usize,
    copy: &Replica,
    q: &Query,
    strategy: Strategy,
    delta_from: Option<usize>,
    max_retries: usize,
) -> Result<ShardRun, QdbError> {
    let device = copy.device;
    let dev = cluster.device(device);
    if dev.is_down() {
        return Err(QdbError::DeviceFault {
            what: format!("shard {i}: dev{device} is permanently down"),
            transient: false,
            attempts: 1,
            device: Some(device),
        });
    }
    let rows = table.shard(i).host().len();
    let q = Query {
        limit: q.limit.min(rows - delta_from.unwrap_or(0)),
        ..q.clone()
    };
    let mut retries = 0usize;
    loop {
        let log0 = dev.log_len();
        let pass = match delta_from {
            None => execute(dev, &copy.gpu, &q, strategy).map(|r| (r.ids, r.kernel_time)),
            Some(from) => {
                let delta = copy.gpu.device_slice(dev, from, rows);
                execute(dev, &delta, &q, strategy).map(|r| (r.ids, dev.window_since(log0).time))
            }
        };
        match pass {
            Ok((ids, local)) => {
                return Ok(ShardRun {
                    ids,
                    local,
                    device,
                    retries,
                })
            }
            Err(e) if e.is_transient() && retries < max_retries => retries += 1,
            Err(e) => return Err(attribute_device(e, device)),
        }
    }
}

/// The sharded paths' admission rules: [`validate`] against the whole
/// table, and no `GROUP BY` — row partitioning splits a uid's tweets
/// across shards, so per-shard group counts cannot be merged by taking
/// delegates (that would silently undercount).
fn validate_sharded(q: &Query, rows: usize) -> Result<(), QdbError> {
    if q.group_by_uid {
        return Err(SqlError::Unsupported("GROUP BY on a sharded table").into());
    }
    validate(q, Some(rows))
}

/// Executes a parsed query against a sharded table: the per-shard
/// pipeline runs locally on each shard's first healthy replica (with
/// `max_retries` bounded retries against transient faults), the k
/// delegate candidates per shard ship to the first healthy device, and
/// the bitonic run reducer merges them.
///
/// `GROUP BY` is rejected ([`SqlError::Unsupported`]), as are the shapes
/// every path rejects.
///
/// For the bitonic strategies the result is bit-identical to
/// single-device execution; `StageSort`'s radix pass orders key ties by
/// arrival, so its delegate *sets* may differ at duplicate-key
/// boundaries (keys still match).
pub fn execute_sharded(
    cluster: &Cluster,
    table: &ShardedTable,
    q: &Query,
    strategy: Strategy,
    max_retries: usize,
) -> Result<ShardedQueryResult, QdbError> {
    validate_sharded(q, table.len())?;
    let Some(merge_dev) = first_healthy_from(cluster, 0) else {
        return Err(all_devices_down(0));
    };
    let mut runs = Vec::with_capacity(table.num_shards());
    for i in 0..table.num_shards() {
        runs.push(if table.shard(i).host().is_empty() {
            ShardRun::empty(merge_dev)
        } else {
            let rep = healthy_replica(cluster, table, i)?;
            run_shard(cluster, table, i, rep, q, strategy, None, max_retries)?
        });
    }
    let local = runs.iter().map(|r| r.local).collect();
    let retries: usize = runs.iter().map(|r| r.retries).sum();
    let (ids, cost) = gather(cluster, table, q, runs, None, merge_dev, max_retries)?;
    Ok(ShardedQueryResult {
        ids,
        sim_time: cost.total(),
        local,
        transfer_done: cost.transfer_done,
        merge_time: cost.merge_time,
        candidate_bytes: cost.candidate_bytes,
        retries: retries + cost.transfer_retries,
    })
}

/// Handle for a query submitted to the sharded server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedTicket(pub usize);

/// One sharded query's outcome from a drain.
#[derive(Debug, Clone)]
pub struct ShardedServed {
    /// The submission ticket.
    pub ticket: ShardedTicket,
    /// The original SQL text.
    pub sql: String,
    /// Merged result ids (empty when `error` is set).
    pub ids: Vec<u32>,
    /// End-to-end latency: slowest shard + gather + merge.
    pub latency: SimTime,
    /// Why the query did not complete (`None` = completed). A failed
    /// shard fails the whole query — results are never truncated to the
    /// surviving shards.
    pub error: Option<QdbError>,
    /// The deepest degradation rung any shard used for this query.
    pub degrade: DegradeLevel,
    /// Retries across all shards plus transfer/merge retries.
    pub retries: usize,
    /// The transfer/merge share of `retries` (the shard share is already
    /// in the per-device ledgers).
    pub transfer_retries: usize,
    /// Per-shard executions this query served from a non-routed replica
    /// after the routed device failed.
    pub failovers: usize,
    /// True when the merged result came from the epoch-tagged cache —
    /// no sub-query touched a shard (zero device work, zero latency).
    pub cached: bool,
}

impl ShardedServed {
    /// True when the query produced a merged result.
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

/// Everything one [`ShardedServer::drain`] produced.
#[derive(Debug, Clone)]
pub struct ShardedLoadReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<ShardedServed>,
    /// Aggregated resilience ledger: per-shard server ledgers summed,
    /// with completion/failure counted at the sharded-query level.
    pub resilience: ResilienceStats,
    /// Per-replica-server drain reports, shard-major then replica order
    /// (with `r = 1` this is exactly one report per shard).
    pub shard_reports: Vec<LoadReport>,
    /// Completion time of the slowest query (0 when none completed).
    pub makespan: SimTime,
    /// Per-device health snapshot after this drain (breaker states,
    /// consecutive failures, trip counts).
    pub health: Vec<DeviceHealth>,
}

/// Breaker trip threshold: consecutive failed sub-queries attributed to
/// one device before its breaker opens.
const BREAKER_THRESHOLD: usize = 3;

/// Simulated cooldown an open breaker waits before admitting a
/// half-open probe.
const BREAKER_COOLDOWN: SimTime = SimTime(1e-3);

/// Circuit-breaker state of one device on the sharded serving path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerState {
    /// Healthy: queries route here normally.
    Closed,
    /// Tripped: no queries route here until the cooldown elapses.
    Open {
        /// Simulated time at which a half-open probe is admitted.
        until: SimTime,
    },
    /// Cooldown elapsed: the next routed query is a probe — success
    /// recloses the breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable name for ledgers and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Per-device serving health the sharded server tracks across drains.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    /// Consecutive failed sub-queries attributed to this device.
    pub consecutive_failures: usize,
    /// The breaker's current state.
    pub state: BreakerState,
    /// Times the breaker has tripped open.
    pub trips: usize,
    /// Whether the device was seen permanently down at routing time.
    pub down: bool,
}

/// Where one shard's sub-query was routed at submission.
enum ShardRoute {
    /// Queued on `servers[shard][replica]`.
    Queued { replica: usize, ticket: QueryTicket },
    /// No live replica server was routable; the query runs directly on
    /// a rebuilt copy at drain.
    Direct { device: usize },
    /// The shard is empty: contributes nothing.
    Empty,
    /// No healthy copy exists anywhere: fails loudly at drain.
    Dead { device: usize },
}

/// One admitted sharded query awaiting drain.
struct PendingQuery {
    ticket: ShardedTicket,
    sql: String,
    q: Query,
    routes: Vec<ShardRoute>,
    /// Ids resolved from the result cache at submission (same SQL, same
    /// table epoch); the drain serves them without routing anything.
    cached: Option<Vec<u32>>,
}

/// A serving front-end over a sharded table: one [`Server`] per
/// (shard, replica), each with its own admission queue, retry budget and
/// degradation ladder; queries scatter to every shard at submission
/// (routed to the first healthy replica) and gather-merge at drain.
///
/// Permanent device loss is survived, not retried: a per-device
/// consecutive-failure circuit breaker steers routing away from a
/// failing device, drain-time failover re-serves a failed sub-query
/// from any healthy replica, and lost partitions are rebuilt from their
/// pristine host copies onto surviving devices for subsequent
/// submissions. All of it is ledgered ([`ResilienceStats::failovers`],
/// [`ResilienceStats::rebuilds`], [`ResilienceStats::breaker_trips`],
/// [`ShardedLoadReport::health`]).
pub struct ShardedServer<'a> {
    cluster: &'a Cluster,
    table: &'a ShardedTable,
    /// `servers[shard][replica]` mirrors `table.shard(shard).replicas()`.
    servers: Vec<Vec<Server<'a>>>,
    /// Rebuilt copies per shard, re-materialized from the host columns.
    /// Owned here (not by the table), served directly at drain.
    rebuilt: Vec<Vec<Replica>>,
    /// Table epoch the rebuilt copies were materialized at. An append
    /// bumps the table past this; the next submission discards every
    /// rebuilt copy rather than serve pre-append rows (replicas held by
    /// the table itself are spliced in place and never go stale).
    rebuilt_epoch: u64,
    health: Vec<DeviceHealth>,
    /// Simulated clock the breaker runs on; advances by each drain's
    /// makespan.
    sim_now: SimTime,
    strategy: Strategy,
    max_retries: usize,
    pending: Vec<PendingQuery>,
    next_ticket: usize,
    shed: usize,
    /// Whole-query result cache ([`ServerConfig::result_cache`]) of
    /// merged ids. Caching happens here, above the scatter, so a hit
    /// skips every shard.
    cache: ResultCache,
}

impl<'a> ShardedServer<'a> {
    /// Creates one server per (shard, replica) pair.
    pub fn new(cluster: &'a Cluster, table: &'a ShardedTable, cfg: ServerConfig) -> Self {
        assert_eq!(cluster.num_devices(), table.num_shards());
        let max_retries = cfg.max_retries;
        let strategy = cfg.default_strategy;
        let cache = ResultCache::new(cfg.result_cache);
        // caching lives at the sharded layer (whole merged queries);
        // per-shard servers always re-execute their sub-queries
        let cfg = ServerConfig {
            result_cache: false,
            ..cfg
        };
        let servers: Vec<Vec<Server<'a>>> = (0..table.num_shards())
            .map(|i| {
                table
                    .shard(i)
                    .replicas()
                    .iter()
                    .map(|rep| Server::new(cluster.device(rep.device), &rep.gpu, cfg.clone()))
                    .collect()
            })
            .collect();
        let health = (0..cluster.num_devices())
            .map(|_| DeviceHealth {
                consecutive_failures: 0,
                state: BreakerState::Closed,
                trips: 0,
                down: false,
            })
            .collect();
        ShardedServer {
            cluster,
            table,
            servers,
            rebuilt: (0..table.num_shards()).map(|_| Vec::new()).collect(),
            rebuilt_epoch: table.epoch(),
            health,
            sim_now: SimTime::ZERO,
            strategy,
            max_retries,
            pending: Vec::new(),
            next_ticket: 0,
            shed: 0,
            cache,
        }
    }

    /// Per-device health (breaker state, consecutive failures, trips).
    pub fn health(&self) -> &[DeviceHealth] {
        &self.health
    }

    /// Discards rebuilt copies materialized before the last append:
    /// they froze the pre-append rows, and serving them would break
    /// bit-identity with the extended table. Replication is restored
    /// from the current host columns at the next drain.
    fn discard_stale_rebuilds(&mut self) {
        let epoch = self.table.epoch();
        if epoch != self.rebuilt_epoch {
            for r in &mut self.rebuilt {
                r.clear();
            }
            self.rebuilt_epoch = epoch;
        }
    }

    /// Whether queries may route to `device` right now: not permanently
    /// down, breaker not open (an elapsed cooldown moves the breaker to
    /// half-open and admits the probe).
    fn device_routable(&mut self, device: usize) -> bool {
        if self.cluster.device(device).is_down() {
            self.health[device].down = true;
            return false;
        }
        match self.health[device].state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if self.sim_now.0 >= until.0 {
                    self.health[device].state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a failed sub-query on `device`: trips the breaker after
    /// [`BREAKER_THRESHOLD`] consecutive failures; a failed half-open
    /// probe re-opens immediately.
    fn note_failure(&mut self, device: usize) {
        let reopen = self.sim_now + BREAKER_COOLDOWN;
        let h = &mut self.health[device];
        h.consecutive_failures += 1;
        match h.state {
            BreakerState::HalfOpen => {
                h.state = BreakerState::Open { until: reopen };
                h.trips += 1;
            }
            BreakerState::Closed if h.consecutive_failures >= BREAKER_THRESHOLD => {
                h.state = BreakerState::Open { until: reopen };
                h.trips += 1;
            }
            _ => {}
        }
    }

    /// Records a served sub-query on `device`: resets the failure streak
    /// and recloses a half-open breaker.
    fn note_success(&mut self, device: usize) {
        let h = &mut self.health[device];
        h.consecutive_failures = 0;
        if matches!(h.state, BreakerState::HalfOpen) {
            h.state = BreakerState::Closed;
        }
    }

    /// Parses, validates and scatters one SQL query to every shard's
    /// admission queue. A shard that sheds ([`QdbError::Overloaded`])
    /// sheds the whole query.
    pub fn submit(&mut self, sql: &str) -> Result<ShardedTicket, QdbError> {
        self.discard_stale_rebuilds();
        let q = parse(sql)?;
        validate_sharded(&q, self.table.len())?;
        // a hit skips the scatter entirely: no sub-queries, no breaker
        // traffic, nothing to drain from the shards
        let cached = self.cache.lookup(sql, self.table.epoch());
        let routes = match cached {
            Some(_) => Vec::new(),
            None => self.scatter(sql, &q)?,
        };
        let ticket = ShardedTicket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push(PendingQuery {
            ticket,
            sql: sql.to_string(),
            q,
            routes,
            cached,
        });
        Ok(ticket)
    }

    /// Routes one query to every shard. The first routable replica's
    /// server admits the parsed query with LIMIT clamped to the shard's
    /// rows; a shard with no routable replica server runs directly on a
    /// rebuilt copy at drain.
    fn scatter(&mut self, sql: &str, q: &Query) -> Result<Vec<ShardRoute>, QdbError> {
        let mut routes = Vec::with_capacity(self.table.num_shards());
        for i in 0..self.table.num_shards() {
            let shard_n = self.table.shard(i).host().len();
            if shard_n == 0 {
                routes.push(ShardRoute::Empty);
                continue;
            }
            // first routable replica takes the shard (primary first, so
            // the all-healthy path is identical to the unreplicated one)
            let devices: Vec<usize> = self
                .table
                .shard(i)
                .replicas()
                .iter()
                .map(|rep| rep.device)
                .collect();
            if let Some(j) = devices.iter().position(|&d| self.device_routable(d)) {
                let shard_q = Query {
                    limit: q.limit.min(shard_n),
                    ..q.clone()
                };
                match self.servers[i][j].admit(sql, shard_q, SubmitOptions::default()) {
                    Ok(ticket) => routes.push(ShardRoute::Queued { replica: j, ticket }),
                    Err(e) => {
                        // already-admitted siblings will run and be
                        // discarded — the price of decentralized admission
                        if matches!(e, QdbError::Overloaded { .. }) {
                            self.shed += 1;
                        }
                        return Err(e);
                    }
                }
                continue;
            }
            // no live replica server: a rebuilt copy on a routable
            // device can still serve directly at drain
            let rebuilt: Vec<usize> = self.rebuilt[i].iter().map(|c| c.device).collect();
            match rebuilt.into_iter().find(|&d| self.device_routable(d)) {
                Some(d) => routes.push(ShardRoute::Direct { device: d }),
                None => routes.push(ShardRoute::Dead {
                    device: self.table.shard(i).primary_device(),
                }),
            }
        }
        Ok(routes)
    }

    /// Runs shard `i`'s query directly on its copy on `device` (a
    /// rebuilt copy, or a replica outside its server queue during
    /// failover).
    fn direct_execute(&self, i: usize, device: usize, q: &Query) -> Result<ShardRun, QdbError> {
        let copy = self
            .table
            .shard(i)
            .replicas()
            .iter()
            .chain(&self.rebuilt[i])
            .find(|c| c.device == device)
            .ok_or_else(|| QdbError::Internal {
                what: format!("shard {i} has no copy on dev{device}"),
            })?;
        let (strategy, retries) = (self.strategy, self.max_retries);
        run_shard(
            self.cluster,
            self.table,
            i,
            copy,
            q,
            strategy,
            None,
            retries,
        )
    }

    /// Serves shard `i` from any healthy copy other than the `failed`
    /// device's, counting a successful failover.
    fn failover(
        &mut self,
        i: usize,
        q: &Query,
        failed: usize,
        failovers: &mut usize,
    ) -> Result<ShardRun, QdbError> {
        let candidates: Vec<usize> = self
            .table
            .shard(i)
            .replicas()
            .iter()
            .chain(&self.rebuilt[i])
            .map(|c| c.device)
            .filter(|&d| d != failed)
            .collect();
        let mut last: Option<QdbError> = None;
        for device in candidates {
            if self.cluster.device(device).is_down() {
                self.health[device].down = true;
                continue;
            }
            match self.direct_execute(i, device, q) {
                Ok(run) => {
                    self.note_success(device);
                    *failovers += 1;
                    return Ok(run);
                }
                Err(e) => {
                    self.note_failure(device);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| QdbError::DeviceFault {
            what: format!("shard {i}: no healthy replica to fail over to"),
            transient: false,
            attempts: 1,
            device: Some(self.table.shard(i).primary_device()),
        }))
    }

    /// Restores each shard's replication after device loss: a shard with
    /// fewer live copies than the table's replication factor is
    /// re-materialized from its pristine host columns onto the next
    /// healthy device not already holding a copy, charged as a real
    /// host→device bulk transfer. Rebuilt copies serve *subsequent*
    /// submissions and failovers — queries already resolved this drain
    /// are not retroactively saved, which is what keeps an `r = 1` loss
    /// loud instead of silently absorbed.
    fn rebuild_lost_shards(&mut self) -> usize {
        let d = self.cluster.num_devices();
        let mut rebuilds = 0usize;
        for i in 0..self.table.num_shards() {
            let shard = self.table.shard(i);
            if shard.host().is_empty() {
                continue;
            }
            let mut live: Vec<usize> = shard
                .replicas()
                .iter()
                .chain(&self.rebuilt[i])
                .map(|c| c.device)
                .filter(|&dv| !self.cluster.device(dv).is_down())
                .collect();
            while live.len() < self.table.replication() {
                let target = (0..d)
                    .map(|o| (i + o) % d)
                    .find(|&dv| !self.cluster.device(dv).is_down() && !live.contains(&dv));
                let Some(target) = target else { break };
                let gpu = GpuTweetTable::upload_with_capacity(
                    self.cluster.device(target),
                    &shard.host(),
                    shard.cap_rows,
                );
                let label = format!("rebuild:shard{i}");
                if retry_transfer(
                    self.cluster,
                    usize::MAX,
                    target,
                    shard.host().len() * ROW_BYTES,
                    &label,
                    SimTime::ZERO,
                    self.max_retries,
                    &mut 0,
                )
                .is_err()
                {
                    break;
                }
                self.rebuilt[i].push(Replica {
                    device: target,
                    gpu,
                });
                rebuilds += 1;
                live.push(target);
            }
        }
        rebuilds
    }

    /// Number of queries admitted and not yet drained.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drains every replica server, resolves each query's per-shard
    /// outcome — failing over to a healthy replica where the routed
    /// device failed or died mid-drain — gathers delegates over the
    /// interconnect, merges on the first healthy device, updates the
    /// breaker ledger and rebuilds lost partitions for subsequent
    /// submissions.
    pub fn drain(&mut self) -> ShardedLoadReport {
        self.discard_stale_rebuilds();
        let replica_reports: Vec<Vec<LoadReport>> = self
            .servers
            .iter_mut()
            .map(|reps| reps.iter_mut().map(|s| s.drain()).collect())
            .collect();
        let by_ticket: Vec<Vec<HashMap<usize, usize>>> = replica_reports
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|r| {
                        r.queries
                            .iter()
                            .enumerate()
                            .map(|(idx, sq)| (sq.ticket.0, idx))
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let trips_before: usize = self.health.iter().map(|h| h.trips).sum();
        let merge_dev = first_healthy_from(self.cluster, 0);
        let fallback_dev = merge_dev.unwrap_or(0);
        let mut failovers_total = 0usize;
        let pending = std::mem::take(&mut self.pending);
        let mut queries = Vec::with_capacity(pending.len());
        for PendingQuery {
            ticket,
            sql,
            q,
            routes,
            cached,
        } in pending
        {
            if let Some(ids) = cached {
                // resolved from the epoch-tagged cache at submission:
                // no sub-queries ran, nothing shipped, zero latency
                queries.push(ShardedServed {
                    ticket,
                    sql,
                    ids,
                    latency: SimTime::ZERO,
                    error: None,
                    degrade: DegradeLevel::None,
                    retries: 0,
                    transfer_retries: 0,
                    failovers: 0,
                    cached: true,
                });
                continue;
            }
            let mut runs: Vec<ShardRun> = Vec::with_capacity(routes.len());
            let mut error: Option<QdbError> = None;
            let mut degrade = DegradeLevel::None;
            let mut retries = 0usize;
            let mut failovers = 0usize;
            // resolve each shard; the three failure paths (queued error,
            // stranded result, direct miss) all funnel through failover
            for (i, route) in routes.iter().enumerate() {
                let run = match route {
                    ShardRoute::Empty => Ok(ShardRun::empty(fallback_dev)),
                    ShardRoute::Dead { device } => Err(QdbError::DeviceFault {
                        what: format!("shard {i}: no healthy replica to serve from"),
                        transient: false,
                        attempts: 1,
                        device: Some(*device),
                    }),
                    ShardRoute::Direct { device } => match self.direct_execute(i, *device, &q) {
                        Ok(run) => {
                            self.note_success(*device);
                            Ok(run)
                        }
                        Err(e) => {
                            self.note_failure(*device);
                            self.failover(i, &q, *device, &mut failovers).map_err(|_| e)
                        }
                    },
                    ShardRoute::Queued { replica, ticket: t } => {
                        let device = self.table.shard(i).replicas()[*replica].device;
                        let served =
                            &replica_reports[i][*replica].queries[by_ticket[i][*replica][&t.0]];
                        retries += served.retries;
                        degrade = degrade.max(served.degrade);
                        if let Some(e) = &served.error {
                            let e = attribute_device(e.clone(), device);
                            self.note_failure(device);
                            // a deadline miss is final — re-running it
                            // elsewhere would answer after the deadline;
                            // a failed shard with no healthy copy fails
                            // the whole query: no silent truncation to
                            // the surviving shards
                            if matches!(e, QdbError::DeviceFault { .. }) {
                                self.failover(i, &q, device, &mut failovers).map_err(|_| e)
                            } else {
                                Err(e)
                            }
                        } else if self.cluster.device(device).is_down() {
                            // the device answered but died before its
                            // delegates could ship: the result is lost
                            // with it — re-serve from a healthy replica
                            self.note_failure(device);
                            self.failover(i, &q, device, &mut failovers)
                        } else {
                            self.note_success(device);
                            Ok(ShardRun {
                                ids: served.result.ids.clone(),
                                local: served.timing.total,
                                device,
                                retries: 0,
                            })
                        }
                    }
                };
                match run {
                    Ok(run) => {
                        retries += run.retries;
                        runs.push(run);
                    }
                    Err(e) => {
                        error.get_or_insert(e);
                        runs.push(ShardRun::empty(fallback_dev));
                    }
                }
            }
            failovers_total += failovers;
            let merged = match (error, merge_dev) {
                (Some(e), _) => Err(e),
                (None, None) => Err(all_devices_down(0)),
                (None, Some(md)) => gather(
                    self.cluster,
                    self.table,
                    &q,
                    runs,
                    None,
                    md,
                    self.max_retries,
                ),
            };
            let (ids, latency, error, transfer_retries) = match merged {
                Ok((ids, cost)) => (ids, cost.total(), None, cost.transfer_retries),
                Err(e) => (Vec::new(), SimTime::ZERO, Some(e), 0),
            };
            queries.push(ShardedServed {
                ticket,
                sql,
                ids,
                latency,
                error,
                degrade,
                retries: retries + transfer_retries,
                transfer_retries,
                failovers,
                cached: false,
            });
        }

        self.cache.store(
            self.table.epoch(),
            queries
                .iter()
                .filter(|sq| sq.completed() && !sq.cached)
                .map(|sq| (sq.sql.as_str(), sq.ids.as_slice())),
        );

        let mut resilience = ResilienceStats::default();
        for r in replica_reports.iter().flatten() {
            resilience.retries += r.resilience.retries;
            resilience.faults_injected += r.resilience.faults_injected;
        }
        resilience.shed = std::mem::take(&mut self.shed);
        resilience.failovers = failovers_total;
        self.cache.drain_counters(&mut resilience);
        for sq in &queries {
            if sq.completed() {
                resilience.completed += 1;
            } else if matches!(sq.error, Some(QdbError::Timeout { .. })) {
                resilience.timed_out += 1;
            } else {
                resilience.failed += 1;
            }
            // shard-level retries are already summed via the per-device
            // ledgers; only the transfer/merge share is new information
            resilience.retries += sq.transfer_retries;
            match sq.degrade {
                DegradeLevel::SerialBitonic => resilience.degraded_serial += 1,
                DegradeLevel::CpuHeap => resilience.degraded_cpu += 1,
                DegradeLevel::None => {}
            }
        }
        let makespan = queries
            .iter()
            .filter(|q| q.completed())
            .map(|q| q.latency)
            .fold(SimTime::ZERO, |a, b| if b.0 > a.0 { b } else { a });

        // advance the simulated clock the breaker cooldown runs on: the
        // slowest of the per-replica drains and this drain's merges
        let mut advance = makespan;
        for r in replica_reports.iter().flatten() {
            if r.makespan.0 > advance.0 {
                advance = r.makespan;
            }
        }
        self.sim_now += advance;

        // restore replication for what this drain revealed as lost
        resilience.rebuilds = self.rebuild_lost_shards();
        resilience.breaker_trips =
            self.health.iter().map(|h| h.trips).sum::<usize>() - trips_before;
        // the report's health snapshot reflects losses this drain saw,
        // not just the ones the next submission would discover
        for (d, h) in self.health.iter_mut().enumerate() {
            if self.cluster.device(d).is_down() {
                h.down = true;
            }
        }

        let shard_reports: Vec<LoadReport> = replica_reports.into_iter().flatten().collect();
        ShardedLoadReport {
            queries,
            resilience,
            shard_reports,
            makespan,
            health: self.health.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::dist::{Distribution, Uniform};
    use simt::topology::ClusterSpec;
    use simt::{Device, FaultPlan};

    fn keyed(dist: &Uniform, n: usize, seed: u64) -> Vec<Kv<f32>> {
        dist.generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| Kv::new(k, i as u32))
            .collect()
    }

    fn partition_items<T: Clone>(
        items: &[T],
        shards: usize,
        policy: PartitionPolicy,
    ) -> Vec<Vec<T>> {
        partition_indices(items.len(), shards, policy)
            .into_iter()
            .map(|rows| rows.into_iter().map(|r| items[r].clone()).collect())
            .collect()
    }

    #[test]
    fn partitions_cover_every_row_exactly_once() {
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 4, 8] {
                let parts = partition_indices(1000, shards, policy);
                assert_eq!(parts.len(), shards);
                let mut seen = vec![false; 1000];
                for p in &parts {
                    for &r in p {
                        assert!(!seen[r], "{}: row {r} twice", policy.name());
                        seen[r] = true;
                    }
                    // row order preserved → shard id columns stay sorted
                    assert!(p.windows(2).all(|w| w[0] < w[1]));
                }
                assert!(seen.iter().all(|&s| s), "{}", policy.name());
                // no pathological imbalance (hash/rr are near-even; range
                // is exactly even)
                let max = parts.iter().map(Vec::len).max().unwrap();
                let min = parts.iter().map(Vec::len).min().unwrap();
                assert!(max - min <= 200, "{}: {max} vs {min}", policy.name());
            }
        }
    }

    #[test]
    fn sharded_topk_is_bit_identical_to_single_device() {
        let n = 1 << 12;
        let k = 64;
        let items = keyed(&Uniform, n, 77);
        // single-device oracle
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        for policy in PartitionPolicy::all() {
            for devices in [1usize, 2, 4, 8] {
                let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
                let parts = partition_items(&items, devices, policy);
                let r = sharded_topk(&cluster, &parts, k, BitonicConfig::default(), 2).unwrap();
                assert_eq!(r.items, oracle, "{} x {devices} devices", policy.name());
                assert!(r.sim_time.0 > 0.0);
                if devices > 1 {
                    assert!(r.candidate_bytes > 0);
                    assert!(r.transfer_done.0 > 0.0);
                }
            }
        }
    }

    #[test]
    fn sharded_delegate_topk_is_bit_identical_to_single_device() {
        let n = 1 << 14;
        let k = 64;
        let items = keyed(&Uniform, n, 78);
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        // small subranges so the per-shard threshold actually prunes at
        // this n
        let cfg = DelegateConfig {
            subrange: 256,
            ..DelegateConfig::default()
        };
        for devices in [1usize, 2, 4, 8] {
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts = partition_items(&items, devices, PartitionPolicy::RoundRobin);
            let r = sharded_delegate_topk(&cluster, &parts, k, cfg, 2).unwrap();
            assert_eq!(r.items, oracle, "{devices} devices");
            assert!(r.sim_time.0 > 0.0);
            if devices > 1 {
                assert!(r.candidate_bytes > 0);
            }
        }
    }

    #[test]
    fn sharded_topk_exact_on_duplicate_heavy_keys() {
        // 4 distinct keys over 2^10 rows: ties everywhere; the id
        // tie-break is what keeps shardings bit-identical
        let n = 1 << 10;
        let k = 32;
        let items: Vec<Kv<f32>> = (0..n).map(|i| Kv::new((i % 4) as f32, i as u32)).collect();
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        // the oracle itself must be the smallest ids of the max key
        assert!(oracle.iter().all(|kv| kv.key == 3.0));
        let ids: Vec<u32> = oracle.iter().map(|kv| kv.value).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend on ties");
        for policy in PartitionPolicy::all() {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let parts = partition_items(&items, 4, policy);
            let r = sharded_topk(&cluster, &parts, k, BitonicConfig::default(), 2).unwrap();
            assert_eq!(r.items, oracle, "{}", policy.name());
        }
    }

    #[test]
    fn sharded_timing_is_deterministic_and_scales_down() {
        let n = 1 << 14;
        let items = keyed(&Uniform, n, 5);
        let run = |devices: usize| {
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts = partition_items(&items, devices, PartitionPolicy::Range);
            sharded_topk(&cluster, &parts, 32, BitonicConfig::default(), 2).unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.items, b.items);
        // local work shrinks with more devices
        let one = run(1);
        let eight = run(8);
        let max_local_1 = one.local.iter().map(|t| t.0).fold(0.0, f64::max);
        let max_local_8 = eight.local.iter().map(|t| t.0).fold(0.0, f64::max);
        assert!(max_local_8 < max_local_1);
    }

    #[test]
    fn execute_sharded_matches_unsharded_bit_for_bit() {
        let host = TweetTable::generate(20_000, 42);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.4);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 25"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 16"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 12".to_string(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' \
             ORDER BY retweet_count DESC LIMIT 40"
                .to_string(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap();
            let oracle = execute(&dev, &gpu, &q, Strategy::StageBitonic).unwrap().ids;
            for policy in PartitionPolicy::all() {
                for devices in [1usize, 2, 4] {
                    let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
                    let table = ShardedTable::partition(&cluster, &host, policy).unwrap();
                    let r =
                        execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
                    assert_eq!(r.ids, oracle, "{sql} via {} x {devices}", policy.name());
                    assert!(r.sim_time.0 > 0.0);
                }
            }
        }
    }

    #[test]
    fn group_by_is_rejected_on_the_sharded_path() {
        let host = TweetTable::generate(2_000, 7);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let q =
            parse("SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5")
                .unwrap();
        assert!(matches!(
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        assert!(matches!(
            server.submit(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5"
            ),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
    }

    #[test]
    fn sharded_server_serves_oracle_exact_results() {
        let host = TweetTable::generate(16_000, 9);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 10"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 6".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        let tickets: Vec<ShardedTicket> = sqls.iter().map(|s| server.submit(s).unwrap()).collect();
        let report = server.drain();
        assert_eq!(report.queries.len(), sqls.len());
        for (i, t) in tickets.iter().enumerate() {
            let sq = &report.queries[t.0];
            assert!(sq.completed(), "{}: {:?}", sq.sql, sq.error);
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
            assert!(sq.latency.0 > 0.0);
        }
        assert_eq!(report.resilience.completed, sqls.len());
        assert_eq!(report.resilience.shed, 0);
        assert_eq!(report.resilience.retries, 0);
        assert!(report.makespan.0 > 0.0);
        assert_eq!(report.shard_reports.len(), 4);
    }

    #[test]
    fn replicated_partition_places_ring_copies_and_stays_bit_identical() {
        let host = TweetTable::generate(8_000, 31);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 12").unwrap();
        let oracle = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2)
                .unwrap()
                .ids
        };
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        assert_eq!(table.replication(), 2);
        for i in 0..4 {
            let devs: Vec<usize> = table.shard(i).replicas().iter().map(|r| r.device).collect();
            assert_eq!(devs, vec![i, (i + 1) % 4], "ring placement for shard {i}");
        }
        // replica copies are charged as real device-to-device transfers
        let labels: Vec<String> = cluster
            .transfers()
            .iter()
            .map(|t| t.label.clone())
            .collect();
        assert!(
            labels.iter().any(|l| l == "replicate:shard0->dev1"),
            "{labels:?}"
        );
        // the healthy read path serves from primaries: bit-identical to r=1
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
        assert_eq!(r.ids, oracle);
        // the factor clamps to the cluster size and never goes below one
        assert_eq!(ReplicationFactor(9).effective(4), 4);
        assert_eq!(ReplicationFactor(0).effective(4), 1);
    }

    #[test]
    fn replicated_reads_survive_permanent_device_loss() {
        let host = TweetTable::generate(8_000, 33);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10").unwrap();
        let oracle = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2)
                .unwrap()
                .ids
        };
        // r = 2: losing a device leaves every shard a healthy copy
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Range,
            ReplicationFactor(2),
        )
        .unwrap();
        cluster.device(1).mark_down();
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
        assert_eq!(r.ids, oracle, "failover reads are bit-identical");
        // r = 1: the loss is loud, typed and attributed — never truncated
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        cluster.device(1).mark_down();
        let err = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap_err();
        match err {
            QdbError::DeviceFault {
                transient, device, ..
            } => {
                assert!(!transient, "device loss must not be retried");
                assert_eq!(device, Some(1));
            }
            other => panic!("expected a typed device fault, got {other:?}"),
        }
    }

    #[test]
    fn breaker_state_machine_trips_probes_and_recloses() {
        let host = TweetTable::generate(1_000, 3);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        assert!(server.device_routable(1));
        for _ in 0..BREAKER_THRESHOLD {
            server.note_failure(1);
        }
        assert!(matches!(
            server.health()[1].state,
            BreakerState::Open { .. }
        ));
        assert_eq!(server.health()[1].trips, 1);
        assert!(!server.device_routable(1), "open breaker refuses routing");
        // the cooldown elapses on the simulated clock: the next routing
        // check admits a half-open probe
        server.sim_now += BREAKER_COOLDOWN;
        assert!(server.device_routable(1));
        assert_eq!(server.health()[1].state.name(), "half-open");
        // a failed probe re-opens immediately; a served one recloses
        server.note_failure(1);
        assert!(matches!(
            server.health()[1].state,
            BreakerState::Open { .. }
        ));
        assert_eq!(server.health()[1].trips, 2);
        server.sim_now += BREAKER_COOLDOWN;
        assert!(server.device_routable(1));
        server.note_success(1);
        assert_eq!(server.health()[1].state.name(), "closed");
        assert_eq!(server.health()[1].consecutive_failures, 0);
    }

    #[test]
    fn sharded_server_fails_over_and_rebuilds_after_mid_load_device_loss() {
        let host = TweetTable::generate(12_000, 17);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 9"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 7"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 5".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        // batch A: the healthy baseline
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let a = server.drain();
        assert_eq!(a.resilience.completed, sqls.len());
        assert_eq!(a.resilience.failovers, 0);
        for (i, sq) in a.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        // device 1 dies with batch B already admitted: every query still
        // completes bit-exact by failing over to surviving replicas
        for s in &sqls {
            server.submit(s).unwrap();
        }
        cluster.device(1).mark_down();
        let b = server.drain();
        assert_eq!(
            b.resilience.completed,
            sqls.len(),
            "r=2 + one permanent loss: every query completes"
        );
        for (i, sq) in b.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        assert!(b.resilience.failovers > 0, "mid-load loss forces failovers");
        assert!(b.resilience.rebuilds > 0, "lost copies re-materialize");
        assert!(b.health[1].down);
        assert!(cluster
            .transfers()
            .iter()
            .any(|t| t.label.starts_with("rebuild:shard")));
        // batch C routes around the dead device and onto rebuilt copies
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let c = server.drain();
        assert_eq!(c.resilience.completed, sqls.len());
        for (i, sq) in c.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        assert_eq!(c.resilience.failovers, 0, "routing avoids the dead device");
    }

    /// The sharded result cache sits above the scatter: a warm hit
    /// launches nothing on any device in the cluster, and an append
    /// (which bumps the sharded table's epoch) invalidates it.
    #[test]
    fn sharded_cache_hits_skip_the_scatter_and_appends_invalidate() {
        let host = TweetTable::generate(12_000, 13);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated_with_capacity(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
            18_000,
        )
        .unwrap();
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 9";
        let mut server = ShardedServer::new(
            &cluster,
            &table,
            ServerConfig {
                result_cache: true,
                ..ServerConfig::default()
            },
        );
        server.submit(sql).unwrap();
        let a = server.drain();
        assert!(a.queries[0].completed() && !a.queries[0].cached);
        assert_eq!(a.resilience.cache_misses, 1);

        let logs: Vec<usize> = (0..4).map(|i| cluster.device(i).log_len()).collect();
        server.submit(sql).unwrap();
        let b = server.drain();
        assert!(b.queries[0].cached);
        assert_eq!(b.queries[0].ids, a.queries[0].ids);
        assert_eq!(b.resilience.cache_hits, 1);
        for (i, &l) in logs.iter().enumerate() {
            assert_eq!(
                cluster.device(i).log_len(),
                l,
                "hit launches nothing on device {i}"
            );
        }

        let batch = TweetTable::generate_at(700, 3, host.len() as u32);
        table.append_batch(&cluster, &batch).unwrap();
        server.submit(sql).unwrap();
        let c = server.drain();
        assert!(!c.queries[0].cached, "the append invalidated the entry");
        assert_eq!(c.resilience.cache_refreshes, 1);
        let oracle = execute_sharded(
            &cluster,
            &table,
            &parse(sql).unwrap(),
            Strategy::StageBitonic,
            2,
        )
        .unwrap();
        assert_eq!(c.queries[0].ids, oracle.ids);
    }

    #[test]
    fn r1_loss_is_loud_typed_and_rebuilt_copies_serve_later_queries() {
        let host = TweetTable::generate(10_000, 23);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.25);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 8"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 6".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 4".to_string(),
            "SELECT id FROM tweets WHERE lang='en' ORDER BY retweet_count DESC LIMIT 5".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        for s in &sqls {
            server.submit(s).unwrap();
        }
        cluster.device(1).mark_down();
        let b = server.drain();
        // every query touches the lost shard: all fail loudly — typed,
        // attributed, never truncated to the surviving shards
        assert_eq!(b.resilience.completed, 0);
        assert_eq!(b.resilience.failed, sqls.len());
        for sq in &b.queries {
            assert!(sq.ids.is_empty(), "results are never truncated");
            match &sq.error {
                Some(QdbError::DeviceFault {
                    transient, device, ..
                }) => {
                    assert!(!transient);
                    assert_eq!(*device, Some(1));
                }
                other => panic!("expected a typed device fault, got {other:?}"),
            }
        }
        // the consecutive failures tripped device 1's breaker, and the
        // lost partition was rebuilt from its pristine host copy
        assert!(b.health[1].down);
        assert!(matches!(b.health[1].state, BreakerState::Open { .. }));
        assert_eq!(b.resilience.breaker_trips, 1);
        assert_eq!(b.resilience.rebuilds, 1);
        // subsequent queries serve from the rebuilt copy, bit-exact
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let c = server.drain();
        assert_eq!(c.resilience.completed, sqls.len());
        for (i, sq) in c.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
    }

    #[test]
    fn dead_shard_fails_the_query_with_a_typed_error() {
        let host = TweetTable::generate(4_000, 13);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        // device 2's transfers always drop: the local pass (CPU rung can
        // still answer) succeeds but the delegates never arrive
        cluster.device(2).set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8").unwrap();
        let err = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 1).unwrap_err();
        assert!(
            matches!(err, QdbError::DeviceFault { .. }),
            "expected a typed device fault, got {err:?}"
        );
        cluster.device(2).clear_fault_plan();
        // with the plan cleared the same query completes
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 1).unwrap();
        assert_eq!(r.ids.len(), 8);
    }

    #[test]
    fn transfer_stalls_slow_the_query_but_keep_it_exact() {
        let host = TweetTable::generate(6_000, 21);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8").unwrap();
        let clean = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(2));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap()
        };
        let stalled = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(2));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            cluster.device(1).set_fault_plan(FaultPlan {
                stall_rate: 1.0,
                stall_delay: SimTime(250e-6),
                max_faults: usize::MAX,
                ..FaultPlan::with_seed(3)
            });
            let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
            cluster.device(1).clear_fault_plan();
            r
        };
        assert_eq!(clean.ids, stalled.ids, "stalls must not change results");
        assert!(
            stalled.sim_time.0 > clean.sim_time.0,
            "stall must show up in modeled time: {} vs {}",
            stalled.sim_time,
            clean.sim_time
        );
    }
}
