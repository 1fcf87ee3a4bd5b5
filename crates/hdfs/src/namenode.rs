//! The Namenode: namespace, block map, datanode liveness, replication
//! monitor and read/write path decisions.
//!
//! All methods are synchronous state transitions; the mediator in
//! `hog-core` provides time (heartbeat timers, transfer durations). The
//! liveness protocol mirrors HOG's:
//!
//! * while a worker runs, its datanode is `Live` (heartbeats are implicit);
//! * when the grid preempts the worker, the mediator calls
//!   [`Namenode::mark_silent`] — the node is still *believed* alive until
//!   `dead_node_timeout` (30 s in HOG, ~10 min stock) passes;
//! * a **zombie** (double-forked daemon that survived preemption, §IV-D.1)
//!   instead stays `Live` with `storage_failed = true`: the namenode keeps
//!   trusting it, reads and re-replications sourced from it fail, and only
//!   the periodic disk self-check (the paper's fix) turns it silent;
//! * [`Namenode::tick`] declares overdue nodes dead, strips their replicas
//!   and queues re-replication work, which it dispatches subject to
//!   per-node stream limits.

use crate::availability::{AvailabilitySnapshot, SiteBand};
use crate::config::HdfsConfig;
use crate::datanode::{DatanodeInfo, DnLiveness};
use crate::placement::{Candidate, PlacementPolicy};
use crate::types::{BlockId, BlockMeta, FileId, FileMeta};
use hog_net::{NodeId, Topology};
use hog_obs::{Layer, TraceEvent, Tracer};
use hog_sim_core::metrics::Counter;
use hog_sim_core::{SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A replication transfer the namenode wants executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplOrder {
    /// Block to copy.
    pub block: BlockId,
    /// Source replica holder.
    pub src: NodeId,
    /// Destination datanode.
    pub dst: NodeId,
    /// Bytes to move.
    pub bytes: u64,
}

/// Output of one namenode tick.
#[derive(Clone, Debug, Default)]
pub struct NamenodeTickOutput {
    /// Datanodes declared dead this tick.
    pub newly_dead: Vec<NodeId>,
    /// Replication transfers to start.
    pub orders: Vec<ReplOrder>,
}

/// Sentinel for "block not queued" in [`ReplQueue::bucket_of`]. `u32`
/// so every representable replica count (`expected` is `u16`, live
/// counts can briefly exceed it after report replays) maps to its own
/// bucket — the old `u16` sentinel forced a silent clamp at 65534 that
/// misfiled boundary counts into the wrong priority bucket.
const NOT_QUEUED: u32 = u32::MAX;

/// Priority-bucketed re-replication queue (Hadoop's
/// `UnderReplicatedBlocks`): queued blocks live in the bucket matching
/// their live-replica count, so the per-tick dispatch walks most-critical
/// first by concatenating buckets instead of re-sorting the whole queue
/// every tick. Membership is updated at the handful of replica-count
/// mutation sites, keeping dispatch iteration order identical to a stable
/// sort by replica count over BlockId-ascending blocks.
#[derive(Clone, Default)]
struct ReplQueue {
    /// `buckets[c]` = queued blocks with exactly `c` live replicas.
    buckets: Vec<BTreeSet<BlockId>>,
    /// Block → occupied bucket, dense by BlockId ([`NOT_QUEUED`] = absent).
    bucket_of: Vec<u32>,
    len: usize,
}

impl ReplQueue {
    /// Queue `block` under `count` live replicas, moving it if it is
    /// already queued under a stale count.
    fn insert(&mut self, block: BlockId, count: usize) {
        let idx = block.0 as usize;
        if self.bucket_of.len() <= idx {
            self.bucket_of.resize(idx + 1, NOT_QUEUED);
        }
        debug_assert!((count as u32) < NOT_QUEUED);
        let cur = self.bucket_of[idx];
        if cur as usize == count {
            return;
        }
        if cur != NOT_QUEUED {
            self.buckets[cur as usize].remove(&block);
            self.len -= 1;
        }
        if self.buckets.len() <= count {
            self.buckets.resize_with(count + 1, BTreeSet::new);
        }
        self.buckets[count].insert(block);
        self.bucket_of[idx] = count as u32;
        self.len += 1;
    }

    /// Remove `block` from the queue if present.
    fn remove(&mut self, block: BlockId) {
        let idx = block.0 as usize;
        let Some(&cur) = self.bucket_of.get(idx) else {
            return;
        };
        if cur != NOT_QUEUED {
            self.buckets[cur as usize].remove(&block);
            self.bucket_of[idx] = NOT_QUEUED;
            self.len -= 1;
        }
    }

    /// The bucket `block` currently occupies, if queued.
    fn bucket_index(&self, block: BlockId) -> Option<u32> {
        match self.bucket_of.get(block.0 as usize) {
            Some(&c) if c != NOT_QUEUED => Some(c),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued blocks, fewest-replicas bucket first, BlockId-ascending
    /// within a bucket.
    fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.buckets.iter().flat_map(|b| b.iter().copied())
    }

    /// Queued blocks in dispatch order, rotated to start at the first
    /// entry at or after `resume` in `(bucket, block)` order, wrapping
    /// around. `None` is the plain [`ReplQueue::iter`] order. Fair
    /// dispatch stores the first entry a budget-exhausted tick failed
    /// to serve and resumes there, so a standing stream of critical
    /// blocks cannot starve the high-bucket tail forever.
    fn iter_rotated(&self, resume: Option<(u32, BlockId)>) -> Vec<BlockId> {
        let mut ordered: Vec<(u32, BlockId)> = Vec::with_capacity(self.len);
        for (c, bucket) in self.buckets.iter().enumerate() {
            ordered.extend(bucket.iter().map(|&b| (c as u32, b)));
        }
        if let Some(cursor) = resume {
            let split = ordered.partition_point(|&e| e < cursor);
            ordered.rotate_left(split);
        }
        ordered.into_iter().map(|(_, b)| b).collect()
    }

    /// Structural invariant check for the proptests: every `bucket_of`
    /// entry points at a bucket actually containing the block, every
    /// bucket member is indexed back, and `len` matches. Returns a
    /// description of the first violation found.
    fn check_invariant(&self) -> Result<(), String> {
        let mut members = 0;
        for (c, bucket) in self.buckets.iter().enumerate() {
            members += bucket.len();
            for &b in bucket {
                match self.bucket_of.get(b.0 as usize) {
                    Some(&idx) if idx as usize == c => {}
                    other => {
                        return Err(format!(
                            "block {} in bucket {c} but bucket_of says {other:?}",
                            b.0
                        ));
                    }
                }
            }
        }
        for (i, &c) in self.bucket_of.iter().enumerate() {
            if c != NOT_QUEUED
                && !self
                    .buckets
                    .get(c as usize)
                    .is_some_and(|bk| bk.contains(&BlockId(i as u64)))
            {
                return Err(format!("bucket_of[{i}]={c} but bucket lacks the block"));
            }
        }
        if members != self.len {
            return Err(format!("len={} but buckets hold {members}", self.len));
        }
        Ok(())
    }
}

/// Memoized result of [`Namenode::candidates`] for the hot empty-exclude
/// allocation path (every `allocate_block` call during an upload). Valid
/// only while `epoch` matches `Namenode::dn_epoch` — bumped on every
/// datanode-record mutation — and the block size matches; `epoch` 0 never
/// matches. The cached vector is exactly what a fresh ascending scan of
/// `datanodes` would produce, so hits are bit-identical to misses.
#[derive(Clone, Default)]
struct CandCache {
    epoch: u64,
    size: u64,
    cands: Vec<Candidate>,
}

/// The HDFS master. See the module docs for the liveness protocol.
///
/// `Clone` snapshots the namenode wholesale (namespace, block map,
/// datanode records, replication queues, placement policy, rng) — the
/// master-failover checkpoint in `hog-core` is exactly such a snapshot.
#[derive(Clone)]
pub struct Namenode {
    cfg: HdfsConfig,
    policy: Box<dyn PlacementPolicy>,
    files_by_path: HashMap<String, FileId>,
    files: Vec<FileMeta>,
    blocks: Vec<BlockMeta>,
    datanodes: BTreeMap<NodeId, DatanodeInfo>,
    /// Exactly the datanodes whose liveness is `Silent`, so the per-tick
    /// death check walks suspects instead of the whole datanode map.
    /// Ascending, like a full scan of `datanodes` (audited).
    silent: BTreeSet<NodeId>,
    /// Datanodes whose liveness is `Dead`, for O(1) `reported_live`.
    dead_datanodes: usize,
    /// Generation counter for `datanodes`: any mutation of a datanode
    /// record (liveness, usage, registration) bumps it, invalidating
    /// `cand_cache`.
    dn_epoch: u64,
    cand_cache: CandCache,
    /// Blocks below their replication target, bucketed by replica count.
    needs_repl: ReplQueue,
    /// In-flight replication targets per block (counted against deficit).
    pending_repl: HashMap<BlockId, Vec<NodeId>>,
    /// Blocks holding more replicas than their per-block target, awaiting
    /// excess trims. Only ever populated on availability-policy paths —
    /// flat runs never lower a target, so this stays empty and the trim
    /// pass is a no-op.
    over_repl: BTreeSet<BlockId>,
    /// Fair-dispatch resume cursor (`cfg.repl_fairness`): the queue
    /// position of the first entry the previous budget-exhausted tick
    /// did not serve. `None` after any tick that finished its pass.
    fair_resume: Option<(u32, BlockId)>,
    /// Latest per-site availability snapshot (tells the trim pass and
    /// the boosted-block placement which sites count as stable). Soft
    /// state: deliberately not in the fsimage.
    avail_snapshot: Option<AvailabilitySnapshot>,
    /// Per-block lifetime read counters, dense by BlockId. Only bumped
    /// when the availability policy is armed; soft state.
    reads: Vec<u32>,
    rng: SimRng,
    repl_completed: Counter,
    repl_failed: Counter,
    blocks_lost: Counter,
    bad_replica_reports: Counter,
    // Counters below are outside the outcome fingerprint (which pins
    // exactly the four above) — they can grow without breaking the
    // bit-identity guarantees of existing benchmarks.
    targets_raised: Counter,
    targets_lowered: Counter,
    replicas_trimmed: Counter,
    /// Replica bytes written into HDFS, ever: pipeline commits,
    /// re-replication completions and balancer copies all count.
    bytes_written: Counter,
    /// The re-replication (repair) share of `bytes_written`.
    bytes_rereplicated: Counter,
    total_reads: Counter,
    tracer: Tracer,
}

impl Namenode {
    /// A namenode with the given config and placement policy.
    pub fn new(cfg: HdfsConfig, policy: Box<dyn PlacementPolicy>, rng: SimRng) -> Self {
        Namenode {
            cfg,
            policy,
            files_by_path: HashMap::new(),
            files: Vec::new(),
            blocks: Vec::new(),
            datanodes: BTreeMap::new(),
            silent: BTreeSet::new(),
            dead_datanodes: 0,
            dn_epoch: 1,
            cand_cache: CandCache::default(),
            needs_repl: ReplQueue::default(),
            pending_repl: HashMap::new(),
            over_repl: BTreeSet::new(),
            fair_resume: None,
            avail_snapshot: None,
            reads: Vec::new(),
            rng,
            repl_completed: Counter::new(),
            repl_failed: Counter::new(),
            blocks_lost: Counter::new(),
            bad_replica_reports: Counter::new(),
            targets_raised: Counter::new(),
            targets_lowered: Counter::new(),
            replicas_trimmed: Counter::new(),
            bytes_written: Counter::new(),
            bytes_rereplicated: Counter::new(),
            total_reads: Counter::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach the shared trace handle (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active configuration.
    pub fn config(&self) -> &HdfsConfig {
        &self.cfg
    }

    /// Swap the block placement policy (used when the policy needs
    /// topology knowledge only available after site registration, e.g.
    /// the MOON anchor site).
    pub fn set_policy(&mut self, policy: Box<dyn PlacementPolicy>) {
        self.policy = policy;
    }

    /// Retarget the replication factor of an *existing* file's blocks.
    /// Raising it queues re-replication; lowering it only stops future
    /// repairs (excess replicas are not actively deleted — Hadoop's
    /// `setrep -w` semantics minus the wait).
    pub fn set_file_replication(&mut self, file: FileId, r: u16) {
        let r = r.max(1);
        self.files[file.0 as usize].replication = r;
        let blocks = self.files[file.0 as usize].blocks.clone();
        for b in blocks {
            let meta = &mut self.blocks[b.0 as usize];
            if meta.expected == 0 {
                continue; // abandoned block
            }
            meta.expected = r;
            if meta.deficit() > 0 {
                let count = meta.replicas.len();
                self.needs_repl.insert(b, count);
            } else {
                self.needs_repl.remove(b);
            }
        }
    }

    // ------------------------------------------------------------------
    // Datanode liveness
    // ------------------------------------------------------------------

    /// Record that datanode state changed, invalidating the candidates
    /// cache. Called (conservatively, even when the mutation turns out to
    /// be a no-op) by every method that can touch a datanode record.
    #[inline]
    fn dn_changed(&mut self) {
        self.dn_epoch += 1;
    }

    /// A new datanode reported in (worker started).
    pub fn register_datanode(&mut self, now: SimTime, node: NodeId) {
        self.dn_changed();
        self.tracer
            .emit(|| TraceEvent::new(Layer::Hdfs, "dn_register").with("node", node.0));
        let old = self
            .datanodes
            .insert(node, DatanodeInfo::new(self.cfg.datanode_capacity, now));
        match old.map(|d| d.liveness) {
            Some(DnLiveness::Dead) => self.dead_datanodes -= 1,
            Some(DnLiveness::Silent) => {
                self.silent.remove(&node);
            }
            _ => {}
        }
    }

    /// The worker vanished cleanly: heartbeats stop now; death is declared
    /// after the timeout.
    pub fn mark_silent(&mut self, now: SimTime, node: NodeId) {
        self.dn_changed();
        if let Some(dn) = self.datanodes.get_mut(&node) {
            if dn.liveness == DnLiveness::Live {
                dn.liveness = DnLiveness::Silent;
                dn.last_heartbeat = now;
                self.silent.insert(node);
                self.tracer
                    .emit(|| TraceEvent::new(Layer::Hdfs, "dn_silent").with("node", node.0));
            }
        }
    }

    /// The worker was preempted but its daemon survived outside the killed
    /// process tree: heartbeats continue while storage is gone.
    pub fn mark_storage_failed(&mut self, node: NodeId) {
        self.dn_changed();
        if let Some(dn) = self.datanodes.get_mut(&node) {
            dn.storage_failed = true;
            self.tracer
                .emit(|| TraceEvent::new(Layer::Hdfs, "storage_failed").with("node", node.0));
        }
    }

    /// Whether the node's storage has failed (zombie). The *mediator* uses
    /// this to fail reads/writes; the namenode itself never consults it —
    /// zombies look healthy to it, which is the point of §IV-D.1.
    pub fn storage_failed(&self, node: NodeId) -> bool {
        self.datanodes.get(&node).is_some_and(|d| d.storage_failed)
    }

    /// Periodic tick: declare overdue silent nodes dead and dispatch
    /// replication work.
    pub fn tick(&mut self, now: SimTime, topo: &Topology) -> NamenodeTickOutput {
        let mut out = NamenodeTickOutput::default();
        // 1. Death detection. Walk only the Silent suspects
        // (`self.silent` mirrors the liveness field exactly); ascending
        // like the full-map scan this replaces, so the declaration order
        // is unchanged.
        let overdue: Vec<NodeId> = self
            .silent
            .iter()
            .copied()
            .filter(|n| {
                self.datanodes.get(n).is_some_and(|dn| {
                    now.saturating_since(dn.last_heartbeat) >= self.cfg.dead_node_timeout
                })
            })
            .collect();
        for node in overdue {
            self.declare_dead(node);
            self.tracer
                .emit(|| TraceEvent::new(Layer::Hdfs, "dn_dead").with("node", node.0));
            out.newly_dead.push(node);
        }
        // 2. Replication monitor.
        out.orders = self.dispatch_replication(topo);
        // 3. Excess-replica trims (availability policy only; `over_repl`
        // stays empty on flat runs, making this a no-op there).
        if self.cfg.availability.is_some() {
            self.dispatch_trims(topo);
        }
        for o in &out.orders {
            self.tracer.emit(|| {
                TraceEvent::new(Layer::Hdfs, "repl_order")
                    .with("block", o.block.0)
                    .with("src", o.src.0)
                    .with("dst", o.dst.0)
                    .with("bytes", o.bytes)
            });
        }
        out
    }

    fn declare_dead(&mut self, node: NodeId) {
        self.dn_changed();
        let Some(dn) = self.datanodes.get_mut(&node) else {
            return;
        };
        if dn.liveness != DnLiveness::Dead {
            self.dead_datanodes += 1;
        }
        self.silent.remove(&node);
        dn.liveness = DnLiveness::Dead;
        let hosted: Vec<BlockId> = dn.blocks.iter().copied().collect();
        dn.blocks.clear();
        dn.used = 0;
        for b in hosted {
            let meta = &mut self.blocks[b.0 as usize];
            meta.replicas.remove(&node);
            if meta.is_missing() {
                self.blocks_lost.incr();
            }
            if meta.deficit() > 0 {
                let count = meta.replicas.len();
                self.needs_repl.insert(b, count);
            }
        }
    }

    /// Number of datanodes the namenode currently believes alive (`Live`
    /// or `Silent`-within-timeout) — the "reported nodes" curve of Fig. 5.
    /// O(1): `dead_datanodes` is maintained at every liveness transition.
    pub fn reported_live(&self) -> usize {
        self.datanodes.len() - self.dead_datanodes
    }

    /// Number of datanodes heartbeating right now.
    /// O(1): everything neither dead nor on the silent suspect list.
    pub fn live_count(&self) -> usize {
        self.datanodes.len() - self.dead_datanodes - self.silent.len()
    }

    /// Whether the namenode currently believes `node` usable.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.datanodes
            .get(&node)
            .is_some_and(|d| d.liveness == DnLiveness::Live)
    }

    /// Inspect a datanode record.
    pub fn datanode(&self, node: NodeId) -> Option<&DatanodeInfo> {
        self.datanodes.get(&node)
    }

    // ------------------------------------------------------------------
    // Namespace & write path
    // ------------------------------------------------------------------

    /// Create an (empty, incomplete) file with the given replication.
    /// Panics if the path exists — experiment drivers own unique naming.
    pub fn create_file(&mut self, path: impl Into<String>, replication: u16) -> FileId {
        let path = path.into();
        assert!(
            !self.files_by_path.contains_key(&path),
            "file exists: {path}"
        );
        let id = FileId(self.files.len() as u32);
        self.files_by_path.insert(path.clone(), id);
        self.files.push(FileMeta {
            path,
            blocks: Vec::new(),
            replication,
            complete: false,
        });
        id
    }

    /// Create a file with the config's default replication.
    pub fn create_file_default(&mut self, path: impl Into<String>) -> FileId {
        let r = self.cfg.replication;
        self.create_file(path, r)
    }

    /// Allocate the next block of `file` and choose its replica pipeline.
    /// Returns `None` when no datanode can accept the block (cluster too
    /// small/full) — the caller retries later.
    pub fn allocate_block(
        &mut self,
        file: FileId,
        size: u64,
        writer: Option<NodeId>,
        topo: &Topology,
    ) -> Option<(BlockId, Vec<NodeId>)> {
        self.allocate_block_excluding(file, size, writer, &BTreeSet::new(), topo)
    }

    /// Like [`Namenode::allocate_block`], excluding datanodes the writing
    /// client has already seen fail (HDFS clients carry an excluded-nodes
    /// list across pipeline retries — without it, a zombie datanode that
    /// stays "emptiest" would be re-chosen as pipeline head forever).
    pub fn allocate_block_excluding(
        &mut self,
        file: FileId,
        size: u64,
        writer: Option<NodeId>,
        exclude: &BTreeSet<NodeId>,
        topo: &Topology,
    ) -> Option<(BlockId, Vec<NodeId>)> {
        let file_repl = self.files[file.0 as usize].replication;
        // With the availability policy armed, blocks are *born* at the
        // policy's birth target instead of the file's flat factor — the
        // retarget sweep then buys extra copies back for the blocks that
        // turn out hot or risky. Trimming alone couldn't deliver this:
        // the pipeline would still write the flat factor first.
        let repl = match &self.cfg.availability {
            Some(p) => p.birth_target(file_repl),
            None => file_repl,
        };
        // Reuse the candidate scan across back-to-back allocations (an
        // upload allocates one block per pipeline round-trip with no
        // datanode churn in between). The scan is O(all datanodes) — at
        // BENCH_scale tiers it dominates the write path without this.
        // Taking the cache out of `self` sidesteps the borrow conflict
        // with `self.policy`/`self.rng` below; an excluded-nodes retry is
        // rare, so it recomputes and leaves the cache invalidated.
        let mut cache = std::mem::take(&mut self.cand_cache);
        let usable =
            exclude.is_empty() && cache.epoch == self.dn_epoch && cache.size == size;
        if !usable {
            cache.cands.clear();
            cache.cands.extend(
                self.datanodes
                    .iter()
                    .filter(|(n, dn)| dn.can_accept(size) && !exclude.contains(n))
                    .map(|(&n, dn)| Candidate {
                        node: n,
                        site: topo.site_of(n),
                        free: dn.free(),
                    }),
            );
            if exclude.is_empty() {
                cache.epoch = self.dn_epoch;
                cache.size = size;
            } else {
                cache.epoch = 0;
            }
        }
        if cache.cands.is_empty() {
            self.cand_cache = cache;
            return None;
        }
        let targets = self
            .policy
            .choose(writer, repl as usize, &[], &cache.cands, &mut self.rng);
        self.cand_cache = cache;
        if targets.is_empty() {
            return None;
        }
        let id = BlockId(self.blocks.len() as u64);
        self.blocks.push(BlockMeta {
            file,
            size,
            replicas: BTreeSet::new(),
            expected: repl,
        });
        self.files[file.0 as usize].blocks.push(id);
        Some((id, targets))
    }

    /// The pipeline finished: record which targets actually hold the block.
    /// Fewer than `expected` enqueues re-replication.
    pub fn commit_block(&mut self, block: BlockId, written: &[NodeId]) {
        let size = self.blocks[block.0 as usize].size;
        for &n in written {
            if let Some(dn) = self.datanodes.get_mut(&n) {
                if dn.liveness != DnLiveness::Dead {
                    dn.add_block(block, size);
                    self.blocks[block.0 as usize].replicas.insert(n);
                    self.bytes_written.add(size);
                }
            }
        }
        // The only datanode state touched above is `used` on `written`,
        // and only upward — no node can become newly eligible. So instead
        // of bumping the epoch (which would invalidate the candidate cache
        // between every allocate/commit pair of an upload, i.e. exactly
        // where it matters), patch the cached entries in place: the result
        // is byte-identical to a fresh scan. The cache stays node-sorted
        // because BTreeMap iteration built it ascending and removals keep
        // relative order.
        if self.cand_cache.epoch == self.dn_epoch {
            for &n in written {
                let Ok(i) = self
                    .cand_cache
                    .cands
                    .binary_search_by_key(&n, |c| c.node)
                else {
                    continue;
                };
                match self.datanodes.get(&n) {
                    Some(dn) if dn.can_accept(self.cand_cache.size) => {
                        self.cand_cache.cands[i].free = dn.free();
                    }
                    _ => {
                        self.cand_cache.cands.remove(i);
                    }
                }
            }
        }
        let meta = &self.blocks[block.0 as usize];
        if meta.is_missing() {
            self.blocks_lost.incr();
        }
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "block_commit")
                .with("block", block.0)
                .with("replicas", meta.replicas.len())
                .with("deficit", meta.deficit())
        });
        if meta.deficit() > 0 {
            let count = meta.replicas.len();
            self.needs_repl.insert(block, count);
        }
    }

    /// Mark the file complete (write-once-read-many).
    pub fn complete_file(&mut self, file: FileId) {
        self.files[file.0 as usize].complete = true;
    }

    /// Abandon an allocated block whose write failed: drop it from its
    /// file, free any partial replicas, and stop tracking it for
    /// replication. The file simply ends up shorter.
    pub fn abandon_block(&mut self, block: BlockId) {
        self.dn_changed();
        let meta = &mut self.blocks[block.0 as usize];
        let size = meta.size;
        meta.expected = 0;
        let replicas = std::mem::take(&mut meta.replicas);
        let file = meta.file;
        for n in replicas {
            if let Some(dn) = self.datanodes.get_mut(&n) {
                dn.remove_block(block, size);
            }
        }
        self.needs_repl.remove(block);
        self.pending_repl.remove(&block);
        self.files[file.0 as usize].blocks.retain(|&b| b != block);
    }

    /// Delete a file: every replica of every block is dropped immediately.
    pub fn delete_file(&mut self, path: &str) {
        self.dn_changed();
        let Some(id) = self.files_by_path.remove(path) else {
            return;
        };
        let blocks = std::mem::take(&mut self.files[id.0 as usize].blocks);
        for b in blocks {
            let size = self.blocks[b.0 as usize].size;
            let replicas = std::mem::take(&mut self.blocks[b.0 as usize].replicas);
            for n in replicas {
                if let Some(dn) = self.datanodes.get_mut(&n) {
                    dn.remove_block(b, size);
                }
            }
            self.needs_repl.remove(b);
            self.pending_repl.remove(&b);
            // Expected 0 so the block never re-enters the repl queue.
            self.blocks[b.0 as usize].expected = 0;
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Choose the replica a reader should fetch `block` from: the reader's
    /// own datanode, else a same-site replica, else any replica (random).
    /// Returns `None` for a missing block.
    pub fn pick_read_source(
        &mut self,
        block: BlockId,
        reader: NodeId,
        topo: &Topology,
    ) -> Option<NodeId> {
        // Heat signal for the availability policy: count every read
        // *request* (retries after bad replicas included — a block that
        // keeps readers waiting is exactly the one that wants copies).
        if self.cfg.availability.is_some() {
            let idx = block.0 as usize;
            if self.reads.len() <= idx {
                self.reads.resize(idx + 1, 0);
            }
            self.reads[idx] = self.reads[idx].saturating_add(1);
            self.total_reads.incr();
        }
        let meta = &self.blocks[block.0 as usize];
        // Only consider replicas on nodes the namenode believes usable.
        let usable: Vec<NodeId> = meta
            .replicas
            .iter()
            .copied()
            .filter(|n| self.is_live(*n))
            .collect();
        if usable.is_empty() {
            return None;
        }
        if usable.contains(&reader) {
            return Some(reader);
        }
        let reader_site = topo.site_of(reader);
        let same_site: Vec<NodeId> = usable
            .iter()
            .copied()
            .filter(|&n| topo.site_of(n) == reader_site)
            .collect();
        if !same_site.is_empty() {
            return Some(*self.rng.choose(&same_site));
        }
        Some(*self.rng.choose(&usable))
    }

    /// A reader found the replica unusable (zombie node, checksum error):
    /// invalidate it and queue re-replication.
    pub fn report_bad_replica(&mut self, block: BlockId, node: NodeId) {
        self.dn_changed();
        self.bad_replica_reports.incr();
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "bad_replica")
                .with("block", block.0)
                .with("node", node.0)
        });
        let size = self.blocks[block.0 as usize].size;
        if self.blocks[block.0 as usize].replicas.remove(&node) {
            if let Some(dn) = self.datanodes.get_mut(&node) {
                dn.remove_block(block, size);
            }
            let meta = &self.blocks[block.0 as usize];
            if meta.is_missing() {
                self.blocks_lost.incr();
            }
            if meta.deficit() > 0 {
                let count = meta.replicas.len();
                self.needs_repl.insert(block, count);
            }
        }
    }

    // ------------------------------------------------------------------
    // Replication monitor
    // ------------------------------------------------------------------

    /// Eligible targets for `size` more bytes, excluding `exclude`.
    fn candidates(&self, size: u64, exclude: &BTreeSet<NodeId>, topo: &Topology) -> Vec<Candidate> {
        self.datanodes
            .iter()
            .filter(|(n, dn)| dn.can_accept(size) && !exclude.contains(n))
            .map(|(&n, dn)| Candidate {
                node: n,
                site: topo.site_of(n),
                free: dn.free(),
            })
            .collect()
    }

    /// Issue replication orders for under-replicated blocks, most-critical
    /// (fewest live replicas) first, bounded by per-node stream limits and
    /// the per-tick order budget. With `cfg.repl_fairness` the walk
    /// resumes where a budget-exhausted tick stopped instead of always
    /// restarting at bucket 0, so a standing trickle of critical blocks
    /// cannot starve higher buckets forever.
    fn dispatch_replication(&mut self, topo: &Topology) -> Vec<ReplOrder> {
        if self.needs_repl.is_empty() {
            self.fair_resume = None;
            return Vec::new();
        }
        // Priority: fewest replicas first (Hadoop's priority queues).
        // The buckets already hold that order — no per-tick sort.
        let queue: Vec<BlockId> = if self.cfg.repl_fairness {
            self.needs_repl.iter_rotated(self.fair_resume)
        } else {
            self.needs_repl.iter().collect()
        };
        let avail = self.cfg.availability;
        let mut orders = Vec::new();
        // First block the order budget refused to serve; next tick's
        // fair walk resumes there.
        let mut unserved: Option<BlockId> = None;
        for b in queue {
            if orders.len() >= self.cfg.max_repl_orders_per_tick {
                unserved = Some(b);
                break;
            }
            let meta = &self.blocks[b.0 as usize];
            let pending = self.pending_repl.get(&b).map_or(0, |v| v.len());
            let deficit = meta.deficit().saturating_sub(pending);
            if deficit == 0 {
                if pending == 0 {
                    // Fully satisfied meanwhile.
                    self.needs_repl.remove(b);
                }
                continue;
            }
            let size = meta.size;
            // A source: live replica holder with stream budget. Zombies
            // qualify — the namenode cannot tell (transfer will fail).
            // The stream check goes through `get` rather than indexing:
            // a replica map entry whose datanode record vanished (a
            // registration race) must be skipped, not panic the master.
            let srcs: Vec<NodeId> = meta
                .replicas
                .iter()
                .copied()
                .filter(|n| {
                    self.is_live(*n)
                        && self.datanodes.get(n).is_some_and(|d| {
                            d.repl_streams < self.cfg.max_repl_streams_per_node
                        })
                })
                .collect();
            if srcs.is_empty() {
                continue; // nothing usable yet; retry next tick
            }
            for _ in 0..deficit {
                // Budget exhaustion mid-block only breaks the copy loop;
                // the *outer* budget check marks the next block unserved,
                // so a partially-served block yields the fair cursor to
                // its successor instead of monopolising it.
                if orders.len() >= self.cfg.max_repl_orders_per_tick {
                    break;
                }
                let src = *self.rng.choose(&srcs);
                let src_has_stream = self
                    .datanodes
                    .get(&src)
                    .is_some_and(|d| d.repl_streams < self.cfg.max_repl_streams_per_node);
                if !src_has_stream {
                    break;
                }
                // Exclude existing replicas and in-flight targets.
                let mut exclude: BTreeSet<NodeId> =
                    self.blocks[b.0 as usize].replicas.iter().copied().collect();
                if let Some(p) = self.pending_repl.get(&b) {
                    exclude.extend(p.iter().copied());
                }
                let mut cands: Vec<Candidate> = self
                    .candidates(size, &exclude, topo)
                    .into_iter()
                    .filter(|c| {
                        self.datanodes.get(&c.node).is_some_and(|d| {
                            d.repl_streams < self.cfg.max_repl_streams_per_node
                        })
                    })
                    .collect();
                // Availability-boosted copies (target above the birth
                // target) exist to *survive*: prefer stable sites for
                // them, falling back to the full set when none qualify.
                if let (Some(p), Some(snap)) = (avail.as_ref(), self.avail_snapshot.as_ref()) {
                    let meta = &self.blocks[b.0 as usize];
                    let base = p.birth_target(self.files[meta.file.0 as usize].replication);
                    if meta.expected > base {
                        cands = crate::placement::stable_first(cands, |s| {
                            snap.classify(s, p) == SiteBand::Stable
                        });
                    }
                }
                let existing: Vec<(NodeId, hog_net::SiteId)> = self.blocks[b.0 as usize]
                    .replicas
                    .iter()
                    .map(|&n| (n, topo.site_of(n)))
                    .collect();
                let targets = self
                    .policy
                    .choose(None, 1, &existing, &cands, &mut self.rng);
                let Some(&dst) = targets.first() else { break };
                // Both ends were checked above, but re-fetch defensively:
                // a missing record between scan and order skips the order
                // instead of bringing the namenode down.
                let Some(src_dn) = self.datanodes.get_mut(&src) else {
                    break;
                };
                src_dn.repl_streams += 1;
                let Some(dst_dn) = self.datanodes.get_mut(&dst) else {
                    if let Some(s) = self.datanodes.get_mut(&src) {
                        s.repl_streams = s.repl_streams.saturating_sub(1);
                    }
                    break;
                };
                dst_dn.repl_streams += 1;
                self.pending_repl.entry(b).or_default().push(dst);
                orders.push(ReplOrder {
                    block: b,
                    src,
                    dst,
                    bytes: size,
                });
            }
        }
        self.fair_resume = if self.cfg.repl_fairness {
            // Anchor the cursor at the first unserved block's *current*
            // bucket; if it got dequeued meanwhile the rotation simply
            // starts at the next position in (bucket, block) order.
            unserved.map(|b| (self.needs_repl.bucket_index(b).unwrap_or(0), b))
        } else {
            None
        };
        orders
    }

    /// A replication transfer finished (or failed / was killed).
    pub fn repl_done(&mut self, block: BlockId, src: NodeId, dst: NodeId, success: bool) {
        self.dn_changed();
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "repl_done")
                .with("block", block.0)
                .with("src", src.0)
                .with("dst", dst.0)
                .with("ok", success)
        });
        if let Some(dn) = self.datanodes.get_mut(&src) {
            dn.repl_streams = dn.repl_streams.saturating_sub(1);
        }
        if let Some(dn) = self.datanodes.get_mut(&dst) {
            dn.repl_streams = dn.repl_streams.saturating_sub(1);
        }
        if let Some(p) = self.pending_repl.get_mut(&block) {
            if let Some(pos) = p.iter().position(|&n| n == dst) {
                p.swap_remove(pos);
            }
            if p.is_empty() {
                self.pending_repl.remove(&block);
            }
        }
        if success {
            self.repl_completed.incr();
            if self.blocks[block.0 as usize].expected == 0 {
                // The block was deleted (or abandoned) while the transfer
                // was in flight: the destination discards the copy rather
                // than resurrecting a replica of a dead block — the old
                // path leaked that replica's bytes forever.
                return;
            }
            let size = self.blocks[block.0 as usize].size;
            if let Some(dn) = self.datanodes.get_mut(&dst) {
                if dn.liveness != DnLiveness::Dead {
                    dn.add_block(block, size);
                    self.blocks[block.0 as usize].replicas.insert(dst);
                    self.bytes_written.add(size);
                    self.bytes_rereplicated.add(size);
                }
            }
            let meta = &self.blocks[block.0 as usize];
            if meta.deficit() == 0 {
                self.needs_repl.remove(block);
            } else {
                // Still deficient: re-key under the new replica count.
                let count = meta.replicas.len();
                self.needs_repl.insert(block, count);
            }
            // A target lowered while this transfer was in flight can
            // leave the block over target now; queue the excess trim.
            if self.cfg.availability.is_some() && meta.excess() > 0 {
                self.over_repl.insert(block);
            }
        } else {
            self.repl_failed.incr();
            // Stays (or re-enters) the queue if still deficient.
            let meta = &self.blocks[block.0 as usize];
            if meta.deficit() > 0 {
                let count = meta.replicas.len();
                self.needs_repl.insert(block, count);
            }
        }
    }

    // ------------------------------------------------------------------
    // Availability policy (per-block targets)
    // ------------------------------------------------------------------

    /// Re-derive a block's queue memberships from its current replica
    /// count vs target: under target → under-replication queue, over
    /// target → trim queue, deleted → neither.
    fn refresh_block_queues(&mut self, block: BlockId) {
        let meta = &self.blocks[block.0 as usize];
        if meta.expected == 0 {
            self.needs_repl.remove(block);
            self.over_repl.remove(&block);
            return;
        }
        if meta.deficit() > 0 {
            let count = meta.replicas.len();
            self.needs_repl.insert(block, count);
        } else {
            self.needs_repl.remove(block);
        }
        if meta.excess() > 0 {
            self.over_repl.insert(block);
        } else {
            self.over_repl.remove(&block);
        }
    }

    /// Retarget a single block's replication (the availability policy's
    /// per-block knob; also the handle the target-transition proptests
    /// drive). Raising queues repair; lowering queues excess-replica
    /// trims for the next monitor tick. No-op on deleted blocks.
    pub fn set_block_replication(&mut self, block: BlockId, r: u16) {
        let r = r.max(1);
        let meta = &mut self.blocks[block.0 as usize];
        if meta.expected == 0 || meta.expected == r {
            return;
        }
        if r > meta.expected {
            self.targets_raised.incr();
        } else {
            self.targets_lowered.incr();
        }
        meta.expected = r;
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "block_retarget")
                .with("block", block.0)
                .with("target", r as u64)
        });
        self.refresh_block_queues(block);
    }

    /// One availability sweep: recompute every live block's target from
    /// the policy's signals (host-site risk bands from `snapshot`, the
    /// block's read heat) through the hysteresis band, and remember the
    /// snapshot so replica placement and trims can classify sites until
    /// the next sweep. Returns `(targets raised, targets lowered)` this
    /// sweep. No-op unless the policy is armed.
    pub fn apply_availability(
        &mut self,
        snapshot: AvailabilitySnapshot,
        topo: &Topology,
    ) -> (u64, u64) {
        let Some(policy) = self.cfg.availability else {
            return (0, 0);
        };
        let before = (self.targets_raised.get(), self.targets_lowered.get());
        let mut retargets: Vec<(BlockId, u16)> = Vec::new();
        for (i, meta) in self.blocks.iter().enumerate() {
            if meta.expected == 0 {
                continue;
            }
            let base = policy.birth_target(self.files[meta.file.0 as usize].replication);
            let hosts = meta.replicas.len();
            let mut risky = 0usize;
            let mut stable = 0usize;
            for &n in &meta.replicas {
                match snapshot.classify(topo.site_of(n), &policy) {
                    SiteBand::Risky => risky += 1,
                    SiteBand::Stable => stable += 1,
                    SiteBand::Neutral => {}
                }
            }
            let reads = self.reads.get(i).copied().unwrap_or(0);
            let raw = policy.raw_target(base, reads, risky, stable, hosts);
            let new = policy.apply(meta.expected, raw);
            if new != meta.expected {
                retargets.push((BlockId(i as u64), new));
            }
        }
        for (b, r) in retargets {
            self.set_block_replication(b, r);
        }
        self.avail_snapshot = Some(snapshot);
        (
            self.targets_raised.get() - before.0,
            self.targets_lowered.get() - before.1,
        )
    }

    /// Drop one excess replica of `block` at `node` (availability trims
    /// and the balancer's shed pass). Instant metadata operation — the
    /// datanode just deletes the copy; no transfer.
    pub fn trim_replica(&mut self, block: BlockId, node: NodeId) {
        let size = self.blocks[block.0 as usize].size;
        if !self.blocks[block.0 as usize].replicas.remove(&node) {
            return;
        }
        self.dn_changed(); // frees space → candidate cache is stale
        if let Some(dn) = self.datanodes.get_mut(&node) {
            dn.remove_block(block, size);
        }
        self.replicas_trimmed.incr();
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "replica_trim")
                .with("block", block.0)
                .with("node", node.0)
        });
        self.refresh_block_queues(block);
    }

    /// Serve the excess-replica trim queue, dropping replicas from the
    /// riskiest sites first (stable copies are the ones a lowered target
    /// is betting on), bounded by the same per-tick budget as repairs.
    fn dispatch_trims(&mut self, topo: &Topology) {
        if self.over_repl.is_empty() {
            return;
        }
        let policy = self.cfg.availability;
        let blocks: Vec<BlockId> = self.over_repl.iter().copied().collect();
        let mut trimmed = 0usize;
        for b in blocks {
            if trimmed >= self.cfg.max_repl_orders_per_tick {
                break;
            }
            let meta = &self.blocks[b.0 as usize];
            let excess = meta.excess();
            if meta.expected == 0 || excess == 0 {
                self.over_repl.remove(&b);
                continue;
            }
            // Victim order: risky sites first, stable last,
            // NodeId-ascending within a band — deterministic, and keeps
            // the copies most likely to survive.
            let mut holders: Vec<(u8, NodeId)> = meta
                .replicas
                .iter()
                .map(|&n| {
                    let band = match (policy.as_ref(), self.avail_snapshot.as_ref()) {
                        (Some(p), Some(snap)) => match snap.classify(topo.site_of(n), p) {
                            SiteBand::Risky => 0u8,
                            SiteBand::Neutral => 1,
                            SiteBand::Stable => 2,
                        },
                        _ => 1,
                    };
                    (band, n)
                })
                .collect();
            holders.sort_unstable();
            let victims: Vec<NodeId> = holders.iter().take(excess).map(|&(_, n)| n).collect();
            for n in victims {
                self.trim_replica(b, n);
                trimmed += 1;
                if trimmed >= self.cfg.max_repl_orders_per_tick {
                    break;
                }
            }
        }
    }

    /// Availability-policy lifetime counters: `(targets raised, targets
    /// lowered, excess replicas trimmed)`. All zero when the policy is
    /// off. Outside the outcome fingerprint.
    pub fn availability_counters(&self) -> (u64, u64, u64) {
        (
            self.targets_raised.get(),
            self.targets_lowered.get(),
            self.replicas_trimmed.get(),
        )
    }

    /// Replica bytes ever written into HDFS: pipeline commits,
    /// re-replication completions and balancer copies.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// The repair (re-replication) share of [`Namenode::bytes_written`].
    pub fn bytes_rereplicated(&self) -> u64 {
        self.bytes_rereplicated.get()
    }

    /// Reads served since birth (0 unless the availability policy is
    /// armed — the counter is only maintained for its heat signal).
    pub fn read_count(&self) -> u64 {
        self.total_reads.get()
    }

    /// Lifetime read count of one block (0 unless the policy is armed).
    pub fn block_reads(&self, block: BlockId) -> u32 {
        self.reads.get(block.0 as usize).copied().unwrap_or(0)
    }

    /// Count of blocks currently queued for excess-replica trims.
    pub fn over_replicated_count(&self) -> usize {
        self.over_repl.len()
    }

    /// Structural check of the replication queues for the proptests:
    /// the bucket index of every queued block must equal its live
    /// replica count, no queue entry may reference a deleted block, and
    /// the queue's internal index must be self-consistent.
    #[doc(hidden)]
    pub fn debug_queue_invariant(&self) -> Result<(), String> {
        self.needs_repl.check_invariant()?;
        for b in self.needs_repl.iter() {
            let meta = &self.blocks[b.0 as usize];
            if meta.expected == 0 {
                return Err(format!("deleted block {} still queued for repair", b.0));
            }
            let bucket = self.needs_repl.bucket_index(b).unwrap_or(NOT_QUEUED);
            if bucket as usize != meta.replicas.len() {
                return Err(format!(
                    "block {} queued in bucket {bucket} but has {} live replicas",
                    b.0,
                    meta.replicas.len()
                ));
            }
        }
        for &b in &self.over_repl {
            if self.blocks[b.0 as usize].expected == 0 {
                return Err(format!("deleted block {} still queued for trims", b.0));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries & metrics
    // ------------------------------------------------------------------

    /// Resolve a path.
    pub fn file_by_path(&self, path: &str) -> Option<FileId> {
        self.files_by_path.get(path).copied()
    }

    /// File metadata.
    pub fn file(&self, id: FileId) -> &FileMeta {
        &self.files[id.0 as usize]
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        &self.blocks[id.0 as usize]
    }

    /// Blocks of a file, in order.
    pub fn blocks_of(&self, file: FileId) -> &[BlockId] {
        &self.files[file.0 as usize].blocks
    }

    /// Count of blocks currently under-replicated.
    pub fn under_replicated_count(&self) -> usize {
        self.needs_repl.len()
    }

    /// Count of blocks with zero live replicas right now.
    pub fn missing_block_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.expected > 0 && b.is_missing())
            .count()
    }

    /// Lifetime counters: completed and failed replication transfers,
    /// block-loss events, bad-replica reports.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.repl_completed.get(),
            self.repl_failed.get(),
            self.blocks_lost.get(),
            self.bad_replica_reports.get(),
        )
    }

    /// Total bytes stored across live datanodes.
    pub fn total_used(&self) -> u64 {
        self.datanodes
            .values()
            .filter(|d| d.liveness != DnLiveness::Dead)
            .map(|d| d.used)
            .sum()
    }

    /// All datanodes and their records (for the balancer and reports).
    pub fn datanodes(&self) -> impl Iterator<Item = (NodeId, &DatanodeInfo)> {
        self.datanodes.iter().map(|(&n, d)| (n, d))
    }

    /// A silenced datanode resumed heartbeating (network partition healed
    /// before the dead-node timeout fired). Only `Silent` nodes revive;
    /// once declared `Dead` the node must re-register from scratch — its
    /// blocks were already dropped and queued for re-replication.
    pub fn mark_live(&mut self, now: SimTime, node: NodeId) {
        self.dn_changed();
        if let Some(dn) = self.datanodes.get_mut(&node) {
            if dn.liveness == DnLiveness::Silent {
                dn.liveness = DnLiveness::Live;
                dn.last_heartbeat = now;
                self.silent.remove(&node);
                self.tracer
                    .emit(|| TraceEvent::new(Layer::Hdfs, "dn_revived").with("node", node.0));
            }
        }
    }

    // ------------------------------------------------------------------
    // Master failover & recovery
    // ------------------------------------------------------------------

    /// A datanode (re-)introduces itself to a freshly promoted namenode
    /// and replays its block report: the node's replica set is rebuilt
    /// from the reported truth, discarding whatever the checkpoint
    /// believed this node held. Blocks the restored namespace does not
    /// know (allocated inside the lost edit window, or abandoned) are
    /// *orphans* — the datanode is told to discard them. Returns
    /// `(accepted, orphaned)` replica counts.
    ///
    /// Queue state is not touched here; the promoting mediator calls
    /// [`Namenode::rebuild_replication_state`] once after the last report.
    pub fn replay_block_report(
        &mut self,
        now: SimTime,
        node: NodeId,
        report: &[BlockId],
    ) -> (usize, usize) {
        self.dn_changed();
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Hdfs, "dn_block_report")
                .with("node", node.0)
                .with("blocks", report.len())
        });
        let cap = self.cfg.datanode_capacity;
        let dn = self
            .datanodes
            .entry(node)
            .or_insert_with(|| DatanodeInfo::new(cap, now));
        match dn.liveness {
            DnLiveness::Dead => self.dead_datanodes -= 1,
            DnLiveness::Silent => {
                self.silent.remove(&node);
            }
            DnLiveness::Live => {}
        }
        dn.liveness = DnLiveness::Live;
        dn.last_heartbeat = now;
        dn.storage_failed = false;
        dn.repl_streams = 0;
        let stale: Vec<BlockId> = dn.blocks.iter().copied().collect();
        dn.blocks.clear();
        dn.used = 0;
        for b in stale {
            self.blocks[b.0 as usize].replicas.remove(&node);
        }
        let mut accepted = 0;
        let mut orphaned = 0;
        // Re-borrow the record once for the whole report instead of an
        // unwrap per block: `datanodes` and `blocks` are disjoint
        // fields, so both can be borrowed through `self` concurrently.
        let dn = self
            .datanodes
            .get_mut(&node)
            .expect("replay_block_report: record was (re)inserted above");
        for &b in report {
            let known =
                (b.0 as usize) < self.blocks.len() && self.blocks[b.0 as usize].expected > 0;
            if known {
                let size = self.blocks[b.0 as usize].size;
                self.blocks[b.0 as usize].replicas.insert(node);
                dn.add_block(b, size);
                accepted += 1;
            } else {
                self.bad_replica_reports.incr();
                orphaned += 1;
            }
        }
        (accepted, orphaned)
    }

    /// Rebuild the replication monitor's queues from the block map after
    /// a failover: in-flight transfer bookkeeping inherited from the
    /// checkpoint is meaningless (those transfers belonged to the dead
    /// master), so pending targets and stream counts reset and the
    /// under-replication queue is rescanned from replica deficits.
    pub fn rebuild_replication_state(&mut self) {
        self.dn_changed();
        self.pending_repl.clear();
        for dn in self.datanodes.values_mut() {
            dn.repl_streams = 0;
        }
        self.needs_repl = ReplQueue::default();
        self.fair_resume = None;
        let deficient: Vec<(BlockId, usize)> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, m)| m.expected > 0 && m.deficit() > 0)
            .map(|(i, m)| (BlockId(i as u64), m.replicas.len()))
            .collect();
        for (b, count) in deficient {
            self.needs_repl.insert(b, count);
        }
        // The trim queue is soft state too: rescan it from excess
        // counts (replayed block reports can legitimately restore more
        // replicas than a lowered target wants).
        self.over_repl.clear();
        if self.cfg.availability.is_some() {
            for (i, m) in self.blocks.iter().enumerate() {
                if m.expected > 0 && m.excess() > 0 {
                    self.over_repl.insert(BlockId(i as u64));
                }
            }
        }
    }

    /// Deterministic serialization of the full namenode state (the
    /// checkpoint "fsimage"): namespace, block map, datanode records and
    /// replication queues, in fixed id order. Two namenodes with equal
    /// logical state produce byte-identical images, so the failover
    /// round-trip tests compare these strings directly.
    pub fn export_fsimage(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fsimage v1 files={} blocks={} datanodes={} repl={}",
            self.files.len(),
            self.blocks.len(),
            self.datanodes.len(),
            self.cfg.replication
        );
        for (i, f) in self.files.iter().enumerate() {
            let blocks: Vec<u64> = f.blocks.iter().map(|b| b.0).collect();
            let _ = writeln!(
                s,
                "file {i} path={} r={} complete={} blocks={blocks:?}",
                f.path, f.replication, f.complete
            );
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let replicas: Vec<u32> = b.replicas.iter().map(|n| n.0).collect();
            let _ = writeln!(
                s,
                "block {i} file={} size={} expected={} replicas={replicas:?}",
                b.file.0, b.size, b.expected
            );
        }
        for (n, dn) in &self.datanodes {
            let blocks: Vec<u64> = dn.blocks.iter().map(|b| b.0).collect();
            let _ = writeln!(
                s,
                "dn {} cap={} used={} hb={:?} live={:?} sf={} streams={} blocks={blocks:?}",
                n.0,
                dn.capacity,
                dn.used,
                dn.last_heartbeat,
                dn.liveness,
                dn.storage_failed,
                dn.repl_streams
            );
        }
        let queued: Vec<u64> = self.needs_repl.iter().map(|b| b.0).collect();
        let _ = writeln!(s, "needs_repl={queued:?}");
        let mut pending: Vec<(u64, Vec<u32>)> = self
            .pending_repl
            .iter()
            .map(|(b, v)| (b.0, v.iter().map(|n| n.0).collect()))
            .collect();
        pending.sort();
        let _ = writeln!(s, "pending_repl={pending:?}");
        let _ = writeln!(
            s,
            "counters={:?}",
            (
                self.repl_completed.get(),
                self.repl_failed.get(),
                self.blocks_lost.get(),
                self.bad_replica_reports.get()
            )
        );
        s
    }

    /// Fault injection (hog-chaos): corrupt a datanode's `used` accounting
    /// by `delta` bytes without touching its block set, so the next audit
    /// must flag the divergence. Test-only; never called by the simulation
    /// itself.
    #[doc(hidden)]
    pub fn debug_skew_used(&mut self, node: NodeId, delta: u64) {
        self.dn_changed();
        if let Some(dn) = self.datanodes.get_mut(&node) {
            dn.used += delta;
        }
    }
}

impl hog_sim_core::Auditable for Namenode {
    /// Cross-check the namenode's two views of the cluster: the per-block
    /// replica map and the per-datanode block/usage accounting must agree
    /// exactly, dead datanodes must hold nothing, and no datanode may
    /// claim more bytes than its capacity.
    fn audit(&self) -> Vec<hog_sim_core::Violation> {
        use hog_sim_core::Violation;
        let mut out = Vec::new();
        for (&n, dn) in &self.datanodes {
            let tallied: u64 = dn
                .blocks
                .iter()
                .map(|b| self.blocks[b.0 as usize].size)
                .sum();
            if tallied != dn.used {
                out.push(Violation::new(
                    "hdfs",
                    format!(
                        "datanode {} accounting skew: used={} but hosted blocks total {}",
                        n.0, dn.used, tallied
                    ),
                ));
            }
            if dn.used > dn.capacity {
                out.push(Violation::new(
                    "hdfs",
                    format!(
                        "datanode {} over capacity: used={} capacity={}",
                        n.0, dn.used, dn.capacity
                    ),
                ));
            }
            if dn.liveness == DnLiveness::Dead && (!dn.blocks.is_empty() || dn.used != 0) {
                out.push(Violation::new(
                    "hdfs",
                    format!(
                        "dead datanode {} still accounts {} block(s) / {} bytes",
                        n.0,
                        dn.blocks.len(),
                        dn.used
                    ),
                ));
            }
            for &b in &dn.blocks {
                if !self.blocks[b.0 as usize].replicas.contains(&n) {
                    out.push(Violation::new(
                        "hdfs",
                        format!(
                            "datanode {} hosts block {} missing from the block map",
                            n.0, b.0
                        ),
                    ));
                }
            }
        }
        for (i, meta) in self.blocks.iter().enumerate() {
            for &n in &meta.replicas {
                match self.datanodes.get(&n) {
                    None => out.push(Violation::new(
                        "hdfs",
                        format!("block {i} lists unknown datanode {}", n.0),
                    )),
                    Some(dn) if dn.liveness == DnLiveness::Dead => out.push(Violation::new(
                        "hdfs",
                        format!("block {i} lists dead datanode {} as replica", n.0),
                    )),
                    Some(dn) if !dn.blocks.contains(&BlockId(i as u64)) => {
                        out.push(Violation::new(
                            "hdfs",
                            format!("block {i} lists datanode {} which does not host it", n.0),
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        // The silent suspect set and dead counter must mirror the
        // per-datanode liveness fields exactly.
        let silent_recount: BTreeSet<NodeId> = self
            .datanodes
            .iter()
            .filter(|(_, dn)| dn.liveness == DnLiveness::Silent)
            .map(|(&n, _)| n)
            .collect();
        if silent_recount != self.silent {
            out.push(Violation::new(
                "hdfs",
                format!(
                    "silent-datanode set drifted: cached {}, recounted {}",
                    self.silent.len(),
                    silent_recount.len()
                ),
            ));
        }
        let dead_recount = self
            .datanodes
            .values()
            .filter(|d| d.liveness == DnLiveness::Dead)
            .count();
        if dead_recount != self.dead_datanodes {
            out.push(Violation::new(
                "hdfs",
                format!(
                    "dead-datanode count drifted: cached {}, recounted {dead_recount}",
                    self.dead_datanodes
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::SiteAwarePolicy;

    /// 3 sites × `per_site` nodes, all registered as datanodes at t=0.
    fn setup(per_site: u32, cfg: HdfsConfig) -> (Namenode, Topology, Vec<NodeId>) {
        let mut topo = Topology::new();
        let mut nodes = Vec::new();
        for s in 0..3 {
            let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
            for _ in 0..per_site {
                nodes.push(topo.add_node(site));
            }
        }
        let mut nn = Namenode::new(cfg, Box::new(SiteAwarePolicy), SimRng::seed_from_u64(11));
        for &n in &nodes {
            nn.register_datanode(SimTime::ZERO, n);
        }
        (nn, topo, nodes)
    }

    fn write_file(
        nn: &mut Namenode,
        topo: &Topology,
        path: &str,
        blocks: usize,
        block_size: u64,
    ) -> FileId {
        let f = nn.create_file_default(path);
        for _ in 0..blocks {
            let (b, targets) = nn.allocate_block(f, block_size, None, topo).unwrap();
            nn.commit_block(b, &targets);
        }
        nn.complete_file(f);
        f
    }

    #[test]
    fn write_and_read_round_trip() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 5, 64 << 20);
        assert_eq!(nn.blocks_of(f).len(), 5);
        let blocks: Vec<BlockId> = nn.blocks_of(f).to_vec();
        for b in blocks {
            assert_eq!(nn.block(b).replicas.len(), 3);
            let src = nn.pick_read_source(b, nodes[0], &topo).unwrap();
            assert!(nn.block(b).replicas.contains(&src));
        }
        assert_eq!(nn.under_replicated_count(), 0);
    }

    #[test]
    fn read_prefers_local_then_site() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 1, 1024);
        let b = nn.blocks_of(f)[0];
        let holder = *nn.block(b).replicas.iter().next().unwrap();
        // Local read.
        assert_eq!(nn.pick_read_source(b, holder, &topo), Some(holder));
        // Same-site read when the reader isn't a holder.
        let reader = nodes
            .iter()
            .copied()
            .find(|&n| !nn.block(b).replicas.contains(&n))
            .unwrap();
        let reader_site = topo.site_of(reader);
        let src = nn.pick_read_source(b, reader, &topo).unwrap();
        let has_same_site = nn
            .block(b)
            .replicas
            .iter()
            .any(|&r| topo.site_of(r) == reader_site);
        if has_same_site {
            assert_eq!(topo.site_of(src), reader_site);
        }
    }

    #[test]
    fn silent_nodes_die_after_timeout_and_rereplication_kicks_in() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 4, 64 << 20);
        let victim = *nn.block(nn.blocks_of(f)[0]).replicas.iter().next().unwrap();
        nn.mark_silent(SimTime::from_secs(100), victim);
        // Before the timeout nothing happens.
        let out = nn.tick(SimTime::from_secs(110), &topo);
        assert!(out.newly_dead.is_empty());
        assert_eq!(nn.reported_live(), nodes.len());
        // After 30 s it is declared dead and repl orders flow.
        let out = nn.tick(SimTime::from_secs(131), &topo);
        assert_eq!(out.newly_dead, vec![victim]);
        assert_eq!(nn.reported_live(), nodes.len() - 1);
        assert!(!out.orders.is_empty(), "under-replicated blocks need work");
        for o in &out.orders {
            assert_ne!(o.src, victim);
            assert_ne!(o.dst, victim);
            assert!(nn.block(o.block).replicas.contains(&o.src));
        }
        // Completing the orders restores full replication.
        let orders = out.orders.clone();
        for o in orders {
            nn.repl_done(o.block, o.src, o.dst, true);
        }
        // May need more ticks if stream limits staggered the work.
        for i in 0..20 {
            let out = nn.tick(SimTime::from_secs(140 + i), &topo);
            for o in out.orders {
                nn.repl_done(o.block, o.src, o.dst, true);
            }
        }
        assert_eq!(nn.under_replicated_count(), 0);
        assert_eq!(nn.missing_block_count(), 0);
    }

    #[test]
    fn stock_timeout_is_slow() {
        let cfg = HdfsConfig::stock();
        let (mut nn, topo, _) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 1, 1024);
        let victim = *nn.block(nn.blocks_of(f)[0]).replicas.iter().next().unwrap();
        nn.mark_silent(SimTime::from_secs(0), victim);
        let out = nn.tick(SimTime::from_secs(600), &topo);
        assert!(out.newly_dead.is_empty(), "stock waits ~10.5 min");
        let out = nn.tick(SimTime::from_secs(631), &topo);
        assert_eq!(out.newly_dead, vec![victim]);
    }

    #[test]
    fn losing_all_replicas_counts_missing_blocks() {
        let cfg = HdfsConfig::hog().with_replication(2);
        let (mut nn, topo, _) = setup(1, cfg); // 3 nodes total
        let f = write_file(&mut nn, &topo, "/in/a", 2, 1024);
        let holders: Vec<NodeId> = nn
            .block(nn.blocks_of(f)[0])
            .replicas
            .iter()
            .copied()
            .collect();
        for h in &holders {
            nn.mark_silent(SimTime::ZERO, *h);
        }
        nn.tick(SimTime::from_secs(31), &topo);
        assert!(nn.missing_block_count() >= 1);
        let (_, _, lost, _) = nn.counters();
        assert!(lost >= 1);
    }

    #[test]
    fn zombie_keeps_reporting_but_reads_fail_and_heal() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 1, 1024);
        let b = nn.blocks_of(f)[0];
        let zombie = *nn.block(b).replicas.iter().next().unwrap();
        nn.mark_storage_failed(zombie);
        // Zombie still looks alive.
        nn.tick(SimTime::from_secs(120), &topo);
        assert!(nn.is_live(zombie));
        assert!(nn.storage_failed(zombie));
        // A reader hits it, fails, reports: the replica is invalidated.
        nn.report_bad_replica(b, zombie);
        assert!(!nn.block(b).replicas.contains(&zombie));
        assert_eq!(nn.under_replicated_count(), 1);
        // Re-replication restores 3 replicas elsewhere.
        for i in 0..10 {
            let out = nn.tick(SimTime::from_secs(130 + i), &topo);
            for o in out.orders {
                nn.repl_done(o.block, o.src, o.dst, true);
            }
        }
        assert_eq!(nn.block(b).replicas.len(), 3);
        let _ = nodes;
    }

    #[test]
    fn partial_pipeline_commit_queues_repair() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, _) = setup(4, cfg);
        let f = nn.create_file_default("/in/a");
        let (b, targets) = nn.allocate_block(f, 1024, None, &topo).unwrap();
        assert_eq!(targets.len(), 3);
        nn.commit_block(b, &targets[..2]); // one pipeline member failed
        assert_eq!(nn.under_replicated_count(), 1);
        let out = nn.tick(SimTime::from_secs(1), &topo);
        assert_eq!(out.orders.len(), 1);
    }

    #[test]
    fn delete_file_frees_space_and_cancels_repair() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, _) = setup(4, cfg);
        write_file(&mut nn, &topo, "/in/a", 3, 1 << 20);
        assert!(nn.total_used() > 0);
        nn.delete_file("/in/a");
        assert_eq!(nn.total_used(), 0);
        assert_eq!(nn.under_replicated_count(), 0);
        assert!(nn.file_by_path("/in/a").is_none());
    }

    #[test]
    fn allocation_fails_gracefully_when_full() {
        let cfg = HdfsConfig::hog().with_replication(3).with_capacity(1000);
        let (mut nn, topo, _) = setup(1, cfg);
        let f = nn.create_file_default("/big");
        // First block fits.
        let (b, t) = nn.allocate_block(f, 900, None, &topo).unwrap();
        nn.commit_block(b, &t);
        // Second cannot (nodes have ≤100 free).
        assert!(nn.allocate_block(f, 900, None, &topo).is_none());
    }

    #[test]
    fn stream_limits_bound_concurrent_replication() {
        let mut cfg = HdfsConfig::hog().with_replication(3);
        cfg.max_repl_streams_per_node = 1;
        cfg.max_repl_orders_per_tick = 1000;
        let (mut nn, topo, _) = setup(6, cfg);
        write_file(&mut nn, &topo, "/in/a", 12, 1 << 20);
        // Kill one replica holder of many blocks.
        let victim = nn
            .datanodes()
            .max_by_key(|(_, d)| d.blocks.len())
            .map(|(n, _)| n)
            .unwrap();
        nn.mark_silent(SimTime::ZERO, victim);
        let out = nn.tick(SimTime::from_secs(31), &topo);
        // With stream limit 1 per node, each node sources or sinks ≤ 1.
        let mut uses: HashMap<NodeId, usize> = HashMap::new();
        for o in &out.orders {
            *uses.entry(o.src).or_default() += 1;
            *uses.entry(o.dst).or_default() += 1;
        }
        assert!(uses.values().all(|&c| c <= 1), "stream limit violated");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cfg = HdfsConfig::hog().with_replication(5);
            let (mut nn, topo, _) = setup(4, cfg);
            let f = write_file(&mut nn, &topo, "/in/a", 6, 1 << 20);
            nn.blocks_of(f)
                .iter()
                .map(|&b| format!("{:?}", nn.block(b).replicas))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repl_queue_boundary_counts_file_into_correct_buckets() {
        // Regression: the old `u16` sentinel clamped counts at 65534,
        // misfiling 65535+ into bucket 65534 (wrong priority order).
        let mut q = ReplQueue::default();
        q.insert(BlockId(1), 65_534);
        q.insert(BlockId(2), 65_535);
        q.insert(BlockId(3), 70_000);
        q.insert(BlockId(4), 3);
        assert_eq!(q.bucket_index(BlockId(2)), Some(65_535));
        assert_eq!(q.bucket_index(BlockId(3)), Some(70_000));
        let order: Vec<u64> = q.iter().map(|b| b.0).collect();
        assert_eq!(order, vec![4, 1, 2, 3], "priority must follow true counts");
        q.remove(BlockId(3));
        assert_eq!(q.len(), 3);
        assert!(q.check_invariant().is_ok());
    }

    #[test]
    fn fair_dispatch_prevents_low_bucket_starvation() {
        // Two deficient blocks, an order budget of 1, and transfers
        // that keep failing: legacy dispatch restarts at bucket 0 every
        // tick and serves the 1-replica block forever; fair dispatch
        // rotates so the 2-replica block gets its turn.
        let serve = |fair: bool| -> Vec<u64> {
            let mut cfg = HdfsConfig::hog().with_replication(3);
            cfg.max_repl_orders_per_tick = 1;
            if fair {
                cfg = cfg.with_repl_fairness();
            }
            let (mut nn, topo, _) = setup(4, cfg);
            let fa = nn.create_file_default("/a");
            let (ba, ta) = nn.allocate_block(fa, 1024, None, &topo).unwrap();
            nn.commit_block(ba, &ta[..1]); // bucket 1
            let fb = nn.create_file_default("/b");
            let (bb, tb) = nn.allocate_block(fb, 1024, None, &topo).unwrap();
            nn.commit_block(bb, &tb[..2]); // bucket 2
            let mut served = Vec::new();
            for i in 0..6 {
                let out = nn.tick(SimTime::from_secs(1 + i), &topo);
                for o in out.orders {
                    served.push(o.block.0);
                    nn.repl_done(o.block, o.src, o.dst, false);
                }
            }
            served
        };
        let legacy = serve(false);
        assert!(
            legacy.iter().all(|&b| b == legacy[0]),
            "legacy order drains the lowest bucket only: {legacy:?}"
        );
        let fair = serve(true);
        let unique: BTreeSet<u64> = fair.iter().copied().collect();
        assert_eq!(unique.len(), 2, "fair dispatch serves both blocks: {fair:?}");
    }

    #[test]
    fn delete_mid_replication_scan_does_not_resurrect_replicas() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, _) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 3, 1 << 20);
        let victim = *nn.block(nn.blocks_of(f)[0]).replicas.iter().next().unwrap();
        nn.mark_silent(SimTime::ZERO, victim);
        let out = nn.tick(SimTime::from_secs(31), &topo);
        assert!(!out.orders.is_empty());
        // The file vanishes while the repair transfers are in flight.
        nn.delete_file("/in/a");
        assert_eq!(nn.total_used(), 0);
        for o in out.orders {
            nn.repl_done(o.block, o.src, o.dst, true);
        }
        // Late completions must not resurrect replicas of deleted
        // blocks (the old path leaked those bytes forever).
        assert_eq!(nn.total_used(), 0, "deleted block's bytes leaked back");
        assert_eq!(nn.under_replicated_count(), 0);
        assert!(hog_sim_core::Auditable::audit(&nn).is_empty());
        assert!(nn.debug_queue_invariant().is_ok());
    }

    #[test]
    fn armed_policy_births_blocks_at_birth_target() {
        use crate::availability::AvailabilityPolicy;
        let cfg = HdfsConfig::hog().with_availability(AvailabilityPolicy::trua_default());
        let (mut nn, topo, _) = setup(4, cfg); // file repl 10, birth 6
        let f = write_file(&mut nn, &topo, "/in/a", 1, 1 << 20);
        let b = nn.blocks_of(f)[0];
        assert_eq!(nn.block(b).expected, 6);
        assert_eq!(nn.block(b).replicas.len(), 6);
        assert_eq!(nn.under_replicated_count(), 0);
    }

    #[test]
    fn lowering_block_target_trims_excess() {
        use crate::availability::AvailabilityPolicy;
        let cfg = HdfsConfig::hog()
            .with_replication(6)
            .with_availability(AvailabilityPolicy::trua_default());
        let (mut nn, topo, _) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 2, 1 << 20);
        let b = nn.blocks_of(f)[0];
        assert_eq!(nn.block(b).replicas.len(), 6);
        nn.set_block_replication(b, 4);
        assert_eq!(nn.over_replicated_count(), 1);
        nn.tick(SimTime::from_secs(1), &topo);
        assert_eq!(nn.block(b).replicas.len(), 4);
        assert_eq!(nn.over_replicated_count(), 0);
        let (_, lowered, trimmed) = nn.availability_counters();
        assert_eq!((lowered, trimmed), (1, 2));
        assert!(nn.debug_queue_invariant().is_ok());
    }

    #[test]
    fn availability_sweep_raises_hot_and_lowers_cold_stable() {
        use crate::availability::{AvailabilityPolicy, AvailabilitySnapshot, SiteRisk};
        let cfg = HdfsConfig::hog().with_availability(AvailabilityPolicy::trua_default());
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 2, 1 << 20);
        let (hot, cold) = (nn.blocks_of(f)[0], nn.blocks_of(f)[1]);
        for _ in 0..3 {
            nn.pick_read_source(hot, nodes[0], &topo);
        }
        assert_eq!(nn.block_reads(hot), 3);
        // Every site stable: the hot block buys copies, the cold sheds.
        let stable = AvailabilitySnapshot {
            sites: vec![
                SiteRisk {
                    penalty: 0.0,
                    lifetime_secs: 7200.0
                };
                3
            ],
        };
        let (raised, lowered) = nn.apply_availability(stable, &topo);
        assert_eq!((raised, lowered), (1, 1));
        assert_eq!(nn.block(hot).expected, 8); // birth 6 + hot boost 2
        assert_eq!(nn.block(cold).expected, 4); // birth 6 - stable drop 2
        // Every site risky: both blocks buy protection.
        let risky = AvailabilitySnapshot {
            sites: vec![
                SiteRisk {
                    penalty: 5.0,
                    lifetime_secs: 600.0
                };
                3
            ],
        };
        let (raised, _) = nn.apply_availability(risky, &topo);
        assert_eq!(raised, 2);
        assert_eq!(nn.block(hot).expected, 10); // 6 + hot 2 + risky 2
        assert_eq!(nn.block(cold).expected, 8); // 6 + risky 2
        assert!(nn.debug_queue_invariant().is_ok());
    }

    #[test]
    fn reads_not_counted_without_policy() {
        let cfg = HdfsConfig::hog().with_replication(3);
        let (mut nn, topo, nodes) = setup(4, cfg);
        let f = write_file(&mut nn, &topo, "/in/a", 1, 1024);
        let b = nn.blocks_of(f)[0];
        nn.pick_read_source(b, nodes[0], &topo);
        assert_eq!(nn.read_count(), 0);
        assert_eq!(nn.block_reads(b), 0);
    }

    mod target_transition_props {
        use super::*;
        use crate::availability::AvailabilityPolicy;
        use proptest::prelude::*;

        proptest! {
            /// Raising/lowering per-block targets mid-run — interleaved
            /// with failures, repairs and monitor ticks — must keep the
            /// queue invariant (bucket index == live replica count, no
            /// orphaned entries), and lowered targets must eventually
            /// trim all excess replicas.
            #[test]
            fn prop_target_transitions_keep_queue_invariant(
                ops in proptest::collection::vec((0u8..4, 0u64..8, 1u16..14), 1..50),
            ) {
                let cfg = HdfsConfig::hog()
                    .with_replication(3)
                    .with_availability(AvailabilityPolicy::trua_default());
                let (mut nn, topo, _) = setup(4, cfg);
                let f = write_file(&mut nn, &topo, "/in/a", 6, 1 << 20);
                let blocks: Vec<BlockId> = nn.blocks_of(f).to_vec();
                let mut t = 0u64;
                for (op, bi, r) in ops {
                    let b = blocks[(bi as usize) % blocks.len()];
                    match op {
                        0 => nn.set_block_replication(b, r),
                        1 => {
                            if let Some(&n) = nn.block(b).replicas.iter().next() {
                                nn.report_bad_replica(b, n);
                            }
                        }
                        2 => {
                            t += 1;
                            let out = nn.tick(SimTime::from_secs(t), &topo);
                            for o in out.orders {
                                // Mix successes and failures deterministically.
                                let ok = !(o.block.0 + o.dst.0 as u64 + t).is_multiple_of(3);
                                nn.repl_done(o.block, o.src, o.dst, ok);
                            }
                        }
                        _ => {
                            t += 1;
                            nn.tick(SimTime::from_secs(t), &topo);
                        }
                    }
                    if let Err(e) = nn.debug_queue_invariant() {
                        prop_assert!(false, "queue invariant broken: {e}");
                    }
                }
                // Lowering every target must eventually clear all excess.
                for &b in &blocks {
                    nn.set_block_replication(b, 1);
                }
                for _ in 0..25 {
                    t += 1;
                    let out = nn.tick(SimTime::from_secs(t), &topo);
                    for o in out.orders {
                        nn.repl_done(o.block, o.src, o.dst, true);
                    }
                }
                prop_assert_eq!(nn.over_replicated_count(), 0);
                for &b in &blocks {
                    prop_assert_eq!(nn.block(b).excess(), 0);
                }
                if let Err(e) = nn.debug_queue_invariant() {
                    prop_assert!(false, "queue invariant broken after drain: {e}");
                }
            }
        }
    }
}
