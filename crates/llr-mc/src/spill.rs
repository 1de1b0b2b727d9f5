//! The disk stores of the breadth-first driver: a spill-to-disk visited
//! set ([`SpillSet`]) **and** a spill-to-disk layer store
//! ([`DiskLayers`]).
//!
//! Over the RAM stores of [`crate::engine`], the driver holds every
//! visited state key in a sharded map and every frontier state fully
//! materialized, so its ceiling is the host's memory — first through the
//! visited set (grows with *total* states), then through the frontier
//! (grows with the *widest layer*). These stores lift both ceilings
//! without changing the driver's counts or violation schedules:
//!
//! * Dedup is by 128-bit state hash (the same
//!   [`hash128`](crate::hash::hash128) as
//!   [`ModelChecker::hashed_dedup`](crate::ModelChecker::hashed_dedup));
//!   hashes are partitioned into the engine's 64 shards by their top
//!   bits.
//! * Recently discovered hashes live in an **in-RAM delta** (one
//!   `HashSet` per shard). Workers consult only this delta during layer
//!   expansion — never the disk — so the concurrent phase stays
//!   lock-free on the read side and does zero I/O.
//! * When the delta exceeds its budget half it is **flushed**: each
//!   shard's hashes are sorted and appended as one immutable run file. A
//!   shard accumulating too many runs is **compacted** by a streaming
//!   k-way merge into a single run.
//! * A state rediscovered after its hash was flushed is caught one layer
//!   later: each layer's candidate states (the pending set, minus the
//!   delta) are sorted per shard and **merge-joined against every run**
//!   in one sequential pass per run file ([`Visited::probe_old`]);
//!   candidates found on disk are dropped before ids are assigned, and a
//!   POR-reduced state whose ample successor was among them gets the
//!   driver's join-time proviso patch-up.
//! * The **frontier lives in per-layer files** ([`crate::frontier`]):
//!   each layer is an append-only file of fixed-size records (state id,
//!   per-slot done flags and machine intern ids, register-file
//!   snapshot), written in id order — which *is* `(parent, via)` order —
//!   so writes are streaming. Expansion reads the layer back as a
//!   bounded-buffer sequential scan: one chunk of at most a
//!   quarter-budget's worth of materialized states at a time, expanded
//!   against the **layer-persistent** pending set (chunk workers get
//!   layer-unique ids). Successors are streamed to a per-layer
//!   *candidate* file the same way and re-read by ordinal at the join.
//!   Machine structs are interned per slot, so records store a `u32` per
//!   machine.
//! * The spanning-tree parents go to an append-only **parent log** (5
//!   bytes per state); violation schedules are reconstructed by walking
//!   the log backwards with point reads.
//!
//! Because the drop set is a pure membership fact and chunking changes
//! only *which worker* first materializes a state (the min-merged
//! `(parent, via)` edge and the drain order do not change), the
//! surviving states, their id order, the invariant-check order and hence
//! the first reported violation are identical to the RAM stores at
//! every worker count and every budget — `tests/engine_equivalence.rs`
//! pins this, including with a zero budget that forces runs out
//! mid-layer and single-state expansion chunks.
//!
//! One budget governs every structure that scales with the state space:
//! half bounds the visited-set delta (floored at [`MIN_FLUSH_BYTES`]),
//! a quarter bounds the frontier chunk buffer (floored at one state,
//! with worst-case successor materialization counted against it). What
//! stays in RAM is *accounted but not bounded*: the per-layer pending
//! set (≈48 bytes per candidate — one to two orders of magnitude below
//! the retired per-state frontier payload) and the per-slot machine
//! intern pool (grows with slot-local machine diversity, not states).
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes)
//! reports the deterministic per-layer peak over all of it.
//!
//! ```text
//!        layer file N ──sequential chunk reads──► expansion workers
//!      (id|done|mach|snap          │                (parallel, no I/O)
//!       fixed-size records)        │ ≤ budget/4 materialized   │
//!            ▲                     │ per chunk                 ▼
//!            │                                         pending (64 shards,
//!   parent log (5 B/state,                             layer-persistent)
//!   walked backwards on            candidate file            │ drain,
//!   violation)                  ◄──stream fresh──┘           │ sort (parent,via)
//!            ▲                     │ re-read by ordinal       ▼
//!            │                     ▼                     candidates
//!     delta (RAM, ≤ budget/2)   runs (disk, sorted)          │
//!     ┌───────────────┐         ┌────┐┌────┐┌────┐           │ merge-join:
//!     │ shard 0..63   │         │ r0 ││ r1 ││ r2 │ ──────────┤ drop hashes
//!     └──────┬────────┘         └─┬──┘└─┬──┘└─┬──┘           │ found on disk
//!            │ flush at budget/2  └─────┴─────┴── compact    ▼
//!            ▼                        (when >8)      survivors: assign ids,
//!       new sorted run                               check invariant,
//!                                                    append layer file N+1
//! ```

use crate::engine::{
    frontier_state_bytes, shard_of, FrontierState, LayerStore, Pend, Visited,
    PEND_OVERHEAD_BYTES, SHARDS,
};
use crate::frontier::{LayerReader, LayerRecord, LayerWriter, MachinePool, ParentLog};
use crate::hash::{HashSet128, PackedHash};
use crate::StepMachine;
use std::borrow::Borrow;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes per stored state hash.
const HASH_BYTES: usize = 16;

/// Flush granularity floor: the delta is flushed in chunks of at least
/// this many bytes even when the configured budget is smaller, so a
/// zero-byte test budget produces runs per layer instead of a file per
/// state. Budgets below this floor are honored up to this granularity.
const MIN_FLUSH_BYTES: usize = 64 * 1024;

/// Floor for the frontier chunk buffer, mirroring [`MIN_FLUSH_BYTES`]:
/// tiny test budgets still expand a few states per chunk instead of
/// degenerating to one read per record.
const MIN_CHUNK_BYTES: usize = 64 * 1024;

/// A shard exceeding this many runs is compacted into a single run.
const MAX_RUNS_PER_SHARD: usize = 8;

/// Buffered-reader capacity for streaming run files.
const RUN_READ_BUF: usize = 1 << 20;

/// Configuration carried by [`ModelChecker::spill_dir`](crate::ModelChecker::spill_dir).
pub(crate) struct SpillConfig {
    /// Parent directory for the per-run spill subdirectory.
    pub dir: PathBuf,
    /// Total resident budget in bytes (delta + frontier window + CSR
    /// window share it; see
    /// [`ModelChecker::spill_dir`](crate::ModelChecker::spill_dir)).
    pub budget_bytes: usize,
}

/// Sequential reader over one sorted run file.
struct RunReader {
    file: BufReader<File>,
    /// Hashes still unread.
    left: u64,
}

impl RunReader {
    fn open(path: &PathBuf) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len() / HASH_BYTES as u64;
        Ok(Self {
            file: BufReader::with_capacity(RUN_READ_BUF, file),
            left,
        })
    }

    /// The next hash, or `None` at end of run.
    fn next(&mut self) -> io::Result<Option<u128>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let mut b = [0u8; HASH_BYTES];
        self.file.read_exact(&mut b)?;
        Ok(Some(u128::from_le_bytes(b)))
    }
}

/// The sharded external visited set: an in-RAM delta plus sorted runs on
/// disk. See the module docs for the discipline. Files live inside the
/// caller's [`ScratchDir`](crate::frontier::ScratchDir); the guard owns
/// cleanup.
pub(crate) struct SpillSet {
    /// Directory owning every run file (the exploration's scratch dir).
    dir: PathBuf,
    /// Effective flush threshold.
    threshold: usize,
    /// The in-RAM delta: hashes not yet flushed, sharded like the engine.
    recent: Vec<HashSet128>,
    /// Payload bytes currently in the delta.
    recent_bytes: usize,
    /// Largest delta ever held (for the resident accounting).
    peak_recent_bytes: u64,
    /// Sorted, immutable, pairwise-disjoint run files per shard.
    runs: Vec<Vec<PathBuf>>,
    /// Total bytes ever written to disk (runs + compaction rewrites).
    spilled_bytes: u64,
    /// Fresh-file counter.
    file_seq: u64,
}

impl SpillSet {
    /// A set whose run files go to `dir`, flushing its delta at half of
    /// `budget_bytes` (floored at [`MIN_FLUSH_BYTES`]).
    pub(crate) fn create_in(dir: &Path, budget_bytes: usize) -> Self {
        Self {
            dir: dir.to_path_buf(),
            threshold: (budget_bytes / 2).max(MIN_FLUSH_BYTES),
            recent: (0..SHARDS).map(|_| HashSet128::default()).collect(),
            recent_bytes: 0,
            peak_recent_bytes: 0,
            runs: vec![Vec::new(); SHARDS],
            spilled_bytes: 0,
            file_seq: 0,
        }
    }

    /// Whether `h` is in the in-RAM delta. This is the only lookup the
    /// concurrent expansion phase performs (`&self`, no locks, no I/O);
    /// hashes already flushed to disk are caught by [`probe_old`].
    ///
    /// [`probe_old`]: Self::probe_old
    fn contains_recent(&self, h: u128) -> bool {
        self.recent[shard_of(h)].contains(&h)
    }

    /// Inserts a genuinely fresh hash into the delta, flushing it to
    /// disk if the budget is exceeded.
    fn insert_fresh(&mut self, h: u128) -> io::Result<()> {
        self.recent[shard_of(h)].insert(h);
        self.recent_bytes += HASH_BYTES;
        self.peak_recent_bytes = self.peak_recent_bytes.max(self.recent_bytes as u64);
        if self.recent_bytes > self.threshold {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every non-empty shard of the delta as one new sorted run
    /// and empties the delta. Shards over [`MAX_RUNS_PER_SHARD`] are
    /// compacted.
    fn flush(&mut self) -> io::Result<()> {
        for shard in 0..SHARDS {
            if self.recent[shard].is_empty() {
                continue;
            }
            let mut hashes: Vec<u128> = self.recent[shard].drain().collect();
            hashes.sort_unstable();
            let path = self.dir.join(format!("s{shard:02}-{}.run", self.file_seq));
            self.file_seq += 1;
            let mut w = BufWriter::new(File::create(&path)?);
            for h in &hashes {
                w.write_all(&h.to_le_bytes())?;
            }
            w.flush()?;
            self.spilled_bytes += (hashes.len() * HASH_BYTES) as u64;
            self.runs[shard].push(path);
            if self.runs[shard].len() > MAX_RUNS_PER_SHARD {
                self.compact(shard)?;
            }
        }
        self.recent_bytes = 0;
        Ok(())
    }

    /// Streaming k-way merge of all of `shard`'s runs into a single run.
    /// Runs are pairwise disjoint (a hash is flushed exactly once), so
    /// the merge is a plain interleave with no dedup.
    fn compact(&mut self, shard: usize) -> io::Result<()> {
        let old = std::mem::take(&mut self.runs[shard]);
        let mut readers = Vec::with_capacity(old.len());
        for p in &old {
            readers.push(RunReader::open(p)?);
        }
        // (current hash, reader index) min-heap via sorted Vec scan —
        // the fan-in is ≤ MAX_RUNS_PER_SHARD + 1, so a linear minimum
        // beats heap bookkeeping.
        let mut heads: Vec<Option<u128>> = Vec::with_capacity(readers.len());
        for r in &mut readers {
            heads.push(r.next()?);
        }
        let path = self.dir.join(format!("s{shard:02}-{}.run", self.file_seq));
        self.file_seq += 1;
        let mut w = BufWriter::new(File::create(&path)?);
        loop {
            let mut min: Option<(u128, usize)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(h) = head {
                    if min.is_none_or(|(mh, _)| *h < mh) {
                        min = Some((*h, i));
                    }
                }
            }
            let Some((h, i)) = min else { break };
            w.write_all(&h.to_le_bytes())?;
            self.spilled_bytes += HASH_BYTES as u64;
            heads[i] = readers[i].next()?;
        }
        w.flush()?;
        drop(readers);
        for p in old {
            fs::remove_file(p)?;
        }
        self.runs[shard] = vec![path];
        Ok(())
    }

    /// Merge-joins this layer's candidate hashes against every on-disk
    /// run and returns the subset that is already on disk (states
    /// visited in an earlier, flushed layer).
    ///
    /// Candidates are sorted per shard; each run file is read once,
    /// sequentially, with a two-pointer join. Shards with no runs or no
    /// candidates cost nothing.
    fn probe_old(&self, candidates: impl Iterator<Item = u128>) -> io::Result<HashSet128> {
        let mut by_shard: Vec<Vec<u128>> = vec![Vec::new(); SHARDS];
        for h in candidates {
            by_shard[shard_of(h)].push(h);
        }
        let mut old = HashSet128::default();
        for (shard, cands) in by_shard.iter_mut().enumerate() {
            if cands.is_empty() || self.runs[shard].is_empty() {
                continue;
            }
            cands.sort_unstable();
            for path in &self.runs[shard] {
                let mut r = RunReader::open(path)?;
                let mut i = 0;
                while i < cands.len() {
                    let Some(h) = r.next()? else { break };
                    while i < cands.len() && cands[i] < h {
                        i += 1;
                    }
                    if i < cands.len() && cands[i] == h {
                        old.insert(h);
                        i += 1;
                    }
                }
            }
        }
        Ok(old)
    }
}

impl Visited<PackedHash> for SpillSet {
    const COMPLETE: bool = false;
    const PEND_BYTES: u64 = PEND_OVERHEAD_BYTES + HASH_BYTES as u64;

    /// Workers filter against the in-RAM delta only (no I/O in the
    /// concurrent phase); flushed hashes are caught by the join. The
    /// returned id is a placeholder — edges are never recorded over this
    /// store.
    fn find(&self, _key: &[u64], h: u128) -> Option<u32> {
        self.contains_recent(h).then_some(0)
    }

    fn probe_old(&self, candidates: impl Iterator<Item = u128>) -> io::Result<HashSet128> {
        SpillSet::probe_old(self, candidates)
    }

    fn insert(&mut self, _key: PackedHash, h: u128, _id: u32) -> io::Result<()> {
        self.insert_fresh(h)
    }

    /// The largest delta ever held.
    fn resident_bytes(&self) -> u64 {
        self.peak_recent_bytes
    }

    fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }
}

/// A candidate successor read back from disk, with the intern ids its
/// record carries so the next layer reuses them.
pub(crate) struct Candidate<M> {
    st: FrontierState<M>,
    ids: Vec<u32>,
}

impl<M> Borrow<FrontierState<M>> for Candidate<M> {
    fn borrow(&self) -> &FrontierState<M> {
        &self.st
    }
}

/// The disk layer store: the frontier, each layer's candidate successors
/// and the next layer as files of fixed-size records, machines interned
/// per slot, parents in an append-only log. See the module docs.
pub(crate) struct DiskLayers<M> {
    dir: PathBuf,
    words: usize,
    slots: usize,
    /// Frontier states per expansion chunk.
    chunk_states: usize,
    pool: MachinePool<M>,
    parents: ParentLog,
    /// Index of the layer `next` writes; the frontier is the one before.
    layer: u64,
    next: LayerWriter,
    /// The frontier, open for chunk and point reads (`None` before the
    /// first [`advance`](LayerStore::advance)).
    frontier: Option<LayerReader>,
    /// This layer's candidates: written during expansion, then read back
    /// by ordinal during id assignment.
    cand_w: Option<LayerWriter>,
    cand_r: Option<LayerReader>,
    /// Record ordinal of each worker's first candidate.
    cand_base: Vec<u64>,
    /// Bytes of finished layer and candidate files.
    file_bytes: u64,
}

impl<M: StepMachine> DiskLayers<M> {
    /// A store in `dir` for `slots` machines over `words` registers. A
    /// chunk of `n` frontier states can materialize at most `n × slots`
    /// fresh successors before they are streamed out, so the quarter
    /// budget is divided by the worst-case amplification; never below one
    /// state per chunk.
    pub(crate) fn create(
        dir: &Path,
        budget_bytes: usize,
        words: usize,
        slots: usize,
    ) -> io::Result<Self> {
        let per_state = frontier_state_bytes::<M>(words, slots);
        let chunk_states = ((budget_bytes / 4).max(MIN_CHUNK_BYTES) as u64
            / (per_state * (1 + slots as u64)))
            .max(1);
        Ok(Self {
            dir: dir.to_path_buf(),
            words,
            slots,
            chunk_states: chunk_states as usize,
            pool: MachinePool::new(slots),
            parents: ParentLog::create(dir.join("parents.log"))?,
            layer: 0,
            next: LayerWriter::create(&dir.join("layer-0.flr"), words, slots)?,
            frontier: None,
            cand_w: None,
            cand_r: None,
            cand_base: Vec::new(),
            file_bytes: 0,
        })
    }

    fn path(&self, kind: &str, layer: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{layer}.flr"))
    }

    fn frontier(&mut self) -> &mut LayerReader {
        self.frontier.as_mut().expect("a frontier layer is open")
    }

    fn materialize(&self, rec: LayerRecord) -> (FrontierState<M>, Vec<u32>) {
        let ids = rec.machine_ids.iter().enumerate();
        let machines = ids.map(|(slot, &id)| self.pool.get(slot, id)).collect();
        let st = FrontierState { snap: rec.snap, machines, done: rec.done, id: rec.id };
        (st, rec.machine_ids)
    }
}

impl<M: StepMachine> LayerStore<M> for DiskLayers<M> {
    type Fresh = Candidate<M>;

    fn push_root(&mut self, st: FrontierState<M>) -> io::Result<()> {
        self.parents.push(u32::MAX, 0)?;
        let ids = self.pool.intern(&st.machines);
        self.next.push(st.id, &st.done, &ids, &st.snap)
    }

    fn advance(&mut self) -> io::Result<u64> {
        let next_path = self.path("layer", self.layer + 1);
        let next = LayerWriter::create(&next_path, self.words, self.slots)?;
        let written = std::mem::replace(&mut self.next, next);
        self.file_bytes += written.bytes();
        let len = written.finish()?;
        if let Some(w) = self.cand_w.take() {
            self.file_bytes += w.bytes();
            w.finish()?;
        }
        // The consumed layer and candidate files are dead: remove them
        // eagerly so disk usage stays O(current + next layer), not
        // O(total states).
        self.cand_r = None;
        if self.frontier.take().is_some() {
            fs::remove_file(self.path("layer", self.layer - 1))?;
            fs::remove_file(self.path("cand", self.layer - 1))?;
        }
        self.frontier = Some(LayerReader::open(&self.path("layer", self.layer))?);
        let cand = LayerWriter::create(&self.path("cand", self.layer), self.words, self.slots)?;
        self.cand_w = Some(cand);
        self.cand_base.clear();
        self.layer += 1;
        Ok(len)
    }

    fn with_chunk<R>(
        &mut self,
        pos: u64,
        expand: impl FnOnce(&[FrontierState<M>]) -> R,
    ) -> io::Result<(usize, R)> {
        let n = self.chunk_states;
        let recs = self.frontier().read_range(pos, n)?;
        let chunk: Vec<FrontierState<M>> =
            recs.into_iter().map(|r| self.materialize(r).0).collect();
        Ok((chunk.len(), expand(&chunk)))
    }

    fn read_at(&mut self, ordinal: u64) -> io::Result<FrontierState<M>> {
        let rec = self.frontier().read_at(ordinal)?;
        Ok(self.materialize(rec).0)
    }

    fn keep(&mut self, fresh: Vec<Option<FrontierState<M>>>) -> io::Result<()> {
        let w = self.cand_w.as_mut().expect("candidates are written before they are read");
        self.cand_base.push(w.count());
        for st in fresh {
            let st = st.expect("fresh states are untouched before the join");
            w.push(u32::MAX, &st.done, &self.pool.intern(&st.machines), &st.snap)?;
        }
        Ok(())
    }

    fn take_fresh(&mut self, p: &Pend) -> io::Result<Candidate<M>> {
        self.parents.push(p.parent, p.via)?;
        if let Some(w) = self.cand_w.take() {
            self.file_bytes += w.bytes();
            w.finish()?;
            self.cand_r = Some(LayerReader::open(&self.path("cand", self.layer - 1))?);
        }
        let r = self.cand_r.as_mut().expect("the candidate file is sealed");
        let rec = r.read_at(self.cand_base[p.worker as usize] + p.idx as u64)?;
        let (st, ids) = self.materialize(rec);
        Ok(Candidate { st, ids })
    }

    fn push_next(&mut self, c: Candidate<M>, id: u32) -> io::Result<()> {
        self.next.push(id, &c.st.done, &c.ids, &c.st.snap)
    }

    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>> {
        self.parents.schedule_to(id)
    }

    /// The machine intern pool; parents and the layers themselves are on
    /// disk.
    fn resident_bytes(&self) -> u64 {
        self.pool.bytes()
    }

    fn spilled_bytes(&self) -> u64 {
        self.file_bytes + self.parents.bytes()
    }
}
