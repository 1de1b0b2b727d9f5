//! External-memory exploration: a spill-to-disk visited set **and** a
//! spill-to-disk frontier.
//!
//! The in-RAM frontier engine ([`crate::engine`]) holds every visited
//! state hash in a sharded map and every frontier state fully
//! materialized, so its ceiling is the host's memory — first through the
//! visited set (grows with *total* states), then through the frontier
//! (grows with the *widest layer*). This backend lifts both ceilings
//! while preserving the engine's exact counts and deterministic
//! violation schedules bit-for-bit:
//!
//! * Dedup is by 128-bit state hash (the same [`hash128`] as
//!   [`ModelChecker::hashed_dedup`]); hashes are partitioned into the
//!   engine's 64 shards by their top bits.
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
//!   in one sequential pass per run file; candidates found on disk are
//!   dropped before ids are assigned.
//! * The **frontier lives in per-layer files** ([`crate::frontier`]):
//!   each layer is an append-only file of fixed-size records (state id,
//!   per-slot done flags and machine intern ids, register-file
//!   snapshot), written in id order — which *is* `(parent, via)` order —
//!   so writes are streaming. Expansion reads the layer back as a
//!   bounded-buffer sequential scan: one chunk of at most a
//!   quarter-budget's worth of materialized states at a time, expanded
//!   by [`expand_layer`] against the **layer-persistent** pending set
//!   (chunk workers get globally unique ids via `worker_base`).
//!   Successors are streamed to a per-layer *candidate* file the same
//!   way and re-read by ordinal at the join. Machine structs are
//!   interned per slot, so records store a `u32` per machine.
//! * The spanning-tree parents go to an append-only **parent log** (5
//!   bytes per state); violation schedules are reconstructed by walking
//!   the log backwards with point reads.
//!
//! Because the drop set is a pure membership fact and chunking changes
//! only *which worker* first materializes a state (the min-merged
//! `(parent, via)` edge and the drain order do not change), the
//! surviving states, their id order, the invariant-check order and hence
//! the first reported violation are identical to the in-RAM engines at
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
//! [`CheckStats::peak_resident_bytes`] reports the deterministic
//! per-layer peak over all of it.
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

use crate::checker::{CheckError, CheckStats, KeyBuilder, ModelChecker, Violation, World};
use crate::engine::{
    expand_layer, frontier_state_bytes, shard_of, EdgeStore, Explored, FrontierState, KeyMap,
    Pend, PEND_OVERHEAD_BYTES, SHARDS,
};
use crate::frontier::{LayerReader, LayerRecord, LayerWriter, MachinePool, ParentLog, ScratchDir};
use crate::hash::{hash128, HashMap128, HashSet128, PackedHash};
use crate::StepMachine;
use llr_mem::{Memory as _, SimMemory};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// Configuration carried by [`ModelChecker::spill_dir`].
pub(crate) struct SpillConfig {
    /// Parent directory for the per-run spill subdirectory.
    pub dir: PathBuf,
    /// Total resident budget in bytes (delta + frontier window + CSR
    /// window share it; see [`ModelChecker::spill_dir`]).
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
/// caller's [`ScratchDir`]; the guard owns cleanup.
struct SpillSet {
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
    fn create_in(dir: &Path, threshold: usize) -> Self {
        Self {
            dir: dir.to_path_buf(),
            threshold,
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

/// Breadth-first exploration with the external-memory visited set and
/// the on-disk frontier.
///
/// Mirrors [`crate::engine::explore`] exactly — same worker expansion
/// ([`expand_layer`]), same `(parent, via)` drain order, same invariant
/// check order — but keeps only a budget-bounded delta of the visited
/// set in RAM, streams each layer (and each layer's candidate
/// successors) through files instead of holding them materialized, and
/// merge-joins each layer's candidates against the on-disk runs. The
/// difference is *when* a rediscovered state is recognized (one layer
/// later, at the join), never *whether*: states, transitions, terminal
/// counts and violation schedules are bit-for-bit those of the in-RAM
/// engines.
///
/// Edge recording is not supported here (the liveness checker runs the
/// in-RAM-visited engine with a disk edge log instead); callers reach
/// this path only via [`ModelChecker::check_parallel`] with
/// [`ModelChecker::spill_dir`] configured. The returned [`Explored`]
/// carries stats only — parents live on disk and are dropped with the
/// scratch directory.
pub(crate) fn explore_spilled<M, F>(
    mc: &ModelChecker<M>,
    invariant: &F,
    workers: usize,
) -> Result<Explored, CheckError>
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
{
    let cfg = mc.spill_config().expect("spill backend selected without a config");
    let scratch = ScratchDir::create(&cfg.dir)?;
    let mut spill = SpillSet::create_in(
        scratch.path(),
        (cfg.budget_bytes / 2).max(MIN_FLUSH_BYTES),
    );
    let symmetry = mc.symmetry();
    let layout = mc.initial_layout();
    let mem = SimMemory::new(&layout);
    let machines0 = mc.initial_machines().to_vec();
    assert!(
        machines0.len() < u8::MAX as usize,
        "the frontier engine supports at most 254 machines"
    );
    assert!(
        mc.crash_loc().is_none() || machines0.len() <= crate::checker::CRASH_SCHEDULE_BASE,
        "with a fault budget the frontier engine supports at most 128 machines \
         (crash transitions are encoded as machine + CRASH_SCHEDULE_BASE)"
    );
    let nm = machines0.len();
    let words = mem.len();
    let per_state = frontier_state_bytes::<M>(words, nm);
    // A chunk of `n` frontier states can materialize at most `n × slots`
    // fresh successors before they are streamed out, so the quarter
    // budget is divided by the worst-case amplification. Never below one
    // state per chunk.
    let chunk_states = ((cfg.budget_bytes / 4).max(MIN_CHUNK_BYTES) as u64
        / (per_state * (1 + nm as u64)))
        .max(1);
    let done0 = vec![false; nm];

    let mut stats = CheckStats::default();
    let mut pool: MachinePool<M> = MachinePool::new(nm);
    let mut keybuf: Vec<u64> = Vec::new();
    let mut parents = ParentLog::create(scratch.path().join("parents.log"))?;
    parents.push(u32::MAX, 0)?;
    // Bytes retired to frontier/parent files (for `spilled_bytes`).
    let mut frontier_disk_bytes: u64 = 0;

    {
        let mut kb = KeyBuilder::default();
        let key0 = kb.build(&mem, &machines0, &done0, None, symmetry);
        spill.insert_fresh(hash128(key0))?;
    }
    stats.states = 1;
    if done0.iter().all(|&d| d) {
        stats.terminal_states = 1;
    }
    {
        let world = World {
            mem: &mem,
            machines: &machines0,
            done: &done0,
        };
        if let Err(message) = invariant(&world) {
            return Err(CheckError::Violation(Box::new(Violation {
                message,
                schedule: vec![],
                trace: "(violated in the initial state)".into(),
                stats,
            })));
        }
    }

    // Layer 0: the initial state, straight to disk.
    let mut layer_path = scratch.path().join("layer-0.flr");
    let mut layer_len: u64 = {
        let mut w = LayerWriter::create(&layer_path, words, nm)?;
        let ids: Vec<u32> = machines0
            .iter()
            .enumerate()
            .map(|(slot, m)| pool.intern(slot, m, &mut keybuf))
            .collect();
        w.push(0, &done0, &ids, &mem.snapshot())?;
        frontier_disk_bytes += w.bytes();
        w.finish()?
    };
    let check_mem = SimMemory::new(&layout);
    let mut layer_idx: u64 = 0;
    let por = mc.por_on();

    let materialize = |rec: &LayerRecord, pool: &MachinePool<M>| -> FrontierState<M> {
        FrontierState {
            snap: rec.snap.clone(),
            machines: rec
                .machine_ids
                .iter()
                .enumerate()
                .map(|(slot, &mid)| pool.get(slot, mid))
                .collect(),
            done: rec.done.clone(),
            id: rec.id,
        }
    };

    while layer_len > 0 {
        let pending: Vec<Mutex<KeyMap<PackedHash, Pend>>> =
            (0..SHARDS).map(|_| Mutex::new(KeyMap::default())).collect();
        let mut reader = LayerReader::open(&layer_path)?;
        // Successors materialized this layer, streamed out chunk by
        // chunk; `fresh_base[worker] + idx` is a record ordinal here.
        let fresh_path = scratch.path().join(format!("cand-{layer_idx}.flr"));
        let mut fresh_w = LayerWriter::create(&fresh_path, words, nm)?;
        let mut fresh_base: Vec<u64> = Vec::new();
        let mut worker_base: u32 = 0;
        // POR-reduced states, with layer-global frontier ordinals.
        let mut reduced_all: Vec<(u32, u8, u128)> = Vec::new();
        // Peak bytes of one chunk's materialized states + successors.
        let mut chunk_peak: u64 = 0;
        let mut pos: u64 = 0;
        while pos < layer_len {
            let recs = reader.read_range(pos, chunk_states as usize)?;
            let chunk: Vec<FrontierState<M>> =
                recs.iter().map(|r| materialize(r, &pool)).collect();
            let spill_ref = &spill;
            // Workers filter against the in-RAM delta only (no I/O in
            // the concurrent phase); flushed hashes are caught by the
            // join below. The returned id is a placeholder — edge
            // recording is off on this path.
            let find = |_buf: &[u64], h: u128| spill_ref.contains_recent(h).then_some(0);
            let outs = expand_layer(
                &chunk,
                &pending,
                workers,
                symmetry,
                false,
                por,
                por,
                mc.crash_loc(),
                worker_base,
                &find,
            );
            stats.transitions += outs.iter().map(|o| o.transitions).sum::<u64>();
            let materialized: usize = outs.iter().map(|o| o.fresh.len()).sum();
            chunk_peak = chunk_peak.max((chunk.len() + materialized) as u64 * per_state);
            worker_base += outs.len() as u32;
            for out in outs {
                fresh_base.push(fresh_w.count());
                for st in out.fresh {
                    let st = st.expect("fresh states are untouched before the join");
                    let ids: Vec<u32> = st
                        .machines
                        .iter()
                        .enumerate()
                        .map(|(slot, m)| pool.intern(slot, m, &mut keybuf))
                        .collect();
                    fresh_w.push(u32::MAX, &st.done, &ids, &st.snap)?;
                }
                for (fi, a, h) in out.reduced {
                    reduced_all.push((pos as u32 + fi, a, h));
                }
            }
            pos += recs.len() as u64;
        }

        // Sequential phase: drain pending in deterministic order, then
        // drop every candidate the disk already knows.
        let mut discovered: Vec<(u128, Pend)> = Vec::new();
        for shard in pending {
            let map = shard.into_inner().expect("shard poisoned");
            discovered.extend(map.into_values().map(|p| (p.h, p)));
        }
        let candidate_n = discovered.len() as u64;
        let mut old = spill.probe_old(discovered.iter().map(|&(h, _)| h))?;

        // POR patch-up: the workers' proviso check only saw the in-RAM
        // delta. A state left reduced whose ample successor turns out to
        // be on disk would have been fully expanded by the in-RAM engine,
        // so expand it fully here — sequentially and in frontier order,
        // min-merging into the pending drain exactly as the workers would
        // have. The frontier states involved are point-read back from the
        // layer file; extra successors are appended to the candidate file
        // under one more virtual worker id. Successors the delta knows
        // are skipped (frozen hits); the rest are probed against disk in
        // a second pass. This keeps states, ids and violation schedules
        // bit-for-bit identical to the in-RAM engine under reduction.
        if por {
            let mut patch: Vec<(u32, u8)> = reduced_all
                .iter()
                .filter(|&&(_, _, h)| old.contains(&h))
                .map(|&(fi, a, _)| (fi, a))
                .collect();
            if !patch.is_empty() {
                patch.sort_unstable();
                let mut index: HashMap128<usize> = discovered
                    .iter()
                    .enumerate()
                    .map(|(i, &(h, _))| (h, i))
                    .collect();
                let virt = worker_base;
                fresh_base.push(fresh_w.count());
                let mut virt_idx: u32 = 0;
                let mut extras: Vec<u128> = Vec::new();
                let mut kb = KeyBuilder::default();
                for &(fi, a) in &patch {
                    let rec = reader.read_at(fi as u64)?;
                    let st = materialize(&rec, &pool);
                    for j in 0..st.machines.len() {
                        if j == a as usize || st.done[j] {
                            continue;
                        }
                        check_mem.restore(&st.snap);
                        let mut mj = st.machines[j].clone();
                        let done_j = mj.step(&check_mem).is_done();
                        stats.transitions += 1;
                        let kbuf = kb.build(
                            &check_mem,
                            &st.machines,
                            &st.done,
                            Some((j, &mj, done_j)),
                            symmetry,
                        );
                        let h = hash128(kbuf);
                        if spill.contains_recent(h) {
                            continue;
                        }
                        if let Some(&di) = index.get(&h) {
                            let p = &mut discovered[di].1;
                            if (st.id, j as u8) < (p.parent, p.via) {
                                p.parent = st.id;
                                p.via = j as u8;
                            }
                            continue;
                        }
                        let mut machines = st.machines.clone();
                        machines[j] = mj;
                        let mut done = st.done.clone();
                        done[j] = done_j;
                        let ids: Vec<u32> = machines
                            .iter()
                            .enumerate()
                            .map(|(slot, m)| pool.intern(slot, m, &mut keybuf))
                            .collect();
                        fresh_w.push(u32::MAX, &done, &ids, &check_mem.snapshot())?;
                        index.insert(h, discovered.len());
                        discovered.push((
                            h,
                            Pend {
                                worker: virt,
                                idx: virt_idx,
                                parent: st.id,
                                via: j as u8,
                                h,
                            },
                        ));
                        virt_idx += 1;
                        extras.push(h);
                    }
                }
                if !extras.is_empty() {
                    old.extend(spill.probe_old(extras.into_iter())?);
                }
            }
        }
        frontier_disk_bytes += fresh_w.bytes();
        fresh_w.finish()?;
        let mut fresh_r = LayerReader::open(&fresh_path)?;
        discovered.sort_unstable_by_key(|(_, p)| (p.parent, p.via));

        let next_path = scratch.path().join(format!("layer-{}.flr", layer_idx + 1));
        let mut next_w = LayerWriter::create(&next_path, words, nm)?;
        for (h, p) in discovered {
            if old.contains(&h) {
                // Visited in an earlier, already-flushed layer: the
                // in-RAM engine would have skipped it at expansion time.
                continue;
            }
            let id = u32::try_from(stats.states).expect("state ids exceed u32");
            stats.states += 1;
            if stats.states as usize > mc.state_limit() {
                stats.peak_resident_bytes = stats.peak_resident_bytes.max(
                    spill.peak_recent_bytes
                        + chunk_peak
                        + pool.bytes()
                        + candidate_n * (PEND_OVERHEAD_BYTES + HASH_BYTES as u64),
                );
                stats.spilled_bytes =
                    spill.spilled_bytes + frontier_disk_bytes + parents.bytes();
                return Err(CheckError::StateLimit {
                    limit: mc.state_limit(),
                    stats,
                });
            }
            spill.insert_fresh(h)?;
            parents.push(p.parent, p.via)?;
            let rec = fresh_r.read_at(fresh_base[p.worker as usize] + p.idx as u64)?;
            let term = rec.done.iter().all(|&d| d);
            if term {
                stats.terminal_states += 1;
            }

            check_mem.restore(&rec.snap);
            let machines: Vec<M> = rec
                .machine_ids
                .iter()
                .enumerate()
                .map(|(slot, &mid)| pool.get(slot, mid))
                .collect();
            let world = World {
                mem: &check_mem,
                machines: &machines,
                done: &rec.done,
            };
            if let Err(message) = invariant(&world) {
                let schedule = parents.schedule_to(id)?;
                let trace = mc.render_trace(&schedule);
                stats.peak_resident_bytes = stats.peak_resident_bytes.max(
                    spill.peak_recent_bytes
                        + chunk_peak
                        + pool.bytes()
                        + candidate_n * (PEND_OVERHEAD_BYTES + HASH_BYTES as u64),
                );
                stats.spilled_bytes =
                    spill.spilled_bytes + frontier_disk_bytes + parents.bytes();
                return Err(CheckError::Violation(Box::new(Violation {
                    message,
                    schedule,
                    trace,
                    stats,
                })));
            }
            next_w.push(id, &rec.done, &rec.machine_ids, &rec.snap)?;
        }
        frontier_disk_bytes += next_w.bytes();
        let next_len = next_w.finish()?;

        // Same deterministic accounting discipline as the in-RAM engine,
        // with the delta's peak standing in for the visited set, the
        // chunk peak for the frontier, and the machine pool counted
        // honestly; parents and the layers themselves are on disk now.
        let resident = spill.peak_recent_bytes
            + chunk_peak
            + pool.bytes()
            + candidate_n * (PEND_OVERHEAD_BYTES + HASH_BYTES as u64);
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);

        // The consumed layer and candidate files are dead: remove them
        // eagerly so disk usage stays O(current + next layer), not
        // O(total states).
        drop(reader);
        drop(fresh_r);
        fs::remove_file(&layer_path)?;
        fs::remove_file(&fresh_path)?;

        if next_len > 0 {
            stats.max_depth += 1;
        }
        layer_path = next_path;
        layer_len = next_len;
        layer_idx += 1;
    }

    stats.spilled_bytes = spill.spilled_bytes + frontier_disk_bytes + parents.bytes();
    Ok(Explored {
        stats,
        parent: Vec::new(),
        terminal: Vec::new(),
        edges: EdgeStore::Ram(Vec::new()),
    })
}
