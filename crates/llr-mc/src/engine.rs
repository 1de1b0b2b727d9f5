//! Breadth-first exploration: one layer-synchronous driver over two
//! stores.
//!
//! [`explore`] expands the reachable state space one breadth-first layer
//! at a time. Within a layer, `std::thread::scope` workers each expand a
//! contiguous chunk of the frontier ([`expand_layer`]):
//!
//! * the **frozen** visited set (states discovered in earlier layers) is
//!   immutable for the whole layer and read lock-free by every worker;
//! * states first discovered *in this layer* go into **pending** — 64
//!   mutex-guarded shards keyed like the visited set. Each pending entry
//!   remembers which worker materialized the successor state and the
//!   schedule-least `(parent, via)` edge that reached it (min-merged on
//!   every rediscovery).
//!
//! After the scope joins, a sequential phase drops the candidates the
//! visited set reports as old, drains pending, sorts the fresh states by
//! `(parent id, via)` — parent ids are themselves assigned in this order,
//! so state numbering, parent pointers, and therefore the first reported
//! violation are **identical for every worker count** — assigns ids,
//! checks the invariant, and adds the states to the visited set.
//!
//! Where states live is left to a [`Visited`] set and a [`LayerStore`],
//! both monomorphised into the driver. The RAM stores ([`RamVisited`],
//! [`RamLayers`]) hold every key in sharded maps and every frontier state
//! materialized, and expand a layer as one chunk; the disk stores
//! (`crate::spill`) keep a bounded delta of state hashes in RAM, the rest
//! in sorted runs, and stream layers through files in bounded chunks.
//! [`explore`] takes the disk stores iff [`ModelChecker::spill_dir`] is
//! set and no edges are recorded.
//!
//! With edge recording on, every transition is reported as a `(from, to)`
//! id pair, which [`crate::liveness`] consumes for its backward
//! reachability marking.
//!
//! Each store reports the payload bytes of its own structures; the driver
//! adds the frontier chunk, the pending entries and any in-RAM edge list
//! and reports the deterministic per-layer peak as
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes).

use crate::checker::{
    CheckError, CheckStats, KeyBuilder, ModelChecker, Violation, World, CRASH_SCHEDULE_BASE,
};
use crate::frontier::{EdgeLog, ScratchDir};
use crate::hash::{hash128, BuildPreHashed, HashSet128, PackedHash};
use crate::por::AmpleCtx;
use crate::spill::{DiskLayers, SpillSet};
use crate::StepMachine;
use llr_mem::{Loc, Memory as _, SimMemory, Word};
use std::borrow::Borrow;
use std::collections::{hash_map::RandomState, HashMap};
use std::hash::{BuildHasher, Hash};
use std::io;
use std::sync::Mutex;

/// Shard count for both the frozen and pending maps. Power of two so the
/// shard index is a bit slice of the 128-bit state hash.
pub(crate) const SHARDS: usize = 64;

/// Approximate per-entry overhead of a pending-map slot (the [`Pend`]
/// record plus map bookkeeping), used by the deterministic memory
/// accounting. The state key's own payload bytes are counted separately.
pub(crate) const PEND_OVERHEAD_BYTES: u64 = 32;

#[inline]
pub(crate) fn shard_of(h: u128) -> usize {
    (h >> 122) as usize & (SHARDS - 1)
}

/// Abstracts over the two dedup representations: owned full keys
/// (`Box<[u64]>`, exact) and 128-bit hashes (`u128`, memory-lean). Both
/// support lookup by the borrowed key buffer so the miss path allocates
/// nothing.
pub(crate) trait EngineKey: Eq + Hash + Send + Sync + Sized {
    /// The table hasher: the default one for full keys, a pass-through
    /// for state hashes (they are already mixed).
    type Hasher: BuildHasher + Default + Send + Sync;
    fn make(buf: &[u64], h: u128) -> Self;
    fn find<V: Copy>(map: &KeyMap<Self, V>, buf: &[u64], h: u128) -> Option<V>;
    fn find_mut<'m, V>(map: &'m mut KeyMap<Self, V>, buf: &[u64], h: u128) -> Option<&'m mut V>;
    /// Payload bytes of one stored key (for the resident-bytes accounting).
    fn bytes(&self) -> u64;
}

/// A frozen or pending shard: keys of type `K` under `K`'s hasher.
pub(crate) type KeyMap<K, V> = HashMap<K, V, <K as EngineKey>::Hasher>;

impl EngineKey for Box<[u64]> {
    type Hasher = RandomState;
    fn make(buf: &[u64], _h: u128) -> Self {
        buf.into()
    }
    fn find<V: Copy>(map: &KeyMap<Self, V>, buf: &[u64], _h: u128) -> Option<V> {
        map.get(buf).copied()
    }
    fn find_mut<'m, V>(map: &'m mut KeyMap<Self, V>, buf: &[u64], _h: u128) -> Option<&'m mut V> {
        map.get_mut(buf)
    }
    fn bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }
}

impl EngineKey for PackedHash {
    type Hasher = BuildPreHashed;
    fn make(_buf: &[u64], h: u128) -> Self {
        h.into()
    }
    fn find<V: Copy>(map: &KeyMap<Self, V>, _buf: &[u64], h: u128) -> Option<V> {
        map.get(&h.into()).copied()
    }
    fn find_mut<'m, V>(map: &'m mut KeyMap<Self, V>, _buf: &[u64], h: u128) -> Option<&'m mut V> {
        map.get_mut(&h.into())
    }
    fn bytes(&self) -> u64 {
        16
    }
}

/// A fully materialized frontier state.
#[derive(Clone)]
pub(crate) struct FrontierState<M> {
    pub(crate) snap: Vec<Word>,
    pub(crate) machines: Vec<M>,
    pub(crate) done: Vec<bool>,
    /// Global state id (assigned sequentially in deterministic order).
    pub(crate) id: u32,
}

/// A state discovered in the current layer, not yet assigned an id.
pub(crate) struct Pend {
    /// Worker that materialized the state...
    pub(crate) worker: u32,
    /// ...and the index into that worker's `fresh` vector.
    pub(crate) idx: u32,
    /// Schedule-least discovering edge (min-merged across rediscoveries).
    pub(crate) parent: u32,
    pub(crate) via: u8,
    /// State hash, kept so promotion to frozen recomputes nothing.
    pub(crate) h: u128,
}

pub(crate) enum EdgeTo {
    /// Successor was already frozen with this id.
    Known(u32),
    /// Successor is pending: `(worker, idx)` names its materialization.
    Fresh(u32, u32),
}

pub(crate) struct WorkerOut<M> {
    pub(crate) fresh: Vec<Option<FrontierState<M>>>,
    pub(crate) transitions: u64,
    pub(crate) edges: Vec<(u32, EdgeTo)>,
    /// States this worker expanded via an ample singleton, recorded (when
    /// requested) as `(frontier index, ample machine, successor hash)` so
    /// the driver can re-check the cycle proviso against a visited set
    /// whose lookup did not see everything.
    pub(crate) reduced: Vec<(u32, u8, u128)>,
}

/// Where the recorded transition pairs ended up.
pub(crate) enum EdgeStore {
    /// The full `(from, to)` list in RAM — the default, and always the
    /// variant when edge recording was off (then the list is empty).
    Ram(Vec<(u32, u32)>),
    /// Streamed to an append-only [`EdgeLog`] file because a spill budget
    /// is configured; the scratch guard keeps the file alive until the
    /// consumer is done.
    Disk {
        guard: ScratchDir,
        path: std::path::PathBuf,
        count: u64,
    },
}

/// The engine's result: exploration stats plus the spanning-tree parent
/// pointers and terminal flags (RAM layer store only) and the full edge
/// list (when requested).
pub(crate) struct Explored {
    pub stats: CheckStats,
    /// `parent[id] = (parent id, machine index)`; the root has parent
    /// `u32::MAX`.
    pub parent: Vec<(u32, u8)>,
    /// `terminal[id]` iff every machine is done in state `id`.
    pub terminal: Vec<bool>,
    /// All `(from, to)` transition pairs — empty unless `record_edges`.
    pub edges: EdgeStore,
}

/// Reconstructs the schedule reaching `id` by walking parent pointers.
pub(crate) fn schedule_to(parent: &[(u32, u8)], mut id: u32) -> Vec<usize> {
    let mut schedule = Vec::new();
    while parent[id as usize].0 != u32::MAX {
        schedule.push(parent[id as usize].1 as usize);
        id = parent[id as usize].0;
    }
    schedule.reverse();
    schedule
}

// ---------------------------------------------------------------------------
// The stores
// ---------------------------------------------------------------------------

/// The visited set: every state discovered in an earlier layer.
pub(crate) trait Visited<K>: Sync {
    /// Whether [`find`](Self::find) sees every visited state. When it does
    /// not, expansion records the POR-reduced states so the driver can
    /// redo their cycle proviso once [`probe_old`](Self::probe_old) has
    /// run.
    const COMPLETE: bool;
    /// Tracked bytes per pending entry of this store's key.
    const PEND_BYTES: u64;
    /// The id of a visited state, if this lookup can see it — the only
    /// query of the concurrent phase (`&self`, no locks, no I/O). The id
    /// is only used for edge recording.
    fn find(&self, key: &[u64], h: u128) -> Option<u32>;
    /// The candidates that were visited although [`find`](Self::find)
    /// missed them — none, for a complete lookup.
    fn probe_old(&self, _candidates: impl Iterator<Item = u128>) -> io::Result<HashSet128> {
        Ok(HashSet128::default())
    }
    /// Adds a state first discovered in this layer under id `id`.
    fn insert(&mut self, key: K, h: u128, id: u32) -> io::Result<()>;
    /// Tracked payload bytes held in RAM.
    fn resident_bytes(&self) -> u64;
    /// Bytes written to disk.
    fn spilled_bytes(&self) -> u64 {
        0
    }
}

/// The RAM visited set: 64 shards mapping a state key to its id. Its
/// lookup is complete, so nothing is ever old on disk.
pub(crate) struct RamVisited<K: EngineKey> {
    shards: Vec<KeyMap<K, u32>>,
    /// Payload bytes of the stored keys and ids.
    bytes: u64,
}

impl<K: EngineKey> Default for RamVisited<K> {
    fn default() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| KeyMap::default()).collect(),
            bytes: 0,
        }
    }
}

impl<K: EngineKey> Visited<K> for RamVisited<K> {
    const COMPLETE: bool = true;
    const PEND_BYTES: u64 = PEND_OVERHEAD_BYTES;

    #[inline]
    fn find(&self, key: &[u64], h: u128) -> Option<u32> {
        K::find(&self.shards[shard_of(h)], key, h)
    }

    fn insert(&mut self, key: K, h: u128, id: u32) -> io::Result<()> {
        self.bytes += key.bytes() + 4;
        self.shards[shard_of(h)].insert(key, id);
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Where the layers live: the frontier being expanded, the successors it
/// materializes, the next layer, and the spanning-tree parents.
///
/// Per layer the driver calls [`with_chunk`](Self::with_chunk) and
/// [`keep`](Self::keep) until the frontier is expanded, then
/// [`reserve_next`](Self::reserve_next) once, then
/// [`take_fresh`](Self::take_fresh) and [`push_next`](Self::push_next)
/// once per surviving state in id order, then [`advance`](Self::advance).
pub(crate) trait LayerStore<M>: Sized {
    /// A materialized successor handed back for id assignment.
    type Fresh: Borrow<FrontierState<M>>;
    /// Appends the initial state to the next layer as id 0, the root of
    /// the spanning tree.
    fn push_root(&mut self, st: FrontierState<M>) -> io::Result<()>;
    /// Makes the next layer the frontier, dropping the old frontier and
    /// its successors. Returns the new frontier's length.
    fn advance(&mut self) -> io::Result<u64>;
    /// Lends `expand` the chunk of the frontier that starts at ordinal
    /// `pos`; returns the chunk's length and `expand`'s result.
    fn with_chunk<R>(
        &mut self,
        pos: u64,
        expand: impl FnOnce(&[FrontierState<M>]) -> R,
    ) -> io::Result<(usize, R)>;
    /// Frontier state `ordinal`, read again (for the POR patch-up).
    fn read_at(&mut self, ordinal: u64) -> io::Result<FrontierState<M>>;
    /// Keeps one worker's materialized successors. Workers are numbered
    /// in call order across the layer.
    fn keep(&mut self, fresh: Vec<Option<FrontierState<M>>>) -> io::Result<()>;
    /// Takes back the successor `p` names as the next state id, recording
    /// `p`'s `(parent, via)` as its spanning-tree edge.
    fn take_fresh(&mut self, p: &Pend) -> io::Result<Self::Fresh>;
    /// Makes room for up to `n` states in the next layer before the ids
    /// are assigned.
    fn reserve_next(&mut self, _n: usize) {}
    /// Appends a surviving successor to the next layer under id `id`.
    fn push_next(&mut self, st: Self::Fresh, id: u32) -> io::Result<()>;
    /// The schedule reaching `id`, walked back along the parents.
    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>>;
    /// Tracked payload bytes held in RAM, the expanded chunk excluded.
    fn resident_bytes(&self) -> u64;
    /// Bytes written to disk.
    fn spilled_bytes(&self) -> u64 {
        0
    }
    /// The parent pointers and terminal flags, if the store keeps them in
    /// RAM (empty otherwise).
    fn into_tree(self) -> (Vec<(u32, u8)>, Vec<bool>) {
        (Vec::new(), Vec::new())
    }
}

/// The RAM layer store: every state materialized, a layer expanded as one
/// chunk, successors left where their workers put them, and parents and
/// terminal flags in vectors (the liveness marking reads them).
pub(crate) struct RamLayers<M> {
    frontier: Vec<FrontierState<M>>,
    fresh: Vec<Vec<Option<FrontierState<M>>>>,
    next: Vec<FrontierState<M>>,
    parent: Vec<(u32, u8)>,
    terminal: Vec<bool>,
}

impl<M> Default for RamLayers<M> {
    fn default() -> Self {
        Self {
            frontier: Vec::new(),
            fresh: Vec::new(),
            next: Vec::new(),
            parent: Vec::new(),
            terminal: Vec::new(),
        }
    }
}

impl<M: Clone> LayerStore<M> for RamLayers<M> {
    type Fresh = FrontierState<M>;

    fn push_root(&mut self, st: FrontierState<M>) -> io::Result<()> {
        self.parent.push((u32::MAX, 0));
        self.terminal.push(st.done.iter().all(|&d| d));
        self.next.push(st);
        Ok(())
    }

    fn advance(&mut self) -> io::Result<u64> {
        self.frontier = std::mem::take(&mut self.next);
        self.fresh.clear();
        Ok(self.frontier.len() as u64)
    }

    fn with_chunk<R>(
        &mut self,
        pos: u64,
        expand: impl FnOnce(&[FrontierState<M>]) -> R,
    ) -> io::Result<(usize, R)> {
        debug_assert_eq!(pos, 0, "the RAM store expands a layer as one chunk");
        Ok((self.frontier.len(), expand(&self.frontier)))
    }

    fn read_at(&mut self, ordinal: u64) -> io::Result<FrontierState<M>> {
        Ok(self.frontier[ordinal as usize].clone())
    }

    fn keep(&mut self, fresh: Vec<Option<FrontierState<M>>>) -> io::Result<()> {
        self.fresh.push(fresh);
        Ok(())
    }

    fn reserve_next(&mut self, n: usize) {
        // One exact allocation per layer, sized by the drained candidates:
        // growing by doubling would overshoot the largest allocation, and
        // sizing by the workers' outputs as they arrive would make the
        // allocation sequence depend on thread timing.
        self.next.reserve_exact(n);
    }

    fn take_fresh(&mut self, p: &Pend) -> io::Result<FrontierState<M>> {
        let st = self.fresh[p.worker as usize][p.idx as usize]
            .take()
            .expect("pending entry names a materialized state");
        self.parent.push((p.parent, p.via));
        self.terminal.push(st.done.iter().all(|&d| d));
        Ok(st)
    }

    fn push_next(&mut self, mut st: FrontierState<M>, id: u32) -> io::Result<()> {
        st.id = id;
        self.next.push(st);
        Ok(())
    }

    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>> {
        Ok(schedule_to(&self.parent, id))
    }

    fn resident_bytes(&self) -> u64 {
        self.parent.len() as u64 * 8 + self.terminal.len() as u64
    }

    fn into_tree(self) -> (Vec<(u32, u8)>, Vec<bool>) {
        (self.parent, self.terminal)
    }
}

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

/// The expansion settings that stay fixed for a whole run.
#[derive(Clone, Copy)]
struct Expansion {
    workers: usize,
    record_edges: bool,
    por: bool,
    /// The fault-budget register, if any.
    crash_loc: Option<Loc>,
}

/// One expansion worker: the shared lookups, its private register file
/// and key buffer, and what it has produced so far.
struct Expander<'a, M, K: EngineKey, V> {
    pending: &'a [Mutex<KeyMap<K, Pend>>],
    visited: &'a V,
    record_edges: bool,
    wid: u32,
    wmem: SimMemory,
    kb: KeyBuilder,
    out: WorkerOut<M>,
}

impl<'a, M: StepMachine, K: EngineKey, V: Visited<K>> Expander<'a, M, K, V> {
    /// Worker `wid`, with a private register file as wide as `snap`.
    fn new(
        pending: &'a [Mutex<KeyMap<K, Pend>>],
        visited: &'a V,
        record_edges: bool,
        wid: u32,
        snap: &[Word],
    ) -> Self {
        let out = WorkerOut {
            fresh: Vec::new(),
            transitions: 0,
            edges: Vec::new(),
            reduced: Vec::new(),
        };
        let (wmem, kb) = (SimMemory::with_values(snap), KeyBuilder::default());
        Self { pending, visited, record_edges, wid, wmem, kb, out }
    }

    /// Steps machine `i` of frontier state `st` and routes the successor:
    /// frozen states only record an edge, unknown states are materialized
    /// and min-merged into the `pending` shards. Returns whether the
    /// successor was found frozen (for the in-worker proviso check) and
    /// its hash (for the driver's join-time one).
    ///
    /// With `crash = Some((loc, left))` the transition is a crash instead
    /// of a step: the fault-budget register `loc` is set to `left` and
    /// machine `i` is torn down via [`StepMachine::crash_restart`]; the
    /// recorded `via` is `i + `[`CRASH_SCHEDULE_BASE`] so replayed
    /// schedules distinguish the two transition kinds.
    fn step(
        &mut self,
        st: &FrontierState<M>,
        i: usize,
        crash: Option<(Loc, Word)>,
    ) -> (bool, u128) {
        self.wmem.restore(&st.snap);
        let mut mi = st.machines[i].clone();
        let (done_i, via) = match crash {
            None => (mi.step(&self.wmem).is_done(), i as u8),
            Some((loc, left)) => {
                self.wmem.write(loc, left);
                (mi.crash_restart().is_done(), (i + CRASH_SCHEDULE_BASE) as u8)
            }
        };
        self.out.transitions += 1;
        let kbuf = self.kb.build(&self.wmem, &st.machines, &st.done, Some((i, &mi, done_i)));
        let h = hash128(kbuf);
        if let Some(id) = self.visited.find(kbuf, h) {
            if self.record_edges {
                self.out.edges.push((st.id, EdgeTo::Known(id)));
            }
            return (true, h);
        }
        let shard = &self.pending[shard_of(h)];
        let merge = |p: &mut Pend| {
            if (st.id, via) < (p.parent, p.via) {
                p.parent = st.id;
                p.via = via;
            }
            (p.worker, p.idx)
        };
        // First lock: min-merge if some worker already materialized this
        // state this layer.
        let hit = K::find_mut(&mut shard.lock().expect("shard poisoned"), kbuf, h).map(merge);
        let (w2, idx2) = match hit {
            Some(wi) => wi,
            None => {
                // Materialize outside the lock, then double-check: another
                // worker may have inserted the same state meanwhile.
                let mut machines = st.machines.clone();
                machines[i] = mi;
                let mut done = st.done.clone();
                done[i] = done_i;
                let snap = self.wmem.snapshot();
                let mut g = shard.lock().expect("shard poisoned");
                if let Some(p) = K::find_mut(&mut g, kbuf, h) {
                    merge(p)
                } else {
                    let (worker, idx) = (self.wid, self.out.fresh.len() as u32);
                    let pend = Pend { worker, idx, parent: st.id, via, h };
                    g.insert(K::make(kbuf, h), pend);
                    drop(g);
                    self.out.fresh.push(Some(FrontierState { snap, machines, done, id: u32::MAX }));
                    (worker, idx)
                }
            }
        };
        if self.record_edges {
            self.out.edges.push((st.id, EdgeTo::Fresh(w2, idx2)));
        }
        (false, h)
    }
}

/// Expands one chunk of a breadth-first layer over `x.workers` scoped
/// threads.
///
/// Every frontier state's every runnable machine is stepped once — unless
/// `x.por` is on and [`AmpleCtx::choose`] picks an ample singleton for
/// the state, in which case only that machine is stepped. If the ample
/// successor is found *frozen* (discovered in an earlier-or-current
/// layer), the cycle proviso fires and the state is expanded fully after
/// all: a cycle in the reduced graph must contain an edge into an
/// earlier-or-equal layer, so no step is ignored forever. When the
/// visited set's lookup is not [complete](Visited::COMPLETE), states left
/// reduced are reported in [`WorkerOut::reduced`] so the driver can redo
/// the proviso check at join time.
///
/// Successors are looked up in the frozen set via [`Visited::find`];
/// unknown successors are materialized and min-merged into the `pending`
/// shards.
///
/// `worker_base` offsets the worker ids recorded in [`Pend`] (and in
/// [`EdgeTo::Fresh`]): a layer may be expanded in several chunks against
/// one *layer-persistent* pending set, so each chunk's workers need
/// layer-unique ids for the join to find their materializations. The
/// `frontier index` in [`WorkerOut::reduced`] stays relative to the
/// `frontier` slice passed in; the driver adds the chunk base.
///
/// With `x.crash_loc = Some(loc)` a fault budget lives in register
/// `loc`: while a state's budget is positive, partial-order reduction is
/// bypassed for that state (a crash may preempt *any* step, so no
/// singleton is ample) and, next to every ordinary step, each
/// crash-capable machine also gets a crash transition that decrements
/// the budget. States whose budget has reached zero are expanded exactly
/// as in the fault-free engine — including POR.
///
/// This is the only concurrent phase of the driver; everything it does
/// afterwards (draining `pending` in `(parent, via)` order) is
/// sequential and deterministic.
fn expand_layer<M, K, V>(
    frontier: &[FrontierState<M>],
    pending: &[Mutex<KeyMap<K, Pend>>],
    visited: &V,
    x: Expansion,
    worker_base: u32,
) -> Vec<WorkerOut<M>>
where
    M: StepMachine + Send + Sync,
    K: EngineKey,
    V: Visited<K>,
{
    let nw = x.workers.clamp(1, frontier.len());
    let chunk = frontier.len().div_ceil(nw);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nw)
            .map(|w| {
                s.spawn(move || {
                    // ceil-division chunking can leave trailing workers
                    // with an empty (clamped) range.
                    let lo = (w * chunk).min(frontier.len());
                    let hi = (lo + chunk).min(frontier.len());
                    let wid = worker_base + w as u32;
                    let snap = &frontier[0].snap;
                    let mut e = Expander::new(pending, visited, x.record_edges, wid, snap);
                    let mut ctx = AmpleCtx::new();
                    for (fi, st) in frontier.iter().enumerate().take(hi).skip(lo) {
                        // Remaining fault budget in this state. A positive
                        // budget disables POR (a crash may preempt any
                        // step, so no singleton is ample) and enables the
                        // crash-successor loop below.
                        let budget = x.crash_loc.map_or(0, |l| st.snap[l.index()]);
                        let ample = if x.por && budget == 0 {
                            ctx.choose(&st.machines, &st.done)
                        } else {
                            None
                        };
                        if let Some(a) = ample {
                            let (frozen, h) = e.step(st, a, None);
                            if !frozen {
                                if !V::COMPLETE {
                                    e.out.reduced.push((fi as u32, a as u8, h));
                                }
                                continue;
                            }
                            // Cycle proviso: fall back to full expansion
                            // (the ample step is already taken and counted).
                        }
                        for i in 0..st.machines.len() {
                            if !st.done[i] && Some(i) != ample {
                                e.step(st, i, None);
                            }
                        }
                        if budget > 0 {
                            let loc =
                                x.crash_loc.expect("positive budget implies a fault register");
                            for i in 0..st.machines.len() {
                                if !st.done[i] && st.machines[i].can_crash() {
                                    e.step(st, i, Some((loc, budget - 1)));
                                }
                            }
                        }
                    }
                    e.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an exploration worker panicked"))
            .collect()
    })
}

/// The cycle proviso for states left reduced because their ample
/// successor escaped the workers' lookup but is among the `old` pending
/// candidates [`Visited::probe_old`] found. A complete lookup would have
/// expanded them fully, so expand them fully here: one more worker,
/// `worker`, steps their other machines sequentially in frontier order
/// and min-merges into `pending` exactly as the workers would have. The
/// states it materializes are kept in `layers` and probed in their turn.
/// This keeps states, ids and violation schedules identical to a complete
/// visited set under reduction. Returns the transitions taken.
fn patch_proviso<M, K, V, S>(
    reduced: &[(u32, u8, u128)],
    old: &mut HashSet128,
    pending: &[Mutex<KeyMap<K, Pend>>],
    visited: &V,
    layers: &mut S,
    worker: u32,
) -> io::Result<u64>
where
    M: StepMachine,
    K: EngineKey,
    V: Visited<K>,
    S: LayerStore<M>,
{
    let mut patch: Vec<(u32, u8)> =
        reduced.iter().filter(|r| old.contains(&r.2)).map(|&(fi, a, _)| (fi, a)).collect();
    patch.sort_unstable();
    let mut extras: Vec<u128> = Vec::new();
    let mut e: Option<Expander<'_, M, K, V>> = None;
    for (fi, a) in patch {
        let st = layers.read_at(fi as u64)?;
        let e = e.get_or_insert_with(|| Expander::new(pending, visited, false, worker, &st.snap));
        for j in 0..st.machines.len() {
            if j != a as usize && !st.done[j] {
                let fresh = e.out.fresh.len();
                let (_, h) = e.step(&st, j, None);
                if e.out.fresh.len() > fresh {
                    extras.push(h);
                }
            }
        }
    }
    let Some(e) = e else { return Ok(0) };
    old.extend(visited.probe_old(extras.into_iter())?);
    layers.keep(e.out.fresh)?;
    Ok(e.out.transitions)
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Per-frontier-state payload bytes: one register-file snapshot, the
/// machine vector and the done flags. Used by the deterministic memory
/// accounting of both layer stores.
pub(crate) fn frontier_state_bytes<M>(words: usize, machines: usize) -> u64 {
    (words * 8 + machines * std::mem::size_of::<M>() + machines) as u64
}

/// Breadth-first exploration of the full state space over `workers`
/// threads. Visits exactly the states [`ModelChecker::check`] visits and
/// reports the same `states`/`transitions`/`terminal_states`;
/// `max_depth` counts breadth-first layers instead of DFS depth.
///
/// Violations are deterministic regardless of worker count and store:
/// ids are assigned in `(parent, via)` order layer by layer, the
/// invariant is checked in id order, and the first failing state's
/// spanning-tree schedule is reported.
///
/// Picks the stores: with [`ModelChecker::spill_dir`] set and no edges
/// recorded, the disk stores of [`crate::spill`] (dedup by state hash,
/// whatever `K` is); otherwise the RAM stores keyed by `K`. The liveness
/// checker records edges, so it keeps RAM visited ids even when spilling
/// and streams only its edge list to disk.
pub(crate) fn explore<M, F, K>(
    mc: &ModelChecker<M>,
    invariant: &F,
    workers: usize,
    record_edges: bool,
) -> Result<Explored, CheckError>
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
    K: EngineKey,
{
    match mc.spill_config() {
        Some(cfg) if !record_edges => {
            let scratch = ScratchDir::create(&cfg.dir)?;
            let words = mc.layout().len();
            let slots = mc.machines().len();
            let visited = SpillSet::create_in(scratch.path(), cfg.budget_bytes);
            let layers = DiskLayers::<M>::create(scratch.path(), cfg.budget_bytes, words, slots)?;
            drive::<M, F, PackedHash, _, _>(mc, invariant, workers, false, visited, layers)
        }
        _ => {
            let (visited, layers) = (RamVisited::default(), RamLayers::default());
            drive::<M, F, K, _, _>(mc, invariant, workers, record_edges, visited, layers)
        }
    }
}

/// The layer loop, once, over a visited set `V` and a layer store `S`.
fn drive<M, F, K, V, S>(
    mc: &ModelChecker<M>,
    invariant: &F,
    workers: usize,
    record_edges: bool,
    mut visited: V,
    mut layers: S,
) -> Result<Explored, CheckError>
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
    K: EngineKey,
    V: Visited<K>,
    S: LayerStore<M>,
{
    let layout = mc.initial_layout();
    let mem = SimMemory::new(&layout);
    let machines0 = mc.initial_machines().to_vec();
    assert!(
        machines0.len() < u8::MAX as usize,
        "the frontier engine supports at most 254 machines"
    );
    assert!(
        mc.crash_loc().is_none() || machines0.len() <= CRASH_SCHEDULE_BASE,
        "with a fault budget the frontier engine supports at most {CRASH_SCHEDULE_BASE} machines \
         (crash transitions are encoded as machine + {CRASH_SCHEDULE_BASE})"
    );
    let per_state = frontier_state_bytes::<M>(mem.len(), machines0.len());
    let done0 = vec![false; machines0.len()];
    let x = Expansion {
        workers,
        record_edges,
        por: mc.por_on(),
        crash_loc: mc.crash_loc(),
    };

    let mut stats = CheckStats::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // With a spill budget configured, the edge list — the only forward
    // structure that grows with *transitions* rather than states — is
    // streamed to an append-only log instead of accumulating in RAM.
    let mut edge_disk: Option<(ScratchDir, EdgeLog)> = match (record_edges, mc.spill_config()) {
        (true, Some(cfg)) => {
            let guard = ScratchDir::create(&cfg.dir)?;
            let log = EdgeLog::create(guard.path().join("edges.log"))?;
            Some((guard, log))
        }
        _ => None,
    };

    {
        let mut kb = KeyBuilder::default();
        let key0 = kb.build(&mem, &machines0, &done0, None);
        let h0 = hash128(key0);
        visited.insert(K::make(key0, h0), h0, 0)?;
    }
    stats.states = 1;
    if done0.iter().all(|&d| d) {
        stats.terminal_states = 1;
    }
    if let Err(message) = invariant(&World { mem: &mem, machines: &machines0, done: &done0 }) {
        let trace = "(violated in the initial state)".into();
        let violation = Violation { message, schedule: vec![], trace, stats };
        return Err(CheckError::Violation(Box::new(violation)));
    }
    let snap = mem.snapshot();
    layers.push_root(FrontierState { snap, machines: machines0, done: done0, id: 0 })?;
    let mut layer_len = layers.advance()?;
    // Scratch register file for main-thread invariant checks.
    let check_mem = SimMemory::new(&layout);

    while layer_len > 0 {
        let mut pending: Vec<Mutex<KeyMap<K, Pend>>> =
            (0..SHARDS).map(|_| Mutex::new(KeyMap::default())).collect();
        let mut worker_base: u32 = 0;
        // POR-reduced states, with layer-global frontier ordinals.
        let mut reduced: Vec<(u32, u8, u128)> = Vec::new();
        // With edge recording: each worker's edges, and `assigned[w][idx]`
        // mapping its fresh slots to global ids.
        let mut layer_edges: Vec<Vec<(u32, EdgeTo)>> = Vec::new();
        let mut assigned: Vec<Vec<u32>> = Vec::new();
        // Peak bytes of one chunk's frontier states plus successors.
        let mut chunk_peak: u64 = 0;
        let mut pos: u64 = 0;
        while pos < layer_len {
            let (n, outs) = layers.with_chunk(pos, |chunk| {
                expand_layer(chunk, &pending, &visited, x, worker_base)
            })?;
            stats.transitions += outs.iter().map(|o| o.transitions).sum::<u64>();
            let materialized: usize = outs.iter().map(|o| o.fresh.len()).sum();
            chunk_peak = chunk_peak.max((n + materialized) as u64 * per_state);
            worker_base += outs.len() as u32;
            for out in outs {
                if record_edges {
                    assigned.push(vec![u32::MAX; out.fresh.len()]);
                    layer_edges.push(out.edges);
                }
                for (fi, a, h) in out.reduced {
                    reduced.push((pos as u32 + fi, a, h));
                }
                layers.keep(out.fresh)?;
            }
            pos += n as u64;
        }

        // Sequential phase: find the candidates the visited set knew
        // although the workers' lookup missed them, complete the proviso
        // for states reduced towards one, then drain pending.
        let shards: Vec<&KeyMap<K, Pend>> =
            pending.iter_mut().map(|s| &*s.get_mut().expect("shard poisoned")).collect();
        let candidates: u64 = shards.iter().map(|s| s.len() as u64).sum();
        // Folds this layer's deterministic resident footprint into the
        // peak — both stores, the peak chunk with everything it
        // materialized, the pending entries, and the edge list when it
        // accumulates in RAM — and brings the disk bytes up to date.
        let account = move |stats: &mut CheckStats, visited: &V, layers: &S, edges: usize| {
            let resident = visited.resident_bytes()
                + layers.resident_bytes()
                + chunk_peak
                + candidates * V::PEND_BYTES
                + edges as u64 * 8;
            stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
            stats.spilled_bytes = visited.spilled_bytes() + layers.spilled_bytes();
        };
        let mut old = visited.probe_old(shards.iter().flat_map(|s| s.values().map(|p| p.h)))?;
        stats.transitions +=
            patch_proviso(&reduced, &mut old, &pending, &visited, &mut layers, worker_base)?;
        let mut discovered: Vec<(K, Pend)> = Vec::new();
        for shard in pending {
            discovered.extend(shard.into_inner().expect("shard poisoned"));
        }
        // (parent, via) is unique per entry — `step` is deterministic, so one
        // parent/machine pair can produce only one successor — hence this
        // order is total and worker-independent.
        discovered.sort_unstable_by_key(|(_, p)| (p.parent, p.via));
        layers.reserve_next(discovered.len());

        for (k, p) in discovered {
            if old.contains(&p.h) {
                // Visited in an earlier layer: a complete lookup would
                // have skipped it at expansion time.
                continue;
            }
            stats.states += 1;
            if stats.states as usize > mc.state_limit() {
                account(&mut stats, &visited, &layers, edges.len());
                return Err(CheckError::StateLimit { limit: mc.state_limit(), stats });
            }
            // `state_limit` is at most `u32::MAX`, so ids stay below the
            // root's `u32::MAX` parent sentinel.
            let id = (stats.states - 1) as u32;
            visited.insert(k, p.h, id)?;
            if record_edges {
                assigned[p.worker as usize][p.idx as usize] = id;
            }
            let fresh = layers.take_fresh(&p)?;
            let st: &FrontierState<M> = fresh.borrow();
            if st.done.iter().all(|&d| d) {
                stats.terminal_states += 1;
            }

            check_mem.restore(&st.snap);
            let world = World { mem: &check_mem, machines: &st.machines, done: &st.done };
            if let Err(message) = invariant(&world) {
                let schedule = layers.schedule_to(id)?;
                let trace = mc.render_trace(&schedule);
                account(&mut stats, &visited, &layers, edges.len());
                let violation = Violation { message, schedule, trace, stats };
                return Err(CheckError::Violation(Box::new(violation)));
            }
            layers.push_next(fresh, id)?;
        }

        for (from, to) in layer_edges.into_iter().flatten() {
            let to_id = match to {
                EdgeTo::Known(id) => id,
                EdgeTo::Fresh(w2, idx2) => assigned[w2 as usize][idx2 as usize],
            };
            match &mut edge_disk {
                Some((_, log)) => log.push(from, to_id)?,
                None => edges.push((from, to_id)),
            }
        }

        account(&mut stats, &visited, &layers, edges.len());
        layer_len = layers.advance()?;
        if layer_len > 0 {
            stats.max_depth += 1;
        }
    }

    stats.spilled_bytes = visited.spilled_bytes() + layers.spilled_bytes();
    let edges = match edge_disk {
        Some((guard, log)) => {
            let (path, count) = log.finish()?;
            stats.spilled_bytes += count * 8;
            EdgeStore::Disk { guard, path, count }
        }
        None => EdgeStore::Ram(edges),
    };
    let (parent, terminal) = layers.into_tree();
    Ok(Explored { stats, parent, terminal, edges })
}

impl<M: StepMachine + Send + Sync> ModelChecker<M> {
    /// Exhaustively explores the state space breadth-first over
    /// [`workers`](Self::workers) threads, checking `invariant` in every
    /// reachable state (including the initial one).
    ///
    /// Visits exactly the same states as [`check`](Self::check) and
    /// reports identical `states`, `transitions` and `terminal_states`
    /// (`max_depth` counts breadth-first layers instead of DFS depth).
    /// Violation reporting is deterministic for every worker count: state
    /// ids follow the layered `(parent, via)` order, and the first
    /// violating id's spanning-tree schedule is returned.
    ///
    /// With [`spill_dir`](Self::spill_dir) configured, the same driver
    /// runs over the disk stores (the `spill` module): the visited set is
    /// kept in sorted runs with only a bounded in-RAM delta, and the
    /// layers stream through files; the reported counts and any
    /// violation remain bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Violation`] with a replayable schedule if the
    /// invariant fails, [`CheckError::StateLimit`] if the configured
    /// state bound is exceeded before the search completes, or
    /// [`CheckError::Io`] if the spill backend hits an I/O error.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_mc::{MachineStatus, ModelChecker, StepMachine};
    /// use llr_mem::{Layout, Loc, Memory};
    ///
    /// #[derive(Clone)]
    /// struct Count { x: Loc, left: u8 }
    /// impl StepMachine for Count {
    ///     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
    ///         mem.write(self.x, self.left as u64);
    ///         self.left -= 1;
    ///         if self.left == 0 { MachineStatus::Done } else { MachineStatus::Running }
    ///     }
    ///     fn key(&self, out: &mut Vec<u64>) { out.push(self.left as u64); }
    ///     fn describe(&self) -> String { format!("left={}", self.left) }
    /// }
    ///
    /// let mut layout = Layout::new();
    /// let x = layout.scalar("X", 0);
    /// let machines = vec![Count { x, left: 2 }, Count { x, left: 2 }];
    /// let seq = ModelChecker::new(layout.clone(), machines.clone())
    ///     .check(|_| Ok(()))
    ///     .unwrap();
    /// let par = ModelChecker::new(layout, machines)
    ///     .workers(2)
    ///     .check_parallel(|_| Ok(()))
    ///     .unwrap();
    /// assert_eq!(par.states, seq.states); // engines agree exactly
    /// assert_eq!(par.transitions, seq.transitions);
    /// ```
    pub fn check_parallel<F>(&self, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let workers = self.resolved_workers();
        let explored = if self.hashed() {
            explore::<M, F, PackedHash>(self, &invariant, workers, false)
        } else {
            explore::<M, F, Box<[u64]>>(self, &invariant, workers, false)
        };
        explored.map(|e| e.stats)
    }
}
