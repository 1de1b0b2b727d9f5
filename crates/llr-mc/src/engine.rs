//! Parallel breadth-first frontier exploration.
//!
//! The engine expands the reachable state space one breadth-first layer at
//! a time. Within a layer, `std::thread::scope` workers each expand a
//! contiguous chunk of the frontier ([`expand_layer`], also reused by the
//! external-memory backend in [`crate::spill`]):
//!
//! * the **frozen** visited set (all states discovered in earlier layers)
//!   is a plain sharded `HashMap` read lock-free by every worker — it is
//!   immutable for the whole layer. Under hashed dedup its key is the
//!   state's [`hash128`], and the table uses that hash's low bits as is
//!   ([`PreHashed`](crate::hash::PreHashed)) instead of hashing it again;
//! * states first discovered *in this layer* go into **pending** — 64
//!   mutex-guarded shards keyed like the frozen set. Each pending entry
//!   remembers which worker materialized the successor state and the
//!   schedule-least `(parent, via)` edge that reached it (min-merged on
//!   every rediscovery).
//!
//! After the scope joins, a sequential phase drains pending, sorts the
//! fresh states by `(parent id, via)` — parent ids are themselves assigned
//! in this order, so state numbering, parent pointers, and therefore the
//! first reported violation are **identical for every worker count** —
//! assigns ids, checks the invariant, and promotes the entries into the
//! frozen set for the next layer.
//!
//! The same engine builds the liveness graph: with edge recording on,
//! every transition is reported as a `(from, to)` id pair, which
//! [`crate::liveness`] consumes for its backward reachability marking.
//!
//! Exploration is instrumented with deterministic memory accounting: the
//! engine tracks the payload bytes of its own structures (visited set,
//! frontier materializations, pending entries, spanning-tree parents) and
//! reports the per-layer peak as
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes).

use crate::checker::{
    CheckError, CheckStats, KeyBuilder, ModelChecker, Violation, World, CRASH_SCHEDULE_BASE,
};
use crate::hash::{hash128, BuildPreHashed, PackedHash};
use crate::por::AmpleCtx;
use crate::StepMachine;
use llr_mem::{Loc, Memory as _, SimMemory, Word};
use std::collections::{hash_map::RandomState, HashMap};
use std::hash::{BuildHasher, Hash};
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
    fn find_mut<'m, V>(map: &'m mut KeyMap<Self, V>, buf: &[u64], h: u128)
        -> Option<&'m mut V>;
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
    fn find_mut<'m, V>(
        map: &'m mut KeyMap<Self, V>,
        buf: &[u64],
        _h: u128,
    ) -> Option<&'m mut V> {
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
    fn find_mut<'m, V>(
        map: &'m mut KeyMap<Self, V>,
        _buf: &[u64],
        h: u128,
    ) -> Option<&'m mut V> {
        map.get_mut(&h.into())
    }
    fn bytes(&self) -> u64 {
        16
    }
}

/// A fully materialized frontier state.
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
    /// the spill backend can re-check the cycle proviso against the
    /// on-disk visited set at join time and patch up with a full
    /// expansion where it fires.
    pub(crate) reduced: Vec<(u32, u8, u128)>,
}

/// Where the recorded transition pairs ended up.
pub(crate) enum EdgeStore {
    /// The full `(from, to)` list in RAM — the default, and always the
    /// variant when edge recording was off (then the list is empty).
    Ram(Vec<(u32, u32)>),
    /// Streamed to an append-only [`EdgeLog`](crate::frontier::EdgeLog)
    /// file because a spill budget is configured; the scratch guard
    /// keeps the file alive until the consumer is done.
    Disk {
        guard: crate::frontier::ScratchDir,
        path: std::path::PathBuf,
        count: u64,
    },
}

/// The engine's result: exploration stats plus the spanning-tree parent
/// pointers (always) and the full edge list (when requested).
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

/// Steps machine `i` of frontier state `st` and routes the successor:
/// frozen states only record an edge, unknown states are materialized and
/// min-merged into the `pending` shards. Returns the successor's hash and
/// whether it was found frozen (the spill backend needs the hash for its
/// join-time proviso re-check; the in-RAM engines use only the flag).
///
/// With `crash = Some((loc, left))` the transition is a crash instead of
/// a step: the fault-budget register `loc` is set to `left` and machine
/// `i` is torn down via [`StepMachine::crash_restart`]; the recorded
/// `via` is `i + `[`CRASH_SCHEDULE_BASE`] so replayed schedules
/// distinguish the two transition kinds.
#[allow(clippy::too_many_arguments)]
fn step_state<M, K, L>(
    st: &FrontierState<M>,
    i: usize,
    crash: Option<(Loc, Word)>,
    wmem: &SimMemory,
    kb: &mut KeyBuilder,
    pending: &[Mutex<KeyMap<K, Pend>>],
    symmetry: bool,
    record_edges: bool,
    frozen_find: &L,
    wid: u32,
    out: &mut WorkerOut<M>,
) -> (bool, u128)
where
    M: StepMachine,
    K: EngineKey,
    L: Fn(&[u64], u128) -> Option<u32>,
{
    wmem.restore(&st.snap);
    let mut mi = st.machines[i].clone();
    let (done_i, via) = match crash {
        None => (mi.step(wmem).is_done(), i as u8),
        Some((loc, left)) => {
            wmem.write(loc, left);
            (mi.crash_restart().is_done(), (i + CRASH_SCHEDULE_BASE) as u8)
        }
    };
    out.transitions += 1;
    let kbuf = kb.build(wmem, &st.machines, &st.done, Some((i, &mi, done_i)), symmetry);
    let h = hash128(kbuf);
    let sh = shard_of(h);
    if let Some(id) = frozen_find(kbuf, h) {
        if record_edges {
            out.edges.push((st.id, EdgeTo::Known(id)));
        }
        return (true, h);
    }
    // First lock: min-merge if some worker already materialized this
    // state this layer.
    let hit = {
        let mut g = pending[sh].lock().expect("shard poisoned");
        if let Some(p) = K::find_mut(&mut g, kbuf, h) {
            if (st.id, via) < (p.parent, p.via) {
                p.parent = st.id;
                p.via = via;
            }
            Some((p.worker, p.idx))
        } else {
            None
        }
    };
    let (w2, idx2) = match hit {
        Some(wi) => wi,
        None => {
            // Materialize outside the lock, then double-check: another
            // worker may have inserted the same state meanwhile.
            let mut machines = st.machines.clone();
            machines[i] = mi;
            let mut done = st.done.clone();
            done[i] = done_i;
            let snap = wmem.snapshot();
            let mut g = pending[sh].lock().expect("shard poisoned");
            if let Some(p) = K::find_mut(&mut g, kbuf, h) {
                if (st.id, via) < (p.parent, p.via) {
                    p.parent = st.id;
                    p.via = via;
                }
                (p.worker, p.idx)
            } else {
                let idx = out.fresh.len() as u32;
                g.insert(
                    K::make(kbuf, h),
                    Pend {
                        worker: wid,
                        idx,
                        parent: st.id,
                        via,
                        h,
                    },
                );
                drop(g);
                out.fresh.push(Some(FrontierState {
                    snap,
                    machines,
                    done,
                    id: u32::MAX,
                }));
                (wid, idx)
            }
        }
    };
    if record_edges {
        out.edges.push((st.id, EdgeTo::Fresh(w2, idx2)));
    }
    (false, h)
}

/// Expands one breadth-first layer over `workers` scoped threads.
///
/// Every frontier state's every runnable machine is stepped once — unless
/// `por` is on and [`AmpleCtx::choose`] picks an ample singleton for the
/// state, in which case only that machine is stepped. If the ample
/// successor is found *frozen* (discovered in an earlier-or-current
/// layer), the cycle proviso fires and the state is expanded fully after
/// all: a cycle in the reduced graph must contain an edge into an
/// earlier-or-equal layer, so no step is ignored forever. With
/// `record_reduced`, states left reduced are reported in
/// [`WorkerOut::reduced`] so the spill backend — whose `frozen_find` only
/// sees the in-RAM delta of the visited set — can redo the proviso check
/// against disk at join time.
///
/// Successors are looked up in the frozen set via `frozen_find` (which
/// returns the frozen id, used only for edge recording — the in-RAM
/// engine passes a sharded-map lookup, the spill engine a membership
/// test over its in-RAM delta); unknown successors are materialized and
/// min-merged into the `pending` shards.
///
/// `worker_base` offsets the worker ids recorded in [`Pend`] (and in
/// [`EdgeTo::Fresh`]): the in-RAM engine expands whole layers at once and
/// passes `0`, while the spill backend expands one bounded chunk of the
/// on-disk layer at a time against a *layer-persistent* pending set, so
/// each chunk's workers need globally unique ids for the join to find
/// their materializations. The `frontier index` in [`WorkerOut::reduced`]
/// stays relative to the `frontier` slice passed in; chunked callers add
/// their chunk base.
///
/// With `crash_loc = Some(loc)` a fault budget lives in register `loc`:
/// while a state's budget is positive, partial-order reduction is
/// bypassed for that state (a crash may preempt *any* step, so no
/// singleton is ample) and, next to every ordinary step, each
/// crash-capable machine also gets a crash transition that decrements
/// the budget. States whose budget has reached zero are expanded exactly
/// as in the fault-free engine — including POR.
///
/// This is the only concurrent phase of either backend; everything the
/// caller does afterwards (draining `pending` in `(parent, via)` order)
/// is sequential and deterministic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_layer<M, K, L>(
    frontier: &[FrontierState<M>],
    pending: &[Mutex<KeyMap<K, Pend>>],
    workers: usize,
    symmetry: bool,
    record_edges: bool,
    por: bool,
    record_reduced: bool,
    crash_loc: Option<Loc>,
    worker_base: u32,
    frozen_find: &L,
) -> Vec<WorkerOut<M>>
where
    M: StepMachine + Send + Sync,
    K: EngineKey,
    L: Fn(&[u64], u128) -> Option<u32> + Sync,
{
    let nw = workers.clamp(1, frontier.len());
    let chunk = frontier.len().div_ceil(nw);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nw)
            .map(|w| {
                s.spawn(move || {
                    let wid = worker_base + w as u32;
                    // ceil-division chunking can leave trailing workers
                    // with an empty (clamped) range.
                    let lo = (w * chunk).min(frontier.len());
                    let hi = (lo + chunk).min(frontier.len());
                    let mut out = WorkerOut {
                        fresh: Vec::new(),
                        transitions: 0,
                        edges: Vec::new(),
                        reduced: Vec::new(),
                    };
                    if lo >= hi {
                        return out;
                    }
                    let mut kb = KeyBuilder::default();
                    let mut ample = AmpleCtx::new();
                    // Worker-private register file, restored per state.
                    let wmem = SimMemory::with_values(&frontier[lo].snap);
                    for (fi, st) in frontier.iter().enumerate().take(hi).skip(lo) {
                        // Remaining fault budget in this state. A positive
                        // budget disables POR (a crash may preempt any
                        // step, so no singleton is ample) and enables the
                        // crash-successor loop below.
                        let budget = crash_loc.map_or(0, |l| st.snap[l.index()]);
                        if por && budget == 0 {
                            if let Some(a) = ample.choose(&st.machines, &st.done) {
                                let (frozen, h) = step_state(
                                    st, a, None, &wmem, &mut kb, pending, symmetry,
                                    record_edges, frozen_find, wid, &mut out,
                                );
                                if frozen {
                                    // Cycle proviso: fall back to full
                                    // expansion (the ample step is already
                                    // taken and counted).
                                    for j in 0..st.machines.len() {
                                        if j != a && !st.done[j] {
                                            step_state(
                                                st, j, None, &wmem, &mut kb,
                                                pending, symmetry, record_edges,
                                                frozen_find, wid, &mut out,
                                            );
                                        }
                                    }
                                } else if record_reduced {
                                    out.reduced.push((fi as u32, a as u8, h));
                                }
                                continue;
                            }
                        }
                        for i in 0..st.machines.len() {
                            if !st.done[i] {
                                step_state(
                                    st, i, None, &wmem, &mut kb, pending, symmetry,
                                    record_edges, frozen_find, wid, &mut out,
                                );
                            }
                        }
                        if budget > 0 {
                            let loc = crash_loc.expect("positive budget implies a fault register");
                            for i in 0..st.machines.len() {
                                if !st.done[i] && st.machines[i].can_crash() {
                                    step_state(
                                        st, i, Some((loc, budget - 1)), &wmem,
                                        &mut kb, pending, symmetry, record_edges,
                                        frozen_find, wid, &mut out,
                                    );
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an exploration worker panicked"))
            .collect()
    })
}

/// Per-frontier-state payload bytes: one register-file snapshot, the
/// machine vector and the done flags. Used by the deterministic memory
/// accounting of both parallel backends.
pub(crate) fn frontier_state_bytes<M>(words: usize, machines: usize) -> u64 {
    (words * 8 + machines * std::mem::size_of::<M>() + machines) as u64
}

/// Breadth-first exploration of the full state space over `workers`
/// threads. Visits exactly the states [`ModelChecker::check`] visits and
/// reports the same `states`/`transitions`/`terminal_states`;
/// `max_depth` counts breadth-first layers instead of DFS depth.
///
/// Violations are deterministic regardless of worker count: ids are
/// assigned in `(parent, via)` order layer by layer, the invariant is
/// checked in id order, and the first failing state's spanning-tree
/// schedule is reported.
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
    let symmetry = mc.symmetry();
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

    let mut stats = CheckStats::default();
    let mut frozen: Vec<KeyMap<K, u32>> = (0..SHARDS).map(|_| KeyMap::default()).collect();
    let mut parent: Vec<(u32, u8)> = vec![(u32::MAX, 0)];
    let mut terminal: Vec<bool> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // With a spill budget configured, the edge list — the only forward
    // structure that grows with *transitions* rather than states — is
    // streamed to an append-only log instead of accumulating in RAM.
    let mut edge_disk: Option<(crate::frontier::ScratchDir, crate::frontier::EdgeLog)> =
        match (record_edges, mc.spill_config()) {
            (true, Some(cfg)) => {
                let guard = crate::frontier::ScratchDir::create(&cfg.dir)?;
                let log = crate::frontier::EdgeLog::create(guard.path().join("edges.log"))?;
                Some((guard, log))
            }
            _ => None,
        };
    // Running payload bytes of the frozen visited set.
    let mut visited_bytes: u64 = 0;

    {
        let mut kb = KeyBuilder::default();
        let key0 = kb.build(&mem, &machines0, &done0, None, symmetry);
        let h0 = hash128(key0);
        let k0 = K::make(key0, h0);
        visited_bytes += k0.bytes() + 4;
        frozen[shard_of(h0)].insert(k0, 0);
    }
    stats.states = 1;
    terminal.push(done0.iter().all(|&d| d));
    if terminal[0] {
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

    let mut frontier: Vec<FrontierState<M>> = vec![FrontierState {
        snap: mem.snapshot(),
        machines: machines0,
        done: done0,
        id: 0,
    }];
    // Scratch register file for main-thread invariant checks.
    let check_mem = SimMemory::new(&layout);

    while !frontier.is_empty() {
        let pending: Vec<Mutex<KeyMap<K, Pend>>> =
            (0..SHARDS).map(|_| Mutex::new(KeyMap::default())).collect();
        let frozen_ref = &frozen;
        let find = |buf: &[u64], h: u128| K::find(&frozen_ref[shard_of(h)], buf, h);
        // The in-RAM frozen set is the complete visited set, so the cycle
        // proviso is fully handled inside `expand_layer`; no reduced-state
        // records are needed.
        let mut outs = expand_layer(
            &frontier,
            &pending,
            workers,
            symmetry,
            record_edges,
            mc.por_on(),
            false,
            mc.crash_loc(),
            0,
            &find,
        );

        stats.transitions += outs.iter().map(|o| o.transitions).sum::<u64>();
        let materialized: usize = outs.iter().map(|o| o.fresh.len()).sum();

        // Phase B (sequential): drain pending in deterministic order.
        let mut discovered: Vec<(K, Pend)> = Vec::new();
        for shard in pending {
            let map = shard.into_inner().expect("shard poisoned");
            discovered.extend(map);
        }
        // (parent, via) is unique per entry — `step` is deterministic, so one
        // parent/machine pair can produce only one successor — hence this
        // order is total and worker-independent.
        discovered.sort_unstable_by_key(|(_, p)| (p.parent, p.via));
        let fresh_n = discovered.len() as u64;

        // `assigned[w][idx]` maps a worker-local fresh slot to its global id.
        let mut assigned: Vec<Vec<u32>> =
            outs.iter().map(|o| vec![u32::MAX; o.fresh.len()]).collect();
        let mut next_frontier: Vec<FrontierState<M>> = Vec::with_capacity(discovered.len());

        for (k, p) in discovered {
            let id = u32::try_from(stats.states).expect("state ids exceed u32");
            stats.states += 1;
            if stats.states as usize > mc.state_limit() {
                return Err(CheckError::StateLimit {
                    limit: mc.state_limit(),
                    stats,
                });
            }
            visited_bytes += k.bytes() + 4;
            frozen[shard_of(p.h)].insert(k, id);
            assigned[p.worker as usize][p.idx as usize] = id;
            let mut st = outs[p.worker as usize].fresh[p.idx as usize]
                .take()
                .expect("pending entry names a materialized state");
            st.id = id;
            parent.push((p.parent, p.via));
            let term = st.done.iter().all(|&d| d);
            terminal.push(term);
            if term {
                stats.terminal_states += 1;
            }

            check_mem.restore(&st.snap);
            let world = World {
                mem: &check_mem,
                machines: &st.machines,
                done: &st.done,
            };
            if let Err(message) = invariant(&world) {
                let schedule = schedule_to(&parent, id);
                let trace = mc.render_trace(&schedule);
                return Err(CheckError::Violation(Box::new(Violation {
                    message,
                    schedule,
                    trace,
                    stats,
                })));
            }
            next_frontier.push(st);
        }

        if record_edges {
            for out in &outs {
                for (from, to) in &out.edges {
                    let to_id = match *to {
                        EdgeTo::Known(id) => id,
                        EdgeTo::Fresh(w2, idx2) => assigned[w2 as usize][idx2 as usize],
                    };
                    match &mut edge_disk {
                        Some((_, log)) => log.push(*from, to_id)?,
                        None => edges.push((*from, to_id)),
                    }
                }
            }
        }

        // Deterministic per-layer resident footprint: visited set, the
        // expanded frontier plus every state materialized this layer,
        // the pending-map entries, the spanning-tree arrays, and — when
        // it accumulates in RAM — the recorded edge list.
        let resident = visited_bytes
            + (frontier.len() + materialized) as u64 * per_state
            + fresh_n * PEND_OVERHEAD_BYTES
            + parent.len() as u64 * 8
            + terminal.len() as u64
            + edges.len() as u64 * 8;
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);

        if !next_frontier.is_empty() {
            stats.max_depth += 1;
        }
        frontier = next_frontier;
    }

    let edges = match edge_disk {
        Some((guard, log)) => {
            let (path, count) = log.finish()?;
            stats.spilled_bytes += count * 8;
            EdgeStore::Disk { guard, path, count }
        }
        None => EdgeStore::Ram(edges),
    };
    Ok(Explored {
        stats,
        parent,
        terminal,
        edges,
    })
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
    /// With [`spill_dir`](Self::spill_dir) configured, the visited set is
    /// kept in sorted runs on disk (the `spill` module) and only a
    /// bounded in-RAM delta is held; the reported counts and any
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
        if self.spill_config().is_some() {
            crate::spill::explore_spilled(self, &invariant, workers).map(|e| e.stats)
        } else if self.hashed() {
            explore::<M, F, PackedHash>(self, &invariant, workers, false).map(|e| e.stats)
        } else {
            explore::<M, F, Box<[u64]>>(self, &invariant, workers, false).map(|e| e.stats)
        }
    }
}
