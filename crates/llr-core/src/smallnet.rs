//! **Small splitter networks** — Aspnes' "slightly smaller splitter
//! networks" (arXiv:1011.3170), the second rival protocol behind the
//! session layer: a depth-parameterized one-shot renaming network that
//! beats the classic Moir–Anderson grid (`crate::onetime`) by deleting
//! every splitter the capacity argument proves redundant.
//!
//! # Reconstruction note
//!
//! Only the abstract of arXiv:1011.3170 is available offline (see
//! PAPERS.md): *"the classic renaming protocol of Moir and Anderson uses
//! a network of Θ(n²) splitters … we show how to reduce this bound"*. As
//! with the grid itself (`crate::ma`), the construction is rebuilt from
//! that statement plus first principles. The reconstruction keeps the
//! paper's headline — same name guarantee, strictly fewer splitters —
//! via the capacity observation the MA grid leaves on the table:
//!
//! In a triangular splitter network entered by `k` processes, **at most
//! `k − r − c` processes ever reach position `(r, c)`** (each Right move
//! strands a non-Right process behind it, each Down move a non-Down one).
//! So on the diagonal `r + c = k − 1`, at most **one** process arrives —
//! and a splitter whose entry bound is one is a waste of two registers
//! and four accesses: its sole entrant always stops. A depth-`ℓ` network
//! for `k = ℓ + 1` processes therefore places splitters only on diagonals
//! `0 .. ℓ−1` (that is `ℓ(ℓ+1)/2` of them, versus the grid's
//! `k(k+1)/2`) and makes the final diagonal **register-free**: a process
//! arriving there takes the position's name with zero further accesses.
//! Same destination space `D = k(k+1)/2`, `k` fewer splitters (`2k`
//! registers), and the deepest path saves its final four accesses.
//!
//! A note on the ISSUE's suggestion to build on `crate::splitter` (the
//! BGHM Figure-2 *long-lived* set-splitter): that primitive cannot be
//! shared between network positions — long-lived renaming needs a
//! dedicated capacity chain `k → k−1 → … → 1` per name, which forces the
//! full SPLIT tree. A *smaller* network is only possible one-shot, on
//! the classic three-line splitter, and that is what Aspnes' title
//! promises ("renaming in a synchronous message-passing… splitter
//! networks" family is one-shot throughout). Hence [`SmallNetCore`] is a
//! one-shot core (`RELEASES = false`, like [`crate::onetime::OneTimeCore`])
//! with its own splitter micro-machine, and the long-lived benchmark
//! integration goes through the generational [`RenewableNet`] wrapper.
//!
//! # Crash behaviour
//!
//! A crash mid-walk leaves torn `X`/`Y` marks; those only deflect later
//! processes (a set `Y` sends them Right, a foreign `X` sends them Down)
//! — they can never cause a second stop on a claimed cell, and the
//! capacity argument above is monotone in the number of entrants, so the
//! free diagonal stays single-entrant as long as **total entrants
//! (including restarted incarnations) stay ≤ k**. Size the network for
//! live processes plus spares, exactly as the E12 configurations do.
//!
//! # Example
//!
//! ```
//! use llr_core::smallnet::SmallNet;
//!
//! let net = SmallNet::new(3); // depth ℓ = 3 ⇒ k = 4 entrants
//! let (name, accesses) = net.get_name(7);
//! assert!(name < 10); // D = k(k+1)/2
//! assert!(accesses <= 4 * 3); // ≤ 4 accesses per splitter diagonal
//! ```

use crate::session::{ProtocolCore, Session};
use crate::traits::{Renaming, RenamingHandle};
use crate::types::enc::{FALSE, TRUE};
use crate::types::{Name, Pid};
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Counting, Layout, Loc, Memory, Word};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Registers of one one-shot splitter in the network.
#[derive(Clone, Copy, Debug)]
struct NetSplitterRegs {
    x: Loc,
    y: Loc,
}

/// The static shape of a depth-`ℓ` small splitter network. Cheap to
/// clone.
#[derive(Clone, Debug)]
pub struct SmallNetShape {
    /// Depth: splitters live on diagonals `0..ℓ`, the free (register-less)
    /// names on diagonal `ℓ`. Admits `k = ℓ + 1` entrants.
    ell: usize,
    /// Splitters of cells with `r + c < ℓ`, in row-major triangle order.
    splitters: Arc<[NetSplitterRegs]>,
}

impl SmallNetShape {
    /// Allocates the pruned network in `layout`.
    pub fn build(ell: usize, layout: &mut Layout) -> Self {
        let mut splitters = Vec::with_capacity(ell * (ell + 1) / 2);
        for r in 0..ell {
            for c in 0..ell - r {
                splitters.push(NetSplitterRegs {
                    x: layout.scalar(format!("N{r}_{c}.X"), u64::MAX),
                    y: layout.scalar(format!("N{r}_{c}.Y"), FALSE),
                });
            }
        }
        Self { ell, splitters: splitters.into() }
    }

    /// The depth `ℓ`.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Entrants admitted, `k = ℓ + 1`.
    pub fn k(&self) -> usize {
        self.ell + 1
    }

    /// Destination names, `D = k(k+1)/2` (all cells with `r + c ≤ ℓ`).
    pub fn dest_size(&self) -> u64 {
        let k = self.k() as u64;
        k * (k + 1) / 2
    }

    /// Splitters in the network, `ℓ(ℓ+1)/2` — `k` fewer than the MA grid
    /// spends for the same `D`.
    pub fn splitter_count(&self) -> usize {
        self.splitters.len()
    }

    /// The name of cell `(r, c)` — row-major over the triangle of side
    /// `ℓ + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the triangle.
    pub fn cell_name(&self, r: usize, c: usize) -> Name {
        assert!(r + c <= self.ell, "({r},{c}) outside the depth-{} triangle", self.ell);
        (r * (self.ell + 1) - r * r.saturating_sub(1) / 2 + c) as Name
    }

    /// Row-major index of the *splitter* at `(r, c)` (`r + c < ℓ`).
    fn splitter(&self, r: usize, c: usize) -> NetSplitterRegs {
        debug_assert!(r + c < self.ell);
        self.splitters[r * self.ell - r * r.saturating_sub(1) / 2 + c]
    }
}

/// The network walk as a step machine: the classic three-line splitter at
/// every cell before the free diagonal, zero accesses on it. The machine
/// holds only its locals; the network shape and the process id are passed
/// to every call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmallNetAcquire {
    r: usize,
    c: usize,
    pc: u8,
    name: Option<Name>,
}

impl SmallNetAcquire {
    /// Starts the (single) walk at the network's origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff the walk sits on the register-free final diagonal.
    fn on_free_diagonal(&self, shape: &SmallNetShape) -> bool {
        self.r + self.c == shape.ell
    }

    /// Executes one atomic statement of process `pid` on the network
    /// `shape`; returns the acquired name when done.
    pub fn step(&mut self, shape: &SmallNetShape, pid: Pid, mem: &dyn Memory) -> Option<Name> {
        if let Some(name) = self.name {
            return Some(name);
        }
        if self.on_free_diagonal(shape) {
            // At most one process reaches each final-diagonal cell: the
            // name is free for the taking, no registers involved.
            self.name = Some(shape.cell_name(self.r, self.c));
            return self.name;
        }
        let s = shape.splitter(self.r, self.c);
        match self.pc {
            // X ← p
            0 => {
                mem.write(s.x, pid);
                self.pc = 1;
            }
            // if Y then Right
            1 => {
                if mem.read(s.y) == TRUE {
                    self.c += 1;
                    self.pc = 0;
                    return self.take_if_free(shape);
                }
                self.pc = 2;
            }
            // Y ← true
            2 => {
                mem.write(s.y, TRUE);
                self.pc = 3;
            }
            // if X = p then Stop else Down
            _ => {
                if mem.read(s.x) == pid {
                    self.name = Some(shape.cell_name(self.r, self.c));
                    return self.name;
                }
                self.r += 1;
                self.pc = 0;
                return self.take_if_free(shape);
            }
        }
        None
    }

    /// After a Right/Down move: if it landed on the free diagonal, the
    /// name is taken in the same step (the move's read was the step's one
    /// access; the free cell costs none).
    fn take_if_free(&mut self, shape: &SmallNetShape) -> Option<Name> {
        if self.on_free_diagonal(shape) {
            self.name = Some(shape.cell_name(self.r, self.c));
        }
        self.name
    }

    /// Declares the register the next [`step`](Self::step) on `shape`
    /// touches into `fp`; returns `true` iff that step may complete the
    /// walk.
    pub fn footprint(&self, shape: &SmallNetShape, fp: &mut Footprint) -> bool {
        if self.name.is_some() || self.on_free_diagonal(shape) {
            // Completing (or free-cell) step: no accesses.
            return true;
        }
        let s = shape.splitter(self.r, self.c);
        match self.pc {
            0 => fp.write(s.x),
            // A Right move may land on the free diagonal and complete.
            1 => {
                fp.read(s.y);
                return self.r + self.c + 1 == shape.ell;
            }
            2 => fp.write(s.y),
            // Stop completes here; a Down move may land on the free
            // diagonal.
            _ => {
                fp.read(s.x);
                return true;
            }
        }
        false
    }

    /// Encodes machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.r as u64);
        out.push(self.c as u64);
        out.push(self.pc as u64);
        out.push(self.name.map_or(u64::MAX, |n| n));
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("NetAcquire@({},{}) pc{}", self.r, self.c, self.pc)
    }
}

/// The small network's [`ProtocolCore`]: shape + pid, one-shot
/// (`RELEASES = false`, like the MA one-time grid).
#[derive(Clone, Debug)]
pub struct SmallNetCore {
    shape: SmallNetShape,
    pid: Pid,
}

impl SmallNetCore {
    /// A core for process `pid` on the network described by `shape`.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::smallnet::{SmallNetCore, SmallNetShape};
    /// use llr_core::session::Session;
    /// use llr_mem::Layout;
    ///
    /// let mut layout = Layout::new();
    /// let shape = SmallNetShape::build(2, &mut layout); // k = 3
    /// let user = Session::start(SmallNetCore::new(shape, 7), 1);
    /// assert!(user.holding().is_none());
    /// ```
    pub fn new(shape: SmallNetShape, pid: Pid) -> Self {
        Self { shape, pid }
    }
}

impl ProtocolCore for SmallNetCore {
    type Acquire = SmallNetAcquire;
    type Token = Name;
    /// Never constructed: one-shot names are not released.
    type Release = ();

    // The walk's first access happens in the same scheduled step that
    // leaves Idle (and a depth-0 network completes in it outright).
    const LAZY_START: bool = false;
    const RELEASES: bool = false;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> SmallNetAcquire {
        SmallNetAcquire::new()
    }

    fn step_acquire(&self, a: &mut SmallNetAcquire, mem: &dyn Memory) -> Option<Name> {
        a.step(&self.shape, self.pid, mem)
    }

    fn begin_release(&self, _name: Name) {}

    fn step_release(&self, _r: &mut (), _mem: &dyn Memory) -> bool {
        true
    }

    fn acquire_footprint(&self, a: &SmallNetAcquire, fp: &mut Footprint) -> bool {
        a.footprint(&self.shape, fp)
    }

    fn release_footprint(&self, _r: &(), _fp: &mut Footprint) -> bool {
        // Never constructed (`RELEASES = false`): no accesses.
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // Right/Down moves can land anywhere in the splitter triangle.
        for s in self.shape.splitters.iter() {
            fp.future_read(s.x);
            fp.future_write(s.x);
            fp.future_read(s.y);
            fp.future_write(s.y);
        }
    }

    fn release_future_footprint(&self, _r: &(), _fp: &mut Footprint) {}

    fn token_name(&self, name: &Name) -> Option<Name> {
        Some(*name)
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn key_acquire(&self, a: &SmallNetAcquire, out: &mut Vec<Word>) {
        a.key(out);
    }

    fn key_token(&self, name: &Name, out: &mut Vec<Word>) {
        out.push(*name);
    }

    fn key_release(&self, _r: &(), out: &mut Vec<Word>) {
        out.push(0);
    }

    fn describe_acquire(&self, a: &SmallNetAcquire) -> String {
        a.describe()
    }

    fn describe_release(&self, _r: &()) -> String {
        "Releasing".into()
    }
}

/// A single one-shot small network on real atomics (the direct analogue
/// of [`crate::onetime::OneTimeGrid`], for the ablation benchmarks).
#[derive(Debug)]
pub struct SmallNet {
    shape: SmallNetShape,
    mem: AtomicMemory,
}

impl SmallNet {
    /// Creates a depth-`ell` network (admitting `ell + 1` entrants).
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::smallnet::SmallNet;
    ///
    /// let net = SmallNet::new(0); // k = 1: no splitters at all
    /// assert_eq!(net.get_name(9), (0, 0)); // free name, zero accesses
    /// ```
    pub fn new(ell: usize) -> Self {
        let mut layout = Layout::new();
        let shape = SmallNetShape::build(ell, &mut layout);
        Self { shape, mem: AtomicMemory::new(&layout) }
    }

    /// The network shape.
    pub fn shape(&self) -> &SmallNetShape {
        &self.shape
    }

    /// Acquires a one-time name for `pid`; returns it with the number of
    /// shared accesses spent. Each pid must call this at most once, and at
    /// most `ℓ + 1` processes may do so in total.
    pub fn get_name(&self, pid: Pid) -> (Name, u64) {
        let mem = Counting::new(&self.mem);
        let mut m = SmallNetAcquire::new();
        let name = loop {
            if let Some(n) = m.step(&self.shape, pid, &mem) {
                break n;
            }
        };
        (name, mem.accesses())
    }
}

/// A **generational** long-lived facade over the one-shot network, so the
/// small network can ride every [`Renaming`] consumer — the stress
/// harness, `bench_contended`, E11, and [`crate::arena::NameArena`].
///
/// One-shot names cannot be released, so the wrapper rotates whole
/// network *generations*: each generation is a fresh register file that
/// admits `k` entrants (entry slots are handed out under a mutex and
/// double as the written pid, so they are distinct per generation by
/// construction). When a generation's entries are spent, the **next
/// acquirer waits for every outstanding name of the old generation to be
/// released** and then installs a fresh one. That barrier is what keeps
/// uniqueness *global*: concurrent holders always belong to a single
/// generation. Like the arena's admission gate, the rotation machinery is
/// infrastructure, not protocol — it may use mutexes and counters freely;
/// only the walk inside a generation is the measured protocol.
///
/// # Example
///
/// ```
/// use llr_core::smallnet::RenewableNet;
/// use llr_core::traits::{Renaming, RenamingHandle};
///
/// let net = RenewableNet::new(3); // ℓ = 3, k = 4
/// let mut h = net.handle(42);
/// for _ in 0..10 {
///     // 10 cycles > k: the wrapper has rotated generations under us.
///     let name = h.acquire();
///     assert!(name < net.dest_size());
///     h.release();
/// }
/// ```
#[derive(Debug)]
pub struct RenewableNet {
    ell: usize,
    cur: Mutex<GenState>,
}

/// One network generation: its registers plus the count of names handed
/// out and not yet released.
#[derive(Debug)]
struct NetGen {
    shape: SmallNetShape,
    mem: AtomicMemory,
    outstanding: AtomicU64,
}

impl NetGen {
    fn fresh(ell: usize) -> Arc<Self> {
        let mut layout = Layout::new();
        let shape = SmallNetShape::build(ell, &mut layout);
        Arc::new(Self { shape, mem: AtomicMemory::new(&layout), outstanding: AtomicU64::new(0) })
    }
}

#[derive(Debug)]
struct GenState {
    gen: Arc<NetGen>,
    /// Entry slots handed out of the current generation (`0..=k`).
    entered: u64,
}

impl RenewableNet {
    /// A renewable network of depth `ell` (each generation admits
    /// `k = ell + 1` concurrent entrants).
    pub fn new(ell: usize) -> Self {
        Self {
            ell,
            cur: Mutex::new(GenState { gen: NetGen::fresh(ell), entered: 0 }),
        }
    }

    /// Takes an entry slot, rotating generations when the current one is
    /// spent; returns the generation and the per-generation entry id.
    fn enter(&self) -> (Arc<NetGen>, u64) {
        let k = self.ell as u64 + 1;
        // Poison recovered as in the arena gate: the mutex guards the
        // rotation only, and survivors must keep working if a client
        // died.
        let mut cur = self.cur.lock().unwrap_or_else(PoisonError::into_inner);
        if cur.entered == k {
            // Spent: wait for the old generation's names to come home
            // (releasers never take this mutex, so they make progress
            // under us), then install a fresh one.
            while cur.gen.outstanding.load(Ordering::SeqCst) != 0 {
                std::hint::spin_loop();
            }
            cur.gen = NetGen::fresh(self.ell);
            cur.entered = 0;
        }
        let entry = cur.entered;
        cur.entered += 1;
        cur.gen.outstanding.fetch_add(1, Ordering::SeqCst);
        (Arc::clone(&cur.gen), entry)
    }
}

impl Renaming for RenewableNet {
    type Handle<'a> = RenewableHandle<'a>;

    fn handle(&self, pid: Pid) -> RenewableHandle<'_> {
        RenewableHandle { net: self, pid, held: None, accesses: 0 }
    }

    fn source_size(&self) -> u64 {
        // The client pid is a label; the written pid is the per-generation
        // entry slot, so any 64-bit id may participate.
        u64::MAX
    }

    fn dest_size(&self) -> u64 {
        let k = self.ell as u64 + 1;
        k * (k + 1) / 2
    }

    fn concurrency(&self) -> usize {
        self.ell + 1
    }
}

/// Process handle on a [`RenewableNet`].
#[derive(Debug)]
pub struct RenewableHandle<'a> {
    net: &'a RenewableNet,
    pid: Pid,
    /// The generation the held name came from (kept alive until release,
    /// and its `outstanding` count decremented there).
    held: Option<(Arc<NetGen>, Name)>,
    accesses: u64,
}

impl RenamingHandle for RenewableHandle<'_> {
    fn acquire(&mut self) -> Name {
        assert!(self.held.is_none(), "acquire while holding a name");
        let (gen, entry) = self.net.enter();
        let mem = Counting::new(&gen.mem);
        let mut m = SmallNetAcquire::new();
        let name = loop {
            if let Some(n) = m.step(&gen.shape, entry, &mem) {
                break n;
            }
        };
        self.accesses += mem.accesses();
        self.held = Some((gen, name));
        name
    }

    fn release(&mut self) {
        let (gen, _) = self.held.take().expect("release without holding a name");
        gen.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn held(&self) -> Option<Name> {
        self.held.as_ref().map(|(_, n)| *n)
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }
}

pub mod spec {
    //! Model-checkable specification of the small network. The session
    //! loop, key encoding, and invariants are the generic ones from
    //! [`crate::session`].

    use super::*;
    use crate::session::run_check;
    use llr_mc::{CheckStats, ModelChecker, Violation, World};

    /// A process acquiring its single name: the generic session machine
    /// over [`SmallNetCore`] (one session, no release).
    pub type SmallNetUser = Session<SmallNetCore>;

    /// All acquired names distinct and in range (forever — one-shot names
    /// are never released).
    pub fn unique_names_invariant(world: &World<'_, SmallNetUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for a depth-`ell` network entered by
    /// `pids.len() ≤ ℓ + 1` processes (shared by the exhaustive tests and
    /// the E2/E12 drivers).
    pub fn checker(ell: usize, pids: &[Pid]) -> ModelChecker<SmallNetUser> {
        assert!(pids.len() <= ell + 1, "more entrants than the network admits");
        let mut layout = Layout::new();
        let shape = SmallNetShape::build(ell, &mut layout);
        let machines: Vec<SmallNetUser> = pids
            .iter()
            .map(|&p| Session::start(SmallNetCore::new(shape.clone(), p), 1))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Exhaustively checks one-shot uniqueness for `pids.len() ≤ ℓ + 1`
    /// processes on a depth-`ell` network.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if two processes can acquire the
    /// same name.
    pub fn check_smallnet(ell: usize, pids: &[Pid]) -> Result<CheckStats, Box<Violation>> {
        run_check(checker(ell, pids), unique_names_invariant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_counts() {
        let mut layout = Layout::new();
        let s = SmallNetShape::build(3, &mut layout);
        assert_eq!(s.k(), 4);
        assert_eq!(s.dest_size(), 10);
        assert_eq!(s.splitter_count(), 6); // vs the MA grid's 10
        assert_eq!(layout.initial_values().len(), 12); // 2 registers each
    }

    #[test]
    fn solo_stops_at_origin_in_4_accesses() {
        let net = SmallNet::new(3);
        let (name, acc) = net.get_name(42);
        assert_eq!(name, 0);
        assert_eq!(acc, 4);
    }

    #[test]
    fn sequential_entrants_get_distinct_names() {
        let net = SmallNet::new(3);
        let mut seen = std::collections::HashSet::new();
        for pid in [3u64, 14, 15, 92] {
            let (name, acc) = net.get_name(pid);
            assert!(name < net.shape().dest_size());
            // Deepest path: ℓ splitters à ≤4 accesses, free cell à 0.
            assert!(acc <= 4 * 3);
            assert!(seen.insert(name), "name {name} reused");
        }
    }

    #[test]
    fn threads_get_distinct_names() {
        let net = std::sync::Arc::new(SmallNet::new(7));
        let names = std::sync::Arc::new(Mutex::new(Vec::new()));
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let net = std::sync::Arc::clone(&net);
                let names = std::sync::Arc::clone(&names);
                std::thread::spawn(move || {
                    let (n, _) = net.get_name(i * 117 + 5);
                    names.lock().unwrap().push(n);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let names = names.lock().unwrap();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 8, "duplicate names: {names:?}");
    }

    #[test]
    fn exhaustive_small_depths() {
        let stats = spec::check_smallnet(1, &[0, 1]).unwrap();
        assert!(stats.states > 10);
        let stats = spec::check_smallnet(2, &[0, 1, 2]).unwrap();
        assert!(stats.states > 100);
    }

    #[test]
    fn renewable_net_cycles_past_k() {
        let net = RenewableNet::new(2);
        let mut h = net.handle(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let n = h.acquire();
            assert!(n < net.dest_size());
            seen.insert(n);
            h.release();
        }
        // Within a generation, earlier entries' marks deflect later ones
        // Right/Down (one-shot registers are never cleared), so a solo
        // client walks names 0, 1, 2 before the rotation resets to 0.
        assert_eq!(seen, (0..3).collect());
        assert!(h.accesses() >= 10 * 2);
    }

    #[test]
    fn renewable_net_threads_stay_unique() {
        let net = RenewableNet::new(3);
        let claimed: Vec<std::sync::atomic::AtomicBool> = (0..net.dest_size())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let net = &net;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut h = net.handle(t);
                    for _ in 0..50 {
                        let n = h.acquire();
                        let was = claimed[n as usize].swap(true, Ordering::SeqCst);
                        assert!(!was, "name {n} double-held");
                        claimed[n as usize].store(false, Ordering::SeqCst);
                        h.release();
                    }
                });
            }
        });
    }
}
