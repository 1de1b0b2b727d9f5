//! The served-path workloads: closed-loop clients on a `NameArena`.
//!
//! Each client issues its next `acquire` only after its previous
//! `release` returned. The run is cut into rounds; every round starts at a
//! shared barrier and ends when the last client finishes its cycle, and a
//! round's throughput is its completed cycles over that one wall clock.
//!
//! Layers are timed from outside: the traced run wraps the protocol in
//! [`Timed`], a `Renaming` whose handles time the inner session handle,
//! so arena self time is the client's span minus the wrapper's span.

use crate::hist::{Hist, QUANTILE_ERROR};
use crate::report::{median, Report};
use crate::Args;
use llr_core::levelarray::{LevelArray, LevelArrayCore, LevelShape};
use llr_core::split::{Split, SplitCore, SplitShape};
use llr_core::{Name, NameArena, Pid, ProtocolCore, Renaming, RenamingHandle};
use llr_mc::SplitMix64;
use llr_mem::{AtomicMemory, Layout, Memory};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop client threads: one per core of the reference 2-core host.
pub const CLIENTS: usize = 2;
/// Length of one measured round.
const ROUND: Duration = Duration::from_millis(500);
/// Arenas built per set-up batch, and batches per probe process.
const SETUP_BATCH: usize = 8;
const SETUP_BATCHES: usize = 25;
/// Batches of the single-threaded layer passes; each reports a median.
const SOLO_BATCHES: usize = 15;
const SOLO_CYCLES: usize = 20_000;

/// `serve_split`: SPLIT for k = 4 with fewer clients than permits, so the
/// gate stays on its fast path and time goes into the protocol.
pub fn run_split(args: &Args) -> Result<Report, String> {
    run(args, split, |pid| {
        let mut layout = Layout::new();
        let shape = SplitShape::build(4, &mut layout);
        (SplitCore::new(shape, pid), AtomicMemory::new(&layout))
    })
}

/// `serve_gate`: LevelArray for k = 1 under two clients, so one client
/// always waits at the gate.
pub fn run_gate(args: &Args) -> Result<Report, String> {
    run(args, gate, |pid| {
        let mut layout = Layout::new();
        let shape = LevelShape::build(1, &mut layout);
        (LevelArrayCore::new(shape, pid), AtomicMemory::new(&layout))
    })
}

fn split() -> Split {
    Split::new(4)
}

fn gate() -> LevelArray {
    LevelArray::new(1)
}

/// `--probe setup`: this process's median time to build the workload's
/// arena and clients.
pub fn probe_setup(args: &Args) -> f64 {
    let pids = draw_pids(args.seed);
    let sample = || match args.workload.as_str() {
        "serve_split" => setup_s(split, &pids),
        _ => setup_s(gate, &pids),
    };
    median(&(0..SETUP_BATCHES).map(|_| sample()).collect::<Vec<_>>())
}

/// Sparse client pids drawn from the seed: distinct, anywhere in the
/// 64-bit source space both protocols accept.
fn draw_pids(seed: u64) -> Vec<Pid> {
    let mut rng = SplitMix64::new(seed);
    let mut pids: Vec<Pid> = Vec::new();
    while pids.len() < CLIENTS {
        let pid = rng.next_u64() % u64::MAX;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
    }
    pids
}

fn run<R, C>(
    args: &Args,
    make: impl Fn() -> R,
    bare_core: impl Fn(Pid) -> (C, AtomicMemory),
) -> Result<Report, String>
where
    R: Renaming,
    C: ProtocolCore,
{
    let pids = draw_pids(args.seed);
    let mut rep = Report::default();
    rep.meta.push(format!(
        "clients={CLIENTS} (closed loop) pids={pids:?} round_ms={}",
        ROUND.as_millis()
    ));
    let rounds = (args.seconds * 1000 / ROUND.as_millis() as u64).max(1) as usize;
    let arenas = |n: usize| -> Vec<_> { (0..=n).map(|_| NameArena::new(make())).collect() };

    if !args.trace {
        let mut setups = Vec::new();
        let plain = closed_loop(&arenas(rounds), &pids, false, || {
            setups.push(crate::sys::probe_setup(args))
        });
        let setups = setups.into_iter().collect::<Result<Vec<f64>, _>>()?;
        plain.account(&mut rep);
        rep.set(
            "ops_per_s",
            plain.cycles_per_s(),
            format!("median of {rounds} rounds"),
        );
        rep.set("op_p50_ns", plain.cycle.quantile(0.50), plain.samples());
        rep.show(
            "op_p99_ns",
            plain.cycle.quantile(0.99),
            "ns",
            plain.samples(),
        );
        plain.show_served_metrics(&mut rep);
        rep.set(
            "peak_rss_mb",
            crate::sys::peak_rss_mb().map_err(|e| e.to_string())?,
            "VmHWM",
        );
        let note = format!(
            "fastest of {} fresh processes, each the median over {SETUP_BATCHES} batches of {SETUP_BATCH} arena+client builds",
            setups.len()
        );
        rep.set(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            note,
        );
        return Ok(rep);
    }

    // Traced: the untraced loop and the traced loop split the run, so the
    // tracing overhead is measured rather than assumed.
    let half = (rounds / 2).max(1);
    let plain = closed_loop(&arenas(half), &pids, false, || ());
    let timed: Vec<_> = (0..=half).map(|_| NameArena::new(Timed(make()))).collect();
    let traced = closed_loop(&timed, &pids, true, || ());
    plain.account(&mut rep);
    traced.account(&mut rep);
    for (name, unit, a, b) in [
        (
            "ops_per_s",
            "1/s",
            plain.cycles_per_s(),
            traced.cycles_per_s(),
        ),
        (
            "op_p50_ns",
            "ns",
            plain.cycle.quantile(0.5),
            traced.cycle.quantile(0.5),
        ),
        (
            "op_p99_ns",
            "ns",
            plain.cycle.quantile(0.99),
            traced.cycle.quantile(0.99),
        ),
    ] {
        rep.show(&format!("untraced.{name}"), a, unit, plain.samples());
        rep.show(&format!("traced.{name}"), b, unit, traced.samples());
    }
    rep.set(
        "trace.overhead_share",
        plain.cycles_per_s() / traced.cycles_per_s() - 1.0,
        "untraced/traced cycles_per_s - 1",
    );

    let n = traced.samples();
    rep.set(
        "arena.acquire_self_p50_ns",
        traced.arena_acquire.quantile(0.5),
        &n,
    );
    rep.set(
        "arena.acquire_self_p99_ns",
        traced.arena_acquire.quantile(0.99),
        &n,
    );
    rep.set(
        "arena.release_self_p50_ns",
        traced.arena_release.quantile(0.5),
        &n,
    );
    rep.set(
        "arena.wait_share",
        traced.arena_acquire.sum_ns() as f64 / traced.acquire.sum_ns() as f64,
        "arena self time / acquire span",
    );
    rep.set(
        "session.acquire_p50_ns",
        traced.session_acquire.quantile(0.5),
        &n,
    );
    rep.set(
        "session.release_p50_ns",
        traced.session_release.quantile(0.5),
        &n,
    );

    solo_layers(&mut rep, make, bare_core, pids[0]);
    Ok(rep)
}

/// Mean time to build one arena and its clients, before any operation,
/// over a batch of `SETUP_BATCH`.
fn setup_s<R: Renaming>(make: impl Fn() -> R, pids: &[Pid]) -> f64 {
    let batch = || {
        let t = Instant::now();
        let arenas: Vec<_> = (0..SETUP_BATCH).map(|_| NameArena::new(make())).collect();
        let clients: Vec<Vec<_>> = arenas
            .iter()
            .map(|a| pids.iter().map(|&p| a.client(p)).collect())
            .collect();
        black_box(&clients);
        t.elapsed().as_secs_f64() / SETUP_BATCH as f64
    };
    // The first batch fills the caches.
    batch();
    batch()
}

/// Whole-run tallies of a closed loop.
#[derive(Default)]
struct Loop {
    round_rates: Vec<f64>,
    cycles: u64,
    failed: u64,
    /// Rounds whose throughput exceeded what Little's law allows.
    little_violations: Vec<String>,
    acquire: Hist,
    release: Hist,
    cycle: Hist,
    arena_acquire: Hist,
    arena_release: Hist,
    session_acquire: Hist,
    session_release: Hist,
}

impl Loop {
    fn cycles_per_s(&self) -> f64 {
        median(&self.round_rates)
    }

    fn samples(&self) -> String {
        format!("n={}", self.cycle.count())
    }

    fn account(&self, rep: &mut Report) {
        rep.attempted += self.cycles;
        rep.failed += self.failed;
        rep.problems.extend(self.little_violations.iter().cloned());
    }

    fn show_served_metrics(&self, rep: &mut Report) {
        let n = self.samples();
        rep.show(
            "cycles_per_s",
            self.cycles_per_s(),
            "1/s",
            "shared start barrier, one wall clock",
        );
        rep.show("acquire_p50_ns", self.acquire.quantile(0.5), "ns", &n);
        rep.show("acquire_p99_ns", self.acquire.quantile(0.99), "ns", &n);
        rep.show("release_p50_ns", self.release.quantile(0.5), "ns", &n);
        rep.show("release_p99_ns", self.release.quantile(0.99), "ns", &n);
        rep.show(
            "error_rate",
            self.failed as f64 / self.cycles.max(1) as f64,
            "ratio",
            format!("{} of {} cycles failed", self.failed, self.cycles),
        );
    }
}

/// One client's record of one round.
struct RoundTally {
    start: Instant,
    end: Instant,
    cycles: u64,
    span_ns: u128,
}

/// Runs `CLIENTS` closed-loop clients for one round per arena: a warm-up
/// round on `arenas[0]`, then a measured round on each of the others.
/// Throughput depends on where an arena's registers land in memory, so
/// each round gets a fresh arena and the median over rounds spans many
/// placements. `between` runs before each round while the clients wait
/// at the start barrier. Every cycle is checked: the name is in range and
/// no other client holds it (a per-name occupancy flag is swapped on after
/// acquire and cleared before release).
fn closed_loop<T: Renaming>(
    arenas: &[NameArena<T>],
    pids: &[Pid],
    traced: bool,
    mut between: impl FnMut(),
) -> Loop {
    let rounds = arenas.len() - 1;
    let dest = arenas[0].dest_size();
    let held: Vec<AtomicBool> = (0..dest).map(|_| AtomicBool::new(false)).collect();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(pids.len() + 1);
    let per_client: Vec<(Loop, Vec<RoundTally>)> = std::thread::scope(|s| {
        let clients: Vec<_> = pids
            .iter()
            .map(|&pid| {
                let (held, stop, barrier) = (&held, &stop, &barrier);
                s.spawn(move || {
                    let mut total = Loop::default();
                    let mut tally = Loop::default();
                    let mut log = Vec::with_capacity(rounds);
                    for (round, arena) in arenas.iter().enumerate() {
                        tally.clear();
                        let mut c = arena.client(pid);
                        barrier.wait();
                        let start = Instant::now();
                        let mut span_ns = 0u128;
                        while !stop.load(Ordering::Relaxed) {
                            span_ns += cycle(&mut c, held, dest, traced, &mut tally);
                        }
                        let end = Instant::now();
                        barrier.wait();
                        total.cycles += tally.cycles;
                        total.failed += tally.failed;
                        // Round 0 warms caches and the gate; it is checked
                        // but not timed.
                        if round > 0 {
                            log.push(RoundTally {
                                start,
                                end,
                                cycles: tally.cycles,
                                span_ns,
                            });
                            for (into, from) in total.hists_mut().into_iter().zip(tally.hists_mut())
                            {
                                into.merge(from);
                            }
                        }
                    }
                    (total, log)
                })
            })
            .collect();
        for _ in arenas {
            between();
            barrier.wait();
            std::thread::sleep(ROUND);
            stop.store(true, Ordering::Relaxed);
            barrier.wait();
            // Every client is past its loop; none can start the next
            // round before this thread reaches the start barrier.
            stop.store(false, Ordering::Relaxed);
        }
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut out = Loop::default();
    for round in 0..rounds {
        let logs: Vec<&RoundTally> = per_client.iter().map(|(_, log)| &log[round]).collect();
        let start = logs.iter().map(|t| t.start).min().expect("clients");
        let end = logs.iter().map(|t| t.end).max().expect("clients");
        let cycles: u64 = logs.iter().map(|t| t.cycles).sum();
        let span_ns: u128 = logs.iter().map(|t| t.span_ns).sum();
        let rate = cycles as f64 / (end - start).as_secs_f64();
        // Little's law: N clients, each busy at least its mean span per
        // cycle, complete at most N / mean_span cycles per second.
        let mean_span_s = span_ns as f64 / cycles.max(1) as f64 / 1e9;
        let bound = pids.len() as f64 / mean_span_s;
        if cycles > 0 && rate > bound * (1.0 + QUANTILE_ERROR) {
            out.little_violations.push(format!(
                "round {round}: {rate:.0} cycles/s exceeds Little's-law bound {bound:.0}"
            ));
        }
        out.round_rates.push(rate);
    }
    for (total, _) in per_client {
        out.cycles += total.cycles;
        out.failed += total.failed;
        let mut total = total;
        for (into, from) in out.hists_mut().into_iter().zip(total.hists_mut()) {
            into.merge(from);
        }
    }
    out
}

impl Loop {
    fn clear(&mut self) {
        self.cycles = 0;
        self.failed = 0;
        for h in self.hists_mut() {
            h.clear();
        }
    }

    fn hists_mut(&mut self) -> [&mut Hist; 7] {
        [
            &mut self.acquire,
            &mut self.release,
            &mut self.cycle,
            &mut self.arena_acquire,
            &mut self.arena_release,
            &mut self.session_acquire,
            &mut self.session_release,
        ]
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

/// One checked acquire→release cycle; returns the client-side span
/// (acquire plus release) in nanoseconds.
fn cycle<H: RenamingHandle>(
    c: &mut H,
    held: &[AtomicBool],
    dest: u64,
    traced: bool,
    t: &mut Loop,
) -> u128 {
    let t0 = Instant::now();
    let name = c.acquire();
    let t1 = Instant::now();
    let inner_acquire = if traced { INNER.with(Cell::get).0 } else { 0 };
    if name >= dest || held[name as usize].swap(true, Ordering::SeqCst) {
        t.failed += 1;
    }
    if name < dest {
        held[name as usize].store(false, Ordering::SeqCst);
    }
    let t2 = Instant::now();
    c.release();
    let t3 = Instant::now();
    let (acquire, release) = (nanos(t0, t1), nanos(t2, t3));
    t.cycles += 1;
    t.acquire.record(acquire);
    t.release.record(release);
    t.cycle.record(acquire + release);
    if traced {
        let inner_release = INNER.with(Cell::get).1;
        t.session_acquire.record(inner_acquire);
        t.session_release.record(inner_release);
        t.arena_acquire
            .record(acquire.saturating_sub(inner_acquire));
        t.arena_release
            .record(release.saturating_sub(inner_release));
    }
    u128::from(acquire + release)
}

thread_local! {
    /// The last (acquire, release) span of this thread's [`TimedHandle`],
    /// read by the client right after the arena call returns.
    static INNER: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A renaming object whose handles time each call into the wrapped
/// protocol's handle (the session layer) for the traced run.
struct Timed<R>(R);

struct TimedHandle<H>(H);

impl<R: Renaming> Renaming for Timed<R> {
    type Handle<'a>
        = TimedHandle<R::Handle<'a>>
    where
        R: 'a;

    fn handle(&self, pid: Pid) -> Self::Handle<'_> {
        TimedHandle(self.0.handle(pid))
    }

    fn source_size(&self) -> u64 {
        self.0.source_size()
    }

    fn dest_size(&self) -> u64 {
        self.0.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.0.concurrency()
    }
}

impl<H: RenamingHandle> RenamingHandle for TimedHandle<H> {
    fn acquire(&mut self) -> Name {
        let t = Instant::now();
        let name = self.0.acquire();
        let ns = nanos(t, Instant::now());
        INNER.with(|c| c.set((ns, c.get().1)));
        name
    }

    fn release(&mut self) {
        let t = Instant::now();
        self.0.release();
        let ns = nanos(t, Instant::now());
        INNER.with(|c| c.set((c.get().0, ns)));
    }

    fn pid(&self) -> Pid {
        self.0.pid()
    }

    fn held(&self) -> Option<Name> {
        self.0.held()
    }

    fn accesses(&self) -> u64 {
        self.0.accesses()
    }
}

/// Median over `SOLO_BATCHES` of `f()`'s per-item nanoseconds, where each
/// call of `f` runs `items` items.
fn per_item_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..SOLO_BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&times)
}

/// The single-threaded layer floor: bare register pairs, the protocol
/// core's step machines over a bare `AtomicMemory`, and the session
/// handle without an arena.
fn solo_layers<R: Renaming, C: ProtocolCore>(
    rep: &mut Report,
    make: impl Fn() -> R,
    bare_core: impl Fn(Pid) -> (C, AtomicMemory),
    pid: Pid,
) {
    let solo = format!("median of {SOLO_BATCHES} batches");

    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mem = AtomicMemory::new(&layout);
    let pairs = 1_000_000;
    let ns = per_item_ns(pairs, || {
        let m = black_box(&mem);
        let mut acc = 0;
        for i in 0..pairs as u64 {
            m.write(x, i);
            acc ^= m.read(x);
        }
        black_box(acc);
    });
    rep.set(
        "mem.pair_ns",
        ns,
        format!("{solo} of {pairs} write+read pairs"),
    );

    let (core, mem) = bare_core(pid);
    let mem: &dyn Memory = &mem;
    let (mut acquire_steps, mut release_steps) = (0u64, 0u64);
    let ns = per_item_ns(SOLO_CYCLES, || {
        for _ in 0..SOLO_CYCLES {
            let mut a = core.begin_acquire();
            let mut token = loop {
                acquire_steps += 1;
                if let Some(t) = core.step_acquire(&mut a, mem) {
                    break t;
                }
            };
            if let Some(mut rel) = core.prologue(&mut token) {
                while !core.step_release(&mut rel, mem) {
                    acquire_steps += 1;
                }
                acquire_steps += 1;
            }
            let mut r = core.begin_release(black_box(token));
            release_steps += 1;
            while !core.step_release(&mut r, mem) {
                release_steps += 1;
            }
        }
    });
    let cycles = (SOLO_BATCHES * SOLO_CYCLES) as f64;
    rep.set(
        "core.solo_cycle_ns",
        ns,
        format!("{solo} of {SOLO_CYCLES} cycles"),
    );
    rep.set("core.steps_per_acquire", acquire_steps as f64 / cycles, "");
    rep.set("core.steps_per_release", release_steps as f64 / cycles, "");

    let proto = make();
    let mut h = proto.handle(pid);
    let (mut acquire_acc, mut release_acc) = (0u64, 0u64);
    let ns = per_item_ns(SOLO_CYCLES, || {
        for _ in 0..SOLO_CYCLES {
            let before = h.accesses();
            black_box(h.acquire());
            let mid = h.accesses();
            h.release();
            acquire_acc += mid - before;
            release_acc += h.accesses() - mid;
        }
    });
    rep.set(
        "session.solo_cycle_ns",
        ns,
        format!("{solo} of {SOLO_CYCLES} cycles, no arena"),
    );
    rep.set(
        "core.accesses_per_acquire",
        acquire_acc as f64 / cycles,
        "RenamingHandle::accesses",
    );
    rep.set(
        "core.accesses_per_release",
        release_acc as f64 / cycles,
        "RenamingHandle::accesses",
    );
}
