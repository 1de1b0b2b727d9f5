//! The checker workloads: one fixed model-checking configuration each,
//! verified back to back until the run's time is spent.
//!
//! Layers are timed from outside: the traced run rebuilds the spec's
//! checker over [`Traced`] machines, which time every `step`, `key` and
//! `footprint` call the engine makes and count shared accesses through
//! `Counting`; the invariant is the same uniqueness condition, re-expressed
//! over `Session::holding()`. Whatever process CPU time the callbacks do
//! not account for is the engine's own.

use crate::report::{median, Report};
use crate::sys;
use crate::Args;
use llr_core::filter::spec as filter_spec;
use llr_core::ma::spec as ma_spec;
use llr_core::session::unique_names_invariant;
use llr_core::{ProtocolCore, Session};
use llr_gf::FilterParams;
use llr_mc::frontier::{layer_record_bytes, LayerReader, LayerWriter};
use llr_mc::{
    CheckError, CheckStats, Engine, Footprint, MachineStatus, ModelChecker, StepMachine, World,
};
use llr_mem::{Counting, Memory};
use std::collections::HashSet;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Checker worker threads: one per core of the reference 2-core host.
pub const WORKERS: usize = 2;
/// `check_disk`'s resident-byte budget.
const SPILL_BUDGET: usize = 16 << 20;
/// Spill directories live under the checkout, one fresh one per
/// verification.
const SPILL_ROOT: &str = ".perfbench-spill";
/// Free space demanded before a spilling verification starts: each one
/// writes about 1.1 GB in total, and the layer files and sorted runs on
/// disk at any one time stay well below that.
const DISK_NEEDED: u64 = 2 << 30;
/// Checkers built per set-up batch, batches per probe process, and probe
/// processes run before each verification and after the last.
const SETUP_BATCH: usize = 8;
const SETUP_BATCHES: usize = 25;
const PROBES_PER_GAP: usize = 5;
/// Size of the layer file the frontier I/O pass writes and reads back.
const FRONTIER_PASS_BYTES: u64 = 64 << 20;

/// What a verification must report to count as a correct output.
struct Pins {
    states: Option<u64>,
    transitions: Option<u64>,
    terminals: u64,
    /// Upper bound on `peak_resident_bytes`.
    resident: Option<u64>,
}

/// `check_ram`: MA k = 3, S = 3, three processes, two sessions each,
/// in-RAM parallel BFS with hashed dedup (no POR, no disk).
pub fn run_ram(args: &Args) -> Result<Report, String> {
    let pins = Pins {
        states: Some(3_666_126),
        transitions: Some(10_000_698),
        terminals: 1_557,
        resident: None,
    };
    run(args, ma, false, pins)
}

/// `check_disk`: FILTER k = 3 over GF(5), pids 1, 6, 11, two sessions
/// each, with POR and the on-disk frontier and visited set under a
/// 16 MiB budget. The state count is reported, not pinned, so a sound
/// POR improvement is not counted as a failure.
pub fn run_disk(args: &Args) -> Result<Report, String> {
    let pins = Pins {
        states: None,
        transitions: None,
        terminals: 1,
        resident: Some(SPILL_BUDGET as u64),
    };
    run(args, filter, true, pins)
}

fn ma() -> ModelChecker<ma_spec::MaUser> {
    ma_spec::checker(3, 3, &[0, 1, 2], 2)
}

fn filter() -> ModelChecker<filter_spec::FilterUser> {
    let params = FilterParams::new(3, 25, 1, 5).expect("FILTER k=3 over GF(5) is valid");
    filter_spec::checker(params, &[1, 6, 11], 2)
}

/// `--probe setup`: this process's median time to build the workload's
/// checker and engine.
pub fn probe_setup(args: &Args) -> f64 {
    let sample = || match args.workload.as_str() {
        "check_ram" => setup_s(ma, false),
        _ => setup_s(filter, true),
    };
    median(&(0..SETUP_BATCHES).map(|_| sample()).collect::<Vec<_>>())
}

fn engine(spill: Option<&Path>) -> Engine {
    match spill {
        None => Engine::Parallel {
            workers: WORKERS,
            hashed: true,
        },
        Some(dir) => Engine::Reduced(Box::new(Engine::Spill {
            dir: dir.to_path_buf(),
            budget_bytes: SPILL_BUDGET,
            workers: WORKERS,
        })),
    }
}

/// One verification's outcome.
struct Verified {
    wall: Duration,
    cpu_s: f64,
    result: Result<CheckStats, CheckError>,
    left_behind: u64,
}

fn run<P: ProtocolCore>(
    args: &Args,
    make: impl Fn() -> ModelChecker<Session<P>>,
    spills: bool,
    pins: Pins,
) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.meta.push(format!(
        "workers={WORKERS} engine={}",
        engine(spills.then_some(Path::new(SPILL_ROOT))).label()
    ));
    let mut scratch = Scratch { spills, next: 0 };

    if !args.trace {
        let mut runs = Vec::new();
        let mut setups = Vec::new();
        let probe = |setups: &mut Vec<f64>| -> Result<(), String> {
            for _ in 0..PROBES_PER_GAP {
                setups.push(sys::probe_setup(args)?);
            }
            Ok(())
        };
        let t = Instant::now();
        while runs.is_empty() || t.elapsed().as_secs() < args.seconds {
            probe(&mut setups)?;
            let v = scratch.verify(make(), |w| unique_names_invariant(w))?;
            account(&mut rep, &v, &pins);
            runs.push(v);
        }
        probe(&mut setups)?;
        let walls: Vec<f64> = runs.iter().map(|v| v.wall.as_secs_f64()).collect();
        let n = format!("n={} verifications", walls.len());
        let verify_s = median(&walls);
        rep.set(
            "ops_per_s",
            1.0 / verify_s,
            "verifications per second (1 / median verify_s)",
        );
        rep.set("op_p50_ns", verify_s * 1e9, &n);
        rep.show(
            "op_p99_ns",
            walls.iter().copied().fold(0.0, f64::max) * 1e9,
            "ns",
            format!("{n}, slowest"),
        );
        rep.show("verify_s", verify_s, "s", &n);
        if let Some(Ok(stats)) = runs.last().map(|v| &v.result) {
            rep.show(
                "peak_resident_mb",
                stats.peak_resident_bytes as f64 / 1e6,
                "MB",
                "CheckStats::peak_resident_bytes",
            );
            show_counts(&mut rep, stats);
        }
        if spills {
            let left: u64 = runs.iter().map(|v| v.left_behind).sum();
            rep.show(
                "spill_left_bytes",
                left as f64,
                "B",
                "left in the spill directories after the runs",
            );
        }
        rep.show(
            "error_rate",
            rep.failed as f64 / rep.attempted as f64,
            "ratio",
            format!("{} of {} verifications failed", rep.failed, rep.attempted),
        );
        rep.set(
            "peak_rss_mb",
            sys::peak_rss_mb().map_err(|e| e.to_string())?,
            "VmHWM",
        );
        let note = format!(
            "fastest of {} fresh processes, each the median over {SETUP_BATCHES} batches of {SETUP_BATCH} checker builds",
            setups.len()
        );
        rep.set(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            note,
        );
        return Ok(rep);
    }

    // Traced: one untraced verification, then the same configuration over
    // the timing wrappers, so the tracing overhead is stated.
    let plain = scratch.verify(make(), |w| unique_names_invariant(w))?;
    account(&mut rep, &plain, &pins);
    let base = make();
    let layout = base.layout().clone();
    let (words, slots) = (layout.len(), base.machines().len());
    let wrapped: Vec<Traced<Session<P>>> = base.machines().iter().cloned().map(Traced).collect();
    reset_tallies();
    let traced = scratch.verify(ModelChecker::new(layout, wrapped), |w| {
        let t = Instant::now();
        let verdict = unique_holders(w);
        record(Counter::InvariantCalls, Counter::InvariantNs, t);
        verdict
    })?;
    account(&mut rep, &traced, &pins);
    let tally = sum_tallies();
    let count = |c: Counter| tally[c as usize] as f64;
    let secs = |c: Counter| tally[c as usize] as f64 / 1e9;

    let (plain_s, traced_s) = (plain.wall.as_secs_f64(), traced.wall.as_secs_f64());
    rep.show("untraced.verify_s", plain_s, "s", "");
    rep.show("traced.verify_s", traced_s, "s", "");
    rep.set(
        "trace.overhead_share",
        traced_s / plain_s - 1.0,
        "traced/untraced verify_s - 1",
    );

    let summed = "summed over workers";
    rep.set("mc.step_calls", count(Counter::StepCalls), "");
    rep.set("mc.step_cpu_s", secs(Counter::StepNs), summed);
    rep.set("mc.key_calls", count(Counter::KeyCalls), "");
    rep.set("mc.key_cpu_s", secs(Counter::KeyNs), summed);
    rep.set("mc.invariant_calls", count(Counter::InvariantCalls), "");
    rep.set("mc.invariant_cpu_s", secs(Counter::InvariantNs), summed);
    rep.set(
        "mc.accesses_per_step",
        count(Counter::Accesses) / count(Counter::StepCalls).max(1.0),
        "Counting",
    );
    rep.set("mc.footprint_calls", count(Counter::FootprintCalls), "");
    rep.set("mc.footprint_cpu_s", secs(Counter::FootprintNs), summed);
    let callbacks = [
        Counter::StepNs,
        Counter::KeyNs,
        Counter::InvariantNs,
        Counter::FootprintNs,
    ]
    .map(secs)
    .iter()
    .sum::<f64>();
    rep.set(
        "mc.engine_cpu_s",
        traced.cpu_s - callbacks,
        "process CPU - callback time (traced run)",
    );
    rep.set(
        "mc.cpu_util",
        plain.cpu_s / (plain_s * WORKERS as f64),
        "process CPU / (verify_s x workers), untraced run",
    );
    if let Ok(stats) = &plain.result {
        rep.set("mc.states", stats.states as f64, "");
        rep.set("mc.transitions", stats.transitions as f64, "");
        rep.set("mc.max_depth", stats.max_depth as f64, "");
        rep.set(
            "mc.new_state_share",
            stats.states as f64 / stats.transitions as f64,
            "states / transitions",
        );
        rep.set(
            "mc.peak_resident_mb",
            stats.peak_resident_bytes as f64 / 1e6,
            "CheckStats::peak_resident_bytes",
        );
        rep.set("mc.spilled_mb", stats.spilled_bytes as f64 / 1e6, "");
        rep.set(
            "mc.spilled_bytes_per_state",
            stats.spilled_bytes as f64 / stats.states as f64,
            "",
        );
    }
    if spills {
        let record = layer_record_bytes(words, slots);
        let (write, read) = scratch.frontier_pass(words, slots)?;
        rep.set(
            "frontier.record_bytes",
            record as f64,
            format!("{words} words, {slots} machines"),
        );
        rep.set(
            "frontier.write_mb_per_s",
            write,
            "LayerWriter::push + finish",
        );
        rep.set("frontier.read_mb_per_s", read, "LayerReader::read_range");
    }
    Ok(rep)
}

fn account(rep: &mut Report, v: &Verified, pins: &Pins) {
    rep.attempted += 1;
    let problem = match &v.result {
        Err(e) => Some(format!("no verdict: {e}")),
        Ok(s) => {
            let mut bad = Vec::new();
            if pins.states.is_some_and(|n| n != s.states) {
                bad.push(format!("states {} != {:?}", s.states, pins.states));
            }
            if pins.transitions.is_some_and(|n| n != s.transitions) {
                bad.push(format!(
                    "transitions {} != {:?}",
                    s.transitions, pins.transitions
                ));
            }
            if s.terminal_states != pins.terminals {
                bad.push(format!(
                    "terminal states {} != {}",
                    s.terminal_states, pins.terminals
                ));
            }
            if pins.resident.is_some_and(|b| s.peak_resident_bytes > b) {
                bad.push(format!(
                    "peak resident {} B over the {:?} B budget",
                    s.peak_resident_bytes, pins.resident
                ));
            }
            (!bad.is_empty()).then(|| bad.join(", "))
        }
    };
    let problem = problem.or_else(|| {
        (v.left_behind > 0).then(|| format!("{} bytes left in the spill directory", v.left_behind))
    });
    if let Some(p) = problem {
        rep.failed += 1;
        rep.problems
            .push(format!("verification {}: {p}", rep.attempted));
    }
}

fn show_counts(rep: &mut Report, s: &CheckStats) {
    rep.show("states", s.states as f64, "count", "");
    rep.show("transitions", s.transitions as f64, "count", "");
    rep.show("terminal_states", s.terminal_states as f64, "count", "");
    rep.show("spilled_bytes", s.spilled_bytes as f64, "B", "");
}

/// Mean time to build the spec's checker and its engine, over a batch of
/// `SETUP_BATCH`.
fn setup_s<M>(make: impl Fn() -> ModelChecker<M>, spills: bool) -> f64 {
    let dir = Path::new(SPILL_ROOT);
    let batch = || {
        let t = Instant::now();
        let built: Vec<_> = (0..SETUP_BATCH)
            .map(|_| (make(), engine(spills.then_some(dir))))
            .collect();
        let s = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
        black_box(&built);
        s
    };
    // The first batch refills the caches the verification evicted.
    batch();
    batch()
}

/// The spill directories of one run: a fresh one per verification, each
/// checked to be empty afterwards and removed.
struct Scratch {
    spills: bool,
    next: u32,
}

impl Scratch {
    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        let root = Path::new(SPILL_ROOT);
        fs::create_dir_all(root).map_err(|e| format!("creating {SPILL_ROOT}: {e}"))?;
        let free =
            sys::free_disk_bytes(root).map_err(|e| format!("free space of {SPILL_ROOT}: {e}"))?;
        if free < DISK_NEEDED {
            return Err(format!(
                "only {free} bytes free under {SPILL_ROOT}; a spilling verification needs {DISK_NEEDED}"
            ));
        }
        let dir = root.join(format!("run-{}-{}", std::process::id(), self.next));
        self.next += 1;
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        fs::create_dir(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    fn remove(dir: &Path) -> Result<(), String> {
        fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        // The root goes too once no other run is using it.
        let _ = fs::remove_dir(SPILL_ROOT);
        Ok(())
    }

    fn verify<M: StepMachine + Send + Sync>(
        &mut self,
        checker: ModelChecker<M>,
        invariant: impl Fn(&World<'_, M>) -> Result<(), String>,
    ) -> Result<Verified, String> {
        let dir = if self.spills {
            Some(self.fresh_dir()?)
        } else {
            None
        };
        let engine = engine(dir.as_deref());
        let cpu0 = sys::process_cpu_s().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let result = checker.check_with(&engine, invariant);
        let wall = t.elapsed();
        let cpu_s = sys::process_cpu_s().map_err(|e| e.to_string())? - cpu0;
        let mut left_behind = 0;
        if let Some(dir) = &dir {
            left_behind = sys::bytes_under(dir).map_err(|e| e.to_string())?;
            Self::remove(dir)?;
        }
        Ok(Verified {
            wall,
            cpu_s,
            result,
            left_behind,
        })
    }

    /// Writes a layer file of the workload's record shape and reads it
    /// back; returns (write, read) throughput in MB/s.
    fn frontier_pass(&mut self, words: usize, machines: usize) -> Result<(f64, f64), String> {
        let dir = self.fresh_dir()?;
        let path = dir.join("layer.flr");
        let record = layer_record_bytes(words, machines);
        let n = FRONTIER_PASS_BYTES / record;
        let io = |e: std::io::Error| format!("frontier pass: {e}");
        let (done, ids) = (vec![false; machines], vec![7u32; machines]);
        let mut snap: Vec<u64> = (0..words as u64).collect();
        let t = Instant::now();
        let mut w = LayerWriter::create(&path, words, machines).map_err(io)?;
        for i in 0..n {
            snap[i as usize % words] = i;
            w.push(i as u32, &done, &ids, &snap).map_err(io)?;
        }
        w.finish().map_err(io)?;
        let write_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut r = LayerReader::open(&path).map_err(io)?;
        let mut at = 0;
        while at < n {
            let chunk = r.read_range(at, 4096.min((n - at) as usize)).map_err(io)?;
            at += chunk.len() as u64;
            black_box(chunk);
        }
        let read_s = t.elapsed().as_secs_f64();
        Self::remove(&dir)?;
        let mb = (n * record) as f64 / 1e6;
        Ok((mb / write_s, mb / read_s))
    }
}

/// No two machines hold the same name and every held name is below the
/// protocol's `D`, read through `Session::holding()` — the uniqueness
/// invariant the untraced run checks, over the wrapped machines.
fn unique_holders<P: ProtocolCore>(w: &World<'_, Traced<Session<P>>>) -> Result<(), String> {
    let mut seen = HashSet::new();
    for (i, m) in w.machines.iter().enumerate() {
        let Some(name) = m.0.holding() else { continue };
        let d = m.0.core().dest_size();
        if name >= d {
            return Err(format!(
                "machine {i} holds out-of-range name {name} (D = {d})"
            ));
        }
        if !seen.insert(name) {
            return Err(format!("two machines hold name {name}"));
        }
    }
    Ok(())
}

/// A machine that times the engine's calls into the wrapped one.
#[derive(Clone)]
struct Traced<M>(M);

impl<M: StepMachine> StepMachine for Traced<M> {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        let t = Instant::now();
        let counted = Counting::new(mem);
        let status = self.0.step(&counted);
        record(Counter::StepCalls, Counter::StepNs, t);
        bump(Counter::Accesses, counted.accesses());
        status
    }

    fn key(&self, out: &mut Vec<u64>) {
        let t = Instant::now();
        self.0.key(out);
        record(Counter::KeyCalls, Counter::KeyNs, t);
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn footprint(&self, fp: &mut Footprint) {
        let t = Instant::now();
        self.0.footprint(fp);
        record(Counter::FootprintCalls, Counter::FootprintNs, t);
    }

    fn can_crash(&self) -> bool {
        self.0.can_crash()
    }

    fn crash_restart(&mut self) -> MachineStatus {
        self.0.crash_restart()
    }
}

/// The callback counters, indexing a thread's [`Tally`].
#[derive(Clone, Copy)]
enum Counter {
    StepCalls,
    StepNs,
    Accesses,
    KeyCalls,
    KeyNs,
    InvariantCalls,
    InvariantNs,
    FootprintCalls,
    FootprintNs,
}

const COUNTERS: usize = Counter::FootprintNs as usize + 1;

/// One thread's callback counters. Only the owning thread writes them
/// (plain load + store, no read-modify-write); they are summed or reset
/// only while no verification runs, after the engine joined its workers.
#[derive(Default)]
struct Tally([AtomicU64; COUNTERS]);

/// Every thread's tally; the engine starts new workers for each BFS
/// layer, so this grows by a few entries per layer.
static TALLIES: Mutex<Vec<Arc<Tally>>> = Mutex::new(Vec::new());

thread_local! {
    static MINE: Arc<Tally> = {
        let t = Arc::new(Tally::default());
        TALLIES.lock().expect("tally registry poisoned").push(Arc::clone(&t));
        t
    };
}

fn bump(counter: Counter, v: u64) {
    MINE.with(|t| {
        let c = &t.0[counter as usize];
        c.store(c.load(Ordering::Relaxed) + v, Ordering::Relaxed);
    });
}

/// Counts one call and the nanoseconds since `since`.
fn record(calls: Counter, ns: Counter, since: Instant) {
    bump(ns, since.elapsed().as_nanos() as u64);
    bump(calls, 1);
}

fn reset_tallies() {
    for t in TALLIES.lock().expect("tally registry poisoned").iter() {
        for c in &t.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Totals over every thread's tally, indexed by [`Counter`].
fn sum_tallies() -> [u64; COUNTERS] {
    let mut sum = [0; COUNTERS];
    for t in TALLIES.lock().expect("tally registry poisoned").iter() {
        for (acc, c) in sum.iter_mut().zip(&t.0) {
            *acc += c.load(Ordering::Relaxed);
        }
    }
    sum
}
