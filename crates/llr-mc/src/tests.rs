//! Self-tests for the model checker: known-racy and known-correct
//! algorithms must be classified correctly.

use crate::{CheckStats, MachineStatus, ModelChecker, StepMachine};
use llr_mem::{Layout, Loc, Memory};

// ---------------------------------------------------------------------------
// A non-atomic increment: read x, then write x+1. Two of these must lose an
// update under some interleaving.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Incr {
    x: Loc,
    pc: u8,
    tmp: u64,
}

impl Incr {
    fn new(x: Loc) -> Self {
        Self { x, pc: 0, tmp: 0 }
    }
}

impl StepMachine for Incr {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            0 => {
                self.tmp = mem.read(self.x);
                self.pc = 1;
                MachineStatus::Running
            }
            _ => {
                mem.write(self.x, self.tmp + 1);
                self.pc = 2;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(self.tmp);
    }

    fn describe(&self) -> String {
        format!("Incr(pc={}, tmp={})", self.pc, self.tmp)
    }
}

#[test]
fn finds_lost_update() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err(format!("lost update: X = {}", w.mem.read(x)))
            } else {
                Ok(())
            }
        })
        .expect_err("the race must be found");
    let v = err.unwrap_violation();
    assert!(v.message.contains("lost update"));
    // The classic schedule: both read before either writes.
    assert!(v.schedule.len() >= 3);
    assert!(v.trace.contains("X"));
}

#[test]
fn single_machine_state_count_is_exact() {
    // One Incr machine: initial state, after-read state, after-write state.
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let stats = mc.check(|_| Ok(())).unwrap();
    assert_eq!(
        stats,
        CheckStats {
            states: 3,
            transitions: 2,
            max_depth: 2,
            terminal_states: 1,
            ..Default::default()
        }
    );
}

#[test]
fn hashed_dedup_matches_exact() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Incr::new(x), Incr::new(x), Incr::new(x)];
    let exact = ModelChecker::new(layout.clone(), machines.clone())
        .check(|_| Ok(()))
        .unwrap();
    let hashed = ModelChecker::new(layout, machines)
        .hashed_dedup(true)
        .check(|_| Ok(()))
        .unwrap();
    assert_eq!(exact.states, hashed.states);
    assert_eq!(exact.transitions, hashed.transitions);
}

#[test]
fn state_limit_reported() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = || ModelChecker::new(layout.clone(), vec![Incr::new(x), Incr::new(x)]).max_states(2);
    let runs = [
        ("dfs", mc().check(|_| Ok(()))),
        ("bfs", mc().check_parallel(|_| Ok(()))),
        ("bfs+spill", mc().spill_dir(std::env::temp_dir(), 0).check_parallel(|_| Ok(()))),
    ];
    for (engine, run) in runs {
        match run {
            Err(crate::checker::CheckError::StateLimit { limit, stats }) => {
                assert_eq!(limit, 2, "{engine}");
                assert_eq!(stats.states, 3, "{engine}: the bound is exceeded by one state");
            }
            other => panic!("{engine}: expected state limit, got {other:?}"),
        }
    }
}

#[test]
fn state_limit_fits_the_id_width() {
    // State ids are `u32` with `u32::MAX` as the root's parent sentinel:
    // an unbounded request resolves to a limit the ids can count to, so
    // a huge run ends in `StateLimit` instead of overflowing an id.
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]).max_states(usize::MAX);
    assert!(mc.state_limit() <= u32::MAX as usize);
}

// ---------------------------------------------------------------------------
// Mutual exclusion: a naive test-then-set lock is broken; Peterson's
// algorithm is correct. The checker must tell them apart.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct NaiveLock {
    lock: Loc,
    pc: u8,
    in_cs: bool,
}

impl StepMachine for NaiveLock {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            // spin: read lock until free
            0 => {
                if mem.read(self.lock) == 0 {
                    self.pc = 1;
                }
                MachineStatus::Running
            }
            // acquire
            1 => {
                mem.write(self.lock, 1);
                self.in_cs = true;
                self.pc = 2;
                MachineStatus::Running
            }
            // release
            _ => {
                mem.write(self.lock, 0);
                self.in_cs = false;
                self.pc = 3;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(u64::from(self.in_cs));
    }

    fn describe(&self) -> String {
        format!("NaiveLock(pc={}, in_cs={})", self.pc, self.in_cs)
    }
}

#[test]
fn naive_lock_violates_mutual_exclusion() {
    let mut layout = Layout::new();
    let lock = layout.scalar("LOCK", 0);
    let m = NaiveLock {
        lock,
        pc: 0,
        in_cs: false,
    };
    let mc = ModelChecker::new(layout, vec![m.clone(), m]);
    let err = mc
        .check(|w| {
            let inside = w.machines.iter().filter(|m| m.in_cs).count();
            if inside > 1 {
                Err(format!("{inside} machines in the critical section"))
            } else {
                Ok(())
            }
        })
        .expect_err("naive lock must fail");
    let v = err.unwrap_violation();
    assert!(v.message.contains("2 machines"));
}

#[derive(Clone)]
struct Peterson {
    me: usize,
    flags: [Loc; 2],
    turn: Loc,
    sessions_left: u8,
    pc: u8,
    in_cs: bool,
}

impl Peterson {
    fn new(me: usize, flags: [Loc; 2], turn: Loc, sessions: u8) -> Self {
        Self {
            me,
            flags,
            turn,
            sessions_left: sessions,
            pc: 0,
            in_cs: false,
        }
    }
}

impl StepMachine for Peterson {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        let other = 1 - self.me;
        match self.pc {
            0 => {
                mem.write(self.flags[self.me], 1);
                self.pc = 1;
            }
            1 => {
                mem.write(self.turn, other as u64);
                self.pc = 2;
            }
            2 => {
                if mem.read(self.flags[other]) == 0 {
                    self.in_cs = true;
                    self.pc = 4;
                } else {
                    self.pc = 3;
                }
            }
            3 => {
                if mem.read(self.turn) != other as u64 {
                    self.in_cs = true;
                    self.pc = 4;
                } else {
                    self.pc = 2; // keep spinning
                }
            }
            _ => {
                mem.write(self.flags[self.me], 0);
                self.in_cs = false;
                self.sessions_left -= 1;
                self.pc = 0;
                if self.sessions_left == 0 {
                    return MachineStatus::Done;
                }
            }
        }
        MachineStatus::Running
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(self.sessions_left as u64);
        out.push(u64::from(self.in_cs));
    }

    fn describe(&self) -> String {
        format!(
            "Peterson(p{}, pc={}, left={}, in_cs={})",
            self.me, self.pc, self.sessions_left, self.in_cs
        )
    }
}

fn peterson_checker(sessions: u8) -> ModelChecker<Peterson> {
    let mut layout = Layout::new();
    let f0 = layout.scalar("FLAG0", 0);
    let f1 = layout.scalar("FLAG1", 0);
    let turn = layout.scalar("TURN", 0);
    let machines = vec![
        Peterson::new(0, [f0, f1], turn, sessions),
        Peterson::new(1, [f0, f1], turn, sessions),
    ];
    ModelChecker::new(layout, machines)
}

fn exclusion(w: &crate::World<'_, Peterson>) -> Result<(), String> {
    let inside = w.machines.iter().filter(|m| m.in_cs).count();
    if inside > 1 {
        Err(format!("{inside} machines in the critical section"))
    } else {
        Ok(())
    }
}

#[test]
fn peterson_satisfies_mutual_exclusion_exhaustively() {
    let stats = peterson_checker(3).check(exclusion).unwrap();
    // Two machines, repeated sessions, spinning: a nontrivial state space.
    assert!(stats.states > 100, "suspiciously small: {stats}");
    assert!(stats.terminal_states >= 1);
}

#[test]
fn peterson_random_walks_pass() {
    let mc = peterson_checker(4);
    let stats = mc.random_walks(exclusion, 200, 10_000, 42).unwrap();
    assert_eq!(stats.terminal_states, 200, "every walk should finish");
}

#[test]
fn peterson_is_live_under_fair_scheduling() {
    let steps = peterson_checker(5).round_robin(100_000).unwrap();
    assert!(steps < 1_000, "round-robin completion took {steps} steps");
}

#[test]
fn replay_reproduces_violation() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let v = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err()
        .unwrap_violation();
    let (mem, _, done) = mc.run_schedule(&v.schedule);
    assert!(done.iter().all(|&d| d));
    assert_eq!(mem.read(x), 1, "replay must reproduce the lost update");
}

#[test]
fn trace_is_readable() {
    let mut layout = Layout::new();
    let x = layout.scalar("COUNTER", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let trace = mc.render_trace(&[0, 0]);
    assert!(trace.contains("COUNTER"), "trace: {trace}");
    assert!(trace.contains("init:"));
    assert!(trace.contains("final:"));
}

#[test]
fn random_walks_find_the_lost_update_race() {
    // The same race `check` finds exhaustively is found by sampling.
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let result = mc.random_walks(
        |w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost update".into())
            } else {
                Ok(())
            }
        },
        500,
        100,
        7,
    );
    let v = result.expect_err("500 walks must hit the race");
    assert!(v.message.contains("lost update"));
    // And the reported schedule replays to the bad state.
    let (mem, _, _) = mc.run_schedule(&v.schedule);
    assert_eq!(mem.read(x), 1);
}

#[test]
fn run_schedule_skips_finished_machines() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    // Machine 0 finishes after 2 steps; the extra entries are ignored.
    let (mem, _, done) = mc.run_schedule(&[0, 0, 0, 0, 0]);
    assert!(done[0]);
    assert_eq!(mem.read(x), 1);
}

#[test]
fn error_displays_are_informative() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost update".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("invariant violated"));
    assert!(text.contains("schedule"));

    let limit = crate::CheckError::StateLimit { limit: 7, stats: Default::default() };
    assert!(limit.to_string().contains("7"));
}

#[test]
fn stats_display() {
    let s = CheckStats {
        states: 10,
        transitions: 20,
        max_depth: 5,
        terminal_states: 2,
        ..Default::default()
    };
    let text = s.to_string();
    assert!(text.contains("10 states"));
    assert!(text.contains("20 transitions"));
}

#[test]
fn violation_is_a_std_error() {
    fn takes_error<E: std::error::Error>(_: &E) {}
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    if let crate::CheckError::Violation(v) = &err {
        takes_error(v.as_ref());
    }
    takes_error(&err);
}

#[test]
fn liveness_stats_display() {
    let s = crate::LivenessStats {
        states: 3,
        edges: 4,
        terminal_states: 1,
        peak_resident_bytes: 0,
        spilled_bytes: 0,
    };
    assert!(s.to_string().contains("3 states"));
}

#[test]
fn shrinking_produces_the_minimal_race() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let inv = |w: &crate::World<'_, Incr>| {
        if w.all_done() && w.mem.read(x) != 2 {
            Err("lost update".into())
        } else {
            Ok(())
        }
    };
    let v = mc.check(inv).unwrap_err().unwrap_violation();
    let shrunk = mc.shrink_schedule(&v.schedule, inv);
    assert!(shrunk.len() <= v.schedule.len());
    // The minimal lost-update interleaving is exactly 4 steps:
    // both read, both write.
    assert_eq!(shrunk.len(), 4, "shrunk: {shrunk:?}");
    // And it still violates (replay and check the final value).
    let (mem, _, done) = mc.run_schedule(&shrunk);
    assert!(done.iter().all(|&d| d));
    assert_eq!(mem.read(x), 1);
}

#[test]
#[should_panic(expected = "actually violates")]
fn shrinking_rejects_innocent_schedules() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let _ = mc.shrink_schedule(&[0, 0], |_| Ok(()));
}

// ---------------------------------------------------------------------------
// The crash–restart fault model: a Flagger raises X and lowers it again;
// crashing between the two writes leaves X torn high forever.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Flagger {
    x: Loc,
    pc: u8,
}

impl StepMachine for Flagger {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            0 => {
                mem.write(self.x, 1);
                self.pc = 1;
                MachineStatus::Running
            }
            _ => {
                mem.write(self.x, 0);
                self.pc = 2;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
    }

    fn describe(&self) -> String {
        format!("Flagger(pc={})", self.pc)
    }

    fn footprint(&self, fp: &mut crate::Footprint) {
        fp.write(self.x);
        fp.future_write(self.x);
        if self.pc != 0 {
            fp.set_visible(); // the lowering step finishes the machine
        }
    }

    fn can_crash(&self) -> bool {
        true
    }

    fn crash_restart(&mut self) -> MachineStatus {
        self.pc = 3; // frozen tombstone, distinct from every live pc
        MachineStatus::Done
    }
}

#[test]
fn faults_zero_leaves_the_state_space_untouched() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x, pc: 0 }];
    let plain = ModelChecker::new(layout.clone(), machines.clone())
        .check(|_| Ok(()))
        .unwrap();
    let zero = ModelChecker::new(layout, machines)
        .faults(0)
        .check(|_| Ok(()))
        .unwrap();
    assert_eq!(plain, zero);
}

#[test]
fn a_crash_exposes_torn_state() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Flagger { x, pc: 0 }]).faults(1);
    // Fault-free, X is always lowered before the machine finishes; only a
    // crash between the writes can leave it torn high at quiescence.
    let v = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) == 1 {
                Err("flag left torn high".into())
            } else {
                Ok(())
            }
        })
        .expect_err("the crash window must be found")
        .unwrap_violation();
    assert_eq!(v.schedule, vec![0, crate::CRASH_SCHEDULE_BASE]);
    assert!(v.trace.contains("CRASH"), "trace: {}", v.trace);
    // The schedule replays: the raise step, then the crash.
    let (mem, machines, done) = mc.run_schedule(&v.schedule);
    assert!(done[0]);
    assert_eq!(mem.read(x), 1);
    assert_eq!(machines[0].pc, 3);
}

#[test]
fn fault_budget_bounds_the_number_of_crashes() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x, pc: 0 }];
    // With f = 1, at most one machine can die: quiescent X can be torn
    // high, but both machines can never be tombstoned at once.
    let stats = ModelChecker::new(layout, machines)
        .faults(1)
        .check(|w| {
            if w.machines.iter().filter(|m| m.pc == 3).count() > 1 {
                Err("two crashes under a budget of one".into())
            } else {
                Ok(())
            }
        })
        .unwrap();
    // The crash transitions strictly grow the fault-free space (9 states).
    assert!(stats.states > 9, "{stats}");
}

#[test]
fn engines_agree_under_faults() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let y = layout.scalar("Y", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x: y, pc: 0 }, Flagger { x, pc: 0 }];
    let seq = ModelChecker::new(layout.clone(), machines.clone())
        .faults(2)
        .check(|_| Ok(()))
        .unwrap();
    let par = ModelChecker::new(layout, machines)
        .faults(2)
        .workers(3)
        .check_parallel(|_| Ok(()))
        .unwrap();
    assert_eq!(seq.states, par.states);
    assert_eq!(seq.transitions, par.transitions);
    assert_eq!(seq.terminal_states, par.terminal_states);

    // The disk stores under a zero budget match the RAM stores at the same
    // POR setting. The space is larger than the 4096 hashes the delta's
    // 64 KiB floor holds, so runs are flushed mid-layer and later layers
    // meet old states only at the join.
    let mut layout = Layout::new();
    let regs: Vec<Loc> = (0..3).map(|r| layout.scalar(format!("R{r}"), 0)).collect();
    let machines: Vec<Flagger> = (0..6).map(|i| Flagger { x: regs[i % 3], pc: 0 }).collect();
    let run = |por: bool, spill: bool| {
        let mc = ModelChecker::new(layout.clone(), machines.clone())
            .faults(2)
            .por(por)
            .workers(3);
        let mc = if spill { mc.spill_dir(std::env::temp_dir(), 0) } else { mc };
        mc.check_parallel(|_| Ok(())).unwrap()
    };
    let full = run(false, false);
    let reduced = run(true, false);
    assert!(full.states > 4096, "{full}");
    assert!(reduced.transitions < full.transitions, "POR acts once the budget is spent");
    for (por, ram) in [(false, full), (true, reduced)] {
        let disk = run(por, true);
        assert_eq!(disk.states, ram.states, "por={por}");
        assert_eq!(disk.transitions, ram.transitions, "por={por}");
        assert_eq!(disk.terminal_states, ram.terminal_states, "por={por}");
    }
}
