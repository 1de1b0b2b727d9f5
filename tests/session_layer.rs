//! Integration: the generic session layer.
//!
//! Every protocol in the workspace is the same two machines — one acquire,
//! one release — plugged into `llr_core::session`: [`Session`] is the
//! model-checked spec and [`Handle`] the threaded executable, both derived
//! from the protocol's [`ProtocolCore`]. These tests exercise that
//! genericity end to end:
//!
//! * one polymorphic random-schedule driver runs all eight protocol cores,
//!   the naming protocols under the *generic* uniqueness invariant and the
//!   substrates under their own exclusion/output-set invariants;
//! * the threaded handle and the stepped session are pinned to the *same*
//!   shared-access counts (they are the same machines by construction),
//!   and those counts are pinned to the paper's theorem bounds.

use llr_core::chain::spec as chain_spec;
use llr_core::filter::{Filter, FilterCore, FilterShape, ReleasePolicy};
use llr_core::ma::{MaCore, MaGrid, MaShape};
use llr_core::onetime::{OneTimeCore, OneTimeGrid, OneTimeShape};
use llr_core::pf::{spec as pf_spec, MeCore, MeRegs};
use llr_core::session::{self, ProtocolCore, Session};
use llr_core::split::{Split, SplitCore, SplitShape};
use llr_core::splitter::{spec as splitter_spec, SplitterCore, SplitterRegs};
use llr_core::tournament::{spec as tree_spec, TreeCore, TreeShape};
use llr_core::traits::{Renaming, RenamingHandle};
use llr_core::types::Name;
use llr_gf::FilterParams;
use llr_mc::{MachineStatus, ModelChecker, SplitMix64, StepMachine, World};
use llr_mem::{AtomicMemory, Counting, Layout};

/// Random-schedule sampling over any session world — the single driver
/// every protocol below goes through.
fn walk<P, F>(layout: Layout, machines: Vec<Session<P>>, invariant: F, seed: u64, label: &str)
where
    P: ProtocolCore,
    F: Fn(&World<'_, Session<P>>) -> Result<(), String>,
{
    let mc = ModelChecker::new(layout, machines);
    mc.random_walks(invariant, 15, 150_000, seed)
        .unwrap_or_else(|v| panic!("{label}: {v}"));
}

/// All five *naming* protocols under random schedules, checked by the one
/// generic `session::unique_names_invariant` — no per-protocol invariant
/// code involved.
#[test]
fn naming_protocols_share_the_generic_invariant() {
    let mut gen = SplitMix64::new(0x5E55_10A1_0001);
    for _ in 0..6 {
        // SPLIT, k = 3..=5, huge pids.
        let k = 3 + gen.next_index(3);
        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        let machines: Vec<_> = (0..k as u64)
            .map(|i| Session::start(SplitCore::new(shape.clone(), i * 999_983 + 1), 2))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "split",
        );

        // FILTER over GF(5), 3 of 24 pids.
        let pids = draw_pids(&mut gen, 24, 3);
        let params = FilterParams::new(3, 25, 1, 5).unwrap();
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &pids, &mut layout).unwrap();
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| {
                Session::start(
                    FilterCore::new(shape.clone(), p, ReleasePolicy::AtReleaseName),
                    2,
                )
            })
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "filter",
        );

        // MA grid, 3 of 8 pids.
        let pids = draw_pids(&mut gen, 8, 3);
        let mut layout = Layout::new();
        let shape = MaShape::build(3, 8, &mut layout);
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| Session::start(MaCore::new(shape.clone(), p), 2))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "ma",
        );

        // One-time grid, k = 4 (single session by construction).
        let mut layout = Layout::new();
        let shape = OneTimeShape::build(4, &mut layout);
        let machines: Vec<_> = (0..4u64)
            .map(|p| Session::start(OneTimeCore::new(shape.clone(), p), 1))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "onetime",
        );

        // Theorem-11 mini chain (SPLIT stage into MA stage), random pids.
        let mut layout = Layout::new();
        let shape = chain_spec::MiniChainShape::build(2, &mut layout);
        let machines: Vec<_> = (0..2)
            .map(|_| Session::start(chain_spec::ChainCore::new(shape.clone(), gen.next_u64()), 2))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "chain",
        );
    }
}

/// The three substrates ride the same `Session<P>` machinery under their
/// own invariants (they hand out directions/slots, not names).
#[test]
fn substrates_run_through_the_same_session_type() {
    let mut gen = SplitMix64::new(0x5E55_10A1_0002);
    for _ in 0..6 {
        // Splitter, 3..=5 processes.
        let ell = 3 + gen.next_index(3);
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let machines: Vec<_> = (0..ell as u64)
            .map(|p| Session::start(SplitterCore::new(p, regs), 2))
            .collect();
        walk(
            layout,
            machines,
            splitter_spec::output_set_invariant,
            gen.next_u64(),
            "splitter",
        );

        // Pairwise mutual exclusion, the two fixed competitors.
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let machines = vec![
            Session::start(MeCore::new(regs, 0), 2),
            Session::start(MeCore::new(regs, 1), 2),
        ];
        walk(
            layout,
            machines,
            pf_spec::mutual_exclusion,
            gen.next_u64(),
            "pf",
        );

        // Tournament tree, 2..=5 of 8 pids in a 16-leaf tree.
        let want = 2 + gen.next_index(4);
        let participants = draw_pids(&mut gen, 8, want);
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", 16, &participants);
        let machines: Vec<_> = participants
            .iter()
            .map(|&p| Session::start(TreeCore::new(shape.clone(), p), 2))
            .collect();
        walk(
            layout,
            machines,
            tree_spec::root_exclusion,
            gen.next_u64(),
            "tournament",
        );
    }
}

/// Draws `want` distinct pids below `n` (sorted, deterministic).
fn draw_pids(gen: &mut SplitMix64, n: u64, want: usize) -> Vec<u64> {
    let mut pids: Vec<u64> = Vec::with_capacity(want);
    while pids.len() < want {
        let p = gen.next_below(n);
        if !pids.contains(&p) {
            pids.push(p);
        }
    }
    pids.sort_unstable();
    pids
}

/// Steps one spec session solo to completion on a counting memory.
/// Returns (name, shared accesses when the name was first held, total
/// shared accesses for the full acquire/release cycle).
fn spec_solo_cycle<P: ProtocolCore>(layout: &Layout, core: P) -> (Name, u64, u64) {
    let mem = AtomicMemory::new(layout);
    let counting = Counting::new(&mem);
    let mut s = Session::start(core, 1);
    let mut name = None;
    let mut at_acquire = 0;
    for _ in 0..1_000_000 {
        let status = s.step(&counting);
        if name.is_none() {
            if let Some(n) = s.holding() {
                name = Some(n);
                at_acquire = counting.accesses();
            }
        }
        if status == MachineStatus::Done {
            let name = name.expect("session finished without holding a name");
            return (name, at_acquire, counting.accesses());
        }
    }
    panic!("solo session did not terminate");
}

/// The handle and the spec are the same machines: a solo acquire/release
/// cycle performs *identical* shared-access counts through either, yields
/// the same name, and both sit inside the paper's bounds.
#[test]
fn handle_and_spec_agree_on_access_counts() {
    // SPLIT, Theorem 2: full cycle within 9(k-1) accesses.
    for k in 2..=6usize {
        let pid = 123_456_789u64;
        let split = Split::new(k);
        let mut h = split.handle(pid);
        let exec_name = h.acquire();
        let exec_acquire = h.accesses();
        h.release();

        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        let (spec_name, spec_acquire, spec_total) =
            spec_solo_cycle(&layout, SplitCore::new(shape, pid));

        assert_eq!(exec_name, spec_name, "split k={k}: names diverge");
        assert_eq!(exec_acquire, spec_acquire, "split k={k}: acquire accesses diverge");
        assert_eq!(h.accesses(), spec_total, "split k={k}: total accesses diverge");
        assert!(spec_total <= 9 * (k as u64 - 1), "split k={k}: {spec_total}");
    }

    // FILTER, Theorem 10: GetName within the computed access bound.
    for k in 2..=4usize {
        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        let pids: Vec<u64> = (0..k as u64).map(|i| (i * (s / 7) + 1) % s).collect();
        let filter = Filter::new(params, &pids).unwrap();
        let mut h = filter.handle(pids[0]);
        let exec_name = h.acquire();
        let exec_acquire = h.accesses();
        h.release();

        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &pids, &mut layout).unwrap();
        let (spec_name, spec_acquire, spec_total) = spec_solo_cycle(
            &layout,
            FilterCore::new(shape, pids[0], ReleasePolicy::AtReleaseName),
        );

        assert_eq!(exec_name, spec_name, "filter k={k}: names diverge");
        assert_eq!(exec_acquire, spec_acquire, "filter k={k}: acquire accesses diverge");
        assert_eq!(h.accesses(), spec_total, "filter k={k}: total accesses diverge");
        assert!(
            spec_acquire <= params.getname_access_bound(),
            "filter k={k}: {spec_acquire} > {}",
            params.getname_access_bound()
        );
    }

    // MA, the linear-in-S baseline: one block scan plus slack.
    {
        let (k, s, pid) = (3usize, 16u64, 7u64);
        let ma = MaGrid::new(k, s);
        let mut h = ma.handle(pid);
        let exec_name = h.acquire();
        h.release();

        let mut layout = Layout::new();
        let shape = MaShape::build(k, s, &mut layout);
        let (spec_name, _, spec_total) = spec_solo_cycle(&layout, MaCore::new(shape, pid));

        assert_eq!(exec_name, spec_name, "ma: names diverge");
        assert_eq!(h.accesses(), spec_total, "ma: total accesses diverge");
        assert!(spec_total <= 2 * s + 16, "ma: {spec_total}");
    }

    // One-time grid: at most 4k accesses and no release machine at all.
    {
        let (k, pid) = (4usize, 777u64);
        let grid = OneTimeGrid::new(k, 1 << 20);
        let (exec_name, exec_acc) = grid.get_name(pid);

        let mut layout = Layout::new();
        let shape = OneTimeShape::build(k, &mut layout);
        let (spec_name, spec_acquire, spec_total) =
            spec_solo_cycle(&layout, OneTimeCore::new(shape, pid));

        assert_eq!(exec_name, spec_name, "onetime: names diverge");
        assert_eq!(exec_acc, spec_acquire, "onetime: acquire accesses diverge");
        assert_eq!(spec_acquire, spec_total, "onetime: release must be free");
        assert!(spec_total <= 4 * k as u64, "onetime: {spec_total}");
    }
}

/// A session executes exactly the requested number of acquire/release
/// cycles before reporting `Done`.
#[test]
fn session_counts_its_sessions() {
    let mut layout = Layout::new();
    let shape = SplitShape::build(3, &mut layout);
    let mem = AtomicMemory::new(&layout);
    let mut s = Session::start(SplitCore::new(shape, 42), 3);
    assert_eq!(s.sessions_left(), 3);

    let mut holds = 0u32;
    let mut was_holding = false;
    for _ in 0..1_000_000 {
        let status = s.step(&mem);
        let now = s.holding().is_some();
        if now && !was_holding {
            holds += 1;
        }
        was_holding = now;
        if status == MachineStatus::Done {
            assert_eq!(holds, 3, "one hold per session");
            assert_eq!(s.sessions_left(), 0);
            return;
        }
    }
    panic!("session did not terminate");
}

/// Both generic uniqueness invariants name the first clashing pair, and
/// say whether a claim was a held name or one leaked by a crash while
/// Holding. Each session acquires solo on a fresh register file, so all
/// of them hold the same name.
#[test]
fn uniqueness_invariants_name_the_first_clash() {
    let mut layout = Layout::new();
    let shape = SplitShape::build(3, &mut layout);
    let session = |pid: u64| {
        Session::start(SplitCore::new(shape.clone(), pid), 2)
            .with_spares(vec![SplitCore::new(shape.clone(), pid + 100)])
    };
    let hold = |mut s: Session<SplitCore>| {
        let mem = AtomicMemory::new(&layout);
        while s.holding().is_none() {
            s.step(&mem);
        }
        s
    };
    let leak = |s: Session<SplitCore>| {
        let mut s = hold(s);
        s.crash_restart();
        s
    };
    let name = hold(session(1)).holding().expect("held");
    let sim = llr_mem::SimMemory::new(&layout);
    let check = |machines: Vec<Session<SplitCore>>| {
        let done = vec![false; machines.len()];
        let world = World {
            mem: &sim,
            machines: &machines,
            done: &done,
        };
        (
            session::unique_names_invariant(&world),
            session::crash_robust_uniqueness(&world),
        )
    };

    let (plain, robust) = check(vec![hold(session(1)), session(2), hold(session(3))]);
    assert_eq!(plain, Err(format!("machines 0 and 2 concurrently hold name {name}")));
    assert_eq!(robust, Err(format!("machine 0 and machine 2 both claim name {name}")));

    let (plain, robust) = check(vec![session(1), leak(session(2)), hold(session(3))]);
    assert_eq!(plain, Ok(()));
    assert_eq!(
        robust,
        Err(format!("machine 1 (leaked) and machine 2 both claim name {name}"))
    );

    let (plain, robust) = check(vec![session(1), hold(leak(session(2)))]);
    assert_eq!(plain, Ok(()));
    assert_eq!(
        robust,
        Err(format!("machine 1 (leaked) and machine 1 both claim name {name}"))
    );

    let (plain, robust) = check(vec![hold(session(1)), leak(session(2))]);
    assert_eq!(plain, Ok(()));
    assert_eq!(
        robust,
        Err(format!("machine 0 and machine 1 (leaked) both claim name {name}"))
    );

    let (plain, robust) = check(vec![hold(session(1)), session(2), session(3)]);
    assert_eq!((plain, robust), (Ok(()), Ok(())));
}

#[test]
#[should_panic(expected = "acquire while holding a name")]
fn handle_rejects_double_acquire() {
    let split = Split::new(2);
    let mut h = split.handle(1);
    h.acquire();
    h.acquire();
}

#[test]
#[should_panic(expected = "release without holding a name")]
fn handle_rejects_release_without_hold() {
    let split = Split::new(2);
    let mut h = split.handle(1);
    h.release();
}
