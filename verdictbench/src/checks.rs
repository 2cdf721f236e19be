//! Verdict checks. Each rests on facts about the benchmark's own models
//! that hold for every declaration order, and none calls into the engine
//! that produced the verdict: the checks read states, traps and invariants
//! directly and judge them against the model's known shape.

use bip_core::{State, Step, System};
use bip_verify::dfinder::{DFinder, Verdict};
use bip_verify::reach::ReachReport;
use bip_verify::{BmcReport, DFinderReport, StopReason};

use crate::models::{Philosophers, Planted};

type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Reachable states and transitions of two-phase philosophers, by size.
/// Counted on the library's declaration order; every permutation of it
/// must reproduce them.
fn full_counts(n: usize) -> Option<(usize, usize)> {
    match n {
        6 => Some((198, 768)),
        13 => Some((94_642, 795_353)),
        15 => Some((551_614, 5_348_835)),
        _ => None,
    }
}

/// Two-phase philosophers have exactly one deadlock: every philosopher
/// holds its left fork (location `hasL`) and so every fork is taken.
/// Checks that `st` is that state and that the executor offers it no
/// successor.
fn check_phil_deadlock(m: &Philosophers, st: &State) -> Check {
    const HAS_L: u32 = 1;
    const TAKEN: u32 = 1;
    ensure(
        m.phils.iter().all(|&p| st.locs[p] == HAS_L)
            && m.forks.iter().all(|&f| st.locs[f] == TAKEN),
        || {
            format!(
                "reported deadlock is not the all-hold-left state: {:?}",
                st.locs
            )
        },
    )?;
    let sys = &m.sys;
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    let mut successors = 0usize;
    sys.for_each_successor(st, &mut es, &mut scratch, |_, _| successors += 1);
    ensure(successors == 0, || {
        format!("reported deadlock has {successors} successors")
    })
}

fn check_completed(stop: StopReason, complete: bool) -> Check {
    ensure(stop == StopReason::Completed && complete, || {
        format!("exploration stopped with {stop:?} (complete = {complete})")
    })
}

/// `reach-full`: exact counts and the one deadlock.
pub fn reach_full(m: &Philosophers, r: &ReachReport) -> Check {
    check_completed(r.stop, r.complete)?;
    let n = m.phils.len();
    let (states, transitions) =
        full_counts(n).ok_or_else(|| format!("no reference counts for {n} philosophers"))?;
    ensure(r.states == states && r.transitions == transitions, || {
        format!(
            "counted {} states / {} transitions, expected {states} / {transitions}",
            r.states, r.transitions
        )
    })?;
    ensure(r.deadlocks.len() == 1, || {
        format!("{} deadlocks reported, expected 1", r.deadlocks.len())
    })?;
    check_phil_deadlock(m, &r.deadlocks[0])
}

/// `reach-por`: persistent sets preserve every deadlock, so the reduced
/// search must still report exactly the one deadlock.
pub fn reach_por(m: &Philosophers, r: &ReachReport) -> Check {
    check_completed(r.stop, r.complete)?;
    ensure(r.deadlocks.len() == 1, || {
        format!("{} deadlocks reported, expected 1", r.deadlocks.len())
    })?;
    check_phil_deadlock(m, &r.deadlocks[0])
}

/// The planted counter's value and each toggle's location in `st`.
fn planted_view(m: &Planted, st: &State) -> (i64, Vec<u32>) {
    let n = st.vars[m.sys.global_var(m.counter, 0)];
    (n, m.toggles.iter().map(|&t| st.locs[t]).collect())
}

/// Replays a planted-family trace on the model's own rules: each step
/// either increments the counter (below the bound, toggles unchanged) or
/// flips exactly one toggle through its `flip` connector (counter
/// unchanged). The walk starts at `n = 0` with every toggle at `a` and must
/// end at `n = depth`, the one state the invariant forbids.
pub fn planted_trace(m: &Planted, trace: &[Step], states: &[State]) -> Check {
    let depth = m.depth as usize;
    ensure(trace.len() == depth && states.len() == depth + 1, || {
        format!(
            "trace has {} steps and {} states, expected {depth} and {}",
            trace.len(),
            states.len(),
            depth + 1
        )
    })?;
    let (n0, t0) = planted_view(m, &states[0]);
    ensure(n0 == 0 && t0.iter().all(|&l| l == 0), || {
        "trace does not start in the initial state".into()
    })?;
    for (i, step) in trace.iter().enumerate() {
        let (n, tg) = planted_view(m, &states[i]);
        let (n2, tg2) = planted_view(m, &states[i + 1]);
        let flipped: Vec<usize> = (0..tg.len()).filter(|&k| tg[k] != tg2[k]).collect();
        let ok = match step {
            Step::Internal { component, .. } => {
                *component == m.counter && n < m.depth && n2 == n + 1 && flipped.is_empty()
            }
            Step::Interaction { interaction, .. } => {
                let name = &m.sys.connector(interaction.connector).name;
                n2 == n
                    && flipped.len() == 1
                    && *name == format!("flip{}", flipped[0])
                    && tg2[flipped[0]] == 1 - tg[flipped[0]]
            }
        };
        ensure(ok, || {
            format!("step {i} is not a move of the planted model")
        })?;
    }
    let (last, _) = planted_view(m, &states[depth]);
    ensure(last == m.depth, || {
        format!(
            "trace ends at n = {last}, which does not violate n != {}",
            m.depth
        )
    })
}

/// `bmc-deep`: a completed run with a violation at exactly `depth`.
pub fn bmc(m: &Planted, r: &BmcReport) -> Check {
    ensure(r.stop == StopReason::Completed, || {
        format!("BMC stopped with {:?}", r.stop)
    })?;
    ensure(r.frames.len() == m.depth as usize + 1, || {
        format!(
            "{} depths decided, expected {}",
            r.frames.len(),
            m.depth + 1
        )
    })?;
    let (trace, states) = r.violation().ok_or("BMC found no violation")?;
    planted_trace(m, trace, states)
}

/// `dfinder-gas`: deadlock-freedom, with every trap a genuine initially
/// marked trap and every linear invariant true initially and preserved by
/// every abstract transition.
pub fn dfinder(sys: &System, places: usize, f: &DFinder, r: &DFinderReport) -> Check {
    ensure(r.verdict == Verdict::DeadlockFree, || {
        format!("verdict {:?}, expected DeadlockFree", r.verdict)
    })?;
    ensure(r.stop == StopReason::Completed, || {
        format!("D-Finder stopped with {:?}", r.stop)
    })?;
    let abs = f.abstraction();
    ensure(r.places == places && abs.num_places == places, || {
        format!("{} places, expected {places}", r.places)
    })?;
    ensure(abs.initial.len() == sys.num_components(), || {
        "initial marking does not mark one place per component".into()
    })?;
    for (i, trap) in f.traps().iter().enumerate() {
        ensure(abs.is_trap(trap), || format!("trap {i} is not a trap"))?;
        ensure(abs.initial.iter().any(|&p| trap.contains(p)), || {
            format!("trap {i} is not initially marked")
        })?;
    }
    for (i, inv) in f.linear().iter().enumerate() {
        ensure(inv.lhs(|p| abs.initial.contains(&p)) == inv.value, || {
            format!("linear invariant {i} does not hold initially")
        })?;
        let coeff = |p| {
            inv.coeffs
                .iter()
                .find(|&&(q, _)| q == p)
                .map_or(0, |&(_, a)| a)
        };
        for (pre, post) in &abs.transitions {
            let effect: i64 = post.iter().map(|&p| coeff(p)).sum::<i64>()
                - pre.iter().map(|&p| coeff(p)).sum::<i64>();
            ensure(effect == 0, || {
                format!("linear invariant {i} is not preserved by {pre:?} -> {post:?}")
            })?;
        }
    }
    ensure(
        r.traps == f.traps().len() && r.linear_invariants == f.linear().len(),
        || "report counts disagree with the computed invariants".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_verify::reach::{explore_with, ReachConfig};

    #[test]
    fn reference_counts_match_the_library_model() {
        let n = 6;
        let sys = bip_core::dining_philosophers(n, true).unwrap();
        let r = explore_with(&sys, &ReachConfig::bounded(1_000_000));
        assert_eq!(full_counts(n), Some((r.states, r.transitions)));
    }

    #[test]
    fn checks_reject_a_wrong_verdict() {
        let m = crate::models::philosophers(6, 3);
        let mut r = explore_with(&m.sys, &ReachConfig::bounded(1_000_000));
        assert_eq!(reach_full(&m, &r), Ok(()));
        r.deadlocks[0] = m.sys.initial_state();
        assert!(reach_full(&m, &r).is_err());
        r.transitions -= 1;
        assert!(reach_full(&m, &r).is_err());
    }
}
