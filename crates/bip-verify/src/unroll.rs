//! The one frame manager behind the SAT-based engines: an [`Unroller`]
//! chains copies of the [`bip_core::sym`] step relation in one persistent
//! [`satkit`] solver.
//!
//! [`crate::bmc`], both sides of [`crate::kind`] and
//! [`crate::kind::certify_step`] are loops over unrollers. An unroller is
//! built in one of two shapes:
//!
//! * [`Shape::Pinned`] — frame 0 is the initial state, so every model is a
//!   real execution prefix (BMC, the k-induction base);
//! * [`Shape::SimplePath`] — frame 0 is any in-domain state and each new
//!   frame is asserted pairwise-distinct from every earlier one (the
//!   k-induction step and its certificate).
//!
//! Queries never add permanent goals. [`Unroller::goal`] guards "the
//! invariant fails at frame `d`" behind a fresh activation literal and
//! [`Unroller::holds`] guards "the invariant holds at frame `d`" behind
//! another; the caller passes them to [`Unroller::query`] as assumptions and
//! [`Unroller::retire`]s a refuted goal, so learnt clauses stay valid as the
//! unrolling deepens.

use crate::control::{Budget, CancelToken, StopReason};
use bip_core::sym::{StepEncoder, StepVars, SymError, SymFrame};
use bip_core::{State, StatePred, Step, System};
use satkit::{CnfBuilder, Lit, RestartPolicy, SolveLimits, SolveResult, Solver};
use std::time::Instant;

/// Why a SAT-based check ([`crate::bmc`], [`crate::kind`]) failed, as
/// opposed to returning a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymCheckError {
    /// The system could not be encoded to CNF (see [`SymError`]).
    Encode(SymError),
    /// A satisfying model did not replay on the concrete executor. This is
    /// diagnostic of an encoder/decoder bug; it is never a system property.
    InvalidTrace(String),
}

impl std::fmt::Display for SymCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymCheckError::Encode(e) => write!(f, "symbolic check: {e}"),
            SymCheckError::InvalidTrace(msg) => {
                write!(
                    f,
                    "symbolic check: counterexample failed concrete replay: {msg}"
                )
            }
        }
    }
}

impl std::error::Error for SymCheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SymCheckError::Encode(e) => Some(e),
            SymCheckError::InvalidTrace(_) => None,
        }
    }
}

impl From<SymError> for SymCheckError {
    fn from(e: SymError) -> SymCheckError {
        SymCheckError::Encode(e)
    }
}

/// The settings every unroller of one run shares.
#[derive(Debug, Clone)]
pub(crate) struct SatSettings {
    /// The encoder's expression-enumeration budget.
    pub(crate) enum_budget: u64,
    /// The solver's restart policy.
    pub(crate) restart_policy: RestartPolicy,
    /// Resource ceilings; `max_conflicts` is cumulative over the run.
    pub(crate) budget: Budget,
    /// Installed as the solver's interrupt flag.
    pub(crate) cancel: CancelToken,
}

impl Default for SatSettings {
    fn default() -> SatSettings {
        SatSettings {
            enum_budget: bip_core::sym::DEFAULT_ENUM_BUDGET,
            // One persistent solver accumulates learnt clauses across
            // depths, so the hybrid policy's stable (Luby) phases pay off.
            restart_policy: RestartPolicy::hybrid(),
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        }
    }
}

/// How an unroller constrains its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Frame 0 is the initial state; frames are only chained.
    Pinned,
    /// Frame 0 is any in-domain state; each new frame is asserted distinct
    /// from every earlier one.
    SimplePath,
}

/// Frames `0..=depth` of the step relation in one persistent solver.
pub(crate) struct Unroller<'a> {
    sys: &'a System,
    enc: StepEncoder<'a>,
    b: CnfBuilder,
    frames: Vec<SymFrame>,
    steps: Vec<StepVars>,
    shape: Shape,
    settings: SatSettings,
}

impl<'a> Unroller<'a> {
    /// A one-frame unrolling of `sys` in a fresh solver.
    pub(crate) fn new(
        sys: &'a System,
        settings: &SatSettings,
        shape: Shape,
    ) -> Result<Unroller<'a>, SymCheckError> {
        let enc = StepEncoder::new(sys)?.enum_budget(settings.enum_budget);
        Ok(Unroller::with_encoder(sys, enc, settings.clone(), shape))
    }

    /// A one-frame unrolling in its own solver with this one's settings,
    /// over a fork of its encoder (same ranges, none of its cached
    /// literals, so nothing leaks into the other solver's variables).
    pub(crate) fn fork(&self, shape: Shape) -> Unroller<'a> {
        Unroller::with_encoder(self.sys, self.enc.fork(), self.settings.clone(), shape)
    }

    fn with_encoder(
        sys: &'a System,
        enc: StepEncoder<'a>,
        settings: SatSettings,
        shape: Shape,
    ) -> Unroller<'a> {
        let mut b = CnfBuilder::new();
        b.solver_mut().set_interrupt(Some(settings.cancel.flag()));
        b.solver_mut().set_restart_policy(settings.restart_policy);
        let frame0 = enc.new_frame(&mut b);
        if shape == Shape::Pinned {
            enc.assert_initial(&mut b, &frame0);
        }
        Unroller {
            sys,
            enc,
            b,
            frames: vec![frame0],
            steps: Vec::new(),
            shape,
            settings,
        }
    }

    /// Add one frame, chained to the last by the step relation.
    pub(crate) fn extend(&mut self) -> Result<(), SymCheckError> {
        let next = self.enc.new_frame(&mut self.b);
        let prev = self.frames.last_mut().expect("at least frame 0");
        let sv = self.enc.encode_step(&mut self.b, prev, &next)?;
        if self.shape == Shape::SimplePath {
            for earlier in &self.frames {
                self.enc.assert_frames_distinct(&mut self.b, earlier, &next);
            }
        }
        self.steps.push(sv);
        self.frames.push(next);
        Ok(())
    }

    /// An activation literal that, assumed, forces `inv` to fail at frame
    /// `d`.
    pub(crate) fn goal(&mut self, d: usize, inv: &StatePred) -> Result<Lit, SymCheckError> {
        let l = self
            .enc
            .encode_pred(&mut self.b, &mut self.frames[d], inv)?;
        let act = Lit::pos(self.b.solver_mut().new_var());
        self.b.implies(act, !l);
        Ok(act)
    }

    /// An assumption literal that, assumed, forces `inv` to hold at frame
    /// `d`.
    pub(crate) fn holds(&mut self, d: usize, inv: &StatePred) -> Result<Lit, SymCheckError> {
        let l = self
            .enc
            .encode_pred(&mut self.b, &mut self.frames[d], inv)?;
        let p = Lit::pos(self.b.solver_mut().new_var());
        self.b.implies(p, l);
        Ok(p)
    }

    /// Switch a refuted goal off for good.
    pub(crate) fn retire(&mut self, act: Lit) {
        self.b.assert_lit(!act);
    }

    /// The solver, for statistics and failed-assumption cores.
    pub(crate) fn solver(&mut self) -> &mut Solver {
        self.b.solver_mut()
    }

    /// Whether the run must stop before its next query: cancellation, a
    /// passed deadline, or a conflict ceiling that this solver plus
    /// `spent_elsewhere` (the run's other solvers) has reached.
    pub(crate) fn stop(&mut self, spent_elsewhere: u64) -> Option<StopReason> {
        let budget = self.settings.budget;
        let spent = self.solver().conflicts() + spent_elsewhere;
        if self.settings.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if budget.deadline.is_some_and(|due| Instant::now() >= due) {
            Some(StopReason::Deadline)
        } else if budget.max_conflicts.is_some_and(|m| spent >= m) {
            Some(StopReason::SolverBudget)
        } else {
            None
        }
    }

    /// Solve under `assumptions` with whatever the run's conflict ceiling
    /// leaves: `Ok(true)` for SAT, `Ok(false)` for UNSAT, or why the query
    /// was cut short.
    pub(crate) fn query(
        &mut self,
        assumptions: &[Lit],
        spent_elsewhere: u64,
    ) -> Result<bool, StopReason> {
        let limits = match self.settings.budget.max_conflicts {
            Some(m) => SolveLimits::unlimited()
                .conflicts(m.saturating_sub(self.solver().conflicts() + spent_elsewhere)),
            None => SolveLimits::unlimited(),
        };
        match self.solver().solve_limited(assumptions, limits) {
            SolveResult::Sat => Ok(true),
            SolveResult::Unsat => Ok(false),
            SolveResult::Unknown if self.settings.cancel.is_cancelled() => {
                Err(StopReason::Cancelled)
            }
            SolveResult::Unknown => Err(StopReason::SolverBudget),
        }
    }

    /// Decode the execution of length `depth` from the last (SAT) model and
    /// replay it on the concrete executor (pinned unrollers only).
    pub(crate) fn counterexample(
        &mut self,
        depth: usize,
        inv: &StatePred,
    ) -> Result<(Vec<Step>, Vec<State>), SymCheckError> {
        let model = self.solver().model();
        let states: Vec<State> = self.frames[..=depth]
            .iter()
            .map(|f| self.enc.decode_state(f, &model))
            .collect();
        let mut trace = Vec::with_capacity(depth);
        for sv in &self.steps[..depth] {
            trace.push(self.enc.decode_step(sv, &model).ok_or_else(|| {
                SymCheckError::InvalidTrace("model selects no action in an unrolled frame".into())
            })?);
        }
        replay(self.sys, inv, &states, &trace)?;
        Ok((trace, states))
    }
}

/// Validate a decoded counterexample against the concrete semantics: every
/// `(state, step, state)` triple must be an actual transition enumerated by
/// `for_each_successor`, and the final state must violate the invariant.
fn replay(
    sys: &System,
    inv: &StatePred,
    states: &[State],
    trace: &[Step],
) -> Result<(), SymCheckError> {
    if states.len() != trace.len() + 1 {
        return Err(SymCheckError::InvalidTrace(format!(
            "{} states for {} steps",
            states.len(),
            trace.len()
        )));
    }
    if states[0] != sys.initial_state() {
        return Err(SymCheckError::InvalidTrace(
            "frame 0 does not decode to the initial state".into(),
        ));
    }
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    for (i, step) in trace.iter().enumerate() {
        let mut matched = false;
        es.invalidate_all();
        sys.for_each_successor(&states[i], &mut es, &mut scratch, |s, next| {
            if !matched && next == &states[i + 1] && &s.to_step(sys) == step {
                matched = true;
            }
        });
        if !matched {
            return Err(SymCheckError::InvalidTrace(format!(
                "step {i} is not a concrete transition between the decoded states"
            )));
        }
    }
    if inv.eval(sys, states.last().expect("non-empty")) {
        return Err(SymCheckError::InvalidTrace(
            "final state does not violate the invariant".into(),
        ));
    }
    Ok(())
}
