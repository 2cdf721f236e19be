//! The four workloads: how each builds and prepares its model, runs one
//! verification job, checks the verdict, and — in a traced run — splits
//! the same job into per-layer timings by calling each layer's public
//! functions from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bip_core::sym::{StepEncoder, StepVars, SymFrame};
use bip_core::{GExpr, State, StatePred, Step, System};
use bip_verify::dfinder::{
    enumerate_traps_with, linear_invariants, Abstraction, DFinder, DFinderConfig,
};
use bip_verify::reach::{explore_with, states_where, ReachConfig, ReachReport, Reduction};
use bip_verify::{BmcConfig, BmcReport, DFinderReport};
use satkit::{CnfBuilder, Lit, RestartPolicy, SolveLimits, SolveResult};

use crate::checks;
use crate::heap;
use crate::models::{self, Philosophers, Planted};
use crate::procfs::Cpu;

/// Per-layer values of one traced job or replay, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReachFull,
    ReachPor,
    BmcDeep,
    DfinderGas,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ReachFull,
        Kind::ReachPor,
        Kind::BmcDeep,
        Kind::DfinderGas,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReachFull => "reach-full",
            Kind::ReachPor => "reach-por",
            Kind::BmcDeep => "bmc-deep",
            Kind::DfinderGas => "dfinder-gas",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Model sizes. The full sizes make each job run for 0.35–0.6 s on a
/// 2-core host, so that one run holds dozens of jobs and its median does
/// not hang on a few; the smoke sizes run every check in well under a
/// second.
struct Sizes {
    phil_full: usize,
    phil_por: usize,
    depth: i64,
    toggles: usize,
    customers: usize,
}

const FULL: Sizes = Sizes {
    phil_full: 13,
    phil_por: 16,
    depth: 40,
    toggles: 12,
    customers: 80,
};

const SMOKE: Sizes = Sizes {
    phil_full: 6,
    phil_por: 6,
    depth: 10,
    toggles: 4,
    customers: 8,
};

/// Worker threads where the engine takes a count (`nproc` on the
/// reference host).
const THREADS: usize = 2;
/// Far above any state count here, so explorations always complete.
const MAX_STATES: usize = 50_000_000;
/// Reachable states replayed after each traced job to split reach time by
/// layer.
const SAMPLE_STATES: usize = 10_000;

pub enum Model {
    Phil(Philosophers),
    Planted(Planted, StatePred),
    Gas(System),
}

impl Model {
    pub fn sys(&self) -> &System {
        match self {
            Model::Phil(m) => &m.sys,
            Model::Planted(m, _) => &m.sys,
            Model::Gas(sys) => sys,
        }
    }
}

/// What an untraced job hands to its check and to the traced run.
pub enum Report {
    Reach(ReachReport),
    Bmc(BmcReport),
    DFinder {
        finder: DFinder,
        report: DFinderReport,
        check_s: f64,
    },
}

pub struct Done {
    /// Wall time from the built model to the verdict.
    pub wall_s: f64,
    pub cpu: Cpu,
    /// Most heap the engine call held at once, above what was live when
    /// it started (the model).
    pub peak_heap_b: usize,
    pub report: Report,
}

pub struct Traced {
    /// Wall time of the instrumented job.
    pub wall_s: f64,
    pub layers: Layers,
}

pub struct Workload {
    pub kind: Kind,
    seed: u64,
    sizes: &'static Sizes,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Workload {
        Workload {
            kind,
            seed,
            sizes: if smoke { &SMOKE } else { &FULL },
        }
    }

    /// Declaration-order seed of the model for job `job` of the run.
    /// Seed 0 keeps the library's order for every job; any other seed
    /// gives each job its own permutation, so that one run measures
    /// several isomorphic models and its median does not hang on how
    /// favourable a single order happens to be.
    ///
    /// `dfinder-gas` keeps the library's order for every seed. D-Finder is
    /// not invariant under declaration order: on gas-160, moving the
    /// operator or pump away from the front leaves the default 128-trap
    /// bound without the traps the proof needs (the verdict becomes
    /// `PotentialDeadlock`), and almost any other order makes
    /// `linear_invariants` some 20× faster than the library's order. The
    /// workload measures the order the library and its users write.
    fn model_seed(&self, job: u64) -> u64 {
        if self.seed == 0 || self.kind == Kind::DfinderGas {
            0
        } else {
            models::Rng::new(self.seed ^ job.wrapping_mul(0xd6e8_feb8_6659_fd93))
                .next_u64()
                .max(1)
        }
    }

    /// Build job `job`'s model.
    pub fn build(&self, job: u64) -> Model {
        let s = self.sizes;
        let seed = self.model_seed(job);
        match self.kind {
            Kind::ReachFull => Model::Phil(models::philosophers(s.phil_full, seed)),
            Kind::ReachPor => Model::Phil(models::philosophers(s.phil_por, seed)),
            Kind::BmcDeep => {
                let m = models::planted(s.depth, s.toggles, seed);
                let inv = StatePred::Eq(GExpr::var(m.counter, 0), GExpr::int(m.depth)).not();
                Model::Planted(m, inv)
            }
            Kind::DfinderGas => Model::Gas(models::gas_station(s.customers, seed)),
        }
    }

    /// Build the model and run the engine's separately callable
    /// preparation: the state codec, the independence tables (cached in
    /// the system), the CNF step encoder or the Petri abstraction.
    pub fn prepare(&self, job: u64) -> Model {
        let m = self.build(job);
        let sys = m.sys();
        match self.kind {
            Kind::ReachFull => {
                black_box(sys.adaptive_codec());
            }
            Kind::ReachPor => {
                black_box(sys.adaptive_codec());
                black_box(sys.indep());
            }
            Kind::BmcDeep => {
                black_box(StepEncoder::new(sys).map_err(|e| e.to_string()).ok());
            }
            Kind::DfinderGas => {
                black_box(Abstraction::new(sys));
            }
        }
        m
    }

    fn reach_config(&self) -> ReachConfig {
        match self.kind {
            Kind::ReachFull => ReachConfig::bounded(MAX_STATES).threads(THREADS),
            _ => ReachConfig::bounded(MAX_STATES)
                .threads(1)
                .reduction(Reduction::Persistent),
        }
    }

    fn dfinder_config() -> DFinderConfig {
        DFinderConfig::new().threads(THREADS)
    }

    /// One verification job: a single engine call on `m`, timed.
    pub fn run(&self, m: &Model) -> Result<Done, String> {
        let heap0 = heap::reset_peak();
        let cpu0 = Cpu::now();
        let t = Instant::now();
        let report = match m {
            Model::Phil(p) => Report::Reach(explore_with(&p.sys, &self.reach_config())),
            Model::Planted(p, inv) => Report::Bmc(
                BmcConfig::new(&p.sys)
                    .bound(p.depth as usize)
                    .check_invariant(inv)
                    .map_err(|e| e.to_string())?,
            ),
            Model::Gas(sys) => {
                let finder = DFinder::with_config(sys, &Self::dfinder_config());
                let tc = Instant::now();
                let report = finder.check_deadlock_freedom();
                Report::DFinder {
                    finder,
                    report,
                    check_s: tc.elapsed().as_secs_f64(),
                }
            }
        };
        let wall_s = t.elapsed().as_secs_f64();
        Ok(Done {
            wall_s,
            cpu: Cpu::now().since(cpu0),
            peak_heap_b: heap::peak() - heap0,
            report,
        })
    }

    /// Check a job's verdict against the model.
    pub fn check(&self, m: &Model, d: &Done) -> Result<(), String> {
        match (m, &d.report) {
            (Model::Phil(p), Report::Reach(r)) => match self.kind {
                Kind::ReachFull => checks::reach_full(p, r),
                _ => checks::reach_por(p, r),
            },
            (Model::Planted(p, _), Report::Bmc(r)) => checks::bmc(p, r),
            (Model::Gas(sys), Report::DFinder { finder, report, .. }) => checks::dfinder(
                sys,
                models::gas_station_places(self.sizes.customers),
                finder,
                report,
            ),
            _ => Err("report does not match the model".into()),
        }
    }

    /// The same job with the benchmark's spans around each layer call.
    /// `paired` is an untraced job on an identical model; the traced run
    /// must reproduce its counters exactly.
    pub fn run_traced(&self, m: &Model, paired: &Done) -> Result<Traced, String> {
        match (m, &paired.report) {
            (Model::Phil(p), Report::Reach(r)) => self.traced_reach(p, r),
            (Model::Planted(p, inv), Report::Bmc(r)) => traced_bmc(p, inv, r),
            (
                Model::Gas(sys),
                Report::DFinder {
                    finder,
                    report,
                    check_s,
                },
            ) => traced_dfinder(sys, finder, report, *check_s),
            _ => Err("paired report does not match the model".into()),
        }
    }

    fn traced_reach(&self, p: &Philosophers, paired: &ReachReport) -> Result<Traced, String> {
        let mut layers = Layers::new();
        if self.kind == Kind::ReachPor {
            let t = Instant::now();
            black_box(p.sys.indep());
            layers.insert("indep.build_s", t.elapsed().as_secs_f64());
        }
        let cpu0 = Cpu::now();
        let t = Instant::now();
        let r = explore_with(&p.sys, &self.reach_config());
        let wall_s = t.elapsed().as_secs_f64();
        let cpu = Cpu::now().since(cpu0);
        match self.kind {
            Kind::ReachFull => checks::reach_full(p, &r)?,
            _ => checks::reach_por(p, &r)?,
        }
        if (r.states, r.transitions, &r.deadlocks)
            != (paired.states, paired.transitions, &paired.deadlocks)
        {
            return Err(format!(
                "traced exploration diverged: {} states / {} transitions vs {} / {}",
                r.states, r.transitions, paired.states, paired.transitions
            ));
        }
        layers.insert("reach.states", r.states as f64);
        layers.insert("reach.transitions", r.transitions as f64);
        layers.insert("reach.states_per_s", r.states as f64 / wall_s);
        layers.insert("reach.peak_seen_bytes", r.peak_bytes as f64);
        layers.insert("reach.bytes_per_state", r.bytes_per_state());
        layers.insert("reach.sys_s", cpu.sys_s);
        Ok(Traced { wall_s, layers })
    }

    /// The reachable states `replay_reach` replays: the first
    /// `SAMPLE_STATES` in breadth-first order of `m`, or none for a model
    /// that is not explored.
    pub fn replay_sample(&self, m: &Model) -> Vec<State> {
        match m {
            Model::Phil(p) => states_where(&p.sys, &StatePred::True, SAMPLE_STATES).0,
            _ => Vec::new(),
        }
    }

    /// Replays the per-state work of the reach engine once over `sample`
    /// (states of `m`) and scales it by the engine's counts to split
    /// `engine_wall_s` (measured on `threads` threads just before) into
    /// exec, codec and indep shares; what they leave is
    /// `reach.other_share`. Replaying right after the traced job keeps the
    /// two timings within a second of each other, so the host's drift
    /// does not skew the split.
    pub fn replay_reach(
        &self,
        m: &Model,
        sample: &[State],
        engine: &Layers,
        engine_wall_s: f64,
    ) -> Result<Layers, String> {
        let Model::Phil(p) = m else {
            return Ok(Layers::new());
        };
        if sample.is_empty() {
            return Err("empty replay sample".into());
        }
        let sys = &p.sys;
        let por = self.kind == Kind::ReachPor;
        let pass = replay_pass(sys, sample, por);
        let n = sample.len() as f64;
        let states = engine.get("reach.states").copied().unwrap_or(0.0);
        let transitions = engine.get("reach.transitions").copied().unwrap_or(0.0);
        let threads = if por { 1.0 } else { THREADS as f64 };
        let budget_ns = engine_wall_s * threads * 1e9;
        let exec_ns = pass.exec_ns / n;
        let codec_ns = pass.codec_ns / pass.succ as f64;
        let select_ns = if por { pass.select_ns / n } else { 0.0 };
        let exec_share = exec_ns * states / budget_ns;
        let codec_share = codec_ns * transitions / budget_ns;
        let indep_share = select_ns * states / budget_ns;
        let mut out = Layers::new();
        out.insert("exec.ns_per_state", exec_ns);
        out.insert("exec.succ_per_state", pass.succ as f64 / n);
        out.insert("exec.share", exec_share);
        out.insert("codec.ns_per_succ", codec_ns);
        out.insert("codec.share", codec_share);
        if por {
            out.insert("indep.select_ns_per_state", select_ns);
            out.insert("indep.reduced_frac", pass.reduced as f64 / n);
            out.insert("indep.share", indep_share);
        }
        out.insert(
            "reach.other_share",
            1.0 - exec_share - codec_share - indep_share,
        );
        Ok(out)
    }
}

/// Totals of one replay pass over the sample.
struct ReplayPass {
    /// `refresh_enabled` plus successor enumeration.
    exec_ns: f64,
    /// `encode_into` plus `state_hash` over every successor.
    codec_ns: f64,
    /// `select_ample` (POR only).
    select_ns: f64,
    succ: usize,
    reduced: usize,
}

/// Successors are encoded in chunks of this many states, so the replay
/// never holds more than a chunk's successors at once.
const CODEC_CHUNK: usize = 1_000;

fn replay_pass(sys: &System, sample: &[State], por: bool) -> ReplayPass {
    let codec = sys.adaptive_codec();
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    let indep = por.then(|| sys.indep());
    let mut ample = indep.map(|i| i.new_scratch(sys));
    let mut packed = codec.new_packed();
    let mut succs: Vec<State> = Vec::new();
    let mut p = ReplayPass {
        exec_ns: 0.0,
        codec_ns: 0.0,
        select_ns: 0.0,
        succ: 0,
        reduced: 0,
    };
    for chunk in sample.chunks(CODEC_CHUNK) {
        let mut live = 0usize;
        let mut keep = |next: &State| {
            if live == succs.len() {
                succs.push(next.clone());
            } else {
                succs[live].clone_from(next);
            }
            live += 1;
        };
        match (indep, ample.as_mut()) {
            (Some(indep), Some(ample)) => {
                for st in chunk {
                    let hash = codec.state_hash(st);
                    es.invalidate_all();
                    let t0 = Instant::now();
                    sys.refresh_enabled(st, &mut es);
                    let t1 = Instant::now();
                    let reduced = indep.select_ample(sys, st, &es, hash, None, ample);
                    let t2 = Instant::now();
                    if reduced {
                        for &a in ample.ample() {
                            sys.for_each_step_successor(
                                st,
                                &mut scratch,
                                indep.action(a as usize),
                                |_, next| keep(next),
                            );
                        }
                    } else {
                        sys.for_each_successor(st, &mut es, &mut scratch, |_, next| keep(next));
                    }
                    let t3 = Instant::now();
                    p.exec_ns += ((t1 - t0) + (t3 - t2)).as_nanos() as f64;
                    p.select_ns += (t2 - t1).as_nanos() as f64;
                    p.reduced += usize::from(reduced);
                }
            }
            _ => {
                // Time enumeration alone, then collect the successors for
                // the codec pass outside the timed loop.
                let t = Instant::now();
                let mut count = 0usize;
                for st in chunk {
                    es.invalidate_all();
                    sys.for_each_successor(st, &mut es, &mut scratch, |_, next| {
                        count += 1;
                        black_box(next);
                    });
                }
                p.exec_ns += t.elapsed().as_nanos() as f64;
                black_box(count);
                for st in chunk {
                    es.invalidate_all();
                    sys.for_each_successor(st, &mut es, &mut scratch, |_, next| keep(next));
                }
            }
        }
        let t = Instant::now();
        let mut h = 0u64;
        for next in &succs[..live] {
            codec.encode_into(next, &mut packed);
            h ^= codec.state_hash(next);
        }
        black_box((h, &packed));
        p.codec_ns += t.elapsed().as_nanos() as f64;
        p.succ += live;
    }
    p
}

/// BMC's incremental unrolling, step by step through `sym` and `satkit`:
/// the loop of `BmcConfig::check_invariant` under its defaults (hybrid
/// restarts, no budget). It must reproduce `paired`'s per-depth solver
/// statistics exactly.
fn traced_bmc(m: &Planted, inv: &StatePred, paired: &BmcReport) -> Result<Traced, String> {
    let sys = &m.sys;
    let bound = m.depth as usize;
    let mut encode = 0.0f64;
    let mut solve = 0.0f64;
    let mut solves = 0u64;
    let t_all = Instant::now();
    let mut enc = StepEncoder::new(sys)
        .map_err(|e| e.to_string())?
        .enum_budget(bip_core::sym::DEFAULT_ENUM_BUDGET);
    let mut b = CnfBuilder::new();
    b.solver_mut().set_restart_policy(RestartPolicy::hybrid());
    let t = Instant::now();
    let mut frames: Vec<SymFrame> = vec![enc.new_frame(&mut b)];
    enc.assert_initial(&mut b, &frames[0]);
    encode += t.elapsed().as_secs_f64();
    let mut steps: Vec<StepVars> = Vec::new();
    let mut stats: Vec<(usize, usize, u64)> = Vec::new();
    let mut witness: Option<(Vec<Step>, Vec<State>)> = None;
    let mut decode_replay = 0.0f64;
    for depth in 0..=bound {
        let t = Instant::now();
        let inv_lit = enc
            .encode_pred(&mut b, &mut frames[depth], inv)
            .map_err(|e| e.to_string())?;
        encode += t.elapsed().as_secs_f64();
        let act = Lit::pos(b.solver_mut().new_var());
        b.implies(act, !inv_lit);
        let t = Instant::now();
        let verdict = b
            .solver_mut()
            .solve_limited(&[act], SolveLimits::unlimited());
        solve += t.elapsed().as_secs_f64();
        solves += 1;
        if verdict == SolveResult::Unknown {
            return Err(format!("solver returned unknown at depth {depth}"));
        }
        {
            let s = b.solver_mut();
            stats.push((s.num_vars(), s.num_clauses(), s.conflicts()));
        }
        if verdict.is_sat() {
            let t = Instant::now();
            let model = b.solver_mut().model();
            let states: Vec<State> = frames.iter().map(|f| enc.decode_state(f, &model)).collect();
            let trace = steps
                .iter()
                .map(|sv| enc.decode_step(sv, &model))
                .collect::<Option<Vec<Step>>>()
                .ok_or("model selects no action in an unrolled frame")?;
            concrete_replay(sys, inv, &states, &trace)?;
            decode_replay = t.elapsed().as_secs_f64();
            witness = Some((trace, states));
            break;
        }
        if b.solver_mut().failed_assumptions().is_empty() {
            break;
        }
        b.assert_lit(!act);
        if depth < bound {
            let t = Instant::now();
            let next = enc.new_frame(&mut b);
            let prev = frames.last_mut().expect("frame 0 exists");
            let sv = enc
                .encode_step(&mut b, prev, &next)
                .map_err(|e| e.to_string())?;
            encode += t.elapsed().as_secs_f64();
            steps.push(sv);
            frames.push(next);
        }
    }
    let wall_s = t_all.elapsed().as_secs_f64();

    let expected: Vec<(usize, usize, u64)> = paired
        .frames
        .iter()
        .map(|f| (f.vars, f.clauses, f.conflicts))
        .collect();
    if stats != expected {
        return Err(format!(
            "traced unrolling diverged from BmcConfig: {} depths vs {}, last {:?} vs {:?}",
            stats.len(),
            expected.len(),
            stats.last(),
            expected.last()
        ));
    }
    let (trace, states) = witness.ok_or("traced unrolling found no violation")?;
    checks::planted_trace(m, &trace, &states)?;

    let s = b.solver_mut();
    let mut l = Layers::new();
    l.insert("sym.encode_s", encode);
    l.insert("sym.vars", s.num_vars() as f64);
    l.insert("sym.clauses", s.num_clauses() as f64);
    l.insert("sym.share", encode / wall_s);
    l.insert("satkit.solve_s", solve);
    l.insert("satkit.solves", solves as f64);
    l.insert("satkit.conflicts", s.conflicts() as f64);
    l.insert("satkit.decisions", s.decisions() as f64);
    l.insert("satkit.propagations", s.propagations() as f64);
    l.insert("satkit.props_per_s", s.propagations() as f64 / solve);
    l.insert("satkit.restarts", s.restarts() as f64);
    l.insert("satkit.reduces", s.reduces() as f64);
    l.insert("satkit.avg_lbd_milli", s.avg_lbd_milli() as f64);
    l.insert("satkit.share", solve / wall_s);
    l.insert("bmc.trace_len", trace.len() as f64);
    l.insert("bmc.decode_replay_s", decode_replay);
    Ok(Traced { wall_s, layers: l })
}

/// The replay BMC performs before it reports a witness: every decoded
/// step must be a transition the executor enumerates, and the last state
/// must violate the invariant.
fn concrete_replay(
    sys: &System,
    inv: &StatePred,
    states: &[State],
    trace: &[Step],
) -> Result<(), String> {
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    for (i, step) in trace.iter().enumerate() {
        let mut matched = false;
        es.invalidate_all();
        sys.for_each_successor(&states[i], &mut es, &mut scratch, |s, next| {
            matched |= next == &states[i + 1] && &s.to_step(sys) == step;
        });
        if !matched {
            return Err(format!("decoded step {i} does not replay"));
        }
    }
    if inv.eval(sys, states.last().ok_or("empty witness")?) {
        return Err("decoded witness does not violate the invariant".into());
    }
    Ok(())
}

/// D-Finder's construction, part by part: the Petri abstraction, trap
/// enumeration and linear invariants, as `DFinder::with_config` computes
/// them. The final deadlock check only runs inside a `DFinder`, so its
/// time comes from the paired untraced job. Counts must match `paired`.
fn traced_dfinder(
    sys: &System,
    finder: &DFinder,
    paired: &DFinderReport,
    check_s: f64,
) -> Result<Traced, String> {
    let t = Instant::now();
    let abs = Abstraction::new(sys);
    let abstraction_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traps = enumerate_traps_with(&abs, &Workload::dfinder_config());
    let traps_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let linear = linear_invariants(
        &abs,
        DFinder::DEFAULT_MAX_COEFF,
        DFinder::DEFAULT_MAX_SUPPORT,
    );
    let linear_s = t.elapsed().as_secs_f64();
    if abs.num_places != paired.places
        || traps.len() != paired.traps
        || linear.len() != paired.linear_invariants
        || traps != finder.traps()
        || linear != finder.linear()
    {
        return Err(format!(
            "traced D-Finder diverged: {} places / {} traps / {} linear vs {} / {} / {}",
            abs.num_places,
            traps.len(),
            linear.len(),
            paired.places,
            paired.traps,
            paired.linear_invariants
        ));
    }
    let wall_s = abstraction_s + traps_s + linear_s + check_s;
    let mut l = Layers::new();
    l.insert("dfinder.abstraction_s", abstraction_s);
    l.insert("dfinder.traps_s", traps_s);
    l.insert("dfinder.traps", traps.len() as f64);
    l.insert("dfinder.linear_s", linear_s);
    l.insert("dfinder.linear_invariants", linear.len() as f64);
    l.insert("dfinder.check_s", check_s);
    l.insert("dfinder.check_conflicts", paired.sat_conflicts as f64);
    l.insert("dfinder.places", abs.num_places as f64);
    l.insert("dfinder.linear_share", linear_s / wall_s);
    Ok(Traced { wall_s, layers: l })
}
