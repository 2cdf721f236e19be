//! Time-to-verdict benchmark for the BIP verification stack.
//!
//! ```text
//! verdictbench --workload <reach-full|reach-por|bmc-deep|dfinder-gas>
//!              --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One caller submits verification jobs back to back (a closed loop) for
//! `--seconds`, each job one engine call on a model built from `--seed`,
//! and checks every verdict. With `--trace 0` it reports the end-to-end
//! metrics, each time scaled by a host-speed probe run between jobs (see
//! `hostspeed.rs`); with `--trace 1` it alternates untraced and traced
//! jobs and reports the per-layer split. The last line of standard output
//! is one JSON object; see `README.md` for the metrics and why each
//! workload exists. `--smoke` swaps in tiny models that run every check in
//! seconds.

mod checks;
mod heap;
mod hostspeed;
mod models;
mod procfs;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Done, Kind, Layers, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload reports 0
/// for a layer its engine does not use.
const PER_LAYER: [(&str, &str); 42] = [
    ("reach.states", "count"),
    ("reach.transitions", "count"),
    ("reach.states_per_s", "1/s"),
    ("reach.peak_seen_bytes", "B"),
    ("reach.bytes_per_state", "B"),
    ("reach.sys_s", "s"),
    ("reach.other_share", "share"),
    ("exec.ns_per_state", "ns"),
    ("exec.succ_per_state", "count"),
    ("exec.share", "share"),
    ("codec.ns_per_succ", "ns"),
    ("codec.share", "share"),
    ("indep.build_s", "s"),
    ("indep.select_ns_per_state", "ns"),
    ("indep.reduced_frac", "share"),
    ("indep.share", "share"),
    ("sym.encode_s", "s"),
    ("sym.vars", "count"),
    ("sym.clauses", "count"),
    ("sym.share", "share"),
    ("satkit.solve_s", "s"),
    ("satkit.solves", "count"),
    ("satkit.conflicts", "count"),
    ("satkit.decisions", "count"),
    ("satkit.propagations", "count"),
    ("satkit.props_per_s", "1/s"),
    ("satkit.restarts", "count"),
    ("satkit.reduces", "count"),
    ("satkit.avg_lbd_milli", "1/1000"),
    ("satkit.share", "share"),
    ("bmc.trace_len", "count"),
    ("bmc.decode_replay_s", "s"),
    ("dfinder.abstraction_s", "s"),
    ("dfinder.traps_s", "s"),
    ("dfinder.traps", "count"),
    ("dfinder.linear_s", "s"),
    ("dfinder.linear_invariants", "count"),
    ("dfinder.check_s", "s"),
    ("dfinder.check_conflicts", "count"),
    ("dfinder.places", "count"),
    ("dfinder.linear_share", "share"),
    ("trace.overhead", "share"),
];

/// Set-up is timed in bursts spread over the run (host speed drifts over
/// seconds, so one burst at the start would sample a single moment): one
/// burst of `SETUP_BURST_S` before the first job and one after every job,
/// each at least `SETUP_MIN_REPS` and at most `SETUP_MAX_REPS` builds. Each
/// build is scaled by the probe taken just before its burst, and the median
/// over all bursts is reported.
const SETUP_BURST_S: f64 = 0.05;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 5_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Jobs attempted and failed. A failure is a panic, an engine error, a
/// stop other than `Completed`, an `Unknown` verdict, a failed check, or a
/// traced job that does not reproduce its untraced pair.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, job: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                None
            }
        }
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Sample count, minimum, median and maximum, for the log.
fn summary(v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "n={} min {min:.4} median {:.4} max {max:.4}",
        v.len(),
        median(v)
    )
}

/// Time `Workload::prepare` for one burst, appending each build's time
/// multiplied by `scale` to `samples`.
fn time_setup(w: &Workload, scale: f64, samples: &mut Vec<f64>) {
    let start = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_BURST_S {
            break;
        }
        let t = Instant::now();
        let m = w.prepare(samples.len() as u64);
        samples.push(t.elapsed().as_secs_f64() * scale);
        drop(black_box(m));
    }
}

/// Calls `job(0)`, `job(1)`, … back to back, and stops before a call
/// would end past `seconds`, judging by the previous call's duration. At
/// least one call runs.
fn closed_loop(seconds: f64, mut job: impl FnMut(u64)) {
    let start = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        job(i);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Run job `job` and check it.
fn checked_job(w: &Workload, job: u64, tally: &mut Tally) -> Option<Done> {
    tally.attempt("job", || {
        let m = w.prepare(job);
        let d = w.run(&m)?;
        w.check(&m, &d)?;
        Ok(d)
    })
}

/// Times scaled to the probe's nominal speed: a job's by the mean of the
/// probes just before and just after it, a set-up burst's by the probe
/// just before it.
fn end_to_end(w: &Workload, seconds: f64, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut setup = Vec::new();
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut heaps = Vec::new();
    let mut probes = vec![hostspeed::probe()];
    time_setup(w, hostspeed::NOMINAL_S / probes[0], &mut setup);
    closed_loop(seconds, |job| {
        let done = checked_job(w, job, tally);
        let before = probes[probes.len() - 1];
        let after = hostspeed::probe();
        probes.push(after);
        if let Some(d) = done {
            let scale = hostspeed::NOMINAL_S / ((before + after) / 2.0);
            raw_walls.push(d.wall_s);
            walls.push(d.wall_s * scale);
            cpus.push(d.cpu.total_s() * scale);
            heaps.push(d.peak_heap_b as f64 / (1024.0 * 1024.0));
        }
        time_setup(w, hostspeed::NOMINAL_S / after, &mut setup);
    });
    println!("raw verdict_s {}", summary(&raw_walls));
    println!("probe_s {}", summary(&probes));
    println!("scaled verdict_s {}", summary(&walls));
    println!("peak_heap_mb {}", summary(&heaps));
    println!("peak_rss_mb {:.4} (VmHWM, whole process)", procfs::peak_rss_mb());
    vec![
        ("verdict_s", median(&walls)),
        ("setup_s", median(&setup)),
        ("cpu_s", median(&cpus)),
        ("peak_heap_mb", median(&heaps)),
    ]
}

fn per_layer(w: &Workload, seconds: f64, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let replay_model = w.build(0);
    let sample = w.replay_sample(&replay_model);
    closed_loop(seconds, |job| {
        let Some(d) = checked_job(w, job, tally) else {
            return;
        };
        let Some(mut t) = tally.attempt("traced job", || w.run_traced(&w.build(job), &d)) else {
            return;
        };
        if matches!(w.kind, Kind::ReachFull | Kind::ReachPor) {
            let replay = || w.replay_reach(&replay_model, &sample, &t.layers, t.wall_s);
            let Some(r) = tally.attempt("replay", replay) else {
                return;
            };
            t.layers.extend(r);
        }
        untraced.push(d.wall_s);
        traced.push(t.wall_s);
        layers.push(t.layers);
    });
    let mut merged = Layers::new();
    for (name, _) in PER_LAYER {
        let v: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
        if !v.is_empty() {
            merged.insert(name, median(&v));
        }
    }
    if !untraced.is_empty() {
        // Each traced job runs right after its untraced pair, so the
        // median of the pairs' ratios cancels the host's slow drift.
        let ratios: Vec<f64> = traced.iter().zip(&untraced).map(|(t, u)| t / u).collect();
        merged.insert("trace.overhead", median(&ratios) - 1.0);
    }
    println!("untraced verdict_s {}", summary(&untraced));
    println!("traced verdict_s {}", summary(&traced));
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, merged.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.seed, args.smoke);
    let mut tally = Tally::default();
    let (values, units) = if args.trace {
        (per_layer(&w, args.seconds, &mut tally), &PER_LAYER[..])
    } else {
        (end_to_end(&w, args.seconds, &mut tally), &END_TO_END[..])
    };
    let finite = values.iter().all(|(_, v)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!(
        "{} seed {}: {} attempted, {} failed, fail_frac {}",
        w.kind.name(),
        args.seed,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let metrics: Vec<String> = values
        .iter()
        .zip(units)
        .map(|(&(name, v), &(_, unit))| {
            println!("  {name:<28} {v:>16.6} {unit}");
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
