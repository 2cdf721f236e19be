//! Shared generators for the workspace integration tests.
#![allow(dead_code)] // each test binary uses a subset

use bip_core::{AtomBuilder, ConnectorBuilder, Expr, SystemBuilder};

pub mod linear_oracle;

/// How a generated variable behaves across transitions.
#[derive(Debug, Clone, Copy)]
enum VarStyle {
    /// The original location-heavy flavor: small random ±1 drifts under
    /// occasional small comparison guards.
    Drift,
    /// A guard-bounded counter: increments guarded by `v < limit` (with
    /// occasional resets to 0), so the interval-width analysis and the
    /// simple-path bit encoding both get a real workout. Limits are mostly
    /// small (state spaces stay explorable) but sometimes land above the
    /// widening cadence (≈ 64) to exercise threshold widening.
    Counter { limit: i64 },
}

/// A random flat system: a handful of randomly generated atoms (guarded,
/// variable-updating transitions over random small location graphs) wired by
/// random rendezvous/broadcast/singleton connectors. Used to stress the
/// compiled enabled-set protocol and the packed-state explorers on shapes no
/// hand-written model covers. Variables are a mix of drifting values and
/// guard-bounded counters (see [`VarStyle`]).
pub fn random_system(seed: u64) -> bip_core::System {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_atoms = rng.gen_range(2usize..6);
    let mut sb = SystemBuilder::new();
    let mut port_counts = Vec::new();
    for a in 0..n_atoms {
        let n_ports = rng.gen_range(1usize..4);
        let n_locs = rng.gen_range(1usize..4);
        let n_vars = rng.gen_range(0usize..3);
        let styles: Vec<VarStyle> = (0..n_vars)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    let limit = if rng.gen_bool(0.2) {
                        rng.gen_range(80i64..110)
                    } else {
                        rng.gen_range(2i64..8)
                    };
                    VarStyle::Counter { limit }
                } else {
                    VarStyle::Drift
                }
            })
            .collect();
        let mut b = AtomBuilder::new(format!("t{a}"));
        for (v, style) in styles.iter().enumerate() {
            let init = match style {
                VarStyle::Drift => rng.gen_range(-2i64..3),
                VarStyle::Counter { .. } => 0,
            };
            b = b.var(format!("v{v}"), init);
        }
        for p in 0..n_ports {
            b = b.port(format!("p{p}"));
        }
        for l in 0..n_locs {
            b = b.location(format!("l{l}"));
        }
        b = b.initial("l0");
        // Random transitions; always at least one per location so systems
        // aren't trivially stuck.
        for l in 0..n_locs {
            for _ in 0..rng.gen_range(1usize..3) {
                let port = format!("p{}", rng.gen_range(0..n_ports));
                let to = format!("l{}", rng.gen_range(0..n_locs));
                // Updates first: an incrementing counter *forces* its own
                // bound as the transition guard — the guard-bounded shape
                // the interval-width analysis can prove finite.
                let mut forced_guard = None;
                let updates = if n_vars > 0 && rng.gen_bool(0.5) {
                    let v = rng.gen_range(0..n_vars);
                    let e = match styles[v] {
                        // Counters mostly advance toward their guard bound;
                        // sometimes they reset, closing a modular loop.
                        VarStyle::Counter { limit } => {
                            if rng.gen_bool(0.8) {
                                forced_guard = Some(Expr::var(v as u32).lt(Expr::int(limit)));
                                Expr::var(v as u32).add(Expr::int(1))
                            } else {
                                Expr::int(0)
                            }
                        }
                        VarStyle::Drift => {
                            Expr::var(v as u32).add(Expr::int(rng.gen_range(-1i64..2)))
                        }
                    };
                    vec![(format!("v{v}"), e)]
                } else {
                    vec![]
                };
                let guard = if let Some(g) = forced_guard {
                    g
                } else if n_vars > 0 && rng.gen_bool(0.4) {
                    let v = rng.gen_range(0..n_vars);
                    match styles[v] {
                        VarStyle::Counter { limit } => Expr::var(v as u32).lt(Expr::int(limit)),
                        VarStyle::Drift => {
                            Expr::var(v as u32).lt(Expr::int(rng.gen_range(1i64..5)))
                        }
                    }
                } else {
                    Expr::t()
                };
                b = b.guarded_transition(
                    format!("l{l}"),
                    port,
                    guard,
                    updates
                        .iter()
                        .map(|(v, e)| (v.as_str(), e.clone()))
                        .collect(),
                    to,
                );
            }
        }
        let ty = b.build().unwrap();
        port_counts.push(n_ports);
        sb.add_instance(format!("a{a}"), &ty);
    }
    let n_conns = rng.gen_range(1usize..6);
    for c in 0..n_conns {
        let kind = rng.gen_range(0..3);
        let pick_port =
            |rng: &mut StdRng, comp: usize| format!("p{}", rng.gen_range(0..port_counts[comp]));
        match kind {
            0 => {
                let comp = rng.gen_range(0..n_atoms);
                let port = pick_port(&mut rng, comp);
                sb.add_connector(ConnectorBuilder::singleton(format!("c{c}"), comp, port));
            }
            1 => {
                // Rendezvous over a random subset of ≥ 2 distinct atoms.
                let mut comps: Vec<usize> = (0..n_atoms).collect();
                for i in (1..comps.len()).rev() {
                    comps.swap(i, rng.gen_range(0..i + 1));
                }
                comps.truncate(rng.gen_range(2..n_atoms.max(2) + 1));
                let ports: Vec<(usize, String)> = comps
                    .iter()
                    .map(|&co| (co, pick_port(&mut rng, co)))
                    .collect();
                sb.add_connector(ConnectorBuilder::rendezvous(format!("c{c}"), ports));
            }
            _ => {
                let trigger = rng.gen_range(0..n_atoms);
                let mut receivers: Vec<(usize, String)> = Vec::new();
                for co in 0..n_atoms {
                    if co != trigger && rng.gen_bool(0.6) {
                        let p = pick_port(&mut rng, co);
                        receivers.push((co, p));
                    }
                }
                let tp = pick_port(&mut rng, trigger);
                if receivers.is_empty() {
                    sb.add_connector(ConnectorBuilder::singleton(format!("c{c}"), trigger, tp));
                } else {
                    sb.add_connector(ConnectorBuilder::broadcast(
                        format!("c{c}"),
                        (trigger, tp),
                        receivers,
                    ));
                }
            }
        }
    }
    let mut sys = sb.build().unwrap();
    // Random priority layer half the time.
    if rng.gen_bool(0.5) {
        let nc = sys.num_connectors() as u32;
        sys.priority_mut().maximal_progress = rng.gen_bool(0.5);
        for _ in 0..rng.gen_range(0..3) {
            sys.priority_mut().add_rule(
                bip_core::ConnId(rng.gen_range(0..nc)),
                bip_core::ConnId(rng.gen_range(0..nc)),
            );
        }
    }
    sys
}
