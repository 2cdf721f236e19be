//! The benchmark's model families, built here rather than taken from the
//! library so that a seed can permute declaration order.
//!
//! Seed 0 declares instances and connectors in the library's order
//! (`bip_core::dining_philosophers`, the e16 planted family, the bench
//! crate's `gas_station`); any other seed shuffles both lists, which yields
//! an isomorphic model whose component and connector indices differ. Facts
//! the checks rely on (state counts, deadlock shape, trace length, place
//! count) do not depend on the order.

use bip_core::{AtomBuilder, AtomType, CompId, ConnectorBuilder, Expr, System, SystemBuilder};

/// SplitMix64: a tiny deterministic generator, enough to shuffle lists.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Declares instances and connectors in library order or, for a non-zero
/// seed, in a seeded permutation of it. Connectors name instances by their
/// library index; `build` translates to the permuted component ids.
struct Decl<'a> {
    instances: Vec<(String, &'a AtomType)>,
    connectors: Vec<MakeConnector<'a>>,
}

/// Builds a connector from the component id of every library index.
type MakeConnector<'a> = Box<dyn Fn(&[CompId]) -> ConnectorBuilder + 'a>;

impl<'a> Decl<'a> {
    fn new() -> Decl<'a> {
        Decl {
            instances: Vec::new(),
            connectors: Vec::new(),
        }
    }

    /// Declare an instance; returns its library index.
    fn instance(&mut self, name: String, ty: &'a AtomType) -> usize {
        self.instances.push((name, ty));
        self.instances.len() - 1
    }

    fn connector(&mut self, make: impl Fn(&[CompId]) -> ConnectorBuilder + 'a) {
        self.connectors.push(Box::new(make));
    }

    /// Build the system; returns it with the component id of every library
    /// index.
    fn build(self, seed: u64) -> (System, Vec<CompId>) {
        let mut inst_order: Vec<usize> = (0..self.instances.len()).collect();
        let mut conn_order: Vec<usize> = (0..self.connectors.len()).collect();
        if seed != 0 {
            let mut rng = Rng::new(seed);
            rng.shuffle(&mut inst_order);
            rng.shuffle(&mut conn_order);
        }
        let mut sb = SystemBuilder::new();
        let mut id = vec![0; self.instances.len()];
        for &i in &inst_order {
            let (name, ty) = &self.instances[i];
            id[i] = sb.add_instance(name.clone(), ty);
        }
        for &c in &conn_order {
            sb.add_connector((self.connectors[c])(&id));
        }
        (sb.build().expect("benchmark models are well-formed"), id)
    }
}

/// Two-phase dining philosophers (takes the left fork, then the right).
pub struct Philosophers {
    pub sys: System,
    /// Component id of philosopher `i`.
    pub phils: Vec<CompId>,
    /// Component id of fork `i`.
    pub forks: Vec<CompId>,
}

/// `bip_core::dining_philosophers(n, true)` with seeded declaration order.
pub fn philosophers(n: usize, seed: u64) -> Philosophers {
    let fork = AtomBuilder::new("fork")
        .port("take")
        .port("put")
        .location("free")
        .location("taken")
        .initial("free")
        .transition("free", "take", "taken")
        .transition("taken", "put", "free")
        .build()
        .expect("fork atom");
    let phil = AtomBuilder::new("phil2")
        .port("takeL")
        .port("takeR")
        .port("release")
        .location("thinking")
        .location("hasL")
        .location("eating")
        .initial("thinking")
        .transition("thinking", "takeL", "hasL")
        .transition("hasL", "takeR", "eating")
        .transition("eating", "release", "thinking")
        .build()
        .expect("philosopher atom");
    let mut d = Decl::new();
    let phils: Vec<usize> = (0..n)
        .map(|i| d.instance(format!("phil{i}"), &phil))
        .collect();
    let forks: Vec<usize> = (0..n)
        .map(|i| d.instance(format!("fork{i}"), &fork))
        .collect();
    for i in 0..n {
        let (p, l, r) = (phils[i], forks[i], forks[(i + 1) % n]);
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(format!("takeL{i}"), [(id[p], "takeL"), (id[l], "take")])
        });
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(format!("takeR{i}"), [(id[p], "takeR"), (id[r], "take")])
        });
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(
                format!("rel{i}"),
                [(id[p], "release"), (id[l], "put"), (id[r], "put")],
            )
        });
    }
    let (sys, id) = d.build(seed);
    Philosophers {
        sys,
        phils: phils.iter().map(|&i| id[i]).collect(),
        forks: forks.iter().map(|&i| id[i]).collect(),
    }
}

/// The e16 planted family: a counter that may step `n := n + 1` while
/// `n < depth`, next to `toggles` free-running two-location toggles, so the
/// only violation of `n != depth` sits exactly `depth` steps deep.
pub struct Planted {
    pub sys: System,
    pub depth: i64,
    /// Component id of the counter.
    pub counter: CompId,
    /// Component id of toggle `i` (flipped by connector `flip{i}`).
    pub toggles: Vec<CompId>,
}

pub fn planted(depth: i64, toggles: usize, seed: u64) -> Planted {
    let counter = AtomBuilder::new("counter")
        .location("run")
        .initial("run")
        .var("n", 0)
        .internal_transition(
            "run",
            Expr::var(0).lt(Expr::int(depth)),
            vec![("n", Expr::var(0).add(Expr::int(1)))],
            "run",
        )
        .build()
        .expect("counter atom");
    let toggle = AtomBuilder::new("toggle")
        .port("t")
        .location("a")
        .location("b")
        .initial("a")
        .transition("a", "t", "b")
        .transition("b", "t", "a")
        .build()
        .expect("toggle atom");
    let mut d = Decl::new();
    let cnt = d.instance("cnt".into(), &counter);
    let tgls: Vec<usize> = (0..toggles)
        .map(|i| d.instance(format!("tgl{i}"), &toggle))
        .collect();
    for (i, &t) in tgls.iter().enumerate() {
        d.connector(move |id| ConnectorBuilder::singleton(format!("flip{i}"), id[t], "t"));
    }
    let (sys, id) = d.build(seed);
    Planted {
        sys,
        depth,
        counter: id[cnt],
        toggles: tgls.iter().map(|&i| id[i]).collect(),
    }
}

/// The gas-station family: one operator, one pump and `customers`
/// customers who prepay, pump and leave.
pub fn gas_station(customers: usize, seed: u64) -> System {
    let operator = AtomBuilder::new("operator")
        .port("prepay")
        .port("change")
        .location("idle")
        .location("serving")
        .initial("idle")
        .transition("idle", "prepay", "serving")
        .transition("serving", "change", "idle")
        .build()
        .expect("operator atom");
    let pump = AtomBuilder::new("pump")
        .port("start")
        .port("finish")
        .location("free")
        .location("pumping")
        .initial("free")
        .transition("free", "start", "pumping")
        .transition("pumping", "finish", "free")
        .build()
        .expect("pump atom");
    let customer = AtomBuilder::new("customer")
        .port("pay")
        .port("pump")
        .port("done")
        .location("arrive")
        .location("paid")
        .location("fueling")
        .initial("arrive")
        .transition("arrive", "pay", "paid")
        .transition("paid", "pump", "fueling")
        .transition("fueling", "done", "arrive")
        .build()
        .expect("customer atom");
    let mut d = Decl::new();
    let op = d.instance("op".into(), &operator);
    let pu = d.instance("pump".into(), &pump);
    for i in 0..customers {
        let c = d.instance(format!("cust{i}"), &customer);
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(format!("prepay{i}"), [(id[c], "pay"), (id[op], "prepay")])
        });
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(
                format!("start{i}"),
                [(id[c], "pump"), (id[pu], "start"), (id[op], "change")],
            )
        });
        d.connector(move |id| {
            ConnectorBuilder::rendezvous(
                format!("finish{i}"),
                [(id[c], "done"), (id[pu], "finish")],
            )
        });
    }
    d.build(seed).0
}

/// Places of the gas-station abstraction: 2 + 2 + 3 per customer.
pub fn gas_station_places(customers: usize) -> usize {
    4 + 3 * customers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(sys: &System) -> (Vec<String>, Vec<String>) {
        (
            (0..sys.num_components())
                .map(|c| sys.instance_name(c).to_string())
                .collect(),
            sys.connectors().iter().map(|c| c.name.clone()).collect(),
        )
    }

    #[test]
    fn seed_zero_keeps_library_declaration_order() {
        let lib = bip_core::dining_philosophers(5, true).unwrap();
        assert_eq!(names(&philosophers(5, 0).sys), names(&lib));
    }

    #[test]
    fn other_seeds_permute_declarations() {
        let (i0, c0) = names(&philosophers(6, 0).sys);
        let (i1, c1) = names(&philosophers(6, 7).sys);
        assert_ne!((&i0, &c0), (&i1, &c1));
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(i0), sorted(i1));
        assert_eq!(sorted(c0), sorted(c1));
    }
}
