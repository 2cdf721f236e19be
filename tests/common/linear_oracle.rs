//! Independent oracle for `bip_verify::dfinder::linear_invariants`: a dense
//! Gauss-Jordan elimination over exact rationals. It computes the same
//! canonical basis (one vector per free column of the reduced row echelon
//! form of the incidence matrix, scaled to a primitive integer vector), by a
//! route that shares no code with the library's sparse fraction-free
//! elimination. Intermediate values are `i128`; test builds check overflow,
//! so an overflow here panics instead of producing a wrong answer.

use std::collections::HashSet;

use bip_verify::dfinder::{Abstraction, LinearInvariant, Place};

/// Exact rational with a positive denominator, always in lowest terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    n: i128,
    d: i128,
}

impl Rat {
    const ZERO: Rat = Rat { n: 0, d: 1 };

    fn new(n: i128, d: i128) -> Rat {
        assert!(d != 0);
        let g = gcd(n.unsigned_abs(), d.unsigned_abs()) as i128;
        let s = if d < 0 { -1 } else { 1 };
        Rat {
            n: s * n / g,
            d: s * d / g,
        }
    }

    fn from_int(n: i128) -> Rat {
        Rat { n, d: 1 }
    }

    fn is_zero(self) -> bool {
        self.n == 0
    }

    fn sub(self, o: Rat) -> Rat {
        Rat::new(self.n * o.d - o.n * self.d, self.d * o.d)
    }

    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.n * o.n, self.d * o.d)
    }

    fn div(self, o: Rat) -> Rat {
        Rat::new(self.n * o.d, self.d * o.n)
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    (a / gcd(a.unsigned_abs(), b.unsigned_abs()) as i128) * b
}

/// The linear invariants of `abs` under the same filters as the library:
/// every |coefficient| ≤ `max_coeff` and support ≤ `max_support`.
pub fn linear_invariants(
    abs: &Abstraction,
    max_coeff: i64,
    max_support: usize,
) -> Vec<LinearInvariant> {
    // Deduplicate transitions and build dense effect rows.
    let mut rows: Vec<Vec<Rat>> = Vec::new();
    let mut seen = HashSet::new();
    for (pre, post) in &abs.transitions {
        if !seen.insert((pre.clone(), post.clone())) {
            continue;
        }
        let mut row = vec![Rat::ZERO; abs.num_places];
        for &p in pre {
            row[p] = row[p].sub(Rat::from_int(1));
        }
        for &q in post {
            row[q] = row[q].sub(Rat::from_int(-1));
        }
        if row.iter().any(|r| !r.is_zero()) {
            rows.push(row);
        }
    }
    // Gauss-Jordan elimination to reduced row echelon form.
    let ncols = abs.num_places;
    let mut pivot_col_of_row = Vec::new();
    let mut r = 0usize;
    for c in 0..ncols {
        let Some(pr) = (r..rows.len()).find(|&i| !rows[i][c].is_zero()) else {
            continue;
        };
        rows.swap(r, pr);
        let piv = rows[r][c];
        for x in rows[r].iter_mut() {
            *x = x.div(piv);
        }
        let pivot_row = rows[r].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i != r && !row[c].is_zero() {
                let f = row[c];
                for (x, pv) in row.iter_mut().zip(&pivot_row) {
                    *x = x.sub(f.mul(*pv));
                }
            }
        }
        pivot_col_of_row.push(c);
        r += 1;
        if r == rows.len() {
            break;
        }
    }
    let pivot_cols: HashSet<usize> = pivot_col_of_row.iter().copied().collect();
    let initial: HashSet<Place> = abs.initial.iter().copied().collect();
    // Each free column yields a null-space basis vector:
    // y[free] = 1; y[pivot column of row i] = -rows[i][free].
    let mut out = Vec::new();
    for free in (0..ncols).filter(|c| !pivot_cols.contains(c)) {
        let mut y = vec![Rat::ZERO; ncols];
        y[free] = Rat::from_int(1);
        for (i, &pc) in pivot_col_of_row.iter().enumerate() {
            y[pc] = Rat::ZERO.sub(rows[i][free]);
        }
        // Scale to a primitive integer vector.
        let denom = y
            .iter()
            .filter(|v| !v.is_zero())
            .fold(1i128, |acc, v| lcm(acc, v.d));
        let ints: Vec<i128> = y.iter().map(|v| v.n * (denom / v.d)).collect();
        let g = ints
            .iter()
            .filter(|&&v| v != 0)
            .fold(0u128, |acc, &v| gcd(acc, v.unsigned_abs()))
            .max(1) as i128;
        let coeffs: Vec<(Place, i64)> = ints
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(p, &v)| (p, i64::try_from(v / g).expect("coefficient fits i64")))
            .collect();
        if coeffs.len() > max_support || coeffs.iter().any(|&(_, a)| a.abs() > max_coeff) {
            continue;
        }
        let value = coeffs
            .iter()
            .filter(|(p, _)| initial.contains(p))
            .map(|&(_, a)| a)
            .sum();
        out.push(LinearInvariant { coeffs, value });
    }
    out
}
