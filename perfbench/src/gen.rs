//! The benchmark's own load generator: a stationary, seeded edge churn.
//!
//! Every workload starts from an Erdős–Rényi graph and then mutates it
//! by deleting edges drawn **uniformly from the live edges** and
//! inserting the same number of **new** edges, so the edge count `m`
//! never drifts and every delete hits an edge that exists. The generator
//! tracks the live set itself: the program under test receives only the
//! generated operations, in the order they will commit.

use dyncon_primitives::{FxHashMap, FxHashSet, SplitMix64};

/// Normalised `(min, max)` form of an undirected edge.
pub fn norm((u, v): (u32, u32)) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// A list of undirected edges.
pub type Edges = Vec<(u32, u32)>;

/// A live edge set with uniform sampling, and the RNG that drives it.
pub struct EdgeChurn {
    n: u32,
    live: Vec<(u32, u32)>,
    slot: FxHashMap<(u32, u32), usize>,
    rng: SplitMix64,
}

impl EdgeChurn {
    /// An Erdős–Rényi `G(n, m)` preload; `seed` fixes the graph and
    /// every later draw.
    pub fn new(n: usize, m: usize, seed: u64) -> Self {
        let live = dyncon_graphgen::erdos_renyi(n, m, seed);
        assert_eq!(live.len(), m, "G(n, m) must have exactly m edges");
        let slot = live.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Self {
            n: n as u32,
            live,
            slot,
            rng: SplitMix64::new(seed ^ 0x6c6f_6164_6765_6e21),
        }
    }

    /// The live edges, normalised, in no particular order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.live
    }

    /// The number of live edges.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// The generator's RNG, for draws that do not touch the edge set.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// One churn step: `k` distinct live edges to delete and `k` new
    /// edges to insert (none live before the step, none among the step's
    /// deletes). The live set afterwards has the same size.
    pub fn step(&mut self, k: usize) -> (Edges, Edges) {
        let deletes: Vec<(u32, u32)> = (0..k).map(|_| self.remove_random()).collect();
        let gone: FxHashSet<(u32, u32)> = deletes.iter().copied().collect();
        let mut inserts = Vec::with_capacity(k);
        while inserts.len() < k {
            let u = self.rng.next_below(self.n as u64) as u32;
            let v = self.rng.next_below(self.n as u64) as u32;
            let e = norm((u, v));
            if u != v && !gone.contains(&e) && !self.slot.contains_key(&e) {
                self.slot.insert(e, self.live.len());
                self.live.push(e);
                inserts.push(e);
            }
        }
        (deletes, inserts)
    }

    /// `k` uniform vertex pairs (self-pairs allowed).
    pub fn pairs(&mut self, k: usize) -> Vec<(u32, u32)> {
        let n = self.n as u64;
        (0..k)
            .map(|_| (self.rng.next_below(n) as u32, self.rng.next_below(n) as u32))
            .collect()
    }

    fn remove_random(&mut self) -> (u32, u32) {
        let i = self.rng.next_below(self.live.len() as u64) as usize;
        let e = self.live.swap_remove(i);
        self.slot.remove(&e);
        if let Some(&moved) = self.live.get(i) {
            self.slot.insert(moved, i);
        }
        e
    }
}

/// Open-loop arrival offsets for `count` requests at `rate` per second:
/// a Poisson process conditioned on its count, i.e. `count` uniform
/// instants in `[0, count / rate)` in ascending order. Conditioning on the
/// count fixes the offered rate exactly, so the rate a run offers does not
/// vary with the seed.
pub fn arrivals(rng: &mut SplitMix64, count: usize, rate: f64) -> Vec<f64> {
    let span = count as f64 / rate;
    let mut at: Vec<f64> = (0..count).map(|_| rng.next_f64() * span).collect();
    at.sort_by(f64::total_cmp);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let (mut a, mut b) = (EdgeChurn::new(512, 1024, 7), EdgeChurn::new(512, 1024, 7));
        for _ in 0..20 {
            assert_eq!(a.step(64), b.step(64));
            assert_eq!(a.pairs(16), b.pairs(16));
        }
        assert_eq!(a.edges(), b.edges());
        assert_ne!(EdgeChurn::new(512, 1024, 8).edges(), a.edges());
    }

    #[test]
    fn churn_keeps_m_and_deletes_only_live_edges() {
        let mut churn = EdgeChurn::new(256, 600, 3);
        let mut model: FxHashSet<(u32, u32)> = churn.edges().iter().copied().collect();
        for _ in 0..200 {
            let (deletes, inserts) = churn.step(50);
            for e in &deletes {
                assert!(model.remove(e), "deleted an edge that was not live");
            }
            for e in &inserts {
                assert!(e.0 < e.1, "inserts are normalised loop-free edges");
                assert!(model.insert(*e), "inserted an edge that was already live");
            }
            assert_eq!(churn.len(), 600);
            assert_eq!(model.len(), 600);
        }
        let mut live = churn.edges().to_vec();
        live.sort_unstable();
        let mut expect: Vec<_> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(live, expect);
    }

    #[test]
    fn arrivals_are_sorted_and_exact_in_count() {
        let mut rng = SplitMix64::new(1);
        let at = arrivals(&mut rng, 1000, 50.0);
        assert_eq!(at.len(), 1000);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at[0] >= 0.0 && *at.last().unwrap() < 20.0);
    }
}
