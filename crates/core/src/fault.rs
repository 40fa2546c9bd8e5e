//! Fault models: node faults, edge faults, and fault-set enumeration.
//!
//! The paper considers node faults only, and notes that "edge faults can be
//! tolerated by viewing a node that is incident to the faulty edge as being
//! faulty"; [`FaultSet::from_edge_faults`] implements exactly that reduction.
//! Section V extends the idea to bus faults (a faulty bus is charged to the
//! node that owns it), which [`crate::bus`] builds on. Directed-link faults —
//! where individual CSR edge slots die rather than whole nodes — live in
//! [`crate::linkfault`] and project back onto this node model via
//! [`crate::linkfault::LinkFaultSet::project_to_nodes`].

use ftdb_graph::{BitSet, Graph, NodeId};

/// Errors reported by the fault-set generators instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// Asked to fault more elements than the sampling universe holds.
    CountExceedsUniverse {
        /// Requested number of faulty elements.
        count: usize,
        /// Size of the universe being sampled from.
        universe: usize,
    },
    /// A link fault named a directed edge the graph does not have.
    MissingLink {
        /// Source endpoint of the missing directed link.
        from: NodeId,
        /// Target endpoint of the missing directed link.
        to: NodeId,
    },
    /// A node id lies outside the host graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        universe: usize,
    },
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            FaultError::CountExceedsUniverse { count, universe } => {
                write!(f, "cannot fault {count} of {universe} elements")
            }
            FaultError::MissingLink { from, to } => {
                write!(f, "directed link {from} -> {to} does not exist")
            }
            FaultError::NodeOutOfRange { node, universe } => {
                write!(f, "node {node} out of range for {universe}-node graph")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A set of faulty nodes of a fault-tolerant graph with a fixed node count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSet {
    nodes: BitSet,
}

impl FaultSet {
    /// An empty fault set for a graph with `universe` nodes.
    pub fn empty(universe: usize) -> Self {
        FaultSet {
            nodes: BitSet::new(universe),
        }
    }

    /// A fault set containing the given faulty nodes.
    ///
    /// # Panics
    /// Panics if a node id is `>= universe`.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(universe: usize, nodes: I) -> Self {
        FaultSet {
            nodes: BitSet::from_iter(universe, nodes),
        }
    }

    /// Converts a set of edge faults into the node-fault set the paper
    /// prescribes: for every faulty edge, its lower-numbered endpoint is
    /// declared faulty. (Any fixed rule that marks one endpoint works; using
    /// the lower endpoint keeps the reduction deterministic.)
    pub fn from_edge_faults<I: IntoIterator<Item = (NodeId, NodeId)>>(
        universe: usize,
        edges: I,
    ) -> Self {
        FaultSet::from_nodes(universe, edges.into_iter().map(|(u, v)| u.min(v)))
    }

    /// Draws a uniformly random fault set of exactly `count` distinct nodes.
    ///
    /// Uses Floyd's sampling algorithm: `count` draws and one bit set,
    /// instead of materialising and shuffling all `universe` ids — the
    /// difference between O(count) and O(universe) work per Monte-Carlo
    /// trial on million-node graphs. Returns
    /// [`FaultError::CountExceedsUniverse`] when `count > universe`.
    pub fn random<R: rand::RngExt>(
        universe: usize,
        count: usize,
        rng: &mut R,
    ) -> Result<Self, FaultError> {
        if count > universe {
            return Err(FaultError::CountExceedsUniverse { count, universe });
        }
        // Floyd's algorithm: for j in n-count..n draw t uniform on [0, j];
        // take t unless already taken, in which case take j. Each j is the
        // largest id that can newly enter, which makes every count-subset
        // equally likely (the classic induction on j).
        let mut nodes = BitSet::new(universe);
        for j in universe - count..universe {
            let t = rng.random_range(0..j + 1);
            if !nodes.insert(t) {
                nodes.insert(j);
            }
        }
        Ok(FaultSet { nodes })
    }

    /// Marks `node` as faulty. Returns `true` if it was previously healthy.
    pub fn add(&mut self, node: NodeId) -> bool {
        self.nodes.insert(node)
    }

    /// Returns whether `node` is faulty.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(node)
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.nodes.count()
    }

    /// `true` if no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The size of the universe (total node count of the host graph).
    pub fn universe(&self) -> usize {
        self.nodes.capacity()
    }

    /// Iterates over the faulty nodes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter()
    }

    /// The healthy (non-faulty) nodes in increasing order, without
    /// materialising a vector. This is the hot-path accessor: the
    /// reconfiguration map and the verifier consume the healthy sequence
    /// directly from the bit words.
    pub fn healthy_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter_complement()
    }

    /// Number of healthy nodes (`universe − len`).
    pub fn healthy_count(&self) -> usize {
        self.universe() - self.len()
    }

    /// The healthy (non-faulty) nodes in increasing order, as a vector.
    /// Prefer [`FaultSet::healthy_iter`] in loops — it does not allocate.
    pub fn healthy(&self) -> Vec<NodeId> {
        self.healthy_iter().collect()
    }

    /// The underlying bit set of faulty nodes.
    pub fn as_bitset(&self) -> &BitSet {
        &self.nodes
    }
}

/// Iterator over *all* fault sets of exactly `k` nodes out of `n`, in
/// lexicographic order. Used by the exhaustive `(k, G)`-tolerance verifier.
///
/// The number of combinations is `C(n, k)`; callers are expected to keep the
/// parameters small enough (the experiments use it up to a few hundred
/// thousand combinations, split across threads).
#[derive(Clone, Debug)]
pub struct Combinations {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl Combinations {
    /// Creates the enumeration of all `k`-subsets of `0..n`.
    pub fn new(n: usize, k: usize) -> Self {
        let current = if k <= n { Some((0..k).collect()) } else { None };
        Combinations { n, k, current }
    }

    /// The total number of combinations `C(n, k)` (saturating at `u128::MAX`).
    pub fn total(n: usize, k: usize) -> u128 {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut result: u128 = 1;
        for i in 0..k {
            result = result.saturating_mul((n - i) as u128) / (i as u128 + 1);
        }
        result
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.current.as_mut()?;
        let result = current.clone();
        // Advance to the next combination in lexicographic order.
        if self.k == 0 {
            self.current = None;
            return Some(result);
        }
        let mut i = self.k;
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if current[i] != i + self.n - self.k {
                current[i] += 1;
                for j in i + 1..self.k {
                    current[j] = current[j - 1] + 1;
                }
                break;
            }
        }
        Some(result)
    }
}

/// In-place revolving-door enumeration of all `k`-subsets of `0..n`
/// (Knuth, TAOCP 7.2.1.3, Algorithm R).
///
/// Unlike [`Combinations`], which clones a fresh `Vec` per combination, this
/// enumerator mutates one internal buffer and lends it out as a sorted
/// slice — zero allocation per step, which is what the exhaustive verifier's
/// hot loop needs. Consecutive combinations differ by exactly one element
/// (the "revolving door"), and the buffer always stays sorted ascending.
#[derive(Clone, Debug)]
pub struct RevolvingDoor {
    n: usize,
    k: usize,
    /// 1-based: `c[1..=k]` is the combination, `c[k+1] = n` is the sentinel.
    c: Vec<usize>,
    started: bool,
    done: bool,
}

impl RevolvingDoor {
    /// Creates the enumeration of all `k`-subsets of `0..n`.
    pub fn new(n: usize, k: usize) -> Self {
        // `c[k+1] = n` is the algorithm's sentinel; `c[k+2] = n` pads the
        // one-past-sentinel read step R5 performs just before terminating.
        let mut c = vec![0; k + 3];
        for (j, slot) in c.iter_mut().enumerate().take(k + 1).skip(1) {
            *slot = j - 1;
        }
        c[k + 1] = n;
        c[k + 2] = n;
        RevolvingDoor {
            n,
            k,
            c,
            started: false,
            done: k > n,
        }
    }

    /// Advances to the next combination and lends it as a sorted slice, or
    /// returns `None` when the enumeration is exhausted.
    pub fn next_set(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.c[1..=self.k]);
        }
        if self.k == 0 || self.k == self.n {
            self.done = true;
            return None;
        }
        let c = &mut self.c;
        // R3 [Easy case?]
        let mut j;
        if self.k % 2 == 1 {
            // analyzer: allow(transitive-panic) -- c holds k + 2 sentinel slots, k >= 1 on this branch (Knuth 7.2.1.3 T)
            if c[1] + 1 < c[2] {
                // analyzer: allow(transitive-panic) -- in bounds: c holds k + 2 sentinel slots (Knuth 7.2.1.3 T)
                c[1] += 1;
                return Some(&c[1..=self.k]);
            }
            j = 2;
        } else {
            // analyzer: allow(transitive-panic) -- c holds k + 2 sentinel slots, k >= 1 on this branch (Knuth 7.2.1.3 T)
            if c[1] > 0 {
                // analyzer: allow(transitive-panic) -- in bounds: c holds k + 2 sentinel slots (Knuth 7.2.1.3 T)
                c[1] -= 1;
                return Some(&c[1..=self.k]);
            }
            j = 2;
            // Skip straight to R5 for even k.
            loop {
                // R5 [Try to increase c_j.] — here c_{j-1} = j - 2.
                if c[j] + 1 < c[j + 1] {
                    c[j - 1] = c[j];
                    c[j] += 1;
                    return Some(&c[1..=self.k]);
                }
                j += 1;
                if j > self.k {
                    self.done = true;
                    return None;
                }
                // R4 [Try to decrease c_j.] — here c_j = c_{j-1} + 1.
                if c[j] >= j {
                    c[j] = c[j - 1];
                    c[j - 1] = j - 2;
                    return Some(&c[1..=self.k]);
                }
                j += 1;
            }
        }
        loop {
            // R4 [Try to decrease c_j.] — here c_j = c_{j-1} + 1. For k = 1
            // the easy case has already exhausted the enumeration and j
            // points past the combination, so terminate instead.
            if j > self.k {
                self.done = true;
                return None;
            }
            if c[j] >= j {
                c[j] = c[j - 1];
                c[j - 1] = j - 2;
                return Some(&c[1..=self.k]);
            }
            j += 1;
            // R5 [Try to increase c_j.]
            if c[j] + 1 < c[j + 1] {
                c[j - 1] = c[j];
                c[j] += 1;
                return Some(&c[1..=self.k]);
            }
            j += 1;
            if j > self.k {
                self.done = true;
                return None;
            }
        }
    }

    /// The total number of combinations this enumeration will produce.
    pub fn total(&self) -> u128 {
        Combinations::total(self.n, self.k)
    }

    /// Starts the enumeration at 0-based position `rank` of the
    /// revolving-door order: the first [`RevolvingDoor::next_set`] lends
    /// the `rank`-th combination, and later calls continue exactly as an
    /// enumerator advanced `rank` times would. A `rank` at or past
    /// [`RevolvingDoor::total`] gives an exhausted enumerator.
    ///
    /// Algorithm R visits the combinations with top element `c` as one
    /// contiguous block of ranks `[C(c, k), C(c + 1, k))`, walking the
    /// `(k−1)`-subsets of `0..c` in *reverse* revolving-door order inside
    /// it; unranking peels one element per level. `O(n·k²)`.
    pub fn from_rank(n: usize, k: usize, rank: u128) -> Self {
        let mut door = RevolvingDoor::new(n, k);
        if rank >= door.total() {
            door.done = true;
            return door;
        }
        let mut r = rank;
        for t in (1..=k).rev() {
            // The largest `c` with `C(c, t) ≤ r`; `C(t−1, t) = 0`.
            let mut c = t - 1;
            while Combinations::total(c + 1, t) <= r {
                c += 1;
            }
            door.c[t] = c;
            r = Combinations::total(c + 1, t) - 1 - r;
        }
        door
    }
}

/// Samples `samples` random fault sets of size `k` (with replacement across
/// samples) for a graph `g`, returning them as [`FaultSet`]s. Fails with
/// [`FaultError::CountExceedsUniverse`] when `k` exceeds the node count.
pub fn sample_fault_sets<R: rand::RngExt>(
    g: &Graph,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> Result<Vec<FaultSet>, FaultError> {
    (0..samples)
        .map(|_| FaultSet::random(g.node_count(), k, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::generators;

    #[test]
    fn basic_fault_set_operations() {
        let mut f = FaultSet::empty(10);
        assert!(f.is_empty());
        assert!(f.add(3));
        assert!(!f.add(3));
        f.add(7);
        assert_eq!(f.len(), 2);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(f.healthy().len(), 8);
        assert_eq!(f.universe(), 10);
    }

    #[test]
    fn edge_fault_reduction_marks_one_endpoint() {
        let f = FaultSet::from_edge_faults(8, [(5, 2), (6, 7)]);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![2, 6]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn random_fault_set_has_exact_size() {
        let mut rng = rand::rng();
        for _ in 0..20 {
            let f = FaultSet::random(20, 5, &mut rng).unwrap();
            assert_eq!(f.len(), 5);
            assert!(f.iter().all(|v| v < 20));
        }
        // Boundary cases: empty draw, full draw.
        assert_eq!(FaultSet::random(9, 0, &mut rng).unwrap().len(), 0);
        assert_eq!(FaultSet::random(9, 9, &mut rng).unwrap().len(), 9);
    }

    #[test]
    fn random_rejects_count_above_universe() {
        let mut rng = rand::rng();
        assert_eq!(
            FaultSet::random(4, 5, &mut rng),
            Err(FaultError::CountExceedsUniverse {
                count: 5,
                universe: 4
            })
        );
        let g = generators::cycle(6);
        assert!(sample_fault_sets(&g, 7, 2, &mut rng).is_err());
        // Errors render a human-readable message.
        let msg = format!(
            "{}",
            FaultError::CountExceedsUniverse {
                count: 5,
                universe: 4
            }
        );
        assert!(msg.contains("5") && msg.contains("4"));
    }

    /// The previous `FaultSet::random` implementation, kept as the reference
    /// distribution for the equivalence test below: materialise every id,
    /// shuffle, take a prefix.
    fn random_by_full_shuffle<R: rand::Rng>(
        universe: usize,
        count: usize,
        rng: &mut R,
    ) -> FaultSet {
        use rand::seq::SliceRandom;
        let mut all: Vec<NodeId> = (0..universe).collect();
        all.shuffle(rng);
        FaultSet::from_nodes(universe, all.into_iter().take(count))
    }

    #[test]
    fn floyd_sampling_matches_shuffle_distribution() {
        use rand::{rngs::StdRng, SeedableRng};
        // Both samplers claim uniformity over all C(6, 3) = 20 subsets. Draw
        // 4000 sets with each and check every subset lands in a wide band
        // around the expected 200 hits (±7 sd) for both — a distribution
        // mismatch (e.g. a biased Floyd insert) lands far outside the band.
        let (n, k, draws) = (6usize, 3usize, 4000usize);
        let total = Combinations::total(n, k) as usize;
        let key = |f: &FaultSet| f.iter().fold(0usize, |acc, v| acc | (1 << v));
        let mut floyd = vec![0usize; 1 << n];
        let mut shuffle = vec![0usize; 1 << n];
        let mut rng = StdRng::seed_from_u64(0x1992_1c44);
        for _ in 0..draws {
            floyd[key(&FaultSet::random(n, k, &mut rng).unwrap())] += 1;
            shuffle[key(&random_by_full_shuffle(n, k, &mut rng))] += 1;
        }
        let expected = draws / total; // 200
        let band = 100..=2 * expected; // ±~7 sd around the mean
        let mut subsets = 0;
        for mask in 0..1usize << n {
            if (mask as u32).count_ones() as usize != k {
                assert_eq!(floyd[mask], 0, "off-size subset drawn: {mask:#b}");
                assert_eq!(shuffle[mask], 0);
                continue;
            }
            subsets += 1;
            assert!(
                band.contains(&floyd[mask]),
                "floyd biased on subset {mask:#b}: {}",
                floyd[mask]
            );
            assert!(
                band.contains(&shuffle[mask]),
                "shuffle reference off on subset {mask:#b}: {}",
                shuffle[mask]
            );
        }
        assert_eq!(subsets, total);
    }

    #[test]
    fn combinations_enumerate_all_subsets() {
        let combos: Vec<Vec<usize>> = Combinations::new(5, 2).collect();
        assert_eq!(combos.len(), 10);
        assert_eq!(combos[0], vec![0, 1]);
        assert_eq!(combos[9], vec![3, 4]);
        // All distinct.
        let set: std::collections::BTreeSet<_> = combos.iter().cloned().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn combinations_edge_cases() {
        assert_eq!(
            Combinations::new(4, 0).collect::<Vec<_>>(),
            vec![Vec::<usize>::new()]
        );
        assert_eq!(Combinations::new(3, 4).count(), 0);
        assert_eq!(
            Combinations::new(3, 3).collect::<Vec<_>>(),
            vec![vec![0, 1, 2]]
        );
        assert_eq!(Combinations::total(5, 2), 10);
        assert_eq!(Combinations::total(17, 3), 680);
        assert_eq!(Combinations::total(3, 5), 0);
        assert_eq!(Combinations::total(10, 0), 1);
    }

    #[test]
    fn combination_count_matches_formula() {
        for (n, k) in [(6, 3), (8, 2), (9, 4), (7, 7)] {
            let count = Combinations::new(n, k).count() as u128;
            assert_eq!(count, Combinations::total(n, k), "n={n}, k={k}");
        }
    }

    #[test]
    fn healthy_iter_matches_healthy_vec() {
        let f = FaultSet::from_nodes(130, [0, 64, 65, 129]);
        assert_eq!(f.healthy_iter().collect::<Vec<_>>(), f.healthy());
        assert_eq!(f.healthy_count(), 126);
        assert_eq!(f.healthy().len(), 126);
        let none = FaultSet::empty(70);
        assert_eq!(none.healthy_iter().count(), 70);
        assert_eq!(none.healthy_iter().last(), Some(69));
    }

    #[test]
    fn revolving_door_enumerates_every_subset_once() {
        for n in 0..=8usize {
            for k in 0..=n + 1 {
                let mut rd = RevolvingDoor::new(n, k);
                let mut seen = std::collections::BTreeSet::new();
                let mut count = 0u128;
                let mut prev: Option<Vec<usize>> = None;
                while let Some(combo) = rd.next_set() {
                    // Sorted ascending, all in range.
                    assert!(
                        combo.windows(2).all(|w| w[0] < w[1]),
                        "n={n} k={k} {combo:?}"
                    );
                    assert!(combo.iter().all(|&v| v < n));
                    // Revolving door: consecutive sets differ in one element.
                    if let Some(p) = &prev {
                        let inter = combo.iter().filter(|v| p.contains(v)).count();
                        assert_eq!(
                            inter + 1,
                            k,
                            "not a revolving-door step: {p:?} -> {combo:?}"
                        );
                    }
                    prev = Some(combo.to_vec());
                    seen.insert(combo.to_vec());
                    count += 1;
                }
                assert_eq!(count, Combinations::total(n, k), "n={n} k={k}");
                assert_eq!(
                    seen.len() as u128,
                    count,
                    "duplicate subset for n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn revolving_door_from_rank_resumes_the_full_enumeration() {
        for (n, k) in [
            (1usize, 1usize),
            (5, 0),
            (6, 6),
            (7, 1),
            (7, 3),
            (8, 4),
            (9, 2),
            (10, 5),
        ] {
            let mut full = Vec::new();
            let mut rd = RevolvingDoor::new(n, k);
            while let Some(c) = rd.next_set() {
                full.push(c.to_vec());
            }
            for rank in 0..=full.len() + 1 {
                let mut tail = Vec::new();
                let mut rd = RevolvingDoor::from_rank(n, k, rank as u128);
                while let Some(c) = rd.next_set() {
                    tail.push(c.to_vec());
                }
                let expected = full.get(rank..).unwrap_or(&[]);
                assert_eq!(tail, expected, "n={n} k={k} rank={rank}");
            }
        }
    }

    #[test]
    fn revolving_door_agrees_with_lexicographic_combinations() {
        for (n, k) in [(6usize, 3usize), (9, 2), (7, 5), (5, 0), (4, 4)] {
            let lex: std::collections::BTreeSet<Vec<usize>> = Combinations::new(n, k).collect();
            let mut rd = RevolvingDoor::new(n, k);
            let mut gray = std::collections::BTreeSet::new();
            while let Some(c) = rd.next_set() {
                gray.insert(c.to_vec());
            }
            assert_eq!(lex, gray, "n={n} k={k}");
        }
    }

    #[test]
    fn sampling_produces_requested_number() {
        let g = generators::cycle(12);
        let mut rng = rand::rng();
        let sets = sample_fault_sets(&g, 3, 7, &mut rng).unwrap();
        assert_eq!(sets.len(), 7);
        assert!(sets.iter().all(|f| f.len() == 3 && f.universe() == 12));
    }
}
