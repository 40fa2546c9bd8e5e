//! `(k, G)`-tolerance verification.
//!
//! The paper proves Theorems 1 and 2 analytically; this module verifies them
//! *mechanically* on concrete instances, in two modes:
//!
//! * **Exhaustive** — enumerate every fault set of size `k` (`C(n, k)` of
//!   them on an `n`-node host) and check that the rank-based
//!   reconfiguration is a valid embedding for each. The revolving-door
//!   enumeration order ([`crate::fault::RevolvingDoor`]) is cut into one
//!   contiguous range of indices per worker thread (`crossbeam::scope`);
//!   each worker unranks its first set and walks its own range.
//! * **Sampled** — draw random fault sets, for instances where exhaustive
//!   enumeration is intractable.
//!
//! Both modes run one *displacement kernel*. The rank map is
//! `φ(x) = x + δ(x)` with `δ(x) = #{j : f_j − j ≤ x}` for the sorted fault
//! set `f_0 < … < f_{k−1}` (Lemma 1: `δ` is monotone and `0 ≤ δ ≤ k`), so a
//! fault set touches the target edge `(a, b)` only through `δ(a)` and
//! `δ(b)`. The kernel keeps `δ`, the offsets `g_j = f_j − j`, and `bad`,
//! the number of target edges whose image `(φ(a), φ(b))` the host lacks; a
//! fault set passes iff `bad == 0`. Consecutive revolving-door sets differ
//! in one element, which moves a few `g_j`. Only target nodes between an
//! old and a new `g_j` can change `δ`, and for each that does the kernel
//! re-tests just its incident target edges. On `B^3(2,8)` 98.9% of steps
//! change `δ` at a single node, so a step costs about 8 adjacency lookups
//! where a from-scratch check costs about 770. Lookups hit a dense host
//! adjacency bit-matrix (O(1)) for hosts of up to 4096 nodes, far beyond
//! what exhaustive enumeration reaches. Scratch is allocated once per
//! worker, and failures are collected per worker, tagged with their global
//! enumeration index and merged after the join: the hot loop takes no
//! lock, and the report is identical for any thread count.
//!
//! [`check_fault_set`] — [`reconfigure`] followed by `Embedding::verify` —
//! is the independent reference the kernel is tested against.
//!
//! The same machinery accepts an *arbitrary* candidate host graph, which is
//! how the experiments show that a plain de Bruijn graph with a spare node
//! bolted on is **not** `(k, G)`-tolerant — i.e. that the widened edge
//! blocks of the paper's construction are actually needed.

use crate::fault::{Combinations, FaultSet, RevolvingDoor};
use crate::reconfig::reconfigure;
use ftdb_graph::Graph;
use rand::SeedableRng;
use std::ops::Range;

/// Outcome of a tolerance verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToleranceReport {
    /// Number of fault sets checked.
    pub checked: u64,
    /// Fault sets for which the rank-based reconfiguration failed
    /// (capped at [`ToleranceReport::MAX_RECORDED`] examples).
    pub failures: Vec<Vec<usize>>,
    /// Total number of failing fault sets (even beyond the recorded cap).
    pub failure_count: u64,
}

impl ToleranceReport {
    /// Maximum number of failing fault sets recorded verbatim.
    pub const MAX_RECORDED: usize = 16;

    /// `true` if every checked fault set admitted a valid reconfiguration.
    pub fn is_tolerant(&self) -> bool {
        self.failure_count == 0
    }
}

/// Checks a single fault set: does the rank-based reconfiguration of
/// `target` into `host` avoid the faults and preserve every edge?
pub fn check_fault_set(target: &Graph, host: &Graph, faults: &FaultSet) -> bool {
    if host.node_count() < target.node_count() + faults.len() {
        return false;
    }
    let phi = reconfigure(target.node_count(), faults);
    phi.verify(target, host).is_ok()
}

/// Node-count limit under which the verifier builds a dense adjacency
/// bit-matrix of the host (`n²` bits — 2 MiB at the limit). Exhaustive
/// enumeration is only tractable well below this size anyway.
const ADJACENCY_MATRIX_LIMIT: usize = 4096;

/// Dense adjacency bit-matrix for O(1) `has_edge` in the verification
/// kernel.
struct AdjacencyMatrix {
    words: Vec<u64>,
    stride: usize,
}

impl AdjacencyMatrix {
    fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let stride = n.div_ceil(64);
        let mut words = vec![0u64; n * stride];
        for u in g.nodes() {
            let row = u * stride;
            for &v in g.neighbors(u) {
                words[row + v as usize / 64] |= 1u64 << (v as usize % 64);
            }
        }
        AdjacencyMatrix { words, stride }
    }

    // analyzer: alloc-free
    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.words[u * self.stride + v / 64] >> (v % 64) & 1 == 1
    }
}

/// What every worker of one verification call shares read-only: the target
/// edges, each target node's incident edges, and the host adjacency.
struct Instance<'a> {
    host: &'a Graph,
    matrix: Option<AdjacencyMatrix>,
    /// Target edges `(a, b)`, indexed by edge id.
    edges: Vec<(u32, u32)>,
    /// CSR: `incident[offsets[x]..offsets[x + 1]]` holds the ids of the
    /// target edges at target node `x` (`offsets.len() = N + 1`).
    offsets: Vec<u32>,
    incident: Vec<u32>,
}

impl<'a> Instance<'a> {
    fn new(target: &Graph, host: &'a Graph) -> Self {
        let nodes = target.node_count();
        let edges: Vec<(u32, u32)> = target.edges().map(|(a, b)| (a as u32, b as u32)).collect();
        // `Graph::edges` yields `a < b`: every edge sits at two distinct
        // nodes, so it is listed exactly once under each.
        let mut offsets = vec![0u32; nodes + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for x in 0..nodes {
            offsets[x + 1] += offsets[x];
        }
        let mut fill = offsets.clone();
        let mut incident = vec![0u32; offsets[nodes] as usize];
        for (e, &(a, b)) in edges.iter().enumerate() {
            for x in [a, b] {
                incident[fill[x as usize] as usize] = e as u32;
                fill[x as usize] += 1;
            }
        }
        Instance {
            host,
            matrix: (host.node_count() <= ADJACENCY_MATRIX_LIMIT)
                .then(|| AdjacencyMatrix::build(host)),
            edges,
            offsets,
            incident,
        }
    }
}

/// The incremental displacement kernel (see the module docs): per-worker
/// state for the fault set it last saw.
struct DisplacementKernel<'a> {
    inst: &'a Instance<'a>,
    /// `false` when the host has fewer than `N + k` nodes, so that no
    /// `k`-fault set leaves room for the target: every set fails.
    fits: bool,
    /// `delta[x] = δ(x)` for every target node.
    delta: Vec<u32>,
    /// `g[j] = f_j − j` for the current sorted fault set.
    g: Vec<usize>,
    /// Scratch for the next set's offsets; swapped with `g` after a step.
    g_next: Vec<usize>,
    /// Target edges whose image the host lacks under the current `δ`.
    bad: usize,
}

impl<'a> DisplacementKernel<'a> {
    fn new(inst: &'a Instance<'a>, k: usize) -> Self {
        let nodes = inst.offsets.len() - 1;
        DisplacementKernel {
            inst,
            fits: inst.host.node_count() >= nodes + k,
            delta: vec![0; nodes],
            g: vec![0; k],
            g_next: vec![0; k],
            bad: 0,
        }
    }

    /// Checks the sorted `k`-fault set `faults` from scratch, rebuilding
    /// `δ` and `bad`; later [`DisplacementKernel::step`]s continue from it.
    // analyzer: alloc-free
    fn reset(&mut self, faults: &[usize]) -> bool {
        if !self.fits {
            return false;
        }
        for (j, (g, &f)) in self.g.iter_mut().zip(faults).enumerate() {
            *g = f - j;
        }
        let mut j = 0;
        for (x, d) in self.delta.iter_mut().enumerate() {
            while j < self.g.len() && self.g[j] <= x {
                j += 1;
            }
            *d = j as u32;
        }
        self.bad = 0;
        for e in 0..self.inst.edges.len() {
            self.bad += usize::from(self.edge_bad(e));
        }
        self.bad == 0
    }

    /// Checks the sorted `k`-fault set `faults` incrementally from the
    /// previous one: equivalent to [`DisplacementKernel::reset`], but only
    /// target nodes whose `δ` moved are touched.
    // analyzer: alloc-free
    fn step(&mut self, faults: &[usize]) -> bool {
        if !self.fits {
            return false;
        }
        for (j, (g, &f)) in self.g_next.iter_mut().zip(faults).enumerate() {
            *g = f - j;
        }
        let nodes = self.delta.len();
        for j in 0..self.g.len() {
            let (old, new) = (self.g[j], self.g_next[j]);
            // δ(x) counts the offsets `≤ x`, so moving `g_j` between `old`
            // and `new` can only change δ on `[min, max)`.
            for x in old.min(new)..old.max(new).min(nodes) {
                let d = self.g_next.partition_point(|&g| g <= x) as u32;
                if d != self.delta[x] {
                    self.set_delta(x, d);
                }
            }
        }
        std::mem::swap(&mut self.g, &mut self.g_next);
        self.bad == 0
    }

    /// Sets `δ(x) = d`, re-counting the target edges at `x` in `bad`.
    // analyzer: alloc-free
    fn set_delta(&mut self, x: usize, d: u32) {
        let inst = self.inst;
        let at_x = &inst.incident[inst.offsets[x] as usize..inst.offsets[x + 1] as usize];
        for &e in at_x {
            self.bad -= usize::from(self.edge_bad(e as usize));
        }
        self.delta[x] = d;
        for &e in at_x {
            self.bad += usize::from(self.edge_bad(e as usize));
        }
    }

    /// Whether the host lacks the image `(φ(a), φ(b))` of target edge `e`.
    // analyzer: alloc-free
    #[inline]
    fn edge_bad(&self, e: usize) -> bool {
        let (a, b) = self.inst.edges[e];
        let u = a as usize + self.delta[a as usize] as usize;
        let v = b as usize + self.delta[b as usize] as usize;
        match &self.inst.matrix {
            Some(m) => !m.has_edge(u, v),
            None => !self.inst.host.has_edge(u, v),
        }
    }
}

/// One worker's (or one sampled run's) verdicts before the merge.
#[derive(Default)]
struct Tally {
    checked: u64,
    failure_count: u64,
    /// The first [`ToleranceReport::MAX_RECORDED`] failing sets, tagged with
    /// their global index.
    failures: Vec<(u64, Vec<usize>)>,
}

impl Tally {
    fn record(&mut self, index: u64, faults: &[usize], ok: bool) {
        self.checked += 1;
        if !ok {
            self.failure_count += 1;
            if self.failures.len() < ToleranceReport::MAX_RECORDED {
                self.failures.push((index, faults.to_vec()));
            }
        }
    }

    /// Merges tallies into a report that keeps the first
    /// [`ToleranceReport::MAX_RECORDED`] failures by global index —
    /// deterministic regardless of how the indices were split — sorted for
    /// stable presentation.
    fn into_report(tallies: impl IntoIterator<Item = Tally>) -> ToleranceReport {
        let mut checked = 0u64;
        let mut failure_count = 0u64;
        let mut tagged: Vec<(u64, Vec<usize>)> = Vec::new();
        for t in tallies {
            checked += t.checked;
            failure_count += t.failure_count;
            tagged.extend(t.failures);
        }
        tagged.sort();
        tagged.truncate(ToleranceReport::MAX_RECORDED);
        let mut failures: Vec<Vec<usize>> = tagged.into_iter().map(|(_, f)| f).collect();
        failures.sort();
        ToleranceReport {
            checked,
            failures,
            failure_count,
        }
    }
}

/// Checks the fault sets at revolving-door indices `range`: unranks the
/// first, checks it from scratch, then steps the kernel through the rest.
fn check_range(inst: &Instance<'_>, k: usize, range: Range<u64>) -> Tally {
    let mut kernel = DisplacementKernel::new(inst, k);
    let mut door = RevolvingDoor::from_rank(inst.host.node_count(), k, u128::from(range.start));
    let mut tally = Tally::default();
    let first = range.start;
    for index in range {
        let Some(faults) = door.next_set() else {
            break;
        };
        let ok = if index == first {
            kernel.reset(faults)
        } else {
            kernel.step(faults)
        };
        tally.record(index, faults, ok);
    }
    tally
}

/// Exhaustively verifies that `host` is `(k, target)`-tolerant *under the
/// rank-based reconfiguration*, checking all `C(|host|, k)` fault sets.
///
/// `threads` controls the parallel fan-out: worker `w` of `t` checks the
/// contiguous index range `[w·C/t, (w+1)·C/t)` of the revolving-door order.
/// The report is identical for any thread count — the recorded failures are
/// the first [`ToleranceReport::MAX_RECORDED`] failing sets in enumeration
/// order, sorted.
pub fn verify_exhaustive(
    target: &Graph,
    host: &Graph,
    k: usize,
    threads: usize,
) -> ToleranceReport {
    let inst = Instance::new(target, host);
    let total = u64::try_from(Combinations::total(host.node_count(), k)).unwrap_or(u64::MAX);
    let workers = (threads.max(1) as u64).min(total.max(1));
    let bound = |w: u64| (u128::from(total) * u128::from(w) / u128::from(workers)) as u64;
    let mut tallies: Vec<Tally> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let inst = &inst;
                let range = bound(w)..bound(w + 1);
                scope.spawn(move |_| check_range(inst, k, range))
            })
            .collect();
        for handle in handles {
            // analyzer: allow(expect) -- a worker panic must propagate, not yield a truncated tolerance report
            tallies.push(handle.join().expect("verification worker panicked"));
        }
    })
    .expect("verification scope panicked"); // analyzer: allow(expect) -- crossbeam scope errors only reflect a worker panic that is already propagating
    Tally::into_report(tallies)
}

/// Verifies tolerance on `samples` random fault sets of size `k` drawn with
/// the given seed (deterministic for a fixed seed).
pub fn verify_sampled(
    target: &Graph,
    host: &Graph,
    k: usize,
    samples: u64,
    seed: u64,
) -> ToleranceReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = host.node_count();
    if k > n {
        // No fault set of size k exists; report an empty (vacuous) pass.
        return Tally::into_report([]);
    }
    let inst = Instance::new(target, host);
    let mut kernel = DisplacementKernel::new(&inst, k);
    let mut combo: Vec<usize> = Vec::with_capacity(k);
    let mut tally = Tally::default();
    for index in 0..samples {
        // `k <= n` was checked above, so the draw cannot fail; skip
        // defensively rather than panic to keep this path panic-free.
        let Ok(faults) = FaultSet::random(n, k, &mut rng) else {
            continue;
        };
        combo.clear();
        combo.extend(faults.iter());
        let ok = kernel.reset(&combo);
        tally.record(index, &combo, ok);
    }
    Tally::into_report([tally])
}

/// Exhaustively verifies tolerance for *all* fault-set sizes `0..=k`
/// (the definition quantifies over exactly `|V(G')| − N` missing nodes, but
/// tolerating every smaller fault count follows and is what a real system
/// needs). Returns one report per fault count.
pub fn verify_up_to(
    target: &Graph,
    host: &Graph,
    k: usize,
    threads: usize,
) -> Vec<ToleranceReport> {
    (0..=k)
        .map(|faults| verify_exhaustive(target, host, faults, threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_debruijn::FtDeBruijn2;
    use crate::ft_debruijn_m::FtDeBruijnM;
    use crate::ft_shuffle::{FtShuffleExchange, NaturalFtShuffleExchange};
    use ftdb_topology::{DeBruijn2, DeBruijnM};

    #[test]
    fn ft_graph_passes_exhaustive_check_k1() {
        let ft = FtDeBruijn2::new(3, 1);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 1, 2);
        assert_eq!(report.checked, 9); // C(9,1)
        assert!(report.is_tolerant(), "failures: {:?}", report.failures);
    }

    #[test]
    fn ft_graph_passes_exhaustive_check_k2() {
        let ft = FtDeBruijn2::new(3, 2);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 4);
        assert_eq!(report.checked, 45); // C(10,2)
        assert!(report.is_tolerant());
    }

    #[test]
    fn base_m_ft_graph_passes_exhaustive_check() {
        let ft = FtDeBruijnM::new(3, 3, 1);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), 1, 4);
        assert_eq!(report.checked, 28); // C(28,1)
        assert!(report.is_tolerant());
    }

    #[test]
    fn plain_debruijn_with_a_spare_is_not_tolerant() {
        // Take B_{2,3} and add one isolated spare node: the rank-based
        // reconfiguration must fail for some single fault, demonstrating that
        // the widened edge blocks of B^1_{2,3} are necessary.
        let target = DeBruijn2::new(3);
        let mut builder = ftdb_graph::GraphBuilder::new(9);
        builder.add_edges(target.graph().edges());
        let host = builder.build();
        let report = verify_exhaustive(target.graph(), &host, 1, 2);
        assert!(!report.is_tolerant());
        assert!(report.failure_count > 0);
        assert!(!report.failures.is_empty());
    }

    /// `graph` with `extra` isolated nodes appended.
    fn padded(graph: &Graph, extra: usize) -> Graph {
        let mut b = ftdb_graph::GraphBuilder::new(graph.node_count() + extra);
        b.add_edges(graph.edges());
        b.build()
    }

    /// `(target, host, k)` cases covering tolerant and non-tolerant hosts,
    /// a host with isolated extra nodes (`n > N + k`) and hosts too small
    /// for the target (`n < N + k`).
    fn differential_cases() -> Vec<(String, Graph, Graph, usize)> {
        let mut cases = Vec::new();
        for (h, k) in [(3, 1), (3, 2), (4, 3), (5, 2)] {
            let ft = FtDeBruijn2::new(h, k);
            cases.push((
                format!("B^{k}(2,{h})"),
                ft.target().graph().clone(),
                ft.graph().clone(),
                k,
            ));
        }
        for (m, h, k) in [(3, 2, 2), (2, 4, 2), (3, 3, 1)] {
            let ft = FtDeBruijnM::new(m, h, k);
            cases.push((
                format!("B^{k}({m},{h})"),
                ft.target().graph().clone(),
                ft.graph().clone(),
                k,
            ));
        }
        // The containment route: SE_4 relabelled into B(2,4) on B^2(2,4),
        // plus the raw SE_4 labelling on the same host (not tolerant).
        let se = FtShuffleExchange::new(4, 2).expect("SE_4 embeds in B(2,4)");
        let emb = se.se_to_debruijn().as_slice();
        let mut relabelled = ftdb_graph::GraphBuilder::new(se.target().node_count());
        relabelled.add_edges(se.target().graph().edges().map(|(a, b)| (emb[a], emb[b])));
        cases.push((
            "SE_4 via B^2(2,4)".into(),
            relabelled.build(),
            se.graph().clone(),
            2,
        ));
        cases.push((
            "raw SE_4 on B^2(2,4)".into(),
            se.target().graph().clone(),
            se.graph().clone(),
            2,
        ));
        let natural = NaturalFtShuffleExchange::new(4, 2);
        cases.push((
            "natural SE^2(4)".into(),
            natural.target().graph().clone(),
            natural.graph().clone(),
            2,
        ));
        for (h, k) in [(3, 1), (4, 2), (4, 3)] {
            let db = DeBruijn2::new(h);
            cases.push((
                format!("B(2,{h}) + {k} bare spares"),
                db.graph().clone(),
                padded(db.graph(), k),
                k,
            ));
        }
        let ft = FtDeBruijn2::new(3, 2);
        cases.push((
            "B^2(2,3) + 3 isolated nodes".into(),
            ft.target().graph().clone(),
            padded(ft.graph(), 3),
            2,
        ));
        cases.push((
            "B^2(2,3) with k = 3 (too small)".into(),
            ft.target().graph().clone(),
            ft.graph().clone(),
            3,
        ));
        cases.push((
            "B(2,3) hosting B(2,3) with k = 1 (too small)".into(),
            DeBruijn2::new(3).graph().clone(),
            DeBruijn2::new(3).graph().clone(),
            1,
        ));
        cases
    }

    #[test]
    fn kernel_agrees_with_check_fault_set() {
        // Stepping the incremental kernel along the whole revolving-door
        // stream, and checking each set from scratch, must both classify
        // every fault set exactly as the reference path does.
        let (mut passing, mut failing) = (0u64, 0u64);
        for (name, target, host, k) in differential_cases() {
            let inst = Instance::new(&target, &host);
            let mut stepped = DisplacementKernel::new(&inst, k);
            let mut scratch = DisplacementKernel::new(&inst, k);
            let mut rd = RevolvingDoor::new(host.node_count(), k);
            let mut first = true;
            while let Some(combo) = rd.next_set() {
                let faults = FaultSet::from_nodes(host.node_count(), combo.iter().copied());
                let reference = check_fault_set(&target, &host, &faults);
                let incremental = if first {
                    stepped.reset(combo)
                } else {
                    stepped.step(combo)
                };
                first = false;
                assert_eq!(
                    incremental, reference,
                    "{name}: step disagrees on {combo:?}"
                );
                assert_eq!(
                    scratch.reset(combo),
                    reference,
                    "{name}: reset disagrees on {combo:?}"
                );
                if reference {
                    passing += 1;
                } else {
                    failing += 1;
                }
            }
            assert!(!first, "{name}: empty enumeration");
        }
        assert!(
            passing > 0 && failing > 0,
            "{passing} passing, {failing} failing"
        );
    }

    /// The report `verify_exhaustive` must produce, built serially from the
    /// reference check.
    fn reference_report(target: &Graph, host: &Graph, k: usize) -> ToleranceReport {
        let mut rd = RevolvingDoor::new(host.node_count(), k);
        let mut tally = Tally::default();
        let mut index = 0;
        while let Some(combo) = rd.next_set() {
            let faults = FaultSet::from_nodes(host.node_count(), combo.iter().copied());
            tally.record(index, combo, check_fault_set(target, host, &faults));
            index += 1;
        }
        Tally::into_report([tally])
    }

    #[test]
    fn exhaustive_reports_are_thread_count_independent() {
        // Range boundaries, single-set ranges and more threads than fault
        // sets must all merge to the serial reference report.
        for (name, target, host, k) in differential_cases() {
            let expected = reference_report(&target, &host, k);
            let more_than_sets = expected.checked as usize + 3;
            for threads in [1, 2, 3, 7, more_than_sets] {
                assert_eq!(
                    verify_exhaustive(&target, &host, k, threads),
                    expected,
                    "{name}: threads={threads}"
                );
            }
        }
    }

    #[test]
    fn no_fault_set_of_size_k_checks_nothing() {
        let ft = FtDeBruijn2::new(3, 1);
        let n = ft.node_count();
        for threads in [1, 4] {
            let report = verify_exhaustive(ft.target().graph(), ft.graph(), n + 1, threads);
            assert_eq!(report.checked, 0);
            assert!(report.is_tolerant());
        }
    }

    #[test]
    fn bare_spare_failures_are_pinned() {
        // B(2,4) + 2 bare spares: 152 of the 153 two-fault sets fail. The
        // recorded sets are the first 16 failures in revolving-door order,
        // sorted; this list was captured from the from-scratch kernel.
        let target = DeBruijn2::new(4);
        let host = padded(target.graph(), 2);
        let golden: Vec<Vec<usize>> = [
            [0, 1],
            [0, 2],
            [0, 3],
            [0, 4],
            [0, 5],
            [1, 2],
            [1, 3],
            [1, 4],
            [1, 5],
            [2, 3],
            [2, 4],
            [2, 5],
            [3, 4],
            [3, 5],
            [4, 5],
            [5, 6],
        ]
        .iter()
        .map(|f| f.to_vec())
        .collect();
        for threads in [1, 2, 5] {
            let report = verify_exhaustive(target.graph(), &host, 2, threads);
            assert_eq!(report.checked, 153);
            assert_eq!(report.failure_count, 152);
            assert_eq!(report.failures, golden, "threads={threads}");
        }
    }

    #[test]
    fn sampled_and_exhaustive_agree_on_tolerant_instance() {
        let ft = FtDeBruijnM::new(2, 4, 2);
        let exhaustive = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 4);
        let sampled = verify_sampled(ft.target().graph(), ft.graph(), 2, 200, 42);
        assert!(exhaustive.is_tolerant());
        assert!(sampled.is_tolerant());
        assert_eq!(sampled.checked, 200);
    }

    #[test]
    fn verify_up_to_covers_every_fault_count() {
        let ft = FtDeBruijn2::new(3, 2);
        let reports = verify_up_to(ft.target().graph(), ft.graph(), 2, 2);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(ToleranceReport::is_tolerant));
        assert_eq!(reports[0].checked, 1);
        assert_eq!(reports[1].checked, 10);
        assert_eq!(reports[2].checked, 45);
    }

    #[test]
    fn single_thread_and_multi_thread_results_match() {
        let ft = FtDeBruijn2::new(3, 2);
        let a = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 1);
        let b = verify_exhaustive(ft.target().graph(), ft.graph(), 2, 8);
        assert_eq!(a.checked, b.checked);
        assert_eq!(a.failure_count, b.failure_count);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn recorded_failures_are_thread_count_independent() {
        // A non-tolerant instance with more than MAX_RECORDED failures: the
        // recorded subset must still be identical across thread counts.
        let target = DeBruijn2::new(4);
        let mut b = ftdb_graph::GraphBuilder::new(18);
        b.add_edges(target.graph().edges());
        let host = b.build();
        let one = verify_exhaustive(target.graph(), &host, 2, 1);
        let many = verify_exhaustive(target.graph(), &host, 2, 5);
        assert!(!one.is_tolerant());
        assert_eq!(one.failure_count, many.failure_count);
        assert_eq!(one.failures, many.failures);
        assert_eq!(one.failures.len(), ToleranceReport::MAX_RECORDED);
    }

    #[test]
    fn degenerate_smaller_de_bruijn_host_fails() {
        // A host that is simply too small can never be tolerant.
        let target = DeBruijnM::new(2, 3);
        let host = DeBruijn2::new(3);
        let report = verify_exhaustive(target.graph(), host.graph(), 1, 1);
        assert!(!report.is_tolerant());
    }
}
