//! `paper_verify`: the paper's theorem checked mechanically —
//! `verify_exhaustive` over every k-fault set of `B^k(2,h)` — plus a seeded
//! batch of `reconfigure_verified` calls on a larger host. The only
//! workload that exercises `core::verify`, `core::reconfig` and the dense
//! adjacency check; it runs no simulation.

use crate::trace::Tracer;
use crate::{cpu_seconds, secs, Checks, Metric, Rep, Size, THREADS};
use ftdb_core::fault::Combinations;
use ftdb_core::verify::{verify_exhaustive, ToleranceReport};
use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::GraphBuilder;
use ftdb_topology::DeBruijn2;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

struct Params {
    /// Exhaustively verified host `B^k(2,h)`.
    verify: (usize, usize),
    /// Host of the reconfiguration batch.
    reconfig: (usize, usize),
    reconfig_calls: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            verify: (8, 3),
            reconfig: (12, 4),
            reconfig_calls: 2000,
        },
        Size::Probe => Params {
            verify: (5, 2),
            reconfig: (6, 2),
            reconfig_calls: 50,
        },
    }
}

fn hosts(p: &Params) -> (FtDeBruijn2, FtDeBruijn2) {
    (
        FtDeBruijn2::new(p.verify.0, p.verify.1),
        FtDeBruijn2::new(p.reconfig.0, p.reconfig.1),
    )
}

/// One seeded fault set of 0..=k faults on `host`.
fn draw(host: &FtDeBruijn2, rng: &mut StdRng) -> FaultSet {
    let count = rng.random_range(0..host.k() + 1);
    FaultSet::random(host.node_count(), count, rng).expect("count <= k < node count")
}

struct Setup {
    verified: FtDeBruijn2,
    reconfig: FtDeBruijn2,
    fault_sets: Vec<FaultSet>,
}

fn setup(size: Size, seed: u64) -> Setup {
    let p = params(size);
    let (verified, reconfig) = hosts(&p);
    let mut rng = StdRng::seed_from_u64(seed);
    let fault_sets = (0..p.reconfig_calls)
        .map(|_| draw(&reconfig, &mut rng))
        .collect();
    Setup {
        verified,
        reconfig,
        fault_sets,
    }
}

pub fn setup_only(seed: u64) -> f64 {
    let t = Instant::now();
    let built = std::hint::black_box(setup(Size::Full, seed));
    let s = secs(t);
    drop(built);
    s
}

fn verify(host: &FtDeBruijn2) -> ToleranceReport {
    verify_exhaustive(host.target().graph(), host.graph(), host.k(), THREADS)
}

fn check_verify(host: &FtDeBruijn2, report: &ToleranceReport, checks: &mut Checks) {
    let total = Combinations::total(host.node_count(), host.k());
    checks.check(
        report.checked as u128 == total && report.is_tolerant(),
        || {
            format!(
                "verify_exhaustive checked {} of {total}, {} failures",
                report.checked, report.failure_count
            )
        },
    );
}

fn check_reconfig(ok: &[bool], checks: &mut Checks) {
    for (i, &ok) in ok.iter().enumerate() {
        checks.check(ok, || format!("reconfigure_verified #{i} returned Err"));
    }
}

/// The paper's ablation host — the plain target with `k` spare nodes and
/// no widened edge blocks — must fail verification: proof that the
/// verifier is not vacuous.
pub fn ablation_check(size: Size, checks: &mut Checks) {
    let (h, k) = params(size).verify;
    let h = h.min(5);
    let target = DeBruijn2::new(h);
    let mut builder = GraphBuilder::new(target.node_count() + k);
    builder.add_edges(target.graph().edges());
    let report = verify_exhaustive(target.graph(), &builder.build(), k, THREADS);
    checks.check(report.failure_count > 0, || {
        format!("B(2,{h}) + {k} bare spares reported tolerant")
    });
}

pub fn rep(seed: u64, clk_tck: f64, checks: &mut Checks) -> (Rep, Vec<Metric>) {
    let s = setup(Size::Full, seed);
    let cpu0 = cpu_seconds(clk_tck);
    let t = Instant::now();
    let report = verify(&s.verified);
    let ok: Vec<bool> = s
        .fault_sets
        .iter()
        .map(|f| s.reconfig.reconfigure_verified(f).is_ok())
        .collect();
    let run_s = secs(t);
    let cpu_s = cpu_seconds(clk_tck) - cpu0;

    check_verify(&s.verified, &report, checks);
    check_reconfig(&ok, checks);
    let outcomes = vec![
        ("fault_sets_checked", report.checked as f64, "count"),
        (
            "reconfigurations_ok",
            ok.iter().filter(|&&o| o).count() as f64,
            "count",
        ),
    ];
    (
        Rep {
            run_s,
            cpu_s,
            items: report.checked as f64,
        },
        outcomes,
    )
}

pub fn traced(
    size: Size,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let p = params(size);
    let (verified, reconfig) = t.span("topology.build", || hosts(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let fault_sets: Vec<FaultSet> = (0..p.reconfig_calls)
        .map(|_| {
            let f = t.span("core.fault.draw", || draw(&reconfig, &mut rng));
            t.count("core.fault.elements", f.len() as f64);
            f
        })
        .collect();

    // The untraced body before and after the same body with spans, so the
    // overhead ratio does not charge warm-up to either side.
    let untraced_body = || {
        let t0 = Instant::now();
        let report = verify(&verified);
        let ok: Vec<bool> = fault_sets
            .iter()
            .map(|f| reconfig.reconfigure_verified(f).is_ok())
            .collect();
        (report, ok, secs(t0))
    };
    let (reference, untraced_ok, untraced_a) = untraced_body();

    t.next_op();
    t.enter("paper_verify.body");
    let report = t.span("core.verify.exhaustive", || verify(&verified));
    let ok: Vec<bool> = fault_sets
        .iter()
        .map(|f| {
            t.next_op();
            t.span("core.reconfig.call", || {
                reconfig.reconfigure_verified(f).is_ok()
            })
        })
        .collect();
    let traced_s = t.exit() as f64 * 1e-9;
    let (again, again_ok, untraced_b) = untraced_body();
    check_verify(&verified, &report, checks);
    check_reconfig(&ok, checks);
    checks.check(
        report == reference && again == reference && ok == untraced_ok && again_ok == untraced_ok,
        || "traced or repeated body differs from the first".into(),
    );
    ablation_check(size, checks);

    let busy = t.self_s("core.verify.exhaustive");
    let calls = t.calls("core.reconfig.call") as f64;
    m.insert(
        "trace.overhead",
        traced_s / ((untraced_a + untraced_b) / 2.0),
    );
    m.insert("topology.build_s", t.self_s("topology.build"));
    m.insert("core.fault.draw_s", t.self_s("core.fault.draw"));
    m.insert("core.fault.elements", t.counter("core.fault.elements"));
    m.insert("core.verify.sets", report.checked as f64);
    m.insert("core.verify.ns_per_set", busy * 1e9 / report.checked as f64);
    m.insert("core.verify.busy_s", busy);
    m.insert("core.reconfig.calls", calls);
    m.insert(
        "core.reconfig.us_per_call",
        t.self_s("core.reconfig.call") * 1e6 / calls,
    );
    m.insert(
        "core.reconfig.failed",
        ok.iter().filter(|&&o| !o).count() as f64,
    );
    m
}
