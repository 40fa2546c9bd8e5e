//! `mc_reliability`: the Monte-Carlo reliability sweep on B(2,h) for all
//! three fault models — many tiny drained runs, so per-trial
//! load/clear/report, fault draws, mid-run fault firing with re-route BFS
//! and the worker fan-out dominate. No packet waits on credits and there is
//! no shard barrier.

use crate::trace::Tracer;
use crate::{cpu_seconds, secs, Checks, Metric, Rep, Size, THREADS};
use ftdb_analysis::reliability::{
    reliability_sweep, render_reliability, FaultModel, ReliabilityCurve, ReliabilitySpec,
};
use ftdb_core::{FaultSet, LinkFaultSet};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    CongestionConfig, CongestionSim, EngineKind, FaultResponse, FlowControl, RouteSource,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

const P_GRID: [f64; 6] = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];
const KILL_CYCLE: u32 = 2;
const BURST_RADIUS_BITS: u32 = 2;
/// The sweep's engine cap; a hand-driven replay that reaches it failed.
const MAX_CYCLES: u32 = 50_000;

/// (h, trials per grid point, trials replayed by hand in the traced pass).
fn params(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (10, 100, 6),
        Size::Probe => (6, 8, 2),
    }
}

fn spec(size: Size, seed: u64, threads: usize) -> ReliabilitySpec {
    let (h, trials, _) = params(size);
    ReliabilitySpec {
        h,
        trials,
        p_grid: P_GRID.to_vec(),
        kill_cycle: KILL_CYCLE,
        burst_radius_bits: BURST_RADIUS_BITS,
        root_seed: seed,
        threads,
        shards: 1,
    }
}

/// The engine configuration `reliability_sweep` runs with.
fn replay_config() -> CongestionConfig {
    CongestionConfig {
        flow_control: FlowControl::Infinite,
        fault_response: FaultResponse::RerouteAdaptive,
        engine: EngineKind::WakeList,
        route_source: RouteSource::Implicit,
        max_cycles: MAX_CYCLES,
    }
}

fn sweep_all(spec: &ReliabilitySpec) -> Vec<ReliabilityCurve> {
    FaultModel::ALL
        .iter()
        .map(|&model| reliability_sweep(spec, model))
        .collect()
}

fn render(curves: &[ReliabilityCurve]) -> String {
    curves
        .iter()
        .map(|c| render_reliability(c).render())
        .collect()
}

/// Output checks on the curves (one operation per model × grid point).
fn check_curves(curves: &[ReliabilityCurve], spec: &ReliabilitySpec, checks: &mut Checks) {
    let per_trial = 1u64 << spec.h;
    for curve in curves {
        for pt in &curve.points {
            let model = curve.model.label();
            let mut why = Vec::new();
            if pt.injected != spec.trials as u64 * per_trial {
                why.push(format!("injected {} != trials * 2^h", pt.injected));
            }
            if pt.delivered > pt.injected {
                why.push(format!(
                    "delivered {} > injected {}",
                    pt.delivered, pt.injected
                ));
            }
            // The interval is computed in floating point: at a rate of
            // exactly 1 its upper end can land one ulp below 1 (512/512
            // gives 0.9999999999999999), so bracketing is checked to a few
            // ulps.
            let (lo, hi) = pt.delivery_ci;
            let tol = 4.0 * f64::EPSILON;
            if !(lo <= pt.delivery_rate + tol && pt.delivery_rate <= hi + tol) {
                why.push(format!(
                    "Wilson CI [{lo}, {hi}] misses {}",
                    pt.delivery_rate
                ));
            }
            if pt.p == 0.0 && (pt.delivered != pt.injected || pt.mean_slowdown != 1.0) {
                why.push(format!(
                    "p = 0 lost packets or slowed down: {}/{} slowdown {}",
                    pt.delivered, pt.injected, pt.mean_slowdown
                ));
            }
            checks.check(why.is_empty(), || {
                format!("{model} p={}: {}", pt.p, why.join("; "))
            });
        }
    }
}

/// Pooled delivery over every point and model, and the mean slowdown at
/// the largest p averaged over the models.
fn outcomes(curves: &[ReliabilityCurve]) -> Vec<Metric> {
    let (mut delivered, mut injected) = (0u64, 0u64);
    for pt in curves.iter().flat_map(|c| &c.points) {
        delivered += pt.delivered;
        injected += pt.injected;
    }
    let slowdown = curves
        .iter()
        .filter_map(|c| c.points.last())
        .map(|pt| pt.mean_slowdown)
        .sum::<f64>()
        / curves.len() as f64;
    vec![
        (
            "sim_delivery_rate",
            delivered as f64 / injected as f64,
            "ratio",
        ),
        ("sim_slowdown", slowdown, "ratio"),
    ]
}

/// Set-up: the topology the sweep runs on (the sweep itself is one opaque
/// call, so this is all the set-up the workload has).
pub fn setup_only(seed: u64) -> f64 {
    let t = Instant::now();
    let db = std::hint::black_box(DeBruijn2::new(params(Size::Full).0));
    let spec = std::hint::black_box(spec(Size::Full, seed, THREADS));
    let s = secs(t);
    drop((db, spec));
    s
}

pub fn rep(seed: u64, clk_tck: f64, checks: &mut Checks) -> (Rep, Vec<Metric>) {
    let spec = spec(Size::Full, seed, THREADS);
    let cpu0 = cpu_seconds(clk_tck);
    let t = Instant::now();
    let curves = sweep_all(&spec);
    let run_s = secs(t);
    let cpu_s = cpu_seconds(clk_tck) - cpu0;

    check_curves(&curves, &spec, checks);
    let items = (spec.trials * spec.p_grid.len() * curves.len()) as f64;
    (
        Rep {
            run_s,
            cpu_s,
            items,
        },
        outcomes(&curves),
    )
}

/// Steps `sim` until it drains, one span per cycle, accumulating the
/// cycle-loop counters. `step()` does not detect deadlock, so reaching
/// `cap` first is a failure (returns false).
pub fn traced_step_loop(t: &mut Tracer, sim: &mut CongestionSim, cap: u32) -> bool {
    let mut live = sim.counts().3;
    loop {
        if live == 0 && sim.pending_injections() == 0 {
            return true;
        }
        if sim.cycle() >= cap {
            return false;
        }
        t.enter("sim.congestion.step");
        let ev = sim.step();
        let ns = t.exit();
        // Packets in the network during the cycle: those live before it
        // plus those injected into it.
        let during = live + ev.injected;
        t.count("sim.congestion.cycles", 1.0);
        t.count("sim.congestion.flits", ev.moved as f64);
        t.count("sim.congestion.live_packet_cycles", during as f64);
        if during > 0
            && ev.moved == 0
            && ev.injected == 0
            && ev.credits_applied == 0
            && ev.faults_fired == 0
        {
            t.count("sim.congestion.idle_cycles", 1.0);
        }
        if ev.faults_fired > 0 {
            t.count("sim.congestion.fault_cycle_ns", ns as f64);
        }
        live = ev.live;
    }
}

/// The cycle-loop metrics shared with `saturated_vc`.
pub fn cycle_loop_metrics(t: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let cycles = t.counter("sim.congestion.cycles");
    let flits = t.counter("sim.congestion.flits");
    let step_ns = t.self_s("sim.congestion.step") * 1e9;
    m.insert(
        "sim.congestion.load_ns_per_packet",
        t.self_s("sim.congestion.load") * 1e9 / t.counter("sim.congestion.loaded"),
    );
    m.insert("sim.congestion.reset_s", t.self_s("sim.congestion.reset"));
    m.insert("sim.congestion.report_s", t.self_s("sim.congestion.report"));
    m.insert(
        "sim.congestion.runs",
        t.calls("sim.congestion.report") as f64,
    );
    m.insert("sim.congestion.cycles", cycles);
    m.insert("sim.congestion.ns_per_cycle", step_ns / cycles);
    m.insert("sim.congestion.flits", flits);
    m.insert("sim.congestion.ns_per_flit", step_ns / flits);
    m.insert(
        "sim.congestion.move_ratio",
        flits / t.counter("sim.congestion.live_packet_cycles"),
    );
    m.insert(
        "sim.congestion.idle_cycles",
        t.counter("sim.congestion.idle_cycles"),
    );
}

/// The fault coins of one trial at probability `p`, drawn through the
/// public fault-set generators: one coin per element in a fixed order, so
/// the sets nest across the grid like the sweep's.
fn draw(
    db: &DeBruijn2,
    model: FaultModel,
    p: f64,
    fault_seed: u64,
) -> (Vec<usize>, Option<LinkFaultSet>) {
    let mut rng = StdRng::seed_from_u64(fault_seed);
    let n = db.node_count();
    match model {
        FaultModel::Node => {
            let coins: Vec<usize> = (0..n).filter(|_| rng.random::<f64>() < p).collect();
            (FaultSet::from_nodes(n, coins).iter().collect(), None)
        }
        FaultModel::Link => (
            Vec::new(),
            Some(LinkFaultSet::bernoulli(db.graph(), p, &mut rng)),
        ),
        FaultModel::Burst => {
            let mut union = LinkFaultSet::empty(db.graph());
            for center in (0..n).step_by(1 << BURST_RADIUS_BITS) {
                if rng.random::<f64>() < p {
                    let ball = LinkFaultSet::burst(db.graph(), center, BURST_RADIUS_BITS)
                        .expect("ball centre is a node");
                    union.union_with(&ball);
                }
            }
            (Vec::new(), Some(union))
        }
    }
}

/// One hand-driven trial run through the public engine API.
fn replay_run(
    t: &mut Tracer,
    sim: &mut CongestionSim,
    db: &DeBruijn2,
    pairs: &[(usize, usize)],
    faults: Option<(FaultModel, f64, u64)>,
    checks: &mut Checks,
) {
    t.next_op();
    t.span("sim.congestion.reset", || sim.clear_workload());
    let placement = Embedding::identity(db.node_count());
    t.span("sim.congestion.load", || {
        sim.load_oblivious(db, &placement, pairs)
    });
    t.count("sim.congestion.loaded", pairs.len() as f64);
    if let Some((model, p, fault_seed)) = faults {
        let (nodes, links) = t.span("core.fault.draw", || draw(db, model, p, fault_seed));
        t.count(
            "core.fault.elements",
            (nodes.len() + links.as_ref().map_or(0, |l| l.len())) as f64,
        );
        t.span("sim.congestion.schedule", || {
            for &node in &nodes {
                sim.schedule_fault(KILL_CYCLE, node);
            }
            if let Some(links) = &links {
                sim.schedule_link_faults(KILL_CYCLE, links);
            }
        });
    }
    let drained = traced_step_loop(t, sim, MAX_CYCLES);
    let report = t.span("sim.congestion.report", || sim.report());
    let (injected, delivered, dropped, in_flight) = sim.counts();
    checks.check(
        drained && injected == delivered + dropped + in_flight && report.injected == injected,
        || format!("replay run {faults:?}: drained={drained} counts {injected}/{delivered}/{dropped}/{in_flight}"),
    );
}

pub fn traced(
    size: Size,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let (h, _, replay_trials) = params(size);
    let spec2 = spec(size, seed, THREADS);
    let spec1 = spec(size, seed, 1);

    let (db, mut sim) = t.span("topology.build", || {
        let db = DeBruijn2::new(h);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        (db, CongestionSim::new(machine, replay_config()))
    });

    // The untraced body before and after the same body with a span per
    // sweep, so the overhead ratio does not charge warm-up to either side.
    let untraced_body = || {
        let t0 = Instant::now();
        let curves = sweep_all(&spec2);
        (curves, secs(t0))
    };
    let (untraced, untraced_a) = untraced_body();
    check_curves(&untraced, &spec2, checks);
    let t0 = Instant::now();
    let names = [
        "analysis.reliability.sweep.node",
        "analysis.reliability.sweep.link",
        "analysis.reliability.sweep.burst",
    ];
    let traced: Vec<ReliabilityCurve> = FaultModel::ALL
        .iter()
        .zip(names)
        .map(|(&model, name)| t.span(name, || reliability_sweep(&spec2, model)))
        .collect();
    let traced_s = secs(t0);
    let (again, untraced_b) = untraced_body();
    checks.check(
        render(&traced) == render(&untraced) && render(&again) == render(&untraced),
        || "traced or repeated sweep differs from the first".into(),
    );
    m.insert(
        "trace.overhead",
        traced_s / ((untraced_a + untraced_b) / 2.0),
    );
    m.insert("analysis.reliability.sweep_s.node", t.self_s(names[0]));
    m.insert("analysis.reliability.sweep_s.link", t.self_s(names[1]));
    m.insert("analysis.reliability.sweep_s.burst", t.self_s(names[2]));

    // The same sweeps on one thread: identical bytes, and the speed-up.
    let serial: Vec<ReliabilityCurve> = FaultModel::ALL
        .iter()
        .map(|&model| {
            t.span("analysis.reliability.sweep.serial", || {
                reliability_sweep(&spec1, model)
            })
        })
        .collect();
    checks.check(render(&serial) == render(&traced), || {
        "threads = 1 and threads = 2 curves render differently".into()
    });
    m.insert(
        "analysis.reliability.thread_speedup",
        t.self_s("analysis.reliability.sweep.serial")
            / names.iter().map(|n| t.self_s(n)).sum::<f64>(),
    );

    // A sample of trials replayed by hand through the public API: same h,
    // grid, kill cycle and engine configuration as the sweep.
    let mut seeds = StdRng::seed_from_u64(seed ^ 0x7EA1_0000_0000_0000);
    for model in FaultModel::ALL {
        for _ in 0..replay_trials {
            let (wl_seed, fault_seed): (u64, u64) = (seeds.random(), seeds.random());
            let pairs = t.span("sim.workload.gen", || {
                workload::permutation_pairs(db.node_count(), &mut StdRng::seed_from_u64(wl_seed))
            });
            t.count("sim.workload.packets", pairs.len() as f64);
            replay_run(t, &mut sim, &db, &pairs, None, checks);
            for p in P_GRID {
                replay_run(
                    t,
                    &mut sim,
                    &db,
                    &pairs,
                    Some((model, p, fault_seed)),
                    checks,
                );
            }
        }
    }

    m.insert("topology.build_s", t.self_s("topology.build"));
    m.insert("sim.workload.gen_s", t.self_s("sim.workload.gen"));
    m.insert("sim.workload.packets", t.counter("sim.workload.packets"));
    m.insert("core.fault.draw_s", t.self_s("core.fault.draw"));
    m.insert("core.fault.elements", t.counter("core.fault.elements"));
    m.insert(
        "sim.congestion.fault_cycle_s",
        t.counter("sim.congestion.fault_cycle_ns") * 1e-9,
    );
    cycle_loop_metrics(t, &mut m);
    m
}
