//! `saturated_vc`: one open-loop Bernoulli run on a healthy B(2,h) past
//! the saturation knee, with 4 virtual channels of depth 4 on the sharded
//! engine. Most live packet-cycles are waits, so wake-list parking, the VC
//! credit FIFO and the shard barrier dominate; no faults, no re-route BFS.
//! `vcs = 4` is deliberate: at this load `vcs = 2` deadlocks, which would
//! turn the run into "time to a fixed point".

use crate::mc::{cycle_loop_metrics, traced_step_loop};
use crate::trace::Tracer;
use crate::{cpu_seconds, secs, Checks, Metric, Rep, Size, THREADS};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    measure_open_loop, CongestionConfig, CongestionReport, CongestionSim, FlowControl,
    OpenLoopReport, ShardedSim, Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload::{open_loop_injections, InjectionProcess, OpenLoopSpec};
use ftdb_topology::DeBruijn2;
use std::collections::BTreeMap;
use std::time::Instant;

const SHARDS: usize = 2;

fn open_loop(size: Size, seed: u64) -> (usize, OpenLoopSpec) {
    let (h, warmup_cycles, measure_cycles, drain_cycles) = match size {
        Size::Full => (14, 100, 200, 300),
        Size::Probe => (8, 20, 40, 200),
    };
    let spec = OpenLoopSpec {
        offered_load: 0.20,
        process: InjectionProcess::Bernoulli,
        warmup_cycles,
        measure_cycles,
        drain_cycles,
        seed,
    };
    (h, spec)
}

fn config() -> CongestionConfig {
    CongestionConfig {
        flow_control: FlowControl::VirtualChannel {
            vcs: 4,
            buffer_depth: 4,
            switching: Switching::StoreAndForward,
        },
        ..CongestionConfig::default()
    }
}

fn machine(db: &DeBruijn2) -> PhysicalMachine {
    PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort)
}

type Schedule = Vec<(u32, usize, usize)>;

/// Set-up: topology, machine, sharded engine and injection schedule.
fn setup(size: Size, seed: u64) -> (DeBruijn2, OpenLoopSpec, ShardedSim, Schedule) {
    let (h, spec) = open_loop(size, seed);
    let db = DeBruijn2::new(h);
    let sim = ShardedSim::new(machine(&db), config(), SHARDS, THREADS);
    let schedule = open_loop_injections(db.node_count(), &spec);
    (db, spec, sim, schedule)
}

pub fn setup_only(seed: u64) -> f64 {
    let t = Instant::now();
    let built = std::hint::black_box(setup(Size::Full, seed));
    let s = secs(t);
    drop(built);
    s
}

/// Output checks that the engine guarantees for this workload.
fn check_run(
    report: &CongestionReport,
    counts: (u64, u64, u64, u64),
    ol: &OpenLoopReport,
    checks: &mut Checks,
) {
    let (injected, delivered, dropped, in_flight) = counts;
    let mut why = Vec::new();
    if injected != delivered + dropped + in_flight {
        why.push(format!(
            "conservation {injected} != {delivered} + {dropped} + {in_flight}"
        ));
    }
    if report.deadlocked || !report.completed {
        why.push(format!(
            "deadlocked={} completed={}",
            report.deadlocked, report.completed
        ));
    }
    if report.dropped != 0 {
        why.push(format!(
            "{} packets dropped on a healthy machine",
            report.dropped
        ));
    }
    // Causality: nothing is delivered before it was injected.
    if ol.cum_delivered_by_window_end > ol.cum_injected_by_window_end {
        why.push(format!(
            "delivered {} > injected {} by the window end",
            ol.cum_delivered_by_window_end, ol.cum_injected_by_window_end
        ));
    }
    checks.check(why.is_empty(), || {
        format!("saturated_vc: {}", why.join("; "))
    });
}

pub fn rep(seed: u64, clk_tck: f64, checks: &mut Checks) -> (Rep, Vec<Metric>) {
    let (db, spec, mut sim, schedule) = setup(Size::Full, seed);
    let cpu0 = cpu_seconds(clk_tck);
    let t = Instant::now();
    sim.load_oblivious_timed(&db, &Embedding::identity(db.node_count()), &schedule);
    let ol = measure_open_loop(&mut sim, &spec);
    let report = sim.report();
    let run_s = secs(t);
    let cpu_s = cpu_seconds(clk_tck) - cpu0;

    check_run(&report, sim.counts(), &ol, checks);
    let outcomes = vec![
        ("sim_delivery_rate", report.delivery_ratio(), "ratio"),
        ("sim_throughput", ol.throughput, "packets/node/cycle"),
        ("sim_latency_p50_cycles", ol.latency.p50 as f64, "cycles"),
        ("sim_latency_p95_cycles", ol.latency.p95 as f64, "cycles"),
        ("sim_cycles", report.cycles as f64, "cycles"),
    ];
    (
        Rep {
            run_s,
            cpu_s,
            items: report.total_flits as f64,
        },
        outcomes,
    )
}

/// One untraced sharded run: the timed body of `rep` without the window
/// statistics. Returns the report, the body time and the `run_until` time.
fn sharded_run(
    db: &DeBruijn2,
    spec: &OpenLoopSpec,
    schedule: &Schedule,
    threads: usize,
) -> (CongestionReport, f64, f64) {
    let mut sim = ShardedSim::new(machine(db), config(), SHARDS, threads);
    let t0 = Instant::now();
    sim.load_oblivious_timed(db, &Embedding::identity(db.node_count()), schedule);
    let t1 = Instant::now();
    sim.run_until(spec.horizon());
    let run_s = secs(t1);
    let report = sim.report();
    (report, secs(t0), run_s)
}

pub fn traced(
    size: Size,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let (h, spec) = open_loop(size, seed);
    let db = t.span("topology.build", || DeBruijn2::new(h));
    let schedule = t.span("sim.workload.gen", || {
        open_loop_injections(db.node_count(), &spec)
    });
    t.count("sim.workload.packets", schedule.len() as f64);
    let placement = Embedding::identity(db.node_count());

    // Untraced runs before and after the traced one (2 shards, 2 threads),
    // so the overhead ratio does not charge warm-up to either side.
    let (reference, body_a, run_a) = sharded_run(&db, &spec, &schedule, THREADS);
    checks.check(
        !reference.deadlocked && reference.completed && reference.dropped == 0,
        || format!("saturated_vc reference run: {reference:?}"),
    );

    // The same body driven one cycle per `run_until` call, a span each.
    t.next_op();
    let mut sim = ShardedSim::new(machine(&db), config(), SHARDS, THREADS);
    t.enter("sim.shard.body");
    t.span("sim.shard.load", || {
        sim.load_oblivious_timed(&db, &placement, &schedule)
    });
    loop {
        let (injected, delivered, dropped, _) = sim.counts();
        let cycle = sim.cycle();
        if delivered + dropped == injected || cycle >= spec.horizon() {
            break;
        }
        t.span("sim.shard.cycle", || sim.run_until(cycle + 1));
        if sim.cycle() == cycle {
            break;
        }
    }
    let stepped = t.span("sim.shard.report", || sim.report());
    let traced_s = t.exit() as f64 * 1e-9;
    drop(sim);
    checks.check(stepped == reference, || {
        "run_until(cycle + 1) report differs from run_until(horizon)".into()
    });
    let (again, body_b, run_b) = sharded_run(&db, &spec, &schedule, THREADS);
    checks.check(again == reference, || {
        "repeated untraced run differs".into()
    });
    m.insert("trace.overhead", traced_s / ((body_a + body_b) / 2.0));
    m.insert(
        "sim.shard.ns_per_cycle",
        t.self_s("sim.shard.cycle") * 1e9 / t.calls("sim.shard.cycle") as f64,
    );

    // The single-table engine, hand-stepped to the same horizon.
    t.next_op();
    let mut single = CongestionSim::new(machine(&db), config());
    t.span("sim.congestion.reset", || single.clear_workload());
    t.span("sim.congestion.load", || {
        single.load_oblivious_timed(&db, &placement, &schedule)
    });
    t.count("sim.congestion.loaded", schedule.len() as f64);
    let drained = traced_step_loop(t, &mut single, spec.horizon());
    let single_report = t.span("sim.congestion.report", || single.report());
    drop(single);
    checks.check(drained && single_report == reference, || {
        format!("CongestionSim step loop (drained={drained}) report differs from ShardedSim")
    });

    // Two shards on one thread.
    t.next_op();
    let (serial_report, _, serial_run_s) =
        t.span("sim.shard.serial", || sharded_run(&db, &spec, &schedule, 1));
    checks.check(serial_report == reference, || {
        "ShardedSim 2 shards x 1 thread report differs".into()
    });
    m.insert(
        "sim.shard.serial_overhead",
        serial_run_s / t.self_s("sim.congestion.step"),
    );
    m.insert(
        "sim.shard.thread_speedup",
        serial_run_s / ((run_a + run_b) / 2.0),
    );

    m.insert("topology.build_s", t.self_s("topology.build"));
    m.insert("sim.workload.gen_s", t.self_s("sim.workload.gen"));
    m.insert("sim.workload.packets", t.counter("sim.workload.packets"));
    cycle_loop_metrics(t, &mut m);
    m
}
