//! Benchmark for the ftdb workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as its last stdout line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` (untraced): repeats set-up + timed body until `--seconds`
//!   have passed and reports medians of the end-to-end metrics. Simulated
//!   outcomes (`sim_*`) and `failed_share` are printed as `metric` lines
//!   above the JSON line.
//! * `--trace 1` (traced): one pass that records spans around every call
//!   into a layer's public functions and derives the per-layer metrics from
//!   them. Spans are written to `--trace-dir` as TSV.
//!
//! Workloads (`METRICS.md` in this directory gives the full rationale):
//! `mc_reliability` (Monte-Carlo reliability sweep), `saturated_vc` (one
//! congested virtual-channel run on the sharded engine) and `paper_verify`
//! (the paper's exhaustive tolerance verification plus reconfigurations).

// The repository's clippy.toml bans `Instant::now` to keep simulation
// output deterministic; timing the host is this crate's purpose.
#![allow(clippy::disallowed_methods)]

mod mc;
mod sat;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wl {
    Mc,
    Sat,
    Verify,
}

impl Wl {
    fn parse(s: &str) -> Option<Wl> {
        match s {
            "mc_reliability" => Some(Wl::Mc),
            "saturated_vc" => Some(Wl::Sat),
            "paper_verify" => Some(Wl::Verify),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Wl::Mc => "mc_reliability",
            Wl::Sat => "saturated_vc",
            Wl::Verify => "paper_verify",
        }
    }
}

/// Full-size inputs for the measured workload; probe-size inputs for a
/// layer that the traced workload does not exercise itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Probe,
}

/// Worker threads every workload uses (the reference machine has 2 CPUs).
pub const THREADS: usize = 2;

/// Per-layer metrics: name, unit, and the workloads whose traced pass
/// measures it. On any other workload the value comes from a probe-size
/// traced pass of the first listed workload (see `METRICS.md`).
const LAYER_METRICS: &[(&str, &str, &[Wl])] = &[
    ("topology.build_s", "s", &[Wl::Mc, Wl::Sat, Wl::Verify]),
    ("sim.workload.gen_s", "s", &[Wl::Sat, Wl::Mc]),
    ("sim.workload.packets", "count", &[Wl::Sat, Wl::Mc]),
    ("core.fault.draw_s", "s", &[Wl::Mc, Wl::Verify]),
    ("core.fault.elements", "count", &[Wl::Mc, Wl::Verify]),
    ("core.verify.sets", "count", &[Wl::Verify]),
    ("core.verify.ns_per_set", "ns", &[Wl::Verify]),
    ("core.verify.busy_s", "s", &[Wl::Verify]),
    ("core.reconfig.calls", "count", &[Wl::Verify]),
    ("core.reconfig.us_per_call", "us", &[Wl::Verify]),
    ("core.reconfig.failed", "count", &[Wl::Verify]),
    (
        "sim.congestion.load_ns_per_packet",
        "ns",
        &[Wl::Mc, Wl::Sat],
    ),
    ("sim.congestion.reset_s", "s", &[Wl::Mc, Wl::Sat]),
    ("sim.congestion.report_s", "s", &[Wl::Mc, Wl::Sat]),
    ("sim.congestion.runs", "count", &[Wl::Mc, Wl::Sat]),
    ("sim.congestion.cycles", "count", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.ns_per_cycle", "ns", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.flits", "count", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.ns_per_flit", "ns", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.move_ratio", "ratio", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.idle_cycles", "count", &[Wl::Sat, Wl::Mc]),
    ("sim.congestion.fault_cycle_s", "s", &[Wl::Mc]),
    ("sim.shard.ns_per_cycle", "ns", &[Wl::Sat]),
    ("sim.shard.serial_overhead", "ratio", &[Wl::Sat]),
    ("sim.shard.thread_speedup", "ratio", &[Wl::Sat]),
    ("analysis.reliability.sweep_s.node", "s", &[Wl::Mc]),
    ("analysis.reliability.sweep_s.link", "s", &[Wl::Mc]),
    ("analysis.reliability.sweep_s.burst", "s", &[Wl::Mc]),
    ("analysis.reliability.thread_speedup", "ratio", &[Wl::Mc]),
    ("trace.overhead", "ratio", &[Wl::Mc, Wl::Sat, Wl::Verify]),
];

/// Output checks: each call is one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// A named value with its unit: a metric, or a deterministic outcome that
/// must repeat exactly for a fixed seed.
pub type Metric = (&'static str, f64, &'static str);

/// One repetition of an untraced workload.
pub struct Rep {
    pub run_s: f64,
    pub cpu_s: f64,
    pub items: f64,
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// User + system CPU seconds of this process (all threads, joined ones
/// included), from `/proc/self/stat`.
pub fn cpu_seconds(clk_tck: f64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / clk_tck
}

/// Peak resident set of this process so far in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// (q1, median, q3) with the same "exclusive" rule as Python's
/// `statistics.quantiles(v, n=4)` (median for fewer than two samples).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |j: usize| {
        let pos = (n + 1) as f64 * j as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (q(1), q(2), q(3))
}

fn json_result(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Untraced measurement: `SETUPS` set-up samples, then repetitions of
/// set-up + timed body + output checks until `seconds` have passed (at
/// least three). Every metric is the median over its samples.
fn untraced(wl: Wl, seed: u64, seconds: f64, clk_tck: f64) -> (Checks, Vec<Metric>) {
    const MIN_REPS: usize = 3;
    const SETUPS: usize = 21;
    const SETUP_SAMPLE_S: f64 = 0.01;
    let mut checks = Checks::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut outcomes: Vec<Vec<Metric>> = Vec::new();
    // Set-up is timed on its own, back to back under identical conditions,
    // so its median does not depend on how many bodies fit in the run. A
    // sample averages enough set-ups to last `SETUP_SAMPLE_S`: a set-up of
    // tens of microseconds timed alone swings with cache and clock state.
    let setup_once = || match wl {
        Wl::Mc => mc::setup_only(seed),
        Wl::Sat => sat::setup_only(seed),
        Wl::Verify => verify::setup_only(seed),
    };
    let batch = (SETUP_SAMPLE_S / setup_once()).ceil().max(1.0) as usize;
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| (0..batch).map(|_| setup_once()).sum::<f64>() / batch as f64)
        .collect();
    let mut peak = None;
    let start = Instant::now();
    while reps.len() < MIN_REPS || secs(start) < seconds {
        let (rep, out) = match wl {
            Wl::Mc => mc::rep(seed, clk_tck, &mut checks),
            Wl::Sat => sat::rep(seed, clk_tck, &mut checks),
            Wl::Verify => verify::rep(seed, clk_tck, &mut checks),
        };
        reps.push(rep);
        outcomes.push(out);
        // Peak memory of set-up plus one body: later repetitions only add
        // allocator fragmentation that varies with thread timing.
        peak.get_or_insert_with(peak_rss_mb);
    }
    if wl == Wl::Verify {
        verify::ablation_check(Size::Full, &mut checks);
    }
    // Every repetition ran the same inputs: its outcomes must repeat.
    for (i, out) in outcomes.iter().enumerate().skip(1) {
        checks.check(out == &outcomes[0], || {
            format!("rep {i} outcomes differ from rep 0")
        });
    }

    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let run = col(&|r| r.run_s);
    let cpu = col(&|r| r.cpu_s);
    let ips = col(&|r| r.items / r.run_s);
    let e2e = vec![
        ("setup_s", median(&setups), "s"),
        ("run_s", median(&run), "s"),
        ("items_per_s", median(&ips), "1/s"),
        ("cpu_s", median(&cpu), "s"),
        ("peak_rss_mb", peak.expect("at least one repetition"), "MiB"),
    ];
    println!(
        "perfbench workload={} seed={seed} reps={} setup_samples={}x{batch} threads={THREADS} nproc={}",
        wl.name(),
        reps.len(),
        setups.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, samples) in [
        ("setup_s", &setups),
        ("run_s", &run),
        ("cpu_s", &cpu),
        ("items_per_s", &ips),
    ] {
        let (q1, m, q3) = quartiles(samples);
        let all: Vec<String> = samples.iter().map(|x| format!("{x:.4e}")).collect();
        println!(
            "spread {name} q1={q1:.6} median={m:.6} q3={q3:.6} n={} [{}]",
            samples.len(),
            all.join(" ")
        );
    }
    for (name, value, unit) in &e2e {
        println!("metric {name} {value} {unit}");
    }
    let share = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("metric failed_share {share} ratio");
    for (name, value, unit) in &outcomes[0] {
        println!("metric {name} {value} {unit}");
    }
    (checks, e2e)
}

/// Traced measurement: the workload's own traced pass, plus probe-size
/// passes of the home workload of every per-layer metric it does not
/// exercise.
fn traced(wl: Wl, seed: u64, trace_dir: Option<&str>) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let mut passes: BTreeMap<Wl, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let run_pass = |w: Wl, size: Size, checks: &mut Checks| {
        let mut t = trace::Tracer::new();
        let metrics = match w {
            Wl::Mc => mc::traced(size, seed, &mut t, checks),
            Wl::Sat => sat::traced(size, seed, &mut t, checks),
            Wl::Verify => verify::traced(size, seed, &mut t, checks),
        };
        if let Some(dir) = trace_dir {
            let kind = if size == Size::Full { "full" } else { "probe" };
            let path = format!(
                "{dir}/trace-{}-{}-{kind}-seed{seed}.tsv",
                wl.name(),
                w.name()
            );
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, t.to_tsv()))
            {
                eprintln!("perfbench: cannot write {path}: {e}");
            }
        }
        metrics
    };
    passes.insert(wl, run_pass(wl, Size::Full, &mut checks));
    let mut out = Vec::new();
    for &(name, unit, homes) in LAYER_METRICS {
        let source = if homes.contains(&wl) { wl } else { homes[0] };
        let value = passes
            .entry(source)
            .or_insert_with(|| run_pass(source, Size::Probe, &mut checks))
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("{} pass did not measure {name}", source.name()));
        let tag = if source == wl { "" } else { " (probe)" };
        println!("layer {name} {value} {unit}{tag}");
        out.push((name, value, unit));
    }
    (checks, out)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <mc_reliability|saturated_vc|paper_verify> --seed <n> \
         --seconds <s> --trace <0|1> [--clk-tck <hz>] [--trace-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return usage();
        };
        let Some(value) = it.next() else {
            return usage();
        };
        opts.insert(key.to_string(), value.clone());
    }
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "clk-tck",
        "trace-dir",
    ];
    if opts.keys().any(|k| !known.contains(&k.as_str())) {
        return usage();
    }
    let (Some(wl), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").and_then(|w| Wl::parse(w)),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").and_then(|t| match t.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let clk_tck = match opts.get("clk-tck").map(|c| c.parse::<f64>()) {
        None => 100.0,
        Some(Ok(c)) if c > 0.0 => c,
        Some(_) => return usage(),
    };
    let (checks, metrics) = if trace {
        traced(wl, seed, opts.get("trace-dir").map(String::as_str))
    } else {
        untraced(wl, seed, seconds, clk_tck)
    };
    // A run whose checks failed still exits 0: the result line carries
    // `correct: false` and the failures went to stderr.
    println!("{}", json_result(&checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
