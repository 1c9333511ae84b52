//! Host-performance benchmark of the Alpha 21364 network simulator.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--list]
//! ```
//!
//! One process measures one workload, so `peak_rss_mb` belongs to it
//! alone; without `--workload` the program re-executes itself once per
//! workload. Every metric is printed as `name value unit`, and the last
//! line of standard output is the JSON summary `BENCHMARK.json`'s driver
//! reads. README.md documents the protocol and why it looks the way it
//! does.

mod clock;
mod metrics;
mod micro;
mod stats;
mod trace;
mod workloads;

use clock::{Probe, Timed};
use metrics::{MetricDef, Values};
use network::{Endpoint, NetworkConfig, NetworkReport, NetworkSim};
use stats::{best_composite, iqr_frac, lower_quartile, quantile};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{EndpointTime, TimedEndpoint, Trace};
use workload::{build_endpoints, EndpointStats, WorkloadConfig};
use workloads::{digest, Workload, DEFAULT_SEED};

/// Measuring time of one untraced run when `--seconds` is absent; equal
/// to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// A run is never summarised from fewer timed repetitions than this.
const MIN_REPS: usize = 5;
/// Repetitions of `--quick` runs and of the untraced reference inside a
/// traced run.
const SHORT_REPS: usize = 3;
/// A run whose repetitions disagree by more than this says so on stderr.
const NOISY_IQR_FRAC: f64 = 0.15;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    list: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        list: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if workloads::by_name(name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                opts.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = parse_u64(v).ok_or(format!("--seed {v} is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v} is not a positive number"))?;
            }
            // Bare `--trace` turns tracing on; the driver spells it out.
            "--trace" => {
                opts.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn list_line(m: &MetricDef, kind: &str) -> String {
    let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
    format!(
        "{} {} {} better={} bound={}",
        kind, m.name, m.unit, m.better, bound
    )
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn loadavg1() -> f64 {
    read_proc("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line a tool prints, or `unknown` (the driver's checkout is not a
/// git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cycles stepped between two clock probes: about a millisecond of host
/// time on every workload.
const SLICE_CYCLES: u64 = 50;
/// Slices per segment of `stats::best_composite`: 400 cycles, 50 to 100
/// segments per repetition, each long against the probes inside it.
const SEGMENT_SLICES: usize = 8;

/// Everything one repetition produced.
struct Rep {
    report: NetworkReport,
    endpoints: EndpointStats,
    skipped_steps: u64,
    time: Timed,
    /// Nominal seconds per segment; the last one also holds `report()`.
    segments: Vec<f64>,
}

/// Steps `sim` through its whole run — the loop inside
/// `NetworkSim::run`, cut into slices with a clock probe after each —
/// then times `report`. `step` advances one cycle.
fn drive<E: Endpoint>(
    sim: &mut NetworkSim<E>,
    total: u64,
    probe: &mut Probe,
    mut step: impl FnMut(&mut NetworkSim<E>),
    report: impl FnOnce(&mut NetworkSim<E>) -> NetworkReport,
) -> (NetworkReport, Timed, Vec<f64>) {
    let mut time = Timed::default();
    let mut slices = Vec::new();
    let mut done = 0;
    while done < total {
        let slice = SLICE_CYCLES.min(total - done);
        let start = Instant::now();
        for _ in 0..slice {
            step(sim);
        }
        slices.push(time.add(start.elapsed().as_secs_f64(), probe.run()));
        done += slice;
    }
    let start = Instant::now();
    let report = report(sim);
    let last = time.add(start.elapsed().as_secs_f64(), probe.run());
    let mut segments: Vec<f64> = slices
        .chunks(SEGMENT_SLICES)
        .map(|c| c.iter().sum())
        .collect();
    *segments.last_mut().expect("a run has at least one cycle") += last;
    (report, time, segments)
}

/// One untraced repetition: fresh endpoints and a fresh simulator, built
/// outside the timed region; stepping and `report()` inside it.
fn untraced_rep(net: &NetworkConfig, wl: &WorkloadConfig, probe: &mut Probe) -> Rep {
    let mut sim = NetworkSim::new(net.clone(), build_endpoints(net, wl));
    let (report, time, segments) = drive(
        &mut sim,
        net.total_cycles(),
        probe,
        NetworkSim::step_cycle,
        |sim| sim.report(),
    );
    let mut endpoints = EndpointStats::default();
    for node in 0..net.topology.nodes() {
        endpoints.merge(sim.endpoint(node).stats());
    }
    Rep {
        report,
        endpoints,
        skipped_steps: sim.skipped_router_steps(),
        time,
        segments,
    }
}

/// The traced repetition: the same simulation with one
/// `network.step_cycle` span per cycle and a `network.report` span, and
/// the endpoint callbacks timed by [`TimedEndpoint`].
fn traced_rep(
    net: &NetworkConfig,
    wl: &WorkloadConfig,
    probe: &mut Probe,
) -> (Rep, Trace, EndpointTime) {
    let endpoints = build_endpoints(net, wl)
        .into_iter()
        .map(TimedEndpoint::new)
        .collect();
    let mut sim = NetworkSim::new(net.clone(), endpoints);
    let total = net.total_cycles();
    let trace = std::cell::RefCell::new(Trace::new(total as usize + 1));
    let (report, time, segments) = drive(
        &mut sim,
        total,
        probe,
        |sim| {
            let mut trace = trace.borrow_mut();
            let step = trace.begin("network.step_cycle");
            sim.step_cycle();
            trace.end(step);
        },
        |sim| {
            let mut trace = trace.borrow_mut();
            let span = trace.begin("network.report");
            let report = sim.report();
            trace.end(span);
            report
        },
    );

    let mut endpoints = EndpointStats::default();
    let mut callbacks = EndpointTime::default();
    for node in 0..net.topology.nodes() {
        endpoints.merge(sim.endpoint(node).inner.stats());
        callbacks.merge(&sim.endpoint(node).time);
    }
    let rep = Rep {
        report,
        endpoints,
        skipped_steps: sim.skipped_router_steps(),
        time,
        segments,
    };
    (rep, trace.into_inner(), callbacks)
}

/// Set-ups timed before every repetition. A set-up takes 50–300 µs, so
/// a hundred in a row would sample the host for 20 ms — one instant of
/// its noise; spread over the run they see as many host states as the
/// repetitions do.
const SETUPS_PER_REP: usize = 8;

/// Nominal seconds of every timed set-up of a run: its two halves and
/// both together.
#[derive(Default)]
struct SetupTimes {
    build_endpoints: Vec<f64>,
    new: Vec<f64>,
    both: Vec<f64>,
}

impl SetupTimes {
    /// Times [`SETUPS_PER_REP`] more set-ups, each scaled by the mean of
    /// the clock probes on either side of it.
    fn time_more(&mut self, net: &NetworkConfig, wl: &WorkloadConfig, probe: &mut Probe) {
        let mut probe_before = probe.run();
        for _ in 0..SETUPS_PER_REP {
            let start = Instant::now();
            let endpoints = build_endpoints(net, wl);
            let built = start.elapsed().as_secs_f64();
            let sim = NetworkSim::new(net.clone(), endpoints);
            let done = start.elapsed().as_secs_f64();
            std::hint::black_box(&sim);
            let probe_after = probe.run();
            let around = (probe_before + probe_after) / 2.0;
            self.build_endpoints.push(clock::nominal(built, around));
            self.new.push(clock::nominal(done - built, around));
            self.both.push(clock::nominal(done, around));
            probe_before = probe_after;
        }
    }
}

/// What one workload process measured.
struct Outcome {
    values: Values,
    attempted: usize,
    failed: usize,
    rep_iqr_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The untraced timed repetitions of one run, summarised.
struct Timing {
    reps: Vec<Rep>,
    /// Best composite of the repetitions, nominal seconds.
    run_s: f64,
    /// Whole repetitions, nominal seconds.
    rep_nominal: Vec<f64>,
    /// Mean clock slowdown over the repetitions.
    slowdown: f64,
}

impl Timing {
    fn of(reps: Vec<Rep>) -> Self {
        let segments: Vec<&[f64]> = reps.iter().map(|r| r.segments.as_slice()).collect();
        Timing {
            run_s: best_composite(&segments),
            rep_nominal: reps.iter().map(|r| r.time.nominal_s).collect(),
            slowdown: reps.iter().map(|r| r.time.slowdown()).sum::<f64>() / reps.len() as f64,
            reps,
        }
    }
}

fn end_to_end_values(
    net: &NetworkConfig,
    timing: &Timing,
    setup: &SetupTimes,
    values: &mut Values,
) {
    let report = &timing.reps[0].report;
    values.set("sim_cycles_per_s", net.total_cycles() as f64 / timing.run_s);
    values.set(
        "wall_ns_per_flit",
        timing.run_s * 1e9 / report.delivered_flits as f64,
    );
    values.set("setup_s", lower_quartile(&setup.both));
    values.set("peak_rss_mb", peak_rss_mb());
    values.set("sim_latency_ns", report.avg_latency_ns());
    values.set(
        "sim_throughput_flits_per_router_ns",
        report.flits_per_router_ns,
    );
}

/// The in-situ per-layer metrics: times from the traced repetition, counts
/// from the first untraced one (the digests make them the same counts).
fn per_layer_values(
    net: &NetworkConfig,
    timing: &Timing,
    setup: &SetupTimes,
    (traced, trace, callbacks): &(Rep, Trace, EndpointTime),
    values: &mut Values,
) {
    let first = &timing.reps[0];
    let (report, stats) = (&first.report, &first.endpoints);
    // Span times are wall ns; `to_nominal` rescales them by the clock the
    // traced repetition ran at, like every other host time here.
    let to_nominal = traced.time.nominal_s / traced.time.wall_s;
    let steps = trace.durations("network.step_cycle");
    let endpoint_ns = (callbacks.on_cycle_ns + callbacks.on_delivered_ns) as f64;
    let self_s = (steps.iter().sum::<f64>() - endpoint_ns) / 1e9 * to_nominal;
    let router_steps = net.topology.nodes() as u64 * net.total_cycles();
    let typical_rep_s = quantile(&timing.rep_nominal, 0.5);

    let mut set = |name: &str, value: f64| values.set(name, value);
    set(
        "network.step_cycle_ns_p50",
        quantile(&steps, 0.5) * to_nominal,
    );
    set(
        "network.step_cycle_ns_p99",
        quantile(&steps, 0.99) * to_nominal,
    );
    set("network.step_cycle_self_s", self_s);
    set(
        "network.skip_fraction",
        ratio(first.skipped_steps as f64, router_steps as f64),
    );
    set("network.new_s", lower_quartile(&setup.new));
    set(
        "network.report_s",
        trace.durations("network.report")[0] / 1e9 * to_nominal,
    );
    set("network.in_flight_packets", report.in_flight_packets as f64);
    set("network.flits_corrupted", report.flits_corrupted as f64);
    set("network.retransmissions", report.retransmissions as f64);
    set("router.nominations", report.nominations as f64);
    set("router.grants", report.grants as f64);
    set("router.collisions", report.collisions as f64);
    set(
        "router.grant_ratio",
        ratio(report.grants as f64, report.nominations as f64),
    );
    set("router.escape_dispatches", report.escape_dispatches as f64);
    set("router.drain_engagements", report.drain_engagements as f64);
    set(
        "router.host_ns_per_grant",
        ratio(self_s * 1e9, report.grants as f64),
    );
    set(
        "workload.on_cycle_ns",
        ratio(
            callbacks.on_cycle_ns as f64,
            callbacks.on_cycle_calls as f64,
        ) * to_nominal,
    );
    set("workload.on_cycle_calls", callbacks.on_cycle_calls as f64);
    set(
        "workload.on_delivered_ns",
        ratio(
            callbacks.on_delivered_ns as f64,
            callbacks.on_delivered_calls as f64,
        ) * to_nominal,
    );
    set(
        "workload.endpoint_share",
        endpoint_ns / 1e9 / traced.time.wall_s,
    );
    set(
        "workload.build_endpoints_s",
        lower_quartile(&setup.build_endpoints),
    );
    set(
        "workload.transactions_started",
        stats.transactions_started as f64,
    );
    set(
        "workload.transactions_completed",
        stats.transactions_completed as f64,
    );
    set("workload.mshr_stalls", stats.mshr_stalls as f64);
    set(
        "workload.mshr_stall_ratio",
        ratio(
            stats.mshr_stalls as f64,
            (stats.mshr_stalls + stats.transactions_started) as f64,
        ),
    );
    set("workload.txn_latency_ns", report.avg_txn_latency_ns());
    // One traced repetition against the typical untraced one, not against
    // the composite of their best segments.
    set(
        "trace.overhead_frac",
        traced.time.nominal_s / typical_rep_s - 1.0,
    );
    set("host.rep_p50_s", typical_rep_s);
    set("host.rep_iqr_frac", iqr_frac(&timing.rep_nominal));
    set("host.clock_slowdown", timing.slowdown);
    set("host.cpus", host_cpus() as f64);
}

fn measure(w: &Workload, opts: &Opts) -> Outcome {
    let load_before = loadavg1();
    let mut values = Values::default();
    let mut probe = Probe::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |what: &str, got: u64, want: u64| {
        attempted += 1;
        if got != want {
            failed += 1;
            eprintln!(
                "FAILED {}: {what}: digest {got:016x}, expected {want:016x}",
                w.name
            );
        }
    };

    // Warm-up at the default seed: untimed, and the one repetition whose
    // output can be held against the committed digest whatever `--seed`
    // the timed repetitions use.
    let (golden_net, golden_wl) = w.configs(DEFAULT_SEED, opts.quick);
    let golden = digest(&untraced_rep(&golden_net, &golden_wl, &mut probe).report);
    println!("# {} default-seed digest {golden:016x}", w.name);
    let want = w
        .expected_digest(opts.quick)
        .expect("expected.txt covers every workload at both scales");
    check("default-seed repetition vs expected.txt", golden, want);

    let (net, wl) = w.configs(opts.seed, opts.quick);

    // Timed repetitions of bit-identical work, timed set-ups before each.
    let short = opts.quick || opts.trace;
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = SetupTimes::default();
    let budget = Instant::now();
    while if short {
        reps.len() < SHORT_REPS
    } else {
        reps.len() < MIN_REPS || budget.elapsed().as_secs_f64() < opts.seconds
    } {
        setup.time_more(&net, &wl, &mut probe);
        let rep = untraced_rep(&net, &wl, &mut probe);
        // Repetition 1 is the reference the others are held against.
        let got = digest(&rep.report);
        let want = reps.first().map_or(got, |first| digest(&first.report));
        let what = format!("repetition {} vs repetition 1", reps.len() + 1);
        check(&what, got, want);
        reps.push(rep);
    }
    let timing = Timing::of(reps);
    let rep_iqr_frac = iqr_frac(&timing.rep_nominal);
    let rep_wall: Vec<f64> = timing.reps.iter().map(|r| r.time.wall_s).collect();
    println!(
        "# {} {} timed reps: best composite {:.4} s nominal; whole reps nominal median {:.4} s \
         (iqr/median {rep_iqr_frac:.4}), wall median {:.4} s; core clock {:.3}x slower than nominal",
        w.name,
        rep_wall.len(),
        timing.run_s,
        quantile(&timing.rep_nominal, 0.5),
        quantile(&rep_wall, 0.5),
        timing.slowdown,
    );
    let listed: Vec<String> = rep_wall.iter().map(|t| format!("{t:.3}")).collect();
    println!("# {} rep wall seconds: {}", w.name, listed.join(" "));

    if opts.trace {
        let traced = traced_rep(&net, &wl, &mut probe);
        let first = &timing.reps[0];
        check(
            "traced repetition vs repetition 1",
            digest(&traced.0.report),
            digest(&first.report),
        );
        assert_eq!(traced.0.skipped_steps, first.skipped_steps);
        per_layer_values(&net, &timing, &setup, &traced, &mut values);
        values.set("host.loadavg1", load_before);
        micro::run(opts.seed, micro::Effort::new(opts.quick), &mut values);
    } else {
        end_to_end_values(&net, &timing, &setup, &mut values);
    }
    println!("# host.loadavg1 before {load_before} after {}", loadavg1());
    Outcome {
        values,
        attempted,
        failed,
        rep_iqr_frac,
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metrics a run of this kind reports, in catalogue order.
fn reported(trace: bool) -> Vec<MetricDef> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// The driver's summary: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn summary_json(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                outcome.values.get(&m.name),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_workload(w: &Workload, opts: &Opts) -> ExitCode {
    println!(
        "# workload {} seed {:#x} {} cycles{}{}",
        w.name,
        opts.seed,
        w.cycles(opts.quick),
        if opts.quick { " (quick)" } else { "" },
        if opts.trace { " (traced)" } else { "" },
    );
    println!(
        "# host.cpus {} | {} | commit {}",
        host_cpus(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    let outcome = measure(w, opts);
    let defs = reported(opts.trace);
    for m in &defs {
        println!("{} {} {}", m.name, outcome.values.get(&m.name), m.unit);
    }
    println!(
        "ops_failed/ops_attempted {}/{}",
        outcome.failed, outcome.attempted
    );
    if outcome.rep_iqr_frac > NOISY_IQR_FRAC {
        eprintln!(
            "warning: {}: repetitions disagree by {:.1} % of their median (host.rep_iqr_frac > {NOISY_IQR_FRAC}); \
             the host was busy and the timings above are less trustworthy than usual",
            w.name,
            outcome.rep_iqr_frac * 100.0
        );
    }
    println!("{}", summary_json(&outcome, &defs));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this program once per workload, so each gets a process —
/// and a `VmHWM` — of its own. Children inherit stdout and are waited for
/// one at a time.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut all_ok = true;
    for w in &workloads::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .status()
            .expect("re-executing the benchmark for one workload");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--list]"
            );
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for w in &workloads::ALL {
            println!("workload {} {} cycles: {}", w.name, w.cycles, w.why);
        }
        for m in metrics::end_to_end() {
            println!("{}", list_line(&m, "end_to_end"));
        }
        for m in metrics::per_layer() {
            println!("{}", list_line(&m, "per_layer"));
        }
        return ExitCode::SUCCESS;
    }
    match &opts.workload {
        Some(name) => run_workload(
            workloads::by_name(name).expect("parse_args checked the name"),
            &opts,
        ),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_human_spellings_of_the_flags_parse_alike() {
        let o = parse_args(&args(
            "--workload sat_8x8_wfa --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("sat_8x8_wfa"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(!parse_args(&args("--trace 0")).unwrap().trace);
        let o = parse_args(&args("--trace --quick --seed 0x21364")).unwrap();
        assert!(o.trace && o.quick);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    /// `--list` and the runs print from one catalogue; a `--quick` run of
    /// each kind must fill every name of its half, or `Values::get`
    /// panics here rather than in front of a user.
    #[test]
    fn list_and_quick_runs_print_the_same_names() {
        let w = workloads::by_name("fault_8x8_mesh_closed").unwrap();
        let mut printed = Vec::new();
        for trace in [false, true] {
            let opts = Opts {
                workload: Some(w.name.to_string()),
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                trace,
                quick: true,
                list: false,
            };
            let outcome = measure(w, &opts);
            assert_eq!(outcome.failed, 0);
            assert_eq!(outcome.attempted, 1 + SHORT_REPS + trace as usize);
            let json = summary_json(&outcome, &reported(trace));
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for m in reported(trace) {
                assert!(json.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                printed.push(m.name);
            }
        }
        let listed: Vec<String> = metrics::end_to_end()
            .into_iter()
            .chain(metrics::per_layer())
            .map(|m| m.name)
            .collect();
        assert_eq!(printed, listed);
    }
}
