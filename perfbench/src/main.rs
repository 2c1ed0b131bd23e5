//! The selfstab benchmark: fixed-work, seed-determined units of the
//! simulator's user-facing work, repeated and summarized by their median.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets up its inputs from the seed (timed, several times),
//! runs one untimed warm-up unit, then a fixed number of identical timed
//! units (the count follows from `--seconds` and the workload's nominal
//! unit time, never from a clock). Every unit's outputs are checked; the
//! last line of standard output is the JSON result. A traced run also
//! writes its spans and layer partition to `perfbench/out/`, relative to
//! the working directory. `run.py` builds this program and is the command
//! users run.

mod cells;
mod converge;
mod layers;
mod recover;
mod suite;

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

use layers::{Counters, SpanLog};

/// Fewest timed units a run makes, whatever `--seconds` says.
const MIN_UNITS: usize = 4;

/// Per-layer values of one traced unit, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The tracing state handed to a traced unit: call counters for the
/// wrappers, the span log, and the span the unit's spans hang under.
pub struct Tracer {
    pub counters: Counters,
    pub spans: SpanLog,
    pub parent: Option<usize>,
}

/// What one unit did.
#[derive(Default)]
pub struct UnitOutcome {
    /// Wall time of the unit's measured work.
    pub seconds: f64,
    /// The unit's fixed work (activations, or campaign cells).
    pub work: u64,
    /// One latency per operation of the unit, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall times of the unit's work outside its operations (simulation
    /// construction, rendering), in milliseconds: part of `work_per_s`,
    /// not of the latency percentiles.
    pub extra_ms: Vec<f64>,
    /// Operations the unit checked, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of everything the unit computed; equal for every unit.
    pub digest: Vec<u64>,
    /// Per-layer values (traced units only).
    pub layers: Layers,
}

/// One workload: a set-up that makes its inputs from the seed and a
/// repeatable unit of work over them.
pub trait Bench: Sized {
    /// Rough wall time of one unit on a 2-vCPU x86-64 guest; only used to
    /// turn `--seconds` into a fixed unit count.
    const NOMINAL_UNIT_S: f64;

    /// Set-up repetitions per run; `setup_s` is their median.
    const SETUP_REPS: usize;

    /// The per-layer metrics whose self times partition a traced unit;
    /// `unattributed_s` is the unit time they leave over.
    const SELF_TIMES: &'static [&'static str];

    /// Whether the unit runs on this thread alone, so that successive
    /// units can be pinned to successive CPUs.
    const SINGLE_THREADED: bool = true;

    /// Builds the inputs; also returns the seconds spent building graphs.
    fn setup(seed: u64) -> Result<(Self, f64), String>;

    /// Runs one unit, traced when `tracer` is given.
    fn unit(&self, tracer: Option<&mut Tracer>) -> UnitOutcome;
}

/// Every end-to-end metric with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("recovery_p50_ms", "ms"),
    ("recovery_p90_ms", "ms"),
];

/// Every per-layer metric with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("executor.construct_s", "s"),
    ("executor.step_self_s", "s"),
    ("executor.steps", "count"),
    ("executor.activations", "count"),
    ("executor.guard_evals", "count"),
    ("executor.guard_evals_per_activation", "ratio"),
    ("scheduler.select_s", "s"),
    ("scheduler.select_ns_per_call", "ns"),
    ("protocol.guard_s", "s"),
    ("protocol.guard_calls", "count"),
    ("protocol.activate_s", "s"),
    ("protocol.activate_calls", "count"),
    ("protocol.executed_share", "ratio"),
    ("protocol.reads_per_activation", "ratio"),
    ("check.s", "s"),
    ("check.calls", "count"),
    ("faults.inject_s", "s"),
    ("faults.victims", "count"),
    ("faults.recovery_steps", "count"),
    ("faults.recovery_rounds", "count"),
    ("campaign.cells", "count"),
    ("campaign.cell_p50_ms", "ms"),
    ("campaign.cell_p99_ms", "ms"),
    ("campaign.busy_share", "ratio"),
    ("experiments.E1_s", "s"),
    ("experiments.E2_s", "s"),
    ("experiments.E3_s", "s"),
    ("experiments.E4_s", "s"),
    ("experiments.E5_s", "s"),
    ("experiments.E6_s", "s"),
    ("experiments.E7-E8_s", "s"),
    ("experiments.E9_s", "s"),
    ("experiments.E10_s", "s"),
    ("experiments.E11_s", "s"),
    ("experiments.E12_s", "s"),
    ("experiments.E13_s", "s"),
    ("experiments.E14_s", "s"),
    ("table.render_s", "s"),
    ("table.bytes", "bytes"),
    ("unattributed_s", "s"),
    ("trace.overhead", "ratio"),
];

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins this process's main thread to `cpu` with `taskset`; a host without
/// `taskset` leaves the thread where the kernel put it.
///
/// The host's virtual CPUs slow down in turn, for minutes at a time, while
/// other tenants load the physical cores behind them, and the kernel sees
/// no reason to move an unloaded thread off a slow one. Successive units
/// are therefore pinned to successive CPUs, so every operation's best time
/// is taken over all of them.
fn pin_to_cpu(cpu: usize) {
    let _ = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// The result of one run, before rendering.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies operations and checks every unit's digest against the
/// warm-up's.
struct Tally {
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, outcome: &UnitOutcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if outcome.digest != self.reference {
            // A unit that computed something else than the warm-up is one
            // more failed operation.
            self.attempted += 1;
            self.failed += 1;
        }
    }
}

/// Each operation's best time over `outcomes`, for the operations that
/// `ops` picks out of a unit.
fn best_of(outcomes: &[UnitOutcome], ops: fn(&UnitOutcome) -> &Vec<f64>) -> Vec<f64> {
    (0..ops(&outcomes[0]).len())
        .map(|i| {
            outcomes
                .iter()
                .map(|o| ops(o)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn execute<B: Bench>(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let units = ((seconds / B::NOMINAL_UNIT_S).round() as usize).max(MIN_UNITS);
    let mut setup_s = Vec::with_capacity(B::SETUP_REPS);
    let mut graph_build_s = Vec::with_capacity(B::SETUP_REPS);
    let mut spans = SpanLog::default();
    let mut set_up = |spans: Option<&mut SpanLog>| -> Result<B, String> {
        let started = Instant::now();
        let (bench, graph_s) = B::setup(seed)?;
        let seconds = started.elapsed().as_secs_f64();
        if let Some(spans) = spans {
            spans.record("setup", None, seconds, &[("graph_build_s", graph_s)]);
        }
        setup_s.push(seconds);
        graph_build_s.push(graph_s);
        Ok(bench)
    };
    let mut bench = Some(set_up(Some(&mut spans))?);
    // The other set-ups run between the timed units, spread evenly, each
    // replacing the inputs with an identical fresh copy, so that `setup_s`
    // samples the whole run and not only its first second.
    let timed_units = if trace {
        2 * (units / 2).max(MIN_UNITS / 2)
    } else {
        units
    };
    let extra_setups = B::SETUP_REPS - 1;
    let setups_before =
        |i: usize| (i + 1) * extra_setups / timed_units - i * extra_setups / timed_units;

    let warm = bench.as_ref().expect("set up").unit(None);
    let mut tally = Tally {
        reference: warm.digest.clone(),
        attempted: warm.attempted,
        failed: warm.failed,
    };
    let work = warm.work;
    eprintln!("perfbench: {units} timed units of {work} work");

    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut done = 0;
    let mut run_units = |count: usize, tally: &mut Tally, tracer: &mut Option<Tracer>| {
        let mut outcomes = Vec::with_capacity(count);
        for i in 0..count {
            for _ in 0..setups_before(done) {
                // Drop the old inputs first so peak memory holds one copy.
                bench = None;
                bench = Some(set_up(None)?);
            }
            if B::SINGLE_THREADED && cpus > 1 {
                pin_to_cpu(done % cpus);
            }
            done += 1;
            let bench = bench.as_ref().expect("set up");
            let outcome = match tracer.as_mut() {
                None => bench.unit(None),
                Some(t) => {
                    let span = t.spans.open(format!("unit {i}"), None);
                    t.parent = Some(span);
                    let outcome = bench.unit(Some(t));
                    t.spans.close(span, &[("work", outcome.work as f64)]);
                    outcome
                }
            };
            tally.add(&outcome);
            if outcome.work != work {
                tally.attempted += 1;
                tally.failed += 1;
            }
            eprintln!("perfbench: unit {i}: {:.4} s", outcome.seconds);
            outcomes.push(outcome);
        }
        Ok::<_, String>(outcomes)
    };

    let mut timings = None;
    let mut layer_values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_s = Vec::new();
    if !trace {
        let outcomes = run_units(units, &mut tally, &mut None)?;
        // Every unit repeats the same operations; each operation's best
        // repetition is its time with the least interference from other
        // tenants of the host.
        let best_ms = best_of(&outcomes, |o| &o.latencies_ms);
        let best_extra_ms = best_of(&outcomes, |o| &o.extra_ms);
        let best_unit_s = (best_ms.iter().sum::<f64>() + best_extra_ms.iter().sum::<f64>()) / 1e3;
        let unit_s: Vec<f64> = outcomes.iter().map(|o| o.seconds).collect();
        eprintln!(
            "perfbench: median unit {:.4} s, best-of-units unit {best_unit_s:.4} s",
            median(&unit_s)
        );
        timings = Some((
            work as f64 / best_unit_s,
            quantile(&best_ms, 0.5),
            quantile(&best_ms, 0.9),
        ));
    } else {
        let half = timed_units / 2;
        let plain = run_units(half, &mut tally, &mut None)?;
        let mut tracer = Some(Tracer {
            counters: Counters::default(),
            spans: std::mem::take(&mut spans),
            parent: None,
        });
        let mut traced = run_units(half, &mut tally, &mut tracer)?;
        spans = tracer.expect("traced runs keep a tracer").spans;
        for outcome in &mut traced {
            let attributed: f64 = B::SELF_TIMES
                .iter()
                .map(|name| outcome.layers.get(name).copied().unwrap_or(0.0))
                .sum();
            outcome
                .layers
                .insert("unattributed_s", outcome.seconds - attributed);
        }
        let plain_s: Vec<f64> = plain.iter().map(|o| o.seconds).collect();
        traced_s = traced.iter().map(|o| o.seconds).collect();
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for outcome in &traced {
            for (&name, &value) in &outcome.layers {
                layers.entry(name).or_default().push(value);
            }
        }
        layers.insert("trace.overhead", vec![median(&traced_s) / median(&plain_s)]);
        for (&name, values) in &layers {
            layer_values.insert(name, median(values));
        }
        let unknown: Vec<&str> = layers
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            .copied()
            .collect();
        assert!(
            unknown.is_empty(),
            "layers missing from PER_LAYER: {unknown:?}"
        );
        let observed: Vec<&str> = layers.keys().copied().collect();
        eprintln!(
            "perfbench: layers observed on this workload: {}",
            observed.join(" ")
        );
    }

    let metrics = if let Some((work_per_s, p50, p90)) = timings {
        let values = [median(&setup_s), work_per_s, peak_rss_mb(), p50, p90];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    } else {
        layer_values.insert("graph.build_s", median(&graph_build_s));
        let self_times: Vec<String> = B::SELF_TIMES.iter().map(|n| format!("\"{n}\"")).collect();
        let summary = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"setup_s\": {}, \"unit_s\": {}, \"self_times\": [{}], \"spans\": {}}}\n",
            median(&setup_s),
            median(&traced_s),
            self_times.join(", "),
            spans.to_json()
        );
        let path = format!("perfbench/out/spans-{workload}-seed{seed}.json");
        std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, summary))
            .map_err(|err| format!("cannot write spans to {path}: {err}"))?;
        // A layer the workload does not pass through reads 0.
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layer_values.get(name).copied().unwrap_or(0.0)))
            .collect()
    };
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <converge-central|converge-dense|recover|suite> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let (workload, seed, seconds, trace) =
        (args.workload.as_str(), args.seed, args.seconds, args.trace);
    let result = match workload {
        "converge-central" => execute::<converge::Central>(workload, seed, seconds, trace),
        "converge-dense" => execute::<converge::Dense>(workload, seed, seconds, trace),
        "recover" => execute::<recover::Recover>(workload, seed, seconds, trace),
        "suite" => execute::<suite::Suite>(workload, seed, seconds, trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
