//! The repository benchmark.
//!
//! `perfbench measure` runs one workload through the real entry points
//! (`mmptcp::scenario` configs into `mmptcp::Driver`), checks every run's
//! output and prints the end-to-end metrics. `perfbench trace` re-runs the
//! workload through an instrumented replica of `mmptcp::experiment::run` and
//! prints the per-layer profile. `perfbench/run.py` builds this program and
//! drives it; see `perfbench/README.md` for every metric.

mod host;
mod json;
mod profile;
mod workload;

use json::Metric;
use mmptcp::netsim::{SimCounters, SimDuration};
use mmptcp::{Driver, ExperimentConfig};
use std::process::ExitCode;
use std::time::Instant;
use workload::{run_entries, Expected, Seed, Workload};

/// Set-up passes per run: at least this many, and for at least
/// `SETUP_SECONDS`; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// A time is scaled by the median reference time of the samples up to this
/// many places before and after it.
const REFERENCE_WINDOW: usize = 10;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <measure|trace|record> --workload <battle|fig1-long|mega> \
         [--seed <n|pinned>] [--seconds <s>] [--out <dir>]"
    );
    std::process::exit(2)
}

struct Args {
    command: String,
    workload: Workload,
    seed: Seed,
    seconds: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    let (mut workload, mut seed, mut seconds, mut out) =
        (None, Seed::Pinned, 45.0, "perfbench/out".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" if value == "pinned" => seed = Seed::Pinned,
            "--seed" => seed = Seed::Derived(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--out" => out = value,
            _ => usage(),
        }
    }
    Args {
        command,
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        out,
    }
}

/// What a benchmark command found: the result-line fields plus details for the
/// result file.
pub struct Outcome {
    /// Worker threads the runs used.
    threads: usize,
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    info: Vec<Metric>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A run's canonical report entry and engine counters, for comparing two
/// runs of the same config.
type Fingerprint = ((String, String), SimCounters);

/// A time measured right after a run of the reference kernel.
struct Sample {
    seconds: f64,
    reference: f64,
}

/// Each sample's time scaled to the reference host's speed (see
/// `host::REFERENCE_S`). Each is scaled by the median reference time of its
/// neighbours in measuring order, which follows the host's speed as it drifts
/// and damps the kernel's own jitter.
fn scaled(samples: &[Sample]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let window = &samples
                [i.saturating_sub(REFERENCE_WINDOW)..(i + REFERENCE_WINDOW + 1).min(samples.len())];
            let reference = median(window.iter().map(|s| s.reference).collect());
            samples[i].seconds * host::REFERENCE_S / reference
        })
        .collect()
}

/// The untraced pass: set-up time, then round-robin passes over every config
/// of the workload's inputs, one run at a time through `Driver`, until
/// `seconds` have elapsed and every check ran; each run is output-checked.
///
/// Pass times are per-config medians summed over the configs: the cost of
/// one pass over a fixed set of runs. Summing many runs averages out how much
/// work one seed gives each of them. The headline times are scaled by the
/// reference kernel run before each timed run, which takes out the speed
/// swings of a shared host; the host times are reported beside them.
fn measure(w: Workload, seed: Seed, seconds: f64) -> Result<Outcome, String> {
    let configs: Vec<(String, ExperimentConfig)> = w.inputs(seed).concat();
    let expected = Expected::load(w, seed)?;
    let driver = Driver::with_threads(1);
    let run = |config: &(String, ExperimentConfig)| {
        let results = driver.run_labelled(vec![config.clone()]);
        let doc = w.report(&results).to_json();
        (results, doc)
    };

    let setup_configs: Vec<_> = configs
        .iter()
        .map(|(label, cfg)| {
            let mut cfg = cfg.clone();
            cfg.max_sim_time = SimDuration::ZERO;
            (label.clone(), cfg)
        })
        .collect();
    let mut setup = Vec::new();
    let t = Instant::now();
    while setup.len() < SETUP_REPS || t.elapsed().as_secs_f64() < SETUP_SECONDS {
        let reference = host::reference_seconds();
        let t = Instant::now();
        for config in &setup_configs {
            std::hint::black_box(run(config));
        }
        let seconds = t.elapsed().as_secs_f64();
        setup.push(Sample { seconds, reference });
    }

    let start = Instant::now();
    // The timed runs in measuring order: config index, wall time, CPU time.
    let (mut order, mut samples, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut first_runs: Vec<Option<Fingerprint>> = vec![None; configs.len()];
    let (mut flows, mut events, mut sim_s) = (0, 0, 0.0);
    // Derived seeds have no recording, so their output check is determinism:
    // every config runs at least twice and must repeat its report entry and
    // engine counters exactly.
    let min_passes = match seed {
        Seed::Pinned => 1,
        Seed::Derived(_) => 2,
    };
    let mut runs = 0;
    while runs < min_passes * configs.len() || start.elapsed().as_secs_f64() < seconds {
        let i = runs % configs.len();
        let reference = host::reference_seconds();
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let (results, doc) = run(&configs[i]);
        let wall = t.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        attempted += results.len();
        let entries = run_entries(&doc)?;
        let mut run_failures = expected.check(&results, &entries);
        let (label, r) = &results[0];
        let fingerprint = (entries[0].clone(), r.counters);
        match &first_runs[i] {
            None => {
                flows += r.flows.len();
                events += r.counters.events_processed;
                sim_s += r.elapsed.as_secs_f64();
                first_runs[i] = Some(fingerprint);
            }
            Some(first) if *first != fingerprint => {
                run_failures.push(format!("{label}: repetition differs from the first"));
            }
            Some(_) => {}
        }
        if run_failures.is_empty() {
            order.push(i);
            samples.push(Sample {
                seconds: wall,
                reference,
            });
            cpus.push(cpu);
        }
        failures.extend(run_failures);
        runs += 1;
        if runs % configs.len() == 0 {
            eprintln!(
                "pass {} done at {:.1} s",
                runs / configs.len(),
                start.elapsed().as_secs_f64()
            );
        }
    }

    // Sum over the configs of each config's median.
    let pass_time = |values: &[f64]| -> Option<f64> {
        let mut per_config = vec![Vec::new(); configs.len()];
        for (&i, &v) in order.iter().zip(values) {
            per_config[i].push(v);
        }
        per_config
            .iter()
            .all(|v| !v.is_empty())
            .then(|| per_config.into_iter().map(median).sum())
    };
    let walls: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let references: Vec<f64> = samples.iter().chain(&setup).map(|s| s.reference).collect();

    let mut metrics = vec![Metric::new("setup_s", median(scaled(&setup)), "s")];
    let mut info = Vec::new();
    if let (Some(scaled_wall), Some(wall), Some(cpu)) = (
        pass_time(&scaled(&samples)),
        pass_time(&walls),
        pass_time(&cpus),
    ) {
        metrics.push(Metric::new("scaled_wall_s", scaled_wall, "s"));
        info.push(Metric::new("wall_s", wall, "s"));
        info.push(Metric::new("cpu_s", cpu, "s"));
    }
    metrics.push(Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MiB"));
    info.extend([
        Metric::new(
            "host_setup_s",
            median(setup.iter().map(|s| s.seconds).collect()),
            "s",
        ),
        Metric::new("reference_s", median(references), "s"),
        Metric::new("passes", runs as f64 / configs.len() as f64, "count"),
        Metric::new("setup_repetitions", setup.len() as f64, "count"),
        Metric::new("configs", configs.len() as f64, "count"),
        Metric::new("flows_per_pass", flows as f64, "count"),
        Metric::new("events_per_pass", events as f64, "count"),
        Metric::new("simulated_s_per_pass", sim_s, "s"),
    ]);
    Ok(Outcome {
        threads: driver.threads(),
        attempted,
        failures,
        metrics,
        info,
    })
}

/// Run the pinned `fig1-long` config once and write its report: the
/// expected document the benchmark checks that workload against.
fn record(w: Workload) -> Result<(), String> {
    if w != Workload::Fig1Long {
        return Err(format!(
            "{} is checked against a golden, not a recording",
            w.name()
        ));
    }
    let path = w.expected_path();
    let results = Driver::with_threads(1).run_labelled(w.configs(Seed::Pinned));
    for (label, r) in &results {
        r.check_conservation()
            .map_err(|e| format!("{label}: {e}"))?;
    }
    std::fs::write(path, w.report(&results).to_json()).map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = match args.command.as_str() {
        "measure" => measure(args.workload, args.seed, args.seconds),
        "trace" => profile::trace(args.workload, args.seed, &args.out),
        "record" => {
            return match record(args.workload) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => usage(),
    };
    match outcome {
        Ok(o) => {
            for f in &o.failures {
                eprintln!("FAILED {f}");
            }
            println!("{}", json::outcome(args.workload.name(), args.seed, &o));
            if o.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
