//! The repository's end-to-end benchmark. One command runs every workload,
//! checks the outputs and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--aa] [--bless]
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod fleet;
mod forecast;
mod loadgen;
mod replay;
mod report;
mod stats;
mod trace;

use fleet::FleetSpec;
use forecast::ForecastSpec;
use mca_telemetry::json::{self, JsonValue};
use report::{Metric, Rep};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A benchmark workload.
enum Workload {
    Fleet(Box<FleetSpec>),
    Forecast(ForecastSpec),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    fn all() -> Vec<Workload> {
        vec![
            Workload::Fleet(Box::new(FleetSpec::steady())),
            Workload::Fleet(Box::new(FleetSpec::solver())),
            Workload::Fleet(Box::new(FleetSpec::elastic())),
            Workload::Forecast(ForecastSpec::indexed()),
            Workload::Forecast(ForecastSpec::linear()),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Workload::Fleet(spec) => spec.name,
            Workload::Forecast(spec) => spec.name,
        }
    }

    fn sizes(&self) -> String {
        match self {
            Workload::Fleet(spec) => spec.sizes(),
            Workload::Forecast(spec) => spec.sizes(),
        }
    }

    /// Threads the program under test runs on.
    fn threads(&self) -> usize {
        match self {
            Workload::Fleet(spec) => spec.threads,
            Workload::Forecast(_) => 1,
        }
    }

    fn run_rep(&self, seed: u64, traced: bool) -> Rep {
        let mut rep = match self {
            Workload::Fleet(spec) => fleet::run_rep(spec, seed, traced),
            Workload::Forecast(spec) => forecast::run_rep(spec, seed, traced),
        };
        rep.peak_rss_mb = peak_rss_mb();
        rep
    }
}

/// The command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        aa: false,
        bless: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.aa && args.trace {
        return Err("--aa compares end-to-end metrics; it runs untraced".to_string());
    }
    Ok(args)
}

/// `benchmark/`, wherever the checkout is.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// What `BENCHMARK.json` fixes: the run length and each end-to-end metric's
/// direction and regression bound.
struct Contract {
    run_seconds: f64,
    /// `(name, higher is better, bound)`.
    bounds: Vec<(String, bool, f64)>,
}

fn read_contract() -> Result<Contract, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |value: &JsonValue, key: &str| {
        value
            .get(key)
            .cloned()
            .ok_or(format!("BENCHMARK.json: no `{key}`"))
    };
    let run_seconds = field(&root, "run_seconds")?
        .as_f64()
        .ok_or("BENCHMARK.json: `run_seconds` is not a number")?;
    let mut bounds = Vec::new();
    for metric in field(&root, "end_to_end")?.as_array().unwrap_or(&[]) {
        let name = field(metric, "name")?.as_str().unwrap_or("").to_string();
        let higher = field(metric, "better")?.as_str() == Some("higher");
        let bound = field(metric, "bound")?
            .as_f64()
            .ok_or("BENCHMARK.json: a `bound` is not a number")?;
        bounds.push((name, higher, bound));
    }
    Ok(Contract {
        run_seconds,
        bounds,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One workload's run: its metrics and its failure count.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object the last line of the output carries.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    if m.value.is_finite() { m.value } else { 0.0 },
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs repetitions of `workload` for `seconds` and folds them into its
/// metrics, checking that every repetition produced the same outputs and
/// that they are the recorded ones.
fn run_workload(workload: &Workload, args: &Args, seconds: f64) -> Outcome {
    let name = workload.name();
    println!("== {name} ==");
    println!(
        "  why/sizes: {}; seed {}, {seconds} s, {}",
        workload.sizes(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let expired = || Instant::now() >= deadline;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        // traced and untraced repetitions of the same inputs alternate; the
        // last untraced one is the base of the tracing overhead (not the
        // first if there is another: the process's first repetition pays
        // for growing the heap)
        untraced.push(workload.run_rep(args.seed, false));
        loop {
            traced.push(workload.run_rep(args.seed, true));
            if expired() {
                break;
            }
            untraced.push(workload.run_rep(args.seed, false));
            if expired() {
                break;
            }
        }
    } else {
        loop {
            untraced.push(workload.run_rep(args.seed, false));
            if expired() {
                break;
            }
        }
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut messages: Vec<String> = Vec::new();
    for rep in untraced.iter().chain(&traced) {
        attempted += rep.attempted;
        failed += rep.failed;
        messages.extend(rep.messages.iter().cloned());
    }
    let signature = untraced[0].signature();
    let mut output_check = |ok: bool, what: String| {
        attempted += 1;
        if !ok {
            failed += 1;
            messages.push(what);
        }
    };
    for rep in untraced.iter().chain(&traced).skip(1) {
        output_check(
            rep.signature() == signature,
            format!(
                "a repetition produced other outputs than the first:\n{}",
                rep.signature()
            ),
        );
    }
    let expected_path = package_dir().join(format!("expected/{name}-{}.txt", args.seed));
    if args.bless {
        match std::fs::write(&expected_path, &signature) {
            Ok(()) => println!("  wrote {}", expected_path.display()),
            Err(error) => output_check(false, format!("{}: {error}", expected_path.display())),
        }
    } else if let Ok(expected) = std::fs::read_to_string(&expected_path) {
        output_check(
            expected == signature,
            format!(
                "outputs differ from {}:\n{expected}",
                expected_path.display()
            ),
        );
    } else {
        println!(
            "  no recorded outputs for seed {} (checked across repetitions only)",
            args.seed
        );
    }

    let (reps, metrics) = if args.trace {
        let reference = untraced.last().expect("a traced run starts untraced");
        let metrics = report::per_layer(&traced, reference);
        (traced, metrics)
    } else {
        let metrics = report::end_to_end(&untraced);
        (untraced, metrics)
    };
    let samples: usize = reps.iter().map(|r| r.service_ns.len()).sum();
    println!(
        "  {} {} repetition(s), {samples} service samples",
        reps.len(),
        if args.trace { "traced" } else { "untraced" }
    );
    if !args.trace && !report::p99_supported(&reps) {
        println!(
            "  note: a repetition leaves fewer than {} samples beyond its p99",
            stats::MIN_BEYOND
        );
    }
    for metric in &metrics {
        println!(
            "  {:<44} {:>16.4} {:<6} repetitions {:.4} .. {:.4}",
            metric.name, metric.value, metric.unit, metric.rep_min, metric.rep_max
        );
    }
    print!("  outputs:\n{}", indent(&signature));
    println!(
        "  ops_attempted {attempted}  ops_failed {failed}  failed_share {}",
        failed as f64 / attempted.max(1) as f64
    );
    for message in &messages {
        println!("  FAILED: {message}");
    }
    if let Some(trace) = reps.into_iter().next().and_then(|rep| rep.trace) {
        let path = package_dir().join(format!("out/trace-{name}.json"));
        match trace.write_json(&path) {
            Ok(()) => println!(
                "  {} spans of the first traced repetition in {}",
                trace.spans().len(),
                path.display()
            ),
            Err(error) => println!("  could not write {}: {error}", path.display()),
        }
    }
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

fn indent(text: &str) -> String {
    text.lines().map(|line| format!("    {line}\n")).collect()
}

/// One side of an A/A comparison: this program once more, in a process of
/// its own, exactly as the regression driver runs it (a memory high-water
/// mark belongs to a process, so two sides cannot share one). Returns the
/// end-to-end values in [`report::END_TO_END`] order.
fn run_side(workload: &str, args: &Args, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run this program: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload}: the run failed ({})", output.status));
    }
    let result = json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: no result line: {e}"))?;
    report::END_TO_END
        .iter()
        .map(|(name, _)| {
            result
                .get("metrics")
                .and_then(|metrics| metrics.get(name))
                .and_then(|metric| metric.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{workload}: the result line has no {name}"))
        })
        .collect()
}

/// Runs the set twice back to back and holds every end-to-end metric's
/// difference against its bound.
fn run_aa(selected: &[Workload], args: &Args, contract: &Contract, seconds: f64) -> bool {
    let mut pass = true;
    for workload in selected {
        let name = workload.name();
        let sides =
            run_side(name, args, seconds).and_then(|a| Ok((a, run_side(name, args, seconds)?)));
        let (a, b) = match sides {
            Ok(sides) => sides,
            Err(error) => {
                println!("== A/A {name} ==\n  FAIL: {error}");
                pass = false;
                continue;
            }
        };
        println!("== A/A {name} ==");
        for (((metric, _), first), second) in report::END_TO_END.iter().zip(a).zip(b) {
            let bound = contract
                .bounds
                .iter()
                .find(|(name, _, _)| name == metric)
                .map_or(f64::NAN, |(_, _, bound)| *bound);
            let difference = (second - first).abs() / first;
            let ok = difference <= bound;
            pass &= ok;
            println!(
                "  {metric:<20} A {first:>14.4}  B {second:>14.4}  difference {:>7.3} %  bound {:>5.1} %  {}",
                difference * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark reports from --release builds only");
        return ExitCode::from(2);
    }
    let contract = match read_contract() {
        Ok(contract) => contract,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };
    let mut selected = Workload::all();
    if let Some(name) = &args.workload {
        selected.retain(|w| w.name() == name);
        if selected.is_empty() {
            let names: Vec<&str> = Workload::all().iter().map(Workload::name).collect();
            eprintln!("error: no workload {name}; there are {}", names.join(", "));
            return ExitCode::from(2);
        }
    }
    let threads = selected.iter().map(Workload::threads).max().unwrap_or(1);
    if threads > nproc() {
        eprintln!(
            "error: the workload runs {threads} engine threads and this machine has {} core(s); \
             its timings would measure time slicing",
            nproc()
        );
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let git_dir = package_dir().display().to_string();
    println!(
        "env: nproc {}, engine threads {threads}, {}, commit {}, profile release (lto thin, \
         1 codegen unit), seed {}, {seconds} s per workload, closed loop, 1 client",
        nproc(),
        command_line("rustc", &["-V"]),
        command_line("git", &["-C", &git_dir, "rev-parse", "--short", "HEAD"]),
        args.seed,
    );

    if args.aa {
        return if run_aa(&selected, &args, &contract, seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut correct = true;
    for workload in &selected {
        let outcome = run_workload(workload, &args, seconds);
        correct &= outcome.correct();
        // the result object is the last line a single-workload run prints
        println!("{}", outcome.json());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(value: &JsonValue, key: &str) -> Vec<(String, String)> {
        value
            .get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|entry| {
                let text = |k: &str| {
                    entry
                        .get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_reports() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
        let root = json::parse(&text).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&root, "end_to_end"), owned(report::END_TO_END));
        assert_eq!(names(&root, "per_layer"), owned(report::PER_LAYER));
        let workloads: Vec<String> = names(&root, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = Workload::all().iter().map(Workload::name).collect();
        assert_eq!(workloads, ours);
        let contract = read_contract().unwrap();
        assert_eq!(contract.bounds.len(), report::END_TO_END.len());
        assert!(contract
            .bounds
            .iter()
            .all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
        let higher: Vec<&str> = contract
            .bounds
            .iter()
            .filter(|(_, higher, _)| *higher)
            .map(|(name, _, _)| name.as_str())
            .collect();
        assert_eq!(higher, ["records_per_s"]);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contracts_keys() {
        let outcome = Outcome {
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
                rep_min: 0.8,
                rep_max: 0.9,
            }],
            attempted: 1_000,
            failed: 0,
        };
        let parsed = json::parse(&outcome.json()).unwrap();
        assert_eq!(
            parsed.get("attempted").and_then(JsonValue::as_u64),
            Some(1_000)
        );
        assert_eq!(parsed.get("failed").and_then(JsonValue::as_u64), Some(0));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert!(outcome.json().starts_with("{\"correct\": true, "));
    }
}
