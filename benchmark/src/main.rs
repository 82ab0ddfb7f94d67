//! The repo's benchmark. See `README.md` beside this package for what
//! every metric means and how the workloads were chosen.
//!
//! ```text
//! benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!               [--check-shape] [--smoke] [--repeat K] [--out FILE] [--out-dir DIR]
//! benchmark compare <a.json> <b.json>
//! benchmark manifest            # prints BENCHMARK.json
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last line
//! of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. It exits non-zero when the outputs do not match the oracle.

mod compare;
mod live;
mod loadgen;
mod metrics;
mod oracle;
mod passes;
mod procstat;
mod run;
mod serve;
mod stats;
mod trace;
mod walk;
mod workload;

use run::RunOptions;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Scale of `--smoke`: the same run with a twentieth of the stream.
const SMOKE_SCALE: f64 = 20.0;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_shape: bool,
    repeat: u64,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark run --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--check-shape] [--smoke] [--repeat K] [--out FILE] [--out-dir DIR]\n       \
         benchmark compare <a.json> <b.json>\n       benchmark manifest",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        check_shape: false,
        repeat: 1,
        out: None,
        out_dir: run::default_out_dir(),
    };
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--repeat" => parsed.repeat = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            "--check-shape" => parsed.check_shape = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if parsed.workload != "all" && workload::find(&parsed.workload).is_none() {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            parsed.seconds
        ));
    }
    if parsed.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    if smoke {
        parsed.seconds /= SMOKE_SCALE;
    }
    // The shape of a workload shows in the traced run.
    parsed.traced |= parsed.check_shape;
    Ok(parsed)
}

fn write_result_file(path: &Path, runs: Vec<Value>) -> std::io::Result<()> {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let file = Value::Map(vec![
        ("schema".to_string(), Value::Int(1)),
        ("host_cpus".to_string(), Value::Int((cpus as u64).into())),
        ("runs".to_string(), Value::Seq(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string(&file).map_err(std::io::Error::other)?;
    std::fs::write(
        path,
        text.replace("{\"workload\"", "\n{\"workload\"") + "\n",
    )
}

fn read_runs(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = root
        .field("runs", "result file")
        .map_err(|e| e.to_string())?;
    Ok(runs.as_seq().ok_or("`runs` is not a list")?.to_vec())
}

/// One run of one workload, in this process.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let workload = workload::find(&args.workload).expect("validated");
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
        check_shape: args.check_shape,
    };
    let result = if args.traced {
        run::traced(workload, &opts)
    } else {
        run::end_to_end(workload, &opts)
    }
    .map_err(|e| format!("{}: {e}", workload.name))?;
    result.print();
    if let Some(path) = &args.out {
        write_result_file(path, vec![result.to_value()])
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.result_line());
    Ok(result.correct)
}

/// Several runs — every workload, several seeds, or both — each in a child
/// process of its own, one at a time, as the driver runs them: a run that
/// inherited another's heap and threads would report the other's memory
/// and run warm where the other ran cold.
fn run_many(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut correct = true;
    let selected = workload::WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name);
    for w in selected {
        for seed in args.seed..args.seed + args.repeat {
            let part = args.out_dir.join(format!(
                "part-{}-{seed}-{}.json",
                w.name,
                std::process::id()
            ));
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir)
                .arg("--out")
                .arg(&part);
            if args.check_shape {
                child.arg("--check-shape");
            }
            let status = child.status().map_err(|e| format!("{}: {e}", w.name))?;
            correct &= status.success();
            if part.exists() {
                runs.extend(read_runs(&part)?);
                std::fs::remove_file(&part).map_err(|e| e.to_string())?;
            }
        }
    }
    if let Some(path) = &args.out {
        write_result_file(path, runs).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "all runs: {}",
        if correct { "correct" } else { "NOT CORRECT" }
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| {
            if run.workload == "all" || run.repeat > 1 {
                run_many(&run)
            } else {
                run_one(&run)
            }
        }),
        Some("compare") if args.len() == 3 => {
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| compare::parse_runs(&text).map_err(|e| format!("{path}: {e}")))
            };
            load(&args[1]).and_then(|a| Ok(compare::compare(&a, &load(&args[2])?)))
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
