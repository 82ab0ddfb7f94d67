//! One benchmark run of one workload: either the end-to-end run (tracing
//! off everywhere) or the traced run (layer walk + live traced passes).

use crate::live::live_trace;
use crate::metrics::{per_layer, END_TO_END};
use crate::oracle::{reference_check, Oracle, Tally};
use crate::passes::{detect_latencies_ms, run_pass, Load, PassOutcome};
use crate::procstat::{cpu_seconds, peak_rss_mb, reset_peak_rss};
use crate::serve::{self, WireStream};
use crate::stats::{calm_percentile, median, percentile};
use crate::walk::{layer_walk, Walk};
use crate::workload::{Workload, PACED_LOAD_SHARE};
use icpe_core::IcpePipeline;
use icpe_types::GpsRecord;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop passes per end-to-end run (the median is reported).
const SAT_PASSES: usize = 5;
/// Times set-up is repeated per end-to-end run (the median is reported).
const SETUPS: usize = 3;
/// Stretches the open-loop pass is cut into for `detect_p50_ms` (see
/// [`calm_percentile`]).
const CALM_SEGMENTS: usize = 10;
/// Ticks of the stream the exhaustive reference miner is run over.
const REFERENCE_TICKS: u32 = 40;

/// Options of a run that do not change what is measured.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Where traces and scratch checkpoints go.
    pub out_dir: PathBuf,
    pub check_shape: bool,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tally: Tally,
    /// Oracle, reference miner and walk all agree, and nothing failed.
    pub correct: bool,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Whether the open-loop pass was a valid latency measurement
    /// (end-to-end runs only).
    pub paced_valid: Option<bool>,
    /// Latency samples behind `detect_p50_ms`.
    pub samples: usize,
    /// Measured and written to the result file, but not gated and not in
    /// the driver's result line: `(name, value)`.
    pub info: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl RunResult {
    /// The driver's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.clone(), Value::Map(entry))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Int(self.tally.attempted.max(1).into()),
            ),
            ("failed".to_string(), Value::Int(self.tally.failed.into())),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The run as an entry of a result file (see `compare`).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, _)| (name.clone(), Value::Float(*value)))
            .collect();
        Value::Map(vec![
            (
                "workload".to_string(),
                Value::Str(self.workload.to_string()),
            ),
            ("seed".to_string(), Value::Int(self.seed.into())),
            ("seconds".to_string(), Value::Float(self.seconds)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Int(self.tally.attempted.into()),
            ),
            ("failed".to_string(), Value::Int(self.tally.failed.into())),
            (
                "paced_valid".to_string(),
                self.paced_valid.map_or(Value::Null, Value::Bool),
            ),
            (
                "samples".to_string(),
                Value::Int((self.samples as u64).into()),
            ),
            ("metrics".to_string(), Value::Map(metrics)),
            (
                "info".to_string(),
                Value::Map(
                    self.info
                        .iter()
                        .map(|(name, value)| (name.clone(), Value::Float(*value)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, then the notes.
    pub fn print(&self) {
        println!(
            "{} seed {} ({} run, {} s)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.seconds
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        println!(
            "  {:<44} {:>16.6} failed/attempted ({} / {})",
            "error_share",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            self.tally.failed,
            self.tally.attempted
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// Everything set-up produces.
struct Prepared {
    records: Vec<GpsRecord>,
    oracle: Oracle,
    wire: Option<WireStream>,
    reference: Result<Option<usize>, String>,
}

/// Set-up: generate the stream from the seed, run the oracle (and the
/// reference miner on its cut), render the wire form, launch once.
fn prepare(workload: &Workload, opts: &RunOptions) -> std::io::Result<Prepared> {
    let records = workload.records(opts.seed, workload.ticks(opts.seconds));
    let oracle = Oracle::run(workload, &records);
    let reference = reference_check(workload, &records, REFERENCE_TICKS);
    let wire = workload.over_tcp.then(|| WireStream::render(&records));
    let config = workload.config(false);
    if workload.over_tcp {
        serve::bind_once(&config)?;
    } else {
        IcpePipeline::launch(&config, |_| {}).finish();
    }
    Ok(Prepared {
        records,
        oracle,
        wire,
        reference,
    })
}

fn pass(workload: &Workload, prepared: &Prepared, load: Load) -> std::io::Result<PassOutcome> {
    let config = workload.config(false);
    match &prepared.wire {
        Some(wire) => serve::run_pass(&config, wire, &prepared.oracle, load),
        None => Ok(run_pass(&config, &prepared.records, &prepared.oracle, load).0),
    }
}

fn paced(workload: &Workload) -> Load {
    Load::Paced {
        ticks_per_s: workload.paced_ticks_per_s,
        group_records: workload.objects,
    }
}

fn host_note() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!("host_cpus {cpus}")
}

fn reference_note(prepared: &Prepared, notes: &mut Vec<String>) -> bool {
    match &prepared.reference {
        Ok(Some(sets)) => {
            notes.push(format!(
                "reference miner agrees on {sets} object sets of the 1/20 cut"
            ));
            true
        }
        Ok(None) => {
            notes.push("reference miner skipped: the 1/20 cut holds a cluster above 16".into());
            true
        }
        Err(mismatch) => {
            notes.push(format!("ORACLE MISMATCH: {mismatch}"));
            false
        }
    }
}

/// The end-to-end run: set-up (×3), five closed-loop passes, one open-loop
/// pass, all with instrumentation off.
pub fn end_to_end(workload: &'static Workload, opts: &RunOptions) -> std::io::Result<RunResult> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(prepare(workload, opts)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set-up ran");
    let n = prepared.records.len();
    let mut notes = vec![host_note()];
    let mut tally = Tally::default();
    let mut correct = reference_note(&prepared, &mut notes);

    // Memory from here on is the deployment's (and the stream it is fed
    // from), not set-up's transients.
    if !reset_peak_rss() {
        notes.push("peak_rss_mb includes set-up: /proc/self/clear_refs is not writable".into());
    }

    let cpu_before = cpu_seconds();
    let mut rps = Vec::with_capacity(SAT_PASSES);
    for _ in 0..SAT_PASSES {
        let outcome = pass(workload, &prepared, Load::Saturate)?;
        rps.push(outcome.records_per_s(n));
        tally.add(outcome.tally);
    }
    let cpu_s = match (cpu_before, cpu_seconds()) {
        (Some(before), Some(after)) => after - before,
        _ => {
            notes.push("cpu_s_per_mrec unavailable: /proc/self/stat is not readable".into());
            correct = false;
            0.0
        }
    };

    notes.push(format!(
        "closed-loop passes: {} records/s; set-ups: {} s",
        rps.iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        setup_s
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let outcome = pass(workload, &prepared, paced(workload))?;
    tally.add(outcome.tally);
    let latencies = detect_latencies_ms(&prepared.oracle, &outcome, workload.objects);
    let samples = latencies.len();
    let report = outcome.open_loop.expect("a paced pass reports its loop");
    let valid = report.valid();
    notes.push(format!(
        "paced pass {}: {samples} samples at {} ticks/s ({:.0} records/s offered), \
         generator lag p99 {:.3} ms, backlog growth {:.1} records/s",
        if valid {
            "valid"
        } else {
            "INVALID (not a latency)"
        },
        workload.paced_ticks_per_s,
        report.offered_rps,
        report.lag_p99_ms,
        report.backlog_growth_rps
    ));
    notes.push(format!(
        "offered load is {:.0}% of throughput_rps (the tick rates were set for {:.0}%)",
        report.offered_rps / median(&mut rps.clone()).unwrap_or(f64::NAN) * 100.0,
        PACED_LOAD_SHARE * 100.0
    ));
    let plain = |q: f64| percentile(&mut latencies.clone(), q).unwrap_or(0.0);
    notes.push(format!(
        "over all {samples} samples, calm or not: p50 {:.3} ms, p99 {:.3} ms (not gated: too host-dependent)",
        plain(0.5),
        plain(0.99)
    ));
    let info = vec![
        ("detect_p50_all_ms".to_string(), plain(0.5)),
        ("detect_p99_ms".to_string(), plain(0.99)),
    ];
    let rss = peak_rss_mb();
    if rss.is_none() {
        notes.push("peak_rss_mb unavailable: /proc/self/status is not readable".into());
        correct = false;
    }

    let measured = [
        ("setup_s", median(&mut setup_s).unwrap_or(0.0)),
        ("throughput_rps", median(&mut rps).unwrap_or(0.0)),
        (
            "detect_p50_ms",
            calm_percentile(&latencies, 0.5, CALM_SEGMENTS).unwrap_or(0.0),
        ),
        ("cpu_s_per_mrec", cpu_s / (SAT_PASSES * n) as f64 * 1e6),
        ("peak_rss_mb", rss.unwrap_or(0.0)),
    ];
    Ok(RunResult {
        workload: workload.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: false,
        tally,
        correct: correct && tally.failed == 0 && samples > 0,
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let (_, value) = measured
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("the end-to-end run did not measure {}", m.name));
                (m.name.to_string(), *value, m.unit)
            })
            .collect(),
        paced_valid: Some(valid),
        samples,
        info,
        notes,
    })
}

/// What `--check-shape` holds a workload to: that the traced run shows it
/// isolating what its "why" claims.
fn check_shape(
    workload: &Workload,
    walk: &Walk,
    prepared: &Prepared,
    inprocess_rps: f64,
) -> std::io::Result<Vec<String>> {
    let share = |layer: &str| walk.share(layer);
    let metric = |name: &str| walk.metric(name).unwrap_or(f64::NAN);
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        println!("  shape: {} {what}", if ok { "ok   " } else { "FAIL " });
        if !ok {
            failures.push(what);
        }
    };
    match workload.name {
        "dense_join" => {
            let join = share("cluster.query") + share("cluster.sync") + share("cluster.dbscan");
            require(
                join >= 0.55,
                format!("query+sync+dbscan {join:.3} of walk busy time ≥ 0.55"),
            );
            let e = share("pattern.enumerate");
            require(e <= 0.10, format!("pattern.enumerate {e:.3} ≤ 0.10"));
        }
        "pattern_heavy" => {
            let e = share("pattern.enumerate");
            require(
                e >= 0.50,
                format!("pattern.enumerate {e:.3} of walk busy time ≥ 0.50"),
            );
            let q = share("cluster.query");
            require(q <= 0.20, format!("cluster.query {q:.3} ≤ 0.20"));
        }
        "sparse_disorder" => {
            let pairs = metric("cluster.query.pairs_out");
            require(pairs == 0.0, format!("{pairs} pairs = 0"));
            let patterns = prepared.oracle.patterns.count;
            require(patterns == 0, format!("{patterns} patterns = 0"));
            let late = metric("runtime.aligner.late_dropped");
            require(
                late > 0.0 && late == prepared.oracle.late_dropped as f64,
                format!(
                    "{late} late drops > 0 and equal to the oracle's {}",
                    prepared.oracle.late_dropped
                ),
            );
            let head = share("runtime.aligner");
            println!("  shape: info  runtime.aligner {head:.3} of walk busy time");
        }
        "serve_fanout" => {
            let wire = prepared.wire.as_ref().expect("serve_fanout runs over TCP");
            let outcome = serve::run_pass(
                &workload.config(false),
                wire,
                &prepared.oracle,
                Load::Saturate,
            )?;
            let tcp = outcome.records_per_s(prepared.records.len());
            require(
                tcp < inprocess_rps,
                format!("{tcp:.0} records/s over TCP < {inprocess_rps:.0} in-process on the same stream"),
            );
        }
        _ => {
            for layer in crate::walk::LAYERS {
                println!(
                    "  shape: info  {layer} {:.3} of walk busy time",
                    share(layer)
                );
            }
        }
    }
    Ok(failures)
}

/// The traced run: the layer walk, then the live traced passes. Writes
/// `trace-<workload>.json` into the out directory.
pub fn traced(workload: &'static Workload, opts: &RunOptions) -> std::io::Result<RunResult> {
    let prepared = prepare(workload, opts)?;
    let mut notes = vec![host_note()];
    let mut correct = reference_note(&prepared, &mut notes);

    let walk = layer_walk(workload, &prepared.records, &prepared.oracle);
    if !walk.faithful {
        notes.push("ORACLE MISMATCH: the layer walk did not reproduce the oracle".into());
        correct = false;
    }
    let coverage = walk.metric("core.engine.walk_coverage").unwrap_or(0.0);
    if !(0.9..=1.1).contains(&coverage) {
        notes.push(format!(
            "walk_coverage {coverage:.3} is outside 0.9–1.1: the walk is missing a layer"
        ));
    }

    // The serial job is one thread: its CPU time is its wall time.
    let serial_cpu_s_per_mrec = prepared.oracle.serial_wall_s / prepared.records.len() as f64 * 1e6;
    let ckpt_dir = opts
        .out_dir
        .join(format!("ckpt-{}-{}", workload.name, std::process::id()));
    let live = live_trace(
        workload,
        &prepared.records,
        &prepared.oracle,
        serial_cpu_s_per_mrec,
        &ckpt_dir,
    )?;
    notes.push(format!(
        "bottleneck stage (most time blocked in front of it): {}",
        live.bottleneck
    ));
    notes.extend(live.failed_passes.iter().cloned());
    notes.push(format!(
        "walk glue (self time of walk.snapshot, outside every layer): {:.3} s",
        walk.recorder.self_s("walk.snapshot")
    ));

    let mut measured: Vec<(String, f64)> = walk
        .metrics
        .iter()
        .map(|(name, value)| (name.to_string(), *value))
        .collect();
    measured.extend(live.metrics.iter().cloned());
    let trace_path = opts.out_dir.join(format!("trace-{}.json", workload.name));
    walk.recorder.write(&trace_path, &measured)?;
    notes.push(format!(
        "{} spans written to {}",
        walk.recorder.spans.len(),
        trace_path.display()
    ));

    if opts.check_shape {
        let failures = check_shape(workload, &walk, &prepared, live.untraced_rps)?;
        if !failures.is_empty() {
            notes.push(format!("SHAPE CHECK FAILED: {}", failures.join("; ")));
            correct = false;
        }
    }

    let metrics = per_layer()
        .into_iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("the traced run did not measure {}", m.name))
                .1;
            (m.name, value, m.unit)
        })
        .collect();
    Ok(RunResult {
        workload: workload.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: true,
        tally: live.tally,
        correct: correct && live.tally.failed == 0,
        metrics,
        paced_valid: None,
        samples: 0,
        info: Vec::new(),
        notes,
    })
}

/// `benchmark/out` from the repo root, `out` from inside `benchmark/`.
pub fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}
