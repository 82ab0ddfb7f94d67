//! The benchmark's metric tables: every name, unit, direction and
//! regression bound, in one place. `BENCHMARK.json` at the repo root is
//! rendered from these tables (`benchmark manifest`), and a test keeps the
//! committed file equal to the rendering.

use crate::live::STAGES;
use crate::workload::WORKLOADS;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// How long one run measures at full scale, seconds.
pub const RUN_SECONDS: u32 = 12;

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "detect_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mrec",
        unit: "CPU-s/Mrec",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer. No bound: it explains, it does not gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The layer walk's metrics, then the live traced run's.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &str, Better); 46] = [
        ("types.discretize.ns_per_rec", "ns", Lower),
        ("serve.protocol.parse_ns_per_rec", "ns", Lower),
        ("serve.protocol.encode_ns_per_event", "ns", Lower),
        ("serve.hub.publish_ns_per_event", "ns", Lower),
        ("runtime.aligner.ns_per_rec", "ns", Lower),
        ("runtime.aligner.pending_max", "count", Lower),
        ("runtime.aligner.late_dropped", "count", Lower),
        ("runtime.sharded_aligner.route_ns_per_rec", "ns", Lower),
        ("cluster.allocate.busy_s", "s", Lower),
        ("cluster.allocate.replication", "ratio", Lower),
        ("cluster.query.busy_s", "s", Lower),
        ("cluster.query.ns_per_object", "ns", Lower),
        ("cluster.query.cells", "count", Lower),
        ("cluster.query.occupancy_p50", "count", Lower),
        ("cluster.query.occupancy_p95", "count", Lower),
        ("cluster.query.pairs_out", "count", Lower),
        ("index.rtree.build_ns_per_point", "ns", Lower),
        ("index.rtree.probe_ns_per_query", "ns", Lower),
        ("index.rtree.hits_per_probe", "ratio", Lower),
        ("cluster.sync.busy_s", "s", Lower),
        ("cluster.sync.dup_ratio", "ratio", Lower),
        ("cluster.dbscan.busy_s", "s", Lower),
        ("cluster.dbscan.clusters", "count", Higher),
        ("cluster.dbscan.mean_cluster_size", "count", Higher),
        ("pattern.partition.busy_s", "s", Lower),
        ("pattern.partition.partitions", "count", Higher),
        ("pattern.enumerate.busy_s", "s", Lower),
        ("pattern.enumerate.patterns_out", "count", Higher),
        ("pattern.enumerate.ns_per_pattern", "ns", Lower),
        ("persist.store.save_ms", "ms", Lower),
        ("persist.store.load_ms", "ms", Lower),
        ("persist.store.bytes", "bytes", Lower),
        ("core.checkpoint.barrier_ms", "ms", Lower),
        ("core.engine.serial_rps", "records/s", Higher),
        ("core.engine.walk_coverage", "ratio", Higher),
        ("runtime.exchange.blocked_s", "s", Lower),
        ("runtime.exchange.queue_depth_max", "count", Lower),
        ("core.pipeline.trace_overhead", "ratio", Lower),
        ("core.pipeline.parallel_cost", "ratio", Lower),
        ("core.supervisor.overhead", "ratio", Lower),
        ("core.supervisor.recovery_ms", "ms", Lower),
        ("core.supervisor.replayed_records", "count", Lower),
        ("core.supervisor.misdelivered", "count", Lower),
        ("detect_p99_ms", "ms", Lower),
        ("loadgen.lag_p99_ms", "ms", Lower),
        ("loadgen.backlog_growth_rps", "records/s", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for stage in STAGES {
        for (suffix, unit) in [("busy_s", "s"), ("share", "ratio"), ("blocked_s", "s")] {
            out.push(PerLayer {
                name: format!("core.stage.{stage}.{suffix}"),
                unit,
                better: Lower,
            });
        }
    }
    out
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders `BENCHMARK.json`, one entry per line.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let line = |v: &Value| serde_json::to_string(v).expect("manifest serializes");
    let list = |items: Vec<Value>| {
        let lines: Vec<String> = items.iter().map(|v| format!("    {}", line(v))).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            object(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
                ("bound", Value::Float(m.bound)),
            ])
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|m| {
            object(vec![
                ("name", text(&m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        line(&Value::Seq(command.iter().map(|s| text(s)).collect())),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_within_the_manifest_contract() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(layers.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
        );
        let parsed = serde_json::parse(&committed).unwrap();
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
