//! The serial run the integration tests share: drive an [`IcpeEngine`]
//! over a snapshot stream, or every §7.2 enumeration engine side by side.
#![allow(dead_code)]

use icpe::cluster::{RjcClusterer, SnapshotClusterer};
use icpe::core::{IcpeConfig, IcpeEngine};
use icpe::pattern::{BaselineEngine, PatternEngine, VbaEngine};
use icpe::types::{Pattern, Snapshot};

/// Every pattern `engine` reports on `stream`, end-of-stream flush included.
pub fn drive<C: SnapshotClusterer, E: PatternEngine>(
    mut engine: IcpeEngine<C, E>,
    stream: &[Snapshot],
) -> Vec<Pattern> {
    let mut out = Vec::new();
    for s in stream {
        out.extend(engine.push_snapshot(s.clone()));
    }
    out.extend(engine.finish());
    out
}

/// What BA, FBA and VBA each report on `stream` behind RJC clustering,
/// named, in that order.
pub fn run_every_engine(
    cfg: &IcpeConfig,
    stream: &[Snapshot],
) -> [(&'static str, Vec<Pattern>); 3] {
    let rjc = || RjcClusterer::new(cfg.lg, cfg.dbscan, cfg.metric);
    let ba = IcpeEngine::with_parts(rjc(), BaselineEngine::new(cfg.engine_config()));
    let vba = IcpeEngine::with_parts(rjc(), VbaEngine::new(cfg.engine_config()));
    [
        ("BA", drive(ba, stream)),
        ("FBA", drive(IcpeEngine::new(cfg.clone()), stream)),
        ("VBA", drive(vba, stream)),
    ]
}
