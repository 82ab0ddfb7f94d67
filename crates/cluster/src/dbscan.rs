//! DBSCAN over the neighbor-pair stream (§5.3).
//!
//! Once the range join has produced every ε-neighbor pair, DBSCAN reduces to
//! linear bookkeeping (the paper's O(n) claim): neighbor counts identify
//! **core points** (Definition 8), the union-find closure over core–core
//! edges forms the cluster skeletons, and every **density-reachable border
//! point** (Definition 9) attaches to an adjacent core's cluster. Points in
//! no cluster are noise and are omitted.

use crate::query::NeighborPair;
use icpe_types::{Cluster, ClusterSnapshot, DbscanParams, ObjectId, Timestamp};
use std::collections::HashMap;

/// The clustering outcome, including per-point roles (useful for tests and
/// diagnostics; the pipeline only forwards [`DbscanOutcome::snapshot`]).
#[derive(Debug, PartialEq)]
pub struct DbscanOutcome {
    /// Clusters of core + border points.
    pub snapshot: ClusterSnapshot,
    /// Ids of core points.
    pub cores: Vec<ObjectId>,
    /// Ids of border (density-reachable, non-core) points.
    pub borders: Vec<ObjectId>,
    /// Ids of noise points.
    pub noise: Vec<ObjectId>,
}

/// Runs DBSCAN at time `time` over `objects` (all ids present in the
/// snapshot) given the neighbor `pairs` of the range join, each pair once,
/// in any order.
pub fn dbscan_from_pairs(
    time: Timestamp,
    objects: &[ObjectId],
    pairs: &[NeighborPair],
    params: &DbscanParams,
) -> DbscanOutcome {
    // Dense indexing of the ids.
    let mut index: HashMap<ObjectId, usize> = HashMap::with_capacity(objects.len());
    for (i, &id) in objects.iter().enumerate() {
        index.insert(id, i);
    }
    let n = objects.len();
    let mut degree = vec![0usize; n];
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) else {
            debug_assert!(false, "pair references object missing from snapshot");
            continue;
        };
        if ia == ib {
            continue;
        }
        degree[ia] += 1;
        degree[ib] += 1;
        edges.push((ia, ib));
    }

    let self_count = usize::from(params.count_self);
    let is_core: Vec<bool> = degree
        .iter()
        .map(|&d| d + self_count >= params.min_pts)
        .collect();

    // Union the core-core edges.
    let mut dsu = Dsu::new(n);
    for &(a, b) in &edges {
        if is_core[a] && is_core[b] {
            dsu.union(a, b);
        }
    }

    // Attach borders: a non-core adjacent to ≥1 core joins the cluster of
    // its smallest-id core neighbor (deterministic tie-break).
    let mut border_root: Vec<Option<usize>> = vec![None; n];
    for &(a, b) in &edges {
        for (x, y) in [(a, b), (b, a)] {
            if !is_core[x] && is_core[y] {
                let better = match border_root[x] {
                    None => true,
                    Some(curr) => objects[y] < objects[curr],
                };
                if better {
                    border_root[x] = Some(y);
                }
            }
        }
    }

    // Gather clusters.
    let mut groups: HashMap<usize, Vec<ObjectId>> = HashMap::new();
    let mut cores = Vec::new();
    let mut borders = Vec::new();
    let mut noise = Vec::new();
    for i in 0..n {
        if is_core[i] {
            groups.entry(dsu.find(i)).or_default().push(objects[i]);
            cores.push(objects[i]);
        } else if let Some(core) = border_root[i] {
            groups.entry(dsu.find(core)).or_default().push(objects[i]);
            borders.push(objects[i]);
        } else {
            noise.push(objects[i]);
        }
    }
    let mut snapshot = ClusterSnapshot {
        time,
        clusters: groups.into_values().map(Cluster::new).collect(),
    };
    snapshot.normalize();
    cores.sort_unstable();
    borders.sort_unstable();
    noise.sort_unstable();
    DbscanOutcome {
        snapshot,
        cores,
        borders,
        noise,
    }
}

/// Union-find with path halving and union by size.
#[derive(Debug)]
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    fn ids(v: &[u32]) -> Vec<ObjectId> {
        v.iter().copied().map(ObjectId).collect()
    }

    fn params(min_pts: usize) -> DbscanParams {
        DbscanParams::new(1.0, min_pts).unwrap()
    }

    #[test]
    fn chain_of_cores_forms_one_cluster() {
        // 1-2-3-4 path; minPts=2 with count_self → degree ≥ 1 makes core.
        let objects = ids(&[1, 2, 3, 4]);
        let pairs = vec![(oid(1), oid(2)), (oid(2), oid(3)), (oid(3), oid(4))];
        let out = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &params(2));
        assert_eq!(out.snapshot.clusters.len(), 1);
        assert_eq!(out.snapshot.clusters[0].members(), ids(&[1, 2, 3, 4]));
        assert_eq!(out.cores.len(), 4);
        assert!(out.noise.is_empty());
    }

    #[test]
    fn border_points_attach_to_core_cluster() {
        // Star: center 1 adjacent to 2,3,4 (degree 3); leaves degree 1.
        // minPts = 4 (count_self): center core (3+1 ≥ 4), leaves border.
        let objects = ids(&[1, 2, 3, 4]);
        let pairs = vec![(oid(1), oid(2)), (oid(1), oid(3)), (oid(1), oid(4))];
        let out = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &params(4));
        assert_eq!(out.cores, ids(&[1]));
        assert_eq!(out.borders, ids(&[2, 3, 4]));
        assert_eq!(out.snapshot.clusters.len(), 1);
        assert_eq!(out.snapshot.clusters[0].members(), ids(&[1, 2, 3, 4]));
    }

    #[test]
    fn sparse_points_are_noise() {
        let objects = ids(&[1, 2, 3]);
        let pairs = vec![(oid(1), oid(2))];
        let out = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &params(3));
        assert!(out.snapshot.clusters.is_empty());
        assert_eq!(out.noise, ids(&[1, 2, 3]));
    }

    #[test]
    fn two_separate_clusters() {
        let objects = ids(&[1, 2, 3, 10, 11, 12]);
        let pairs = vec![
            (oid(1), oid(2)),
            (oid(2), oid(3)),
            (oid(1), oid(3)),
            (oid(10), oid(11)),
            (oid(11), oid(12)),
            (oid(10), oid(12)),
        ];
        let out = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &params(3));
        assert_eq!(out.snapshot.clusters.len(), 2);
        assert_eq!(out.snapshot.clusters[0].members(), ids(&[1, 2, 3]));
        assert_eq!(out.snapshot.clusters[1].members(), ids(&[10, 11, 12]));
    }

    #[test]
    fn border_between_two_clusters_joins_exactly_one() {
        // Cores {1,2} and {10,11} (triangles), border 5 adjacent to a core in
        // each; it must appear in exactly one cluster (smallest core id wins).
        let objects = ids(&[1, 2, 3, 5, 10, 11, 12]);
        let pairs = vec![
            (oid(1), oid(2)),
            (oid(2), oid(3)),
            (oid(1), oid(3)),
            (oid(10), oid(11)),
            (oid(11), oid(12)),
            (oid(10), oid(12)),
            (oid(1), oid(5)),
            (oid(10), oid(5)),
        ];
        let mut p = params(4);
        p.min_pts = 4; // degree ≥ 3 for core: 1,2? deg(1)=3 ✓ core, deg(2)=2+1=3 <4 …
        let out = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &p);
        let appearances: usize = out
            .snapshot
            .clusters
            .iter()
            .filter(|c| c.contains(oid(5)))
            .count();
        assert!(appearances <= 1, "border point in {appearances} clusters");
    }

    #[test]
    fn count_self_convention_changes_core_threshold() {
        let objects = ids(&[1, 2]);
        let pairs = vec![(oid(1), oid(2))];
        // minPts = 2 with self-count: both core.
        let with_self = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &params(2));
        assert_eq!(with_self.cores.len(), 2);
        // Without self-count: degree 1 < 2 → no cores.
        let p = params(2).with_count_self(false);
        let without = dbscan_from_pairs(Timestamp(0), &objects, &pairs, &p);
        assert!(without.cores.is_empty());
    }

    #[test]
    fn empty_input() {
        let out = dbscan_from_pairs(Timestamp(3), &[], &[], &params(2));
        assert!(out.snapshot.clusters.is_empty());
        assert_eq!(out.snapshot.time, Timestamp(3));
    }

    #[test]
    fn min_pts_one_makes_every_point_a_singleton_cluster() {
        let objects = ids(&[4, 7]);
        let out = dbscan_from_pairs(Timestamp(0), &objects, &[], &params(1));
        assert_eq!(out.snapshot.clusters.len(), 2);
        assert_eq!(out.cores.len(), 2);
    }
}
