//! `GridObject` — Definition 12 of the paper.

use icpe_index::GridKey;
use icpe_types::{ObjectId, Point, Timestamp};

/// A replicated location routed to one grid cell (Definition 12).
///
/// * If `is_query` is `false`, this is a **data object**: its location is
///   stored in the cell's range-query engine.
/// * If `is_query` is `true`, this is a **query object**: the cell might
///   contain range-query results for it, so it probes the cell's engine but
///   is not stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridObject {
    /// The cell this replica is routed to (the partition key).
    pub key: GridKey,
    /// Query flag (the paper's `flag`).
    pub is_query: bool,
    /// The owning trajectory.
    pub id: ObjectId,
    /// The actual position.
    pub location: Point,
    /// The snapshot this replica belongs to.
    pub time: Timestamp,
}

impl GridObject {
    /// Creates a data object.
    pub fn data(key: GridKey, id: ObjectId, location: Point, time: Timestamp) -> Self {
        GridObject {
            key,
            is_query: false,
            id,
            location,
            time,
        }
    }

    /// Creates a query object.
    pub fn query(key: GridKey, id: ObjectId, location: Point, time: Timestamp) -> Self {
        GridObject {
            key,
            is_query: true,
            id,
            location,
            time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flag() {
        let k = GridKey::new(1, 2);
        let d = GridObject::data(k, ObjectId(7), Point::new(1.0, 2.0), Timestamp(3));
        assert!(!d.is_query);
        let q = GridObject::query(k, ObjectId(7), Point::new(1.0, 2.0), Timestamp(3));
        assert!(q.is_query);
        assert_eq!(d.key, q.key);
    }
}
