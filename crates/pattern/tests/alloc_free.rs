//! FBA enumerates without allocating: on the `pattern_heavy` shape (10
//! convoys of 8 under CP(3, 6, 2, 2), ~1 800 patterns per tick) the flat
//! form performs no allocation per pattern once warm, and the
//! `Vec<Pattern>` view exactly two — a pattern's two vectors.

use icpe_pattern::{id_partitions, EngineConfig, FbaEngine, PatternEngine};
use icpe_types::{ClusterSnapshot, Constraints, ObjectId, PatternBatch, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness runs each test on a
/// thread of its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const TICKS: u32 = 200;
const WARM_UP: u32 = 60;

/// Ten convoys of eight, together for 40 ticks and apart for 3.
fn partitions_at(t: u32, m: usize) -> Vec<icpe_pattern::partition::Partition> {
    let groups = (0..10u32).filter(|g| (t + 4 * g) % 43 < 40);
    let snapshot = ClusterSnapshot::from_groups(
        Timestamp(t),
        groups.map(|g| (8 * g..8 * g + 8).map(ObjectId).collect::<Vec<_>>()),
    );
    id_partitions(&snapshot, m)
}

fn engine() -> (FbaEngine, usize) {
    let constraints = Constraints::new(3, 6, 2, 2).unwrap();
    (
        FbaEngine::new(EngineConfig::new(constraints)),
        constraints.m(),
    )
}

#[test]
fn flat_form_allocates_nothing_per_pattern() {
    let (mut engine, m) = engine();
    let mut batch = PatternBatch::new();
    let (mut patterns, mut allocated) = (0u64, 0u64);
    for t in 0..TICKS {
        let mut partitions = partitions_at(t, m);
        batch.clear();
        let before = allocations();
        engine.push_partitions_into(Timestamp(t), &mut partitions, &mut batch);
        if t >= WARM_UP {
            allocated += allocations() - before;
            patterns += batch.len() as u64;
        }
    }
    let ticks = u64::from(TICKS - WARM_UP);
    assert!(
        patterns > 1_000 * ticks,
        "the shape is pattern-heavy: {patterns}"
    );
    assert!(
        allocated <= ticks,
        "{allocated} allocations over {ticks} warm ticks and {patterns} patterns"
    );
}

#[test]
fn pattern_view_allocates_two_per_pattern() {
    let (mut engine, m) = engine();
    let (mut patterns, mut allocated) = (0u64, 0u64);
    for t in 0..TICKS {
        let partitions = partitions_at(t, m);
        let before = allocations();
        let found = engine.push_partitions(Timestamp(t), partitions);
        if t >= WARM_UP {
            allocated += allocations() - before;
            patterns += found.len() as u64;
        }
    }
    let ticks = u64::from(TICKS - WARM_UP);
    assert!(
        patterns > 1_000 * ticks,
        "the shape is pattern-heavy: {patterns}"
    );
    // Two vectors per pattern, and the vector of patterns once per tick.
    assert!(
        (2 * patterns..=2 * patterns + ticks).contains(&allocated),
        "{allocated} allocations for {patterns} patterns over {ticks} warm ticks"
    );
}
