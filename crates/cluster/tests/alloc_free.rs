//! GridAllocate and GridQuery's cell loop allocate nothing: on
//! `dense_join`-shaped data (cells 8 ε wide, ~40 data objects and ~10
//! query replicas each) `grid_allocate_into` a reused buffer, and a reused
//! [`CellQueryEngine`] — `clear` + `run_cell`, or the `query_cells` loop
//! over a whole window — perform no allocation once warm. The caller's
//! pair and load vectors are reserved up front, so their growth is not
//! counted.

use icpe_cluster::{grid_allocate_into, query_cells, CellQueryEngine, GridObject};
use icpe_index::{Grid, GridKey};
use icpe_types::{DistanceMetric, ObjectId, Point, Snapshot, Timestamp};
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

const EPS: f64 = 1.0;
const LG: f64 = 8.0 * EPS;
const CELLS: usize = 2_000;
const WARM_UP: usize = 100;

/// A deterministic xorshift64 stream in `[0, 1)`.
struct Unit(u64);

impl Unit {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `CELLS` cells of 30–54 data objects spread over the cell and 5–14 query
/// replicas in the ε-band below and left of it (where Lemma 1's replicas
/// come from), in arrival order.
fn dense_join_cells() -> Vec<Vec<GridObject>> {
    let mut unit = Unit(0x9E37_79B9_7F4A_7C15);
    let mut next_id = 0u32;
    (0..CELLS)
        .map(|c| {
            let key = GridKey::new(c as i64, 0);
            let (x0, y0) = (c as f64 * LG, 0.0);
            let data = 30 + (unit.next() * 25.0) as usize;
            let queries = 5 + (unit.next() * 10.0) as usize;
            let mut cell = Vec::with_capacity(data + queries);
            for i in 0..data + queries {
                let id = ObjectId(next_id);
                next_id += 1;
                let t = Timestamp(0);
                if i < data {
                    let at = Point::new(x0 + unit.next() * LG, y0 + unit.next() * LG);
                    cell.push(GridObject::data(key, id, at, t));
                } else {
                    let (dx, dy) = (unit.next() * (LG + EPS) - EPS, unit.next() * EPS - EPS);
                    cell.push(GridObject::query(key, id, Point::new(x0 + dx, y0 + dy), t));
                }
            }
            cell
        })
        .collect()
}

#[test]
fn reused_engine_allocates_nothing_per_cell() {
    let cells = dense_join_cells();
    let mut engine = CellQueryEngine::new(EPS, DistanceMetric::Chebyshev);
    let mut pairs = Vec::with_capacity(4_096);
    let (mut allocated, mut found) = (0u64, 0usize);
    for (i, cell) in cells.iter().enumerate() {
        pairs.clear();
        let before = allocations();
        engine.clear();
        engine.run_cell(cell, &mut pairs);
        if i >= WARM_UP {
            allocated += allocations() - before;
            found += pairs.len();
        }
    }
    assert!(found > 10 * CELLS, "the cells must produce pairs ({found})");
    assert_eq!(
        allocated,
        0,
        "allocations over {} warm cells",
        CELLS - WARM_UP
    );
}

#[test]
fn query_cells_allocates_nothing_once_warm() {
    let cells = dense_join_cells();
    // Windows of 40 cells, arriving interleaved as the keyed exchange
    // delivers them.
    let windows: Vec<Vec<GridObject>> = cells
        .chunks(40)
        .map(|w| {
            let mut objects: Vec<GridObject> = w.iter().flatten().copied().collect();
            objects.reverse();
            objects
        })
        .collect();
    let mut engine = CellQueryEngine::new(EPS, DistanceMetric::Chebyshev);
    let (mut pairs, mut loads) = (Vec::with_capacity(1 << 16), Vec::with_capacity(64));
    let mut allocated = 0u64;
    for (i, mut window) in windows.into_iter().enumerate() {
        pairs.clear();
        loads.clear();
        let before = allocations();
        query_cells(&mut engine, &mut window, &mut pairs, |cell, load| {
            loads.push((cell, load))
        });
        if i >= 2 {
            allocated += allocations() - before;
        }
        assert_eq!(loads.len(), 40);
    }
    assert_eq!(allocated, 0);
}

#[test]
fn grid_allocate_into_allocates_nothing_once_warm() {
    // A window of 40 locations per cell over 50 × 40 cells, moving a
    // little each tick.
    let mut unit = Unit(0x5DEE_CE66_D1CE_4E5B);
    let (cols, rows, per_cell) = (50.0, 40.0, 40.0);
    let mut at: Vec<Point> = (0..(cols * rows * per_cell) as usize)
        .map(|_| Point::new(unit.next() * cols * LG, unit.next() * rows * LG))
        .collect();
    let grid = Grid::new(LG);
    let mut objects = Vec::new();
    let mut allocated = 0u64;
    for tick in 0..12u32 {
        let snapshot = Snapshot::from_pairs(
            Timestamp(tick),
            at.iter()
                .enumerate()
                .map(|(id, &p)| (ObjectId(id as u32), p)),
        );
        objects.clear();
        let before = allocations();
        grid_allocate_into(&snapshot, &grid, EPS, &mut objects);
        if tick >= 2 {
            allocated += allocations() - before;
        }
        let replicas = objects.len() - at.len();
        assert!(replicas > at.len() / 10, "Lemma-1 replicas: {replicas}");
        for p in &mut at {
            *p = Point::new(p.x + unit.next() - 0.5, p.y + unit.next() - 0.5);
        }
    }
    assert_eq!(allocated, 0);
}
