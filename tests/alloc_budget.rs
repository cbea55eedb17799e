//! Allocation budgets of the two storage hot paths, counted by a global
//! allocator on the test's own thread.
//!
//! - A built index stores a key's first row inline: inserting tuples with
//!   distinct keys into a relation whose column index is built allocates
//!   only when a table grows, never once per key.
//! - A `LayeredDb` scan of a name stored in one layer is that layer's scan
//!   and allocates nothing.
//!
//! Run with `cargo test --release --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use grom::data::{Instance, Tuple, Value};
use grom::engine::{Control, Db, LayeredDb};

/// The system allocator, counting every allocation and reallocation made
/// by the calling thread.
struct Counting;

thread_local! {
    // `const` and without a destructor: reading it allocates nothing, so
    // the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn distinct_keys_allocate_only_for_table_growth() {
    const TUPLES: i64 = 10_000;
    let name: Arc<str> = Arc::from("R");
    let mut inst = Instance::new();
    inst.add("R", vec![Value::int(-1), Value::int(0)]).unwrap();
    // Build the column-0 index, and only that one.
    let rel = inst.relation("R").unwrap();
    assert_eq!(rel.scan(&[Some(Value::int(-1)), None]).len(), 1);
    let tuples: Vec<Tuple> = (0..TUPLES)
        .map(|i| Tuple::new(vec![Value::int(i), Value::int(i % 2)]))
        .collect();
    let allocations = allocations_in(|| {
        for t in tuples {
            assert!(inst.insert(&name, t).unwrap());
        }
    });
    assert!(
        allocations <= 64,
        "{allocations} allocations for {TUPLES} distinct keys"
    );
    let report = inst.storage_report();
    assert_eq!(report[0].indexes, vec![(vec![0], TUPLES as usize + 1)]);
}

#[test]
fn one_layer_scans_allocate_nothing() {
    const SCANS: i64 = 1_000;
    let mut base = Instance::new();
    base.add("Base", vec![Value::int(0), Value::int(0)])
        .unwrap();
    let mut middle = Instance::new();
    for i in 0..100 {
        middle
            .add("R", vec![Value::int(i % 10), Value::int(i)])
            .unwrap();
    }
    let mut top = Instance::new();
    top.add("Top", vec![Value::int(0), Value::int(0)]).unwrap();
    let layers = [&base, &middle, &top];
    let db = LayeredDb::new(&layers);
    let r = db.resolve("R").unwrap();
    let patterns: Vec<[Option<Value>; 2]> = (0..SCANS)
        .map(|i| [Some(Value::int(i % 10)), None])
        .collect();
    let mut seen = 0usize;
    let mut scan = |pattern: &[Option<Value>]| {
        db.scan_rel(r, pattern, &mut |_| {
            seen += 1;
            Control::Continue
        })
    };
    // The first bound scan builds the column-0 index.
    scan(&patterns[0]);
    let allocations = allocations_in(|| {
        for pattern in &patterns {
            scan(pattern);
        }
    });
    assert_eq!(allocations, 0, "{allocations} allocations in {SCANS} scans");
    assert_eq!(seen, 10 * (SCANS as usize + 1));
}
