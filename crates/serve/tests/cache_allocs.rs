//! The prediction cache's hot path allocates nothing. A counting global
//! allocator checks that, at capacity, batches of 512 lookups and 512
//! evicting inserts through one prefix make no heap allocation.

use dse_serve::PredictionCache;
use dse_sim::Metric;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the calling thread only, so the test
/// harness's own threads cannot disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A distinct configuration encoding per `i`.
fn config(i: u64) -> [u64; 13] {
    std::array::from_fn(|p| (i >> (4 * p)) & 0xf)
}

#[test]
fn batches_at_capacity_allocate_nothing() {
    const CAPACITY: u64 = 4096;
    const BATCH: u64 = 512;
    let cache = PredictionCache::new(8, CAPACITY as usize);
    let mut prefix = cache.prefix("gzip", Metric::Cycles);
    // Fill every shard and churn well past capacity first, so the first
    // insert has interned the target and every shard map has settled.
    let mut next = 0;
    while next < 16 * CAPACITY {
        cache.insert_in(&mut prefix, &config(next), next as f64);
        next += 1;
    }
    assert_eq!(cache.len(), CAPACITY as usize);
    for batch in 0..16 {
        let (before, misses) = (allocs(), cache.misses());
        for i in next..next + BATCH {
            if cache.get_in(&prefix, &config(i)).is_none() {
                cache.insert_in(&mut prefix, &config(i), i as f64);
            }
        }
        let made = allocs() - before;
        assert_eq!(made, 0, "batch {batch} allocated {made} times");
        assert_eq!(cache.misses() - misses, BATCH, "every lookup misses");
        assert_eq!(cache.len(), CAPACITY as usize, "every insert evicts");
        next += BATCH;
    }
}
