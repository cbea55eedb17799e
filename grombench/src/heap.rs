//! A counting allocator: live bytes, peak live bytes and allocation count.
//!
//! The `grombench` binary installs [`Counting`] as its global allocator; it
//! is part of the fixed harness on every commit, so its (small) cost is in
//! every number alike. In a process that does not install it (unit tests)
//! every reading is zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the pointers
// returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on to `System` as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to validate.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A measurement window: peak live bytes above the level at `start`, and
/// allocations made since.
pub struct Window {
    base_live: usize,
    base_allocs: usize,
}

impl Window {
    /// Reset the peak to the current level and start counting.
    pub fn start() -> Window {
        let base_live = live_bytes();
        PEAK.store(base_live, Ordering::Relaxed);
        Window {
            base_live,
            base_allocs: ALLOCS.load(Ordering::Relaxed),
        }
    }

    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.base_live)
    }

    pub fn allocs(&self) -> usize {
        ALLOCS.load(Ordering::Relaxed) - self.base_allocs
    }
}
