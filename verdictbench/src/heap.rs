//! Heap accounting: the benchmark's global allocator wraps the system one
//! and keeps the bytes live now and the most live since the last reset, so
//! a job's peak heap is measured exactly and apart from everything else the
//! process holds (the probe, set-up bursts, earlier jobs' freed pages).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // Load first: the peak rarely moves, and a plain load keeps the
    // common case free of a second read-modify-write.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new peak at the bytes live now, and return them.
pub fn reset_peak() -> usize {
    let now = LIVE.load(Relaxed);
    PEAK.store(now, Relaxed);
    now
}

/// Most heap bytes live at once since the last `reset_peak`.
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_sees_a_freed_allocation() {
        reset_peak();
        let v = vec![0u8; 1 << 20];
        // Other tests allocate and free concurrently, so compare with the
        // bytes seen live while the allocation is held.
        let held = LIVE.load(Relaxed);
        drop(std::hint::black_box(v));
        assert!(held >= 1 << 20);
        assert!(peak() >= held);
    }
}
