//! Peak-heap test of the `.hgr` reader: a header is only a promise, so a
//! tiny file that declares huge counts must end in the typed
//! count-mismatch error without the reader ever reserving memory for
//! what the header declared.
//!
//! The tracker is a `#[global_allocator]` wrapper around [`System`] that
//! keeps the live heap size and its high-water mark. Integration tests
//! run on multiple threads, so this binary holds exactly one `#[test]` —
//! a sibling test allocating concurrently would corrupt the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hypart::hypergraph::io::hgr;
use hypart::hypergraph::ParseError;

/// Tracks live heap bytes and their peak across the whole process.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before releasing the old one, as a moving
        // realloc briefly holds both.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn huge_declared_counts_fail_typed_within_a_small_heap() {
    // 24 bytes declaring 2×10⁸ nets over 2×10⁸ vertices, holding one net.
    let text = b"200000000 200000000\n1 2\n";
    assert_eq!(text.len(), 24);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = hgr::read(&text[..]);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    match result {
        Err(ParseError::Syntax { line, message }) => {
            assert_eq!(line, 2);
            assert_eq!(
                message,
                "header promised 200000000 nets but file contains 1"
            );
        }
        other => panic!("expected the count-mismatch error, got {other:?}"),
    }
    assert!(
        peak < 1 << 20,
        "parsing 24 bytes peaked at {peak} heap bytes (limit 1 MiB)"
    );
}
