//! A counting global allocator (std only), installed in this binary so
//! every layer call can report the bytes it allocated and the peak heap
//! it held live. Counters are per thread, so calls running concurrently
//! on pool workers do not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread byte counters.
pub struct Counting;

thread_local! {
    /// Bytes handed out on this thread (growth only; frees do not subtract).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the innermost open [`Meter`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn on_alloc(bytes: usize) {
    // `try_with`: a thread's TLS may already be torn down while its last
    // buffers are freed; such late traffic is simply not counted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
    on_live(bytes as i64);
}

fn on_live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get() + delta;
        l.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters only touch const-initialised
// thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        on_live(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size > old {
                on_alloc(new_size - old);
            } else {
                on_live(-((old - new_size) as i64));
            }
        }
        p
    }
}

/// Heap traffic of the current thread over one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapUse {
    /// Bytes allocated during the interval.
    pub allocated: u64,
    /// Peak bytes held live above the interval's starting level.
    pub peak_live: u64,
}

/// An open measurement interval on the current thread. Meters nest: an
/// inner meter's high-water mark also counts toward the outer one.
pub struct Meter {
    allocated0: u64,
    live0: i64,
    outer_peak: i64,
}

impl Meter {
    pub fn start() -> Meter {
        let live0 = LIVE.with(Cell::get);
        Meter {
            allocated0: ALLOCATED.with(Cell::get),
            live0,
            outer_peak: PEAK.with(|p| p.replace(live0)),
        }
    }

    pub fn stop(self) -> HeapUse {
        let peak = PEAK.with(Cell::get);
        PEAK.with(|p| p.set(peak.max(self.outer_peak)));
        HeapUse {
            allocated: ALLOCATED.with(Cell::get) - self.allocated0,
            peak_live: (peak - self.live0).max(0) as u64,
        }
    }
}
