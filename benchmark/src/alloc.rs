//! A counting `#[global_allocator]`: every `alloc`/`alloc_zeroed`/`realloc`
//! call and every byte it requests is counted per thread, then forwarded to
//! [`System`].
//!
//! Allocation counts and requested bytes repeat bit-for-bit from process to
//! process on a fixed input (hash seeds change iteration order, not growth
//! schedules), which wall-clock time on a shared 2-vCPU guest never does —
//! they are the benchmark's exact cost metrics. The counters are
//! const-initialised thread-local `Cell`s: no atomics, no lazy
//! initialisation (which would itself allocate), and a thread that is not
//! the measuring thread — the loopback probe's server workers — never
//! disturbs the measuring thread's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator wrapper; installed once, in this crate, for both binaries
/// and the unit tests.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

#[inline]
fn count(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still free and
    // allocate; those calls go uncounted instead of panicking.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals of `Copy` data and never allocates,
// unwinds or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The calling thread's counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes those calls requested (`realloc` counts its new size).
    pub bytes: u64,
}

impl Snapshot {
    /// Read the calling thread's counters.
    pub fn now() -> Snapshot {
        Snapshot {
            calls: CALLS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What the calling thread allocated since `self` was taken.
    pub fn elapsed(self) -> Snapshot {
        let now = Snapshot::now();
        Snapshot {
            calls: now.calls - self.calls,
            bytes: now.bytes - self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_number_of_vec_growths() {
        // Pre-sized: exactly one allocation of 1000 * 8 bytes, however many
        // pushes follow.
        let before = Snapshot::now();
        let mut v: Vec<u64> = Vec::with_capacity(1000);
        for i in 0..1000 {
            v.push(i);
        }
        let d = before.elapsed();
        assert_eq!(std::hint::black_box(&v).len(), 1000);
        assert_eq!(d.calls, 1);
        assert_eq!(d.bytes, 8000);

        // Doubling growth from empty: `Vec<u64>` starts at capacity 4, so
        // 1000 pushes need capacities 4, 8, …, 1024 — one alloc and eight
        // reallocs — requesting 8 * (4 + 8 + … + 1024) bytes.
        let before = Snapshot::now();
        let mut v: Vec<u64> = Vec::new();
        for i in 0..1000 {
            v.push(i);
        }
        let d = before.elapsed();
        assert_eq!(std::hint::black_box(&v).len(), 1000);
        assert_eq!(d.calls, 9);
        assert_eq!(d.bytes, 8 * (2048 - 4));
    }

    #[test]
    fn frees_are_not_counted_and_threads_do_not_mix() {
        let before = Snapshot::now();
        let v = vec![0u8; 4096];
        drop(std::hint::black_box(v));
        std::thread::spawn(|| {
            let inner = Snapshot::now();
            let w = vec![0u8; 1 << 20];
            drop(std::hint::black_box(w));
            assert_eq!(inner.elapsed().bytes, 1 << 20);
        })
        .join()
        .expect("counting thread");
        let d = before.elapsed();
        // the 4096-byte vector, plus whatever `spawn` allocates on this
        // thread (a few small bookkeeping blocks) — never the other
        // thread's MiB
        assert!(d.bytes >= 4096 && d.bytes < 64 * 1024, "{d:?}");
    }
}
