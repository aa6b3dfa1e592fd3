//! Every coroutine returns all of its heap blocks — completed,
//! force-unwound and never-resumed alike — on whichever backend the build
//! selects (`--features thread-backend` for the portable one). The counting
//! allocator sees the whole process, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::SeqCst};

use ptdf_fiber::{Coroutine, Step};

struct Counting;

static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);

// SAFETY: forwards to the system allocator unchanged. The default
// `realloc` (alloc + dealloc) nets to zero blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BLOCKS.fetch_add(1, SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Asserts 200 runs of `case` leave no live heap block behind. One warm-up
/// run first absorbs one-time allocations (the forced-unwind panic-hook
/// filter, thread-locals). Blocks, not bytes: captured test output grows
/// its buffer in place.
fn assert_no_leak(what: &str, mut case: impl FnMut()) {
    case();
    let before = LIVE_BLOCKS.load(SeqCst);
    (0..200).for_each(|_| case());
    let leaked = LIVE_BLOCKS.load(SeqCst) - before;
    assert_eq!(leaked, 0, "{what} coroutines leaked {leaked} heap blocks");
}

#[test]
fn coroutines_free_every_heap_block() {
    assert_no_leak("completed", || {
        let payload = String::from("completed");
        let mut co = Coroutine::<u32, u32, usize>::new(64 * 1024, move |y, a| {
            payload.len() + y.suspend(a + 1) as usize
        });
        assert_eq!(co.resume(1), Step::Yield(2));
        assert_eq!(co.resume(5), Step::Complete(14));
    });
    assert_no_leak("force-unwound", || {
        let payload = String::from("unwound");
        let mut co = Coroutine::<(), (), usize>::new(64 * 1024, move |y, ()| {
            let held = String::from("held across the suspend");
            y.suspend(());
            payload.len() + held.len()
        });
        assert_eq!(co.resume(()), Step::Yield(()));
        drop(co); // force-unwinds the suspended body
    });
    assert_no_leak("never-resumed", || {
        let payload = String::from("never resumed");
        let co = Coroutine::<(), (), usize>::new(64 * 1024, move |_, ()| payload.len());
        assert!(co.is_fresh());
    });
}
