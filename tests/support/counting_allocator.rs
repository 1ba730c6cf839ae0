// A global allocator that counts the calling thread's allocations and
// forwards every call to `System`. `include!`d by the test binaries that pin
// allocation counts: `zstm-collections`' `allocs` and `zstm-lsa`'s
// `history_readers`.

mod counting_allocator {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Per thread, so that the tests of one binary do not count each
        // other; const-initialised and without a destructor, so that
        // reading it never allocates.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    fn bump() {
        let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter touches no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            // SAFETY: as above.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: as above.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Allocations the calling thread has made so far.
    pub fn allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }
}

use counting_allocator::allocs;
