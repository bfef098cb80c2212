//! The workspace's one deterministic parallel map.
//!
//! [`for_each_chunk`] splits a slice into contiguous chunks, one per
//! worker, and runs a closure on each chunk on its own scoped thread.
//! Each worker writes only its own disjoint chunk, so when every item is
//! a pure function of its index the result is bit-identical at any
//! thread count: parallelism changes which thread fills an item, never
//! what it holds.
//!
//! ```
//! use xbar_linalg::par::for_each_chunk;
//!
//! let mut squares = vec![0u64; 10];
//! for_each_chunk(&mut squares, 0, |start, chunk| {
//!     for (offset, slot) in chunk.iter_mut().enumerate() {
//!         let i = (start + offset) as u64;
//!         *slot = i * i;
//!     }
//! });
//! assert_eq!(squares[9], 81);
//! ```

/// The worker count actually used for a requested count: `threads`
/// itself, or the host's available parallelism when `threads == 0`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Calls `f(start, chunk)` on contiguous chunks of `items`, where
/// `start` is the index of `chunk[0]` in `items`.
///
/// The slice is split into at most `resolve_threads(threads)` chunks
/// (never more than `items.len()`) of `len.div_ceil(workers)` items
/// each, the last one possibly shorter. With one worker `f` runs inline
/// on the caller's thread; otherwise each chunk runs on its own scoped
/// thread. If a worker panics, the first panic in chunk order is
/// re-raised on the caller's thread with its original payload once
/// every worker has finished.
pub fn for_each_chunk<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = resolve_threads(threads).min(items.len());
    if workers <= 1 {
        f(0, items);
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, part)| scope.spawn(move || f(c * chunk, part)))
            .collect();
        // Joining by hand keeps a worker's payload: `scope` would replace
        // it with "a scoped thread panicked". It still waits for the
        // other workers before the panic leaves it.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_is_filled_from_its_own_index() {
        for threads in 0..9 {
            for len in 0..20 {
                let mut slots = vec![usize::MAX; len];
                for_each_chunk(&mut slots, threads, |start, chunk| {
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = start + offset;
                    }
                });
                let want: Vec<usize> = (0..len).collect();
                assert_eq!(slots, want, "threads {threads}, len {len}");
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let mut items = vec![0u8; 8];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_chunk(&mut items, 4, |start, _| {
                if start > 0 {
                    panic!("worker at {start}");
                }
            });
        }))
        .expect_err("a worker panicked");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic! with arguments carries a String");
        assert_eq!(message, "worker at 2");
    }
}
