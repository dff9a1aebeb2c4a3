//! A tiny `std`-only fork/join layer: [`ordered_parallel_map`] fans a
//! work list out across a `std::thread::scope` pool and returns the
//! results **in input order**, so callers see exactly the output a
//! sequential `iter().map().collect()` would produce — just faster.
//!
//! The worker count is resolved by [`effective_threads`]: the
//! `AOS_CAMPAIGN_THREADS` environment variable if set, otherwise
//! [`std::thread::available_parallelism`]. A count of 1 runs inline on
//! the calling thread (no spawn overhead, identical results), which is
//! also the fallback on exotic platforms where spawning fails.
//!
//! # Examples
//!
//! ```
//! use aos_util::par::ordered_parallel_map;
//!
//! let squares = ordered_parallel_map(&[1u64, 2, 3, 4], 4, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::panic_message;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "AOS_CAMPAIGN_THREADS";

/// Resolves the worker count for a parallel region.
///
/// Order of precedence: an explicit non-zero `requested`, then a
/// parseable non-zero [`THREADS_ENV`], then the machine's available
/// parallelism, then 1. The result is clamped to at least 1.
pub fn effective_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    if let Some(v) = std::env::var_os(THREADS_ENV) {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the outputs in input order.
///
/// `f` receives `(index, &item)` so callers can label or seed per-cell
/// work. Work is distributed dynamically (an atomic next-index
/// counter), so heterogeneous cell costs still balance. With
/// `threads <= 1` or a single item the map runs inline on the calling
/// thread — the parallel and sequential paths produce identical
/// output by construction, because each output slot is written only by
/// the worker that claimed that input index.
///
/// # Panics
///
/// Re-raises the first (lowest-index) worker panic with its original
/// message. Unlike a bare scope join, the panic is caught at the item
/// that raised it, so every other item still completes first and the
/// join itself never observes an unwinding thread; callers that want
/// the per-item outcome instead catch inside `f` (as the campaign
/// runner does with its guarded cells).
pub fn ordered_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    ordered_parallel_catch(items, threads, f)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|msg| panic!("worker panicked: {msg}")))
        .collect()
}

/// Like [`ordered_parallel_map`], but a panic in `f` is confined to
/// the item that raised it: that slot becomes `Err(message)` while
/// every other item still completes and returns `Ok`.
///
/// Each invocation of `f` runs under [`std::panic::catch_unwind`], so
/// the worker that claimed the item survives the panic and moves on to
/// the next index; the scope join at the end never observes an
/// unwinding thread.
///
/// `AssertUnwindSafe` is sound here because a panicking call's output
/// slot is only ever written with the `Err` payload — no partially
/// constructed `R` escapes — and `f` is shared read-only (`Sync`)
/// exactly as in [`ordered_parallel_map`].
fn ordered_parallel_catch<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_ordered(items, threads, |i, item| {
        catch_unwind(AssertUnwindSafe(|| f(i, item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// The shared fork/join machinery: maps `f` over `items` on up to
/// `threads` scoped workers, results in input order. `f` must not
/// panic ([`ordered_parallel_catch`] wraps it in `catch_unwind`).
fn run_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let next = AtomicUsize::new(0);

    // Hand each worker a disjoint set of &mut slots via raw parts:
    // safe because slot `i` is written exactly once, by the unique
    // worker that won the fetch_add for index `i`, and the scope
    // joins every worker before `slots` is read.
    struct SlotArray<R>(*mut Option<R>);
    // SAFETY: sharing the base pointer across workers is sound because
    // each index is claimed by exactly one worker (the fetch_add
    // winner), so concurrent accesses never alias the same slot, and
    // `R: Send` lets the written values move to the joining thread.
    unsafe impl<R: Send> Sync for SlotArray<R> {}
    let out = SlotArray(slots.as_mut_ptr());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let out = &out;
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                // SAFETY: `i` came from a unique fetch_add claim below
                // `items.len()`, so no other worker writes this slot,
                // and the enclosing scope outlives every write.
                unsafe {
                    *out.0.add(i) = Some(result);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every claimed index writes its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = ordered_parallel_map(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..23).collect();
        let sequential = ordered_parallel_map(&items, 1, |_, &x| x.wrapping_mul(0x9E37));
        for threads in [2, 3, 8, 64] {
            let parallel = ordered_parallel_map(&items, threads, |_, &x| x.wrapping_mul(0x9E37));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(ordered_parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn unbalanced_work_still_ordered() {
        let items: Vec<u64> = (0..32).collect();
        let out = ordered_parallel_map(&items, 4, |_, &x| {
            // Make early items slow so late items finish first.
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn effective_threads_precedence() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
    }

    #[test]
    fn catch_confines_panic_to_its_item() {
        let items: Vec<u64> = (0..16).collect();
        for threads in [1, 4] {
            let out = ordered_parallel_catch(&items, threads, |_, &x| {
                assert!(x != 5, "poisoned item {x}");
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, slot) in out.iter().enumerate() {
                if i == 5 {
                    let msg = slot.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned item 5"), "got: {msg}");
                } else {
                    assert_eq!(*slot, Ok(i as u64 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn catch_survives_every_item_panicking() {
        let items: Vec<u64> = (0..8).collect();
        let out = ordered_parallel_catch(&items, 4, |i, _| -> u64 { panic!("item {i}") });
        assert!(out.iter().all(Result::is_err));
    }

    #[test]
    fn map_repanics_with_worker_message() {
        let items: Vec<u64> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            ordered_parallel_map(&items, 4, |_, &x| {
                assert!(x != 3, "bad cell");
                x
            })
        })
        .unwrap_err();
        let msg = crate::error::panic_message(err.as_ref());
        assert!(msg.contains("bad cell"), "got: {msg}");
    }
}
