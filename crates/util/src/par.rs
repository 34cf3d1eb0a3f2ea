//! Scoped thread-pool parallel iteration.
//!
//! [`par_map`] is the workhorse: it maps a function over a slice on a pool
//! of scoped threads and returns the results **in input order**, bit-wise
//! independent of how the work was scheduled. Work is handed out in
//! contiguous chunks through an atomic cursor, so threads that draw cheap
//! items (short traces, small configurations) immediately pull more work
//! instead of idling — the paper's workload is exactly this shape: thousands
//! of simulations whose cost varies several-fold with the configuration.
//! Claims are guided: each takes a share of the work still unclaimed, so
//! they shrink as the list drains and the last ones are single items — no
//! thread is left finishing a large chunk while the others idle.
//!
//! The pool size comes from the `ARCHDSE_THREADS` environment variable and
//! defaults to [`std::thread::available_parallelism`]. `ARCHDSE_THREADS=1`
//! forces the serial path, which the determinism tests use to check that
//! parallel output is bit-identical to serial output. A value that is not
//! a positive integer panics rather than silently using the default.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "ARCHDSE_THREADS";

/// Number of worker threads to use: `ARCHDSE_THREADS` if set, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is
/// unavailable).
///
/// # Panics
///
/// Panics, naming the variable and its value, when `ARCHDSE_THREADS` is
/// set to anything but a positive integer.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        return parse_threads(&v).unwrap_or_else(|e| panic!("{e}"));
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses an `ARCHDSE_THREADS` value: a positive integer, surrounding
/// whitespace allowed. The error names the variable and the bad value.
fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{THREADS_ENV}={value:?} is not a positive integer thread count"
        )),
    }
}

/// Largest claim a thread takes: large enough to amortise the cursor
/// update and result merge while much work remains.
fn chunk_len(n: usize, threads: usize) -> usize {
    (n / (threads * 4)).max(1)
}

/// Items the next claim takes with `remaining` still unclaimed: half a
/// thread's even share of them (guided self-scheduling), at least one and
/// at most `max` ([`chunk_len`]), so claims shrink to single items as the
/// list drains.
fn claim_len(remaining: usize, threads: usize, max: usize) -> usize {
    (remaining / (2 * threads)).clamp(1, max)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Results are deterministic: element `i` of the output is always
/// `f(&items[i])`, regardless of the thread count or scheduling, so any
/// pure `f` yields bit-identical output for `ARCHDSE_THREADS=1` and
/// `ARCHDSE_THREADS=64`.
///
/// A panic in `f` propagates to the caller once every worker has stopped.
///
/// # Examples
///
/// ```
/// use dse_util::par::par_map;
/// let doubled = par_map(&[1, 2, 3], |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let max_claim = chunk_len(n, threads);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let out = Mutex::new(slots);
    let f = &f;
    // Records made inside `f` on a worker thread carry the calling
    // thread's request id and nest under its current span.
    let ctx = dse_obs::flight::Context::current();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _ctx = ctx.enter();
                let claim_end = |start: usize| start + claim_len(n - start, threads, max_claim);
                while let Ok(start) =
                    cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                        (s < n).then(|| claim_end(s))
                    })
                {
                    let end = claim_end(start);
                    // Compute outside the lock; only the merge is serialised.
                    let results: Vec<R> = items[start..end].iter().map(f).collect();
                    let mut guard = out.lock().unwrap();
                    for (slot, r) in guard[start..end].iter_mut().zip(results) {
                        *slot = Some(r);
                    }
                }
            });
        }
    });
    out.into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every index is covered by exactly one chunk"))
        .collect()
}

/// Maps `f` over contiguous chunks of `items` (at most `chunk` elements
/// each) in parallel and concatenates the per-chunk outputs in input
/// order.
///
/// Use this instead of [`par_map`] when per-item work is too cheap to
/// dispatch individually, or when `f` benefits from batch-local state
/// (e.g. one scratch buffer per chunk).
///
/// # Panics
///
/// Panics if `chunk` is zero.
///
/// # Examples
///
/// ```
/// use dse_util::par::par_chunks;
/// let sums = par_chunks(&[1, 2, 3, 4, 5], 2, |c| vec![c.iter().sum::<i32>()]);
/// assert_eq!(sums, vec![3, 7, 5]);
/// ```
pub fn par_chunks<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let pieces: Vec<&[T]> = items.chunks(chunk).collect();
    par_map(&pieces, |piece| f(piece))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env-var mutation is process-global, so every test touching
    /// `ARCHDSE_THREADS` holds this lock.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: Option<&str>, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        match n {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        let r = body();
        std::env::remove_var(THREADS_ENV);
        r
    }

    #[test]
    fn par_map_preserves_order() {
        with_threads(Some("4"), || {
            let items: Vec<u64> = (0..1000).collect();
            let out = par_map(&items, |&x| x * 3 + 1);
            let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, serial);
        });
    }

    #[test]
    fn par_map_matches_serial_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for threads in ["1", "2", "8"] {
            let out = with_threads(Some(threads), || par_map(&items, |&x| x.wrapping_mul(x)));
            assert_eq!(out, serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn claims_cover_the_list_once_and_shrink_to_single_items() {
        for (n, threads) in [(264, 2), (264, 4), (1000, 3), (7, 2), (1, 2), (5, 8)] {
            let max = chunk_len(n, threads);
            let mut claims = Vec::new();
            let mut start = 0;
            while start < n {
                let len = claim_len(n - start, threads, max);
                assert!((1..=max).contains(&len), "n {n}: claim {len} > {max}");
                claims.push(start..start + len);
                start += len;
            }
            // Claims tile [0, n) exactly: contiguous, no gap, no overlap.
            assert_eq!(start, n);
            assert!(claims.windows(2).all(|w| w[0].end == w[1].start));
            let singles = claims.iter().rev().take_while(|c| c.len() == 1).count();
            assert!(singles >= (2 * threads).min(n), "n {n}: {claims:?}");
            assert!(claims.windows(2).all(|w| w[0].len() >= w[1].len()));
        }
        // The sweep grid at two threads: full-row claims first, then
        // guided ones down to single cells.
        assert_eq!(chunk_len(264, 2), 33);
        assert_eq!(claim_len(264, 2, 33), 33);
        assert_eq!(claim_len(100, 2, 33), 25);
        assert_eq!(claim_len(3, 2, 33), 1);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        with_threads(Some("8"), || {
            let empty: Vec<u32> = vec![];
            assert_eq!(par_map(&empty, |&x| x), Vec::<u32>::new());
            assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
        });
    }

    #[test]
    fn par_map_actually_uses_multiple_threads() {
        with_threads(Some("4"), || {
            // Each item sleeps so the queue cannot be drained by the first
            // worker before the remaining workers have spawned (even on a
            // single-core host).
            let items: Vec<u32> = (0..64).collect();
            let ids = par_map(&items, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            });
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert!(distinct.len() > 1, "expected work on more than one thread");
        });
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        with_threads(Some("3"), || {
            let items: Vec<u32> = (0..100).collect();
            let out = par_chunks(&items, 7, |c| c.iter().map(|&x| x + 1).collect());
            let serial: Vec<u32> = items.iter().map(|&x| x + 1).collect();
            assert_eq!(out, serial);
        });
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn par_chunks_rejects_zero_chunk() {
        par_chunks(&[1, 2, 3], 0, |c| c.to_vec());
    }

    #[test]
    fn num_threads_reads_env() {
        with_threads(Some("3"), || assert_eq!(num_threads(), 3));
        with_threads(None, || assert!(num_threads() >= 1));
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 12\n"), Ok(12));
        for bad in ["0", "", "garbage", "-1", "2.5", "4 threads"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV) && err.contains(&format!("{bad:?}")),
                "error for {bad:?} must name the variable and value: {err}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = with_threads(Some("4"), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map(&(0..128).collect::<Vec<u32>>(), |&x| {
                    assert!(x != 77, "boom");
                    x
                })
            }))
        });
        assert!(result.is_err());
    }
}
