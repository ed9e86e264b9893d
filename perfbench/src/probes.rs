//! Process probes, standard library only: a counting global allocator,
//! `/proc/self/status`, `/proc/self/stat`, and `getrusage` for the context
//! switches of the worker threads.
//!
//! `voluntary_ctxt_switches` in `/proc/self/status` belongs to the main
//! thread alone, and the runtime's workers have exited by the time a run
//! returns, so the per-job context-switch count comes from
//! `getrusage(RUSAGE_SELF)`, which folds in every thread, dead ones too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while enabled; otherwise it is the system
/// allocator plus one relaxed load. Install it with
/// `#[global_allocator]` in the binary.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Zeroes the counters and starts counting.
    pub fn start() {
        ALLOCS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::SeqCst);
    }

    /// Stops counting and returns `(allocations, bytes)` since
    /// [`start`](CountingAlloc::start). A reallocation counts as one
    /// allocation of its new size.
    pub fn stop() -> (u64, u64) {
        COUNTING.store(false, Ordering::SeqCst);
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }

    #[inline]
    fn note(size: usize) {
        // Statistics only: they publish no other data, so relaxed is
        // enough.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A `kB` field of `/proc/self/status`, in MB (10⁶ bytes).
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Peak resident set size so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`), MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// User plus system CPU time of the whole process, every thread that
/// ever ran included (`utime + stime` of `/proc/self/stat`), seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_second())
}

/// `AT_CLKTCK` from the auxiliary vector (the unit of `/proc/self/stat`
/// times); 100, the Linux value, if it cannot be read.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8 bytes"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, ticks)| ticks as f64)
}

/// Voluntary context switches of every thread of the process so far,
/// exited threads included.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn voluntary_context_switches() -> Option<u64> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 8 bytes each)
    // then fourteen `long`s; `ru_nvcsw` is the thirteenth of those.
    const WORDS: usize = 4 + 14;
    const RU_NVCSW: usize = 4 + 12;
    const RUSAGE_SELF: i32 = 0;
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    let mut usage = [0i64; WORDS];
    // SAFETY: `usage` is a writable, 8-aligned buffer of exactly
    // `sizeof(struct rusage)` on this target, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    (rc == 0).then(|| usage[RU_NVCSW] as u64)
}

/// Voluntary context switches are not probed on this target.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn voluntary_context_switches() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read_this_process() {
        // Current first: the high-water mark read after it covers it.
        let now = rss_mb().expect("VmRSS");
        let peak = peak_rss_mb().expect("VmHWM");
        assert!(peak > 0.0 && now > 0.0 && now <= peak);
        assert!(cpu_seconds().expect("stat times") >= 0.0);
        assert!(clock_ticks_per_second() > 0.0);
    }

    #[test]
    fn context_switches_include_exited_threads() {
        let before = voluntary_context_switches().expect("getrusage");
        std::thread::spawn(|| {
            for _ in 0..20 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        })
        .join()
        .expect("sleeper thread");
        let after = voluntary_context_switches().expect("getrusage");
        assert!(after >= before + 20, "{before} -> {after}");
    }
}
