//! What the operating system knows about this process: peak resident
//! memory, CPU time consumed by all of its threads, and the core count.

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod cpu {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPUTIME: i32 = 2;

    pub fn process_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on every 64-bit Linux ABI) that outlives the
        // call; `clock_gettime` writes only through that pointer.
        let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    /// No portable process-CPU clock in std: fall back to wall time, so
    /// CPU-per-tuple degrades to wall-per-tuple rather than to zero.
    pub fn process_cpu_ns() -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu::process_cpu_ns()
}

/// Pin glibc malloc's mmap threshold at its initial 128 KiB.
///
/// By default the threshold climbs (up to 32 MiB) whenever a larger
/// block is freed; from then on blocks of that size come from the heap
/// and stay resident after `free`. `VmHWM` then reports the allocator's
/// history on top of the memory the program held: `exec-probe` read 68,
/// 73, 83 or 99 MB depending on the order in which its buffers happened
/// to be freed, and 40.0 MB in three runs out of three with the
/// threshold pinned, at unchanged speed. A no-op on other C libraries.
pub fn pin_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two integers and only stores a tunable
        // of the allocator; it is called once, before any other thread
        // exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
        assert!(cores() >= 1);
    }
}
