//! Optional CPU affinity for the join workers.
//!
//! With [`crate::ExecConfig::pin_workers`] set, the fleet pins each
//! shard thread to one core (round-robin over the machine's cores), so
//! a hot shard stops migrating between cores mid-window and its arena-backed
//! window state stays in one core's cache hierarchy. Sources and the
//! sink are deliberately left unpinned: they pace against the wall
//! clock and block often, exactly the threads the OS scheduler places
//! well on its own.
//!
//! The build is offline (no libc crate), so the Linux implementation
//! issues the raw `sched_setaffinity(2)` syscall directly; on other
//! platforms — or if the kernel refuses (e.g. a cpuset-restricted
//! container) — pinning is silently skipped and the run proceeds
//! unpinned. Affinity is a performance hint, never a correctness
//! requirement: every count-identity property holds pinned or not.

/// Cores available to this process — the modulus for round-robin pin
/// assignment.
pub(crate) fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the calling thread to `cpu` (modulo the mask width). Returns
/// whether the kernel accepted the mask; `false` is always safe to
/// ignore.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn pin_current_thread(cpu: usize) -> bool {
    // A 1024-bit cpu_set_t, the kernel's default mask width.
    let mut mask = [0u64; 16];
    let bit = cpu % 1024;
    mask[bit / 64] |= 1u64 << (bit % 64);
    let len = std::mem::size_of_val(&mask);
    // sched_setaffinity(pid = 0 → calling thread, len, mask)
    let ret: isize;
    // SAFETY: raw sched_setaffinity(2) syscall. pid 0 addresses only
    // the calling thread; `len`/`mask.as_ptr()` describe a live local
    // array the kernel reads, never writes; rcx/r11 are declared
    // clobbered as the syscall ABI requires. Worst case the kernel
    // rejects the mask and we return false — no memory is touched.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    // SAFETY: same syscall via the aarch64 `svc #0` convention — x8
    // carries the syscall number, x0–x2 the same read-only arguments
    // as above, and x0 returns the status in place.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        std::arch::asm!(
            "svc #0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0isize => ret,
            in("x1") len,
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

/// Non-Linux (or exotic-arch) builds: affinity is unavailable; report
/// "not pinned" and let the OS scheduler do its thing.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn pinning_to_an_existing_core_succeeds_and_work_proceeds() {
        // Core 0 exists on every machine; the thread must both accept
        // the mask and keep computing correctly afterwards.
        let pinned = pin_current_thread(0);
        assert!(pinned, "pinning to core 0 must succeed on Linux");
        let sum: u64 = (0..1000u64).sum();
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn out_of_range_cpu_indices_wrap_instead_of_failing() {
        // Round-robin assignment can exceed the core count; the mask
        // wraps at 1024 bits and the call must not panic either way.
        let _ = pin_current_thread(usize::MAX - 3);
        let _ = pin_current_thread(1024);
    }
}
