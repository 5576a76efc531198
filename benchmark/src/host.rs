//! Process settings that make one run comparable with the next on a
//! small shared host. Both are applied before a workload starts any
//! thread, and both are inherited by every thread it starts.
//!
//! - One CPU: a closed-loop round trip between a client thread and a
//!   session thread then costs a context switch, not a wake-up of the
//!   other CPU, whose latency on a virtual machine depends on what the
//!   rest of the host is doing. On two vCPUs this cut the run-to-run
//!   spread of `serve_write`'s median round trip from 9 % to 3 %.
//! - One malloc arena: otherwise glibc gives threads their own arenas as
//!   they happen to contend, and peak RSS depends on which threads
//!   allocated first (a 17 % spread on `serve_write`, 3 % with one arena).

/// Pins the calling thread, and the threads it starts later, to the lowest
/// CPU it may run on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and exactly `size` bytes long; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..1024)
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly `size` bytes long.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".into())
}

/// Makes every thread allocate from glibc's main arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called before
    // the workload starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX) failed".into())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() -> Result<(), String> {
    Err("the arena limit is implemented for glibc only".into())
}
