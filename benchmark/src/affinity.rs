//! Pins a workload's process to one CPU and raises its priority.
//!
//! Every workload keeps one thread runnable at a time and runs on the last
//! CPU only. The machine has two, and the other one is left to whatever else
//! lives in the sandbox (the harness that started the benchmark, kernel
//! threads, the interrupts of its I/O): a workload that keeps both busy is
//! preempted by every one of those, and two threads that contend amplify each
//! preemption. Where an operation is a chain of wake-ups (`queue_handoff_tl2`,
//! `server_transfer_cs`) there is a second reason: left to the scheduler the
//! chain hops between cores, and on a virtual machine a cross-core wake-up
//! costs an inter-processor interrupt through the hypervisor: the same code
//! measured 35 us or 200 us per request depending on where the threads
//! happened to land. On one CPU a wake-up is a context switch, and what is
//! left is the program's own path.
//!
//! The standard library has neither call and the sandbox has no `libc` crate,
//! so this issues the system calls itself.

use std::fs;

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            Some(first.trim().parse::<usize>().ok()?..=last.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Room for CPUs 0..1024, the kernel's own default limit.
type CpuMask = [u64; 16];

/// Call numbers of `(sched_setaffinity, setpriority)`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS: (usize, usize) = (203, 141);
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS: (usize, usize) = (122, 140);

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
    let result: isize;
    // SAFETY: both calls made through here change only scheduling state; the
    // one pointer passed (`sched_setaffinity`'s mask) outlives the call and
    // is only read. `syscall` clobbers rcx and r11, both declared.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => result,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    result
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
    let result: isize;
    // SAFETY: as on x86-64; `svc 0` takes the call number in x8 and returns
    // in x0.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") number,
            inlateout("x0") a as isize => result,
            in("x1") b,
            in("x2") c,
            options(nostack, readonly),
        );
    }
    result
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const SYS: (usize, usize) = (0, 0);

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn syscall3(_number: usize, _a: usize, _b: usize, _c: usize) -> isize {
    -38 // ENOSYS
}

fn sched_setaffinity(mask: &CpuMask) -> isize {
    syscall3(SYS.0, 0, size_of::<CpuMask>(), mask.as_ptr() as usize)
}

/// Gives the calling thread, and every thread it starts from here on, the
/// highest ordinary priority (`nice` -20), so that another process that lands
/// on the workload's CPU gets a hundredth of it and not half. Needs root or
/// `CAP_SYS_NICE`; without them the workload runs at the priority it was
/// started with, and the error says so.
pub fn raise_priority() -> Result<(), String> {
    // setpriority(PRIO_PROCESS, 0 = the caller, -20)
    match syscall3(SYS.1, 0, 0, -20isize as usize) {
        0 => Ok(()),
        errno => Err(format!("setpriority failed with {errno}")),
    }
}

/// Pins the calling thread, and every thread it starts from here on, to the
/// last CPU the process is allowed on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .last()
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    let mut mask: CpuMask = [0; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the mask"))? |= 1 << (cpu % 64);
    match sched_setaffinity(&mask) {
        0 => Ok(cpu),
        errno => Err(format!("sched_setaffinity failed with {errno}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_list_to_one_cpu() {
        // Runs on its own thread: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            assert!(!before.is_empty());
            let cpu = pin_to_one_cpu().expect("pinning works on this platform");
            assert_eq!(allowed_cpus(), vec![cpu]);
            assert_eq!(Some(&cpu), before.last());
        })
        .join()
        .unwrap();
    }
}
