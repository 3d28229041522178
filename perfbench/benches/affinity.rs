//! Pins every thread of this process to one CPU for a while.
//!
//! A status round trip on an idle daemon wakes threads across CPUs. On a
//! virtual machine a wake-up that lands on an idle CPU waits for the host to
//! run that CPU again, which took from microseconds to milliseconds between
//! runs of the same code. With every thread on one CPU, a round trip is the
//! request path's own work and its context switches.

use std::mem::size_of;

/// A Linux `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get(tid: i32) -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer whose size is
    // passed alongside it.
    let ok = unsafe { sched_getaffinity(tid, size_of::<CpuSet>(), &mut set) } == 0;
    ok.then_some(set)
}

fn set(tid: i32, mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer whose size is
    // passed alongside it.
    unsafe { sched_setaffinity(tid, size_of::<CpuSet>(), mask) == 0 }
}

/// The process's threads, by thread id.
fn threads() -> Vec<i32> {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect()
}

/// Restores each pinned thread's CPU set when dropped.
pub struct Pinned(Vec<(i32, CpuSet)>);

impl Drop for Pinned {
    fn drop(&mut self) {
        for (tid, mask) in &self.0 {
            // A thread that has ended since is gone; nothing to restore.
            set(*tid, mask);
        }
    }
}

/// Pins every current thread of the process to the lowest CPU the calling
/// thread may run on. Threads they start inherit the pin. Where the calls
/// fail (another platform, a sandbox), nothing is pinned.
pub fn pin_process() -> Pinned {
    let mut saved = Vec::new();
    let Some(own) = get(0) else {
        return Pinned(saved);
    };
    let Some(cpu) = (0..1024).find(|&c| own.0[c / 64] >> (c % 64) & 1 == 1) else {
        return Pinned(saved);
    };
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    for tid in threads() {
        if let Some(mask) = get(tid) {
            if set(tid, &one) {
                saved.push((tid, mask));
            }
        }
    }
    Pinned(saved)
}
