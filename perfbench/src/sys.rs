//! Process and thread measurements read from the operating system (Linux):
//! CPU clocks, resident memory, and the timer slack of the calling thread.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on) for the duration
    // of the call, and both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Lowers the calling thread's timer slack to 1 ns, so a sleeping generator
/// wakes at its due time instead of up to the default 50 µs later.
pub fn lower_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned-long argument and only
    // changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").unwrap_or(0) * 1024
}

/// Peak resident set size since the last [`reset_peak_rss`] (or process
/// start), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:").unwrap_or(0) * 1024
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_bytes`] covers only what runs after this call. Returns whether
/// the reset took effect.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
