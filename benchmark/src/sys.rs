//! The Linux calls std does not expose (`ppoll` with a nanosecond timeout,
//! timer slack), plus the process facts the result file records.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};

/// Readable data is waiting.
pub const POLLIN: i16 = 0x001;
/// Writing will not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition (reported whether asked for or not).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (reported whether asked for or not).
pub const POLLHUP: i16 = 0x010;

const PR_SET_TIMERSLACK: c_int = 29;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: c_int,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Sets this thread's timer slack, so a `ppoll` timeout fires when it was
/// asked to rather than up to 50 µs later (the default slack).
pub fn set_timer_slack_ns(ns: u64) -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Waits until one of `fds` is ready or `timeout_ns` passes. Returns the
/// number of ready descriptors (0 on timeout); `EINTR` counts as a timeout.
pub fn poll(fds: &mut [PollFd], timeout_ns: u64) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // pollfd structs for the duration of the call; `ts` outlives it; a
    // null signal mask leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Resident set size of this process in MiB (`VmRSS`), or `None` where
/// `/proc` is unavailable.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the CPU has AVX2 (the GEMM and int8 kernels dispatch on it).
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
