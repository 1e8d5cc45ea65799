//! What the benchmark reads from the host: process CPU time and peak
//! memory, plus the scratch directories a run writes its result stores and
//! span files into.

use std::fs;
use std::path::{Path, PathBuf};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs that
/// are not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage` (checked by the cfg gate above), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU time of the whole process (every thread, live or
/// joined), in seconds.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident memory of the process so far, in MiB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which keeps the peak of the
/// process image before `exec`, so under `cargo run` it would report
/// cargo's own memory whenever that was larger.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line in kB".to_string())
}

/// A directory owned by this process and removed, with everything in it,
/// when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `path` afresh, removing whatever a killed earlier run left
    /// there.
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The build directory the benchmark executable sits in (`<target>` of
/// `<target>/release/perfbench`): every file a run writes goes below it, so
/// nothing lands in the source tree.
pub fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("executable {} has no build directory", exe.display()))
}
