//! What the benchmark reads about its own process and host: CPU time,
//! peak resident memory, free disk space, and which source tree it was
//! built from.

use crate::Args;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux's fixed USER_HZ).
const USER_HZ: f64 = 100.0;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// CPU seconds (user + system) used so far by every thread of this
/// process, exited threads included.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name may contain spaces; the fields after it do not.
    let rest = stat
        .rsplit_once(')')
        .ok_or_else(|| bad("no ')' in /proc/self/stat".into()))?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| bad(format!("bad field {} in /proc/self/stat", i + 3)))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| bad("no VmHWM in /proc/self/status".into()))?;
    Ok(kib as f64 * 1024.0 / 1e6)
}

/// Bytes free to an unprivileged writer on the file system holding `dir`.
pub fn free_disk_bytes(dir: &Path) -> io::Result<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output()?;
    if !out.status.success() {
        return Err(bad(format!("df failed on {}", dir.display())));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|kib| kib.parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| bad(format!("unreadable df output: {text}")))
}

/// Total bytes of the regular files under `dir` (0 if it is gone).
pub fn bytes_under(dir: &Path) -> io::Result<u64> {
    if !dir.exists() {
        return Ok(0);
    }
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let ty = entry.file_type()?;
        if ty.is_dir() {
            total += bytes_under(&entry.path())?;
        } else {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Runs this program again as `--probe setup` on the same workload and
/// seed, waits for it, and returns the set-up time it printed.
///
/// Set-up is sampled in fresh processes spread over the run, and the run
/// reports the fastest: on the reference VM whole processes measured
/// either about 1.8 µs or about 3.1 µs for the same `check_ram` build
/// (depending on where the heap landed), and the host slowed every probe
/// of a stretch of seconds now and then, which moved means and medians
/// by 20-45% from run to run.
pub fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--probe", "setup"])
        .output()
        .map_err(|e| format!("running the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark runs on: `HEAD` when the tree is a git
/// checkout, otherwise an FNV-1a fingerprint of the library sources
/// (`src-<hex>`), which is equal for equal trees.
pub fn commit() -> String {
    git_head().unwrap_or_else(|| format!("src-{:016x}", source_fingerprint()))
}

fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
