//! The machine record printed with every run, and the process-level
//! clocks (CPU time, peak resident memory) read from `/proc`.

/// Rust compiler that built the benchmark (`rustc -V`, captured by the
/// build script).
const RUSTC: &str = env!("PERFBENCH_RUSTC");
/// Cargo build profile and optimisation level of the benchmark binary.
const PROFILE: &str = env!("PERFBENCH_PROFILE");

/// Cores the process may run on (what `nproc` prints).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line describing the machine and the build, e.g.
/// `nproc=2 rustc="rustc 1.95.0 (…)" profile=release/opt3`.
pub fn record() -> String {
    format!("nproc={} rustc=\"{RUSTC}\" profile={PROFILE}", nproc())
}

/// User + system CPU seconds of the whole process, threads that already
/// exited included (`/proc/self/stat`, clock ticks of 1/100 s). Zero
/// where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name may contain spaces; fields restart after its `)`
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is the state (field 3), so utime/stime (14/15) sit at 11/12
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of the process so far in MiB (`VmHWM`). Zero
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
