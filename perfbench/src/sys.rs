//! Process resource usage.

/// Peak resident set size of this process image, in MB: `VmHWM` of
/// `/proc/self/status`. `getrusage`'s `ru_maxrss` would not do: it carries
/// over the peak of the image the process had before `exec`, so it reports
/// the launcher's size (a shell, Python, Cargo) whenever that is larger.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for the peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}
