//! Process memory introspection for the benchmark harness.

/// Peak resident set size of the current process in bytes, read from
/// `VmHWM` in `/proc/self/status`. Returns `None` when the information is
/// unavailable (non-Linux platforms, restricted procfs).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // Any running process has touched at least a few pages.
            assert!(bytes > 4096, "implausible peak RSS {bytes}");
        }
    }
}
