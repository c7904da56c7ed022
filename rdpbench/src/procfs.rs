//! Process memory and CPU time from `/proc/self` (Linux).

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    rdp_bench::mem::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, including threads
/// that have exited. `/proc/self/stat` counts in clock ticks; Linux fixes
/// the user-visible tick (`USER_HZ`) at 100 per second.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) (utime, stime) sit at 11 and 12 after
    // the command name.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

fn status_kb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_positive_values() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(rss_mb().unwrap() > 0.0);
        let spin: u64 = (0..20_000_000u64).fold(0, |a, i| a.wrapping_add(i * i));
        std::hint::black_box(spin);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
