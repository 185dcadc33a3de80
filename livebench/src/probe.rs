//! Process probes read from `/proc/self`.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream kernel configuration.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (0 where it is unavailable).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime is field 14, stime field 15.
    (tick(14 - 3) + tick(15 - 3)) / USER_HZ
}

/// Peak resident set size in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_probes_read_proc() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
