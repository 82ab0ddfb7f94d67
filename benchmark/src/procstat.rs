//! The process's own CPU time and peak memory, read from `/proc/self`
//! (Linux; std only).

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100 on
/// every Linux ABI; reading it properly needs `sysconf`, which std lacks.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, including
/// ones that have exited).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak-RSS watermark to the current RSS, so that the peak
/// read later covers only what ran in between. Returns whether the kernel
/// allowed it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_plausible() {
        let before = cpu_seconds().expect("/proc/self/stat is readable");
        let mut x = 1u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = cpu_seconds().unwrap();
        assert!(after - before >= 0.03, "{before} → {after}");
        let rss = peak_rss_mb().expect("/proc/self/status is readable");
        assert!(rss > 1.0 && rss < 1e6, "{rss}");
    }
}
