//! Process accounting read from `/proc/self`: CPU time for `cpu_s_per_gb`
//! and the resident-set high-water mark for `peak_rss_mb`. The parsers
//! take the file text so they can be tested without a live process.

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// exposed `USER_HZ = 100` to user space on every architecture since 2.6;
/// reading it through `sysconf` would need `unsafe` or a libc dependency.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15, the 12th and 13th after it.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&text).ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&text).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Hardware threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_counts_fields_after_the_last_paren() {
        // comm contains spaces and a ')' — the classic trap.
        let stat = "1234 (fc bench) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    250 75 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tfcbench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn live_process_has_both() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
