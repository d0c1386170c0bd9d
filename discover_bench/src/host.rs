//! Readings of the host and of this process from `/proc`.

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first CPU's model name, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process CPU seconds: the sum of every live thread's on-CPU time from
/// `/proc/self/task/*/schedstat`, or `/proc/self/stat` ticks if absent.
pub fn process_cpu_s() -> f64 {
    let from_schedstat = || -> Option<f64> {
        let mut ns = 0u64;
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let text = std::fs::read_to_string(entry.ok()?.path().join("schedstat")).ok()?;
            ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(ns as f64 / 1e9)
    };
    let from_stat = || -> Option<f64> {
        let text = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in 1/100 s ticks.
        let mut rest = text.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: f64 = rest.next()?.parse().ok()?;
        let stime: f64 = rest.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    };
    from_schedstat().or_else(from_stat).unwrap_or(0.0)
}

/// Seconds of CPU time the hypervisor took from this machine's vCPUs
/// (the `steal` column of `/proc/stat`, summed over CPUs), or 0.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu user nice system idle iowait irq softirq steal …
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process (`VmHWM`, kB).
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
