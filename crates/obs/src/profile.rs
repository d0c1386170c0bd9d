//! Per-op-kind profiling for the autodiff tape.
//!
//! `cf-tensor` wraps each tape op in an [`op_timer`]; when profiling is
//! off (the default) that costs a single relaxed atomic load and no
//! allocation. When enabled via [`set_enabled`], each op records its
//! count, wall time, and an approximate FLOP estimate under a
//! `&'static str` kind name (`"matmul"`, `"bwd.matmul"`, …).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether op profiling is currently on. Hot-path check: one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns op profiling on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Accumulated cost of one op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Number of executions.
    pub count: u64,
    /// Total wall time.
    pub total: Duration,
    /// Approximate floating-point operations (caller-estimated).
    pub flops: u64,
}

fn registry() -> &'static Mutex<HashMap<&'static str, OpStats>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, OpStats>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records one execution of `kind` directly (for call sites that manage
/// their own timing).
pub fn record(kind: &'static str, elapsed: Duration, flops: u64) {
    let mut reg = registry().lock().expect("op profile registry poisoned");
    let s = reg.entry(kind).or_default();
    s.count += 1;
    s.total += elapsed;
    s.flops += flops;
}

/// RAII op timer; inert (no clock read) when profiling is disabled.
#[must_use = "an op timer measures its scope; dropping it immediately records ~0"]
pub struct OpTimer {
    start: Option<Instant>,
    kind: &'static str,
    flops: u64,
}

/// Starts timing one execution of `kind`, attributing `flops` estimated
/// floating-point operations to it on completion.
#[inline]
pub fn op_timer(kind: &'static str, flops: u64) -> OpTimer {
    OpTimer {
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
        kind,
        flops,
    }
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record(self.kind, start.elapsed(), self.flops);
        }
    }
}

/// All recorded op kinds, sorted by total time descending.
pub fn snapshot() -> Vec<(&'static str, OpStats)> {
    let reg = registry().lock().expect("op profile registry poisoned");
    let mut out: Vec<_> = reg.iter().map(|(k, v)| (*k, *v)).collect();
    out.sort_by_key(|&(_, s)| std::cmp::Reverse(s.total));
    out
}

/// Clears all recorded op stats.
pub fn reset() {
    registry()
        .lock()
        .expect("op profile registry poisoned")
        .clear();
}

/// Serialises the op profile as a JSON array sorted by total time
/// descending: `[{op, count, total_secs, mean_us, approx_gflops,
/// gflop_per_s}, …]`.
pub fn snapshot_json() -> String {
    let mut arr = crate::json::Arr::new();
    for (kind, s) in snapshot() {
        arr = arr.raw(&op_json(kind, &s));
    }
    arr.finish()
}

/// One `op_profile` entry. `approx_gflops` is the op kind's *total*
/// estimated work in GFLOP over the run; `gflop_per_s` is the rate, that
/// total divided by `total_secs` (0 when no time was recorded).
fn op_json(kind: &str, s: &OpStats) -> String {
    let secs = s.total.as_secs_f64();
    let mean_us = if s.count == 0 {
        0.0
    } else {
        secs * 1e6 / s.count as f64
    };
    let gflops = s.flops as f64 / 1e9;
    let rate = if secs > 0.0 { gflops / secs } else { 0.0 };
    crate::json::Obj::new()
        .str("op", kind)
        .u64("count", s.count)
        .f64("total_secs", secs)
        .f64("mean_us", mean_us)
        .f64("approx_gflops", gflops)
        .f64("gflop_per_s", rate)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Both tests toggle the global enabled flag; serialise them.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_timer_records_nothing() {
        let _l = FLAG_LOCK.lock().unwrap();
        set_enabled(false);
        {
            let _t = op_timer("t_prof_noop", 100);
        }
        assert!(snapshot().iter().all(|(k, _)| *k != "t_prof_noop"));
    }

    #[test]
    fn enabled_timer_accumulates() {
        let _l = FLAG_LOCK.lock().unwrap();
        set_enabled(true);
        {
            let _t = op_timer("t_prof_op", 10);
        }
        {
            let _t = op_timer("t_prof_op", 15);
        }
        set_enabled(false);
        let stats = snapshot()
            .into_iter()
            .find(|(k, _)| *k == "t_prof_op")
            .map(|(_, s)| s)
            .expect("op recorded");
        assert_eq!(stats.count, 2);
        assert_eq!(stats.flops, 25);
    }

    #[test]
    fn op_json_reports_total_gflop_and_rate() {
        // 1.008 GFLOP in 0.21 s is 4.8 GFLOP/s.
        let s = OpStats {
            count: 4,
            total: Duration::from_millis(210),
            flops: 1_008_000_000,
        };
        let json = op_json("bwd.matmul", &s);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["approx_gflops"].as_f64(), Some(1.008));
        let rate = v["gflop_per_s"].as_f64().unwrap();
        assert!((rate - 4.8).abs() < 1e-12, "{rate}");
        assert_eq!(v["mean_us"].as_f64(), Some(52_500.0));
        let idle = op_json("idle", &OpStats::default());
        assert!(idle.contains("\"gflop_per_s\":0"), "{idle}");
    }
}
