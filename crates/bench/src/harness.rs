//! Command-line options shared by all experiment binaries.

use cf_tensor::Dtype;

/// Options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Reduced-budget mode: fewer seeds, shorter series, smaller epoch
    /// budgets. Intended for CI and for reproducing table *shapes* quickly.
    pub quick: bool,
    /// Number of random seeds per (method, dataset) cell.
    pub seeds: usize,
    /// Optional JSON output path.
    pub json_out: Option<String>,
    /// Also write a per-run metrics artifact (wall times, tape op profile,
    /// span summary) next to the `--json` output.
    pub metrics: bool,
    /// Worker-thread override; `None` keeps the `CF_THREADS` / core-count
    /// default. Results are bitwise identical at any thread count, so this
    /// only affects wall time.
    pub threads: Option<usize>,
    /// CI smoke mode: tiny fixed budgets (seconds, not minutes). Timing
    /// numbers are meaningless in this mode — it exists so CI can prove
    /// the binary still runs end-to-end and emits finite output.
    pub smoke: bool,
    /// Chrome trace_event JSON output path. Parsing the flag enables the
    /// recorder immediately; binaries write the file with
    /// [`maybe_write_trace`] before exiting.
    pub trace_out: Option<String>,
    /// Compute precision for CausalFormer cells (`--dtype f32|f64`). The
    /// baselines always run f64; f64 is the bitwise-reproducible default.
    pub dtype: Dtype,
    /// Live heartbeat JSONL output path (`--heartbeat-out`). Binaries opt
    /// in by calling [`maybe_start_heartbeat`] after parsing; the stream is
    /// tailable with `causalformer monitor PATH` while the run is live.
    pub heartbeat_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            quick: false,
            seeds: 5,
            json_out: None,
            metrics: false,
            threads: None,
            smoke: false,
            trace_out: None,
            dtype: Dtype::F64,
            heartbeat_out: None,
        }
    }
}

/// Parses `--quick`, `--seeds K`, and `--json PATH` from an argument
/// iterator (binary name already stripped). Unknown arguments abort with a
/// usage message.
pub fn parse_options(args: impl Iterator<Item = String>) -> Options {
    let mut options = Options::default();
    let mut explicit_seeds = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--seeds" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--seeds requires a value"));
                options.seeds = v
                    .parse()
                    .unwrap_or_else(|_| usage_abort("--seeds must be a positive integer"));
                if options.seeds == 0 {
                    usage_abort("--seeds must be ≥ 1");
                }
                explicit_seeds = true;
            }
            "--json" => {
                options.json_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_abort("--json requires a path")),
                );
            }
            "--metrics" => options.metrics = true,
            "--trace-out" => {
                options.trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_abort("--trace-out requires a path")),
                );
            }
            "--heartbeat-out" => {
                options.heartbeat_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_abort("--heartbeat-out requires a path")),
                );
            }
            "--smoke" => {
                options.smoke = true;
                options.quick = true;
            }
            "--dtype" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--dtype requires f32 or f64"));
                options.dtype = v
                    .parse()
                    .unwrap_or_else(|_| usage_abort("--dtype must be f32 or f64"));
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--threads requires a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage_abort("--threads must be a positive integer"));
                if n == 0 {
                    usage_abort("--threads must be ≥ 1");
                }
                options.threads = Some(n);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_abort(&format!("unknown argument: {other}")),
        }
    }
    if options.quick && !explicit_seeds {
        options.seeds = if options.smoke { 1 } else { 2 };
    }
    if let Some(n) = options.threads {
        cf_par::set_threads(n);
    }
    if options.trace_out.is_some() {
        cf_obs::trace::reset();
        cf_obs::trace::set_enabled(true);
    }
    options
}

/// Heartbeat streams are stamped with the same schema version as the CLI's
/// `--metrics-out` artifacts (`cf_cli::METRICS_SCHEMA_VERSION`) so one
/// `monitor` binary reads both; keep the two constants in step.
pub const HEARTBEAT_SCHEMA_VERSION: &str = "2.3";

/// Starts the live heartbeat sampler when `--heartbeat-out` was given or a
/// `CF_WATCHDOG` policy is set in the environment (file-less watchdog
/// mode). Returns a guard the binary must keep alive for the whole run;
/// call [`stop_heartbeat`] (or let it drop) at the end.
pub fn maybe_start_heartbeat(options: &Options) -> Option<cf_obs::heartbeat::Heartbeat> {
    if options.heartbeat_out.is_none() && std::env::var_os("CF_WATCHDOG").is_none() {
        return None;
    }
    cf_tensor::pool::install_obs_sampler();
    cf_obs::heartbeat::reset_progress();
    let cfg = cf_obs::heartbeat::Config::from_env(HEARTBEAT_SCHEMA_VERSION);
    let path = options.heartbeat_out.as_deref().map(std::path::Path::new);
    match cf_obs::heartbeat::start(path, cfg) {
        Ok(hb) => Some(hb),
        Err(e) => {
            eprintln!("error: starting heartbeat: {e}");
            std::process::exit(1);
        }
    }
}

/// Flushes the `run_end` event and announces the heartbeat artifact. Call
/// once, at the end of the binary.
pub fn stop_heartbeat(options: &Options, heartbeat: Option<cf_obs::heartbeat::Heartbeat>) {
    if let Some(hb) = heartbeat {
        hb.stop();
        if let Some(path) = &options.heartbeat_out {
            println!("heartbeat written to {path}");
        }
    }
}

/// Stops the trace recorder and writes the Chrome trace when the run was
/// started with `--trace-out`. Call once, at the end of the binary.
pub fn maybe_write_trace(options: &Options) {
    if let Some(path) = &options.trace_out {
        cf_obs::trace::set_enabled(false);
        match cf_obs::export::write_chrome_trace(std::path::Path::new(path)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("error: writing trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

const USAGE: &str = "\
usage: <experiment> [--quick] [--smoke] [--seeds K] [--json PATH] [--metrics]
                    [--threads N] [--dtype D] [--trace-out PATH]
                    [--heartbeat-out PATH]
  --quick      reduced budgets (2 seeds, shorter series, fewer epochs)
  --smoke      CI smoke mode: implies --quick, 1 seed, tiny fixed budgets;
               proves the binary runs and emits finite output (timings are
               meaningless)
  --seeds K    seeds per cell (default 5; 2 with --quick)
  --json PATH  dump machine-readable results
  --metrics    also write wall times + op profile to <PATH>.metrics.json
               (metrics.json without --json)
  --threads N  worker threads (default: CF_THREADS env, else all cores;
               results are identical at any thread count)
  --dtype D    CausalFormer compute precision: f64 (default, bitwise-
               reproducible) or f32 (~2× faster; baselines stay f64)
  --trace-out PATH
               record a Chrome trace_event timeline of the whole run
               (load it in Perfetto / chrome://tracing)
  --heartbeat-out PATH
               stream live heartbeat samples (RSS, pool hit rate, worker
               progress) to PATH as JSONL; tail the run with
               `causalformer monitor PATH` (period: CF_HEARTBEAT_MS,
               stall policy: CF_WATCHDOG=warn:SECS|fatal:SECS)";

fn usage_abort(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_options(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.quick);
        assert_eq!(o.seeds, 5);
        assert!(o.json_out.is_none());
    }

    #[test]
    fn quick_lowers_default_seeds() {
        let o = parse(&["--quick"]);
        assert!(o.quick);
        assert_eq!(o.seeds, 2);
    }

    #[test]
    fn explicit_seeds_override_quick_default() {
        let o = parse(&["--quick", "--seeds", "7"]);
        assert_eq!(o.seeds, 7);
        let o2 = parse(&["--seeds", "3", "--quick"]);
        assert_eq!(o2.seeds, 3);
    }

    #[test]
    fn json_path_captured() {
        let o = parse(&["--json", "/tmp/out.json"]);
        assert_eq!(o.json_out.as_deref(), Some("/tmp/out.json"));
    }

    #[test]
    fn metrics_flag_captured() {
        assert!(!parse(&[]).metrics);
        assert!(parse(&["--metrics"]).metrics);
    }

    #[test]
    fn smoke_implies_quick_with_one_seed() {
        let o = parse(&["--smoke"]);
        assert!(o.smoke && o.quick);
        assert_eq!(o.seeds, 1);
        let o2 = parse(&["--smoke", "--seeds", "3"]);
        assert_eq!(o2.seeds, 3);
    }

    #[test]
    fn trace_out_path_captured_and_recorder_enabled() {
        assert!(parse(&[]).trace_out.is_none());
        let o = parse(&["--trace-out", "/tmp/t.json"]);
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.json"));
        assert!(cf_obs::trace::enabled());
        cf_obs::trace::set_enabled(false);
        cf_obs::trace::reset();
    }

    #[test]
    fn heartbeat_out_path_captured() {
        assert!(parse(&[]).heartbeat_out.is_none());
        let o = parse(&["--heartbeat-out", "/tmp/hb.jsonl"]);
        assert_eq!(o.heartbeat_out.as_deref(), Some("/tmp/hb.jsonl"));
    }

    #[test]
    fn dtype_flag_captured_with_f64_default() {
        assert_eq!(parse(&[]).dtype, Dtype::F64);
        assert_eq!(parse(&["--dtype", "f32"]).dtype, Dtype::F32);
        assert_eq!(parse(&["--dtype", "f64"]).dtype, Dtype::F64);
    }

    #[test]
    fn threads_flag_captured_and_applied() {
        assert_eq!(parse(&[]).threads, None);
        let o = parse(&["--threads", "2"]);
        assert_eq!(o.threads, Some(2));
        assert_eq!(cf_par::threads(), 2);
    }
}
