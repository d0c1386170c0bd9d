//! Child-process side. Every end-to-end `discover` and every set-up probe
//! runs in a fresh process (this binary, re-executed with `__child`), so
//! each run's peak RSS is its own. The child enters the program the way
//! the `causalformer` binary does: `cf_cli::parse` then `run_discover` /
//! `run_generate`.

use crate::host::{self, process_cpu_s};
use cf_cli::{parse, run_discover, run_generate, CliError, Command};
use std::time::Instant;

/// First argument that selects child mode.
pub const CHILD_FLAG: &str = "__child";

/// Prefix of the one line a `discover` child appends to its report.
pub const RESULT_PREFIX: &str = "@bench ";

/// Runs a child mode and returns the process exit code.
///
/// * `discover ARGS…` — runs `discover`, prints its report, then
///   `@bench discover_s=<s> vmhwm_kb=<kB> cpu_s=<s> steal_s=<s>`: wall
///   time, peak RSS, this process's CPU time, and the machine's steal.
/// * `generate ARGS…` — runs `generate`, then opens the store it wrote.
/// * `parse CSV PRESET` — parses and validates a CSV the way `discover`
///   does before training (the CSV workloads' set-up probe).
pub fn main(args: &[String]) -> i32 {
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("child: missing mode");
        return 2;
    };
    let outcome = match mode.as_str() {
        "discover" => discover(args),
        "generate" => generate(args),
        "parse" => parse_probe(rest),
        other => Err(CliError::Usage(format!("child: unknown mode {other:?}"))),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                CliError::Usage(_) => 2,
                CliError::Run(_) => 1,
            }
        }
    }
}

fn discover(args: &[String]) -> Result<(), CliError> {
    let Command::Discover(a) = parse(args)? else {
        return Err(CliError::Usage("child: expected a discover command".into()));
    };
    let (cpu0, steal0) = (process_cpu_s(), host::steal_s());
    let started = Instant::now();
    let report = run_discover(&a)?;
    let secs = started.elapsed().as_secs_f64();
    let (cpu, steal) = (process_cpu_s() - cpu0, host::steal_s() - steal0);
    print!("{report}");
    let hwm = host::vm_hwm_kb().ok_or_else(|| CliError::Run("cannot read VmHWM".into()))?;
    println!("{RESULT_PREFIX}discover_s={secs} vmhwm_kb={hwm} cpu_s={cpu} steal_s={steal}");
    Ok(())
}

fn generate(args: &[String]) -> Result<(), CliError> {
    let Command::Generate(a) = parse(args)? else {
        return Err(CliError::Usage("child: expected a generate command".into()));
    };
    print!("{}", run_generate(&a)?);
    if let Some(dir) = &a.store_out {
        cf_store::SeriesStore::open_dir(dir)
            .map_err(|e| CliError::Run(format!("opening store {dir}: {e}")))?;
    }
    Ok(())
}

fn parse_probe(rest: &[String]) -> Result<(), CliError> {
    let [path, preset] = rest else {
        return Err(CliError::Usage("child: parse CSV PRESET".into()));
    };
    let parsed = cf_data::io::read_series_csv_file(path)
        .map_err(|e| CliError::Run(format!("reading {path}: {e}")))?;
    let (n, len) = (parsed.series.shape()[0], parsed.series.shape()[1]);
    let cf = cf_cli::preset_by_name(preset, n)?;
    if cf.model.window >= len {
        return Err(CliError::Run(format!(
            "window {} does not fit series of length {len}",
            cf.model.window
        )));
    }
    Ok(())
}
