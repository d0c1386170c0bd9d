//! `discover-bench` — end-to-end and per-layer benchmark of
//! `causalformer discover`.
//!
//! ```text
//! discover-bench --workload lorenz-n20|sst-wide|store-oocore --seed N \
//!     --seconds S --trace 0|1 [--threads T] [--work-dir DIR] [--trace-out FILE]
//! ```
//!
//! A run generates the workload's input from the seed, times the set-up
//! several times, then runs `discover` in a closed loop — one fresh child
//! process at a time — for `--seconds`, checking every graph against the
//! first. `--trace 0` prints the end-to-end metrics; `--trace 1` adds one
//! traced in-process run and prints the per-layer metrics instead. The
//! last stdout line is the JSON result; a host line precedes it. See
//! `LAYERS.md` beside this crate for the workloads and the layer map.

mod child;
mod counting;
mod e2e;
mod host;
mod replay;
mod stats;
mod trace;
mod traced;
mod workloads;

use e2e::{closed_loop, remove_dir, timed_child};
use host::{cpu_model, nproc};
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{path_arg, Input, Size, Workload};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Threads every run uses unless `--threads` says otherwise.
const DEFAULT_THREADS: usize = 2;
/// The host the recorded figures come from; results from any other host
/// are marked not comparable.
const REFERENCE_NPROC: usize = 2;
const REFERENCE_CPU: &str = "Intel(R) Xeon(R) Processor";
/// CSV set-up probes before every discover run (the median over the run
/// is reported).
const CSV_SETUP_REPS_PER_RUN: usize = 3;
/// Timed end-to-end runs per set even when `--seconds` runs out first.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    work_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: discover-bench --workload lorenz-n20|sst-wide|store-oocore \
[--seed N] [--seconds S] [--trace 0|1] [--threads T] [--work-dir DIR] [--trace-out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut size = Size::Full;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut threads = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num(value)?,
            "--seconds" => seconds = num(value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--threads" => threads = Some(num(value)? as usize),
            "--work-dir" => work_dir = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            // Self-test size: the same paths on inputs small enough for
            // `cargo test`.
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, size).ok_or(format!(
        "unknown workload {name:?} (expected {})",
        workloads::NAMES.join(", ")
    ))?;
    let nproc = nproc();
    let threads = match threads {
        Some(0) => return Err("--threads must be at least 1".into()),
        Some(t) if t > nproc => {
            return Err(format!("--threads {t} exceeds this host's {nproc} cores"))
        }
        Some(t) => t,
        None => DEFAULT_THREADS.min(nproc),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        work_dir,
        trace_out,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host header printed before the result line.
fn host_line(a: &Args) -> String {
    let (nproc, cpu) = (nproc(), cpu_model());
    let comparable =
        nproc == REFERENCE_NPROC && cpu == REFERENCE_CPU && a.threads == DEFAULT_THREADS;
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"threads\":{},\"cpu\":{},\"rustc\":{},\"git\":{},\
         \"seed\":{},\"workload\":{},\"comparable\":{comparable}}}}}",
        a.threads,
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        a.seed,
        json_str(a.workload.name()),
    )
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[traced::Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Times the workload's set-up once. CSV workloads: a fresh process that
/// parses and validates the CSV. store-oocore: the program's `generate
/// --store-out` ingest plus a store open.
fn setup_once(w: &Workload, input: &Input) -> Result<f64, String> {
    if w.uses_store() {
        remove_dir(&input.path)?;
        timed_child(&w.ingest_args(input))
    } else {
        timed_child(&["parse".into(), path_arg(&input.path), w.preset().into()])
    }
}

fn log_summary(name: &str, unit: &str, values: &[f64]) {
    if let Some(s) = Summary::of(values) {
        eprintln!(
            "  {name:<22} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  n={}  spread {:.2}%",
            s.median,
            s.q1,
            s.q3,
            s.count,
            100.0 * s.spread()
        );
    }
}

fn run(a: &Args, work: &Path) -> Result<String, String> {
    let w = &a.workload;
    let inputs = w.prepare(a.seed, work)?;
    let windows: Vec<usize> = inputs
        .iter()
        .map(|input| w.windows_per_epoch(input))
        .collect::<Result<_, _>>()?;
    // Store ingests are slow: one per input, before the loop. CSV probes
    // are cheap: a few before every discover run, so they sample the same
    // stretch of time the discover runs do.
    let mut setup_s = Vec::new();
    if w.uses_store() {
        for input in &inputs {
            setup_s.push(setup_once(w, input)?);
        }
    }
    let n = inputs[0].n;
    let set = closed_loop(
        Duration::from_secs(a.seconds),
        MIN_RUNS,
        inputs.len(),
        n,
        |i, j| {
            if !w.uses_store() {
                for _ in 0..CSV_SETUP_REPS_PER_RUN {
                    setup_s.push(setup_once(w, &inputs[j])?);
                }
            }
            let ckpt = work.join(format!("checkpoints-{i}"));
            remove_dir(&ckpt)?;
            Ok(w.discover_args(&inputs[j], a.threads, &ckpt))
        },
    );
    for f in set.failures() {
        eprintln!("FAILED {f}");
    }
    let (attempted, failed) = (set.attempted(), set.failed());
    eprintln!(
        "{} seed {}: {attempted} runs over {} inputs, {failed} failed (failed_frac {:.3})",
        w.name(),
        a.seed,
        inputs.len(),
        failed as f64 / attempted as f64,
    );
    for (j, input) in inputs.iter().enumerate() {
        let Some(edges) = set.reference(j) else {
            eprintln!("  input {j} (seed {}): first run failed", input.seed);
            continue;
        };
        let graph = e2e::graph_of(n, edges);
        eprintln!(
            "  input {j} (seed {}): {} edges, f1 {:.4}, pod {}",
            input.seed,
            edges.len(),
            cf_metrics::score::f1(&input.truth, &graph),
            cf_metrics::score::pod(&input.truth, &graph)
                .map_or("undefined".into(), |p| format!("{p:.4}")),
        );
    }
    let all_timed = set.timed();
    let steady: Vec<_> = all_timed
        .iter()
        .copied()
        .filter(|(_, r)| r.steady(nproc()))
        .collect();
    eprintln!(
        "  {} of {} timed runs steady; {} set aside for hypervisor steal above {}% \
         (total steal {:.2} s)",
        steady.len(),
        all_timed.len(),
        all_timed.len() - steady.len(),
        100.0 * e2e::STEAL_LIMIT,
        all_timed.iter().map(|(_, r)| r.steal_s).sum::<f64>(),
    );
    let timed = if steady.len() >= MIN_RUNS {
        steady
    } else {
        eprintln!("WARNING too few steady runs; timing every run, steal included");
        all_timed
    };
    let discover_s: Vec<f64> = timed.iter().map(|(_, r)| r.discover_s).collect();
    let rss: Vec<f64> = timed.iter().map(|(_, r)| r.peak_rss_mb).collect();
    let rate: Vec<f64> = timed
        .iter()
        .map(|&(j, r)| (windows[j] * r.epochs) as f64 / r.discover_s)
        .collect();
    log_summary("discover_s", "s", &discover_s);
    log_summary("setup_s", "s", &setup_s);
    log_summary("peak_rss_mb", "MB", &rss);
    log_summary("window_epochs_per_s", "1/s", &rate);
    let med = |v: &[f64]| median(v).ok_or("no successful timed discover run");
    let discover_median = med(&discover_s)?;

    let (metrics, correct) = if a.trace {
        let t = traced::run(w, &inputs[0], a.threads, work, discover_median)?;
        let same = set.reference(0) == Some(&t.edges);
        if !same {
            eprintln!("FAILED traced run: graph differs from the end-to-end graph");
        }
        let out = a.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_out").join(format!("trace-{}-seed{}.json", w.name(), a.seed))
        });
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&out, &t.chrome_json)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!("trace written to {}", out.display());
        for (name, value, unit) in &t.metrics {
            eprintln!("  {name:<28} {value:.6} {unit}");
        }
        (t.metrics, failed == 0 && same)
    } else {
        let metrics = vec![
            ("discover_s", discover_median, "s"),
            ("setup_s", med(&setup_s)?, "s"),
            ("peak_rss_mb", med(&rss)?, "MB"),
            ("window_epochs_per_s", med(&rate)?, "1/s"),
        ];
        (metrics, failed == 0)
    };
    Ok(format!(
        "{}\n{}",
        host_line(a),
        result_line(correct, attempted, failed, &metrics)
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(child::CHILD_FLAG) {
        std::process::exit(child::main(&argv[1..]));
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    cf_par::set_threads(a.threads);
    let work = a
        .work_dir
        .join(format!("{}-{}", a.workload.name(), std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&a, &work));
    let cleanup = remove_dir(&work);
    match (outcome, cleanup) {
        (Ok(lines), Ok(())) => println!("{lines}"),
        (Err(e), _) | (Ok(_), Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn refuses_threads_above_nproc() {
        let too_many = (nproc() + 1).to_string();
        let err = args(&["--workload", "sst-wide", "--threads", &too_many])
            .err()
            .unwrap();
        assert!(err.contains("exceeds"), "{err}");
        assert!(args(&["--workload", "sst-wide", "--threads", "1"]).is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("discover_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"discover_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
