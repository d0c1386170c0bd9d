//! End-to-end runs: a closed loop from one parent process, one `discover`
//! child at a time, each checked against the first run of the set.

use crate::child::{CHILD_FLAG, RESULT_PREFIX};
use cf_metrics::CausalGraph;
use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// A graph as comparable data: `(from, to, delay)` sorted.
pub type EdgeList = Vec<(usize, usize, Option<usize>)>;

pub fn edge_list(g: &CausalGraph) -> EdgeList {
    let mut v: EdgeList = g.edges().map(|e| (e.from, e.to, e.delay)).collect();
    v.sort_unstable();
    v
}

pub fn graph_of(n: usize, edges: &EdgeList) -> CausalGraph {
    let mut g = CausalGraph::new(n);
    for &(from, to, delay) in edges {
        g.add_edge(from, to, delay);
    }
    g
}

/// What one successful `discover` child reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    pub discover_s: f64,
    /// The child's CPU seconds over the same span.
    pub cpu_s: f64,
    /// CPU seconds the hypervisor took from the machine over that span.
    pub steal_s: f64,
    pub peak_rss_mb: f64,
    pub epochs: usize,
    pub edges: EdgeList,
}

/// Share of the machine's CPU time the hypervisor may take during a
/// discover run before its timing is set aside. On a shared VM, stolen
/// time is time the program could not run at all: a run that lost a
/// vCPU for a while measures the neighbours, not the program.
pub const STEAL_LIMIT: f64 = 0.05;

impl RunOutcome {
    /// Whether the hypervisor took at most [`STEAL_LIMIT`] of the
    /// machine's `cores` CPUs during the run.
    pub fn steady(&self, cores: usize) -> bool {
        self.steal_s <= STEAL_LIMIT * self.discover_s * cores as f64
    }
}

/// Runs this binary in child mode and waits for it.
pub fn spawn_child(args: &[String]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    Command::new(exe)
        .arg(CHILD_FLAG)
        .args(args)
        .output()
        .map_err(|e| format!("spawning child: {e}"))
}

/// Runs a child and returns its wall time from spawn to exit; a non-zero
/// exit is an error carrying the child's stderr.
pub fn timed_child(args: &[String]) -> Result<f64, String> {
    let started = Instant::now();
    let out = spawn_child(args)?;
    let secs = started.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(failure_text(&out));
    }
    Ok(secs)
}

fn failure_text(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
    format!(
        "child exited with {}: {}",
        out.status,
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    )
}

/// One `discover` child. Fails on a non-zero exit (a panic included), on a
/// degraded training run, or when the report cannot be read.
pub fn discover_once(args: &[String], n: usize) -> Result<RunOutcome, String> {
    let out = spawn_child(args)?;
    if !out.status.success() {
        return Err(failure_text(&out));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("degrading to best-so-far") {
        return Err("training degraded (retry budget exhausted)".into());
    }
    let epochs = count_epoch_lines(&stderr);
    if epochs == 0 {
        return Err("no per-epoch log lines in the child's stderr".into());
    }
    let [discover_s, hwm_kb, cpu_s, steal_s] = parse_result_line(&stdout)?;
    Ok(RunOutcome {
        discover_s,
        cpu_s,
        steal_s,
        peak_rss_mb: hwm_kb / 1024.0,
        epochs,
        edges: parse_edges(&stdout, n)?,
    })
}

/// Completed epochs: one `[info] epoch k/N train_loss …` line each.
pub fn count_epoch_lines(stderr: &str) -> usize {
    stderr
        .lines()
        .filter(|l| l.contains("epoch") && l.contains("train_loss"))
        .count()
}

fn parse_result_line(stdout: &str) -> Result<[f64; 4], String> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RESULT_PREFIX))
        .ok_or("child printed no result line")?;
    let field = |key: &str| -> Result<f64, String> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or(format!("result line lacks {key}: {line}"))
    };
    Ok([
        field("discover_s")?,
        field("vmhwm_kb")?,
        field("cpu_s")?,
        field("steal_s")?,
    ])
}

/// Reads the edges of `discover`'s report: one `  S<a> -> S<b> (delay d)`
/// line per edge, after a `discovered K causal relations …` header.
pub fn parse_edges(stdout: &str, n: usize) -> Result<EdgeList, String> {
    let mut lines = stdout.lines();
    let header = lines
        .find(|l| l.starts_with("discovered "))
        .ok_or("report has no 'discovered' header")?;
    let k: usize = header
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("unreadable header: {header}"))?;
    let series = |name: &str| -> Result<usize, String> {
        name.strip_prefix('S')
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|i| (1..=n).contains(i))
            .map(|i| i - 1)
            .ok_or(format!("unknown series {name:?}"))
    };
    let mut edges = EdgeList::with_capacity(k);
    for line in lines.take(k) {
        let mut parts = line.split_whitespace();
        let (Some(from), Some("->"), Some(to)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("unreadable edge line: {line:?}"));
        };
        let delay = match (parts.next(), parts.next()) {
            (Some("(delay"), Some(d)) => Some(
                d.trim_end_matches(')')
                    .parse()
                    .map_err(|_| format!("unreadable delay: {line:?}"))?,
            ),
            (None, _) => None,
            _ => return Err(format!("unreadable edge line: {line:?}")),
        };
        edges.push((series(from)?, series(to)?, delay));
    }
    if edges.len() != k {
        return Err(format!(
            "header promises {k} edges, report lists {}",
            edges.len()
        ));
    }
    edges.sort_unstable();
    Ok(edges)
}

/// One attempted run: which of the set's inputs it ran on, and what came
/// back.
#[derive(Debug)]
pub struct Run {
    pub input: usize,
    pub outcome: Result<RunOutcome, String>,
}

/// Every attempted run of one set, in order.
#[derive(Debug, Default)]
pub struct RunSet {
    pub runs: Vec<Run>,
}

impl RunSet {
    /// An input's reference graph: its first run's.
    pub fn reference(&self, input: usize) -> Option<&EdgeList> {
        let first = self.runs.iter().find(|r| r.input == input)?;
        first.outcome.as_ref().ok().map(|r| &r.edges)
    }

    /// Why run `i` failed, if it did: an error, or a graph that differs
    /// from the first run's on the same input.
    fn failure(&self, i: usize) -> Option<String> {
        let run = &self.runs[i];
        match &run.outcome {
            Err(e) => Some(e.clone()),
            Ok(o) if self.reference(run.input) != Some(&o.edges) => {
                Some("graph differs from the first run's on this input".into())
            }
            Ok(_) => None,
        }
    }

    /// Good runs whose timings count, with their input: all but the set's
    /// first run, which warms the page cache and the allocator and is
    /// checked but not timed.
    pub fn timed(&self) -> Vec<(usize, &RunOutcome)> {
        (1..self.runs.len())
            .filter(|&i| self.failure(i).is_none())
            .filter_map(|i| Some((self.runs[i].input, self.runs[i].outcome.as_ref().ok()?)))
            .collect()
    }

    pub fn attempted(&self) -> usize {
        self.runs.len()
    }

    pub fn failed(&self) -> usize {
        (0..self.runs.len())
            .filter(|&i| self.failure(i).is_some())
            .count()
    }

    /// One line per failed run, for the log.
    pub fn failures(&self) -> Vec<String> {
        (0..self.runs.len())
            .filter_map(|i| Some(format!("run {i}: {}", self.failure(i)?)))
            .collect()
    }
}

/// Closed loop over `inputs` inputs in turn: one child at a time until
/// `budget` has elapsed after the untimed first run and at least
/// `min_runs` timed runs are steady (see [`RunOutcome::steady`]), or
/// until one and a half times `budget` has elapsed. `make_args(i, input)` builds run
/// `i`'s command line.
pub fn closed_loop(
    budget: Duration,
    min_runs: usize,
    inputs: usize,
    n: usize,
    mut make_args: impl FnMut(usize, usize) -> Result<Vec<String>, String>,
) -> RunSet {
    let cores = crate::host::nproc();
    let mut started = Instant::now();
    let mut set = RunSet::default();
    loop {
        let steady = set.timed().iter().filter(|(_, r)| r.steady(cores)).count();
        let elapsed = started.elapsed();
        let done = steady >= min_runs && elapsed >= budget;
        if !set.runs.is_empty() && (done || elapsed >= budget * 3 / 2) {
            break;
        }
        let i = set.runs.len();
        let input = i % inputs;
        let outcome = make_args(i, input).and_then(|args| discover_once(&args, n));
        if let Ok(r) = &outcome {
            eprintln!(
                "  run {i} (input {input}): discover_s {:.4}  cpu_s {:.2}  steal_s {:.2}  \
                 peak_rss_mb {:.2}  epochs {}  edges {}",
                r.discover_s,
                r.cpu_s,
                r.steal_s,
                r.peak_rss_mb,
                r.epochs,
                r.edges.len()
            );
        }
        set.runs.push(Run { input, outcome });
        if i == 0 {
            started = Instant::now();
        }
    }
    set
}

/// Removes a directory tree if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "discovered 3 causal relations over 3 series (200 slots):
  S1 -> S1 (delay 1)
  S3 -> S2 (delay 4)
  S1 -> S2 (delay 2)
@bench discover_s=1.25 vmhwm_kb=20480 cpu_s=2.4 steal_s=0.01
";

    #[test]
    fn parses_a_discover_report() {
        let edges = parse_edges(REPORT, 3).unwrap();
        assert_eq!(
            edges,
            vec![(0, 0, Some(1)), (0, 1, Some(2)), (2, 1, Some(4))]
        );
        assert_eq!(
            parse_result_line(REPORT).unwrap(),
            [1.25, 20480.0, 2.4, 0.01]
        );
        assert!(
            parse_edges(REPORT, 2).is_err(),
            "S3 is out of range for n=2"
        );
        let short = REPORT.replace("discovered 3", "discovered 4");
        assert!(parse_edges(&short, 3).is_err());
    }

    #[test]
    fn parsed_graph_scores_against_truth() {
        // Truth: 0→0 (1), 0→1 (2), 1→2 (1). Prediction from REPORT:
        // tp = {0→0, 0→1}, fp = {2→1}, fn = {1→2}; both tp delays match.
        let mut truth = CausalGraph::new(3);
        truth.add_edge(0, 0, Some(1));
        truth.add_edge(0, 1, Some(2));
        truth.add_edge(1, 2, Some(1));
        let predicted = graph_of(3, &parse_edges(REPORT, 3).unwrap());
        let f1 = cf_metrics::score::f1(&truth, &predicted);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12, "{f1}");
        assert_eq!(cf_metrics::score::pod(&truth, &predicted), Some(1.0));
        assert_eq!(edge_list(&predicted), parse_edges(REPORT, 3).unwrap());
    }

    #[test]
    fn a_run_is_steady_while_steal_stays_under_five_percent() {
        let run = |steal_s| RunOutcome {
            discover_s: 1.0,
            cpu_s: 2.0,
            steal_s,
            peak_rss_mb: 10.0,
            epochs: 3,
            edges: Vec::new(),
        };
        // One second on two cores: 0.1 s of steal is the limit.
        assert!(run(0.0).steady(2));
        assert!(run(0.1).steady(2));
        assert!(!run(0.11).steady(2));
    }

    #[test]
    fn counts_epoch_lines() {
        let log = "[info] epoch   1/60 train_loss 0.5 val_loss 0.4 grad_norm 1.0 (0.05s)
[warn] something else
[info] epoch   2/60 train_loss 0.4 val_loss 0.3 grad_norm 1.0 (0.05s)
";
        assert_eq!(count_epoch_lines(log), 2);
    }

    #[test]
    fn a_run_that_differs_from_the_first_on_its_input_counts_as_failed() {
        let run = |input, edges: EdgeList| Run {
            input,
            outcome: Ok(RunOutcome {
                discover_s: 1.0,
                cpu_s: 2.0,
                steal_s: 0.0,
                peak_rss_mb: 10.0,
                epochs: 3,
                edges,
            }),
        };
        let set = RunSet {
            runs: vec![
                run(0, vec![(0, 1, Some(1))]),
                run(1, vec![(1, 0, None)]),
                run(0, vec![(0, 1, Some(2))]),
                Run {
                    input: 1,
                    outcome: Err("child exited with exit status: 101".into()),
                },
                run(0, vec![(0, 1, Some(1))]),
                run(1, vec![(1, 0, None)]),
            ],
        };
        assert_eq!(set.reference(1), Some(&vec![(1, 0, None)]));
        assert_eq!((set.attempted(), set.failed()), (6, 2));
        let timed: Vec<usize> = set.timed().iter().map(|&(j, _)| j).collect();
        assert_eq!(timed, [1, 0, 1], "run 0 warms up and is not timed");
        assert_eq!(set.failures().len(), 2);
    }
}
