//! The traced run: one in-process discovery per workload that calls the
//! program's public functions in `discover`'s order, with a benchmark-side
//! span around each call. Per-layer metrics are read off these spans and
//! off counters sampled at the same boundaries. The run must reproduce
//! the end-to-end graph bit for bit, which shows the traced calls are the
//! program's path.

use crate::counting::CountingStorage;
use crate::e2e::{edge_list, remove_dir, EdgeList};
use crate::host::process_cpu_s;
use crate::replay;
use crate::stats::{median, percentile};
use crate::trace::{self_time_by_name, self_times, Recorder, Span};
use crate::workloads::{Input, Workload};
use causalformer::detector::{aggregate_scores, build_graph, window_scores};
use causalformer::trainer::{self, TrainReport, TrainedModel, Trainer};
use causalformer::{effective_stride, CausalFormer, CheckpointConfig, StreamOptions};
use cf_cli::{parse, preset_by_name, Command};
use cf_data::window;
use cf_store::{FsStorage, SeriesStore};
use cf_tensor::{pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct TracedRun {
    pub edges: EdgeList,
    pub metrics: Vec<Metric>,
    pub chrome_json: String,
}

/// How often the single-call layer timings (evaluate, one window's
/// scores, checkpointed and plain fit) are repeated; the median is kept.
const REPEATS: usize = 3;

/// The preset with the workload's epoch override, as `discover` builds it.
fn pipeline(w: &Workload, n: usize) -> Result<CausalFormer, String> {
    let mut cf = preset_by_name(w.preset(), n).map_err(|e| e.to_string())?;
    cf.train.max_epochs = w.epochs();
    Ok(cf)
}

/// Runs `f`, returning its value and the process CPU utilisation over it:
/// CPU seconds ÷ (wall seconds × threads).
fn with_cpu_util<R>(threads: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let (cpu0, wall0) = (process_cpu_s(), Instant::now());
    let out = f();
    let wall = wall0.elapsed().as_secs_f64();
    let util = (process_cpu_s() - cpu0) / (wall * threads as f64);
    (out, util)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("listing {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// What the store part of a traced run measured (store-oocore only).
#[derive(Default)]
struct StoreLayer {
    raw_mb: f64,
    chunk_reads: u64,
    bytes_read: u64,
    chunks: u64,
    checkpoint_bytes: f64,
}

/// Everything the timed `discover` root produced.
struct Discovery {
    edges: EdgeList,
    windows: Vec<Tensor>,
    trained: TrainedModel,
    report: TrainReport,
    train_util: f64,
    detect_util: f64,
}

/// Runs the traced discovery on one input. `untraced_discover_s` is the
/// end-to-end median the trace overhead is measured against.
pub fn run(
    w: &Workload,
    input: &Input,
    threads: usize,
    work: &Path,
    untraced_discover_s: f64,
) -> Result<TracedRun, String> {
    let seed = input.seed;
    let rec = Recorder::new(format!("{}-seed{seed}", w.name()));
    let cf = pipeline(w, input.n)?;
    let mut store_layer = StoreLayer::default();
    let pool0 = pool::stats();

    let (root_id, d) = if w.uses_store() {
        let store_dir = work.join("traced-store");
        remove_dir(&store_dir)?;
        let traced_input = Input {
            path: store_dir.clone(),
            truth: input.truth.clone(),
            ..*input
        };
        let Command::Generate(gen) =
            parse(&w.ingest_args(&traced_input)).map_err(|e| e.to_string())?
        else {
            unreachable!("ingest_args builds a generate command");
        };
        rec.span("store.ingest", None, |_| cf_cli::run_generate(&gen))
            .map_err(|e| e.to_string())?;
        store_layer.raw_mb = (input.n * input.length * 8) as f64 / 1e6;
        let ckpt_dir = work.join("traced-checkpoints");
        remove_dir(&ckpt_dir)?;
        let counting = Arc::new(CountingStorage::new(FsStorage::new(&store_dir)));
        let (root_id, d) = traced_discover(
            &rec,
            &cf,
            seed,
            threads,
            |rec, root| {
                let store = rec
                    .span("store.open", Some(root), |_| {
                        SeriesStore::open(counting.clone())
                    })
                    .map_err(|e| e.to_string())?;
                let m = store.manifest();
                store_layer.chunks = (m.v_blocks() * m.t_blocks()) as u64;
                let stride =
                    effective_stride(m.length, cf.model.window, cf.train.stride, w.max_windows());
                let read_ahead = StreamOptions::default().read_ahead;
                rec.span("store.scan", Some(root), |_| {
                    store
                        .standardized_windows(cf.model.window, stride, read_ahead)
                        .and_then(|scan| scan.collect::<Result<Vec<Tensor>, _>>())
                        .map_err(|e| e.to_string())
                })
            },
            |rng, windows| {
                Trainer::new(cf.model, cf.train)
                    .with_checkpoints(CheckpointConfig::new(&ckpt_dir).every(1))
                    .fit(rng, windows)
                    .map_err(|e| e.to_string())
            },
        )?;
        let counts = counting.counts();
        store_layer.chunk_reads = counts.chunk_reads;
        store_layer.bytes_read = counts.chunk_bytes;
        // Checkpoint cost: checkpointed and plain training on the same
        // windows and seed, alternated.
        for _ in 0..REPEATS {
            let dir = work.join("overhead-checkpoints");
            remove_dir(&dir)?;
            rec.span("checkpoint.fit_with", None, |_| {
                Trainer::new(cf.model, cf.train)
                    .with_checkpoints(CheckpointConfig::new(&dir).every(1))
                    .fit(&mut StdRng::seed_from_u64(seed), &d.windows)
                    .map_err(|e| e.to_string())
            })?;
            rec.span("checkpoint.fit_without", None, |_| {
                Trainer::new(cf.model, cf.train)
                    .fit(&mut StdRng::seed_from_u64(seed), &d.windows)
                    .map_err(|e| e.to_string())
            })?;
            // Every epoch writes one checkpoint of the same size; the
            // newest two are retained.
            let files = std::fs::read_dir(&dir).map_err(|e| e.to_string())?.count();
            store_layer.checkpoint_bytes =
                dir_bytes(&dir)? as f64 / files.max(1) as f64 * d.report.train_losses.len() as f64;
            remove_dir(&dir)?;
        }
        remove_dir(&store_dir)?;
        remove_dir(&ckpt_dir)?;
        (root_id, d)
    } else {
        traced_discover(
            &rec,
            &cf,
            seed,
            threads,
            |rec, root| {
                let parsed = rec
                    .span("data.csv_parse", Some(root), |_| {
                        cf_data::io::read_series_csv_file(&input.path)
                    })
                    .map_err(|e| format!("reading {}: {e}", input.path.display()))?;
                Ok(rec.span("data.window", Some(root), |_| {
                    let std = window::standardize(&parsed.series);
                    window::windows(&std, cf.model.window, cf.train.stride)
                }))
            },
            |rng, windows| Ok(trainer::train(rng, cf.model, cf.train, windows)),
        )?
    };
    let pool1 = pool::stats();

    // Single-call layer timings outside the discover root.
    let n_val = ((d.windows.len() as f64) * cf.train.val_frac).round() as usize;
    let n_val = n_val.clamp(1, d.windows.len().saturating_sub(1).max(1));
    let val_set = &d.windows[d.windows.len() - n_val..];
    for _ in 0..REPEATS {
        rec.span("trainer.eval", None, |_| {
            trainer::evaluate(&d.trained.model, &d.trained.store, val_set)
        });
        rec.span("detector.window_scores", None, |_| {
            window_scores(
                &d.trained.model,
                &d.trained.store,
                &d.windows[0],
                cf.detector.mode,
            )
        });
    }
    let tape_ops = replay::epoch(&rec, seed, cf.model, cf.train, &d.windows);

    let spans = rec.spans();
    let by_name = self_time_by_name(&spans);
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    };
    let median_s = |name: &str| median(&durations(name)).unwrap_or(0.0);
    let step_ms: Vec<f64> = durations("replay.step").iter().map(|s| s * 1e3).collect();
    let root_span = spans
        .iter()
        .find(|s| s.id == root_id)
        .expect("root span recorded");
    let root_s = root_span.dur();
    let root_self = self_times(&spans)[&root_id];
    let per_s = |mb: f64, s: f64| if s > 0.0 { mb / s } else { 0.0 };
    let graph = crate::e2e::graph_of(input.n, &d.edges);
    let f1 = cf_metrics::score::f1(&input.truth, &graph);
    let pod = cf_metrics::score::pod(&input.truth, &graph).unwrap_or(0.0);

    let metrics: Vec<Metric> = vec![
        ("data.csv_parse_s", self_s("data.csv_parse"), "s"),
        ("data.window_s", self_s("data.window"), "s"),
        ("store.ingest_s", self_s("store.ingest"), "s"),
        (
            "store.ingest_mb_per_s",
            per_s(store_layer.raw_mb, self_s("store.ingest")),
            "MB/s",
        ),
        ("store.scan_s", self_s("store.scan"), "s"),
        (
            "store.scan_mb_per_s",
            per_s(store_layer.raw_mb, self_s("store.scan")),
            "MB/s",
        ),
        ("store.chunk_reads", store_layer.chunk_reads as f64, "count"),
        ("store.bytes_read", store_layer.bytes_read as f64, "bytes"),
        (
            "store.reads_per_chunk",
            if store_layer.chunks > 0 {
                store_layer.chunk_reads as f64 / store_layer.chunks as f64
            } else {
                0.0
            },
            "ratio",
        ),
        ("trainer.train_s", self_s("trainer.train"), "s"),
        (
            "trainer.epochs",
            d.report.train_losses.len() as f64,
            "count",
        ),
        (
            "trainer.step_ms_p50",
            percentile(&step_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "trainer.step_ms_p99",
            percentile(&step_ms, 99.0).unwrap_or(0.0),
            "ms",
        ),
        ("trainer.eval_ms", median_s("trainer.eval") * 1e3, "ms"),
        ("model.forward_ms", self_s("model.forward") * 1e3, "ms"),
        ("tensor.backward_ms", self_s("tensor.backward") * 1e3, "ms"),
        ("model.penalty_ms", self_s("model.penalty") * 1e3, "ms"),
        ("par.reduce_ms", self_s("par.reduce") * 1e3, "ms"),
        ("nn.optim_step_ms", self_s("nn.optim_step") * 1e3, "ms"),
        ("tensor.tape_ops_per_window", tape_ops as f64, "count"),
        ("tensor.pool_hits", (pool1.hit - pool0.hit) as f64, "count"),
        (
            "tensor.pool_misses",
            (pool1.miss - pool0.miss) as f64,
            "count",
        ),
        ("tensor.allocs", (pool1.alloc - pool0.alloc) as f64, "count"),
        ("par.train_cpu_util", d.train_util, "ratio"),
        ("par.detect_cpu_util", d.detect_util, "ratio"),
        ("detector.scores_s", self_s("detector.scores"), "s"),
        (
            "detector.window_scores_ms",
            median_s("detector.window_scores") * 1e3,
            "ms",
        ),
        (
            "detector.build_graph_ms",
            self_s("detector.build_graph") * 1e3,
            "ms",
        ),
        // Checkpointed minus plain training, medians of each; 0 where the
        // workload does not checkpoint.
        (
            "checkpoint.overhead_s",
            median_s("checkpoint.fit_with") - median_s("checkpoint.fit_without"),
            "s",
        ),
        ("checkpoint.bytes", store_layer.checkpoint_bytes, "bytes"),
        ("trace.accounted_frac", 1.0 - root_self / root_s, "ratio"),
        (
            "trace.overhead_frac",
            root_s / untraced_discover_s - 1.0,
            "ratio",
        ),
        ("quality.f1", f1, "ratio"),
        ("quality.pod", pod, "ratio"),
    ];
    Ok(TracedRun {
        edges: d.edges,
        metrics,
        chrome_json: rec.chrome_json(threads),
    })
}

/// The timed `discover` root: `load` (parse + window, or store open +
/// scan) under the root, then training, then the detector's two stages,
/// each in its own span. Returns the root's span id and what it produced.
fn traced_discover(
    rec: &Recorder,
    cf: &CausalFormer,
    seed: u64,
    threads: usize,
    load: impl FnOnce(&Recorder, usize) -> Result<Vec<Tensor>, String>,
    train: impl FnOnce(&mut StdRng, &[Tensor]) -> Result<(TrainedModel, TrainReport), String>,
) -> Result<(usize, Discovery), String> {
    let mut root_id = 0;
    let d = rec.span("discover", None, |root| -> Result<Discovery, String> {
        root_id = root;
        let windows = load(rec, root)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (trained, train_util) = rec.span("trainer.train", Some(root), |_| {
            with_cpu_util(threads, || train(&mut rng, &windows))
        });
        let (trained, report) = trained?;
        let (graph, detect_util) = with_cpu_util(threads, || {
            let scores = rec.span("detector.scores", Some(root), |_| {
                aggregate_scores(&trained.model, &trained.store, &windows, &cf.detector)
            });
            rec.span("detector.build_graph", Some(root), |_| {
                build_graph(&mut rng, &scores, cf.model.window, &cf.detector)
            })
        });
        Ok(Discovery {
            edges: edge_list(&graph),
            windows,
            trained,
            report,
            train_util,
            detect_util,
        })
    })?;
    Ok((root_id, d))
}
