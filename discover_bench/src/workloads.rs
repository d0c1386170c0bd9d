//! The three workloads: what each feeds `discover`, and how its inputs
//! are made from the seed.

use causalformer::effective_stride;
use cf_data::{io as csv_io, lorenz96, sst_sim};
use cf_metrics::CausalGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Lorenz-96, n=20, 1000 steps, CSV, `--preset lorenz`.
    LorenzN20,
    /// 8×8 SST lattice, 97 slots, CSV, `--preset sst`.
    SstWide,
    /// 2M-step Lorenz-96 ingested into a store, streamed by `discover`.
    StoreOocore,
}

/// Full size is the benchmark; tiny is the self-test smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
}

pub const NAMES: [&str; 3] = ["lorenz-n20", "sst-wide", "store-oocore"];

/// Series the `generate --store-out` lorenz96 path always writes.
const STORE_SERIES: usize = 10;

impl Workload {
    pub fn by_name(name: &str, size: Size) -> Option<Self> {
        let kind = match name {
            "lorenz-n20" => Kind::LorenzN20,
            "sst-wide" => Kind::SstWide,
            "store-oocore" => Kind::StoreOocore,
            _ => return None,
        };
        Some(Self { kind, size })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::LorenzN20 => NAMES[0],
            Kind::SstWide => NAMES[1],
            Kind::StoreOocore => NAMES[2],
        }
    }

    fn tiny(&self) -> bool {
        self.size == Size::Tiny
    }

    pub fn preset(&self) -> &'static str {
        match self.kind {
            Kind::LorenzN20 | Kind::StoreOocore => "lorenz",
            Kind::SstWide => "sst",
        }
    }

    /// `--epochs` passed to `discover`: a fixed amount of training per
    /// seed. Early stopping (patience 8) needs 9 stale epochs after the
    /// best, so it cannot end a run of 10 epochs early; with the presets'
    /// 60 (lorenz) or 30 (sst) epochs it stops some seeds early, and
    /// `discover_s` would then differ by seed for want of work.
    /// store-oocore trains 5 epochs so the store dominates.
    pub fn epochs(&self) -> usize {
        match (self.kind, self.tiny()) {
            (_, true) => 2,
            (Kind::LorenzN20 | Kind::SstWide, false) => 10,
            (Kind::StoreOocore, false) => 5,
        }
    }

    /// Store length in steps (store-oocore only).
    pub fn store_length(&self) -> usize {
        if self.tiny() {
            20_000
        } else {
            2_000_000
        }
    }

    /// `--max-windows` for the store scan (store-oocore only).
    pub fn max_windows(&self) -> usize {
        if self.tiny() {
            32
        } else {
            512
        }
    }

    pub fn uses_store(&self) -> bool {
        self.kind == Kind::StoreOocore
    }

    /// Inputs one run cycles through. Speed depends a little on the data
    /// (two lorenz-n20 seeds differ by about 5% at the same shapes), so
    /// each run mixes several seeds' inputs and its medians vary less from
    /// one `--seed` to the next. store-oocore times one ingest per input.
    pub fn inputs(&self) -> usize {
        match (self.kind, self.tiny()) {
            (_, true) => 2,
            (Kind::LorenzN20 | Kind::SstWide, false) => 4,
            (Kind::StoreOocore, false) => 3,
        }
    }

    /// Generates the run's inputs from `seed` into `dir`: input `j` uses
    /// seed `seed·inputs + j`, so different `--seed`s never share an input.
    /// CSV workloads write their CSVs here; the store workload's series is
    /// written by the program's own `generate --store-out` during set-up,
    /// so only its path and truth are fixed here.
    pub fn prepare(&self, seed: u64, dir: &Path) -> Result<Vec<Input>, String> {
        let k = self.inputs() as u64;
        (0..k)
            .map(|j| self.prepare_one(seed.wrapping_mul(k).wrapping_add(j), dir, j))
            .collect()
    }

    fn prepare_one(&self, seed: u64, dir: &Path, j: u64) -> Result<Input, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (series, truth) = match (self.kind, self.tiny()) {
            (Kind::LorenzN20, tiny) => {
                let (n, len) = if tiny { (6, 150) } else { (20, 1000) };
                let d = lorenz96::generate_random_forcing(&mut rng, n, len);
                (d.series, d.truth)
            }
            (Kind::SstWide, tiny) => {
                let mut cfg = sst_sim::SstConfig::default();
                if tiny {
                    (cfg.height, cfg.width, cfg.length) = (3, 3, 40);
                }
                let d = sst_sim::generate(&mut rng, cfg).dataset;
                (d.series, d.truth)
            }
            (Kind::StoreOocore, _) => {
                return Ok(Input {
                    seed,
                    path: dir.join(format!("store-{j}")),
                    n: STORE_SERIES,
                    length: self.store_length(),
                    truth: lorenz96::truth(STORE_SERIES),
                })
            }
        };
        let (n, length) = (series.shape()[0], series.shape()[1]);
        let names: Vec<String> = (1..=n).map(|i| format!("S{i}")).collect();
        let mut buf = Vec::new();
        csv_io::write_series_csv(&mut buf, &series, &names).map_err(|e| e.to_string())?;
        let path = dir.join(format!("input-{j}.csv"));
        std::fs::write(&path, buf).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(Input {
            seed,
            path,
            n,
            length,
            truth,
        })
    }

    /// The `discover` command line (without the program name) for one
    /// end-to-end run on `input`. Telemetry flags stay off; `--log-level
    /// info` keeps the per-epoch lines the benchmark counts epochs from.
    pub fn discover_args(
        &self,
        input: &Input,
        threads: usize,
        checkpoint_dir: &Path,
    ) -> Vec<String> {
        let mut args: Vec<String> = vec!["discover".into()];
        if self.uses_store() {
            args.extend([
                "--store".into(),
                path_arg(&input.path),
                "--max-windows".into(),
                self.max_windows().to_string(),
                "--checkpoint-dir".into(),
                path_arg(checkpoint_dir),
                "--checkpoint-every".into(),
                "1".into(),
            ]);
        } else {
            args.extend(["--input".into(), path_arg(&input.path)]);
        }
        args.extend(["--preset".into(), self.preset().into()]);
        args.extend([
            "--epochs".into(),
            self.epochs().to_string(),
            "--seed".into(),
            input.seed.to_string(),
            "--threads".into(),
            threads.to_string(),
            "--log-level".into(),
            "info".into(),
        ]);
        args
    }

    /// The `generate` command line that ingests a store-oocore input.
    pub fn ingest_args(&self, input: &Input) -> Vec<String> {
        [
            "generate",
            "--dataset",
            "lorenz96",
            "--length",
            &self.store_length().to_string(),
            "--seed",
            &input.seed.to_string(),
            "--store-out",
            &path_arg(&input.path),
            "--codec",
            "delta-varint",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Windows one epoch trains and validates on: the natural count at
    /// the preset's stride, or at the widened stride the store path uses
    /// under its window budget.
    pub fn windows_per_epoch(&self, input: &Input) -> Result<usize, String> {
        let cf = cf_cli::preset_by_name(self.preset(), input.n).map_err(|e| e.to_string())?;
        let (window, stride) = (cf.model.window, cf.train.stride);
        if window > input.length {
            return Err(format!(
                "window {window} does not fit {} steps",
                input.length
            ));
        }
        let stride = if self.uses_store() {
            effective_stride(input.length, window, stride, self.max_windows())
        } else {
            stride
        };
        Ok((input.length - window) / stride + 1)
    }
}

/// One input: its seed (for the data and for `discover --seed`), a CSV
/// file or a store directory, and the truth the graph is scored against.
pub struct Input {
    pub seed: u64,
    pub path: PathBuf,
    pub n: usize,
    pub length: usize,
    pub truth: CausalGraph,
}

pub fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for name in NAMES {
            let w = Workload::by_name(name, Size::Full).unwrap();
            assert_eq!(w.name(), name);
        }
        assert!(Workload::by_name("nope", Size::Full).is_none());
    }

    #[test]
    fn full_size_window_counts_match_the_sizing() {
        let lorenz = Workload::by_name("lorenz-n20", Size::Full).unwrap();
        let input = Input {
            seed: 0,
            path: PathBuf::new(),
            n: 20,
            length: 1000,
            truth: CausalGraph::new(20),
        };
        assert_eq!(lorenz.windows_per_epoch(&input).unwrap(), 247);
        let sst = Workload::by_name("sst-wide", Size::Full).unwrap();
        let input = Input {
            n: 64,
            length: 97,
            ..input
        };
        assert_eq!(sst.windows_per_epoch(&input).unwrap(), 86);
        let store = Workload::by_name("store-oocore", Size::Full).unwrap();
        let input = Input {
            n: 10,
            length: store.store_length(),
            ..input
        };
        let w = store.windows_per_epoch(&input).unwrap();
        assert!(w <= 512 && w > 500, "{w}");
    }
}
