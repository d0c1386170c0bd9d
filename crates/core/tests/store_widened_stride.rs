//! Store-vs-RAM equivalence under a widened stride. When the window
//! budget widens the stride past the streamed carry (`read_ahead` chunk
//! columns plus one window), the scan must skip ahead and stay aligned:
//! discovery from the store must equal in-RAM discovery at the same
//! stride, bit for bit.

use causalformer::{
    effective_stride, CausalFormer, DetectorConfig, DiscoveryResult, ModelConfig, StreamOptions,
    TrainConfig,
};
use cf_data::synthetic;
use cf_store::{MemStorage, SeriesStore, SeriesWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn pipeline(stride: usize) -> CausalFormer {
    let model = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        heads: 1,
        ..ModelConfig::compact(3, 8)
    };
    let train = TrainConfig {
        max_epochs: 2,
        patience: 50,
        stride,
        ..TrainConfig::default()
    };
    CausalFormer::new(model, train, DetectorConfig::default())
}

fn bits(r: &DiscoveryResult) -> Vec<u64> {
    let attn = r.scores.attn.iter().flatten().map(|v| v.to_bits());
    let losses = r.train_report.train_losses.iter().map(|v| v.to_bits());
    attn.chain(losses).collect()
}

#[test]
fn widened_stride_store_discovery_matches_in_ram() {
    let mut rng = StdRng::seed_from_u64(5);
    let series = synthetic::generate(&mut rng, synthetic::Structure::Fork, 240).series;
    let (n, l) = (series.shape()[0], series.shape()[1]);
    let storage = Arc::new(MemStorage::new());
    // chunk_len 16 with read_ahead 1: the carry holds 8 + 16 columns.
    let mut w = SeriesWriter::new(storage.clone(), n, n, 16, "delta-varint").unwrap();
    for t in 0..l {
        let sample: Vec<f64> = (0..n).map(|i| series.row(i)[t]).collect();
        w.append(&sample).unwrap();
    }
    w.finish().unwrap();
    let store = SeriesStore::open(storage).unwrap();

    let opts = StreamOptions {
        max_windows: 5,
        read_ahead: 1,
    };
    let stride = effective_stride(l, 8, 4, opts.max_windows);
    assert!(stride > 8 + 16, "stride {stride} must jump past the carry");

    let mut rng = StdRng::seed_from_u64(13);
    let streamed = pipeline(4).discover_store(&mut rng, &store, &opts).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let in_ram = pipeline(stride).discover(&mut rng, &series);

    assert_eq!(streamed.graph, in_ram.graph);
    assert_eq!(bits(&streamed), bits(&in_ram));
}
