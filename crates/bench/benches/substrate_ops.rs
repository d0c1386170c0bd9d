//! Micro-benchmarks of the numeric substrate: the custom tensor ops the
//! causality-aware transformer is built from, a full forward+backward pass,
//! and an optimizer step. These are the per-step kernels behind every
//! experiment in the paper. The `substrate/store` group times the
//! out-of-core chunk path: the CRC and a full chunk read.

use causalformer::{CausalityAwareTransformer, ModelConfig};
use cf_nn::{Adam, Optimizer, ParamStore};
use cf_store::{MemStorage, SeriesStore, SeriesWriter, Storage};
use cf_tensor::{ops, uniform, Tape, Tensor};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn rand_t(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform(&mut rng, shape, -1.0, 1.0)
}

fn bench_causal_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/causal_conv");
    // (20, 16) is the lorenz preset's training shape, (64, 12) the sst
    // preset's.
    for (n, t) in [(5usize, 16usize), (15, 16), (15, 32), (20, 16), (64, 12)] {
        let x = rand_t(&[n, t], 1);
        let k = rand_t(&[n, n, t], 2);
        group.bench_function(format!("forward_n{n}_t{t}"), |b| {
            b.iter(|| ops::causal_conv(black_box(&x), black_box(&k)))
        });
        let g = Tensor::ones(&[n, n, t]);
        group.bench_function(format!("backward_kernel_n{n}_t{t}"), |b| {
            b.iter(|| ops::causal_conv_backward_kernel(black_box(&x), black_box(&g)))
        });
        group.bench_function(format!("backward_x_n{n}_t{t}"), |b| {
            b.iter(|| ops::causal_conv_backward_x(black_box(&k), black_box(&g)))
        });
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/attention");
    for n in [5usize, 15, 20, 50, 64] {
        let t = 16;
        let attn = rand_t(&[n, n], 3).softmax_rows();
        let v = rand_t(&[n, n, t], 4);
        group.bench_function(format!("attn_apply_n{n}"), |b| {
            b.iter(|| ops::attn_apply(black_box(&attn), black_box(&v)))
        });
        let g = rand_t(&[n, t], 5);
        group.bench_function(format!("attn_apply_backward_attn_n{n}"), |b| {
            b.iter(|| ops::attn_apply_backward_attn(black_box(&v), black_box(&g)))
        });
        group.bench_function(format!("attn_apply_backward_v_n{n}"), |b| {
            b.iter(|| ops::attn_apply_backward_v(black_box(&attn), black_box(&g)))
        });
    }
    group.finish();
}

fn bench_matmul_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/linear_algebra");
    let a = rand_t(&[64, 64], 5);
    let b_m = rand_t(&[64, 64], 6);
    group.bench_function("matmul_64", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&b_m)))
    });
    group.bench_function("softmax_rows_64", |b| {
        b.iter(|| black_box(&a).softmax_rows())
    });
    // The lorenz preset's row-wise layers: a 20×32 activation through a
    // 32×32 weight, forward plus both gradients (da = g·wᵀ, dw = aᵀ·g).
    let x = rand_t(&[20, 32], 7);
    let w = rand_t(&[32, 32], 8);
    let g = rand_t(&[20, 32], 9);
    group.bench_function("matmul_20x32x32", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
    group.bench_function("matmul_nt_grad_20x32x32", |b| {
        b.iter(|| black_box(&g).matmul_nt(black_box(&w)))
    });
    group.bench_function("matmul_tn_grad_20x32x32", |b| {
        b.iter(|| black_box(&x).matmul_tn(black_box(&g)))
    });
    // Attention scores q·kᵀ at n = 20 (lorenz) and n = 64 (sst), d_qk 32,
    // and the n = 64 gradients (dq = g·k, dk = gᵀ·q).
    for n in [20usize, 64] {
        let q = rand_t(&[n, 32], 10);
        let k = rand_t(&[n, 32], 11);
        group.bench_function(format!("scores_nt_n{n}"), |b| {
            b.iter(|| black_box(&q).matmul_nt(black_box(&k)))
        });
        if n == 64 {
            let gs = rand_t(&[n, n], 12);
            group.bench_function("scores_grad_q_n64", |b| {
                b.iter(|| black_box(&gs).matmul(black_box(&k)))
            });
            group.bench_function("scores_grad_k_n64", |b| {
                b.iter(|| black_box(&gs).matmul_tn(black_box(&q)))
            });
        }
    }
    group.finish();
}

fn bench_model_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/model_step");
    group.sample_size(20);
    for (n, t) in [(4usize, 16usize), (15, 16)] {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = ModelConfig::compact(n, t);
        let mut store = ParamStore::new();
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
        let x = rand_t(&[n, t], 8);
        group.bench_function(format!("forward_backward_n{n}_t{t}"), |b| {
            b.iter(|| {
                let mut tape = Tape::new();
                let bound = store.bind(&mut tape);
                let trace = model.forward(&mut tape, &bound, &x);
                let loss = model.prediction_loss(&mut tape, &trace, &x);
                let grads = tape.backward(loss);
                black_box(grads.get(bound.var(model.kernel())).is_some())
            })
        });
    }
    group.finish();
}

fn bench_adam(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/adam");
    let mut rng = StdRng::seed_from_u64(9);
    group.bench_function("step_10k_params", |b| {
        b.iter_batched(
            || {
                let mut store = ParamStore::new();
                let p = store.register("w", uniform(&mut rng, &[100, 100], -1.0, 1.0));
                (store, p, Adam::new(1e-3))
            },
            |(mut store, p, mut adam)| {
                let g = Tensor::ones(&[100, 100]);
                adam.step_pairs(&mut store, &[(p, g)]);
                black_box(store.value(p).sum())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One 10×65536 Lorenz-96 chunk (5.2 MB of samples, the default
/// `--chunk-len`), stored under `codec` in memory.
fn lorenz_chunk_store(codec: &str) -> (Arc<MemStorage>, SeriesStore) {
    let (n, len) = (10, 65536);
    let mut rng = StdRng::seed_from_u64(11);
    let series = cf_data::lorenz96::generate_random_forcing(&mut rng, n, len).series;
    let storage = Arc::new(MemStorage::new());
    let mut w = SeriesWriter::new(storage.clone(), n, n, len, codec).unwrap();
    let data = series.data();
    for t in 0..len {
        let sample: Vec<f64> = (0..n).map(|i| data[i * len + t]).collect();
        w.append(&sample).unwrap();
    }
    w.finish().unwrap();
    let store = SeriesStore::open(storage.clone()).unwrap();
    (storage, store)
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/store");
    group.sample_size(20);
    for codec in ["delta-varint", "raw"] {
        let (storage, store) = lorenz_chunk_store(codec);
        let chunk = storage.get(&cf_store::series::chunk_key(0, 0)).unwrap();
        group.bench_function(format!("crc32_{codec}"), |b| {
            b.iter(|| cf_store::crc32(black_box(&chunk)))
        });
        group.bench_function(format!("read_chunk_{codec}"), |b| {
            b.iter(|| black_box(store.read_chunk(0, 0).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_causal_conv,
    bench_attention,
    bench_matmul_softmax,
    bench_model_step,
    bench_adam,
    bench_store
);
criterion_main!(benches);
