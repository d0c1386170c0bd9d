//! Replay of one training epoch with a span around each layer call.
//!
//! `trainer::train` exposes no per-step hooks, so the benchmark replays
//! one epoch of batch steps the way the trainer runs them — the same
//! `par_map` of per-window forward/backward beside a `join`ed sparsity
//! penalty, the fixed-order `tree_reduce`, global-norm clipping and the
//! Adam step — on a freshly initialised model. Spans: `replay.epoch` >
//! `replay.step` > `model.forward`, `tensor.backward` (one per window, on
//! worker threads), `model.penalty`, `par.reduce`, `nn.optim_step`.

use crate::trace::Recorder;
use causalformer::{CausalityAwareTransformer, ModelConfig, TrainConfig};
use cf_nn::{clip_global_norm, Adam, Optimizer, ParamId, ParamStore};
use cf_tensor::{with_pooled_tape, Scalar, Tensor, TensorBase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

type Grads = Vec<Option<Tensor>>;

/// Replays one epoch, recording spans on `rec`. Returns the number of
/// tape nodes one window's forward pass and loss record.
pub fn epoch(
    rec: &Recorder,
    seed: u64,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    windows: &[Tensor],
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let model = CausalityAwareTransformer::new(&mut store, &mut rng, model_cfg);
    let mut adam = Adam::new(train_cfg.lr);
    let n_val = ((windows.len() as f64) * train_cfg.val_frac).round() as usize;
    let n_val = n_val.min(windows.len().saturating_sub(1));
    let train_set = &windows[..windows.len() - n_val];
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    order.shuffle(&mut rng);
    let mut tape_ops = 0;

    rec.span("replay.epoch", None, |epoch| {
        for batch in order.chunks(train_cfg.batch_size) {
            rec.span("replay.step", Some(epoch), |step| {
                let n_params = store.len();
                let (per_window, mut pvec) = cf_par::join(
                    || {
                        cf_par::par_map(batch.len(), |bi| {
                            let w = &train_set[batch[bi]];
                            with_pooled_tape(|tape| {
                                let bound = store.bind(tape);
                                let loss = rec.span("model.forward", Some(step), |_| {
                                    let trace = model.forward(tape, &bound, w);
                                    model.prediction_loss(tape, &trace, w)
                                });
                                let ops = tape.len();
                                let mut gvec: Grads = vec![None; n_params];
                                rec.span("tensor.backward", Some(step), |_| {
                                    let seed = TensorBase::scalar(<f64 as Scalar>::GRAD_SCALE);
                                    let mut grads = tape.backward_with_seed(loss, seed);
                                    bound.take_gradients(&mut grads, |id, g| {
                                        gvec[id.index()] = Some(g)
                                    });
                                });
                                (gvec, ops)
                            })
                        })
                    },
                    || {
                        rec.span("model.penalty", Some(step), |_| {
                            with_pooled_tape(|ptape| {
                                let pbound = store.bind(ptape);
                                let penalty = model.sparsity_penalty(ptape, &pbound);
                                let mut pgrads = ptape.backward(penalty);
                                let mut pvec: Grads = vec![None; n_params];
                                pbound.take_gradients(&mut pgrads, |id, g| {
                                    pvec[id.index()] = Some(g)
                                });
                                pvec
                            })
                        })
                    },
                );
                tape_ops = per_window[0].1;
                let batch_len = per_window.len();
                let mut grad_sum = rec.span("par.reduce", Some(step), |_| {
                    let grads = per_window.into_iter().map(|(g, _)| g).collect();
                    cf_par::tree_reduce(grads, |mut a: Grads, b| {
                        for (slot, gb) in a.iter_mut().zip(b) {
                            match (slot.as_mut(), gb) {
                                (Some(ga), Some(gb)) => ga.add_assign(&gb),
                                (None, gb) => *slot = gb,
                                (Some(_), None) => {}
                            }
                        }
                        a
                    })
                    .expect("non-empty batch")
                });
                rec.span("nn.optim_step", Some(step), |_| {
                    let inv = 1.0 / batch_len as f64;
                    let mut pairs: Vec<(ParamId, Tensor)> = Vec::with_capacity(n_params);
                    for id in store.ids() {
                        let idx = id.index();
                        let pred = grad_sum[idx].take().map(|mut g| {
                            g.data_mut().iter_mut().for_each(|v| *v *= inv);
                            g
                        });
                        let merged = match (pred, pvec[idx].take()) {
                            (Some(mut g), Some(pg)) => {
                                g.add_assign(&pg);
                                Some(g)
                            }
                            (g, pg) => g.or(pg),
                        };
                        if let Some(g) = merged {
                            pairs.push((id, g));
                        }
                    }
                    clip_global_norm(&mut pairs, train_cfg.clip_norm);
                    adam.step_pairs(&mut store, &pairs);
                });
            });
        }
    });
    tape_ops
}
