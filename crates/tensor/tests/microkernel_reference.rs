//! Pins every contraction kernel against a naive loop, at both element
//! types.
//!
//! The contract being proven (DESIGN.md, "Compute backend & precision"):
//! every kernel adds each output cell's terms in the naive loop's
//! ascending order, multiply then add, at f32 and f64 alike, so against a
//! naive reference in the same element type the result is equal *to the
//! bit*. Any reassociation sneaking in (an over-eager SIMD reduction, a
//! changed tile or block order) fails here immediately.

use cf_tensor::{ops, Scalar, TensorBase};
use proptest::prelude::*;

/// Compares `got` against the naive reference `want` bitwise.
fn check<E: Scalar>(kernel: &str, got: &TensorBase<E>, want: &TensorBase<E>) -> Result<(), String> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", kernel);
    for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}[{}] ({:?}): kernel {} != naive {}",
            kernel,
            idx,
            E::DTYPE,
            g,
            w
        );
    }
    Ok(())
}

fn lift<E: Scalar>(shape: &[usize], vals: &[f64]) -> TensorBase<E> {
    TensorBase::from_f64_vec(shape.to_vec(), vals.to_vec()).expect("sized")
}

// ---------------------------------------------------------------------
// Naive references: definitionally-obvious loops, accumulating in the
// native element type in the same ascending index order the production
// kernels promise.
// ---------------------------------------------------------------------

fn naive_matmul<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                let add = a.data()[i * k + p] * b.data()[p * n + j];
                out.data_mut()[i * n + j] += add;
            }
        }
    }
    out
}

fn naive_matmul_nt<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[0]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = E::ZERO;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[j * k + p];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_tn<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (k, m, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                let add = a.data()[p * m + i] * b.data()[p * n + j];
                out.data_mut()[i * n + j] += add;
            }
        }
    }
    out
}

fn naive_causal_conv<E: Scalar>(x: &TensorBase<E>, kernel: &TensorBase<E>) -> TensorBase<E> {
    let (n, t_len) = (x.shape()[0], x.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[n, n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let mut acc = E::ZERO;
                for s in 0..=t {
                    let tap = kernel.data()[(i * n + j) * t_len + (t_len - 1 - t + s)];
                    acc += tap * x.data()[i * t_len + s];
                }
                out.data_mut()[(i * n + j) * t_len + t] = acc / E::from_f64((t + 1) as f64);
            }
        }
    }
    out
}

fn naive_conv_backward_kernel<E: Scalar>(
    x: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, t_len) = (x.shape()[0], x.shape()[1]);
    let mut grad_k = TensorBase::<E>::zeros(&[n, n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let g = grad_out.data()[(i * n + j) * t_len + t] / E::from_f64((t + 1) as f64);
                for s in 0..=t {
                    let u = t_len - 1 - t + s;
                    grad_k.data_mut()[(i * n + j) * t_len + u] += g * x.data()[i * t_len + s];
                }
            }
        }
    }
    grad_k
}

fn naive_conv_backward_x<E: Scalar>(
    kernel: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, t_len) = (kernel.shape()[0], kernel.shape()[2]);
    let mut grad_x = TensorBase::<E>::zeros(&[n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let g = grad_out.data()[(i * n + j) * t_len + t] / E::from_f64((t + 1) as f64);
                for s in 0..=t {
                    let tap = kernel.data()[(i * n + j) * t_len + (t_len - 1 - t + s)];
                    grad_x.data_mut()[i * t_len + s] += g * tap;
                }
            }
        }
    }
    grad_x
}

fn naive_softmax_rows<E: Scalar>(m: &TensorBase<E>) -> TensorBase<E> {
    let (r, c) = (m.shape()[0], m.shape()[1]);
    let mut out = m.clone();
    for i in 0..r {
        let row = &mut out.data_mut()[i * c..(i + 1) * c];
        let mx = row.iter().copied().fold(E::NEG_INFINITY, E::max);
        let mut z = E::ZERO;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    out
}

// ---------------------------------------------------------------------
// The per-dtype check drivers, bitwise at both element types.
// ---------------------------------------------------------------------

fn check_matmuls<E: Scalar>(
    m: usize,
    k: usize,
    n: usize,
    a_vals: &[f64],
    b_vals: &[f64],
) -> Result<(), String> {
    let a = lift::<E>(&[m, k], a_vals);
    let b = lift::<E>(&[k, n], b_vals);
    check("matmul", &a.matmul(&b), &naive_matmul(&a, &b))?;
    let bt = lift::<E>(&[n, k], &transpose(b_vals, k, n));
    check("matmul_nt", &a.matmul_nt(&bt), &naive_matmul_nt(&a, &bt))?;
    let at = lift::<E>(&[k, m], &transpose(a_vals, m, k));
    check("matmul_tn", &at.matmul_tn(&b), &naive_matmul_tn(&at, &b))
}

fn check_conv<E: Scalar>(
    n: usize,
    t_len: usize,
    x_vals: &[f64],
    k_vals: &[f64],
    g_vals: &[f64],
) -> Result<(), String> {
    let x = lift::<E>(&[n, t_len], x_vals);
    let kern = lift::<E>(&[n, n, t_len], k_vals);
    let g = lift::<E>(&[n, n, t_len], g_vals);
    check(
        "causal_conv",
        &ops::causal_conv(&x, &kern),
        &naive_causal_conv(&x, &kern),
    )?;
    check(
        "causal_conv_backward_kernel",
        &ops::causal_conv_backward_kernel(&x, &g),
        &naive_conv_backward_kernel(&x, &g),
    )?;
    check(
        "causal_conv_backward_x",
        &ops::causal_conv_backward_x(&kern, &g),
        &naive_conv_backward_x(&kern, &g),
    )
}

fn check_elementwise<E: Scalar>(
    r: usize,
    c: usize,
    m_vals: &[f64],
    n_vals: &[f64],
    alpha: f64,
) -> Result<(), String> {
    let m = lift::<E>(&[r, c], m_vals);
    let n = lift::<E>(&[r, c], n_vals);
    check("softmax_rows", &m.softmax_rows(), &naive_softmax_rows(&m))?;

    // axpy: self += alpha · other, accumulated elementwise in E.
    let mut got = m.clone();
    got.axpy(alpha, &n);
    let alpha_e = E::from_f64(alpha);
    let mut want = m.clone();
    for (w, &v) in want.data_mut().iter_mut().zip(n.data()) {
        *w += alpha_e * v;
    }
    check("axpy", &got, &want)?;

    // add_mul_assign: self += a · b, the fused elementwise accumulator.
    let mut got = m.clone();
    got.add_mul_assign(&n, &m);
    let mut want = m.clone();
    for ((w, &a), &b) in want.data_mut().iter_mut().zip(n.data()).zip(m.data()) {
        *w += a * b;
    }
    check("add_mul_assign", &got, &want)
}

fn transpose(vals: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut out = vec![0.0; vals.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = vals[i * cols + j];
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three matmul variants match their naive references at random
    /// small shapes, for both element types.
    #[test]
    fn matmul_variants_match_naive_reference(
        m in 1usize..6,
        k in 1usize..8,
        n in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (a_vals, b_vals) = gen_vals(seed, m * k, k * n);
        check_matmuls::<f64>(m, k, n, &a_vals, &b_vals)?;
        check_matmuls::<f32>(m, k, n, &a_vals, &b_vals)?;
    }

    /// Causal-convolution forward and both backward kernels match their
    /// definitional loops, for both element types.
    #[test]
    fn causal_conv_kernels_match_naive_reference(
        n in 1usize..5,
        t_len in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (x_vals, kg_vals) = gen_vals(seed, n * t_len, 2 * n * n * t_len);
        let (k_vals, g_vals) = kg_vals.split_at(n * n * t_len);
        check_conv::<f64>(n, t_len, &x_vals, k_vals, g_vals)?;
        check_conv::<f32>(n, t_len, &x_vals, k_vals, g_vals)?;
    }

    /// Softmax and the fused accumulators match elementwise references
    /// bitwise at both element types.
    #[test]
    fn elementwise_kernels_match_naive_reference(
        r in 1usize..6,
        c in 1usize..9,
        alpha in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let (m_vals, n_vals) = gen_vals(seed, r * c, r * c);
        check_elementwise::<f64>(r, c, &m_vals, &n_vals, alpha)?;
        check_elementwise::<f32>(r, c, &m_vals, &n_vals, alpha)?;
    }
}

/// Deterministic pseudo-random values in [-2, 2) from a seed — cheaper
/// than a `vec(..)` strategy at these sizes and keeps the shape/value
/// generation decoupled.
fn gen_vals(seed: u64, len_a: usize, len_b: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let a = (0..len_a).map(|_| next()).collect();
    let b = (0..len_b).map(|_| next()).collect();
    (a, b)
}

/// A long contraction (k = 300) over many column tiles (n = 70, not a
/// multiple of the tile width): `matmul_nt`'s transposed, padded operand
/// and its edge tile against the naive loop.
#[test]
fn matmul_nt_block_boundaries_match_naive_reference() {
    let (m, k, n) = (3, 300, 70);
    let (a_vals, b_vals) = gen_vals(99, m * k, n * k);
    let a64 = lift::<f64>(&[m, k], &a_vals);
    let b64 = lift::<f64>(&[n, k], &b_vals);
    let got = a64.matmul_nt(&b64);
    let want = naive_matmul_nt(&a64, &b64);
    assert_eq!(got.shape(), want.shape());
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits(), "f64 matmul_nt reassociated");
    }
    let a32 = lift::<f32>(&[m, k], &a_vals);
    let b32 = lift::<f32>(&[n, k], &b_vals);
    let got = a32.matmul_nt(&b32);
    let want = naive_matmul_nt(&a32, &b32);
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits(), "f32 matmul_nt reassociated");
    }
}

// ---------------------------------------------------------------------
// Tile edges. Every matmul and the causal convolution forward and kernel
// gradient run on one contraction kernel with a 4×8 register tile (MR = 4
// output rows, NR = 8 output columns). It adds each cell's terms in the
// naive loop's ascending order at either element type, so at shapes around
// the tile edges both dtypes must match the naive loops *bitwise*. The
// convolution's input gradient and the attention gradients keep their own
// loops and are pinned the same way.
// ---------------------------------------------------------------------

const MR: usize = 4;
const NR: usize = 8;
const EDGES: [usize; 5] = [1, MR - 1, MR, MR + 1, 2 * NR + 1];
const DEPTHS: [usize; 3] = [1, 2, 33];

fn naive_attn_backward_attn<E: Scalar>(v: &TensorBase<E>, g: &TensorBase<E>) -> TensorBase<E> {
    let (n, t_len) = (v.shape()[0], v.shape()[2]);
    let mut ga = TensorBase::<E>::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            let mut acc = E::ZERO;
            for t in 0..t_len {
                acc += v.data()[(j * n + i) * t_len + t] * g.data()[i * t_len + t];
            }
            ga.data_mut()[i * n + j] = acc;
        }
    }
    ga
}

fn naive_attn_backward_v<E: Scalar>(attn: &TensorBase<E>, g: &TensorBase<E>) -> TensorBase<E> {
    let (n, t_len) = (attn.shape()[0], g.shape()[1]);
    let mut gv = TensorBase::<E>::zeros(&[n, n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                gv.data_mut()[(j * n + i) * t_len + t] +=
                    attn.data()[i * n + j] * g.data()[i * t_len + t];
            }
        }
    }
    gv
}

/// `gen_vals` with every fifth value an exact zero, so the zero-skip
/// branches run inside full and edge tiles alike.
fn gen_sparse(seed: u64, len: usize) -> Vec<f64> {
    let (mut v, _) = gen_vals(seed, len, 0);
    for x in v.iter_mut().step_by(5) {
        *x = 0.0;
    }
    v
}

fn exact_matmuls<E: Scalar>(m: usize, k: usize, n: usize) -> Result<(), String> {
    let a = lift::<E>(&[m, k], &gen_sparse(1, m * k));
    let b = lift::<E>(&[k, n], &gen_sparse(2, k * n));
    let bt = lift::<E>(&[n, k], &gen_sparse(3, n * k));
    let at = lift::<E>(&[k, m], &gen_sparse(4, k * m));
    check("matmul", &a.matmul(&b), &naive_matmul(&a, &b))?;
    check("matmul_nt", &a.matmul_nt(&bt), &naive_matmul_nt(&a, &bt))?;
    check("matmul_tn", &at.matmul_tn(&b), &naive_matmul_tn(&at, &b))
}

fn exact_conv<E: Scalar>(n: usize, t_len: usize) -> Result<(), String> {
    let x = lift::<E>(&[n, t_len], &gen_sparse(5, n * t_len));
    let kern = lift::<E>(&[n, n, t_len], &gen_sparse(6, n * n * t_len));
    let g = lift::<E>(&[n, n, t_len], &gen_sparse(7, n * n * t_len));
    check(
        "causal_conv",
        &ops::causal_conv(&x, &kern),
        &naive_causal_conv(&x, &kern),
    )?;
    check(
        "causal_conv_backward_kernel",
        &ops::causal_conv_backward_kernel(&x, &g),
        &naive_conv_backward_kernel(&x, &g),
    )?;
    check(
        "causal_conv_backward_x",
        &ops::causal_conv_backward_x(&kern, &g),
        &naive_conv_backward_x(&kern, &g),
    )
}

fn exact_attn_backward<E: Scalar>(n: usize, t_len: usize) -> Result<(), String> {
    let attn = lift::<E>(&[n, n], &gen_sparse(8, n * n));
    let v = lift::<E>(&[n, n, t_len], &gen_sparse(9, n * n * t_len));
    let g = lift::<E>(&[n, t_len], &gen_sparse(10, n * t_len));
    check(
        "attn_apply_backward_attn",
        &ops::attn_apply_backward_attn(&v, &g),
        &naive_attn_backward_attn(&v, &g),
    )?;
    check(
        "attn_apply_backward_v",
        &ops::attn_apply_backward_v(&attn, &g),
        &naive_attn_backward_v(&attn, &g),
    )
}

#[test]
fn matmuls_at_tile_edges_match_naive_reference_bitwise_at_both_dtypes() {
    for m in EDGES {
        for n in EDGES {
            for k in DEPTHS {
                exact_matmuls::<f64>(m, k, n).unwrap();
                exact_matmuls::<f32>(m, k, n).unwrap();
            }
        }
    }
}

#[test]
fn conv_and_attention_grads_at_tile_edges_match_naive_reference_bitwise() {
    // The convolution's window length T is both the contraction depth and
    // the output width, so it sweeps the column-tile edges too.
    for n in EDGES {
        for t_len in [1, 2, 3, 4, 5, 8, 9, 17, 33] {
            exact_conv::<f64>(n, t_len).unwrap();
            exact_conv::<f32>(n, t_len).unwrap();
        }
        for t_len in DEPTHS {
            exact_attn_backward::<f64>(n, t_len).unwrap();
            exact_attn_backward::<f32>(n, t_len).unwrap();
        }
    }
}

/// Zero-skip semantics: `matmul` and `matmul_tn` drop a term whose left
/// factor is zero (so `0·NaN` never reaches the cell), `matmul_nt` adds
/// every term, and a cell that only ever receives `-0.0` terms stays
/// `+0.0`.
#[test]
fn zero_skip_and_signed_zero_semantics_are_kept() {
    // Wide enough for full 4×8 tiles plus an edge column.
    let (m, k, n) = (5, 3, 9);
    let mut a = vec![1.0; m * k];
    for i in 0..m {
        a[i * k] = 0.0; // A[i,0] = 0 against a NaN row of B
    }
    let mut b = vec![2.0; k * n];
    b[..n].fill(f64::NAN);
    let (a, b) = (lift::<f64>(&[m, k], &a), lift::<f64>(&[k, n], &b));
    assert!(a.matmul(&b).data().iter().all(|&v| v == 4.0));
    let at = a.transpose2();
    assert!(at.matmul_tn(&b).data().iter().all(|&v| v == 4.0));
    // matmul_nt never skipped: 0·NaN poisons every cell.
    let bt = b.transpose2();
    assert!(a.matmul_nt(&bt).data().iter().all(|v| v.is_nan()));

    let pos_zero = |t: &TensorBase<f64>, what: &str| {
        for (idx, v) in t.data().iter().enumerate() {
            assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{what}[{idx}] = {v:e}");
        }
    };
    let neg = lift::<f64>(&[k, n], &vec![-0.0; k * n]);
    let ones = lift::<f64>(&[m, k], &vec![1.0; m * k]);
    pos_zero(&ones.matmul(&neg), "matmul");
    pos_zero(&ones.matmul_nt(&neg.transpose2()), "matmul_nt");
    pos_zero(&ones.transpose2().matmul_tn(&neg), "matmul_tn");
    let (nn, t_len) = (5, 11);
    let x = lift::<f64>(&[nn, t_len], &vec![-0.0; nn * t_len]);
    let kern = lift::<f64>(&[nn, nn, t_len], &vec![1.5; nn * nn * t_len]);
    let g = lift::<f64>(&[nn, nn, t_len], &vec![1.5; nn * nn * t_len]);
    pos_zero(&ops::causal_conv(&x, &kern), "causal_conv");
    pos_zero(
        &ops::causal_conv_backward_kernel(&x, &g),
        "causal_conv_backward_kernel",
    );
    let v = lift::<f64>(&[nn, nn, t_len], &vec![-0.0; nn * nn * t_len]);
    let go = lift::<f64>(&[nn, t_len], &vec![2.0; nn * t_len]);
    pos_zero(
        &ops::attn_apply_backward_attn(&v, &go),
        "attn_apply_backward_attn",
    );
}

/// The trainer's non-finite guard rolls back an epoch when the loss is not
/// finite. A single non-finite convolution tap — at the oldest lag, the
/// newest, or in between — must still make the prediction loss
/// non-finite, at both dtypes.
#[test]
fn non_finite_conv_kernel_yields_non_finite_loss() {
    fn loss_is_finite<E: Scalar>(bad: f64, tap: usize) -> bool {
        let (n, t_len) = (4, 16);
        let (xv, kv) = gen_vals(11, n * t_len, n * n * t_len);
        let mut kv = kv;
        // Poison kernel[1, 2, tap]. This calls the forward kernels
        // directly: the tape itself refuses non-finite values in debug
        // builds.
        kv[(n + 2) * t_len + tap] = bad;
        let x = lift::<E>(&[n, t_len], &xv);
        let kern = lift::<E>(&[n, n, t_len], &kv);
        let shifted = ops::self_shift(&ops::causal_conv(&x, &kern));
        shifted.mul(&shifted).mean().is_finite()
    }
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for tap in [0, 7, 15] {
            assert!(!loss_is_finite::<f64>(bad, tap), "f64 {bad} at tap {tap}");
            assert!(!loss_is_finite::<f32>(bad, tap), "f32 {bad} at tap {tap}");
        }
    }
}
