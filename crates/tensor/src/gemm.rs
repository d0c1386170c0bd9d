//! The one contraction kernel under every training-path matmul and causal
//! convolution.
//!
//! Each caller phrases its work as `C += A·B` over row-major output rows:
//! `matmul`, `matmul_nt` (after transposing `B` into a padded scratch),
//! `matmul_tn` (a strided `A`), the causal convolution forward and kernel
//! gradient (`B` is a sliding window over the zero-left-padded series, one
//! row per tap).
//!
//! **The per-cell order contract.** Output cell `(i, j)` starts from its
//! current value and adds the terms `A[i,p]·B[p,j]` one at a time in
//! ascending `p` — multiply, round, add, round. With zero-skip on (`SKIP`),
//! a term whose `A[i,p]` equals zero is not added at all, so a `0·∞` or
//! `0·NaN` term leaves the cell alone (the group-lasso penalty and the
//! causal masks zero many weights exactly, and skipping saves their work).
//! That order is the crate's bitwise contract for both element types: a
//! naive loop with the same order reproduces every output bit, at any
//! thread count and on any instruction set.
//!
//! **Speed comes only from independent cells side by side.** An `MR×NR`
//! tile of accumulators stays in registers across the whole `p` loop; each
//! step broadcasts `MR` values of `A` against one `NR`-wide row of `B`. No
//! cell's sum is split or reassociated. Row bands fan out on the `cf-par`
//! pool above [`PAR_FLOP_THRESHOLD`]; each cell lives in exactly one band.
//!
//! **Run-time dispatch.** The band and tile loops are written once
//! ([`band_body`], [`tile`], both `#[inline(always)]`) and compiled twice:
//! as portable code for baseline x86-64 (SSE2) and other targets, and
//! inside one `#[target_feature(enable = "avx2")]` wrapper, where the same
//! loops use 256-bit registers. `is_x86_feature_detected!` picks one per
//! call. Only `avx2` is enabled, never `fma`, so every product is rounded
//! before it is added.

use std::ops::Range;

use crate::scalar::Scalar;
use crate::tensor::TensorBase;

/// Register-tile height: output rows sharing one `B` row per step.
const MR: usize = 4;
/// Register-tile width: output columns per `B` row load (two 256-bit
/// registers of f64, one of f32).
pub(crate) const NR: usize = 8;

/// FLOP count (2·m·k·n) below which a contraction stays serial: a pool
/// dispatch costs on the order of a microsecond, which only pays once the
/// kernel does roughly this much arithmetic. The comparison goes through
/// [`cf_par::should_fan_out`], which raises the bar when the call already
/// runs inside a scheduler task.
const PAR_FLOP_THRESHOLD: usize = 262_144;

/// Operands of one contraction `C[m×n] += A[m×k]·B[k×n]`; `C` is passed
/// separately as whole row-major rows of width `n`.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a, E> {
    /// `A[i,p] = a[i·rs_a + p·cs_a]`.
    pub a: &'a [E],
    pub rs_a: usize,
    pub cs_a: usize,
    /// `B[p,j] = b[p·ldb + j]`. `ldb` may be smaller than `n`: the causal
    /// convolution passes `ldb = 1`, so row `p` is the window at offset `p`.
    pub b: &'a [E],
    pub ldb: usize,
    pub k: usize,
    pub n: usize,
    /// `B[p,j]` is an exact zero wherever `p + j < k − 1` (the left zero
    /// padding of a causal window). A column tile then skips the leading
    /// rows that are zero in all of its lanes: those terms would add `±0`
    /// to a `+0` accumulator, which leaves it `+0`.
    pub causal_pad: bool,
}

/// Rows per parallel band: about 32 KFLOPs of work, rounded up to whole
/// register tiles. Depends only on the problem size, never on the thread
/// count, so band boundaries are deterministic.
fn rows_per_band(m: usize, flops_per_row: usize) -> usize {
    (32_768 / flops_per_row.max(1))
        .clamp(1, m)
        .next_multiple_of(MR)
        .min(m)
}

/// `C += A·B` (see the module docs for the order contract). `SKIP` turns on
/// the zero-skip on `A`.
pub(crate) fn gemm<E: Scalar, const SKIP: bool>(o: &Operands<'_, E>, c: &mut [E]) {
    let (k, n) = (o.k, o.n);
    let m = c.len() / n;
    // A last column tile narrower than NR reads past the end of `b`
    // unless the caller padded it; copy that tile into a zero-padded
    // k×NR panel instead. Lanes past `n` are computed and discarded.
    let last = (n - 1) / NR * NR;
    let edge = (last + (k - 1) * o.ldb + NR > o.b.len()).then(|| {
        let mut panel = TensorBase::<E>::zeros(&[k, NR]);
        for (p, row) in panel.data_mut().chunks_exact_mut(NR).enumerate() {
            row[..n - last].copy_from_slice(&o.b[p * o.ldb + last..][..n - last]);
        }
        panel
    });
    let edge = edge.as_ref().map_or(&[][..], |t| t.data());
    if !cf_par::should_fan_out((2 * m * k * n) as u64, PAR_FLOP_THRESHOLD as u64) {
        band::<E, SKIP>(o, edge, 0, c);
    } else {
        let rb = rows_per_band(m, 2 * k * n);
        cf_par::par_chunks_mut(c, rb * n, |ci, rows| {
            band::<E, SKIP>(o, edge, ci * rb, rows)
        });
    }
}

/// One band of output rows, starting at global row `i0`: the AVX2
/// compilation of [`band_body`] when the CPU has AVX2, else the portable
/// one.
fn band<E: Scalar, const SKIP: bool>(o: &Operands<'_, E>, edge: &[E], i0: usize, c: &mut [E]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2 (checked just above).
        return unsafe { band_avx2::<E, SKIP>(o, edge, i0, c) };
    }
    band_body::<E, SKIP>(o, edge, i0, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2<E: Scalar, const SKIP: bool>(o: &Operands<'_, E>, edge: &[E], i0: usize, c: &mut [E]) {
    band_body::<E, SKIP>(o, edge, i0, c)
}

#[inline(always)]
fn band_body<E: Scalar, const SKIP: bool>(o: &Operands<'_, E>, edge: &[E], i0: usize, c: &mut [E]) {
    let n = o.n;
    let rows = c.len() / n;
    for r0 in (0..rows).step_by(MR) {
        let mr = MR.min(rows - r0);
        // Rows past the band's end repeat its last row: computed, never
        // stored, and every read stays in bounds.
        let arow: [usize; MR] = std::array::from_fn(|r| (i0 + r0 + r.min(mr - 1)) * o.rs_a);
        let a_at = |r: usize, p: usize| o.a[arow[r] + p * o.cs_a];
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let (b, ldb) = if j0 + NR > n && !edge.is_empty() {
                (edge, NR)
            } else {
                (&o.b[j0..], o.ldb)
            };
            let b_row = |p: usize| -> [E; NR] {
                b[p * ldb..p * ldb + NR]
                    .try_into()
                    .expect("an NR-long slice")
            };
            let p0 = if o.causal_pad {
                (o.k - 1).saturating_sub(j0 + NR - 1)
            } else {
                0
            };
            let at = r0 * n + j0;
            if mr == MR && nr == NR {
                let init = std::array::from_fn(|r| {
                    c[at + r * n..][..NR].try_into().expect("an NR-long slice")
                });
                let acc = tile::<E, SKIP>(init, p0..o.k, a_at, b_row);
                for (r, acc_row) in acc.iter().enumerate() {
                    c[at + r * n..][..NR].copy_from_slice(acc_row);
                }
            } else {
                // Fixed-trip masked loops, not slice copies: a variable
                // length copy becomes a `memcpy` call per row.
                let init = std::array::from_fn(|r| {
                    std::array::from_fn(|l| {
                        if r < mr && l < nr {
                            c[at + r * n + l]
                        } else {
                            E::ZERO
                        }
                    })
                });
                let acc = tile::<E, SKIP>(init, p0..o.k, a_at, b_row);
                for r in 0..mr {
                    store_masked(&mut c[at + r * n..], &acc[r], nr);
                }
            }
        }
    }
}

/// Writes the first `nr` lanes of `lanes` to the front of `dst`.
#[inline(always)]
fn store_masked<E: Scalar>(dst: &mut [E], lanes: &[E; NR], nr: usize) {
    for l in 0..NR {
        if l < nr {
            dst[l] = lanes[l];
        }
    }
}

/// The register tile: `acc[r][c] += A(r,p)·B(p)[c]` for `p` in `ps`, in
/// ascending order, each term rounded before it is added. With `SKIP`, a
/// zero `A(r,p)` drops row `r`'s term for that `p`.
#[inline(always)]
fn tile<E: Scalar, const SKIP: bool>(
    mut acc: [[E; NR]; MR],
    ps: Range<usize>,
    a_at: impl Fn(usize, usize) -> E,
    b_row: impl Fn(usize) -> [E; NR],
) -> [[E; NR]; MR] {
    for p in ps {
        let b = b_row(p);
        let av: [E; MR] = std::array::from_fn(|r| a_at(r, p));
        if SKIP && av.contains(&E::ZERO) {
            for r in 0..MR {
                if av[r] != E::ZERO {
                    for c in 0..NR {
                        acc[r][c] += av[r] * b[c];
                    }
                }
            }
        } else {
            // Straight-line, branch-free: the common case vectorises to
            // MR·NR independent lanes.
            for r in 0..MR {
                for c in 0..NR {
                    acc[r][c] += av[r] * b[c];
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s >> 11) as f64 / (1u64 << 53) as f64;
                if u < 0.1 {
                    0.0
                } else {
                    4.0 * u - 2.0
                }
            })
            .collect()
    }

    /// The portable and AVX2 compilations of the one body must agree to
    /// the bit, with and without zero-skip, on full and edge tiles.
    #[test]
    fn portable_and_avx2_bodies_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("skipping: this CPU has no AVX2");
                return;
            }
            fn run<E: Scalar>() {
                for (m, k, n) in [(1, 1, 1), (4, 33, 8), (5, 7, 17), (9, 2, 3), (20, 32, 32)] {
                    let lift = |v: Vec<f64>| -> Vec<E> { v.into_iter().map(E::from_f64).collect() };
                    let a = lift(vals(m * k, 1));
                    let b = lift(vals(k * n + NR, 2));
                    let o = Operands {
                        a: &a,
                        rs_a: k,
                        cs_a: 1,
                        b: &b,
                        ldb: n,
                        k,
                        n,
                        causal_pad: false,
                    };
                    let c0 = lift(vals(m * n, 3));
                    let (mut portable, mut avx2) = (c0.clone(), c0.clone());
                    band_body::<E, true>(&o, &[], 0, &mut portable);
                    // SAFETY: AVX2 support was checked above.
                    unsafe { band_avx2::<E, true>(&o, &[], 0, &mut avx2) };
                    let bits = |v: &[E]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&portable), bits(&avx2), "skip {m}x{k}x{n}");
                    let (mut portable, mut avx2) = (c0.clone(), c0);
                    band_body::<E, false>(&o, &[], 0, &mut portable);
                    // SAFETY: as above.
                    unsafe { band_avx2::<E, false>(&o, &[], 0, &mut avx2) };
                    assert_eq!(bits(&portable), bits(&avx2), "no-skip {m}x{k}x{n}");
                }
            }
            run::<f64>();
            run::<f32>();
        }
    }

    #[test]
    fn bands_are_whole_tiles_and_cover_small_problems() {
        assert_eq!(rows_per_band(3, 1 << 20), 3);
        assert_eq!(rows_per_band(64, 2 * 48 * 48), 8);
        assert_eq!(rows_per_band(1000, 1), 1000);
    }
}
