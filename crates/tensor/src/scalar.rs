//! Element-type abstraction: the sealed [`Scalar`] trait and the [`Dtype`]
//! runtime selector.
//!
//! Every numeric container in this crate — [`TensorBase`], the autodiff
//! [`TapeBase`](crate::tape::TapeBase), the size-class buffer pool — is
//! generic over an element type `E: Scalar`, with `f32` and `f64` as the
//! only implementations (the trait is sealed so kernels can rely on this
//! closed set). Public type aliases (`Tensor = TensorBase<f64>`, …) keep the
//! historical f64 API unchanged.
//!
//! The trait carries no accumulation policy: every kernel sums each output
//! cell in one ascending order at both element types (see
//! the `gemm` module), so f32 and f64 differ only in rounding. What does
//! live here is the **storage policy**: Rust thread-locals cannot be
//! generic, so each dtype owns its statics (buffer-pool free lists, tape
//! pool, gradient scratch) and exposes them through the `#[doc(hidden)]`
//! hooks below. The pool and tape code is written once, generically,
//! against the hooks.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

use crate::pool::{ThreadPool, NUM_CLASSES};
use crate::tape::TapeBase;
use crate::tensor::TensorBase;

/// Runtime element-type selector, threaded from the CLI/`TrainConfig` down
/// to the generic compute path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dtype {
    /// IEEE-754 single precision: 2× memory bandwidth and SIMD width; the
    /// training path is pinned by tolerance tests, not bitwise.
    F32,
    /// IEEE-754 double precision — the default, bitwise-reproducible path.
    #[default]
    F64,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size_of(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// The canonical lowercase name (`"f32"` / `"f64"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Dtype {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Dtype::F32),
            "f64" => Ok(Dtype::F64),
            other => Err(format!("unknown dtype {other:?} (expected f32 or f64)")),
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A tensor element type: `f32` or `f64` (sealed).
///
/// Scalar entry points on tensors keep `f64` signatures (`item`, `at`,
/// `set2`, `scale`, …) and convert at the boundary via
/// [`Scalar::from_f64`]/[`Scalar::to_f64`]; for `E = f64` both are the
/// identity, which is what keeps the legacy `Tensor` API bitwise unchanged.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::ops::DivAssign
    + 'static
{
    /// The matching runtime selector.
    const DTYPE: Dtype;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `-∞`, the fold seed for max-reductions.
    const NEG_INFINITY: Self;
    /// `+∞`, the fold seed for min-reductions.
    const INFINITY: Self;
    /// Backward-pass gradient scale (loss scaling): the trainer seeds
    /// backpropagation with this value and folds `1/GRAD_SCALE` into the
    /// batch-averaging factor, so optimizer-visible gradients are
    /// unchanged. `1.0` for `f64` (dividing by it is an exact identity,
    /// preserving the bitwise contract). `2^32` for `f32`: true gradients
    /// routinely reach `1e-20`, and backward-kernel products of such a
    /// gradient with a small activation land in the `f32` subnormal range
    /// (`< 1.2e-38`), where x86 multiplies fall off the fast path by ~2
    /// orders of magnitude — measured as the *backward* pass running 2–3×
    /// slower than f64. Pre-scaling by an exact power of two shifts those
    /// products back into normal range without changing any mantissa.
    const GRAD_SCALE: f64;

    /// Converts from `f64`, rounding to nearest for `f32`.
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both element types).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Sign of the value (`±1.0`, propagating NaN) — matches `f64::signum`.
    fn signum(self) -> Self;
    /// IEEE maximum (NaN-propagation matches `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// `true` iff neither NaN nor ±∞.
    fn is_finite(self) -> bool;

    #[doc(hidden)]
    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R;
    #[doc(hidden)]
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>>;
    #[doc(hidden)]
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R;
    #[doc(hidden)]
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R;
}

/// Parked gradient-scratch vectors (see `tape::GradientsBase`); exposed only
/// through the [`Scalar`] storage hooks.
pub type ScratchStack<E> = Vec<Vec<Option<TensorBase<E>>>>;

thread_local! {
    static POOL_F64: ThreadPool<f64> = ThreadPool::new();
    static POOL_F32: ThreadPool<f32> = ThreadPool::new();
    static TAPES_F64: RefCell<Vec<TapeBase<f64>>> = const { RefCell::new(Vec::new()) };
    static TAPES_F32: RefCell<Vec<TapeBase<f32>>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F64: RefCell<ScratchStack<f64>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F32: RefCell<ScratchStack<f32>> = const { RefCell::new(Vec::new()) };
}

fn empty_classes<E>() -> Mutex<Vec<Vec<Vec<E>>>> {
    Mutex::new((0..NUM_CLASSES).map(|_| Vec::new()).collect())
}

impl Scalar for f64 {
    const DTYPE: Dtype = Dtype::F64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const INFINITY: Self = f64::INFINITY;
    const GRAD_SCALE: f64 = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn signum(self) -> Self {
        f64::signum(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R {
        POOL_F64.with(f)
    }
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>> {
        static G: OnceLock<Mutex<Vec<Vec<Vec<f64>>>>> = OnceLock::new();
        G.get_or_init(empty_classes)
    }
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R {
        TAPES_F64.with(f)
    }
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R {
        SCRATCH_F64.with(f)
    }
}

impl Scalar for f32 {
    const DTYPE: Dtype = Dtype::F32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const INFINITY: Self = f32::INFINITY;
    const GRAD_SCALE: f64 = 4_294_967_296.0; // 2^32, exact in both formats

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn signum(self) -> Self {
        f32::signum(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R {
        POOL_F32.with(f)
    }
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>> {
        static G: OnceLock<Mutex<Vec<Vec<Vec<f32>>>>> = OnceLock::new();
        G.get_or_init(empty_classes)
    }
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R {
        TAPES_F32.with(f)
    }
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R {
        SCRATCH_F32.with(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_parses_and_prints() {
        assert_eq!("f32".parse::<Dtype>().unwrap(), Dtype::F32);
        assert_eq!("f64".parse::<Dtype>().unwrap(), Dtype::F64);
        assert!("f16".parse::<Dtype>().is_err());
        assert_eq!(Dtype::F32.to_string(), "f32");
        assert_eq!(Dtype::F64.size_of(), 8);
        assert_eq!(Dtype::F32.size_of(), 4);
        assert_eq!(Dtype::default(), Dtype::F64);
    }
}
