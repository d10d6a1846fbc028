//! Shared helpers for the dense-matrix Cilk-5 kernels: a simulated
//! row-major matrix view and the recursive blocked multiply-accumulate used
//! by both `cilk5-mm` and `cilk5-lu`'s Schur-complement update.

use std::sync::Arc;

use bigtiny_core::TaskCx;
use bigtiny_engine::{AddrSpace, ShVec, XorShift64};

/// A square row-major `f64` matrix in simulated memory.
#[derive(Debug)]
pub struct Matrix {
    data: ShVec<f64>,
    n: usize,
}

impl Matrix {
    /// Allocates an `n`×`n` zero matrix.
    pub fn zero(space: &mut AddrSpace, n: usize) -> Self {
        Matrix { data: ShVec::new(space, n * n, 0.0), n }
    }

    /// Allocates an `n`×`n` matrix with deterministic entries in `[-1, 1]`,
    /// plus `diag_boost` added on the diagonal (diagonal dominance keeps
    /// pivot-free LU stable).
    pub fn random(space: &mut AddrSpace, n: usize, seed: u64, diag_boost: f64) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut v = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                let x = rng.next_f64() * 2.0 - 1.0;
                v.push(if r == c { x + diag_boost } else { x });
            }
        }
        Matrix { data: ShVec::from_vec(space, v), n }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Simulated element load.
    pub fn get(&self, cx: &mut TaskCx<'_>, r: usize, c: usize) -> f64 {
        self.data.read(cx.port(), r * self.n + c)
    }

    /// Simulated element store.
    pub fn set(&self, cx: &mut TaskCx<'_>, r: usize, c: usize, v: f64) {
        self.data.write(cx.port(), r * self.n + c, v)
    }

    /// Host-side snapshot as rows.
    pub fn snapshot(&self) -> Vec<Vec<f64>> {
        let flat = self.data.snapshot();
        (0..self.n).map(|r| flat[r * self.n..(r + 1) * self.n].to_vec()).collect()
    }
}

/// Recursive blocked `C[rc] += sign * A[ra] * B[rb]` over `s`×`s`
/// submatrices, splitting into quadrants with two parallel rounds of four
/// products (the Cilk-5 `matmul` structure). `(ra, ca)` etc. are the
/// top-left corners of the operand submatrices.
#[allow(clippy::too_many_arguments)]
pub fn matmul_acc(
    cx: &mut TaskCx<'_>,
    a: &Arc<Matrix>,
    b: &Arc<Matrix>,
    c: &Arc<Matrix>,
    (ra, ca): (usize, usize),
    (rb, cb): (usize, usize),
    (rc, cc): (usize, usize),
    s: usize,
    block: usize,
    sign: f64,
) {
    if s <= block {
        serial_matmul_acc(cx, a, b, c, (ra, ca), (rb, cb), (rc, cc), s, sign);
        return;
    }
    let h = s / 2;
    // Round 1: Cij += Ai0 * B0j for the four quadrants, in parallel.
    for k in [0, 1] {
        cx.set_pending(4);
        for (qi, qj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let (a2, b2, c2) = (Arc::clone(a), Arc::clone(b), Arc::clone(c));
            let corners =
                ((ra + qi * h, ca + k * h), (rb + k * h, cb + qj * h), (rc + qi * h, cc + qj * h));
            cx.spawn(move |cx| {
                matmul_acc(cx, &a2, &b2, &c2, corners.0, corners.1, corners.2, h, block, sign);
            });
        }
        // The k=1 products read the same C quadrants: barrier between rounds.
        cx.wait();
    }
}

#[allow(clippy::too_many_arguments)]
fn serial_matmul_acc(
    cx: &mut TaskCx<'_>,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    (ra, ca): (usize, usize),
    (rb, cb): (usize, usize),
    (rc, cc): (usize, usize),
    s: usize,
    sign: f64,
) {
    for i in 0..s {
        for j in 0..s {
            let mut acc = c.get(cx, rc + i, cc + j);
            for k in 0..s {
                let x = a.get(cx, ra + i, ca + k);
                let y = b.get(cx, rb + k, cb + j);
                acc += sign * x * y;
                cx.port().advance(2); // fma + loop
            }
            c.set(cx, rc + i, cc + j, acc);
        }
    }
}

/// Host-side reference multiply: `A * B`.
pub fn host_matmul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut c = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i][k];
            for j in 0..n {
                c[i][j] += aik * b[k][j];
            }
        }
    }
    c
}

/// Maximum absolute elementwise difference.
pub fn max_abs_diff(x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
    x.iter()
        .zip(y)
        .flat_map(|(rx, ry)| rx.iter().zip(ry).map(|(a, b)| (a - b).abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sys;
    use bigtiny_core::{run_task_parallel, RuntimeConfig, RuntimeKind};
    use bigtiny_engine::Protocol;

    #[test]
    fn blocked_matmul_matches_host_reference() {
        let s = sys(Protocol::GpuWb);
        let cfg = RuntimeConfig::new(RuntimeKind::Dts);
        let mut space = AddrSpace::new();
        let n = 16;
        let a = Arc::new(Matrix::random(&mut space, n, 1, 0.0));
        let b = Arc::new(Matrix::random(&mut space, n, 2, 0.0));
        let c = Arc::new(Matrix::zero(&mut space, n));
        let (a2, b2, c2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&c));
        let run = run_task_parallel(&s, &cfg, &mut space, move |cx| {
            matmul_acc(cx, &a2, &b2, &c2, (0, 0), (0, 0), (0, 0), n, 4, 1.0);
        });
        let want = host_matmul(&a.snapshot(), &b.snapshot());
        assert!(max_abs_diff(&c.snapshot(), &want) < 1e-9);
        assert_eq!(run.report.stale_reads, 0);
    }

    #[test]
    fn negative_sign_subtracts() {
        let s = sys(Protocol::DeNovo);
        let cfg = RuntimeConfig::new(RuntimeKind::Hcc);
        let mut space = AddrSpace::new();
        let n = 8;
        let a = Arc::new(Matrix::random(&mut space, n, 3, 0.0));
        let b = Arc::new(Matrix::random(&mut space, n, 4, 0.0));
        let c = Arc::new(Matrix::random(&mut space, n, 5, 0.0));
        let before = c.snapshot();
        let (a2, b2, c2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&c));
        run_task_parallel(&s, &cfg, &mut space, move |cx| {
            matmul_acc(cx, &a2, &b2, &c2, (0, 0), (0, 0), (0, 0), n, 4, -1.0);
        });
        let prod = host_matmul(&a.snapshot(), &b.snapshot());
        let want: Vec<Vec<f64>> = before
            .iter()
            .zip(&prod)
            .map(|(r0, rp)| r0.iter().zip(rp).map(|(x, p)| x - p).collect())
            .collect();
        assert!(max_abs_diff(&c.snapshot(), &want) < 1e-9);
    }
}
