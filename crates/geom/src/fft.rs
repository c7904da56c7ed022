//! Deterministic, dependency-free fast Fourier transforms for the
//! electrostatic density solver.
//!
//! The placement kernels demand **bitwise thread-invariant** results (see
//! [`crate::parallel`]), so this module provides a fixed-radix (power-of-two
//! lengths only) iterative Cooley–Tukey FFT whose butterfly order is a pure
//! function of the transform length: every addition happens in exactly the
//! same sequence on every run, at every thread count. There is no SIMD
//! dispatch and no runtime plan tuning. A [`Fft`] is a precomputed
//! bit-reversal table plus one contiguous twiddle table per butterfly
//! stage; a 1-D transform never allocates, and a parallel 2-D pass
//! allocates only its per-chunk lists of slice handles, never a grid-sized
//! buffer.
//!
//! The 2-D transform ([`Fft2`]) factors into independent row and column
//! passes over the row-major grid, both in place. The row pass transforms
//! fixed chunks of whole rows in parallel. The column pass runs the same
//! butterflies on whole row segments: for each butterfly pair of rows,
//! every column of a fixed column chunk goes through the same scalar
//! operations in the same order, so the loop vectorizes across columns.
//! Each 1-D transform touches only its own row or column, so parallelism
//! cannot change any floating-point result — the thread count only changes
//! wall-clock time.
//!
//! Two pruned variants serve the Poisson solve of a mirror-extended grid:
//! [`Fft2::forward_mirrored`] transforms only the top half of the rows
//! when each row equals its mirror row, and [`Fft2::inverse_leading_cols`]
//! stops the inverse column pass after the columns the caller reads. Both
//! produce the same bits as the full transform wherever they define output.
//!
//! # Examples
//!
//! ```
//! use rdp_geom::fft::Fft;
//!
//! let fft = Fft::new(8);
//! let mut re = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
//! let mut im = vec![0.0; 8];
//! fft.forward(&mut re, &mut im);
//! // The spectrum of an impulse is flat.
//! assert!(re.iter().all(|&v| (v - 1.0).abs() < 1e-12));
//! fft.inverse(&mut re, &mut im);
//! assert!((re[0] - 1.0).abs() < 1e-12 && re[1].abs() < 1e-12);
//! ```

use crate::parallel::{chunk_spans, chunked_map_parts, split_at_spans, Parallelism};
use std::ops::Range;

/// Rows per parallel chunk of a row pass. Fixed (never derived from the
/// thread count) so the partition is canonical; it only gates scheduling,
/// never values — each row's transform is independent.
const ROW_CHUNK: usize = 16;

/// Columns per parallel chunk of a column pass, fixed for the same reason.
/// Narrower chunks (16–64 columns), which would let workers split a
/// 128-wide grid, measured slower than one 128-column chunk at 2 threads
/// on a 2-vCPU host (DESIGN.md §11).
const COL_CHUNK: usize = 128;

/// A precomputed radix-2 FFT plan for one power-of-two length.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Bit-reversal permutation of `0..n`.
    rev: Vec<u32>,
    /// Per-stage twiddles, stages concatenated: the stage with half-block
    /// size `h` occupies `h−1..2h−1` and holds `exp(−2πi·j/(2h))` for
    /// `j in 0..h`, read as the entries `j·n/(2h)` of the full length-`n`
    /// table so every stage sees the same doubles.
    w_re: Vec<f64>,
    w_im: Vec<f64>,
    /// `−w_im`: the conjugate twiddles of the inverse transform.
    w_im_conj: Vec<f64>,
}

impl Fft {
    /// Creates a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (and nonzero) — the fixed-radix
    /// constraint that keeps the butterfly schedule canonical.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            rev[0] = 0;
        }
        let (tw_re, tw_im): (Vec<f64>, Vec<f64>) = (0..n / 2)
            .map(|j| {
                let ang = -2.0 * std::f64::consts::PI * j as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .unzip();
        let mut w_re = Vec::with_capacity(n.saturating_sub(1));
        let mut w_im = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1usize;
        while half < n {
            let stride = n / (2 * half);
            w_re.extend((0..half).map(|j| tw_re[j * stride]));
            w_im.extend((0..half).map(|j| tw_im[j * stride]));
            half *= 2;
        }
        let w_im_conj = w_im.iter().map(|&v| -v).collect();
        Fft { n, rev, w_re, w_im, w_im_conj }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan's length is a power of two, so at least 1.
    /// (Provided alongside [`Fft::len`] by convention.)
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform (`X_k = Σ_j x_j·exp(-2πi·jk/n)`).
    ///
    /// # Panics
    ///
    /// Panics if the slices are not exactly `len()` long.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        self.transform(re, im, false);
    }

    /// In-place inverse transform, including the `1/n` normalization, so
    /// `inverse(forward(x)) == x` up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not exactly `len()` long.
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        self.transform(re, im, true);
        let scale = 1.0 / self.n as f64;
        for v in re.iter_mut() {
            *v *= scale;
        }
        for v in im.iter_mut() {
            *v *= scale;
        }
    }

    /// Twiddles of the stage with half-block size `half`.
    fn stage(&self, half: usize, invert: bool) -> (&[f64], &[f64]) {
        let span = half - 1..2 * half - 1;
        let w_im = if invert { &self.w_im_conj } else { &self.w_im };
        (&self.w_re[span.clone()], &w_im[span])
    }

    /// The row-axis kernel: bit-reversal reorder, then stages of half-block
    /// size 1, 2, …, n/2, each over its blocks in ascending order.
    fn transform(&self, re: &mut [f64], im: &mut [f64], invert: bool) {
        let n = self.n;
        assert_eq!(re.len(), n, "re length mismatch");
        assert_eq!(im.len(), n, "im length mismatch");
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut half = 1usize;
        while half < n {
            let (wr, wi) = self.stage(half, invert);
            for (blk_re, blk_im) in re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half))
            {
                let (ar, br) = blk_re.split_at_mut(half);
                let (ai, bi) = blk_im.split_at_mut(half);
                for j in 0..half {
                    butterfly(&mut ar[j], &mut ai[j], &mut br[j], &mut bi[j], wr[j], wi[j]);
                }
            }
            half *= 2;
        }
    }

    /// The column-axis kernel: transforms every column of a block whose
    /// row `r` is `re[r]`/`im[r]` (equal-width segments of one column
    /// range), including the `1/n` normalization when `invert`. Each column
    /// sees exactly the operations of [`Fft::forward`]/[`Fft::inverse`];
    /// the loop order only puts the columns innermost.
    fn transform_cols<'a>(&self, re: &mut [&'a mut [f64]], im: &mut [&'a mut [f64]], invert: bool) {
        let n = self.n;
        assert_eq!(re.len(), n, "re row count mismatch");
        assert_eq!(im.len(), n, "im row count mismatch");
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                swap_rows(re, i, j);
                swap_rows(im, i, j);
            }
        }
        let mut half = 1usize;
        while half < n {
            let (wr, wi) = self.stage(half, invert);
            for (blk_re, blk_im) in re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half))
            {
                let (lo_re, hi_re) = blk_re.split_at_mut(half);
                let (lo_im, hi_im) = blk_im.split_at_mut(half);
                for j in 0..half {
                    let ar = &mut *lo_re[j];
                    let w = ar.len();
                    let br = &mut hi_re[j][..w];
                    let ai = &mut lo_im[j][..w];
                    let bi = &mut hi_im[j][..w];
                    for x in 0..w {
                        butterfly(&mut ar[x], &mut ai[x], &mut br[x], &mut bi[x], wr[j], wi[j]);
                    }
                }
            }
            half *= 2;
        }
        if invert {
            let scale = 1.0 / n as f64;
            for rows in [re, im] {
                for v in rows.iter_mut().flat_map(|row| row.iter_mut()) {
                    *v *= scale;
                }
            }
        }
    }
}

/// One radix-2 butterfly, `(a, b) ← (a + w·b, a − w·b)`, with the exact
/// operation order both axis kernels share.
#[inline(always)]
fn butterfly(ar: &mut f64, ai: &mut f64, br: &mut f64, bi: &mut f64, wr: f64, wi: f64) {
    let tr = *br * wr - *bi * wi;
    let ti = *br * wi + *bi * wr;
    *br = *ar - tr;
    *bi = *ai - ti;
    *ar += tr;
    *ai += ti;
}

/// Swaps the contents of row segments `i < j` of a column block.
fn swap_rows(rows: &mut [&mut [f64]], i: usize, j: usize) {
    let (lo, hi) = rows.split_at_mut(j);
    lo[i].swap_with_slice(hi[0]);
}

/// A 2-D FFT plan over an `nx × ny` row-major grid (`ny` rows of `nx`),
/// transformed in place with deterministic parallel row and column passes.
#[derive(Debug, Clone)]
pub struct Fft2 {
    nx: usize,
    ny: usize,
    row: Fft,
    col: Fft,
}

impl Fft2 {
    /// Creates a plan for an `nx × ny` grid.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are powers of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        Fft2 { nx, ny, row: Fft::new(nx), col: Fft::new(ny) }
    }

    /// Grid width (row length).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (row count).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// In-place forward 2-D transform using up to `par` worker threads.
    /// Bitwise identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are not exactly `nx·ny` long.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64], par: &Parallelism) {
        self.check_len(re, im);
        self.rows_pass(re, im, self.ny, false, par);
        self.cols_pass(re, im, self.nx, false, par);
    }

    /// In-place inverse 2-D transform (with `1/(nx·ny)` normalization).
    ///
    /// # Panics
    ///
    /// Panics if the buffers are not exactly `nx·ny` long.
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64], par: &Parallelism) {
        self.inverse_leading_cols(re, im, self.nx, par);
    }

    /// [`Fft2::forward`] of a row-mirrored grid, one whose row `y` equals
    /// row `ny−1−y`. Only the top `⌈ny/2⌉` input rows are read: they are
    /// row-transformed and each result is copied to its mirror row before
    /// the column pass, which gives the bits of the full transform of the
    /// mirrored grid. The bottom input rows are overwritten unread.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are not exactly `nx·ny` long.
    pub fn forward_mirrored(&self, re: &mut [f64], im: &mut [f64], par: &Parallelism) {
        self.check_len(re, im);
        let (nx, ny) = (self.nx, self.ny);
        self.rows_pass(re, im, ny.div_ceil(2), false, par);
        for y in 0..ny / 2 {
            let m = ny - 1 - y;
            for buf in [&mut *re, &mut *im] {
                let (top, bottom) = buf.split_at_mut(m * nx);
                bottom[..nx].copy_from_slice(&top[y * nx..(y + 1) * nx]);
            }
        }
        self.cols_pass(re, im, nx, false, par);
    }

    /// [`Fft2::inverse`] whose column pass stops after columns `0..cols`:
    /// those columns get the bits of the full inverse, the others hold
    /// row-pass intermediates and must not be read.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are not exactly `nx·ny` long or `cols > nx`.
    pub fn inverse_leading_cols(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        cols: usize,
        par: &Parallelism,
    ) {
        self.check_len(re, im);
        assert!(cols <= self.nx, "column count {cols} exceeds grid width {}", self.nx);
        self.rows_pass(re, im, self.ny, true, par);
        self.cols_pass(re, im, cols, true, par);
    }

    fn check_len(&self, re: &[f64], im: &[f64]) {
        assert_eq!(re.len(), self.nx * self.ny, "re length mismatch");
        assert_eq!(im.len(), self.nx * self.ny, "im length mismatch");
    }

    /// Transforms rows `0..rows` in parallel over fixed chunks of whole
    /// rows.
    fn rows_pass(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        rows: usize,
        invert: bool,
        par: &Parallelism,
    ) {
        let nx = self.nx;
        let spans: Vec<_> = chunk_spans(rows, ROW_CHUNK)
            .map(|r| r.start * nx..r.end * nx)
            .collect();
        let parts: Vec<_> = split_at_spans(re, &spans)
            .into_iter()
            .zip(split_at_spans(im, &spans))
            .collect();
        chunked_map_parts(par, parts, |_ci, (re_rows, im_rows)| {
            for (rr, ri) in re_rows.chunks_exact_mut(nx).zip(im_rows.chunks_exact_mut(nx)) {
                if invert {
                    self.row.inverse(rr, ri);
                } else {
                    self.row.forward(rr, ri);
                }
            }
        });
    }

    /// Transforms columns `0..cols` in place, in parallel over fixed
    /// column chunks of `COL_CHUNK`.
    fn cols_pass(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        cols: usize,
        invert: bool,
        par: &Parallelism,
    ) {
        let spans: Vec<_> = chunk_spans(cols, COL_CHUNK).collect();
        let parts: Vec<_> = column_parts(re, self.nx, &spans)
            .into_iter()
            .zip(column_parts(im, self.nx, &spans))
            .collect();
        chunked_map_parts(par, parts, |_ci, (re_cols, im_cols)| {
            self.col.transform_cols(re_cols, im_cols, invert);
        });
    }
}

/// Splits a row-major `nx`-wide buffer into one column block per span: the
/// span's segment of every row, top to bottom. Allocates the per-span
/// lists only, nothing per row. `spans` must be ascending and disjoint.
fn column_parts<'a>(
    data: &'a mut [f64],
    nx: usize,
    spans: &[Range<usize>],
) -> Vec<Vec<&'a mut [f64]>> {
    let rows = data.len() / nx;
    let mut parts: Vec<Vec<&mut [f64]>> = spans.iter().map(|_| Vec::with_capacity(rows)).collect();
    for mut row in data.chunks_exact_mut(nx) {
        let mut offset = 0;
        for (part, span) in parts.iter_mut().zip(spans) {
            let (_, rest) = row.split_at_mut(span.start - offset);
            let (seg, rest) = rest.split_at_mut(span.end - span.start);
            part.push(seg);
            row = rest;
            offset = span.end;
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT oracle.
    fn dft(re: &[f64], im: &[f64], invert: bool) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let sign = if invert { 1.0 } else { -1.0 };
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for k in 0..n {
            let (mut sr, mut si) = (0.0, 0.0);
            for j in 0..n {
                let ang = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                sr += re[j] * c - im[j] * s;
                si += re[j] * s + im[j] * c;
            }
            if invert {
                sr /= n as f64;
                si /= n as f64;
            }
            out_re[k] = sr;
            out_im[k] = si;
        }
        (out_re, out_im)
    }

    /// Deterministic pseudo-random signal (no external RNG needed).
    fn signal(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = crate::rng::Rng::seed_from_u64(seed);
        let re = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let im = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (re, im)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_dft_oracle() {
        for n in [1usize, 2, 4, 16, 64] {
            let (re0, im0) = signal(n, 11 + n as u64);
            let fft = Fft::new(n);
            // Forward.
            let (mut re, mut im) = (re0.clone(), im0.clone());
            fft.forward(&mut re, &mut im);
            let (ore, oim) = dft(&re0, &im0, false);
            assert_close(&re, &ore, 1e-9 * n as f64, "fwd re");
            assert_close(&im, &oim, 1e-9 * n as f64, "fwd im");
            // Inverse.
            let (mut re, mut im) = (re0.clone(), im0.clone());
            fft.inverse(&mut re, &mut im);
            let (ore, oim) = dft(&re0, &im0, true);
            assert_close(&re, &ore, 1e-9, "inv re");
            assert_close(&im, &oim, 1e-9, "inv im");
        }
    }

    #[test]
    fn round_trip_recovers_input() {
        let n = 128;
        let (re0, im0) = signal(n, 3);
        let fft = Fft::new(n);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        fft.forward(&mut re, &mut im);
        fft.inverse(&mut re, &mut im);
        assert_close(&re, &re0, 1e-12, "roundtrip re");
        assert_close(&im, &im0, 1e-12, "roundtrip im");
    }

    #[test]
    fn linearity() {
        let n = 32;
        let (a_re, a_im) = signal(n, 5);
        let (b_re, b_im) = signal(n, 6);
        let (alpha, beta) = (2.5, -0.75);
        let fft = Fft::new(n);
        // F(αa + βb)
        let mut sum_re: Vec<f64> =
            a_re.iter().zip(&b_re).map(|(a, b)| alpha * a + beta * b).collect();
        let mut sum_im: Vec<f64> =
            a_im.iter().zip(&b_im).map(|(a, b)| alpha * a + beta * b).collect();
        fft.forward(&mut sum_re, &mut sum_im);
        // αF(a) + βF(b)
        let (mut fa_re, mut fa_im) = (a_re, a_im);
        fft.forward(&mut fa_re, &mut fa_im);
        let (mut fb_re, mut fb_im) = (b_re, b_im);
        fft.forward(&mut fb_re, &mut fb_im);
        for i in 0..n {
            assert!((sum_re[i] - (alpha * fa_re[i] + beta * fb_re[i])).abs() < 1e-9);
            assert!((sum_im[i] - (alpha * fa_im[i] + beta * fb_im[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum_and_constant_has_delta() {
        let n = 64;
        let fft = Fft::new(n);
        // Impulse → all-ones spectrum.
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        re[0] = 1.0;
        fft.forward(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - 1.0).abs() < 1e-12, "impulse re[{i}] = {}", re[i]);
            assert!(im[i].abs() < 1e-12, "impulse im[{i}] = {}", im[i]);
        }
        // Constant → delta at DC with weight n.
        let mut re = vec![1.0; n];
        let mut im = vec![0.0; n];
        fft.forward(&mut re, &mut im);
        assert!((re[0] - n as f64).abs() < 1e-9);
        for i in 1..n {
            assert!(re[i].abs() < 1e-9, "constant re[{i}] = {}", re[i]);
            assert!(im[i].abs() < 1e-9, "constant im[{i}] = {}", im[i]);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(12);
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let n = 64;
        let (re0, _) = signal(n, 9);
        let fft = Fft::new(n);
        let mut re = re0;
        let mut im = vec![0.0; n];
        fft.forward(&mut re, &mut im);
        for k in 1..n {
            assert!((re[k] - re[n - k]).abs() < 1e-9, "re not even at {k}");
            assert!((im[k] + im[n - k]).abs() < 1e-9, "im not odd at {k}");
        }
    }

    #[test]
    fn fft2_round_trip_and_dc() {
        let (nx, ny) = (16, 8);
        let plan = Fft2::new(nx, ny);
        let (re0, im0) = signal(nx * ny, 21);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        plan.forward(&mut re, &mut im, &Parallelism::single());
        // DC bin is the full sum.
        let sum: f64 = re0.iter().sum();
        assert!((re[0] - sum).abs() < 1e-9 * (nx * ny) as f64);
        plan.inverse(&mut re, &mut im, &Parallelism::single());
        assert_close(&re, &re0, 1e-11, "fft2 roundtrip re");
        assert_close(&im, &im0, 1e-11, "fft2 roundtrip im");
    }

    #[test]
    fn fft2_matches_row_column_dft() {
        let (nx, ny) = (8, 4);
        let (re0, im0) = signal(nx * ny, 33);
        let plan = Fft2::new(nx, ny);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        plan.forward(&mut re, &mut im, &Parallelism::single());
        // Oracle: DFT rows, then DFT columns.
        let (mut ore, mut oim) = (re0, im0);
        for y in 0..ny {
            let (r, i) = dft(&ore[y * nx..(y + 1) * nx], &oim[y * nx..(y + 1) * nx], false);
            ore[y * nx..(y + 1) * nx].copy_from_slice(&r);
            oim[y * nx..(y + 1) * nx].copy_from_slice(&i);
        }
        for x in 0..nx {
            let col_re: Vec<f64> = (0..ny).map(|y| ore[y * nx + x]).collect();
            let col_im: Vec<f64> = (0..ny).map(|y| oim[y * nx + x]).collect();
            let (r, i) = dft(&col_re, &col_im, false);
            for y in 0..ny {
                ore[y * nx + x] = r[y];
                oim[y * nx + x] = i[y];
            }
        }
        assert_close(&re, &ore, 1e-9, "fft2 re");
        assert_close(&im, &oim, 1e-9, "fft2 im");
    }

    #[test]
    fn fft2_is_bitwise_identical_across_thread_counts() {
        let (nx, ny) = (64, 128);
        let (re0, im0) = signal(nx * ny, 55);
        let run = |threads: usize| {
            let plan = Fft2::new(nx, ny);
            let (mut re, mut im) = (re0.clone(), im0.clone());
            plan.forward(&mut re, &mut im, &Parallelism::new(threads));
            plan.inverse(&mut re, &mut im, &Parallelism::new(threads));
            (re, im)
        };
        let (bre, bim) = run(1);
        for threads in [2, 8] {
            let (re, im) = run(threads);
            for i in 0..nx * ny {
                assert_eq!(re[i].to_bits(), bre[i].to_bits(), "re differs at t={threads} i={i}");
                assert_eq!(im[i].to_bits(), bim[i].to_bits(), "im differs at t={threads} i={i}");
            }
        }
    }
}
