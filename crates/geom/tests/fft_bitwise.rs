//! Bitwise oracle for the in-place 2-D FFT.
//!
//! The oracle below is the textbook transform the in-place passes replaced:
//! a radix-2 kernel reading one full twiddle table with a stride (inverse =
//! conjugated twiddles chosen inside the butterfly loop), and a 2-D plan
//! that runs rows → transpose → rows → transpose. It lives here, not in
//! the library, and is serial: the production transform must match it bit
//! for bit at every thread count, including the two pruned variants the
//! Poisson solve uses on the region they define.

use rdp_geom::fft::Fft2;
use rdp_geom::parallel::Parallelism;
use rdp_geom::rng::Rng;

/// The strided-table 1-D transform.
struct OracleFft {
    n: usize,
    rev: Vec<u32>,
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl OracleFft {
    fn new(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            rev[0] = 0;
        }
        let mut tw_re = Vec::with_capacity(n / 2);
        let mut tw_im = Vec::with_capacity(n / 2);
        for j in 0..n / 2 {
            let ang = -2.0 * std::f64::consts::PI * j as f64 / n as f64;
            tw_re.push(ang.cos());
            tw_im.push(ang.sin());
        }
        OracleFft { n, rev, tw_re, tw_im }
    }

    fn transform(&self, re: &mut [f64], im: &mut [f64], invert: bool) {
        let n = self.n;
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut half = 1usize;
        while half < n {
            let stride = n / (2 * half);
            let mut base = 0usize;
            while base < n {
                for j in 0..half {
                    let (wr, wi) = {
                        let wr = self.tw_re[j * stride];
                        let wi = self.tw_im[j * stride];
                        if invert {
                            (wr, -wi)
                        } else {
                            (wr, wi)
                        }
                    };
                    let a = base + j;
                    let b = a + half;
                    let tr = re[b] * wr - im[b] * wi;
                    let ti = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                }
                base += 2 * half;
            }
            half *= 2;
        }
        if invert {
            let scale = 1.0 / n as f64;
            for v in re.iter_mut() {
                *v *= scale;
            }
            for v in im.iter_mut() {
                *v *= scale;
            }
        }
    }
}

/// The transpose-based 2-D transform over an `nx × ny` row-major grid.
struct OracleFft2 {
    nx: usize,
    ny: usize,
    row: OracleFft,
    col: OracleFft,
}

impl OracleFft2 {
    fn new(nx: usize, ny: usize) -> Self {
        OracleFft2 { nx, ny, row: OracleFft::new(nx), col: OracleFft::new(ny) }
    }

    fn pass(&self, re: &mut [f64], im: &mut [f64], invert: bool) {
        let (nx, ny) = (self.nx, self.ny);
        rows(&self.row, re, im, nx, invert);
        let mut t_re = vec![0.0; nx * ny];
        let mut t_im = vec![0.0; nx * ny];
        transpose(re, &mut t_re, nx, ny);
        transpose(im, &mut t_im, nx, ny);
        rows(&self.col, &mut t_re, &mut t_im, ny, invert);
        transpose(&t_re, re, ny, nx);
        transpose(&t_im, im, ny, nx);
    }
}

fn rows(plan: &OracleFft, re: &mut [f64], im: &mut [f64], nx: usize, invert: bool) {
    for (rr, ri) in re.chunks_exact_mut(nx).zip(im.chunks_exact_mut(nx)) {
        plan.transform(rr, ri, invert);
    }
}

/// Writes the transpose of `src` (`nx × ny`, row-major) into `dst`.
fn transpose(src: &[f64], dst: &mut [f64], nx: usize, ny: usize) {
    for y in 0..ny {
        for x in 0..nx {
            dst[x * ny + y] = src[y * nx + x];
        }
    }
}

const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 8), (16, 8), (64, 128), (256, 32), (512, 512)];
const THREADS: [usize; 3] = [1, 2, 8];

/// A seeded grid; `complex == false` leaves the imaginary part zero.
fn grid(nx: usize, ny: usize, seed: u64, complex: bool) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let re = (0..nx * ny).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let im = (0..nx * ny)
        .map(|_| if complex { rng.gen_range(-1.0..1.0) } else { 0.0 })
        .collect();
    (re, im)
}

/// Asserts bitwise equality on the columns `0..cols` of every row.
fn assert_bits(got: &[f64], want: &[f64], nx: usize, cols: usize, what: &str) {
    for (y, (g, w)) in got.chunks_exact(nx).zip(want.chunks_exact(nx)).enumerate() {
        for x in 0..cols {
            assert_eq!(
                g[x].to_bits(),
                w[x].to_bits(),
                "{what}: ({x}, {y}) is {} not {}",
                g[x],
                w[x]
            );
        }
    }
}

#[test]
fn forward_and_inverse_match_the_transpose_oracle_bitwise() {
    for (si, &(nx, ny)) in SHAPES.iter().enumerate() {
        let oracle = OracleFft2::new(nx, ny);
        let plan = Fft2::new(nx, ny);
        for complex in [false, true] {
            let (re0, im0) = grid(nx, ny, 100 + si as u64, complex);
            let (mut fwd_re, mut fwd_im) = (re0.clone(), im0.clone());
            oracle.pass(&mut fwd_re, &mut fwd_im, false);
            let (mut inv_re, mut inv_im) = (re0.clone(), im0.clone());
            oracle.pass(&mut inv_re, &mut inv_im, true);
            for threads in THREADS {
                let par = Parallelism::new(threads);
                let what = format!("{nx}x{ny} complex={complex} t={threads}");
                let (mut re, mut im) = (re0.clone(), im0.clone());
                plan.forward(&mut re, &mut im, &par);
                assert_bits(&re, &fwd_re, nx, nx, &format!("forward re {what}"));
                assert_bits(&im, &fwd_im, nx, nx, &format!("forward im {what}"));
                let (mut re, mut im) = (re0.clone(), im0.clone());
                plan.inverse(&mut re, &mut im, &par);
                assert_bits(&re, &inv_re, nx, nx, &format!("inverse re {what}"));
                assert_bits(&im, &inv_im, nx, nx, &format!("inverse im {what}"));
            }
        }
    }
}

#[test]
fn mirrored_forward_matches_the_oracle_on_mirrored_input() {
    for (si, &(nx, ny)) in SHAPES.iter().enumerate() {
        let oracle = OracleFft2::new(nx, ny);
        let plan = Fft2::new(nx, ny);
        for complex in [false, true] {
            let (mut re0, mut im0) = grid(nx, ny, 200 + si as u64, complex);
            for y in 0..ny / 2 {
                let m = ny - 1 - y;
                for buf in [&mut re0, &mut im0] {
                    let (top, bottom) = buf.split_at_mut(m * nx);
                    bottom[..nx].copy_from_slice(&top[y * nx..(y + 1) * nx]);
                }
            }
            let (mut want_re, mut want_im) = (re0.clone(), im0.clone());
            oracle.pass(&mut want_re, &mut want_im, false);
            for threads in THREADS {
                let what = format!("{nx}x{ny} complex={complex} t={threads}");
                // The bottom rows are never read: poison them.
                let (mut re, mut im) = (re0.clone(), im0.clone());
                let bottom = ny.div_ceil(2) * nx;
                for v in re[bottom..].iter_mut().chain(&mut im[bottom..]) {
                    *v = f64::NAN;
                }
                plan.forward_mirrored(&mut re, &mut im, &Parallelism::new(threads));
                assert_bits(&re, &want_re, nx, nx, &format!("mirrored re {what}"));
                assert_bits(&im, &want_im, nx, nx, &format!("mirrored im {what}"));
            }
        }
    }
}

#[test]
fn column_limited_inverse_matches_the_oracle_on_the_kept_columns() {
    for (si, &(nx, ny)) in SHAPES.iter().enumerate() {
        let oracle = OracleFft2::new(nx, ny);
        let plan = Fft2::new(nx, ny);
        for complex in [false, true] {
            let (re0, im0) = grid(nx, ny, 300 + si as u64, complex);
            let (mut want_re, mut want_im) = (re0.clone(), im0.clone());
            oracle.pass(&mut want_re, &mut want_im, true);
            for threads in THREADS {
                for cols in [0, 1, nx / 2, nx] {
                    let what = format!("{nx}x{ny} cols={cols} complex={complex} t={threads}");
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    plan.inverse_leading_cols(&mut re, &mut im, cols, &Parallelism::new(threads));
                    assert_bits(&re, &want_re, nx, cols, &format!("limited re {what}"));
                    assert_bits(&im, &want_im, nx, cols, &format!("limited im {what}"));
                }
            }
        }
    }
}
