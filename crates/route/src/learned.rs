//! The learned congestion tier: a small deterministic feature-based
//! regressor predicting per-edge routed track demand.
//!
//! Sits between the probabilistic pattern estimator (cheapest, least
//! accurate) and the incremental negotiation router (most accurate, most
//! expensive) in the placer's estimator ladder. Per-gcell features — pin
//! density, RUDY wiring demand, macro/blockage coverage, local cell
//! utilization — feed a per-direction linear model trained offline by
//! closed-form ridge regression on *our own router's* per-edge usage and
//! overflow across `rdp-gen` designs (`rdp train-estimator`). The weights
//! are plain text checked into the tree ([`EstimatorWeights::builtin`]),
//! so prediction has zero runtime dependencies and the build stays
//! offline.
//!
//! Everything here is bitwise thread-invariant: feature deposits are
//! accumulated per fixed-size chunk and merged in chunk order, the RUDY
//! rasterization goes through a corner-deposit difference grid with a
//! serial prefix sum, and prediction is a pure per-edge function applied
//! in edge order.

use crate::grid::{EdgeId, GCell, LayerDir, RouteGrid};
use rdp_db::{Design, Placement};
use rdp_geom::parallel::{chunk_spans, chunked_map, Parallelism};
use rdp_geom::Point;

/// Nets (or nodes) per parallel work chunk in feature extraction. Fixed so
/// the merge order never depends on the thread count.
const FEATURE_CHUNK: usize = 256;

/// Edges per parallel work chunk in prediction.
const PREDICT_CHUNK: usize = 8192;

/// Number of features of one per-edge sample (see [`FEATURE_NAMES`]).
pub const NUM_FEATURES: usize = 7;

/// Names of the per-edge features, in sample order:
///
/// * `bias` — constant 1.
/// * `pins` — mean pin count of the edge's two gcells.
/// * `rudy_dir` — mean RUDY wiring demand *along* the edge direction.
/// * `rudy_cross` — mean RUDY demand across the edge direction.
/// * `macro_frac` — mean fraction of the gcells covered by fixed/macro
///   blockage.
/// * `util` — mean movable-cell area utilization of the gcells.
/// * `cap` — the edge's carved capacity in tracks.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] =
    ["bias", "pins", "rudy_dir", "rudy_cross", "macro_frac", "util", "cap"];

/// The checked-in default weights (regenerate with `rdp train-estimator`).
const BUILTIN_WEIGHTS: &str = include_str!("learned_weights.txt");

/// Per-direction linear weights of the learned tier, plus the accuracy
/// gate the shipped weights passed at training time.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorWeights {
    /// Ridge regularization the weights were trained with.
    pub lambda: f64,
    /// Held-out Spearman rank correlation (predicted vs. routed usage)
    /// the weights passed, with margin — the floor the route crate's
    /// `learned` tests re-assert on a fresh design.
    pub gate_usage: f64,
    /// Held-out rank correlation of predicted vs. true router overflow,
    /// with margin.
    pub gate_overflow: f64,
    /// Weights of horizontal edges, in [`FEATURE_NAMES`] order.
    pub h: [f64; NUM_FEATURES],
    /// Weights of vertical edges.
    pub v: [f64; NUM_FEATURES],
}

impl EstimatorWeights {
    /// The weights checked into the tree.
    ///
    /// # Panics
    ///
    /// Panics if the in-tree weight file is corrupt (a build error, not a
    /// runtime condition).
    pub fn builtin() -> &'static EstimatorWeights {
        static BUILTIN: std::sync::OnceLock<EstimatorWeights> = std::sync::OnceLock::new();
        BUILTIN.get_or_init(|| {
            EstimatorWeights::parse(BUILTIN_WEIGHTS)
                .expect("in-tree learned_weights.txt must parse")
        })
    }

    /// Serializes to the plain-text weight format. Floats travel as f64
    /// bit patterns (with decimal comments), so a parse round trip — and
    /// a retrain from the same seed — is byte-identical.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("rdp-estimator v1\n");
        let _ = writeln!(out, "# features: {}", FEATURE_NAMES.join(" "));
        let bits = |v: f64| format!("{:016x}", v.to_bits());
        let _ = writeln!(out, "lambda {} # {:e}", bits(self.lambda), self.lambda);
        let _ = writeln!(out, "gate_usage {} # {:.4}", bits(self.gate_usage), self.gate_usage);
        let _ = writeln!(
            out,
            "gate_overflow {} # {:.4}",
            bits(self.gate_overflow),
            self.gate_overflow
        );
        for (label, w) in [("h", &self.h), ("v", &self.v)] {
            let hex: Vec<String> = w.iter().map(|&x| bits(x)).collect();
            let _ = writeln!(out, "{label} {}", hex.join(" "));
            let dec: Vec<String> = w.iter().map(|&x| format!("{x:.6e}")).collect();
            let _ = writeln!(out, "# {label}: {}", dec.join(" "));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the plain-text weight format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        fn bits(s: &str) -> Result<f64, String> {
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("bad f64 bits `{s}`: {e}"))
        }
        fn row(parts: &[&str]) -> Result<[f64; NUM_FEATURES], String> {
            if parts.len() != NUM_FEATURES {
                return Err(format!("want {NUM_FEATURES} weights, got {}", parts.len()));
            }
            let mut w = [0.0; NUM_FEATURES];
            for (slot, s) in w.iter_mut().zip(parts) {
                *slot = bits(s)?;
            }
            Ok(w)
        }
        let mut lines = text.lines();
        if lines.next() != Some("rdp-estimator v1") {
            return Err("missing `rdp-estimator v1` header".into());
        }
        let (mut lambda, mut gate_usage, mut gate_overflow) = (None, None, None);
        let (mut h, mut v) = (None, None);
        let mut saw_end = false;
        for line in lines {
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let parts: Vec<&str> = body.split_whitespace().collect();
            match parts[0] {
                "lambda" => lambda = Some(bits(parts.get(1).ok_or("lambda missing value")?)?),
                "gate_usage" => {
                    gate_usage = Some(bits(parts.get(1).ok_or("gate_usage missing value")?)?)
                }
                "gate_overflow" => {
                    gate_overflow = Some(bits(parts.get(1).ok_or("gate_overflow missing value")?)?)
                }
                "h" => h = Some(row(&parts[1..])?),
                "v" => v = Some(row(&parts[1..])?),
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        if !saw_end {
            return Err("truncated weight file (no `end`)".into());
        }
        Ok(EstimatorWeights {
            lambda: lambda.ok_or("missing lambda")?,
            gate_usage: gate_usage.ok_or("missing gate_usage")?,
            gate_overflow: gate_overflow.ok_or("missing gate_overflow")?,
            h: h.ok_or("missing h weights")?,
            v: v.ok_or("missing v weights")?,
        })
    }

    /// The weight vector for edges of direction `dir`.
    #[inline]
    pub fn for_dir(&self, dir: LayerDir) -> &[f64; NUM_FEATURES] {
        match dir {
            LayerDir::Horizontal => &self.h,
            LayerDir::Vertical => &self.v,
        }
    }
}

/// Per-gcell congestion features over one routing grid, in row-major
/// gcell order (`y * nx + x`).
#[derive(Debug, Clone)]
pub struct GcellFeatures {
    /// Grid width in gcells.
    pub nx: u32,
    /// Grid height in gcells.
    pub ny: u32,
    /// Pin count per gcell.
    pub pins: Vec<f64>,
    /// RUDY horizontal wiring demand (expected horizontal crossings).
    pub rudy_h: Vec<f64>,
    /// RUDY vertical wiring demand.
    pub rudy_v: Vec<f64>,
    /// Fraction of the gcell covered by fixed/macro blockage (clamped
    /// to 1).
    pub macro_frac: Vec<f64>,
    /// Movable-cell area utilization of the gcell.
    pub util: Vec<f64>,
}

impl GcellFeatures {
    /// The per-edge regression sample for an edge between gcells `a` and
    /// `b` (grid indices) of direction `dir` with carved capacity `cap`.
    #[inline]
    pub fn edge_sample(&self, a: usize, b: usize, dir: LayerDir, cap: f64) -> [f64; NUM_FEATURES] {
        let mean = |f: &[f64]| 0.5 * (f[a] + f[b]);
        let (rudy_dir, rudy_cross) = match dir {
            LayerDir::Horizontal => (mean(&self.rudy_h), mean(&self.rudy_v)),
            LayerDir::Vertical => (mean(&self.rudy_v), mean(&self.rudy_h)),
        };
        [
            1.0,
            mean(&self.pins),
            rudy_dir,
            rudy_cross,
            mean(&self.macro_frac),
            mean(&self.util),
            cap,
        ]
    }

    /// Number of gcells covered.
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// Whether the grid had no gcells (never true for a built grid).
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }
}

/// Sparse feature deposit emitted by a worker chunk: `(gcell index,
/// amount)` pairs per feature plane, merged in chunk order.
#[derive(Default)]
struct Deposits {
    pins: Vec<(u32, f64)>,
    /// Corner deposits of the RUDY difference grids (summed-area trick):
    /// each net bbox contributes at most 4 corners per direction.
    rudy_h: Vec<(u32, f64)>,
    rudy_v: Vec<(u32, f64)>,
    macro_frac: Vec<(u32, f64)>,
    util: Vec<(u32, f64)>,
}

/// Extracts the per-gcell features of `design`/`placement` on the
/// geometry of `grid`, on up to `par` worker threads. Bitwise identical
/// at every thread count, and total work is `O(pins + nets + nodes +
/// gcells)` — net bounding boxes go through a corner-deposit difference
/// grid instead of per-gcell rasterization, so huge bboxes cost O(1).
///
/// Degenerate inputs are fine: a design with zero nets (or zero movable
/// nodes) yields zero demand planes, and a single-gcell grid yields a
/// single all-but-capacity-zero sample space with no planar edges.
pub fn extract_features(
    grid: &RouteGrid,
    design: &Design,
    placement: &Placement,
    par: &Parallelism,
) -> GcellFeatures {
    let (nx, ny) = (grid.nx(), grid.ny());
    let n_cells = (nx as usize) * (ny as usize);
    let (tile_w, tile_h) = (grid.rect_of(GCell::new(0, 0)).width(), grid.rect_of(GCell::new(0, 0)).height());
    let tile_area = (tile_w * tile_h).max(f64::MIN_POSITIVE);

    // The difference grid needs one extra row/column for the far corners.
    let dnx = nx as usize + 1;
    let diff_index = |g: GCell, dx: u32, dy: u32| -> u32 {
        ((g.y + dy) as usize * dnx + (g.x + dx) as usize) as u32
    };

    // --- Net plane: pin counts + RUDY corner deposits. ---
    let nets: Vec<_> = design.net_ids().collect();
    let net_spans: Vec<_> = chunk_spans(nets.len(), FEATURE_CHUNK).collect();
    let net_parts = chunked_map(par, net_spans.len(), |ci| {
        let mut d = Deposits::default();
        for &net in &nets[net_spans[ci].clone()] {
            let pins = design.net(net).pins();
            if pins.is_empty() {
                continue;
            }
            let (mut xl, mut yl) = (f64::INFINITY, f64::INFINITY);
            let (mut xh, mut yh) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &p in pins {
                let pos = placement.pin_position(design, p);
                xl = xl.min(pos.x);
                xh = xh.max(pos.x);
                yl = yl.min(pos.y);
                yh = yh.max(pos.y);
                let g = grid.gcell_of(pos);
                d.pins.push((g.y * nx + g.x, 1.0));
            }
            if !(xl.is_finite() && yl.is_finite() && xh.is_finite() && yh.is_finite()) {
                continue;
            }
            let g0 = grid.gcell_of(Point::new(xl, yl));
            let g1 = grid.gcell_of(Point::new(xh, yh));
            // Horizontal demand of the net: 1 crossing per unit of bbox
            // height (RUDY), i.e. tile_h / max(bbox_h, tile_h) tracks per
            // covered gcell; vertical transposed. Deposited as difference-
            // grid corners, resolved by the prefix sum below.
            let demand_h = tile_h / (yh - yl).max(tile_h);
            let demand_v = tile_w / (xh - xl).max(tile_w);
            for (plane, demand) in [(&mut d.rudy_h, demand_h), (&mut d.rudy_v, demand_v)] {
                plane.push((diff_index(g0, 0, 0), demand));
                plane.push((diff_index(g1, 1, 0), -demand));
                plane.push((diff_index(g0, 0, 1), -demand));
                plane.push((diff_index(g1, 1, 1), demand));
            }
        }
        d
    });

    // --- Node plane: macro/blockage coverage + movable utilization. ---
    let node_ids: Vec<_> = design.node_ids().collect();
    let node_spans: Vec<_> = chunk_spans(node_ids.len(), FEATURE_CHUNK).collect();
    let node_parts = chunked_map(par, node_spans.len(), |ci| {
        let mut d = Deposits::default();
        for &id in &node_ids[node_spans[ci].clone()] {
            let node = design.node(id);
            let blocking = node.kind() == rdp_db::NodeKind::Fixed || node.is_macro();
            let movable_cell = node.is_movable() && node.is_std_cell();
            if !blocking && !movable_cell {
                continue;
            }
            let rects: Vec<rdp_geom::Rect> = if blocking && node.kind() == rdp_db::NodeKind::Fixed
            {
                design.blocking_rects(id, placement)
            } else {
                vec![placement.rect(design, id)]
            };
            let plane = if blocking { &mut d.macro_frac } else { &mut d.util };
            for r in rects {
                if r.width() <= 0.0 || r.height() <= 0.0 {
                    continue;
                }
                let g0 = grid.gcell_of(Point::new(r.xl, r.yl));
                let g1 = grid.gcell_of(Point::new(r.xh - 1e-9, r.yh - 1e-9));
                for gy in g0.y..=g1.y {
                    for gx in g0.x..=g1.x {
                        let cell = GCell::new(gx, gy);
                        let frac = grid.rect_of(cell).overlap_area(r) / tile_area;
                        if frac > 0.0 {
                            plane.push((gy * nx + gx, frac));
                        }
                    }
                }
            }
        }
        d
    });

    // --- Ordered merge (chunk order == net/node order: deterministic). ---
    let mut pins = vec![0.0f64; n_cells];
    let mut macro_frac = vec![0.0f64; n_cells];
    let mut util = vec![0.0f64; n_cells];
    let mut diff_h = vec![0.0f64; dnx * (ny as usize + 1)];
    let mut diff_v = vec![0.0f64; dnx * (ny as usize + 1)];
    for part in net_parts.iter().chain(&node_parts) {
        for &(i, w) in &part.pins {
            pins[i as usize] += w;
        }
        for &(i, w) in &part.rudy_h {
            diff_h[i as usize] += w;
        }
        for &(i, w) in &part.rudy_v {
            diff_v[i as usize] += w;
        }
        for &(i, w) in &part.macro_frac {
            macro_frac[i as usize] += w;
        }
        for &(i, w) in &part.util {
            util[i as usize] += w;
        }
    }
    for f in &mut macro_frac {
        *f = f.min(1.0);
    }

    // Resolve the difference grids with a serial 2-D prefix sum.
    let prefix = |diff: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0f64; n_cells];
        let mut row_above = vec![0.0f64; nx as usize];
        for y in 0..ny as usize {
            let mut acc = 0.0f64;
            for x in 0..nx as usize {
                acc += diff[y * dnx + x];
                let v = acc + row_above[x];
                out[y * nx as usize + x] = v;
                row_above[x] = v;
            }
        }
        out
    };
    GcellFeatures {
        nx,
        ny,
        pins,
        rudy_h: prefix(&diff_h),
        rudy_v: prefix(&diff_v),
        macro_frac,
        util,
    }
}

/// Calls `f` with `(edge, gcell index a, gcell index b, direction)` for
/// every planar edge of `grid`, in a fixed (layer-major) order.
pub fn for_each_planar_edge(grid: &RouteGrid, mut f: impl FnMut(EdgeId, usize, usize, LayerDir)) {
    let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
    for l in 0..grid.num_layers() {
        match grid.layer_dir(l) {
            LayerDir::Horizontal => {
                for y in 0..ny {
                    for x in 0..nx.saturating_sub(1) {
                        let e = grid.h_edge_on(l, x as u32, y as u32);
                        f(e, y * nx + x, y * nx + x + 1, LayerDir::Horizontal);
                    }
                }
            }
            LayerDir::Vertical => {
                for y in 0..ny.saturating_sub(1) {
                    for x in 0..nx {
                        let e = grid.v_edge_on(l, x as u32, y as u32);
                        f(e, y * nx + x, (y + 1) * nx + x, LayerDir::Vertical);
                    }
                }
            }
        }
    }
}

/// Predicts per-edge routed track demand into `grid`: clears the usage
/// and deposits `max(0, w · x)` on every planar edge (via edges stay at
/// zero — the learned tier is a planar congestion picture, like the
/// probabilistic estimator). Bitwise identical at every thread count.
pub fn predict_into(
    grid: &mut RouteGrid,
    design: &Design,
    placement: &Placement,
    weights: &EstimatorWeights,
    par: &Parallelism,
) {
    let features = extract_features(grid, design, placement, par);
    grid.clear_usage();
    // Collect the planar edge list once, then evaluate the pure per-edge
    // model in fixed-size chunks.
    let mut edges: Vec<(EdgeId, u32, u32, LayerDir)> = Vec::with_capacity(grid.num_planar_edges());
    for_each_planar_edge(grid, |e, a, b, dir| edges.push((e, a as u32, b as u32, dir)));
    let spans: Vec<_> = chunk_spans(edges.len(), PREDICT_CHUNK).collect();
    let parts = {
        let g: &RouteGrid = grid;
        chunked_map(par, spans.len(), |ci| {
            edges[spans[ci].clone()]
                .iter()
                .map(|&(e, a, b, dir)| {
                    let x = features.edge_sample(a as usize, b as usize, dir, g.capacity(e));
                    let w = weights.for_dir(dir);
                    let mut acc = 0.0f64;
                    for k in 0..NUM_FEATURES {
                        acc += w[k] * x[k];
                    }
                    acc.max(0.0)
                })
                .collect::<Vec<f64>>()
        })
    };
    let mut it = edges.iter();
    for chunk in &parts {
        for &pred in chunk {
            let &(e, ..) = it.next().expect("prediction chunks cover every edge");
            grid.add_usage(e, pred);
        }
    }
}

/// [`predict_into`] on a freshly built (projected) grid for
/// `design`/`placement`.
pub fn predict_congestion_par(
    design: &Design,
    placement: &Placement,
    weights: &EstimatorWeights,
    par: &Parallelism,
) -> RouteGrid {
    let mut grid = RouteGrid::from_design(design, placement);
    predict_into(&mut grid, design, placement, weights, par);
    grid
}

/// Spearman rank correlation of two equal-length series, with tie-
/// averaged ranks. Returns 0.0 when either series has zero rank variance
/// (fewer than two distinct values) — "no information", not an error.
pub fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rank_correlation needs equal lengths");
    if a.len() < 2 {
        return 0.0;
    }
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]).then(i.cmp(&j)));
        let mut r = vec![0.0f64; v.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &order[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in ra.iter().zip(&rb) {
        let (dx, dy) = (x - mean, y - mean);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Accumulated normal equations of one ridge regression (one direction).
#[derive(Debug, Clone)]
struct Normal {
    xtx: [[f64; NUM_FEATURES]; NUM_FEATURES],
    xty: [f64; NUM_FEATURES],
    n: usize,
}

impl Normal {
    fn new() -> Self {
        Normal { xtx: [[0.0; NUM_FEATURES]; NUM_FEATURES], xty: [0.0; NUM_FEATURES], n: 0 }
    }

    fn add(&mut self, x: &[f64; NUM_FEATURES], y: f64) {
        for i in 0..NUM_FEATURES {
            for j in 0..NUM_FEATURES {
                self.xtx[i][j] += x[i] * x[j];
            }
            self.xty[i] += x[i] * y;
        }
        self.n += 1;
    }

    /// Solves `(XᵀX + λI) w = Xᵀy` by Gaussian elimination with partial
    /// pivoting (deterministic; 7×7). Returns zeros when the system is
    /// singular even under regularization (e.g. zero samples with λ=0).
    fn solve(&self, lambda: f64) -> [f64; NUM_FEATURES] {
        let mut a = self.xtx;
        let mut b = self.xty;
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += lambda;
        }
        for col in 0..NUM_FEATURES {
            let pivot = (col..NUM_FEATURES)
                .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
                .expect("non-empty range");
            if a[pivot][col].abs() < 1e-300 {
                return [0.0; NUM_FEATURES];
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            let pivot_row = a[col];
            for row in col + 1..NUM_FEATURES {
                let f = a[row][col] / pivot_row[col];
                for (dst, src) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                    *dst -= f * src;
                }
                b[row] -= f * b[col];
            }
        }
        let mut w = [0.0; NUM_FEATURES];
        for i in (0..NUM_FEATURES).rev() {
            let mut acc = b[i];
            for k in i + 1..NUM_FEATURES {
                acc -= a[i][k] * w[k];
            }
            w[i] = acc / a[i][i];
        }
        w
    }
}

/// One design's contribution to training: its feature planes plus the
/// routed truth, flattened to per-edge samples.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Per-edge samples of horizontal edges.
    pub h: Vec<([f64; NUM_FEATURES], f64)>,
    /// Per-edge samples of vertical edges.
    pub v: Vec<([f64; NUM_FEATURES], f64)>,
    /// True per-edge overflow (both directions, sample order) — kept for
    /// the overflow-rank gate.
    pub overflow: Vec<f64>,
}

/// Extracts `(features, routed usage)` samples from a *routed* grid (the
/// labels) against `design`/`placement` (the features). Edges carved to
/// zero capacity are skipped — they carry no routable signal.
pub fn collect_samples(
    routed: &RouteGrid,
    design: &Design,
    placement: &Placement,
    par: &Parallelism,
) -> SampleSet {
    let features = extract_features(routed, design, placement, par);
    let mut set = SampleSet::default();
    for_each_planar_edge(routed, |e, a, b, dir| {
        let cap = routed.capacity(e);
        if cap <= 0.0 {
            return;
        }
        let x = features.edge_sample(a, b, dir, cap);
        let y = routed.usage(e);
        match dir {
            LayerDir::Horizontal => set.h.push((x, y)),
            LayerDir::Vertical => set.v.push((x, y)),
        }
        set.overflow.push(routed.overflow(e));
    });
    set
}

/// Training configuration of [`train_estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Ridge regularization strength.
    pub lambda: f64,
    /// How many of the trailing sample sets are held out of the fit and
    /// used for the accuracy gate.
    pub holdout: usize,
    /// Margin subtracted from the held-out rank correlations when
    /// recording the gates into the weight file (the gate must survive
    /// being re-measured on a *different* design).
    pub gate_margin: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { lambda: 1e-3, holdout: 2, gate_margin: 0.15 }
    }
}

/// Outcome of one training run: the weights plus the held-out accuracy
/// they were gated on.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The fitted (and gate-stamped) weights.
    pub weights: EstimatorWeights,
    /// Training samples consumed (both directions).
    pub train_samples: usize,
    /// Held-out samples evaluated.
    pub holdout_samples: usize,
    /// Held-out Spearman rank correlation of predicted vs. routed usage.
    pub holdout_usage_corr: f64,
    /// Held-out rank correlation of predicted vs. true router overflow.
    pub holdout_overflow_corr: f64,
}

/// Fits the per-direction ridge regressions on `sets` (the last
/// `config.holdout` sets held out), evaluates the held-out rank
/// correlations, and stamps them (minus `gate_margin`) into the returned
/// weights. Fully deterministic: same sample sets → byte-identical
/// [`EstimatorWeights::to_text`].
///
/// # Panics
///
/// Panics if every set would be held out (nothing to train on).
pub fn train_estimator(sets: &[SampleSet], config: &TrainConfig) -> TrainOutcome {
    let holdout = config.holdout.min(sets.len().saturating_sub(1));
    let (train, held) = sets.split_at(sets.len() - holdout);
    assert!(!train.is_empty(), "train_estimator needs at least one training set");

    let (mut nh, mut nv) = (Normal::new(), Normal::new());
    for set in train {
        for (x, y) in &set.h {
            nh.add(x, *y);
        }
        for (x, y) in &set.v {
            nv.add(x, *y);
        }
    }
    let mut weights = EstimatorWeights {
        lambda: config.lambda,
        gate_usage: 0.0,
        gate_overflow: 0.0,
        h: nh.solve(config.lambda),
        v: nv.solve(config.lambda),
    };

    // Held-out evaluation (falls back to the training sets when no
    // holdout was requested, so the gate is never vacuously zero).
    let eval: &[SampleSet] = if held.is_empty() { train } else { held };
    let (mut pred, mut truth, mut pred_over, mut truth_over) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for set in eval {
        for (dir_samples, w) in [(&set.h, &weights.h), (&set.v, &weights.v)] {
            for (x, y) in dir_samples {
                let mut acc = 0.0f64;
                for k in 0..NUM_FEATURES {
                    acc += w[k] * x[k];
                }
                let p = acc.max(0.0);
                pred.push(p);
                truth.push(*y);
                // Overflow = demand beyond the carved capacity (feature
                // slot NUM_FEATURES-1 is the capacity).
                pred_over.push((p - x[NUM_FEATURES - 1]).max(0.0));
                truth_over.push((*y - x[NUM_FEATURES - 1]).max(0.0));
            }
        }
    }
    let usage_corr = rank_correlation(&pred, &truth);
    let overflow_corr = rank_correlation(&pred_over, &truth_over);
    weights.gate_usage = (usage_corr - config.gate_margin).max(0.0);
    weights.gate_overflow = (overflow_corr - config.gate_margin).max(0.0);
    TrainOutcome {
        weights,
        train_samples: nh.n + nv.n,
        holdout_samples: pred.len(),
        holdout_usage_corr: usage_corr,
        holdout_overflow_corr: overflow_corr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_text_round_trip_is_lossless() {
        let w = EstimatorWeights {
            lambda: 1e-3,
            gate_usage: 0.612_345,
            gate_overflow: 0.401,
            h: [0.1, -2.5e-3, 3.0, 0.25, 1.5, -0.75, 0.011],
            v: [7.0, 0.0, -1.0, 2.0, 0.5, 0.125, -0.0625],
        };
        let restored = EstimatorWeights::parse(&w.to_text()).unwrap();
        assert_eq!(restored, w);
        assert_eq!(restored.to_text(), w.to_text());
    }

    #[test]
    fn weight_parse_rejects_garbage() {
        assert!(EstimatorWeights::parse("nonsense").is_err());
        let text = EstimatorWeights::builtin().to_text();
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(EstimatorWeights::parse(&truncated).is_err());
        assert!(EstimatorWeights::parse(&text.replace("lambda", "lambada")).is_err());
    }

    #[test]
    fn builtin_weights_parse_and_are_finite() {
        let w = EstimatorWeights::builtin();
        assert!(w.h.iter().chain(&w.v).all(|x| x.is_finite()));
        assert!(w.gate_usage > 0.0, "shipped weights must carry a usage gate");
    }

    #[test]
    fn rank_correlation_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((rank_correlation(&a, &a) - 1.0).abs() < 1e-12);
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert!((rank_correlation(&a, &rev) + 1.0).abs() < 1e-12);
        let flat = [5.0; 4];
        assert_eq!(rank_correlation(&a, &flat), 0.0, "zero variance → no information");
        assert_eq!(rank_correlation(&[], &[]), 0.0);
        // Ties get averaged ranks: still monotone → still 1.0.
        let ties = [1.0, 1.0, 2.0, 3.0];
        let other = [0.5, 0.5, 0.9, 1.4];
        assert!((rank_correlation(&ties, &other) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ridge_recovers_a_linear_model() {
        // Synthetic samples from known weights; the solver must get them
        // back to near machine precision at tiny lambda.
        let true_w = [0.5, 1.25, -0.75, 2.0, 0.0, 3.0, 0.01];
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(9);
        let mut set = SampleSet::default();
        for _ in 0..400 {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = 1.0;
            for slot in x.iter_mut().skip(1) {
                *slot = rng.gen_range(0.0..10.0);
            }
            let y: f64 = x.iter().zip(&true_w).map(|(a, b)| a * b).sum();
            set.h.push((x, y));
            set.v.push((x, y));
            set.overflow.push(0.0);
        }
        let out = train_estimator(
            &[set],
            &TrainConfig { lambda: 1e-9, holdout: 0, gate_margin: 0.0 },
        );
        for (got, want) in out.weights.h.iter().zip(&true_w) {
            assert!((got - want).abs() < 1e-6, "h weights {:?}", out.weights.h);
        }
        assert!(out.holdout_usage_corr > 0.999);
    }

    #[test]
    fn training_is_deterministic() {
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(4);
        let mut sets = Vec::new();
        for _ in 0..3 {
            let mut set = SampleSet::default();
            for _ in 0..50 {
                let mut x = [1.0; NUM_FEATURES];
                for slot in x.iter_mut().skip(1) {
                    *slot = rng.gen_range(0.0..4.0);
                }
                set.h.push((x, x[1] * 2.0 + x[6]));
                set.v.push((x, x[2] * 3.0));
                set.overflow.push(0.0);
            }
            sets.push(set);
        }
        let a = train_estimator(&sets, &TrainConfig::default());
        let b = train_estimator(&sets, &TrainConfig::default());
        assert_eq!(a.weights.to_text(), b.weights.to_text());
    }
}
