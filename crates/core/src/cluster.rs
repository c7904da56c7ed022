//! Hierarchy-aware multilevel clustering with the **best-choice**
//! algorithm the paper's framework uses: a lazy-updating priority queue
//! always merges the globally best pair, letting clusters grow beyond
//! pairs within one level ([`cluster_best_choice`]).
//!
//! Clusters never cross fence regions and never absorb macros, so the
//! coarse problem keeps the region structure intact. [`build_levels`]
//! (used by the placer) drives the coarsening level by level.

use crate::model::{Model, ModelNet, ModelPin, FIXED_PIN};
use rdp_geom::Point;
use std::collections::{BinaryHeap, HashMap};

/// One coarsening level: the coarse model plus the fine→coarse map.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// The coarsened model.
    pub coarse: Model,
    /// `parent[i]` is the coarse object containing fine object `i`.
    pub parent: Vec<u32>,
}

/// Connectivity score between two objects: summed `w/(d−1)` over shared
/// nets (clique net model), later divided by the combined area.
fn build_affinities(model: &Model, max_degree: usize) -> HashMap<(u32, u32), f64> {
    let mut aff: HashMap<(u32, u32), f64> = HashMap::new();
    for ni in 0..model.num_nets() {
        let span = model.net_pins(ni);
        let d = span.len();
        if d < 2 || d > max_degree {
            continue;
        }
        let w = model.net_weight[ni] / (d as f64 - 1.0);
        for i in span.clone() {
            let a = model.pin_obj[i];
            if a == FIXED_PIN {
                continue;
            }
            for j in (i + 1)..span.end {
                let b = model.pin_obj[j];
                if b == FIXED_PIN || a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                *aff.entry(key).or_insert(0.0) += w;
            }
        }
    }
    aff
}

/// Builds the coarse model given the fine model and a parent map.
fn coarsen(model: &Model, parent: &[u32], coarse_n: usize) -> Model {
    let mut area = vec![0.0f64; coarse_n];
    let mut cx = vec![0.0f64; coarse_n];
    let mut cy = vec![0.0f64; coarse_n];
    let mut is_macro = vec![false; coarse_n];
    let mut region = vec![None; coarse_n];
    let mut macro_size = vec![None; coarse_n];
    for (i, &par) in parent.iter().enumerate().take(model.len()) {
        let p = par as usize;
        area[p] += model.area[i];
        cx[p] += model.pos_x[i] * model.area[i];
        cy[p] += model.pos_y[i] * model.area[i];
        is_macro[p] |= model.is_macro[i];
        region[p] = model.region[i];
        if model.is_macro[i] {
            macro_size[p] = Some(model.size[i]);
        }
    }
    let pos: Vec<Point> = (0..coarse_n)
        .map(|p| Point::new(cx[p] / area[p].max(1e-12), cy[p] / area[p].max(1e-12)))
        .collect();
    let size: Vec<(f64, f64)> = (0..coarse_n)
        .map(|p| macro_size[p].unwrap_or_else(|| (area[p].sqrt(), area[p].sqrt())))
        .collect();

    // Rebuild nets: collapse pins into clusters, dedup, drop internal nets.
    let mut nets = Vec::with_capacity(model.num_nets());
    let mut seen: Vec<u32> = Vec::new();
    for ni in 0..model.num_nets() {
        seen.clear();
        let span = model.net_pins(ni);
        let mut pins: Vec<ModelPin> = Vec::with_capacity(span.len());
        for k in span {
            let obj = model.pin_obj[k];
            let off = Point::new(model.pin_off_x[k], model.pin_off_y[k]);
            if obj == FIXED_PIN {
                pins.push(ModelPin::fixed(off));
            } else {
                let c = parent[obj as usize];
                if !seen.contains(&c) {
                    seen.push(c);
                    // Macro singletons keep their pin offsets (rotation
                    // optimization needs them); clusters collapse to
                    // their center.
                    let off = if is_macro[c as usize] { off } else { Point::ORIGIN };
                    pins.push(ModelPin::movable(c as usize, off));
                }
            }
        }
        if pins.len() >= 2 {
            nets.push(ModelNet { weight: model.net_weight[ni], pins });
        }
    }

    Model::from_parts(pos, size, area, is_macro, region, &nets, model.die, vec![])
}

/// A max-heap entry for best-choice clustering (lazy invalidation).
#[derive(Debug, PartialEq)]
struct PairEntry {
    score: f64,
    a: u32,
    b: u32,
}

impl Eq for PairEntry {}

impl Ord for PairEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.a.cmp(&self.a))
            .then_with(|| other.b.cmp(&self.b))
    }
}

impl PartialOrd for PairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Clusters `model` one level with the best-choice algorithm: repeatedly
/// merges the globally highest-score pair until the object count reaches
/// `target_count` (or no mergeable pair remains).
///
/// Scores are `affinity / combined area`; merged clusters inherit the
/// union of their adjacencies, and the queue is maintained lazily (stale
/// entries are validated on pop). Returns `None` when fewer than 10% of
/// objects could be merged.
pub fn cluster_best_choice(
    model: &Model,
    max_cluster_area: f64,
    target_count: usize,
) -> Option<Clustering> {
    let n = model.len();
    if n < 8 {
        return None;
    }
    let aff = build_affinities(model, 6);

    // Union-find-free bookkeeping: clusters are slots; merging allocates a
    // fresh slot (ids only grow), so stale heap entries are detectable by
    // the `alive` flags alone.
    let mut alive: Vec<bool> = vec![true; n];
    let mut area: Vec<f64> = model.area.clone();
    let mut is_macro = model.is_macro.clone();
    let mut region = model.region.clone();
    let mut members: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
    let mut adj: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n];
    for (&(a, b), &w) in &aff {
        adj[a as usize].insert(b, w);
        adj[b as usize].insert(a, w);
    }

    let mergeable = |u: usize, v: usize, is_macro: &[bool], region: &[Option<rdp_db::RegionId>], area: &[f64]| {
        !is_macro[u] && !is_macro[v] && region[u] == region[v] && area[u] + area[v] <= max_cluster_area
    };
    let score_of = |w: f64, u: usize, v: usize, area: &[f64]| w / (area[u] + area[v]).max(1e-12);

    let mut heap = BinaryHeap::new();
    for (&(a, b), &w) in &aff {
        if mergeable(a as usize, b as usize, &is_macro, &region, &area) {
            heap.push(PairEntry { score: score_of(w, a as usize, b as usize, &area), a, b });
        }
    }

    let mut live_count = n;
    while live_count > target_count {
        let Some(PairEntry { score, a, b }) = heap.pop() else { break };
        let (ua, ub) = (a as usize, b as usize);
        if !alive[ua] || !alive[ub] {
            continue; // stale
        }
        // Validate score (affinity and areas may have changed via other
        // merges touching a or b — impossible here since merges kill their
        // endpoints, but the affinity of (a,b) may have grown through a
        // merged common neighbor; recompute and re-push when stale).
        let current_w = adj[ua].get(&b).copied().unwrap_or(0.0);
        if current_w <= 0.0 || !mergeable(ua, ub, &is_macro, &region, &area) {
            continue;
        }
        let fresh = score_of(current_w, ua, ub, &area);
        if (fresh - score).abs() > 1e-12 {
            heap.push(PairEntry { score: fresh, a, b });
            continue;
        }

        // Merge a and b into a new slot w.
        let wslot = alive.len();
        alive[ua] = false;
        alive[ub] = false;
        alive.push(true);
        live_count -= 1;
        area.push(area[ua] + area[ub]);
        is_macro.push(false);
        region.push(region[ua]);
        let mut mem = std::mem::take(&mut members[ua]);
        mem.extend(std::mem::take(&mut members[ub]));
        members.push(mem);

        // Merged adjacency: union of both, dropping the internal edge.
        let adj_a = std::mem::take(&mut adj[ua]);
        let adj_b = std::mem::take(&mut adj[ub]);
        let mut merged: HashMap<u32, f64> = HashMap::with_capacity(adj_a.len() + adj_b.len());
        for (nbr, w) in adj_a.into_iter().chain(adj_b) {
            if nbr != a && nbr != b {
                *merged.entry(nbr).or_insert(0.0) += w;
            }
        }
        for (&nbr, &w) in &merged {
            let nn = nbr as usize;
            adj[nn].remove(&a);
            adj[nn].remove(&b);
            adj[nn].insert(wslot as u32, w);
            if alive[nn] && mergeable(wslot, nn, &is_macro, &region, &area) {
                heap.push(PairEntry {
                    score: score_of(w, wslot, nn, &area),
                    a: wslot as u32,
                    b: nbr,
                });
            }
        }
        adj.push(merged);
    }

    // Compact alive slots into dense coarse ids.
    let mut coarse_of_slot = vec![u32::MAX; alive.len()];
    let mut coarse_n = 0u32;
    for (slot, &ok) in alive.iter().enumerate() {
        if ok {
            coarse_of_slot[slot] = coarse_n;
            coarse_n += 1;
        }
    }
    if coarse_n as f64 > 0.9 * n as f64 {
        return None;
    }
    let mut parent = vec![u32::MAX; n];
    for (slot, &ok) in alive.iter().enumerate() {
        if !ok {
            continue;
        }
        for &fine in &members[slot] {
            parent[fine as usize] = coarse_of_slot[slot];
        }
    }
    debug_assert!(parent.iter().all(|&p| p != u32::MAX));
    Some(Clustering {
        coarse: coarsen(model, &parent, coarse_n as usize),
        parent,
    })
}

/// Builds the full multilevel hierarchy with best-choice coarsening:
/// repeatedly cluster until the model has at most `limit` objects or
/// clustering stops helping. Returns the levels coarse-to-fine-adjacent
/// (`levels[0]` clusters the input model).
pub fn build_levels(model: &Model, limit: usize) -> Vec<Clustering> {
    let mut levels: Vec<Clustering> = Vec::new();
    let avg_area = model.total_area() / model.len().max(1) as f64;
    loop {
        let current = levels.last().map_or(model, |c| &c.coarse);
        if current.len() <= limit || levels.len() > 20 {
            return levels;
        }
        // Allow clusters to grow with depth.
        let cap = avg_area * 4.0 * f64::powi(2.0, levels.len() as i32);
        let target = (current.len() / 3).max(limit);
        match cluster_best_choice(current, cap, target) {
            Some(c) => levels.push(c),
            None => return levels,
        }
    }
}

/// Projects coarse positions down one level: each fine object lands at its
/// cluster's position plus a small deterministic jitter to break ties.
pub fn project_down(fine: &mut Model, clustering: &Clustering) {
    for i in 0..fine.len() {
        let p = clustering.parent[i] as usize;
        let jitter = Point::new(
            ((i % 13) as f64 - 6.0) * 0.05,
            ((i % 7) as f64 - 3.0) * 0.05,
        );
        fine.set_pos(i, clustering.coarse.pos(p) + jitter);
    }
    fine.clamp_to_die();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::RegionId;
    use rdp_geom::Rect;

    /// A model of `n` cells in `k` tightly-connected groups.
    fn grouped_model(n: usize, k: usize) -> Model {
        let mut nets = Vec::new();
        for g in 0..k {
            let members: Vec<usize> = (0..n).filter(|i| i % k == g).collect();
            for w in members.windows(2) {
                nets.push(ModelNet {
                    weight: 1.0,
                    pins: vec![
                        ModelPin::movable(w[0], Point::ORIGIN),
                        ModelPin::movable(w[1], Point::ORIGIN),
                    ],
                });
            }
        }
        Model::from_parts(
            vec![Point::new(50.0, 50.0); n],
            vec![(2.0, 10.0); n],
            vec![20.0; n],
            vec![false; n],
            vec![None; n],
            &nets,
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        )
    }

    #[test]
    fn best_choice_reaches_target_count() {
        let m = grouped_model(64, 4);
        let c = cluster_best_choice(&m, 1e9, 10).expect("should cluster");
        assert!(c.coarse.len() <= 16, "got {}", c.coarse.len());
        // Area conservation under multi-way merging.
        let fine_area: f64 = m.area.iter().sum();
        let coarse_area: f64 = c.coarse.area.iter().sum();
        assert!((fine_area - coarse_area).abs() < 1e-9);
        // Parent map is total and in range.
        assert!(c.parent.iter().all(|&p| (p as usize) < c.coarse.len()));
    }

    #[test]
    fn best_choice_respects_area_cap() {
        let m = grouped_model(32, 1);
        // Cap at 3 cells' area: no cluster may exceed 60.
        let c = cluster_best_choice(&m, 60.0, 4).expect("should cluster");
        for p in 0..c.coarse.len() {
            assert!(c.coarse.area[p] <= 60.0 + 1e-9, "cluster {p} area {}", c.coarse.area[p]);
        }
    }

    #[test]
    fn best_choice_prefers_connected_groups() {
        // Two groups with zero cross-affinity: clusters never span groups.
        let m = grouped_model(32, 2);
        let c = cluster_best_choice(&m, 1e9, 4).expect("should cluster");
        for i in 0..m.len() {
            for j in 0..m.len() {
                if c.parent[i] == c.parent[j] {
                    assert_eq!(i % 2, j % 2, "cluster spans disconnected groups: {i},{j}");
                }
            }
        }
    }

    #[test]
    fn internal_nets_are_dropped() {
        let m = grouped_model(16, 1);
        let c = cluster_best_choice(&m, 1e9, 4).unwrap();
        assert!(c.coarse.num_nets() < m.num_nets());
        for ni in 0..c.coarse.num_nets() {
            assert!(c.coarse.net_degree(ni) >= 2);
        }
    }

    #[test]
    fn macros_stay_singletons() {
        let mut m = grouped_model(16, 2);
        m.is_macro[3] = true;
        let clustering = cluster_best_choice(&m, 1e9, 4).unwrap();
        let p3 = clustering.parent[3] as usize;
        assert!(clustering.coarse.is_macro[p3]);
        for i in 0..m.len() {
            if i != 3 {
                assert_ne!(clustering.parent[i] as usize, p3, "object {i} merged into macro");
            }
        }
        assert_eq!(clustering.coarse.size[p3], m.size[3]);
    }

    #[test]
    fn clusters_never_cross_regions() {
        let mut m = grouped_model(32, 2);
        for i in 0..16 {
            m.region[i] = Some(RegionId(0));
        }
        let c = cluster_best_choice(&m, 1e9, 6).unwrap();
        for i in 0..m.len() {
            for j in 0..m.len() {
                if c.parent[i] == c.parent[j] {
                    assert_eq!(m.region[i], m.region[j], "cluster crosses region: {i},{j}");
                }
            }
        }
        for i in 0..m.len() {
            assert_eq!(c.coarse.region[c.parent[i] as usize], m.region[i]);
        }
    }

    #[test]
    fn area_cap_prevents_giant_clusters() {
        let m = grouped_model(32, 1);
        // Cap below 2 cells: no merge possible => None (no reduction).
        assert!(cluster_best_choice(&m, 30.0, 4).is_none());
    }

    #[test]
    fn build_levels_reaches_limit() {
        let m = grouped_model(128, 4);
        let levels = build_levels(&m, 20);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().coarse;
        assert!(
            coarsest.len() <= 40,
            "coarsest level still has {} objects",
            coarsest.len()
        );
        // Chain consistency: each level's parent covers the previous model.
        let mut n = m.len();
        for l in &levels {
            assert_eq!(l.parent.len(), n);
            n = l.coarse.len();
        }
    }

    #[test]
    fn project_down_places_members_near_cluster() {
        let mut m = grouped_model(32, 4);
        let c = cluster_best_choice(&m, 1e9, 8).unwrap();
        let mut coarse = c.coarse.clone();
        for p in 0..coarse.len() {
            coarse.set_pos(p, Point::new(25.0, 75.0));
        }
        let moved = Clustering { coarse, parent: c.parent.clone() };
        project_down(&mut m, &moved);
        for i in 0..m.len() {
            let p = m.pos(i);
            assert!((p.x - 25.0).abs() < 1.0 && (p.y - 75.0).abs() < 1.0);
        }
    }
}
