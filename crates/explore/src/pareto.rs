//! Pareto dominance, exact hypervolume, and the nondominated archive.
//!
//! All objectives are **minimized**. Every routine here is deterministic:
//! floating-point comparisons go through [`f64::total_cmp`], every sort is
//! total, and ties are broken by configuration indices, so the archive's
//! canonical order — and therefore the serialized frontier — is
//! bit-identical across thread counts.

use crate::frontier::FrontierPoint;
use dse_space::Config;

/// Whether `a` Pareto-dominates `b` under minimization: `a` is no worse
/// on every axis and strictly better on at least one.
///
/// Two identical vectors do **not** dominate each other (no strict
/// improvement), so duplicates coexist on a front.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must share a length");
    let mut strict = false;
    for (&x, &y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Indices of the nondominated points of `points`, in input order.
///
/// Duplicate vectors are all kept (neither dominates the other).
pub fn pareto_indices(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && dominates(p, &points[i]))
        })
        .collect()
}

/// Exact hypervolume dominated by `points` with respect to `reference`,
/// under minimization: the Lebesgue measure of the union of boxes
/// `[pᵢ, reference]`.
///
/// Points with any coordinate at or beyond the reference contribute
/// nothing and are ignored. Computed by recursive slicing on the last
/// objective — exponential in the worst case but exact and fast for the
/// archive sizes used here (≤ a few hundred points, ≤ 4 objectives).
///
/// # Panics
///
/// Panics if any point's dimension differs from the reference's.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let d = reference.len();
    assert!(d >= 1, "reference must have at least one objective");
    for p in points {
        assert_eq!(p.len(), d, "point dimension must match the reference");
    }
    let clipped: Vec<&[f64]> = points
        .iter()
        .filter(|p| p.iter().zip(reference.iter()).all(|(&x, &r)| x < r))
        .map(|p| p.as_slice())
        .collect();
    hv_rec(&clipped, reference)
}

fn hv_rec(points: &[&[f64]], reference: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let d = reference.len();
    if d == 1 {
        let best = points
            .iter()
            .map(|p| p[0])
            .fold(f64::INFINITY, |a, b| if b < a { b } else { a });
        return (reference[0] - best).max(0.0);
    }
    // Slice along the last objective: between consecutive distinct values
    // the attained (d-1)-front is constant, so each slab's volume is its
    // thickness times the recursive hypervolume of the points already
    // "active" at its lower edge.
    let mut zs: Vec<f64> = points.iter().map(|p| p[d - 1]).collect();
    zs.sort_by(f64::total_cmp);
    zs.dedup();
    let mut volume = 0.0;
    for (k, &z) in zs.iter().enumerate() {
        let upper = if k + 1 < zs.len() {
            zs[k + 1]
        } else {
            reference[d - 1]
        };
        let thickness = upper - z;
        if thickness <= 0.0 {
            continue;
        }
        let slab: Vec<&[f64]> = points
            .iter()
            .filter(|p| p[d - 1] <= z)
            .map(|p| &p[..d - 1])
            .collect();
        volume += thickness * hv_rec(&slab, &reference[..d - 1]);
    }
    volume
}

/// Reference-point coordinate used for normalized hypervolume: points are
/// scaled to `[0, 1]` per axis, the reference sits at 1.1 on every axis so
/// boundary points keep a nonzero contribution.
pub const NORMALIZED_REFERENCE: f64 = 1.1;

/// Normalizes each point to `[0, 1]` per axis over the set's own bounds.
/// A degenerate axis (all values equal) maps to 0.0.
pub fn normalize(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if points.is_empty() {
        return Vec::new();
    }
    let d = points[0].len();
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for p in points {
        for (a, &v) in p.iter().enumerate() {
            if v < lo[a] {
                lo[a] = v;
            }
            if v > hi[a] {
                hi[a] = v;
            }
        }
    }
    points
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(a, &v)| {
                    let span = hi[a] - lo[a];
                    if span > 0.0 {
                        (v - lo[a]) / span
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Outcome of an [`Archive::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The point joined the archive (possibly evicting dominated members).
    Added,
    /// An existing member dominates the point; archive unchanged.
    Dominated,
    /// The exact configuration is already archived; archive unchanged.
    Duplicate,
    /// A non-finite objective value; archive unchanged.
    Rejected,
}

/// A bounded nondominated archive: the running Pareto front of every
/// ground-truth point the explorer has accepted.
///
/// Invariants, maintained by construction:
/// * no member dominates another;
/// * no two members share a configuration;
/// * at most `cap` members — overflow is resolved by evicting the member
///   with the smallest normalized hypervolume contribution (ties evict
///   the canonically last member);
/// * members are kept in canonical order (objectives lexicographically by
///   [`f64::total_cmp`], then configuration indices), so iteration order
///   is deterministic.
#[derive(Debug, Clone)]
pub struct Archive {
    dim: usize,
    cap: usize,
    entries: Vec<FrontierPoint>,
}

impl Archive {
    /// An empty archive for `dim` objectives holding at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `cap` is zero.
    pub fn new(dim: usize, cap: usize) -> Self {
        assert!(dim >= 1, "need at least one objective");
        assert!(cap >= 1, "archive capacity must be positive");
        Self {
            dim,
            cap,
            entries: Vec::new(),
        }
    }

    /// Number of archived points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The archived points in canonical order.
    pub fn entries(&self) -> &[FrontierPoint] {
        &self.entries
    }

    /// Number of archived members that dominate `objectives`.
    pub fn dominating(&self, objectives: &[f64]) -> usize {
        self.entries
            .iter()
            .filter(|e| dominates(&e.objectives, objectives))
            .count()
    }

    /// Offers a ground-truth point to the archive.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` has the wrong dimension.
    pub fn insert(&mut self, config: Config, objectives: Vec<f64>, round: usize) -> Insert {
        assert_eq!(objectives.len(), self.dim, "objective dimension mismatch");
        if objectives.iter().any(|v| !v.is_finite()) {
            return Insert::Rejected;
        }
        let indices = config.to_indices();
        if self
            .entries
            .iter()
            .any(|e| e.config.to_indices() == indices)
        {
            return Insert::Duplicate;
        }
        if self
            .entries
            .iter()
            .any(|e| dominates(&e.objectives, &objectives))
        {
            return Insert::Dominated;
        }
        self.entries
            .retain(|e| !dominates(&objectives, &e.objectives));
        self.entries.push(FrontierPoint {
            config,
            objectives,
            round,
        });
        self.canonicalize();
        self.prune();
        Insert::Added
    }

    fn canonicalize(&mut self) {
        self.entries.sort_by(|a, b| {
            for (x, y) in a.objectives.iter().zip(b.objectives.iter()) {
                match x.total_cmp(y) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                }
            }
            a.config.to_indices().cmp(&b.config.to_indices())
        });
    }

    fn prune(&mut self) {
        while self.entries.len() > self.cap {
            let contrib = self.contributions();
            // Per-axis minima are the frontier's extremes; losing one
            // shrinks the attainable range irrecoverably, so they are
            // protected (the canonically first minimum per axis).
            let mut protected = vec![false; self.entries.len()];
            for a in 0..self.dim {
                let mut best = 0usize;
                for (i, e) in self.entries.iter().enumerate().skip(1) {
                    if e.objectives[a].total_cmp(&self.entries[best].objectives[a])
                        == std::cmp::Ordering::Less
                    {
                        best = i;
                    }
                }
                protected[best] = true;
            }
            // Evict the smallest unprotected contributor; among ties the
            // canonically last one goes, so pruning is order-deterministic.
            // (If the cap is below the axis count everything is protected;
            // fall back to evicting among all.)
            let mut victim: Option<usize> = None;
            for (i, c) in contrib.iter().enumerate() {
                if protected[i] {
                    continue;
                }
                match victim {
                    Some(v) if c.total_cmp(&contrib[v]) == std::cmp::Ordering::Greater => {}
                    _ => victim = Some(i),
                }
            }
            let victim = victim.unwrap_or_else(|| {
                let mut v = 0;
                for (i, c) in contrib.iter().enumerate() {
                    if c.total_cmp(&contrib[v]) != std::cmp::Ordering::Greater {
                        v = i;
                    }
                }
                v
            });
            self.entries.remove(victim);
        }
    }

    /// Normalized hypervolume contribution of each member: total
    /// normalized hypervolume minus the hypervolume without that member.
    /// Duplicated objective vectors contribute zero each.
    pub fn contributions(&self) -> Vec<f64> {
        let points: Vec<Vec<f64>> = self.entries.iter().map(|e| e.objectives.clone()).collect();
        let normed = normalize(&points);
        let reference = vec![NORMALIZED_REFERENCE; self.dim];
        let total = hypervolume(&normed, &reference);
        (0..normed.len())
            .map(|i| {
                let rest: Vec<Vec<f64>> = normed
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| p.clone())
                    .collect();
                total - hypervolume(&rest, &reference)
            })
            .collect()
    }

    /// Normalized hypervolume of the whole archive (bounds from the
    /// archive itself, reference at [`NORMALIZED_REFERENCE`] per axis).
    ///
    /// The normalization frame moves as the archive grows, so this is a
    /// *progress signal* for one run's round-over-round trajectory, not a
    /// quantity comparable across runs.
    pub fn normalized_hypervolume(&self) -> f64 {
        let points: Vec<Vec<f64>> = self.entries.iter().map(|e| e.objectives.clone()).collect();
        let normed = normalize(&points);
        hypervolume(&normed, &vec![NORMALIZED_REFERENCE; self.dim])
    }

    /// Consumes the archive into its canonical point list.
    pub fn into_points(self) -> Vec<FrontierPoint> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }

    #[test]
    fn hypervolume_2d_hand_case() {
        // Points (1,3), (2,2), (3,1) against reference (4,4). By
        // inclusion-exclusion over the three boxes: 3+4+3-2-1-2+1 = 6.
        let pts = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        let hv = hypervolume(&pts, &[4.0, 4.0]);
        assert!((hv - 6.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hypervolume_ignores_points_beyond_reference() {
        let pts = vec![vec![1.0, 1.0], vec![5.0, 0.0]];
        let hv = hypervolume(&pts, &[2.0, 2.0]);
        assert!((hv - 1.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn archive_caps_by_contribution() {
        let mut a = Archive::new(2, 3);
        let mut cfgs = crate::test_support::distinct_configs(5);
        // A staircase front of 5 points; cap 3 must keep the extremes
        // (largest contributors) and drop interior points.
        let front = [[0.0, 4.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [4.0, 0.0]];
        for (cfg, obj) in cfgs.drain(..).zip(front.iter()) {
            a.insert(cfg, obj.to_vec(), 0);
        }
        assert_eq!(a.len(), 3);
        let objs: Vec<&[f64]> = a
            .entries()
            .iter()
            .map(|e| e.objectives.as_slice())
            .collect();
        assert!(objs.contains(&&[0.0, 4.0][..]), "lost an extreme: {objs:?}");
        assert!(objs.contains(&&[4.0, 0.0][..]), "lost an extreme: {objs:?}");
    }
}
