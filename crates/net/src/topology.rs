//! Node sets with pairwise distances (delay uncertainties).
//!
//! Named shapes compute each distance by formula and geometric topologies
//! from their points; only explicit matrices and edge lists store `n²`
//! entries. A [`Topology`] is immutable shared data: cloning one costs two
//! reference counts, not a copy of its distances and adjacency lists, so
//! a run that hands the topology to its engine, its delay policy and its
//! dynamic view holds it once.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network of `n` nodes with symmetric distances `d_ij`.
///
/// Distances model message-delay *uncertainty* (Section 3 of the paper): a
/// message between `i` and `j` may take any time in `[0, d_ij]`. The paper
/// normalizes `min_{i≠j} d_ij = 1`; [`Topology::normalized`] enforces this.
///
/// A topology also carries a *neighbor relation*: the pairs of nodes that
/// algorithms exchange messages between. By default every pair at distance
/// ≤ `neighbor_radius` (default 1) are neighbors; in a complete topology all
/// pairs are neighbors.
///
/// # Examples
///
/// ```
/// use gcs_net::Topology;
///
/// let t = Topology::line(5);
/// assert_eq!(t.len(), 5);
/// assert_eq!(t.distance(0, 4), 4.0);
/// assert_eq!(t.diameter(), 4.0);
/// assert_eq!(t.neighbors(2), vec![1, 3]);
/// ```
///
/// Distances and adjacency lists sit behind [`Arc`]s: a clone is two
/// reference counts whatever the size, and every holder of a clone (the
/// engine, a bound delay policy, each shard's fork of it, a dynamic view)
/// reads the same memory. [`Topology::normalized`] copies before it
/// writes, so it never changes another clone's distances.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n: usize,
    repr: Arc<Repr>,
    /// Adjacency lists for the neighbor relation.
    neighbors: Arc<Vec<Vec<usize>>>,
}

/// Distance storage. Named shapes evaluate the expression their
/// constructor documents, geometric topologies store the generating
/// points, and only [`Topology::from_matrix`] and [`Topology::from_edges`]
/// keep the full matrix, which is what makes 100k-node networks affordable
/// (a matrix at that size would be 80 GB). Stored representations cache
/// `min_{i≠j} d_ij` and `max_ij d_ij` (O(n²) scans otherwise).
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Row-major `n × n` distance matrix; diagonal is 0.
    Dense {
        dist: Vec<f64>,
        min_dist: f64,
        diameter: f64,
    },
    /// Points in the plane; `d_ij = max(1, scale × |p_i - p_j|)`.
    Geometric {
        points: Vec<(f64, f64)>,
        scale: f64,
        min_dist: f64,
        diameter: f64,
    },
    Line,
    Ring,
    Grid {
        w: usize,
    },
    Star,
    Complete {
        d: f64,
    },
}

/// The normalized geometric distance: exactly the expression the dense
/// construction historically stored, so the two representations are
/// bit-identical wherever both exist.
#[inline]
fn geo_dist(a: (f64, f64), b: (f64, f64), scale: f64) -> f64 {
    (((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt() * scale).max(1.0)
}

/// Raw Euclidean distance between two points (unscaled, unclamped).
#[inline]
fn euclid(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Minimum pairwise Euclidean distance via a uniform grid.
///
/// Bit-identical to the brute-force `O(n²)` fold: any pair at distance
/// `≤ c` (the cell size) lands in adjacent cells, so once the best
/// adjacent-cell pair is `≤ c` it is the true global minimum — every
/// closer pair would also be adjacent and was examined; the minimum of a
/// NaN-free f64 set does not depend on scan order. If the pass finds no
/// pair within `c`, the cell size doubles and the scan repeats, so the
/// loop terminates once `c` covers the bounding box.
fn min_pairwise_euclid(points: &[(f64, f64)]) -> f64 {
    use std::collections::HashMap;
    let n = points.len();
    debug_assert!(n >= 2);
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in points {
        lo_x = lo_x.min(x);
        hi_x = hi_x.max(x);
        lo_y = lo_y.min(y);
        hi_y = hi_y.max(y);
    }
    let span = (hi_x - lo_x).max(hi_y - lo_y).max(f64::MIN_POSITIVE);
    // Expected nearest-neighbor spacing for uniform points; the retry
    // doubling handles sparse or clustered draws.
    let mut c = (span * (2.0 / n as f64).sqrt()).max(span * 1e-9);
    loop {
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (idx, &(x, y)) in points.iter().enumerate() {
            let key = (
                ((x - lo_x) / c).floor() as i64,
                ((y - lo_y) / c).floor() as i64,
            );
            cells.entry(key).or_default().push(idx as u32);
        }
        let mut best = f64::INFINITY;
        for (&(cx, cy), members) in &cells {
            for &i in members {
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        let Some(other) = cells.get(&(cx + dx, cy + dy)) else {
                            continue;
                        };
                        for &j in other {
                            if j > i {
                                best = best.min(euclid(points[i as usize], points[j as usize]));
                            }
                        }
                    }
                }
            }
        }
        if best <= c {
            return best;
        }
        if c > 2.0 * span {
            // The grid has collapsed to a handful of cells: every pair was
            // adjacent, so `best` is the exact minimum.
            return best;
        }
        c *= 2.0;
    }
}

/// The largest pairwise Euclidean distance, via a (tolerance-padded)
/// convex hull: the farthest pair's endpoints are always hull vertices,
/// and the pad only *keeps extra* near-collinear points, so the maximum
/// over hull pairs is the exact maximum over all pairs.
fn max_pairwise_euclid(points: &[(f64, f64)]) -> f64 {
    debug_assert!(points.len() >= 2);
    let mut sorted: Vec<(f64, f64)> = points.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
    sorted.dedup();
    if sorted.len() == 1 {
        return 0.0;
    }
    let max_abs = sorted
        .iter()
        .map(|&(x, y)| x.abs().max(y.abs()))
        .fold(0.0, f64::max);
    // Far larger than any f64 rounding error in the cross product, far
    // smaller than any geometrically meaningful area: only points that
    // are *certainly* interior get dropped.
    let tol = (max_abs * max_abs).max(1.0) * 1e-9;
    let cross = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| {
        (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
    };
    let mut hull: Vec<(f64, f64)> = Vec::new();
    for pass in 0..2 {
        let start = hull.len();
        let iter: Box<dyn Iterator<Item = &(f64, f64)>> = if pass == 0 {
            Box::new(sorted.iter())
        } else {
            Box::new(sorted.iter().rev())
        };
        for &p in iter {
            while hull.len() >= start + 2
                && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) < -tol
            {
                hull.pop();
            }
            hull.push(p);
        }
        hull.pop();
    }
    let mut best = 0.0f64;
    for i in 0..hull.len() {
        for j in (i + 1)..hull.len() {
            best = best.max(euclid(hull[i], hull[j]));
        }
    }
    best
}

/// Neighbor lists for a geometric topology, via the same uniform grid.
///
/// The grid only *pre-filters* candidates (with a padded radius so float
/// rounding can never exclude a true neighbor); membership is decided by
/// the exact dense-path predicate `d_ij ≤ radius + 1e-12` on the exact
/// normalized distance, and lists come out ascending — precisely what
/// `from_matrix` produces from the full matrix.
fn geometric_neighbors(points: &[(f64, f64)], scale: f64, radius: f64) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    let n = points.len();
    let r = radius + 1e-12;
    // Normalized distances are clamped to ≥ 1, so a radius below 1 admits
    // no neighbors at all.
    if r < 1.0 || !r.is_finite() {
        return vec![Vec::new(); n];
    }
    // Raw-coordinate candidate bound, padded by a relative margin orders
    // of magnitude beyond the rounding of `e·scale` and `r/scale`.
    let c = (r / scale) * (1.0 + 1e-9) + f64::MIN_POSITIVE;
    let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    for (idx, &(x, y)) in points.iter().enumerate() {
        cells
            .entry(((x / c).floor() as i64, ((y / c).floor()) as i64))
            .or_default()
            .push(idx as u32);
    }
    let mut neighbors = vec![Vec::new(); n];
    for (&(cx, cy), members) in &cells {
        for &i in members {
            let i = i as usize;
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    let Some(other) = cells.get(&(cx + dx, cy + dy)) else {
                        continue;
                    };
                    for &j in other {
                        let j = j as usize;
                        if i != j && geo_dist(points[i], points[j], scale) <= r {
                            neighbors[i].push(j);
                        }
                    }
                }
            }
        }
    }
    for list in &mut neighbors {
        list.sort_unstable();
    }
    neighbors
}

impl Topology {
    /// A line (path) of `n` nodes with `d_ij = |i - j|`, the topology used by
    /// the paper's main theorem. Adjacent nodes are neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "topology must have at least one node");
        Self::shape(n, Repr::Line, |i| {
            (i.saturating_sub(1)..(i + 2).min(n))
                .filter(|&j| j != i)
                .collect()
        })
    }

    /// A ring of `n` nodes with `d_ij = min(|i-j|, n - |i-j|)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        Self::shape(n, Repr::Ring, |i| {
            let mut pair = vec![(i + n - 1) % n, (i + 1) % n];
            pair.sort_unstable();
            pair
        })
    }

    /// A `w × h` grid with L1 (Manhattan) distances. Nodes are numbered
    /// row-major; orthogonally adjacent nodes are neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0 || h == 0`.
    #[must_use]
    pub fn grid(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "grid dimensions must be positive");
        Self::shape(w * h, Repr::Grid { w }, |i| {
            let (x, y) = (i % w, i / w);
            [
                (y > 0).then(|| i - w),
                (x > 0).then(|| i - 1),
                (x + 1 < w).then_some(i + 1),
                (y + 1 < h).then_some(i + w),
            ]
            .into_iter()
            .flatten()
            .collect()
        })
    }

    /// A complete network of `n` nodes where every pair is at distance `d`
    /// (the Lundelius-Welch / Lynch setting). All pairs are neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `d < 1` or `d` is not finite.
    #[must_use]
    pub fn complete(n: usize, d: f64) -> Self {
        assert!(n > 0, "topology must have at least one node");
        assert!(d >= 1.0, "distances are normalized to be at least 1");
        assert!(d.is_finite(), "complete distances must be finite");
        Self::shape(n, Repr::Complete { d }, |i| {
            (0..n).filter(|&j| j != i).collect()
        })
    }

    /// A star: node 0 is the hub at distance `1` from every leaf; leaves are
    /// at distance `2` from each other. Hub-leaf pairs are neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "a star needs at least 2 nodes");
        Self::shape(n, Repr::Star, |i| {
            if i == 0 {
                (1..n).collect()
            } else {
                vec![0]
            }
        })
    }

    /// A named shape: distances by `repr`'s formula, and `adjacent(i)`
    /// node `i`'s ascending neighbor list — by rule, exactly the pairs a
    /// scan of the formula at the shape's radius admits.
    fn shape(n: usize, repr: Repr, adjacent: impl Fn(usize) -> Vec<usize>) -> Self {
        Self {
            n,
            repr: Arc::new(repr),
            neighbors: Arc::new((0..n).map(adjacent).collect()),
        }
    }

    /// Random geometric topology: `n` points uniform in a square of side
    /// `extent`, distances are Euclidean, rescaled so the minimum pairwise
    /// distance is 1. Pairs within `neighbor_radius × min_dist` of each other
    /// (after rescaling) are neighbors.
    ///
    /// This models the sensor-network setting of the paper's introduction,
    /// where delay uncertainty is proportional to Euclidean distance
    /// (footnote 2 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `extent <= 0`.
    #[must_use]
    pub fn random_geometric(n: usize, extent: f64, neighbor_radius: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least 2 nodes");
        assert!(extent > 0.0, "extent must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random_range(0.0..extent), rng.random_range(0.0..extent)))
            .collect();
        let min_d = min_pairwise_euclid(&points);
        // Degenerate draws (coincident points) get a floor to stay valid.
        let scale = if min_d > 1e-9 { 1.0 / min_d } else { 1.0 };
        let neighbors = geometric_neighbors(&points, scale, neighbor_radius);
        // Minimum and maximum normalized distances are attained at the
        // minimum and maximum raw distances (x ↦ max(1, scale·x) is
        // monotone), so the cached values are bitwise what dense scans of
        // the full matrix would produce.
        let min_dist = (min_d * scale).max(1.0);
        let diameter = (max_pairwise_euclid(&points) * scale).max(1.0);
        Self {
            n,
            repr: Arc::new(Repr::Geometric {
                points,
                scale,
                min_dist,
                diameter,
            }),
            neighbors: Arc::new(neighbors),
        }
    }

    /// Builds a topology from a weighted edge list: distances are
    /// shortest-path sums over the edges (multi-hop delay uncertainty
    /// accumulates along routes, per footnote 2 of the paper), rescaled so
    /// the minimum pairwise distance is 1. Edge endpoints become neighbors.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if some pair is unreachable,
    /// or [`TopologyError::BadEdge`] for self-loops, out-of-range endpoints,
    /// or non-positive weights.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self, TopologyError> {
        assert!(n > 0, "topology must have at least one node");
        let mut dist = vec![f64::INFINITY; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
        }
        for &(a, b, w) in edges {
            if a >= n || b >= n || a == b || !w.is_finite() || w <= 0.0 {
                return Err(TopologyError::BadEdge { a, b, w });
            }
            let cur = dist[a * n + b];
            if w < cur {
                dist[a * n + b] = w;
                dist[b * n + a] = w;
            }
        }
        // Floyd-Warshall all-pairs shortest paths.
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..n {
                    let alt = dik + dist[k * n + j];
                    if alt < dist[i * n + j] {
                        dist[i * n + j] = alt;
                        dist[j * n + i] = alt;
                    }
                }
            }
        }
        if n > 1 {
            if let Some(idx) = dist.iter().position(|d| d.is_infinite()) {
                return Err(TopologyError::Disconnected {
                    i: idx / n,
                    j: idx % n,
                });
            }
            // Normalize the minimum pairwise distance to 1.
            let mut min = f64::INFINITY;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        min = min.min(dist[i * n + j]);
                    }
                }
            }
            if min > 0.0 && (min - 1.0).abs() > 1e-12 {
                for d in &mut dist {
                    *d /= min;
                }
            }
        }
        let topo = Self::from_matrix(dist, 0.0)?;
        // Neighbors: exactly the edge endpoints.
        let mut neighbors = vec![Vec::new(); n];
        for &(a, b, _) in edges {
            if !neighbors[a].contains(&b) {
                neighbors[a].push(b);
            }
            if !neighbors[b].contains(&a) {
                neighbors[b].push(a);
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        Ok(Self {
            neighbors: Arc::new(neighbors),
            ..topo
        })
    }

    /// A balanced `arity`-ary tree of `n` nodes with unit edges (node 0 is
    /// the root; node `k`'s parent is `(k-1)/arity`): the communication
    /// trees of the paper's data-fusion motivation. Distances are hop
    /// counts; parents and children are neighbors.
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::from_edges`] errors (never fails for
    /// `n ≥ 2, arity ≥ 1`).
    pub fn tree(n: usize, arity: usize) -> Result<Self, TopologyError> {
        assert!(n >= 2, "a tree needs at least 2 nodes");
        assert!(arity >= 1, "arity must be at least 1");
        let edges: Vec<(usize, usize, f64)> = (1..n).map(|k| (k, (k - 1) / arity, 1.0)).collect();
        Self::from_edges(n, &edges)
    }

    /// Builds a topology from an explicit distance matrix (row-major, `n×n`).
    /// Pairs at distance ≤ `neighbor_radius` become neighbors.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square, not symmetric, has a
    /// nonzero diagonal, or contains an off-diagonal entry < 1 or non-finite.
    pub fn from_matrix(dist: Vec<f64>, neighbor_radius: f64) -> Result<Self, TopologyError> {
        let n2 = dist.len();
        let n = (n2 as f64).sqrt().round() as usize;
        if n * n != n2 || n == 0 {
            return Err(TopologyError::NotSquare(n2));
        }
        let (mut min_dist, mut diameter) = (f64::INFINITY, 0.0f64);
        for i in 0..n {
            if dist[i * n + i] != 0.0 {
                return Err(TopologyError::NonzeroDiagonal(i));
            }
            for j in 0..n {
                let d = dist[i * n + j];
                if i != j && (!d.is_finite() || d < 1.0) {
                    return Err(TopologyError::BadDistance { i, j, d });
                }
                if (d - dist[j * n + i]).abs() > 1e-12 {
                    return Err(TopologyError::Asymmetric { i, j });
                }
                if i != j {
                    min_dist = min_dist.min(d);
                }
                diameter = diameter.max(d);
            }
        }
        let mut neighbors = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j && dist[i * n + j] <= neighbor_radius + 1e-12 {
                    neighbors[i].push(j);
                }
            }
        }
        Ok(Self {
            n,
            repr: Arc::new(Repr::Dense {
                dist,
                min_dist,
                diameter,
            }),
            neighbors: Arc::new(neighbors),
        })
    }

    /// The number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the topology has no nodes. (Topologies always have
    /// at least one node, so this is always `false`; provided for API
    /// completeness alongside [`Topology::len`].)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance (delay uncertainty) between `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "node index out of range");
        match &*self.repr {
            Repr::Dense { dist, .. } => dist[i * self.n + j],
            _ if i == j => 0.0,
            Repr::Geometric { points, scale, .. } => geo_dist(points[i], points[j], *scale),
            Repr::Line => (i as f64 - j as f64).abs(),
            Repr::Ring => {
                let d = (i as f64 - j as f64).abs();
                d.min(self.n as f64 - d)
            }
            Repr::Grid { w } => {
                ((i % w) as f64 - (j % w) as f64).abs() + ((i / w) as f64 - (j / w) as f64).abs()
            }
            Repr::Star if i == 0 || j == 0 => 1.0,
            Repr::Star => 2.0,
            Repr::Complete { d } => *d,
        }
    }

    /// The diameter `D = max_ij d_ij`, in O(1): by formula for named
    /// shapes, cached at construction otherwise.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        match *self.repr {
            Repr::Dense { diameter, .. } | Repr::Geometric { diameter, .. } => diameter,
            Repr::Line => self.n as f64 - 1.0,
            Repr::Ring => (self.n / 2) as f64,
            Repr::Grid { w } => (w - 1 + self.n / w - 1) as f64,
            Repr::Star => (self.n.min(3) - 1) as f64,
            Repr::Complete { d } if self.n > 1 => d,
            Repr::Complete { .. } => 0.0,
        }
    }

    /// The minimum off-diagonal distance (1 for normalized topologies,
    /// infinite for a single node), in O(1) like [`Topology::diameter`].
    #[must_use]
    pub fn min_distance(&self) -> f64 {
        match *self.repr {
            Repr::Dense { min_dist, .. } | Repr::Geometric { min_dist, .. } => min_dist,
            _ if self.n == 1 => f64::INFINITY,
            Repr::Complete { d } => d,
            _ => 1.0,
        }
    }

    /// Rescales all distances so the minimum off-diagonal distance is exactly
    /// 1, as the paper's model requires. No-op for single-node topologies
    /// (and for the shapes whose minimum is 1 by construction; geometric
    /// minima are within one ulp of 1). Rescaling copies the matrix first if
    /// another clone shares it.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        if self.n < 2 {
            return self;
        }
        let min = self.min_distance();
        if (min - 1.0).abs() > 1e-12 && min.is_finite() && min > 0.0 {
            // Division by a positive constant is monotone, so the rescaled
            // caches equal a rescan of the rescaled entries bit for bit.
            match Arc::make_mut(&mut self.repr) {
                Repr::Dense {
                    dist,
                    min_dist,
                    diameter,
                } => {
                    for d in dist.iter_mut().chain([min_dist, diameter]) {
                        *d /= min;
                    }
                }
                Repr::Complete { d } => *d /= min,
                _ => unreachable!("this shape is normalized at construction"),
            }
        }
        self
    }

    /// The neighbors of node `i` (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        self.neighbors_of(i).to_vec()
    }

    /// The neighbors of node `i` (ascending order), borrowed: what a
    /// caller that only reads should use.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors_of(&self, i: usize) -> &[usize] {
        assert!(i < self.n, "node index out of range");
        &self.neighbors[i]
    }

    /// The neighbor relation as an edge list: every pair `(i, j)` with
    /// `i < j` that are neighbors, ascending. This is the canonical
    /// candidate-edge set for churn schedules — derive it from the
    /// topology rather than re-enumerating a shape's edges by hand.
    #[must_use]
    pub fn neighbor_edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, list) in self.neighbors.iter().enumerate() {
            for &j in list {
                if i < j {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// Whether the *neighbor relation* connects every pair of nodes.
    ///
    /// Distances are always finite, but algorithms only exchange messages
    /// along neighbor edges, so a topology whose neighbor graph is
    /// disconnected (easy to produce with [`Topology::random_geometric`]
    /// and a small radius) can never synchronize across components — and
    /// silently breaks gradient-property oracles. Scenario builders check
    /// this up front.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1;
        while let Some(i) = stack.pop() {
            for &j in self.neighbors_of(i) {
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    stack.push(j);
                }
            }
        }
        reached == self.n
    }

    /// Iterates over all unordered pairs `(i, j)` with `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j)))
    }

    /// All distinct off-diagonal distances, sorted ascending.
    #[must_use]
    pub fn distance_classes(&self) -> Vec<f64> {
        let mut ds: Vec<f64> = self.pairs().map(|(i, j)| self.distance(i, j)).collect();
        ds.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        ds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        ds
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology({} nodes, diameter {})",
            self.n,
            self.diameter()
        )
    }
}

/// Error constructing a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyError {
    /// The flat matrix length was not a perfect square.
    NotSquare(usize),
    /// A diagonal entry was nonzero.
    NonzeroDiagonal(usize),
    /// An off-diagonal distance was non-finite or below 1.
    BadDistance {
        /// Row index.
        i: usize,
        /// Column index.
        j: usize,
        /// Offending value.
        d: f64,
    },
    /// The matrix was not symmetric at `(i, j)`.
    Asymmetric {
        /// Row index.
        i: usize,
        /// Column index.
        j: usize,
    },
    /// An edge list contained a self-loop, an out-of-range endpoint, or a
    /// non-positive weight.
    BadEdge {
        /// First endpoint.
        a: usize,
        /// Second endpoint.
        b: usize,
        /// Offending weight.
        w: f64,
    },
    /// The edge list does not connect the node set.
    Disconnected {
        /// A node in one component.
        i: usize,
        /// A node unreachable from `i`.
        j: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotSquare(len) => {
                write!(f, "distance matrix length {len} is not a perfect square")
            }
            TopologyError::NonzeroDiagonal(i) => {
                write!(f, "distance matrix diagonal must be zero at node {i}")
            }
            TopologyError::BadDistance { i, j, d } => {
                write!(
                    f,
                    "distance between {i} and {j} must be finite and >= 1, got {d}"
                )
            }
            TopologyError::Asymmetric { i, j } => {
                write!(f, "distance matrix is not symmetric at ({i}, {j})")
            }
            TopologyError::BadEdge { a, b, w } => {
                write!(f, "invalid edge ({a}, {b}) with weight {w}")
            }
            TopologyError::Disconnected { i, j } => {
                write!(f, "no path between nodes {i} and {j}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_matches_paper_distances() {
        let t = Topology::line(10);
        assert_eq!(t.distance(0, 9), 9.0);
        assert_eq!(t.distance(3, 5), 2.0);
        assert_eq!(t.diameter(), 9.0);
        assert_eq!(t.min_distance(), 1.0);
    }

    #[test]
    fn line_neighbors_are_adjacent() {
        let t = Topology::line(4);
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(1), vec![0, 2]);
        assert_eq!(t.neighbors(3), vec![2]);
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::ring(6);
        assert_eq!(t.distance(0, 5), 1.0);
        assert_eq!(t.distance(0, 3), 3.0);
        assert_eq!(t.diameter(), 3.0);
        assert_eq!(t.neighbors(0), vec![1, 5]);
    }

    #[test]
    fn grid_uses_manhattan_distance() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.distance(0, 8), 4.0);
        assert_eq!(t.distance(0, 1), 1.0);
        assert_eq!(t.distance(1, 3), 2.0);
        assert_eq!(t.neighbors(4), vec![1, 3, 5, 7]);
    }

    #[test]
    fn complete_all_pairs_same_distance() {
        let t = Topology::complete(4, 3.0);
        for (i, j) in t.pairs() {
            assert_eq!(t.distance(i, j), 3.0);
        }
        assert_eq!(t.neighbors(0), vec![1, 2, 3]);
    }

    #[test]
    fn star_distances() {
        let t = Topology::star(4);
        assert_eq!(t.distance(0, 3), 1.0);
        assert_eq!(t.distance(1, 2), 2.0);
        assert_eq!(t.neighbors(0), vec![1, 2, 3]);
        assert_eq!(t.neighbors(2), vec![0]);
    }

    #[test]
    fn geometric_is_normalized_and_symmetric() {
        let t = Topology::random_geometric(12, 10.0, 2.0, 5);
        assert!(t.min_distance() >= 1.0 - 1e-9);
        for (i, j) in t.pairs() {
            assert_eq!(t.distance(i, j), t.distance(j, i));
        }
    }

    #[test]
    fn geometric_is_deterministic_in_seed() {
        let a = Topology::random_geometric(8, 5.0, 2.0, 1);
        let b = Topology::random_geometric(8, 5.0, 2.0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn from_matrix_validates() {
        // 2x2 with distance below 1.
        let err = Topology::from_matrix(vec![0.0, 0.5, 0.5, 0.0], 1.0).unwrap_err();
        assert!(matches!(err, TopologyError::BadDistance { .. }));
        // Asymmetric.
        let err = Topology::from_matrix(vec![0.0, 1.0, 2.0, 0.0], 1.0).unwrap_err();
        assert!(matches!(err, TopologyError::Asymmetric { .. }));
        // Not square.
        let err = Topology::from_matrix(vec![0.0, 1.0, 1.0], 1.0).unwrap_err();
        assert!(matches!(err, TopologyError::NotSquare(3)));
        // Nonzero diagonal.
        let err = Topology::from_matrix(vec![1.0, 1.0, 1.0, 0.0], 1.0).unwrap_err();
        assert!(matches!(err, TopologyError::NonzeroDiagonal(0)));
    }

    #[test]
    fn normalized_rescales_to_unit_minimum() {
        let t = Topology::from_matrix(vec![0.0, 3.0, 3.0, 0.0], 3.0)
            .unwrap()
            .normalized();
        assert!((t.min_distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_classes_sorted_unique() {
        let t = Topology::line(5);
        assert_eq!(t.distance_classes(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pairs_enumerates_upper_triangle() {
        let t = Topology::line(4);
        let pairs: Vec<_> = t.pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(3, 0)));
    }

    #[test]
    fn from_edges_computes_shortest_paths() {
        // 0 -1- 1 -1- 2 plus a shortcut 0 -1.5- 2.
        let t = Topology::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)]).unwrap();
        assert!((t.distance(0, 2) - 1.5).abs() < 1e-12);
        assert!((t.distance(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(t.neighbors(0), vec![1, 2]);
    }

    #[test]
    fn from_edges_normalizes_minimum_to_one() {
        let t = Topology::from_edges(3, &[(0, 1, 0.5), (1, 2, 2.0)]).unwrap();
        assert!((t.min_distance() - 1.0).abs() < 1e-12);
        assert!((t.distance(1, 2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(matches!(
            Topology::from_edges(2, &[(0, 0, 1.0)]),
            Err(TopologyError::BadEdge { .. })
        ));
        assert!(matches!(
            Topology::from_edges(2, &[(0, 1, -1.0)]),
            Err(TopologyError::BadEdge { .. })
        ));
        assert!(matches!(
            Topology::from_edges(3, &[(0, 1, 1.0)]),
            Err(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn tree_topology_has_hop_distances() {
        // Binary tree of 7: root 0, children 1,2; grandchildren 3..=6.
        let t = Topology::tree(7, 2).unwrap();
        assert_eq!(t.distance(0, 1), 1.0);
        assert_eq!(t.distance(3, 4), 2.0); // siblings via parent 1
        assert_eq!(t.distance(3, 6), 4.0); // across the root
        assert_eq!(t.neighbors(1), vec![0, 3, 4]);
        assert_eq!(t.diameter(), 4.0);
    }

    #[test]
    fn neighbor_edges_enumerates_the_relation() {
        assert_eq!(
            Topology::line(4).neighbor_edges(),
            vec![(0, 1), (1, 2), (2, 3)]
        );
        assert_eq!(
            Topology::ring(4).neighbor_edges(),
            vec![(0, 1), (0, 3), (1, 2), (2, 3)]
        );
        let star = Topology::star(4).neighbor_edges();
        assert_eq!(star, vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn connectivity_follows_the_neighbor_relation() {
        assert!(Topology::line(5).is_connected());
        assert!(Topology::ring(4).is_connected());
        assert!(Topology::grid(3, 2).is_connected());
        assert!(Topology::star(4).is_connected());
        assert!(Topology::complete(3, 2.0).is_connected());
        assert!(Topology::line(1).is_connected());
        // A valid distance matrix whose neighbor radius (0) yields no
        // neighbor edges at all: disconnected as a communication graph.
        let t = Topology::from_matrix(vec![0.0, 1.0, 1.0, 0.0], 0.0).unwrap();
        assert!(!t.is_connected());
        // Geometric graphs with a tiny radius fall apart.
        let sparse = Topology::random_geometric(12, 100.0, 1.01, 7);
        assert!(!sparse.is_connected());
    }

    #[test]
    fn geometric_grid_matches_dense_reconstruction() {
        // The grid-accelerated geometric construction must agree bitwise
        // with a dense matrix built from the very same distances: same
        // neighbor lists, same cached minimum and diameter.
        for seed in [0u64, 1, 5, 7, 12, 99] {
            let n = 8 + (seed as usize % 5) * 9;
            let radius = 1.5 + (seed % 3) as f64;
            let t = Topology::random_geometric(n, 10.0, radius, seed);
            let mut dist = vec![0.0; n * n];
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                if i != j {
                    dist[i * n + j] = t.distance(i, j);
                }
            }
            let dense = Topology::from_matrix(dist, radius).unwrap();
            for i in 0..n {
                assert_eq!(t.neighbors(i), dense.neighbors(i), "seed {seed} node {i}");
            }
            assert_eq!(t.min_distance().to_bits(), dense.min_distance().to_bits());
            assert_eq!(t.diameter().to_bits(), dense.diameter().to_bits());
        }
    }

    #[test]
    fn geometric_scales_to_large_node_counts() {
        // The whole point of the geometric representation: no n² anywhere.
        let t = Topology::random_geometric(50_000, 1000.0, 6.0, 42);
        assert_eq!(t.len(), 50_000);
        assert!(t.min_distance() >= 1.0);
        assert!(t.diameter() > t.min_distance());
        assert!(t.distance(0, 1) >= 1.0);
    }

    /// `(min_{i≠j} d_ij, max_ij d_ij)` by the full scans dense topologies
    /// once ran on every call.
    fn scan(t: &Topology) -> (f64, f64) {
        let n = t.len();
        let all = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        let min = all
            .clone()
            .filter(|&(i, j)| i != j)
            .fold(f64::INFINITY, |m, (i, j)| m.min(t.distance(i, j)));
        let max = all.fold(0.0, |m: f64, (i, j)| m.max(t.distance(i, j)));
        (min, max)
    }

    fn assert_same(shape: &Topology, dense: &Topology) {
        let n = shape.len();
        let what = format!("{:?} at n = {n}", shape.repr);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (shape.distance(i, j), dense.distance(i, j));
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: d({i}, {j})");
            }
            assert_eq!(shape.neighbors_of(i), dense.neighbors_of(i), "{what}: {i}");
        }
        assert_eq!(shape.neighbor_edges(), dense.neighbor_edges(), "{what}");
        let (min, max) = scan(dense);
        for t in [shape, dense] {
            assert_eq!(t.diameter().to_bits(), max.to_bits(), "{what}");
            assert_eq!(t.min_distance().to_bits(), min.to_bits(), "{what}");
        }
        let bits = |t: &Topology| -> Vec<u64> {
            t.distance_classes().iter().map(|d| d.to_bits()).collect()
        };
        assert_eq!(bits(shape), bits(dense), "{what}");
        assert_eq!(shape.is_connected(), dense.is_connected(), "{what}");
    }

    #[test]
    fn every_shape_equals_its_matrix() {
        // Each shape beside the closure its constructor filled an n × n
        // matrix with before it had a formula, and that matrix's radius.
        type Formula = Box<dyn Fn(usize, usize) -> f64>;
        let mut shapes: Vec<(Topology, Formula, f64)> = Vec::new();
        for n in 1..=40 {
            let line = |i: usize, j: usize| (i as f64 - j as f64).abs();
            shapes.push((Topology::line(n), Box::new(line), 1.0));
            for d in [1.0, 2.5] {
                shapes.push((Topology::complete(n, d), Box::new(move |_, _| d), d));
            }
            if n >= 2 {
                let star = |i, j| if i == 0 || j == 0 { 1.0 } else { 2.0 };
                shapes.push((Topology::star(n), Box::new(star), 1.0));
            }
            if n >= 3 {
                let ring = move |i: usize, j: usize| {
                    let d = (i as f64 - j as f64).abs();
                    d.min(n as f64 - d)
                };
                shapes.push((Topology::ring(n), Box::new(ring), 1.0));
            }
        }
        for (w, h) in (1..=7).flat_map(|w| (1..=7).map(move |h| (w, h))) {
            let grid = move |i: usize, j: usize| {
                let (xi, yi) = ((i % w) as f64, (i / w) as f64);
                let (xj, yj) = ((j % w) as f64, (j / w) as f64);
                (xi - xj).abs() + (yi - yj).abs()
            };
            shapes.push((Topology::grid(w, h), Box::new(grid), 1.0));
        }
        for (shape, formula, radius) in shapes {
            assert!(!matches!(*shape.repr, Repr::Dense { .. }));
            let n = shape.len();
            let entry = |k: usize| {
                if k / n == k % n {
                    0.0
                } else {
                    formula(k / n, k % n)
                }
            };
            let dense = Topology::from_matrix((0..n * n).map(entry).collect(), radius).unwrap();
            assert_same(&shape, &dense);
            assert_same(&shape.normalized(), &dense.normalized());
        }
    }

    #[test]
    fn shapes_scale_to_a_million_nodes() {
        // As matrices these would be 8 TB each.
        let check = |t: Topology, diameter: f64, far: f64| {
            assert_eq!(t.len(), 1_000_000);
            assert_eq!(t.diameter(), diameter);
            assert_eq!(t.min_distance(), 1.0);
            assert_eq!(t.distance(0, 999_999), far);
            assert_eq!(t.distance(500_000, 500_001), 1.0);
        };
        check(Topology::line(1_000_000), 999_999.0, 999_999.0);
        check(Topology::ring(1_000_000), 500_000.0, 1.0);
        check(Topology::grid(1000, 1000), 1998.0, 1998.0);
    }

    #[test]
    fn clones_share_storage() {
        for t in [
            Topology::ring(16),
            Topology::random_geometric(40, 10.0, 2.0, 3),
        ] {
            let copy = t.clone();
            assert!(Arc::ptr_eq(&t.repr, &copy.repr));
            assert!(Arc::ptr_eq(&t.neighbors, &copy.neighbors));
            assert!(std::ptr::eq(t.neighbors_of(3), copy.neighbors_of(3)));
            assert_eq!(t, copy);
            assert_eq!(t.neighbors(3), t.neighbors_of(3));
        }
    }

    #[test]
    fn normalizing_a_clone_leaves_the_original_untouched() {
        let original = Topology::from_matrix(vec![0.0, 3.0, 3.0, 0.0], 3.0).unwrap();
        let normalized = original.clone().normalized();
        assert_eq!(normalized.distance(0, 1), 1.0);
        assert_eq!(original.distance(0, 1), 3.0);
        assert_eq!(original.min_distance(), 3.0);
        // Adjacency is not rescaled, so the two still share it.
        assert!(Arc::ptr_eq(&original.neighbors, &normalized.neighbors));
        // An already-normalized topology is returned as the same storage.
        let ring = Topology::ring(8);
        assert!(Arc::ptr_eq(&ring.repr, &ring.clone().normalized().repr));
    }

    #[test]
    fn display_mentions_size() {
        let t = Topology::line(3);
        assert!(format!("{t}").contains("3 nodes"));
    }
}
