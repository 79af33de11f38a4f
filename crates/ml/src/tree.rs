//! CART decision tree with Gini impurity (scikit-learn default setup), and
//! [`LooCart`], its leave-one-out predictions over feature subsets.
//!
//! Both grow trees from presorted columns: every column is sorted once, by
//! (value, row index), and a split stably partitions each column's order
//! instead of re-sorting the children. One kernel, [`scan_column`], scores
//! the thresholds of one column of one node for both.

use serde::{Deserialize, Serialize};

/// Hyper-parameters; defaults mirror `sklearn.tree.DecisionTreeClassifier`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    pub max_depth: Option<usize>,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: None, min_samples_split: 2, min_samples_leaf: 1 }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf { class: usize },
    Split { feat: usize, thresh: f32, left: usize, right: usize },
}

/// A fitted CART classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    params: TreeParams,
    n_features: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn class_counts(y: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &c in y {
        counts[c] += 1;
    }
    counts
}

/// Row-major `x` as one vector per feature.
fn columns(x: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let n_features = x.first().map_or(0, Vec::len);
    (0..n_features).map(|f| x.iter().map(|row| row[f]).collect()).collect()
}

/// Row indices sorted by (`col` value under `total_cmp`, row index).
fn sorted_rows(col: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..col.len()).collect();
    order.sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));
    order
}

/// A candidate split: feature `feat` at `x <= thresh`, whose children have
/// weighted Gini impurity `score`.
#[derive(Debug, Clone, Copy)]
struct Split {
    score: f64,
    feat: usize,
    thresh: f32,
}

/// The tie rule of every split search: a candidate replaces the running
/// best only if it scores lower by more than 1e-12, so among near-equal
/// candidates the first in feature-then-position order wins.
fn offer(best: &mut Option<Split>, cand: Split) {
    if best.is_none_or(|b| cand.score < b.score - 1e-12) {
        *best = Some(cand);
    }
}

/// The split kernel. `rows` are one node's rows sorted by (`col` value,
/// row index) and `counts` are its class counts. Calls `emit(score,
/// thresh)` for every valid threshold, in position order: the midpoint of
/// two distinct adjacent values with at least `min_leaf` rows on each side.
/// `left` and `right` are class-count scratch of `counts.len()`.
#[allow(clippy::too_many_arguments)]
fn scan_column(
    col: &[f32],
    rows: &[usize],
    y: &[usize],
    counts: &[usize],
    min_leaf: usize,
    left: &mut [usize],
    right: &mut [usize],
    mut emit: impl FnMut(f64, f32),
) {
    let total = rows.len();
    left.fill(0);
    right.copy_from_slice(counts);
    for (k, pair) in rows.windows(2).enumerate() {
        let c = y[pair[0]];
        left[c] += 1;
        right[c] -= 1;
        let (va, vb) = (col[pair[0]], col[pair[1]]);
        if va == vb {
            continue; // not a valid threshold position
        }
        let nl = k + 1;
        let nr = total - nl;
        if nl < min_leaf || nr < min_leaf {
            continue;
        }
        let score = (nl as f64 * gini(left, nl) + nr as f64 * gini(right, nr)) / total as f64;
        emit(score, (va + vb) * 0.5);
    }
}

/// One tree-growing run over presorted columns. `orders[j][lo..hi]` holds
/// the rows of the node being grown, sorted by (column `j` value, row
/// index). A split partitions every order stably, so each child's orders
/// are the parent's with the other side's rows removed: exactly what
/// sorting the child's rows would give, because the sort key is total.
struct Grower<'a> {
    cols: Vec<&'a [f32]>,
    y: &'a [usize],
    params: TreeParams,
    orders: Vec<Vec<usize>>,
    /// Per row: does it go left at the split being applied?
    goes_left: Vec<bool>,
    spill: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl<'a> Grower<'a> {
    fn new(
        cols: Vec<&'a [f32]>,
        y: &'a [usize],
        params: TreeParams,
        n_classes: usize,
        orders: Vec<Vec<usize>>,
    ) -> Grower<'a> {
        Grower {
            cols,
            y,
            params,
            orders,
            goes_left: vec![false; y.len()],
            spill: Vec::new(),
            left: vec![0; n_classes],
            right: vec![0; n_classes],
        }
    }

    /// Whether a node is a leaf before any split search: pure, too small
    /// to split, or at the depth limit.
    fn stops(&self, counts: &[usize], depth: usize) -> bool {
        let total: usize = counts.iter().sum();
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        pure || total < self.params.min_samples_split
            || self.params.max_depth.is_some_and(|d| depth >= d)
    }

    /// The best split of node `lo..hi` (class counts `counts`) over every
    /// column, in column order.
    fn best_split(&mut self, lo: usize, hi: usize, counts: &[usize]) -> Option<Split> {
        let mut best = None;
        for (feat, (col, order)) in self.cols.iter().zip(&self.orders).enumerate() {
            scan_column(
                col,
                &order[lo..hi],
                self.y,
                counts,
                self.params.min_samples_leaf,
                &mut self.left,
                &mut self.right,
                |score, thresh| offer(&mut best, Split { score, feat, thresh }),
            );
        }
        best
    }

    /// Applies `best` to node `lo..hi`. Returns `None` (the node is a leaf)
    /// unless the split lowers the node's Gini and sends rows both ways by
    /// `x <= thresh`. Otherwise partitions every order so that `lo..mid`
    /// holds the left child, and returns the split, `mid` and the left
    /// child's class counts.
    fn partition(
        &mut self,
        best: Option<Split>,
        lo: usize,
        hi: usize,
        counts: &[usize],
    ) -> Option<(Split, usize, Vec<usize>)> {
        let split = best?;
        if split.score >= gini(counts, hi - lo) - 1e-12 {
            return None; // no impurity decrease
        }
        let col = self.cols[split.feat];
        let mut left_counts = vec![0usize; counts.len()];
        let mut n_left = 0;
        for &r in &self.orders[split.feat][lo..hi] {
            let left = col[r] <= split.thresh;
            self.goes_left[r] = left;
            if left {
                left_counts[self.y[r]] += 1;
                n_left += 1;
            }
        }
        if n_left == 0 || n_left == hi - lo {
            return None;
        }
        for order in &mut self.orders {
            self.spill.clear();
            let mut w = lo;
            for i in lo..hi {
                let r = order[i];
                if self.goes_left[r] {
                    order[w] = r;
                    w += 1;
                } else {
                    self.spill.push(r);
                }
            }
            order[w..hi].copy_from_slice(&self.spill);
        }
        Some((split, lo + n_left, left_counts))
    }
}

impl DecisionTree {
    /// Fit on row-major features `x` (all rows same length) and labels `y`.
    pub fn fit(x: &[Vec<f32>], y: &[usize], params: TreeParams) -> DecisionTree {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "empty training set");
        let n_features = x[0].len();
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        let cols = columns(x);
        let orders = cols.iter().map(|c| sorted_rows(c)).collect();
        let mut grower =
            Grower::new(cols.iter().map(Vec::as_slice).collect(), y, params, n_classes, orders);
        let mut tree = DecisionTree { nodes: Vec::new(), params, n_features };
        let counts = class_counts(y, n_classes);
        tree.build(&mut grower, 0, x.len(), counts, 0);
        tree
    }

    /// Grows node `lo..hi` of `g` and its subtree; returns its node index.
    fn build(
        &mut self,
        g: &mut Grower,
        lo: usize,
        hi: usize,
        counts: Vec<usize>,
        depth: usize,
    ) -> usize {
        if !g.stops(&counts, depth) {
            let best = g.best_split(lo, hi, &counts);
            if let Some((split, mid, left_counts)) = g.partition(best, lo, hi, &counts) {
                let right_counts: Vec<usize> =
                    counts.iter().zip(&left_counts).map(|(c, l)| c - l).collect();
                // Reserve our slot, then recurse.
                self.nodes.push(Node::Leaf { class: 0 });
                let me = self.nodes.len() - 1;
                let left = self.build(g, lo, mid, left_counts, depth + 1);
                let right = self.build(g, mid, hi, right_counts, depth + 1);
                self.nodes[me] =
                    Node::Split { feat: split.feat, thresh: split.thresh, left, right };
                return me;
            }
        }
        self.nodes.push(Node::Leaf { class: majority(&counts) });
        self.nodes.len() - 1
    }

    pub fn predict(&self, features: &[f32]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature dimension mismatch");
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { class } => return *class,
                Node::Split { feat, thresh, left, right } => {
                    cur = if features[*feat] <= *thresh { *left } else { *right };
                }
            }
        }
    }

    pub fn depth(&self) -> usize {
        fn d(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            d(&self.nodes, 0)
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Leave-one-out CART over feature subsets: the GA's fitness oracle.
///
/// Built once from a fixed feature matrix and labels. For a column subset
/// `sel`, [`LooCart::predict_held_out`] returns for every row `h` the class
/// that `DecisionTree::fit` on all other rows, over the columns `sel` in
/// that order, predicts for `h` — the same bits, without fitting those
/// trees. Columns are sorted once; each held-out tree grows only the nodes
/// on `h`'s path; and the root split is replayed from a cache, because the
/// root candidates of one column with one row held out do not depend on
/// which other columns are selected.
pub struct LooCart {
    cols: Vec<Vec<f32>>,
    y: Vec<usize>,
    params: TreeParams,
    /// Class counts over all rows.
    counts: Vec<usize>,
    /// Per column: every row, sorted by (value, row index).
    orders: Vec<Vec<usize>>,
    /// Root candidates `(score, thresh)` of column `d` with row `h` held
    /// out: `roots[root_at[d * n + h]..root_at[d * n + h + 1]]`, in
    /// position order. Only candidates scoring strictly below every earlier
    /// one are kept; [`offer`] can never pick any other (the running best
    /// only falls).
    roots: Vec<(f64, f32)>,
    root_at: Vec<usize>,
}

impl LooCart {
    /// Prepares leave-one-out CART with `params` on row-major features `x`
    /// (all rows same length) and labels `y`.
    pub fn new(x: &[Vec<f32>], y: &[usize], params: TreeParams) -> LooCart {
        assert_eq!(x.len(), y.len());
        assert!(x.len() >= 2, "leave-one-out needs at least two rows");
        let n = x.len();
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        let cols = columns(x);
        let orders: Vec<Vec<usize>> = cols.iter().map(|c| sorted_rows(c)).collect();
        let counts = class_counts(y, n_classes);

        let (mut left, mut right) = (vec![0; n_classes], vec![0; n_classes]);
        let mut rows = Vec::with_capacity(n - 1);
        let mut roots = Vec::new();
        let mut root_at = vec![0];
        for (col, order) in cols.iter().zip(&orders) {
            for h in 0..n {
                rows.clear();
                rows.extend(order.iter().copied().filter(|&r| r != h));
                let mut held = counts.clone();
                held[y[h]] -= 1;
                let start = roots.len();
                let min_leaf = params.min_samples_leaf;
                scan_column(col, &rows, y, &held, min_leaf, &mut left, &mut right, |s, t| {
                    if roots[start..].last().is_none_or(|&(best, _)| s < best) {
                        roots.push((s, t));
                    }
                });
                root_at.push(roots.len());
            }
        }
        LooCart { cols, y: y.to_vec(), params, counts, orders, roots, root_at }
    }

    /// For every row `h`, the class predicted for `h` by CART trained on
    /// all other rows over the columns `sel`.
    pub fn predict_held_out(&self, sel: &[usize]) -> Vec<usize> {
        let n = self.y.len();
        let cols = sel.iter().map(|&d| self.cols[d].as_slice()).collect();
        let orders = vec![Vec::with_capacity(n - 1); sel.len()];
        let mut g = Grower::new(cols, &self.y, self.params, self.counts.len(), orders);
        (0..n).map(|h| self.held_out(&mut g, sel, h)).collect()
    }

    /// Grows row `h`'s path of the tree trained without `h`; returns the
    /// class of the leaf it reaches.
    fn held_out(&self, g: &mut Grower, sel: &[usize], h: usize) -> usize {
        for (order, &d) in g.orders.iter_mut().zip(sel) {
            order.clear();
            order.extend(self.orders[d].iter().copied().filter(|&r| r != h));
        }
        let mut counts = self.counts.clone();
        counts[self.y[h]] -= 1;
        let (mut lo, mut hi) = (0, self.y.len() - 1);
        let mut depth = 0;
        while !g.stops(&counts, depth) {
            let best =
                if depth == 0 { self.root_split(sel, h) } else { g.best_split(lo, hi, &counts) };
            let Some((split, mid, left_counts)) = g.partition(best, lo, hi, &counts) else {
                break;
            };
            if g.cols[split.feat][h] <= split.thresh {
                hi = mid;
                counts = left_counts;
            } else {
                lo = mid;
                counts.iter_mut().zip(&left_counts).for_each(|(c, l)| *c -= l);
            }
            depth += 1;
        }
        majority(&counts)
    }

    /// The root split without row `h`, replayed from the cache in `sel`
    /// order under the same tie rule as a scan.
    fn root_split(&self, sel: &[usize], h: usize) -> Option<Split> {
        let n = self.y.len();
        let mut best = None;
        for (feat, &d) in sel.iter().enumerate() {
            let at = d * n + h;
            for &(score, thresh) in &self.roots[self.root_at[at]..self.root_at[at + 1]] {
                offer(&mut best, Split { score, feat, thresh });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-per-node CART that the presorted fit replaced, kept as the
    /// oracle it must match bit for bit.
    mod oracle {
        use super::super::{gini, majority, DecisionTree, Node, TreeParams};

        pub fn fit(x: &[Vec<f32>], y: &[usize], params: TreeParams) -> DecisionTree {
            let n_features = x[0].len();
            let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
            let mut tree = DecisionTree { nodes: Vec::new(), params, n_features };
            let idx: Vec<usize> = (0..x.len()).collect();
            build(&mut tree, x, y, &idx, n_classes, 0);
            tree
        }

        fn build(
            t: &mut DecisionTree,
            x: &[Vec<f32>],
            y: &[usize],
            idx: &[usize],
            n_classes: usize,
            depth: usize,
        ) -> usize {
            let mut counts = vec![0usize; n_classes];
            idx.iter().for_each(|&i| counts[y[i]] += 1);
            let pure = idx.iter().all(|&i| y[i] == y[idx[0]]);
            let depth_stop = t.params.max_depth.is_some_and(|d| depth >= d);
            if !(pure || idx.len() < t.params.min_samples_split || depth_stop) {
                if let Some((feat, thresh, l, r)) = best_split(t, x, y, idx, &counts) {
                    t.nodes.push(Node::Leaf { class: 0 });
                    let me = t.nodes.len() - 1;
                    let left = build(t, x, y, &l, n_classes, depth + 1);
                    let right = build(t, x, y, &r, n_classes, depth + 1);
                    t.nodes[me] = Node::Split { feat, thresh, left, right };
                    return me;
                }
            }
            t.nodes.push(Node::Leaf { class: majority(&counts) });
            t.nodes.len() - 1
        }

        // `feat` indexes the inner (feature) dimension of `x`, whose outer
        // length is n_samples, so clippy's iterator suggestion would walk
        // the wrong axis.
        #[allow(clippy::type_complexity, clippy::needless_range_loop)]
        fn best_split(
            t: &DecisionTree,
            x: &[Vec<f32>],
            y: &[usize],
            idx: &[usize],
            parent_counts: &[usize],
        ) -> Option<(usize, f32, Vec<usize>, Vec<usize>)> {
            let total = idx.len();
            let mut best: Option<(f64, usize, f32)> = None;
            for feat in 0..t.n_features {
                let mut order: Vec<usize> = idx.to_vec();
                order.sort_by(|&a, &b| x[a][feat].total_cmp(&x[b][feat]).then(a.cmp(&b)));
                let mut left_counts = vec![0usize; parent_counts.len()];
                let mut right_counts = parent_counts.to_vec();
                for k in 0..total - 1 {
                    let i = order[k];
                    left_counts[y[i]] += 1;
                    right_counts[y[i]] -= 1;
                    let (va, vb) = (x[order[k]][feat], x[order[k + 1]][feat]);
                    if va == vb {
                        continue;
                    }
                    let nl = k + 1;
                    let nr = total - nl;
                    if nl < t.params.min_samples_leaf || nr < t.params.min_samples_leaf {
                        continue;
                    }
                    let score = (nl as f64 * gini(&left_counts, nl)
                        + nr as f64 * gini(&right_counts, nr))
                        / total as f64;
                    let thresh = (va + vb) * 0.5;
                    if best.is_none() || score < best.unwrap().0 - 1e-12 {
                        best = Some((score, feat, thresh));
                    }
                }
            }
            let (score, feat, thresh) = best?;
            if score >= gini(parent_counts, total) - 1e-12 {
                return None;
            }
            let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][feat] <= thresh);
            if l.is_empty() || r.is_empty() {
                return None;
            }
            Some((feat, thresh, l, r))
        }
    }

    fn xy() -> (Vec<Vec<f32>>, Vec<usize>) {
        // Two features; class = (f0 > 0.5) XOR-free simple AND structure.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let a = i as f32 / 20.0;
            for j in 0..20 {
                let b = j as f32 / 20.0;
                x.push(vec![a, b]);
                y.push(usize::from(a > 0.5 && b > 0.3));
            }
        }
        (x, y)
    }

    #[test]
    fn fits_axis_aligned_concept_perfectly() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        let correct = x.iter().zip(&y).filter(|(f, &l)| t.predict(f) == l).count();
        assert_eq!(correct, x.len(), "training accuracy must be 100%");
        assert!(t.depth() >= 2, "needs two splits");
    }

    #[test]
    fn generalizes_to_new_points() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.predict(&[0.9, 0.9]), 1);
        assert_eq!(t.predict(&[0.9, 0.1]), 0);
        assert_eq!(t.predict(&[0.1, 0.9]), 0);
    }

    #[test]
    fn max_depth_limits_the_tree() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams { max_depth: Some(1), ..Default::default() });
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = vec![vec![1.0, 1.0]; 10];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 0];
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[1.0, 1.0]), 0, "majority class");
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = xy();
        let a = DecisionTree::fit(&x, &y, TreeParams::default());
        let b = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn multiclass_works() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f32 / 60.0;
            x.push(vec![v]);
            y.push(if v < 0.33 {
                0
            } else if v < 0.66 {
                1
            } else {
                2
            });
        }
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.predict(&[0.1]), 0);
        assert_eq!(t.predict(&[0.5]), 1);
        assert_eq!(t.predict(&[0.9]), 2);
    }

    #[test]
    fn oracle_reproduces_the_reference_concept() {
        let (x, y) = xy();
        let t = oracle::fit(&x, &y, TreeParams::default());
        assert!(x.iter().zip(&y).all(|(f, &l)| t.predict(f) == l));
    }

    #[test]
    fn root_cache_keeps_candidates_within_the_tie_tolerance() {
        // Holding out row 7 leaves two root candidates whose scores are
        // equal as fractions (1/3) but round ~6e-17 apart, the later one lower:
        // the tie rule keeps the first, so the cache must keep both.
        let x: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32]).collect();
        let y = [0, 0, 1, 0, 0, 0, 1, 1, 0];
        let params = TreeParams { max_depth: Some(2), ..Default::default() };
        let held_out = LooCart::new(&x, &y, params).predict_held_out(&[0]);
        for h in 0..x.len() {
            let (tx, ty): (Vec<Vec<f32>>, Vec<usize>) =
                (0..x.len()).filter(|&i| i != h).map(|i| (x[i].clone(), y[i])).unzip();
            assert_eq!(held_out[h], oracle::fit(&tx, &ty, params).predict(&x[h]), "row {h}");
        }
    }

    /// `n` rows × `dims` columns, each quantized to 1, 2, 3, 7 or 1000
    /// levels (1 level = a constant column), so ties and duplicate rows are
    /// common; labels uniform over `classes`.
    fn tied_rows(n: usize, dims: usize, classes: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let levels: Vec<u32> =
            (0..dims).map(|_| [1u32, 2, 3, 7, 1000][rng.gen_range(0..5usize)]).collect();
        let x = (0..n)
            .map(|_| levels.iter().map(|&l| rng.gen_range(0..l) as f32 * 0.37 - 1.5).collect())
            .collect();
        (x, (0..n).map(|_| rng.gen_range(0..classes)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn presorted_fit_serializes_like_the_oracle(
            (n, dims, classes, seed) in (1usize..61, 1usize..6, 2usize..6, 0u64..1_000_000),
            max_depth in prop::sample::select(vec![None, Some(1), Some(2), Some(3)]),
            (min_samples_split, min_samples_leaf) in (2usize..5, 1usize..4),
        ) {
            let (x, y) = tied_rows(n, dims, classes, seed);
            let params = TreeParams { max_depth, min_samples_split, min_samples_leaf };
            let fast = serde_json::to_string(&DecisionTree::fit(&x, &y, params)).unwrap();
            let slow = serde_json::to_string(&oracle::fit(&x, &y, params)).unwrap();
            prop_assert_eq!(fast, slow);
        }
    }
}
