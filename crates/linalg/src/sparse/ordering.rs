//! AMD-style fill-reducing ordering: minimum degree with a dense-node
//! cutoff on the symmetrized pattern.
// lint:allow-file(slice-index): graph-elimination kernel — node ids index
// adjacency arrays sized to the graph at entry; iterator forms would
// obscure the clique-merge walks.

use super::csc::CscMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nodes whose degree exceeds `DENSE_NODE_BASE + DENSE_NODE_SCALE·√n` are
/// ordered last without clique formation (see [`min_degree`]).
const DENSE_NODE_BASE: usize = 16;
const DENSE_NODE_SCALE: f64 = 10.0;

fn dense_cutoff(n: usize) -> usize {
    DENSE_NODE_BASE + (DENSE_NODE_SCALE * (n as f64).sqrt()) as usize
}

/// Adjacency lists of the symmetrized pattern of `a` (pattern of `A + Aᵀ`
/// with the diagonal removed) — the elimination graph both factorizations
/// order on.
pub fn symmetric_adjacency(a: &CscMatrix) -> Vec<Vec<usize>> {
    let n = a.nrows().max(a.ncols());
    // Size every list up front: this runs on every basis refactorization.
    let mut len = vec![0usize; n];
    for j in 0..a.ncols() {
        for &r in a.col(j).0 {
            if r != j {
                len[r] += 1;
                len[j] += 1;
            }
        }
    }
    let mut adj: Vec<Vec<usize>> = len.into_iter().map(Vec::with_capacity).collect();
    for j in 0..a.ncols() {
        let (rows, _) = a.col(j);
        for &r in rows {
            if r != j {
                adj[r].push(j);
                adj[j].push(r);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Minimum-degree elimination order over symmetric adjacency lists.
///
/// Returns `order` with `order[k]` = the node eliminated `k`-th. Any
/// permutation is *correct* for the factorizations (this is purely a fill
/// heuristic), so the implementation favors simplicity: exact degrees via
/// eager clique merging and a dense-node cutoff on both ends of the
/// elimination.
///
/// * Nodes whose *initial* degree exceeds the cutoff leave the graph before
///   elimination and are appended last in index order (the standard AMD
///   treatment). Merging a hub's neighborhood into every clique is the
///   quadratic blow-up mode of minimum degree — an OA master's epigraph
///   column touches every cut row.
/// * The minimum is popped from a lazy heap keyed on `(degree, index)`, so
///   ties break toward the lowest index exactly as a linear scan would.
///   Every degree change pushes a fresh key; a popped key is stale (and
///   skipped) unless the node is still alive at that degree.
/// * Once the minimum degree itself goes dense, the remaining nodes are
///   emitted in index order without forming further cliques.
pub fn min_degree(mut adj: Vec<Vec<usize>>) -> Vec<usize> {
    let n = adj.len();
    let dense_cut = dense_cutoff(n);
    let dense: Vec<bool> = adj.iter().map(|a| a.len() > dense_cut).collect();
    let mut alive: Vec<bool> = dense.iter().map(|&d| !d).collect();
    if dense.contains(&true) {
        for (list, &live) in adj.iter_mut().zip(&alive) {
            if live {
                list.retain(|&u| alive[u]);
            } else {
                list.clear();
            }
        }
    }
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = (0..n)
        .filter(|&p| alive[p])
        .map(|p| Reverse((adj[p].len(), p)))
        .collect();
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut order = Vec::with_capacity(n);
    // Each merge builds into `spare` and hands back the list it replaced,
    // so merges reuse old lists' storage instead of allocating afresh.
    let mut spare: Vec<usize> = Vec::new();

    while let Some(Reverse((deg, p))) = heap.pop() {
        // Exact degree = current adjacency length: lists only ever hold
        // alive nodes (see the merge step below).
        if !alive[p] || adj[p].len() != deg {
            continue;
        }
        if deg > dense_cut {
            // Everything left is dense-ish; stop forming cliques and
            // emit the remainder in index order.
            for (p, a) in alive.iter_mut().enumerate() {
                if *a {
                    *a = false;
                    order.push(p);
                }
            }
            break;
        }
        alive[p] = false;
        order.push(p);
        let nbrs = std::mem::take(&mut adj[p]);
        // Clique merge: each alive neighbor absorbs the eliminated node's
        // neighborhood, keeping lists alive-only and duplicate-free.
        for &v in &nbrs {
            if !alive[v] {
                continue;
            }
            stamp += 1;
            mark[v] = stamp;
            mark[p] = stamp;
            let mut merged = std::mem::take(&mut spare);
            merged.clear();
            for &u in adj[v].iter().chain(nbrs.iter()) {
                if alive[u] && mark[u] != stamp {
                    mark[u] = stamp;
                    merged.push(u);
                }
            }
            heap.push(Reverse((merged.len(), v)));
            spare = std::mem::replace(&mut adj[v], merged);
        }
    }
    order.extend((0..n).filter(|&p| dense[p]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn order_of(dense: &Matrix) -> Vec<usize> {
        min_degree(symmetric_adjacency(&CscMatrix::from_dense(dense)))
    }

    #[test]
    fn order_is_a_permutation() {
        let a = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0, 0.0],
            &[0.0, 1.0, 1.0, 1.0],
            &[0.0, 0.0, 1.0, 1.0],
        ]);
        let mut order = order_of(&a);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn arrow_matrix_eliminates_hub_last() {
        // Arrow pattern: node 0 touches everything. Minimum degree must
        // pick the degree-1 spokes first — eliminating the hub first would
        // create a full clique.
        let n = 6;
        let mut a = Matrix::identity(n);
        for i in 1..n {
            a[(0, i)] = 1.0;
            a[(i, 0)] = 1.0;
        }
        let order = order_of(&a);
        let hub_pos = order.iter().position(|&p| p == 0).unwrap();
        // The hub can only reach the front of the queue once enough spokes
        // are gone that its degree ties theirs.
        assert!(hub_pos >= n - 2, "hub eliminated too early: {order:?}");
    }

    #[test]
    fn empty_graph_orders_all_nodes() {
        let order = min_degree(vec![Vec::new(); 5]);
        assert_eq!(order.len(), 5);
    }

    /// Star graph: hub 0 joined to every spoke.
    fn star(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![vec![0]; n];
        adj[0] = (1..n).collect();
        adj
    }

    #[test]
    fn dense_hub_is_removed_up_front_and_ordered_last() {
        // n = 400 puts the cutoff at 16 + 10·20 = 216 < 399. Eliminating
        // spokes one by one would drain the hub's degree to a tie with the
        // last spoke, which it wins on index; removed up front, the hub
        // lands last.
        let n = 400;
        assert!(n - 1 > dense_cutoff(n));
        let order = min_degree(star(n));
        assert_eq!(order.len(), n);
        assert_eq!(
            order.last(),
            Some(&0),
            "hub not last: {:?}",
            &order[n - 3..]
        );
        assert_eq!(&order[..n - 1], &(1..n).collect::<Vec<_>>()[..]);
    }

    /// Reference ordering: the same elimination with a linear min scan
    /// (lowest index wins ties) instead of the heap.
    fn linear_scan_min_degree(adjacency: &[Vec<usize>]) -> Vec<usize> {
        let n = adjacency.len();
        let dense_cut = dense_cutoff(n);
        let dense: Vec<bool> = adjacency.iter().map(|a| a.len() > dense_cut).collect();
        let mut alive: Vec<bool> = dense.iter().map(|&d| !d).collect();
        let mut adj: Vec<Vec<usize>> = (0..n)
            .map(|p| {
                if alive[p] {
                    adjacency[p].iter().copied().filter(|&u| alive[u]).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(p) = (0..n)
            .filter(|&p| alive[p])
            .min_by_key(|&p| (adj[p].len(), p))
        {
            if adj[p].len() > dense_cut {
                order.extend((0..n).filter(|&q| alive[q]));
                break;
            }
            alive[p] = false;
            order.push(p);
            let nbrs = std::mem::take(&mut adj[p]);
            for &v in nbrs.iter().filter(|&&v| alive[v]) {
                let mut merged: Vec<usize> = adj[v]
                    .iter()
                    .chain(nbrs.iter())
                    .copied()
                    .filter(|&u| alive[u] && u != v)
                    .collect();
                // Keep first-occurrence order, as the kernel's stamp walk does.
                let mut seen = std::collections::HashSet::new();
                merged.retain(|u| seen.insert(*u));
                adj[v] = merged;
            }
        }
        order.extend((0..n).filter(|&p| dense[p]));
        order
    }

    fn random_symmetric(rng: &mut hslb_rng::Rng, n: usize, edges: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for _ in 0..edges {
            let a = rng.usize_range(0, n - 1);
            let b = rng.usize_range(0, n - 1);
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    #[test]
    fn heap_selection_matches_linear_scan_reference() {
        let mut rng = hslb_rng::Rng::new(0x6d69_6e64_6567);
        for case in 0..60 {
            let n = rng.usize_range(2, 300);
            let edges = rng.usize_range(0, 3 * n);
            let adj = random_symmetric(&mut rng, n, edges);
            assert!(
                adj.iter().all(|a| a.len() <= dense_cutoff(n)),
                "case {case}"
            );
            assert_eq!(
                min_degree(adj.clone()),
                linear_scan_min_degree(&adj),
                "case {case}: n={n}, edges={edges}"
            );
        }
        // Planted hubs: the same random graphs plus a few nodes joined to
        // most of the others, which both orderings must set aside.
        for case in 0..20 {
            let n = rng.usize_range(260, 400);
            let mut adj = random_symmetric(&mut rng, n, 2 * n);
            for _ in 0..rng.usize_range(1, 4) {
                let hub = rng.usize_range(0, n - 1);
                for v in (0..n).filter(|&v| v != hub && rng.bool(0.9)) {
                    adj[hub].push(v);
                    adj[v].push(hub);
                }
            }
            for list in &mut adj {
                list.sort_unstable();
                list.dedup();
            }
            let order = min_degree(adj.clone());
            assert_eq!(
                order,
                linear_scan_min_degree(&adj),
                "hub case {case}: n={n}"
            );
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }
}
