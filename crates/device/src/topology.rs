//! Qubit coupling topologies.

use std::collections::VecDeque;

/// An undirected coupling graph over physical qubits.
///
/// # Examples
///
/// ```
/// use paqoc_device::Topology;
/// let grid = Topology::grid(5, 5); // the paper's evaluation platform
/// assert_eq!(grid.num_qubits(), 25);
/// assert!(grid.are_coupled(0, 1));
/// assert!(!grid.are_coupled(0, 6)); // diagonal
/// assert_eq!(grid.distance(0, 24), 8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    /// All-pairs BFS hop distances, row-major (`usize::MAX` when
    /// disconnected): a function of `edges`, computed once so the latency
    /// model's per-pair queries cost a lookup.
    hops: Vec<usize>,
}

impl Topology {
    /// Builds a topology from an explicit edge list.
    ///
    /// Edges are normalized to `(min, max)` and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or endpoints `≥ num_qubits`.
    pub fn new(num_qubits: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut normalized: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| {
                assert!(a != b, "self-loop on qubit {a}");
                assert!(
                    a < num_qubits && b < num_qubits,
                    "edge ({a},{b}) out of range"
                );
                (a.min(b), a.max(b))
            })
            .collect();
        normalized.sort_unstable();
        normalized.dedup();
        let mut adjacency = vec![Vec::new(); num_qubits];
        for &(a, b) in &normalized {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let hops = (0..num_qubits)
            .flat_map(|q| bfs_distances(&adjacency, q))
            .collect();
        Topology {
            num_qubits,
            edges: normalized,
            adjacency,
            hops,
        }
    }

    /// A 1-D chain `0 − 1 − … − (n−1)`.
    pub fn line(n: usize) -> Self {
        Topology::new(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    /// A ring: the line plus the wrap-around edge.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Topology::new(n, edges)
    }

    /// An `rows × cols` nearest-neighbour grid (the paper's 5×5 platform
    /// is `grid(5, 5)`), row-major qubit numbering.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Topology::new(rows * cols, edges)
    }

    /// An IBM-style heavy-hex lattice with `rows` hexagon rows and
    /// `cols` hexagon columns (unit cells of degree ≤ 3).
    ///
    /// Construction: alternating rows of "row qubits" (a full chain of
    /// `4·cols + 1` qubits) and "bridge qubits" (one per hexagon edge,
    /// connecting consecutive row chains), matching the connectivity of
    /// IBM's Falcon/Hummingbird devices.
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "heavy-hex needs at least one cell");
        let row_len = 4 * cols + 1;
        let bridges_per_row = cols + 1;
        let mut edges = Vec::new();
        let mut next_id = 0usize;
        let mut prev_row: Option<Vec<usize>> = None;
        for r in 0..=rows {
            // The row chain.
            let chain: Vec<usize> = (0..row_len).map(|k| next_id + k).collect();
            next_id += row_len;
            for w in chain.windows(2) {
                edges.push((w[0], w[1]));
            }
            if let Some(prev) = prev_row {
                // Bridge qubits between the two chains; bridges of even
                // rows attach at positions 0, 4, 8, …, odd rows offset
                // by 2 (the heavy-hex stagger).
                let offset = if r % 2 == 1 { 0 } else { 2 };
                for b in 0..bridges_per_row {
                    let pos = (offset + 4 * b).min(row_len - 1);
                    let bridge = next_id;
                    next_id += 1;
                    edges.push((prev[pos], bridge));
                    edges.push((bridge, chain[pos]));
                }
            }
            prev_row = Some(chain);
        }
        Topology::new(next_id, edges)
    }

    /// The complete graph (all-to-all coupling).
    pub fn full(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Topology::new(n, edges)
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The normalized, deduplicated edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of qubit `q`.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// `true` when `a` and `b` share a coupler.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].contains(&b)
    }

    /// BFS hop distance between two qubits (`usize::MAX` if disconnected).
    pub fn distance(&self, from: usize, to: usize) -> usize {
        assert!(to < self.num_qubits, "qubit {to} out of range");
        self.hops[from * self.num_qubits + to]
    }

    /// BFS hop distances from one qubit to every qubit.
    pub fn distances_from(&self, from: usize) -> Vec<usize> {
        self.hops[from * self.num_qubits..][..self.num_qubits].to_vec()
    }

    /// The full all-pairs distance matrix (row `i` = distances from `i`).
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        (0..self.num_qubits)
            .map(|q| self.distances_from(q))
            .collect()
    }

    /// The coupling edges internal to a subset of qubits.
    pub fn induced_edges(&self, qubits: &[usize]) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .copied()
            .filter(|&(a, b)| qubits.contains(&a) && qubits.contains(&b))
            .collect()
    }

    /// `true` when the subset of qubits induces a connected subgraph.
    pub fn is_connected_subset(&self, qubits: &[usize]) -> bool {
        if qubits.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.num_qubits];
        let mut stack = vec![qubits[0]];
        seen[qubits[0]] = true;
        let mut count = 1;
        while let Some(q) = stack.pop() {
            for &n in &self.adjacency[q] {
                if !seen[n] && qubits.contains(&n) {
                    seen[n] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == qubits.len()
    }
}

/// BFS hop distances from `from` to every qubit of `adjacency`.
fn bfs_distances(adjacency: &[Vec<usize>], from: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adjacency.len()];
    dist[from] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(q) = queue.pop_front() {
        for &n in &adjacency[q] {
            if dist[n] == usize::MAX {
                dist[n] = dist[q] + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let t = Topology::line(4);
        assert_eq!(t.edges(), &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.neighbors(1), &[0, 2]);
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::ring(5);
        assert!(t.are_coupled(4, 0));
        assert_eq!(t.distance(0, 3), 2); // around the back
    }

    #[test]
    fn grid_degrees() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.neighbors(4).len(), 4); // center
        assert_eq!(t.neighbors(0).len(), 2); // corner
        assert_eq!(t.neighbors(1).len(), 3); // edge
        assert_eq!(t.edges().len(), 12);
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let t = Topology::grid(4, 4);
        for r1 in 0..4usize {
            for c1 in 0..4usize {
                for r2 in 0..4usize {
                    for c2 in 0..4usize {
                        let d = t.distance(r1 * 4 + c1, r2 * 4 + c2);
                        let manhattan = r1.abs_diff(r2) + c1.abs_diff(c2);
                        assert_eq!(d, manhattan);
                    }
                }
            }
        }
    }

    #[test]
    fn heavy_hex_has_low_degree_and_is_connected() {
        let t = Topology::heavy_hex(2, 2);
        // Heavy-hex never exceeds degree 3.
        for q in 0..t.num_qubits() {
            assert!(t.neighbors(q).len() <= 3, "qubit {q} has degree > 3");
        }
        // Single connected component.
        let d = t.distances_from(0);
        assert!(d.iter().all(|&x| x != usize::MAX));
        // 3 row chains of 9 + 2×3 bridges = 33 qubits for a 2×2 lattice.
        assert_eq!(t.num_qubits(), 33);
    }

    #[test]
    fn heavy_hex_routes_circuits() {
        use paqoc_circuit::Circuit;
        let t = Topology::heavy_hex(1, 1);
        let mut c = Circuit::new(4);
        c.cx(0, 3).cx(1, 2);
        // Smoke: SABRE lives in another crate; here just verify the
        // distance metric behaves (no panic, finite distances).
        assert!(t.distance(0, t.num_qubits() - 1) < t.num_qubits());
        assert_eq!(c.num_qubits(), 4);
    }

    #[test]
    fn full_graph_distance_is_one() {
        let t = Topology::full(6);
        assert_eq!(t.edges().len(), 15);
        assert_eq!(t.distance(2, 5), 1);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let t = Topology::new(3, [(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.edges().len(), 2);
    }

    #[test]
    fn induced_edges_and_connectivity() {
        let t = Topology::grid(2, 3);
        // subset {0,1,2}: top row, connected with 2 internal edges
        assert_eq!(t.induced_edges(&[0, 1, 2]).len(), 2);
        assert!(t.is_connected_subset(&[0, 1, 2]));
        // subset {0,5}: opposite corners, disconnected internally
        assert!(!t.is_connected_subset(&[0, 5]));
        assert!(t.induced_edges(&[0, 5]).is_empty());
    }

    #[test]
    fn disconnected_distance_is_max() {
        let t = Topology::new(4, [(0, 1)]);
        assert_eq!(t.distance(0, 3), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        Topology::new(2, [(1, 1)]);
    }
}
