//! The labeled directed graph of a physical circuit (paper Fig. 5).
//!
//! Nodes are gates labeled with operator name and symbolic rotation
//! angle; edges are per-qubit direct dependences labeled with the *role*
//! the shared qubit plays on each side (`"2-1"` = second operand of the
//! source gate, first operand of the sink), which disambiguates similar
//! but non-identical subcircuits. A precomputed reachability matrix
//! answers the convexity queries pattern growth and gate merging need.

use paqoc_circuit::Circuit;

/// A dependence edge between two gates sharing a qubit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabeledEdge {
    /// Source gate (earlier in time).
    pub from: usize,
    /// Sink gate (later in time).
    pub to: usize,
    /// 1-based operand position of the shared qubit in the source gate.
    pub from_role: u8,
    /// 1-based operand position of the shared qubit in the sink gate.
    pub to_role: u8,
    /// The shared physical qubit.
    pub qubit: usize,
}

impl LabeledEdge {
    /// The paper's edge-label notation, e.g. `"2-1"`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.from_role, self.to_role)
    }
}

/// The labeled circuit graph.
#[derive(Clone, Debug)]
pub struct CircuitGraph {
    labels: Vec<String>,
    qubits: Vec<Vec<usize>>,
    edges: Vec<LabeledEdge>,
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
}

impl CircuitGraph {
    /// Builds the labeled graph of a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let labels: Vec<String> = circuit.iter().map(|i| i.label()).collect();
        let qubits: Vec<Vec<usize>> = circuit.iter().map(|i| i.qubits().to_vec()).collect();
        let mut edges = Vec::new();
        let mut last_use: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (i, inst) in circuit.iter().enumerate() {
            for (pos, &q) in inst.qubits().iter().enumerate() {
                if let Some(p) = last_use[q] {
                    let from_role = circuit.instructions()[p]
                        .qubits()
                        .iter()
                        .position(|&pq| pq == q)
                        .expect("shared qubit present in source")
                        as u8
                        + 1;
                    edges.push(LabeledEdge {
                        from: p,
                        to: i,
                        from_role,
                        to_role: pos as u8 + 1,
                        qubit: q,
                    });
                }
                last_use[q] = Some(i);
            }
        }
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for (e, edge) in edges.iter().enumerate() {
            out_edges[edge.from].push(e);
            in_edges[edge.to].push(e);
        }
        CircuitGraph {
            labels,
            qubits,
            edges,
            out_edges,
            in_edges,
        }
    }

    /// Number of gate nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Structural label of node `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.labels[i]
    }

    /// Qubits of node `i`, in operand order.
    pub fn qubits(&self, i: usize) -> &[usize] {
        &self.qubits[i]
    }

    /// All labeled edges.
    pub fn edges(&self) -> &[LabeledEdge] {
        &self.edges
    }

    /// Edge indices leaving node `i`.
    pub fn out_edges(&self, i: usize) -> impl Iterator<Item = &LabeledEdge> {
        self.out_edges[i].iter().map(|&e| &self.edges[e])
    }

    /// Edge indices entering node `i`.
    pub fn in_edges(&self, i: usize) -> impl Iterator<Item = &LabeledEdge> {
        self.in_edges[i].iter().map(|&e| &self.edges[e])
    }

    /// Nodes adjacent to `i` in either direction (with duplicates when
    /// two gates share several qubits).
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.out_edges(i)
            .map(|e| e.to)
            .chain(self.in_edges(i).map(|e| e.from))
    }
}

/// Dense DAG reachability, bitset-packed, for convexity queries.
#[derive(Clone, Debug)]
pub struct Reachability {
    n: usize,
    words: usize,
    /// `desc[i]` = bitset of nodes reachable *from* `i` (excluding `i`).
    desc: Vec<u64>,
    /// `anc[i]` = bitset of nodes that reach `i` (excluding `i`).
    anc: Vec<u64>,
}

impl Reachability {
    /// Precomputes reachability for a circuit graph (`O(N·E/64)`).
    pub fn new(graph: &CircuitGraph) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64);
        let mut desc = vec![0u64; n * words];
        let mut anc = vec![0u64; n * words];
        // Process in reverse topological (= reverse instruction) order:
        // circuit order is already topological.
        for i in (0..n).rev() {
            // Clone successor rows into i's row.
            let mut row = vec![0u64; words];
            for e in graph.out_edges(i) {
                let s = e.to;
                row[s / 64] |= 1u64 << (s % 64);
                for w in 0..words {
                    row[w] |= desc[s * words + w];
                }
            }
            desc[i * words..(i + 1) * words].copy_from_slice(&row);
        }
        for i in 0..n {
            let mut row = vec![0u64; words];
            for e in graph.in_edges(i) {
                let p = e.from;
                row[p / 64] |= 1u64 << (p % 64);
                for w in 0..words {
                    row[w] |= anc[p * words + w];
                }
            }
            anc[i * words..(i + 1) * words].copy_from_slice(&row);
        }
        Reachability {
            n,
            words,
            desc,
            anc,
        }
    }

    /// `true` when a directed path `from ⇝ to` exists (strict: `from ≠ to`).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        self.desc[from * self.words + to / 64] >> (to % 64) & 1 == 1
    }

    /// `true` when the node set is *convex*: no path between two members
    /// passes through a non-member. Convex sets are exactly the sets that
    /// can be collapsed into one gate without breaking the schedule.
    pub fn is_convex(&self, nodes: &[usize]) -> bool {
        // bad = (∪ desc) ∩ (∪ anc) \ nodes must be empty. Node order is
        // topological, so a bad node lies strictly between the smallest
        // and the largest member: only the words spanning them are read.
        let (Some(&lo), Some(&hi)) = (nodes.iter().min(), nodes.iter().max()) else {
            return true;
        };
        for w in lo / 64..=hi / 64 {
            let (mut d, mut a, mut set) = (0u64, 0u64, 0u64);
            for &v in nodes {
                d |= self.desc[v * self.words + w];
                a |= self.anc[v * self.words + w];
                if v / 64 == w {
                    set |= 1u64 << (v % 64);
                }
            }
            if d & a & !set != 0 {
                return false;
            }
        }
        true
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::Circuit;

    /// cx(0,1); rz(1); cx(0,1) — the CPHASE skeleton.
    fn cphase_skeleton() -> Circuit {
        let mut c = Circuit::new(2);
        c.cx(0, 1).rz(1, 0.7).cx(0, 1);
        c
    }

    #[test]
    fn edge_roles_match_the_paper_notation() {
        let g = CircuitGraph::from_circuit(&cphase_skeleton());
        // cx(0,1) -> rz(1): shared qubit 1 is cx operand 2, rz operand 1.
        let e: Vec<&LabeledEdge> = g.out_edges(0).collect();
        let to_rz = e.iter().find(|e| e.to == 1).expect("edge to rz");
        assert_eq!(to_rz.label(), "2-1");
        // cx(0,1) -> cx(0,1) via qubit 0: roles 1-1.
        let to_cx = e.iter().find(|e| e.to == 2).expect("edge to cx");
        assert_eq!(to_cx.label(), "1-1");
    }

    #[test]
    fn per_qubit_edges_are_kept_separately() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let g = CircuitGraph::from_circuit(&c);
        // Both qubits link gate 0 to gate 1: two labeled edges.
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn labels_capture_symbolic_angles() {
        let mut c = Circuit::new(1);
        c.apply(
            paqoc_circuit::GateKind::Rz,
            vec![0],
            vec![paqoc_circuit::Angle::sym("g", 0.5)],
        );
        let g = CircuitGraph::from_circuit(&c);
        assert_eq!(g.label(0), "rz(g)");
    }

    #[test]
    fn reachability_follows_paths() {
        let g = CircuitGraph::from_circuit(&cphase_skeleton());
        let r = Reachability::new(&g);
        assert!(r.reaches(0, 1));
        assert!(r.reaches(0, 2));
        assert!(r.reaches(1, 2));
        assert!(!r.reaches(2, 0));
        assert!(!r.reaches(1, 0));
    }

    #[test]
    fn convexity_detects_gaps() {
        let g = CircuitGraph::from_circuit(&cphase_skeleton());
        let r = Reachability::new(&g);
        assert!(r.is_convex(&[0, 1]));
        assert!(r.is_convex(&[1, 2]));
        assert!(r.is_convex(&[0, 1, 2]));
        // {cx, cx} without the rz in between is NOT convex: the path
        // cx → rz → cx passes through a non-member.
        assert!(!r.is_convex(&[0, 2]));
    }

    #[test]
    fn convexity_matches_brute_force_across_word_boundaries() {
        // Circuits past 64 and 128 gates, so member sets span several
        // bitset words; checked against the definition over `reaches`.
        use paqoc_math::Rng;
        let mut rng = Rng::seed_from_u64(0xC0FE);
        let mut convex = [0usize; 2];
        for _ in 0..40 {
            let n = rng.random_range(2..=6usize);
            let mut c = Circuit::new(n);
            for _ in 0..rng.random_range(60..200usize) {
                let a = rng.random_range(0..n);
                if rng.random::<bool>() {
                    c.h(a);
                } else {
                    c.cx(a, (a + rng.random_range(1..n)) % n);
                }
            }
            let g = CircuitGraph::from_circuit(&c);
            let r = Reachability::new(&g);
            for _ in 0..50 {
                let lo = rng.random_range(0..g.len());
                let hi = (lo + rng.random_range(1..80usize)).min(g.len());
                let nodes: Vec<usize> = (lo..hi)
                    .filter(|_| rng.random_range(0..4u32) == 0)
                    .collect();
                let bad = (0..g.len()).any(|x| {
                    !nodes.contains(&x)
                        && nodes.iter().any(|&u| r.reaches(u, x))
                        && nodes.iter().any(|&w| r.reaches(x, w))
                });
                assert_eq!(r.is_convex(&nodes), !bad, "{nodes:?}");
                convex[usize::from(bad)] += 1;
            }
        }
        assert!(convex.iter().all(|&k| k > 200), "{convex:?}");
    }

    #[test]
    fn independent_nodes_are_convex() {
        let mut c = Circuit::new(4);
        c.h(0).h(2).cx(0, 1).cx(2, 3);
        let g = CircuitGraph::from_circuit(&c);
        let r = Reachability::new(&g);
        assert!(r.is_convex(&[0, 1]));
        assert!(r.is_convex(&[2, 3]));
        assert!(r.is_convex(&[0, 3]));
    }
}
