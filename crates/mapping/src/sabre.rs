//! SABRE qubit mapping and routing (Li, Ding, Xie — ASPLOS 2019).
//!
//! The paper's evaluation maps every logical benchmark onto the 5×5 grid
//! with "Sabre qubit routing and mapping heuristic", so this crate
//! reproduces it: the front-layer/extended-set swap heuristic with decay,
//! plus the bidirectional traversal that refines the initial layout.

use paqoc_circuit::{Circuit, DependencyDag, GateKind, Instruction};
use paqoc_device::Topology;
use paqoc_math::Rng;
use std::collections::HashSet;

/// Tunable parameters of the SABRE heuristic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SabreOptions {
    /// Weight of the extended set (lookahead) term.
    pub extended_weight: f64,
    /// Size cap of the extended set.
    pub extended_size: usize,
    /// Decay added to a qubit's factor after it participates in a swap.
    pub decay_delta: f64,
    /// Swaps after which decay factors reset.
    pub decay_reset: usize,
    /// Forward/backward refinement passes for the initial mapping.
    pub refinement_passes: usize,
    /// Seed for the (deterministic) random initial layout.
    pub seed: u64,
}

impl Default for SabreOptions {
    fn default() -> Self {
        SabreOptions {
            extended_weight: 0.5,
            extended_size: 20,
            decay_delta: 0.001,
            decay_reset: 5,
            refinement_passes: 2,
            seed: 11,
        }
    }
}

/// The result of mapping a logical circuit onto hardware.
#[derive(Clone, Debug)]
pub struct MappedCircuit {
    /// The routed physical circuit (logical qubits replaced by physical
    /// ones, SWAPs inserted so every 2-qubit gate is on a coupler).
    pub circuit: Circuit,
    /// `initial_layout[logical] = physical` at circuit start.
    pub initial_layout: Vec<usize>,
    /// `final_layout[logical] = physical` at circuit end.
    pub final_layout: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Why a circuit cannot be mapped onto a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The circuit uses more qubits than the topology offers.
    CircuitTooWide {
        /// Qubits the circuit needs.
        needed: usize,
        /// Qubits the topology has.
        available: usize,
    },
    /// A gate with three or more qubits reached the mapper; such gates
    /// must be decomposed (lowered) first.
    UnloweredGate {
        /// Display form of the offending gate.
        gate: String,
        /// Its qubit count.
        arity: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::CircuitTooWide { needed, available } => write!(
                f,
                "circuit needs {needed} qubits but the device has {available}"
            ),
            MapError::UnloweredGate { gate, arity } => {
                write!(f, "decompose {arity}-qubit gate {gate} before mapping")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Maps and routes a logical circuit onto a topology with SABRE.
///
/// Multi-qubit (>2) gates must be decomposed before mapping.
///
/// # Errors
///
/// Returns a typed [`MapError`] when the circuit needs more qubits than
/// the topology offers, or contains gates with three or more qubits.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::Circuit;
/// use paqoc_device::Topology;
/// use paqoc_mapping::{try_sabre_map, SabreOptions};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 2).cx(1, 2);
/// let mapped = try_sabre_map(&c, &Topology::line(3), &SabreOptions::default())
///     .expect("3 qubits fit a 3-qubit line");
/// // every 2-qubit gate now touches a coupler
/// for inst in mapped.circuit.iter() {
///     if inst.qubits().len() == 2 {
///         assert!(Topology::line(3).are_coupled(inst.qubits()[0], inst.qubits()[1]));
///     }
/// }
/// ```
pub fn try_sabre_map(
    circuit: &Circuit,
    topology: &Topology,
    opts: &SabreOptions,
) -> Result<MappedCircuit, MapError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(MapError::CircuitTooWide {
            needed: circuit.num_qubits(),
            available: topology.num_qubits(),
        });
    }
    for inst in circuit.iter() {
        if inst.qubits().len() > 2 {
            return Err(MapError::UnloweredGate {
                gate: inst.gate().to_string(),
                arity: inst.qubits().len(),
            });
        }
    }

    let dist = topology.distance_matrix();

    // Initial layout: random, then refined by bidirectional traversal —
    // run forward and backward passes, each time keeping the layout the
    // previous pass ended with (the SABRE trick).
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut layout = random_layout(circuit.num_qubits(), topology.num_qubits(), &mut rng);
    let reversed = reversed_circuit(circuit);
    for _ in 0..opts.refinement_passes {
        let fwd = route(circuit, topology, &dist, layout.clone(), opts);
        layout = fwd.final_layout;
        let bwd = route(&reversed, topology, &dist, layout.clone(), opts);
        layout = bwd.final_layout;
        paqoc_telemetry::counter("sabre.refinement_passes", 1);
    }

    let mapped = route(circuit, topology, &dist, layout, opts);
    paqoc_telemetry::counter("sabre.swaps_inserted", mapped.swaps_inserted as u64);
    Ok(mapped)
}

fn random_layout(logical: usize, physical: usize, rng: &mut Rng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..physical).collect();
    // Fisher–Yates.
    for i in (1..physical).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm.truncate(logical);
    perm
}

fn reversed_circuit(circuit: &Circuit) -> Circuit {
    let mut rev = Circuit::new(circuit.num_qubits());
    for inst in circuit.instructions().iter().rev() {
        rev.push(inst.clone());
    }
    rev
}

/// One SABRE routing pass at a fixed initial layout.
fn route(
    circuit: &Circuit,
    topology: &Topology,
    dist: &[Vec<usize>],
    initial_layout: Vec<usize>,
    opts: &SabreOptions,
) -> MappedCircuit {
    let dag = DependencyDag::from_circuit(circuit);
    let n = circuit.len();

    // layout[logical] = physical; phys2log[physical] = Some(logical).
    let mut layout = initial_layout.clone();
    let mut phys2log: Vec<Option<usize>> = vec![None; topology.num_qubits()];
    for (l, &p) in layout.iter().enumerate() {
        phys2log[p] = Some(l);
    }

    let mut remaining_preds: Vec<usize> = (0..n).map(|i| dag.preds(i).len()).collect();
    let mut front: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
    let mut done = vec![false; n];
    let mut out = Circuit::new(topology.num_qubits());
    let mut swaps_inserted = 0usize;
    let mut decay = vec![1.0f64; topology.num_qubits()];
    let mut swaps_since_reset = 0usize;
    // Livelock guard: the heuristic can oscillate on adversarial inputs;
    // past this budget we route the first blocked gate greedily along a
    // shortest path, which always makes progress.
    let swap_budget = 16 * (n + 1) * topology.num_qubits();
    let mut greedy_mode = false;

    let executable = |inst: &Instruction, layout: &[usize]| -> bool {
        match inst.qubits() {
            [_] => true,
            [a, b] => topology.are_coupled(layout[*a], layout[*b]),
            _ => unreachable!("gates are 1- or 2-qubit after the arity check"),
        }
    };

    while !front.is_empty() {
        // Execute every currently executable front gate.
        let mut progressed = false;
        let mut i = 0;
        while i < front.len() {
            let g = front[i];
            let inst = &circuit.instructions()[g];
            if executable(inst, &layout) {
                out.push(inst.remapped(|q| layout[q]));
                done[g] = true;
                front.swap_remove(i);
                for &s in dag.succs(g) {
                    remaining_preds[s] -= 1;
                    if remaining_preds[s] == 0 {
                        front.push(s);
                    }
                }
                progressed = true;
            } else {
                i += 1;
            }
        }
        if progressed {
            continue;
        }
        if front.is_empty() {
            break;
        }

        if swaps_inserted > swap_budget {
            greedy_mode = true;
        }
        if greedy_mode {
            // Deterministic fallback: move the first blocked gate's first
            // qubit one hop toward its partner.
            let g = front[0];
            let qs = circuit.instructions()[g].qubits();
            let (pa, pb) = (layout[qs[0]], layout[qs[1]]);
            let next = *topology
                .neighbors(pa)
                .iter()
                .min_by_key(|&&nb| dist[nb][pb])
                .expect("connected topology");
            out.push(Instruction::new(GateKind::Swap, vec![pa, next], vec![]));
            swaps_inserted += 1;
            apply_swap(&mut layout, &mut phys2log, pa, next);
            continue;
        }

        // Blocked: pick the best swap among neighbourhoods of front gates.
        let extended = extended_set(&dag, &front, circuit, opts.extended_size, &done);
        let candidate_swaps = candidate_swaps(&front, circuit, &layout, topology);
        assert!(
            !candidate_swaps.is_empty(),
            "blocked front must have swap candidates on a connected topology"
        );

        let mut best: Option<((usize, usize), f64)> = None;
        for &(p, q) in &candidate_swaps {
            let mut trial = layout.clone();
            apply_swap(&mut trial, &mut phys2log.clone(), p, q);
            let f_cost: f64 = front
                .iter()
                .map(|&g| gate_distance(&circuit.instructions()[g], &trial, dist))
                .sum::<f64>()
                / front.len() as f64;
            let e_cost = if extended.is_empty() {
                0.0
            } else {
                extended
                    .iter()
                    .map(|&g| gate_distance(&circuit.instructions()[g], &trial, dist))
                    .sum::<f64>()
                    / extended.len() as f64
            };
            let score = decay[p].max(decay[q]) * (f_cost + opts.extended_weight * e_cost);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some(((p, q), score));
            }
        }
        let ((p, q), _) = best.expect("candidates are nonempty");
        out.push(Instruction::new(GateKind::Swap, vec![p, q], vec![]));
        swaps_inserted += 1;
        apply_swap(&mut layout, &mut phys2log, p, q);
        decay[p] += opts.decay_delta;
        decay[q] += opts.decay_delta;
        swaps_since_reset += 1;
        if swaps_since_reset >= opts.decay_reset {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }
    }

    MappedCircuit {
        circuit: out,
        initial_layout,
        final_layout: layout,
        swaps_inserted,
    }
}

/// Swaps the logical occupants of physical qubits `p` and `q`.
fn apply_swap(layout: &mut [usize], phys2log: &mut [Option<usize>], p: usize, q: usize) {
    let lp = phys2log[p];
    let lq = phys2log[q];
    if let Some(l) = lp {
        layout[l] = q;
    }
    if let Some(l) = lq {
        layout[l] = p;
    }
    phys2log.swap(p, q);
}

fn gate_distance(inst: &Instruction, layout: &[usize], dist: &[Vec<usize>]) -> f64 {
    match inst.qubits() {
        [a, b] => dist[layout[*a]][layout[*b]] as f64,
        _ => 0.0,
    }
}

/// The lookahead set: descendants of the front layer, breadth-first,
/// capped at `cap` two-qubit gates.
fn extended_set(
    dag: &DependencyDag,
    front: &[usize],
    circuit: &Circuit,
    cap: usize,
    done: &[bool],
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut queue: Vec<usize> = front.to_vec();
    let mut seen: HashSet<usize> = front.iter().copied().collect();
    while let Some(g) = queue.pop() {
        for &s in dag.succs(g) {
            if seen.insert(s) && !done[s] {
                if circuit.instructions()[s].qubits().len() == 2 {
                    out.push(s);
                    if out.len() >= cap {
                        return out;
                    }
                }
                queue.push(s);
            }
        }
    }
    out
}

/// Swaps adjacent to any qubit of a blocked front gate.
fn candidate_swaps(
    front: &[usize],
    circuit: &Circuit,
    layout: &[usize],
    topology: &Topology,
) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for &g in front {
        for &lq in circuit.instructions()[g].qubits() {
            let p = layout[lq];
            for &nb in topology.neighbors(p) {
                out.push((p.min(nb), p.max(nb)));
            }
        }
    }
    // Sorted and deduplicated so score ties always break the same way.
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_math::trace_fidelity;

    fn assert_routed(circuit: &Circuit, topo: &Topology) -> MappedCircuit {
        let mapped = try_sabre_map(circuit, topo, &SabreOptions::default()).expect("routable");
        for inst in mapped.circuit.iter() {
            if inst.qubits().len() == 2 {
                assert!(
                    topo.are_coupled(inst.qubits()[0], inst.qubits()[1]),
                    "{inst} not on a coupler"
                );
            }
        }
        assert_eq!(
            mapped.circuit.len(),
            circuit.len() + mapped.swaps_inserted,
            "no gates lost or duplicated"
        );
        mapped
    }

    #[test]
    fn already_routable_circuit_needs_no_swaps() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).cx(1, 0);
        let mapped = assert_routed(&c, &Topology::line(2));
        assert_eq!(mapped.swaps_inserted, 0);
    }

    #[test]
    fn distant_gate_on_a_line_needs_swaps() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let mapped = assert_routed(&c, &Topology::line(4));
        // Whatever the initial placement, the routed circuit is valid;
        // with a sensible layout at most 2 swaps are needed.
        assert!(
            mapped.swaps_inserted <= 2,
            "{} swaps",
            mapped.swaps_inserted
        );
    }

    #[test]
    fn mapping_preserves_circuit_semantics() {
        // Permutation-tracked unitary equivalence on a small case.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 2).rz(1, 0.37).cx(2, 0);
        let topo = Topology::line(3);
        let mapped = assert_routed(&c, &topo);

        // Build the ideal unitary re-expressed on physical qubits using
        // the initial layout, then append the inverse of the final
        // permutation to undo routing SWAPs.
        let ideal_logical = c.unitary();
        let routed = mapped.circuit.unitary();

        // Permutation matrices: P maps logical basis to physical basis.
        let n = 3usize;
        let dim = 1 << n;
        let perm_of = |layout: &[usize]| {
            let mut p = paqoc_math::Matrix::zeros(dim, dim);
            for src in 0..dim {
                let mut dst = 0usize;
                for (l, &phys) in layout.iter().enumerate().take(n) {
                    if (src >> l) & 1 == 1 {
                        dst |= 1 << phys;
                    }
                }
                p[(dst, src)] = paqoc_math::C64::ONE;
            }
            p
        };
        let p_init = perm_of(&mapped.initial_layout);
        let p_final = perm_of(&mapped.final_layout);
        // routed ∘ p_init should equal p_final ∘ ideal.
        let lhs = routed.matmul(&p_init);
        let rhs = p_final.matmul(&ideal_logical);
        let f = trace_fidelity(&lhs, &rhs);
        assert!(f > 1.0 - 1e-9, "fidelity {f}");
    }

    #[test]
    fn grid_5x5_routes_a_21_qubit_circuit() {
        // A BV-style oracle: CX from every qubit to the last.
        let mut c = Circuit::new(21);
        for q in 0..20 {
            c.h(q);
            c.cx(q, 20);
        }
        let mapped = assert_routed(&c, &Topology::grid(5, 5));
        assert!(mapped.swaps_inserted > 0, "grid routing must insert swaps");
    }

    #[test]
    fn mapping_is_deterministic() {
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, 4);
        }
        let topo = Topology::grid(5, 5);
        let a = try_sabre_map(&c, &topo, &SabreOptions::default()).expect("routable");
        let b = try_sabre_map(&c, &topo, &SabreOptions::default()).expect("routable");
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.initial_layout, b.initial_layout);
    }

    #[test]
    fn three_qubit_gates_are_rejected() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = try_sabre_map(&c, &Topology::line(3), &SabreOptions::default())
            .expect_err("a 3-qubit gate must be decomposed first");
        assert!(matches!(err, MapError::UnloweredGate { arity: 3, .. }));
        assert!(err.to_string().contains("decompose"), "{err}");
    }

    #[test]
    fn too_many_qubits_rejected() {
        let c = Circuit::new(10);
        let err = try_sabre_map(&c, &Topology::line(3), &SabreOptions::default())
            .expect_err("10 qubits do not fit a 3-qubit line");
        assert!(matches!(
            err,
            MapError::CircuitTooWide {
                needed: 10,
                available: 3
            }
        ));
        assert!(err.to_string().contains("circuit needs"), "{err}");
    }
}
