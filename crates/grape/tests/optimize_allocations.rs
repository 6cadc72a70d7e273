//! An `optimize` call allocates its buffers once: its heap allocations
//! must not grow with the number of ADAM iterations.
//!
//! A counting global allocator tallies allocations per thread, so the
//! harness's own threads cannot disturb the count.

use paqoc_circuit::GateKind;
use paqoc_device::{transmon_xy_controls, HardwareSpec};
use paqoc_grape::{optimize, GrapeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread by one `optimize` call of
/// `max_iters` iterations per restart, toward a target it cannot reach.
fn allocations(num_qubits: usize, max_iters: usize) -> u64 {
    let edges: Vec<(usize, usize)> = (1..num_qubits).map(|q| (q - 1, q)).collect();
    let controls = transmon_xy_controls(num_qubits, &edges, &HardwareSpec::transmon_xy());
    let target = if num_qubits == 1 {
        GateKind::X.unitary(&[])
    } else {
        paqoc_math::random_unitary_seeded(1 << num_qubits, 7)
    };
    let opts = GrapeOptions {
        max_iters,
        // Unreachable: every restart runs all its iterations.
        target_fidelity: 2.0,
        ..GrapeOptions::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let r = optimize(&target, &controls, 6, &opts, None);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(
        r.iterations,
        max_iters * opts.restarts,
        "ran every iteration"
    );
    after - before
}

#[test]
fn optimize_allocations_do_not_depend_on_max_iters() {
    assert!(
        !paqoc_telemetry::enabled(),
        "run with tracing off: traced counters allocate"
    );
    for num_qubits in [1, 2, 3] {
        // Warm-up: lazy one-time initialisation is not the optimizer's.
        allocations(num_qubits, 1);
        let short = allocations(num_qubits, 10);
        let long = allocations(num_qubits, 40);
        assert_eq!(
            short, long,
            "{num_qubits} qubit(s): {short} allocations at 10 iterations, {long} at 40"
        );
    }
}
