//! An analytic estimate allocates nothing per gate: once the model's
//! Weyl memo and scratch are warm, estimating a group that needs no
//! lowering costs the same number of heap allocations for 2 gates as for
//! 20, on 1, 2 and 3 qubits, whole or as two slices.
//!
//! A counting global allocator tallies allocations per thread, so the
//! harness's own threads cannot disturb the count.

use paqoc_circuit::{Angle, GateKind, Instruction};
use paqoc_device::{AnalyticModel, Device, LoweredGroup, PulseSource};
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

/// `gates` IBM-basis gates cycling over `qubits`: `rz` with concrete and
/// symbolic angles, `sx`, `x` and, on two or more qubits, `cx` on
/// neighbouring pairs.
fn basis_group(qubits: &[usize], gates: usize) -> Vec<Instruction> {
    (0..gates)
        .map(|i| {
            let q = qubits[i % qubits.len()];
            let next = qubits[(i + 1) % qubits.len()];
            match i % 4 {
                0 => Instruction::new(GateKind::Rz, vec![q], vec![Angle::new(0.3 + i as f64)]),
                1 if q != next => Instruction::new(GateKind::Cx, vec![q, next], vec![]),
                1 => Instruction::new(GateKind::X, vec![q], vec![]),
                2 => Instruction::new(GateKind::Sx, vec![q], vec![]),
                _ => Instruction::new(GateKind::Rz, vec![q], vec![Angle::sym("gamma", 0.7)]),
            }
        })
        .collect()
}

/// Heap allocations made on this thread by one estimate of `group`,
/// whole and split in two, after a warm-up estimate of the same input.
fn allocations(model: &mut AnalyticModel, device: &Device, group: &[Instruction]) -> (u64, u64) {
    let (first, second) = group.split_at(group.len() / 2);
    let (low_first, low_second) = (AnalyticModel::lower(first), AnalyticModel::lower(second));
    assert!(
        low_first.is_none() && low_second.is_none(),
        "basis gates only"
    );
    let (first, second) = (
        LoweredGroup::new(first, &low_first),
        LoweredGroup::new(second, &low_second),
    );
    model.generate(group, device, 0.999, None);
    model.generate_pair(first, second, device, 0.999, None);
    let start = ALLOCATIONS.with(Cell::get);
    let whole = model.generate(group, device, 0.999, None);
    let mid = ALLOCATIONS.with(Cell::get);
    let pair = model.generate_pair(first, second, device, 0.999, None);
    let end = ALLOCATIONS.with(Cell::get);
    assert_eq!(whole, pair);
    (mid - start, end - mid)
}

#[test]
fn repeated_estimates_allocate_the_same_for_2_and_20_gates() {
    let device = Device::grid5x5();
    let mut model = AnalyticModel::new();
    for qubits in [&[3][..], &[3, 4], &[2, 3, 8]] {
        let small = allocations(&mut model, &device, &basis_group(qubits, 2));
        let large = allocations(&mut model, &device, &basis_group(qubits, 20));
        assert_eq!(small, large, "{qubits:?}: 2 gates vs 20 gates");
    }
}
