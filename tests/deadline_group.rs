//! APA acceptance (the pipeline's `group` phase) checks the compilation
//! deadline once per occurrence. A deadline that has passed by then
//! keeps the occurrences accepted so far and marks the result partial,
//! and the compile records that one hit only: the search and the attach
//! that follow must not add a second.
//!
//! Telemetry counters are process-global, so this lives in its own test
//! binary and runs the pipeline exactly once.

use paqoc::core::{try_compile, Degradation, GroupKind, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::telemetry;
use paqoc::workloads::benchmark;
use std::time::Duration;

#[test]
fn expired_deadline_stops_apa_acceptance_and_is_counted_once() {
    telemetry::set_enabled(true);
    telemetry::reset();

    // Lowering, mapping and mining run to their end whatever the
    // deadline, so a 1 ns deadline has passed before the first of
    // `majority_239`'s several hundred occurrences is tried.
    let c = (benchmark("majority_239").expect("exists").build)();
    let opts = PipelineOptions {
        deadline: Some(Duration::from_nanos(1)),
        ..PipelineOptions::m_inf()
    };
    let r = try_compile(&c, &Device::grid5x5(), &mut AnalyticModel::new(), &opts)
        .expect("an expired deadline degrades, it does not error");

    assert!(r.partial, "a deadline hit must mark the result partial");
    assert!(
        r.apa.num_apa_gates() > 0,
        "the cover must offer occurrences"
    );
    let hits: Vec<&Degradation> = r
        .degradations
        .iter()
        .filter(|d| matches!(d, Degradation::DeadlineHit { .. }))
        .collect();
    assert_eq!(hits.len(), 1, "degradations: {:?}", r.degradations);
    assert!(
        matches!(hits[0], Degradation::DeadlineHit { phase } if phase == "group"),
        "{hits:?}"
    );
    assert!(
        r.grouped
            .group_ids()
            .into_iter()
            .all(|id| !matches!(r.grouped.group(id).kind, GroupKind::Apa(_))),
        "no occurrence may be accepted after the deadline"
    );
    assert_eq!(
        telemetry::snapshot()
            .counters
            .get("pipeline.deadline_hits")
            .copied(),
        Some(1),
        "pipeline.deadline_hits must increment exactly once"
    );
    // The partial result is still a complete schedule.
    assert_eq!(r.grouped.len(), r.physical.len());
    assert!(r.latency_dt > 0);
}
