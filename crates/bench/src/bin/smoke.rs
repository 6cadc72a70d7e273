use paqoc_accqoc::{compile_accqoc, AccqocOptions};
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_workloads::all_benchmarks;
use std::time::Instant;

fn main() {
    let device = Device::grid5x5();
    for b in all_benchmarks() {
        let c = (b.build)();
        let t0 = Instant::now();
        let mut s = AnalyticModel::new();
        let acc = compile_accqoc(&c, &device, &mut s, &AccqocOptions::n3d3());
        let t_acc = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut s = AnalyticModel::new();
        let m0 = try_compile(&c, &device, &mut s, &PipelineOptions::m0()).expect("compile");
        let t_m0 = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let mut s = AnalyticModel::new();
        let mi = try_compile(&c, &device, &mut s, &PipelineOptions::m_inf()).expect("compile");
        let t_mi = t2.elapsed().as_secs_f64();
        println!("{:<14} phys={:<5} acc: {}dt {:.1}s | m0: {}dt {:.1}s cost {:.0} | minf: {}dt {:.1}s cost {:.0}",
            b.name, m0.physical.len(), acc.latency_dt, t_acc, m0.latency_dt, t_m0, m0.stats.cost_units, mi.latency_dt, t_mi, mi.stats.cost_units);
    }
    // With PAQOC_TRACE set, dump the accumulated profile of the sweep.
    if paqoc_telemetry::enabled() {
        print!("{}", paqoc_telemetry::snapshot().render_report());
        if let Ok(Some(path)) = paqoc_telemetry::write_env_trace() {
            println!("trace written to {}", path.display());
        }
    }
}
