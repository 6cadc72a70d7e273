//! Regenerates Fig. 14: paqoc(M=inf) compilation cost versus circuit
//! size across the seventeen benchmarks, with the least-squares linear
//! fit the paper draws. The paper's claim: near-linear scaling.

use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_workloads::all_benchmarks;

fn main() {
    let device = Device::grid5x5();
    println!("=== Fig. 14: paqoc(M=inf) compile cost vs circuit size ===");
    println!(
        "{:<15} {:>8} {:>14} {:>10}",
        "benchmark", "#gates", "cost_units", "wall_s"
    );
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for b in all_benchmarks() {
        let c = (b.build)();
        let mut src = AnalyticModel::new();
        let r = try_compile(&c, &device, &mut src, &PipelineOptions::m_inf()).expect("compile");
        println!(
            "{:<15} {:>8} {:>14.1} {:>10.2}",
            b.name,
            r.physical.len(),
            r.stats.cost_units,
            r.wall_seconds
        );
        pts.push((r.physical.len() as f64, r.stats.cost_units));
    }
    // Least-squares fit cost = a·gates + b.
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let b = (sy - a * sx) / n;
    // Pearson r.
    let mx = sx / n;
    let my = sy / n;
    let cov: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    let r = cov / (vx.sqrt() * vy.sqrt());
    println!("\nlinear fit: cost ≈ {a:.3}·gates + {b:.1}   (Pearson r = {r:.3})");
}
