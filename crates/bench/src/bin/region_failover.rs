//! Region-failover experiment: sweep seeds over the three-region demo
//! federation with a scripted evacuation + failback drill, tabulate
//! recovery behaviour (spill volume, spilled-tail latency, compliance
//! dips, regional cost), and write `region_failover.csv` under
//! `results/`.
//!
//! Each row runs the registered `region_failover`
//! [`ScenarioSpec`](parvagpu::scenarios::ScenarioSpec) (the
//! same declarative object behind `parvactl run region_failover`) with
//! the row's seed — the experiment definition lives in the spec
//! registry, not in this binary.
//!
//! Every column except `sim_wall_ms` is deterministic per seed —
//! re-running reproduces those byte for byte; `sim_wall_ms` is the
//! measured wall-clock of the run on the current host.
//!
//! Usage: `cargo run --release -p parva-bench --bin region_failover [seeds]`

use parva_bench::write_csv;
use parvagpu::scenarios::{spec_by_name, ScenarioReport};

fn main() {
    let seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let spec = spec_by_name("region_failover").expect("registered builtin");

    let mut csv = String::from(
        "seed,intervals,spill_rps_total,worst_spilled_p99_ms,worst_dip_pct,\
         worst_recovery_ms,precopied_gib,final_compliance_pct,final_usd_per_hour,recovered,\
         sim_wall_ms\n",
    );
    println!(
        "== region failover: {seeds} seeds, spec '{}' ==\n",
        spec.name
    );
    for seed in 0..seeds as u64 {
        let mut run = spec.clone();
        run.seed = seed;
        let run_started = std::time::Instant::now();
        let outcome = run.run();
        let sim_wall_ms = run_started.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(ScenarioReport::Region(report)) => {
                let final_cost = report
                    .intervals
                    .last()
                    .map_or(report.baseline.usd_per_hour, |i| i.usd_per_hour);
                csv.push_str(&format!(
                    "{seed},{},{:.0},{:.0},{:.3},{:.0},{:.1},{:.3},{:.2},{},{sim_wall_ms:.1}\n",
                    report.intervals.len(),
                    report.total_spilled_rps(),
                    report.worst_spilled_p99_ms(),
                    report.worst_dip() * 100.0,
                    report.worst_recovery_latency_ms(),
                    report.total_precopied_gib(),
                    report.final_compliance() * 100.0,
                    final_cost,
                    report.recovered()
                ));
                println!("{}", report.render());
            }
            Ok(_) => unreachable!("region spec returns a region report"),
            Err(e) => {
                csv.push_str(&format!("{seed},0,0,0,0,0,0,0,0,error,{sim_wall_ms:.1}\n"));
                println!("seed {seed}: {e}\n");
            }
        }
    }
    write_csv("region_failover.csv", &csv);
}
