//! Fleet-chaos experiment: sweep seeds over a heterogeneous fleet and
//! tabulate recovery behaviour — migrations, re-flashes, compliance dips,
//! recovery latency and mixed-pricing cost — then write `fleet_chaos.csv`
//! under `results/`.
//!
//! Each row runs the registered `fleet_chaos`
//! [`ScenarioSpec`](parvagpu::scenarios::ScenarioSpec) (the same
//! declarative object behind `parvactl run fleet_chaos`) with the row's
//! seed — the experiment definition lives in the spec registry, not in
//! this binary.
//!
//! Every column except `sim_wall_ms` is deterministic per seed;
//! `sim_wall_ms` is the measured wall-clock of the run on the current
//! host.
//!
//! Usage: `cargo run --release -p parva-bench --bin fleet_chaos [seeds]`

use parva_bench::write_csv;
use parvagpu::scenarios::{spec_by_name, ScenarioReport};

fn main() {
    let seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let spec = spec_by_name("fleet_chaos").expect("registered builtin");

    let mut csv = String::from(
        "seed,events,migrations,reflashes,worst_measured_dip_pct,worst_analytic_dip_pct,\
         worst_sim_recovery_ms,worst_analytic_recovery_ms,precopied_gib,final_usd_per_hour,\
         recovered,sim_wall_ms\n",
    );
    println!("== fleet chaos: {seeds} seeds, spec '{}' ==\n", spec.name);
    for seed in 0..seeds as u64 {
        let mut run = spec.clone();
        run.seed = seed;
        let run_started = std::time::Instant::now();
        let outcome = run.run();
        let sim_wall_ms = run_started.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(ScenarioReport::Fleet(report)) => {
                let last_cost = report
                    .events
                    .last()
                    .map_or(report.baseline_usd_per_hour, |e| e.usd_per_hour);
                csv.push_str(&format!(
                    "{seed},{},{},{},{:.3},{:.3},{:.0},{:.0},{:.1},{:.2},{},{sim_wall_ms:.1}\n",
                    report.events.len(),
                    report.total_migrations(),
                    report.total_reflashes(),
                    report.worst_measured_dip() * 100.0,
                    report.worst_dip() * 100.0,
                    report.worst_simulated_recovery_ms(),
                    report.worst_recovery_latency_ms(),
                    report.total_precopied_gib(),
                    last_cost,
                    report.fully_recovered()
                ));
                println!("{}", report.render());
            }
            Ok(_) => unreachable!("fleet spec returns a fleet report"),
            Err(e) => {
                csv.push_str(&format!(
                    "{seed},0,0,0,0,0,0,0,0,0,error,{sim_wall_ms:.1}\n"
                ));
                println!("seed {seed}: {e}\n");
            }
        }
    }
    write_csv("fleet_chaos.csv", &csv);
}
