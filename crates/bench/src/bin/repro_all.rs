//! Runs every experiment of the paper end to end and writes all CSVs under
//! `results/`. Scenario evaluations (which include serving simulations) run
//! in parallel across scenarios via std scoped threads.
//!
//! Usage: `cargo run --release -p parva-bench --bin repro_all`

use parva_bench::{evaluate_scenario, write_csv, ScenarioEval};
use parva_metrics::{log_ms, TextTable};
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;
use parva_serve::ServingConfig;

fn column(
    eval: &ScenarioEval,
    name: &str,
    f: impl Fn(&parva_bench::FrameworkResult) -> String,
) -> String {
    eval.results
        .iter()
        .find(|r| r.name == name)
        .map_or("n/a".into(), f)
}

fn main() {
    let book = ProfileBook::builtin();
    let serving = ServingConfig::default();

    println!("== ParvaGPU reproduction: all experiments ==\n");

    // Scenario-based figures (5, 6, 7, 8, 9) — evaluate each scenario once
    // with serving, in parallel.
    let mut evals: Vec<Option<ScenarioEval>> = vec![None; Scenario::ALL.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for sc in Scenario::ALL {
            let book = &book;
            let serving = &serving;
            handles.push((
                sc,
                scope.spawn(move || evaluate_scenario(book, sc, true, serving)),
            ));
        }
        for (i, (sc, h)) in handles.into_iter().enumerate() {
            evals[i] = Some(h.join().expect("scenario evaluation panicked"));
            eprintln!("  evaluated {sc}");
        }
    });
    let evals: Vec<ScenarioEval> = evals.into_iter().map(|e| e.expect("filled")).collect();

    let frameworks = [
        "gpulet",
        "iGniter",
        "MIG-serving",
        "ParvaGPU-unoptimized",
        "ParvaGPU-single",
        "ParvaGPU",
    ];

    // Fig. 5 — GPU counts.
    let mut fig5 = TextTable::new(
        std::iter::once("scenario")
            .chain(frameworks)
            .collect::<Vec<_>>(),
    );
    for e in &evals {
        let mut row = vec![e.scenario.label().to_string()];
        for fw in frameworks {
            row.push(column(e, fw, |r| {
                r.gpus().map_or("fail".into(), |g| g.to_string())
            }));
        }
        fig5.row(row);
    }
    println!("\nFigure 5 — total GPUs\n{}", fig5.render());
    write_csv("fig5_gpu_counts.csv", &fig5.to_csv());

    // Fig. 6 — internal slack.
    let mut fig6 = TextTable::new(
        std::iter::once("scenario")
            .chain(frameworks)
            .collect::<Vec<_>>(),
    );
    for e in &evals {
        let mut row = vec![e.scenario.label().to_string()];
        for fw in frameworks {
            row.push(column(e, fw, |r| {
                r.slack
                    .map_or("fail".into(), |s| format!("{:.1}", s * 100.0))
            }));
        }
        fig6.row(row);
    }
    println!("\nFigure 6 — internal slack (%)\n{}", fig6.render());
    write_csv("fig6_internal_slack.csv", &fig6.to_csv());

    // Fig. 7 — external fragmentation.
    let mut fig7 = TextTable::new(
        std::iter::once("scenario")
            .chain(frameworks)
            .collect::<Vec<_>>(),
    );
    for e in &evals {
        let mut row = vec![e.scenario.label().to_string()];
        for fw in frameworks {
            row.push(column(e, fw, |r| {
                r.fragmentation
                    .map_or("fail".into(), |f| format!("{:.1}", f * 100.0))
            }));
        }
        fig7.row(row);
    }
    println!("\nFigure 7 — external fragmentation (%)\n{}", fig7.render());
    write_csv("fig7_external_fragmentation.csv", &fig7.to_csv());

    // Fig. 8 — SLO compliance.
    let mut fig8 = TextTable::new(
        std::iter::once("scenario")
            .chain(frameworks)
            .collect::<Vec<_>>(),
    );
    for e in &evals {
        let mut row = vec![e.scenario.label().to_string()];
        for fw in frameworks {
            row.push(column(e, fw, |r| {
                r.compliance
                    .map_or("fail".into(), |c| format!("{:.2}", c * 100.0))
            }));
        }
        fig8.row(row);
    }
    println!("\nFigure 8 — SLO compliance (%)\n{}", fig8.render());
    write_csv("fig8_slo_compliance.csv", &fig8.to_csv());

    // Fig. 9 — scheduling delay.
    let mut fig9 = TextTable::new(
        std::iter::once("scenario")
            .chain(frameworks)
            .collect::<Vec<_>>(),
    );
    for e in &evals {
        let mut row = vec![e.scenario.label().to_string()];
        for fw in frameworks {
            row.push(column(e, fw, |r| {
                if r.deployment.is_ok() {
                    format!("{:.2}", log_ms(r.delay))
                } else {
                    "fail".into()
                }
            }));
        }
        fig9.row(row);
    }
    println!(
        "\nFigure 9 — scheduling delay (log10 ms)\n{}",
        fig9.render()
    );
    write_csv("fig9_scheduling_delay.csv", &fig9.to_csv());

    println!("\nScenario figures complete. Run the remaining binaries for the rest:");
    println!("  table1, fig1, fig3_fig4, table4, fig10_fig11      (paper tables/figures)");
    println!(
        "  cost_table, disc_llm, ext_shadow                  (cost + \u{a7}V/\u{a7}III-F analyses)"
    );
    println!("  ablation_threshold, ablation_profile_noise, ablation_burstiness");
}
