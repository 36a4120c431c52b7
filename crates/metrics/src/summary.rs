//! Assembling the regenerated artifacts into one markdown summary.
//!
//! Every harness binary writes a CSV under `results/`; this module stitches
//! them into a single human-readable `SUMMARY.md` (markdown tables in the
//! paper's table/figure order), so a reviewer reads one file instead of
//! twenty. Missing artifacts are listed, not skipped silently.

use std::path::Path;

/// One artifact the summary knows about: file name, title, one-line caption.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// CSV file name under the results directory.
    pub file: &'static str,
    /// Section title.
    pub title: &'static str,
    /// What the reader is looking at.
    pub caption: &'static str,
}

/// The manifest, in the paper's presentation order followed by the
/// extension analyses.
pub const MANIFEST: &[Artifact] = &[
    Artifact {
        file: "table1_capabilities.csv",
        title: "Table I — capability matrix",
        caption: "Feature support of the six spatial-sharing frameworks.",
    },
    Artifact {
        file: "fig1_mig_configurations.csv",
        title: "Figure 1 — the 19 MIG configurations",
        caption: "Derived from start-slice and memory-slice rules, not hard-coded.",
    },
    Artifact {
        file: "fig3_fig4_anchors.csv",
        title: "Figures 3–4 — InceptionV3 anchor points",
        caption: "Calibrated model vs the paper's §III-B quoted values.",
    },
    Artifact {
        file: "table4_scenarios.csv",
        title: "Table IV — evaluation scenarios",
        caption: "Request rates (req/s) and SLO latencies (ms) per model.",
    },
    Artifact {
        file: "fig5_gpu_counts.csv",
        title: "Figure 5 — total GPUs",
        caption: "Fleet size per framework per scenario (fewer is better).",
    },
    Artifact {
        file: "fig6_internal_slack.csv",
        title: "Figure 6 — internal slack (%)",
        caption: "Eq. 3 over measured SM activity (lower is better).",
    },
    Artifact {
        file: "fig7_external_fragmentation.csv",
        title: "Figure 7 — external fragmentation (%)",
        caption: "Unallocated GPCs on rented GPUs (lower is better).",
    },
    Artifact {
        file: "fig8_slo_compliance.csv",
        title: "Figure 8 — SLO compliance (%)",
        caption: "Batch-weighted compliance from the serving simulation.",
    },
    Artifact {
        file: "fig9_scheduling_delay.csv",
        title: "Figure 9 — scheduling delay (log10 ms)",
        caption: "Wall-clock scheduler cost per scenario.",
    },
    Artifact {
        file: "fig10_gpu_scaling.csv",
        title: "Figure 10 — GPUs at 1–10× S5",
        caption: "Predictor-mode fleet sizes as the service count scales.",
    },
    Artifact {
        file: "fig11_delay_scaling.csv",
        title: "Figure 11 — scheduling delay at 1–10× S5",
        caption: "Scheduler cost as the service count scales.",
    },
    Artifact {
        file: "cost_table.csv",
        title: "Cost view of Figure 5",
        caption: "p4de.24xlarge nodes and monthly bills per framework.",
    },
    Artifact {
        file: "disc_llm_feasibility.csv",
        title: "§V — LLM memory feasibility",
        caption: "Smallest feasible MIG instance per LLM per GPU generation.",
    },
    Artifact {
        file: "disc_llm_serving.csv",
        title: "§V — LLM serving fleets",
        caption: "ParvaGPU on the three-LLM scenario per GPU generation.",
    },
    Artifact {
        file: "ext_shadow_disruption.csv",
        title: "§III-F — shadow-process windows",
        caption: "Request compliance through a reconfiguration, ± shadows.",
    },
    Artifact {
        file: "ablation_threshold.csv",
        title: "Ablation — optimization threshold",
        caption: "The §III-E-2 '≤ 4 GPCs' knob swept 0–7.",
    },
    Artifact {
        file: "ablation_profile_noise.csv",
        title: "Ablation — profiler noise",
        caption: "Scheduler robustness to measurement error.",
    },
    Artifact {
        file: "ablation_burstiness.csv",
        title: "Ablation — arrival burstiness",
        caption: "MMPP bursts vs the SLO/2 queuing budget.",
    },
];

/// Render one CSV string as a markdown table (first line = header).
#[must_use]
pub fn csv_to_markdown(csv: &str) -> String {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let Some(header) = lines.next() else {
        return String::from("*(empty)*\n");
    };
    let cells = |line: &str| -> Vec<String> {
        line.split(',')
            .map(|c| c.trim().replace('|', "\\|"))
            .collect()
    };
    let head = cells(header);
    let mut out = format!("| {} |\n", head.join(" | "));
    out.push_str(&format!("|{}\n", "---|".repeat(head.len())));
    for line in lines {
        out.push_str(&format!("| {} |\n", cells(line).join(" | ")));
    }
    out
}

/// Build the full summary document from a results directory.
#[must_use]
pub fn build_summary(results_dir: &Path) -> String {
    let mut out = String::from(
        "# Results summary\n\nRegenerated artifacts of the ParvaGPU reproduction, in the \
         paper's order.\nRe-create everything with `cargo run --release -p parva-bench \
         --bin repro_all`\nand the per-figure binaries (see README \"Reproduction binaries\").\n",
    );
    let mut missing = Vec::new();
    for artifact in MANIFEST {
        match std::fs::read_to_string(results_dir.join(artifact.file)) {
            Ok(csv) => {
                out.push_str(&format!(
                    "\n## {}\n\n{}\n\n{}",
                    artifact.title,
                    artifact.caption,
                    csv_to_markdown(&csv)
                ));
            }
            Err(_) => missing.push(artifact.file),
        }
    }
    if !missing.is_empty() {
        out.push_str("\n## Missing artifacts\n\n");
        for f in missing {
            out.push_str(&format!("* `{f}` — regenerate with its harness binary\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("parva-summary-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn csv_to_markdown_shapes_tables() {
        let md = csv_to_markdown("a,b\n1,2\n3,4\n");
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn pipes_escaped_and_empty_handled() {
        assert!(csv_to_markdown("x|y,b\n").contains("x\\|y"));
        assert_eq!(csv_to_markdown(""), "*(empty)*\n");
    }

    #[test]
    fn summary_includes_present_and_lists_missing() {
        let dir = scratch_dir("mix");
        std::fs::write(dir.join("fig5_gpu_counts.csv"), "scenario,ParvaGPU\nS1,2\n").unwrap();
        let summary = build_summary(&dir);
        assert!(summary.contains("## Figure 5 — total GPUs"));
        assert!(summary.contains("| S1 | 2 |"));
        assert!(summary.contains("## Missing artifacts"));
        assert!(summary.contains("`table1_capabilities.csv`"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_manifest_summary_has_no_missing_section() {
        let dir = scratch_dir("full");
        for a in MANIFEST {
            std::fs::write(dir.join(a.file), "h1,h2\nv1,v2\n").unwrap();
        }
        let summary = build_summary(&dir);
        assert!(!summary.contains("## Missing artifacts"));
        for a in MANIFEST {
            assert!(summary.contains(a.title), "{}", a.title);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
