//! The declarative scenario layer end to end: schema round-trips, registry
//! execution across all three engines, and determinism of the reports.

use parvagpu::scenarios::{
    builtin_specs, spec_by_name, ClassSplit, Mode, ObservabilitySpec, ScenarioReport, ScenarioSpec,
    SpotMarketSpec, Window, Workload,
};

/// Every built-in spec serializes → deserializes → re-serializes byte-
/// identically: the JSON schema is lossless over the whole registry
/// (which collectively covers every field of the spec grammar).
#[test]
fn builtin_specs_round_trip_byte_identically() {
    for spec in builtin_specs() {
        let json = serde_json::to_string(&spec).expect("serializable");
        let back: ScenarioSpec =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let rejson = serde_json::to_string(&back).expect("re-serializable");
        assert_eq!(json, rejson, "round-trip drift in '{}'", spec.name);
    }
}

/// A partial block fills its missing keys from the block's own `Default`
/// (the documented values), not from the field type's zero.
#[test]
fn partial_blocks_take_their_documented_defaults() {
    let market: SpotMarketSpec = serde_json::from_str("{\"discount\":0.5}").unwrap();
    assert_eq!(market.preemption_intensity, 1.0);
    assert_eq!(market.discount, Some(0.5));
    let obs: ObservabilitySpec =
        serde_json::from_str("{\"streaming\":{\"retain_shards\":2}}").unwrap();
    let defaults = ObservabilitySpec::default();
    assert_eq!(obs.sample_every_ms, defaults.sample_every_ms);
    assert_eq!(
        obs.streaming.shard_max_events,
        defaults.streaming.shard_max_events
    );
    assert_eq!(obs.streaming.retain_shards, 2);
}

/// Pretty-printed JSON parses too (the on-disk format people will edit).
#[test]
fn pretty_json_round_trips() {
    for spec in builtin_specs() {
        let pretty = serde_json::to_string_pretty(&spec).expect("serializable");
        let back: ScenarioSpec = serde_json::from_str(&pretty).expect("pretty JSON parses");
        assert_eq!(
            serde_json::to_string(&spec).unwrap(),
            serde_json::to_string(&back).unwrap(),
            "pretty round-trip drift in '{}'",
            spec.name
        );
    }
}

/// Keys a spec or report writes only when it uses the feature behind
/// them (`skip_serializing_if` in the derive).
const OPT_IN: [&str; 13] = [
    "tenant",
    "tenants",
    "rejected",
    "timeouts",
    "retries",
    "shed",
    "hedges",
    "hedge_wins",
    "billing",
    "resilience",
    "follow_the_sun",
    "spot_markets",
    "pods",
];

/// Every registered spec runs at quick scale, lands in the report variant
/// its mode promises, and produces byte-identical JSON across two runs.
/// Its spec and report JSON carry the opt-in keys only where it uses the
/// feature behind them.
#[test]
fn every_builtin_runs_deterministically_at_quick_scale() {
    let (mut plain, mut opted) = (0, 0);
    for spec in builtin_specs() {
        let quick = spec.quick();
        let a = quick
            .run()
            .unwrap_or_else(|e| panic!("'{}' failed: {e}", spec.name));
        let b = quick.run().expect("second run");
        let report = serde_json::to_string(&a).unwrap();
        assert_eq!(
            report,
            serde_json::to_string(&b).unwrap(),
            "nondeterministic report from '{}'",
            spec.name
        );
        match (&quick.mode, &a) {
            (Mode::Serve { .. }, ScenarioReport::Serve(_))
            | (Mode::Fleet { .. }, ScenarioReport::Fleet(_))
            | (Mode::Region { .. }, ScenarioReport::Region(_)) => {}
            _ => panic!("'{}' returned the wrong report variant", spec.name),
        }
        assert!(!a.render().is_empty());

        let json = serde_json::to_string(&quick).unwrap() + &report;
        let has_key = |key: &str| json.contains(&format!("\"{key}\":"));
        let expected: &[&str] = match spec.name.as_str() {
            "multi_tenant" => &["tenant", "tenants", "billing", "spot_markets"],
            "retry_storm" => &["resilience", "timeouts", "retries"],
            "follow_the_sun" => &["follow_the_sun", "billing"],
            _ => &[],
        };
        if !expected.is_empty() {
            opted += 1;
        }
        for key in expected {
            assert!(has_key(key), "'{}' lacks `{key}`", spec.name);
        }
        let opts_in = !spec.tenants.is_empty()
            || !spec.spot_markets.is_empty()
            || !spec.pods.is_empty()
            || spec.resilience.is_some()
            || matches!(
                &spec.mode,
                Mode::Region {
                    follow_the_sun: Some(_),
                    ..
                }
            );
        if !opts_in {
            plain += 1;
            for key in OPT_IN {
                assert!(!has_key(key), "'{}' writes `{key}`", spec.name);
            }
        }
    }
    assert_eq!(opted, 3, "an opt-in builtin is missing from the registry");
    assert!(plain >= 3, "too few opt-in-free builtins to check");
}

/// The three specs the registry adds beyond the old binaries exercise
/// their advertised corners.
#[test]
fn new_corner_specs_deliver_their_corners() {
    // spot_heavy: majority-preemptible pools.
    let spot = spec_by_name("spot_heavy").unwrap();
    if let Mode::Fleet { fleet, .. } = &spot.mode {
        if let parvagpu::scenarios::FleetSource::Pools(pools) = fleet {
            let spot_nodes: usize = pools
                .pools
                .iter()
                .filter(|p| p.preemptible)
                .map(|p| p.count)
                .sum();
            let total: usize = pools.pools.iter().map(|p| p.count).sum();
            assert!(
                spot_nodes * 2 > total,
                "spot_heavy must be majority-preemptible ({spot_nodes}/{total})"
            );
        } else {
            panic!("spot_heavy must carry explicit pools");
        }
    } else {
        panic!("spot_heavy must be a fleet scenario");
    }

    // evacuation_drill: a four-region topology (not the built-in three).
    let drill = spec_by_name("evacuation_drill").unwrap();
    if let Mode::Region {
        federation: parvagpu::scenarios::FederationSource::Custom(fed),
        drill: Some(d),
        ..
    } = &drill.mode
    {
        assert_eq!(fed.regions.len(), 4);
        assert!(d.failback_at > d.evacuate_at);
    } else {
        panic!("evacuation_drill must be a custom-federation region scenario with a drill");
    }

    // single_node_mps: an MPS scheduler plus a split-ingress bursty load.
    let mps = spec_by_name("single_node_mps").unwrap();
    if let Mode::Serve {
        scheduler, ingress, ..
    } = &mps.mode
    {
        assert_eq!(scheduler, "gpulet");
        assert_eq!(ingress.len(), 2);
        assert!(mps.arrivals.is_some(), "bursty arrivals expected");
    } else {
        panic!("single_node_mps must be a serve scenario");
    }
}

/// The MPS corner actually produces MPS class-level reports with the RTT
/// charged, and the fleet corner actually records preemptions.
#[test]
fn corner_reports_show_the_corner_physics() {
    let mps = spec_by_name("single_node_mps").unwrap().quick();
    match mps.run().expect("runs") {
        ScenarioReport::Serve(r) => {
            // Two ingress classes per service, remote one RTT-shifted.
            let classes = r.classes_of(0);
            assert_eq!(classes.len(), 2);
            assert_eq!(classes[1].network_ms, 40.0);
            assert!(classes[1].latency.quantile_ms(0.5) >= 40.0);
        }
        _ => panic!("wrong variant"),
    }

    let spot = spec_by_name("spot_heavy").unwrap().quick();
    match spot.run().expect("runs") {
        ScenarioReport::Fleet(r) => {
            assert!(!r.events.is_empty());
        }
        _ => panic!("wrong variant"),
    }
}

/// A hand-written spec (the README's annotated example, unknown to the
/// registry) parses from JSON and runs — the "experiments as data" loop.
#[test]
fn custom_json_spec_runs() {
    let json = r#"{
        "name": "custom_burst_probe",
        "description": "S1 under 6x bursts with a 30% remote split",
        "seed": 7,
        "window": {"warmup_s": 0.5, "duration_s": 2.0, "drain_s": 0.5},
        "arrivals": {"Mmpp": {"burst_factor": 6.0, "mean_phase_s": 0.4}},
        "workload": {"Table": {"scenario": "S1", "scale": 1}},
        "mode": {"Serve": {
            "scheduler": "parvagpu",
            "ingress": [
                {"share": 0.7, "network_ms": 0.0},
                {"share": 0.3, "network_ms": 60.0}
            ]
        }}
    }"#;
    let spec: ScenarioSpec = serde_json::from_str(json).expect("schema parses");
    assert_eq!(spec.name, "custom_burst_probe");
    let report = spec.run().expect("runs");
    match report {
        ScenarioReport::Serve(r) => {
            assert_eq!(r.services.len(), 6, "S1 has six services");
            assert!(r.classes.len() >= 12, "two classes per service");
        }
        _ => panic!("wrong variant"),
    }
}

/// The committed on-disk spec (`examples/specs/h200_spot_market.json`)
/// stays loadable and runnable — the file `parvactl run <path>` and the
/// CI registry job both exercise.
#[test]
fn on_disk_example_spec_parses_and_runs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/h200_spot_market.json"
    );
    let text = std::fs::read_to_string(path).expect("example spec on disk");
    let spec: ScenarioSpec = serde_json::from_str(&text).expect("spec JSON parses");
    assert_eq!(spec.name, "h200_spot_market");
    assert!(
        spec_by_name(&spec.name).is_none(),
        "the on-disk example must not shadow a registry name"
    );
    let report = spec.quick().run().expect("runs");
    match report {
        ScenarioReport::Fleet(r) => assert!(!r.events.is_empty()),
        _ => panic!("wrong variant"),
    }
}

/// Malformed specs fail loudly, not silently.
#[test]
fn invalid_specs_are_rejected() {
    let base = ScenarioSpec {
        name: "bad".into(),
        description: String::new(),
        seed: 1,
        window: Window {
            warmup_s: 0.2,
            duration_s: 1.0,
            drain_s: 0.2,
        },
        arrivals: None,
        workload: Workload::Services(vec![]),
        mode: Mode::Serve {
            scheduler: String::new(),
            gpu: None,
            ingress: Vec::new(),
            recovery: None,
        },
        observability: Default::default(),
        tenants: Vec::new(),
        spot_markets: Vec::new(),
        resilience: None,
        pods: Vec::new(),
    };
    assert!(base.validate().unwrap_err().contains("empty"));

    let mut bad_gpu = base.clone();
    bad_gpu.workload = Workload::FleetDemo;
    bad_gpu.mode = Mode::Serve {
        scheduler: String::new(),
        gpu: Some("TPU-v9".into()),
        ingress: Vec::new(),
        recovery: None,
    };
    assert!(bad_gpu.validate().unwrap_err().contains("TPU-v9"));

    let mut bad_window = base.clone();
    bad_window.workload = Workload::FleetDemo;
    bad_window.window.duration_s = 0.0;
    assert!(bad_window.validate().is_err());

    let mut bad_split = base.clone();
    bad_split.workload = Workload::FleetDemo;
    bad_split.mode = Mode::Serve {
        scheduler: String::new(),
        gpu: None,
        ingress: vec![ClassSplit {
            share: -0.2,
            network_ms: 0.0,
        }],
        recovery: None,
    };
    assert!(bad_split.validate().is_err());

    // Non-finite ingress shares would wedge the arrival process — they
    // must die in validation, not in the event loop.
    let mut inf_split = base.clone();
    inf_split.workload = Workload::FleetDemo;
    inf_split.mode = Mode::Serve {
        scheduler: String::new(),
        gpu: None,
        ingress: vec![ClassSplit {
            share: f64::INFINITY,
            network_ms: 0.0,
        }],
        recovery: None,
    };
    assert!(inf_split.validate().unwrap_err().contains("finite"));

    // A drill landing beyond the run's intervals would silently never
    // fire; a drill region outside the topology likewise.
    let region_base = |drill| ScenarioSpec {
        name: "drilled".into(),
        description: String::new(),
        seed: 1,
        window: base.window,
        arrivals: None,
        workload: Workload::RegionDemo,
        mode: Mode::Region {
            federation: parvagpu::scenarios::FederationSource::ThreeRegionDemo,
            intervals: 4,
            drill: Some(drill),
            diurnal: None,
            follow_the_sun: None,
        },
        observability: Default::default(),
        tenants: Vec::new(),
        spot_markets: Vec::new(),
        resilience: None,
        pods: Vec::new(),
    };
    let late = region_base(parvagpu::region::EvacuationDrill {
        region: 0,
        evacuate_at: 9,
        failback_at: 12,
    });
    assert!(late.validate().unwrap_err().contains("never fire"));
    let late_failback = region_base(parvagpu::region::EvacuationDrill {
        region: 0,
        evacuate_at: 2,
        failback_at: 9,
    });
    assert!(late_failback.validate().unwrap_err().contains("never fire"));
    // Interval 0 is the baseline, not a drillable interval.
    let zero_evac = region_base(parvagpu::region::EvacuationDrill {
        region: 0,
        evacuate_at: 0,
        failback_at: 2,
    });
    assert!(zero_evac.validate().unwrap_err().contains("never fire"));

    // Colliding service ids (explicit vs position default) shadow report
    // lookups; they must be rejected up front.
    let mut dup_ids = base.clone();
    dup_ids.mode = Mode::Serve {
        scheduler: String::new(),
        gpu: None,
        ingress: Vec::new(),
        recovery: None,
    };
    dup_ids.workload = Workload::Services(vec![
        parvagpu::scenarios::ServiceEntry {
            model: "ResNet-50".into(),
            rate_rps: 100.0,
            slo_ms: 200.0,
            id: None, // defaults to position 0
        },
        parvagpu::scenarios::ServiceEntry {
            model: "BERT-large".into(),
            rate_rps: 10.0,
            slo_ms: 6_000.0,
            id: Some(0), // collides with the defaulted id above
        },
    ]);
    assert!(dup_ids.validate().unwrap_err().contains("duplicate"));
    let ghost = region_base(parvagpu::region::EvacuationDrill {
        region: 7,
        evacuate_at: 1,
        failback_at: 3,
    });
    assert!(ghost.validate().unwrap_err().contains("does not exist"));

    assert!(serde_json::from_str::<ScenarioSpec>("{\"nope\": 1}").is_err());
}

/// The follow-the-sun optimizer is opt-in at the spec layer: absent from
/// legacy JSON (both parse-side and serialize-side), validated when
/// present, and the `follow_the_sun` builtin actually produces a priced
/// ledger.
#[test]
fn follow_the_sun_spec_field_is_optional_and_validated() {
    // Pre-optimizer specs serialize without the key; the shipped builtin
    // that enables it carries the key.
    let legacy = spec_by_name("region_failover").unwrap();
    assert!(!serde_json::to_string(&legacy)
        .unwrap()
        .contains("follow_the_sun"));
    let sun = spec_by_name("follow_the_sun").unwrap();
    assert!(serde_json::to_string(&sun)
        .unwrap()
        .contains("\"follow_the_sun\":{\"night_threshold\":"));

    // Old JSON (no key) still parses, defaulting the optimizer off.
    let mut json = serde_json::to_string(&legacy).unwrap();
    let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
    if let Mode::Region { follow_the_sun, .. } = &back.mode {
        assert!(follow_the_sun.is_none());
    } else {
        panic!("region_failover must stay a region scenario");
    }

    // A bad optimizer config is caught by spec validation, not at run time.
    json = serde_json::to_string(&sun)
        .unwrap()
        .replace("\"shift_fraction\":0.9", "\"shift_fraction\":1.5");
    let bad: ScenarioSpec = serde_json::from_str(&json).unwrap();
    assert!(bad.validate().unwrap_err().contains("shift_fraction"));

    // The builtin runs and prices its shifts.
    let report = sun.quick().run().expect("follow_the_sun runs");
    let ScenarioReport::Region(r) = report else {
        panic!("follow_the_sun must produce a region report");
    };
    let billing = r.billing.as_ref().expect("optimizer must open a ledger");
    assert!(
        !billing.follow_the_sun.is_empty(),
        "no overnight shift fired"
    );
    assert!(billing
        .follow_the_sun
        .iter()
        .all(|row| row.shifted_rps > 0.0));
}
