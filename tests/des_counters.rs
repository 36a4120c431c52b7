//! The serving loop's DES counters, read as exact deltas. The counters are
//! process-global, so these tests live in their own test binary and take
//! one lock: nothing else in the process runs a simulation while a test
//! measures.

use parvagpu::core::ParvaGpu;
use parvagpu::daemon::{AutoscalePolicy, Daemon};
use parvagpu::deploy::{Scheduler, ServiceSpec};
use parvagpu::des::counters::{self, EventKind, Snapshot};
use parvagpu::obs::NullSink;
use parvagpu::perf::Model;
use parvagpu::profile::ProfileBook;
use parvagpu::scenarios::{spec_by_name, Scenario};
use parvagpu::serve::{ArrivalProcess, Simulation};
use std::sync::{Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

/// The counter activity `work` records, with no other test running.
fn measured(work: impl FnOnce()) -> Snapshot {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let before = counters::snapshot();
    work();
    counters::snapshot().delta(&before)
}

fn assert_kinds_sum_to_events(what: &str, d: &Snapshot) {
    assert!(d.events > 0, "{what}: no events counted");
    assert_eq!(
        d.by_kind.iter().sum::<u64>(),
        d.events,
        "{what}: per-kind counts {:?} do not sum to the events popped",
        d.by_kind
    );
}

/// One deadline event per head of a partial queue: almost every deadline
/// that pops launches the batch it was armed for. Re-arming on every
/// arrival to a partial queue made a quarter of all events idle deadlines.
#[test]
fn batching_deadlines_are_armed_once_per_head() {
    let quickstart = measured(|| {
        spec_by_name("quickstart")
            .expect("registered")
            .run()
            .expect("quickstart runs");
    });
    let s1 = measured(|| {
        let specs = Scenario::S1.services();
        let deployment = ParvaGpu::new(&ProfileBook::builtin())
            .schedule(&specs)
            .expect("S1 is feasible");
        let _ = Simulation::new(&deployment, &specs).seed(1).run();
    });
    for (what, d) in [("quickstart", quickstart), ("Table IV S1", s1)] {
        assert_eq!(d.sims, 1, "{what}: one completed run");
        assert_kinds_sum_to_events(what, &d);
        let deadlines = d.by_kind[EventKind::Deadline as usize];
        assert!(
            deadlines > 0,
            "{what}: no deadline fired, the bound is vacuous"
        );
        assert!(d.idle_deadlines <= deadlines);
        assert!(
            d.idle_deadlines * 100 <= d.events,
            "{what}: {} of {} events are deadlines that launched nothing",
            d.idle_deadlines,
            d.events
        );
    }
}

/// The daemon's epochs run the same loop as a batch run, so they count
/// events too; they are not completed runs.
#[test]
fn daemon_epochs_move_the_counters() {
    let specs = [
        ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
        ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
    ];
    let mut daemon = Daemon::new(
        &specs,
        ArrivalProcess::Poisson,
        11,
        500_000,
        AutoscalePolicy::default(),
    )
    .expect("feasible");
    let d = measured(|| {
        for _ in 0..4 {
            daemon.step(&mut NullSink);
        }
    });
    assert_kinds_sum_to_events("daemon", &d);
    assert!(d.by_kind[EventKind::Arrival as usize] > 0);
    assert!(d.by_kind[EventKind::Done as usize] > 0);
    assert!(d.peak_queue_depth > 0);
    assert_eq!(d.sims, 0, "an epoch is not a completed run");
}
