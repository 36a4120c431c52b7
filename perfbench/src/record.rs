//! The measurement context every workload drives its ops through.
//!
//! A pass is a workload's fixed sequence of ops. [`Ctx::op`] times one op's
//! program calls (wall and process CPU), then runs its output check
//! untimed; a panic, an error or a failed check counts the op as failed.
//! In a traced pass every op and every layer call inside it also leaves a
//! [`Span`]; untraced passes skip the span bookkeeping entirely.

use parvagpu::des::counters::{self, Snapshot};
use parvagpu::fleet::simcache;
use parvagpu::profile::ProfileBook;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::calib::Scales;
use crate::clock::process_cpu_ns;

/// One timed interval of the traced pass: an op or a layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `op` or the layer call's name (`core.configure`, `serve.run`, …).
    pub name: &'static str,
    /// The op this span belongs to (0 for calls outside any op).
    pub op: u64,
    /// Index of the enclosing span in the pass's span list.
    pub parent: Option<usize>,
    /// Wall-clock start and end, ns since the benchmark started.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Process CPU over the span, ns (every thread).
    pub cpu_ns: u64,
    /// DES counter activity over the span.
    pub des: Snapshot,
}

impl Span {
    /// Wall duration, ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One timed JSON load: a checkpoint, report or plan read back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Load {
    /// Length of the document, bytes.
    pub bytes: usize,
    /// Wall time, ns.
    pub wall_ns: u64,
    /// Process CPU, ns.
    pub cpu_ns: u64,
}

/// Everything one pass measured and produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of the pass's timed program calls, ns (checks excluded).
    pub wall_ns: u64,
    /// Process CPU over the same calls, ns.
    pub cpu_ns: u64,
    /// The JSON loads among those calls (checkpoint resumes).
    pub timed_loads: Vec<Load>,
    /// Wall time of each op, ms.
    pub op_ms: Vec<f64>,
    /// Ops run.
    pub attempted: u64,
    /// Ops that errored, panicked or failed their output check.
    pub failed: u64,
    /// Simulated requests offered in the serving windows the outputs
    /// describe (for the planner: requests per second planned for).
    pub offered: f64,
    /// Of those, requests completed within their SLO.
    pub within_slo: f64,
    /// GPUs of the pass's plans.
    pub gpus: f64,
    /// Time to save each durable output (checkpoint, report or plan), ms.
    pub save_ms: Vec<f64>,
    /// Each one loaded back.
    pub resumes: Vec<Load>,
    /// The FNV-1a digest (`parvad::checkpoint::fnv1a64`) of every report,
    /// plan, checkpoint and gauge stream the pass produced, in order, as
    /// little-endian bytes.
    pub outputs: Vec<u8>,
    /// FNV-1a over `outputs`.
    pub digest: u64,
    /// Per-layer figures read from the program (profiler phases, sizes).
    pub counts: BTreeMap<&'static str, f64>,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
    /// DES counter activity over the whole pass.
    pub des: Snapshot,
    /// `SimCache` hits and misses over the whole pass.
    pub cache: (u64, u64),
    /// Outputs whose `-0` came back as `0`: the vendored parser drops the
    /// sign of a negative zero, so the round trip tolerates exactly that.
    pub signed_zero_outputs: u64,
    /// Wall time of each profile book the benchmark built, ms.
    pub book_ms: Vec<f64>,
    /// How far the heap grew during the pass at its highest, bytes: its
    /// high-water mark over the bytes live when the pass began, so what
    /// earlier passes left behind does not count.
    pub peak_heap: usize,
    /// The factors taking the pass's times to the reference host's speed,
    /// set when the pass is closed.
    pub scales: Scales,
}

/// `json` with every `-0` number token written as `0`.
fn unsigned_zeros(json: &str) -> String {
    let b = json.as_bytes();
    let mut out = String::with_capacity(json.len());
    let mut last = 0;
    for i in 0..b.len().saturating_sub(2) {
        let starts_value = i == 0 || matches!(b[i - 1], b':' | b',' | b'[');
        if starts_value
            && b[i] == b'-'
            && b[i + 1] == b'0'
            && matches!(b[i + 2], b',' | b'}' | b']')
        {
            out.push_str(&json[last..i]);
            last = i + 1;
        }
    }
    out.push_str(&json[last..]);
    out
}

impl PassOut {
    /// `total_ns` in seconds at the reference host's speed: what each
    /// timed load took of it (`part` of the load) at that load's scale, the
    /// rest at the host scale.
    fn calibrated_s(&self, total_ns: u64, part: impl Fn(&Load) -> u64) -> f64 {
        let (loads_ns, loads_s) = self.timed_loads.iter().fold((0, 0.0), |(ns, s), l| {
            (
                ns + part(l),
                s + part(l) as f64 / 1e9 * self.scales.load(l.bytes),
            )
        });
        total_ns.saturating_sub(loads_ns) as f64 / 1e9 * self.scales.host + loads_s
    }

    /// Wall seconds of the pass's program calls at the reference host's
    /// speed.
    pub fn wall_s(&self) -> f64 {
        self.calibrated_s(self.wall_ns, |l| l.wall_ns)
    }

    /// Process CPU seconds of the same calls at the reference host's speed.
    pub fn cpu_s(&self) -> f64 {
        self.calibrated_s(self.cpu_ns, |l| l.cpu_ns)
    }

    /// Mean wall time of the pass's resumes at the reference host's speed,
    /// ms.
    pub fn resume_ms(&self) -> f64 {
        let ms: Vec<f64> = self
            .resumes
            .iter()
            .map(|l| l.wall_ns as f64 / 1e6 * self.scales.load(l.bytes))
            .collect();
        crate::stats::mean(&ms)
    }

    /// Add an output to the pass's digest.
    pub fn record(&mut self, output: &[u8]) {
        let digest = parvagpu::daemon::checkpoint::fnv1a64(output);
        self.outputs.extend(digest.to_le_bytes());
    }

    /// Add to a per-layer figure.
    pub fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    /// Count a checked step outside any op (a checkpoint round trip, the
    /// pass's final report) as attempted, and as failed if it failed.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("perfbench: check failed: {e}");
        }
    }

    /// Record the serving outcome an output describes.
    pub fn served(&mut self, offered: f64, within_slo: f64) {
        self.offered += offered;
        self.within_slo += within_slo;
    }

    /// Check that `json` parses back into a `T` that serializes to the
    /// same bytes, and add it to the pass's outputs. Returns the parse.
    pub fn round_trip<T: Serialize + Deserialize>(&mut self, json: &str) -> Result<Load, String> {
        let (back, load) = timed_load(json.len(), || serde_json::from_str::<T>(json));
        let back = back.map_err(|e| format!("output does not parse: {e}"))?;
        let again = serde_json::to_string(&back).map_err(|e| e.to_string())?;
        if again != json {
            if again != unsigned_zeros(json) {
                return Err("output JSON does not survive serialize -> parse -> serialize".into());
            }
            self.signed_zero_outputs += 1;
        }
        self.record(json.as_bytes());
        Ok(load)
    }

    /// Save an output outside the timed op: serialize it (a save), then
    /// round-trip it (a resume).
    pub fn save<T: Serialize + Deserialize>(&mut self, value: &T) -> Result<(), String> {
        let t0 = Instant::now();
        let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
        self.save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let resume = self.round_trip::<T>(&json)?;
        self.resumes.push(resume);
        Ok(())
    }
}

/// Run `f`, a JSON load of a `bytes`-long document, and time it.
fn timed_load<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, Load) {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let load = Load {
        bytes,
        wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        cpu_ns: process_cpu_ns().saturating_sub(cpu0),
    };
    (out, load)
}

/// The measurement context: the pass being recorded plus run-wide state.
#[derive(Debug)]
pub struct Ctx {
    tracing: bool,
    origin: Instant,
    next_op: u64,
    open_op: Option<(usize, u64)>,
    pass: PassOut,
}

impl Ctx {
    /// A context whose span clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            tracing: false,
            origin,
            next_op: 0,
            open_op: None,
            pass: PassOut::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Start recording a fresh pass.
    pub fn begin_pass(&mut self, tracing: bool) {
        self.tracing = tracing;
        self.pass = PassOut {
            des: counters::snapshot(),
            cache: simcache::global_stats(),
            peak_heap: crate::clock::reset_peak_heap(),
            ..PassOut::default()
        };
    }

    /// Finish the pass and hand back what it recorded.
    pub fn end_pass(&mut self) -> PassOut {
        let mut out = std::mem::take(&mut self.pass);
        out.peak_heap = crate::clock::peak_heap().saturating_sub(out.peak_heap);
        out.des = counters::snapshot().delta(&out.des);
        out.digest = parvagpu::daemon::checkpoint::fnv1a64(&out.outputs);
        out.outputs = Vec::new();
        let (h, m) = simcache::global_stats();
        out.cache = (h.saturating_sub(out.cache.0), m.saturating_sub(out.cache.1));
        out
    }

    /// The pass being recorded (for checks and per-layer figures).
    pub fn out(&mut self) -> &mut PassOut {
        &mut self.pass
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        self.pass.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ns: process_cpu_ns(),
            des: counters::snapshot(),
        });
        self.pass.spans.len() - 1
    }

    fn close(&mut self, at: usize) {
        let end = self.now_ns();
        let cpu = process_cpu_ns();
        let des = counters::snapshot();
        let s = &mut self.pass.spans[at];
        s.end_ns = end;
        s.cpu_ns = cpu.saturating_sub(s.cpu_ns);
        s.des = des.delta(&s.des);
    }

    /// Run one op: `run` makes the program calls and is timed; `check`
    /// verifies their output untimed. Returns the output if both passed.
    pub fn op<T>(
        &mut self,
        run: impl FnOnce(&mut Self) -> Result<T, String>,
        check: impl FnOnce(&mut PassOut, &T) -> Result<(), String>,
    ) -> Option<T> {
        self.next_op += 1;
        let op = self.next_op;
        self.pass.attempted += 1;
        if self.tracing {
            self.open_op = Some((self.open("op", op, None), op));
        }
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| run(self)));
        let wall = t0.elapsed();
        let cpu = process_cpu_ns().saturating_sub(cpu0);
        if let Some((at, _)) = self.open_op.take() {
            self.close(at);
        }
        self.pass.wall_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.pass.cpu_ns += cpu;
        self.pass.op_ms.push(wall.as_secs_f64() * 1e3);
        let verdict = match ran {
            Ok(Ok(value)) => catch_unwind(AssertUnwindSafe(|| check(&mut self.pass, &value)))
                .unwrap_or_else(|_| Err("output check panicked".into()))
                .map(|()| value),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("op panicked".into()),
        };
        verdict
            .map_err(|e| {
                self.pass.failed += 1;
                eprintln!("perfbench: op {op} failed: {e}");
            })
            .ok()
    }

    /// A call into one layer inside the current op; a span when tracing.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some((parent, op)) = self.open_op.filter(|_| self.tracing) else {
            return f();
        };
        let at = self.open(name, op, Some(parent));
        let out = f();
        self.close(at);
        out
    }

    /// A timed program call outside any op (a checkpoint save): counted in
    /// the pass's wall and CPU time; returns its wall ms.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let at = self.tracing.then(|| self.open(name, 0, None));
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        self.pass.cpu_ns += process_cpu_ns().saturating_sub(cpu0);
        self.pass.wall_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        if let Some(at) = at {
            self.close(at);
        }
        (out, wall.as_secs_f64() * 1e3)
    }

    /// A JSON load of a `bytes`-long document outside any op (a checkpoint
    /// resume): counted in the pass's wall and CPU time, and read at the
    /// load's scale. Returns the load.
    pub fn load<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Load) {
        let at = self.tracing.then(|| self.open(name, 0, None));
        let (out, load) = timed_load(bytes, f);
        if let Some(at) = at {
            self.close(at);
        }
        self.pass.wall_ns += load.wall_ns;
        self.pass.cpu_ns += load.cpu_ns;
        self.pass.timed_loads.push(load);
        (out, load)
    }

    /// Serialize an op's report as part of the op, timed as its save.
    pub fn encode<T: Serialize>(&mut self, value: &T) -> Result<String, String> {
        let t0 = Instant::now();
        let json = self.layer("serde.report_encode", || serde_json::to_string(value));
        self.pass.save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let json = json.map_err(|e| e.to_string())?;
        if self.tracing {
            self.pass.count("serde.report_bytes", json.len() as f64);
        }
        Ok(json)
    }

    /// Build the builtin profile book, timed.
    pub fn book(&mut self) -> ProfileBook {
        let t0 = Instant::now();
        let book = self.layer("profile.build", ProfileBook::builtin);
        self.pass.book_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if self.tracing {
            self.pass.count("profile.book_builds", 1.0);
        }
        book
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_negative_zero_tokens_lose_their_sign() {
        assert_eq!(
            unsigned_zeros(r#"{"a":-0,"b":[-0,-0.5,-05],"c":"x-0,","d":-0}"#),
            r#"{"a":0,"b":[0,-0.5,-05],"c":"x-0,","d":0}"#
        );
        assert_eq!(unsigned_zeros("-0"), "-0");
    }

    #[test]
    fn json_loads_are_read_at_their_own_scale_and_the_rest_at_the_host_scale() {
        let long = Load {
            bytes: crate::calib::FULL_WEIGHT_BYTES,
            wall_ns: 6_000_000,
            cpu_ns: 4_000_000,
        };
        let pass = PassOut {
            wall_ns: 14_000_000,
            cpu_ns: 12_000_000,
            timed_loads: vec![long],
            resumes: vec![long, Load { bytes: 0, ..long }],
            scales: Scales {
                host: 0.5,
                json: 0.25,
            },
            ..PassOut::default()
        };
        assert!((pass.wall_s() - (0.004 + 0.0015)).abs() < 1e-15);
        assert!((pass.cpu_s() - (0.004 + 0.001)).abs() < 1e-15);
        assert!((pass.resume_ms() - (1.5 + 3.0) / 2.0).abs() < 1e-12);

        let mut ctx = Ctx::new(Instant::now());
        ctx.begin_pass(false);
        let (parsed, load) = ctx.load("parvad.decode", 5, || {
            serde_json::from_str::<Vec<u32>>("[1,2]")
        });
        assert_eq!(parsed.expect("parses"), [1, 2]);
        let pass = ctx.end_pass();
        assert_eq!(pass.timed_loads, [load]);
        assert_eq!((load.bytes, pass.wall_ns), (5, load.wall_ns));
    }

    #[test]
    fn round_trip_tolerates_only_the_zero_sign() {
        let mut out = PassOut::default();
        let load = out
            .round_trip::<Vec<f64>>("[-0,1.5]")
            .expect("-0 reads back as 0");
        assert_eq!(load.bytes, 8);
        assert_eq!(out.signed_zero_outputs, 1);
        assert!(out.round_trip::<Vec<f64>>("[1.50]").is_err());
        let expected = parvagpu::daemon::checkpoint::fnv1a64(b"[-0,1.5]").to_le_bytes();
        assert_eq!(out.outputs, expected);
    }
}
