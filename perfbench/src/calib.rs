//! Host-speed calibration: two fixed kernels, timed between passes, that
//! let every timing be read at the reference host's speed.
//!
//! Other tenants of a shared host slow it by 30–50% for stretches of
//! seconds to minutes, long enough to move whole runs, and they do not
//! slow all code alike: in some stretches a byte-scanning parser slows by
//! up to a third more than a branchy, allocation-heavy event loop. So
//! there are two kernels. Both are the benchmark's own and use nothing
//! from the repository, so no change to the program can move them:
//!
//! - the *event-loop kernel*, a small discrete-event simulation (an M/M/c
//!   queue with its events in a binary heap, each request boxed in a hash
//!   map, the latencies sorted and formatted), which leans on the
//!   allocator, caches and branch predictors the way the program's event
//!   loops, planner and daemon do;
//! - the *JSON kernel*, which parses a fixed report-shaped document with a
//!   frozen copy of the way the vendored `serde_json` reads JSON (each
//!   string character re-validates the rest of the document as UTF-8,
//!   numbers go through `str::parse`, values build a tree of `Vec`s and
//!   `String`s), so it slows the way the program's JSON loads do.
//!
//! The JSON kernel matters for a second reason: a load's time is mostly
//! the standard library's `str::from_utf8`, and where that function lands
//! in the binary depends on everything linked before it, so the same
//! source built in two directories can parse 40% faster in one than in
//! the other. The JSON kernel calls the same function and moves with it.
//!
//! A pass's host scale comes from the event-loop kernel; a JSON load
//! (report, plan and checkpoint reads) is read at a blend of both kernels'
//! scales weighted by its length (see [`Scales::load`]).

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The event-loop kernel's wall time on the reference host (2-core Xeon)
/// at its quiet speed, ms.
pub const REFERENCE_MS: f64 = 7.0;
/// The JSON kernel's wall time on the reference host at its quiet speed,
/// ms.
pub const JSON_REFERENCE_MS: f64 = 4.2;

/// Requests the event-loop kernel simulates.
const REQUESTS: u64 = 20_000;
/// Servers of the simulated queue.
const SERVERS: usize = 8;
/// Services in the JSON kernel's document: ~17 KB, a large Table IV report.
const DOCUMENT_SERVICES: u64 = 22;
/// Parses of the document per JSON kernel run.
const PARSES: usize = 6;
/// Documents at least this long are read wholly at the JSON kernel's
/// scale: about half the kernel's document, the length from which the
/// re-validation of the rest of the document dominates a load as it does
/// the kernel.
pub const FULL_WEIGHT_BYTES: usize = 8_192;

struct Request {
    arrival_s: f64,
    service_s: f64,
    tag: String,
}

/// xorshift64: the kernels' own fixed random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn exp(&mut self, rate: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - unit).ln() / rate
    }
}

/// Run the event-loop kernel once: the same work on every call. Returns
/// its p99 latency and a digest of its formatted output, so none of it is
/// optimized away.
fn kernel() -> (f64, usize) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let ns = |t: f64| (t * 1e9) as u64;
    let mut events: BinaryHeap<Reverse<(u64, bool, u64)>> = BinaryHeap::new();
    let mut live: HashMap<u64, Box<Request>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut queue = VecDeque::new();
    let mut busy = 0;
    let mut t = 0.0;
    for id in 0..REQUESTS {
        t += rng.exp(900.0);
        events.push(Reverse((ns(t), false, id)));
    }
    let mut latencies = Vec::new();
    while let Some(Reverse((at, done, id))) = events.pop() {
        let now = at as f64 / 1e9;
        if done {
            let r = live.remove(&id).expect("a finished request is live");
            latencies.push(now - r.arrival_s + r.tag.len() as f64 * 1e-12);
            match queue.pop_front() {
                Some(next) => events.push(Reverse((ns(now + live[&next].service_s), true, next))),
                None => busy -= 1,
            }
        } else {
            let service_s = rng.exp(120.0);
            let tag = format!("request-{id}");
            live.insert(
                id,
                Box::new(Request {
                    arrival_s: now,
                    service_s,
                    tag,
                }),
            );
            if busy < SERVERS {
                busy += 1;
                events.push(Reverse((ns(now + service_s), true, id)));
            } else {
                queue.push_back(id);
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let mut text = String::new();
    for (i, l) in latencies.iter().enumerate().step_by(7) {
        let _ = write!(text, "{{\"i\":{i},\"latency_s\":{l:.6}}},");
    }
    (latencies[latencies.len() * 99 / 100], text.len())
}

/// The JSON kernel's document: a serving report's shape (per service its
/// counters, a 256-bucket latency histogram and a few floats), compact as
/// the vendored writer renders it. The same bytes on every call.
fn document() -> String {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut doc = String::from(r#"{"Serve":{"duration_s":10,"services":["#);
    for s in 0..DOCUMENT_SERVICES {
        let offered = 1_000 + rng.next() % 40_000;
        let _ = write!(
            doc,
            r#"{}{{"service_id":{s},"offered":{offered},"completed":{},"batches":{},"#,
            if s == 0 { "" } else { "," },
            offered - rng.next() % 10,
            offered / 8,
        );
        let _ = write!(
            doc,
            r#""completed_within_slo":{},"p99_ms":{:.3},"latency":{{"buckets":["#,
            offered - rng.next() % 50,
            (rng.next() % 100_000) as f64 / 997.0,
        );
        for b in 0..256 {
            let count = if (80..120).contains(&b) {
                rng.next() % 400
            } else {
                0
            };
            let _ = write!(doc, "{}{count}", if b == 0 { "" } else { "," });
        }
        let _ = write!(
            doc,
            r#"],"count":{offered},"min_us":{},"max_us":{},"sum_us":{}}}}}"#,
            3_000 + rng.next() % 1_000,
            20_000 + rng.next() % 40_000,
            offered * 9_000,
        );
    }
    doc.push_str(r#"],"scheduler":"ParvaGPU"}}"#);
    doc
}

/// A value the JSON kernel read: the vendored `serde::Value`'s shape, for
/// the kinds the document holds.
#[derive(Debug)]
enum Node {
    Int(i64),
    Float(f64),
    Str(String),
    Seq(Vec<Node>),
    Map(Vec<(String, Node)>),
}

impl Node {
    /// Values in the tree, this one included, and the sum of its numbers
    /// and string lengths.
    fn tally(&self) -> (usize, f64) {
        let children = |nodes: &mut dyn Iterator<Item = &Node>| {
            nodes.fold((1, 0.0), |(n, sum), v| {
                let (vn, vsum) = v.tally();
                (n + vn, sum + vsum)
            })
        };
        match self {
            Node::Int(i) => (1, *i as f64),
            Node::Float(x) => (1, *x),
            Node::Str(s) => (1, s.len() as f64),
            Node::Seq(items) => children(&mut items.iter()),
            Node::Map(entries) => {
                let keys: usize = entries.iter().map(|(k, _)| k.len()).sum();
                let (n, sum) = children(&mut entries.iter().map(|(_, v)| v));
                (n, sum + keys as f64)
            }
        }
    }
}

/// The vendored parser's reading loop, frozen: the same steps in the same
/// order, for the JSON the document holds (no literals, no escapes).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Node> {
        match self.peek()? {
            b'"' => self.string().map(Node::Str),
            b'[' => self.seq(),
            b'{' => self.map(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn seq(&mut self) -> Option<Node> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Node::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']').is_some() {
                return Some(Node::Seq(items));
            }
            self.eat(b',')?;
        }
    }

    fn map(&mut self) -> Option<Node> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Node::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}').is_some() {
                return Some(Node::Map(entries));
            }
            self.eat(b',')?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while self.eat(b'"').is_none() {
            // One character at a time, validating the rest of the document.
            let rest = std::str::from_utf8(self.bytes.get(self.pos..)?).ok()?;
            let c = rest.chars().next()?;
            out.push(c);
            self.pos += c.len_utf8();
        }
        Some(out)
    }

    fn number(&mut self) -> Option<Node> {
        let start = self.pos;
        let _ = self.eat(b'-');
        let digits = |r: &mut Self| {
            while matches!(r.peek(), Some(b'0'..=b'9')) {
                r.pos += 1;
            }
        };
        digits(self);
        let fractional = self.eat(b'.').is_some();
        if fractional {
            digits(self);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if fractional {
            text.parse().ok().map(Node::Float)
        } else {
            text.parse().ok().map(Node::Int)
        }
    }
}

/// Read `doc` with the JSON kernel's reader.
fn read(doc: &str) -> Option<Node> {
    let mut r = Reader {
        bytes: doc.as_bytes(),
        pos: 0,
    };
    r.skip_ws();
    let v = r.value()?;
    r.skip_ws();
    (r.pos == doc.len()).then_some(v)
}

/// Both kernels' wall times on one run, ms.
#[derive(Debug, Clone, Copy)]
pub struct KernelMs {
    /// The event-loop kernel's.
    pub event_loop: f64,
    /// The JSON kernel's.
    pub json: f64,
}

/// Time one run of each kernel.
fn measure(doc: &str) -> KernelMs {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    let event_loop = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    for _ in 0..PARSES {
        std::hint::black_box(read(std::hint::black_box(doc)).map(|v| v.tally()));
    }
    let json = t0.elapsed().as_secs_f64() * 1e3;
    KernelMs { event_loop, json }
}

/// The factor that takes a time measured between two kernel runs of
/// `before_ms` and `after_ms` to the reference host's speed, where the
/// kernel takes `reference_ms`.
pub fn scale(reference_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    reference_ms / f64::midpoint(before_ms, after_ms)
}

/// The factors that take a pass's times to the reference host's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scales {
    /// The event-loop kernel's [`scale`], for everything but JSON loads.
    pub host: f64,
    /// The JSON kernel's [`scale`].
    pub json: f64,
}

impl Default for Scales {
    fn default() -> Self {
        Self {
            host: 1.0,
            json: 1.0,
        }
    }
}

impl Scales {
    fn between(before: KernelMs, after: KernelMs) -> Self {
        Self {
            host: scale(REFERENCE_MS, before.event_loop, after.event_loop),
            json: scale(JSON_REFERENCE_MS, before.json, after.json),
        }
    }

    /// The scale of a JSON load of a `bytes`-long document:
    /// `host^(1-w) * json^w` with `w = min(1, bytes / FULL_WEIGHT_BYTES)`.
    /// Re-validating the rest of the document at every string character
    /// costs a load time quadratic in its length, so long documents spend
    /// nearly all of it in the code the JSON kernel shares, and short ones
    /// more in building values, which follows the event-loop kernel.
    pub fn load(&self, bytes: usize) -> f64 {
        let w = (bytes as f64 / FULL_WEIGHT_BYTES as f64).min(1.0);
        self.host.powf(1.0 - w) * self.json.powf(w)
    }
}

/// Pairs each pass with the kernel runs just before and just after it.
pub struct Calibration {
    doc: String,
    last: KernelMs,
}

impl Calibration {
    /// Run the kernels once, ahead of the first pass.
    pub fn start() -> Self {
        let doc = document();
        let last = measure(&doc);
        Self { doc, last }
    }

    /// Run the kernels after a pass; returns the pass's [`Scales`].
    pub fn close(&mut self) -> Scales {
        let after = measure(&self.doc);
        let scales = Scales::between(self.last, after);
        self.last = after;
        scales
    }

    /// The kernels' times on their latest run.
    pub fn last(&self) -> KernelMs {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn the_kernels_do_the_same_work_every_run() {
        let (p99, text) = kernel();
        assert!(p99 > 0.0 && text > 0);
        assert_eq!(kernel(), (p99, text));
        assert_eq!(document(), document());
        let doc = document();
        assert!((15_000..20_000).contains(&doc.len()), "{} bytes", doc.len());
    }

    #[test]
    fn the_json_kernel_reads_its_document_as_the_vendored_parser_does() {
        fn tally(v: &Value) -> (usize, f64) {
            let add = |(n, sum): (usize, f64), (vn, vsum): (usize, f64)| (n + vn, sum + vsum);
            match v {
                Value::Int(i) => (1, *i as f64),
                Value::Float(x) => (1, *x),
                Value::Str(s) => (1, s.len() as f64),
                Value::Seq(items) => items.iter().map(tally).fold((1, 0.0), add),
                Value::Map(entries) => entries
                    .iter()
                    .map(|(k, v)| add((0, k.len() as f64), tally(v)))
                    .fold((1, 0.0), add),
                other => panic!("the document holds no {other:?}"),
            }
        }
        let doc = document();
        let vendored: Value = serde_json::from_str(&doc).expect("the document is JSON");
        let frozen = read(&doc).expect("the kernel reads its document");
        assert_eq!(frozen.tally(), tally(&vendored));
        assert!(frozen.tally().0 > 22 * 256);
        assert!(read(&doc[..doc.len() - 1]).is_none());
    }

    #[test]
    fn a_slow_host_is_scaled_back_to_the_reference() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(scale(7.0, 1.5 * 7.0, 1.5 * 7.0), 1.0 / 1.5);
        assert_eq!(scale(7.0, 7.0, 3.0 * 7.0), 0.5);
        let at = |event_loop, json| KernelMs { event_loop, json };
        let quiet = at(REFERENCE_MS, JSON_REFERENCE_MS);
        assert_eq!(Scales::between(quiet, quiet), Scales::default());
        // Parsers slowed four-fold, event loops not at all: long loads are
        // read at a quarter of their time, a half-length one at half of it,
        // an empty one at all of it.
        let s = Scales::between(quiet, at(REFERENCE_MS, 7.0 * JSON_REFERENCE_MS));
        assert_eq!((s.host, s.json), (1.0, 0.25));
        assert_eq!(s.load(FULL_WEIGHT_BYTES), 0.25);
        assert_eq!(s.load(100 * FULL_WEIGHT_BYTES), 0.25);
        assert!((s.load(FULL_WEIGHT_BYTES / 2) - 0.5).abs() < 1e-12);
        assert_eq!(s.load(0), 1.0);
    }

    #[test]
    fn full_weight_starts_at_half_the_kernel_document() {
        let half = document().len() / 2;
        assert!(FULL_WEIGHT_BYTES.abs_diff(half) < half / 10, "{half}");
    }
}
