//! The daemon run loop and its HTTP/JSON control socket.
//!
//! `parvad` speaks the smallest useful dialect of HTTP/1.1: one request per
//! connection, JSON bodies, `Connection: close`. The socket is polled
//! *between* epochs — control actions land at epoch boundaries, which is
//! exactly the granularity the engine can checkpoint at, so an interrupted
//! daemon never loses a half-applied action.
//!
//! | Endpoint           | Body                                 | Effect |
//! |--------------------|--------------------------------------|--------|
//! | `GET /status`      | —                                    | [`crate::DaemonStatus`] |
//! | `GET /report`      | —                                    | cumulative [`parva_serve::StreamReport`] |
//! | `POST /submit`     | [`crate::PodSpec`] JSON              | admit a pod, `{"id":n}` |
//! | `POST /scale`      | `{"service":n,"multiplier":x}`       | inject true demand |
//! | `POST /drain`      | —                                    | stop admissions, exit after the epoch |
//! | `POST /checkpoint` | `{"path":"ck.json"}`                 | write a checkpoint now, under `--out` |
//!
//! `/checkpoint` takes a bare file name only — no path separator, no `..`,
//! nothing absolute — and writes it into the artifact directory, so a
//! socket client cannot write anywhere else; a daemon without `--out`
//! refuses it.
//!
//! Artifacts under `--out`: `gauges.jsonl` (appended per epoch — the
//! byte-gate stream), `report.json` and `status.json` (written at exit),
//! `endpoint` (the bound address, for scripts). With a stream directory the
//! same rows (plus trace spans) tee into a live [`parva_obs::StreamSink`]
//! whose shards `parvactl trace` tooling can follow.

use crate::engine::Daemon;
use crate::{checkpoint, GaugeLog, PodSpec};
use parva_obs::{Row, StreamConfig, StreamSink, TraceEvent, TraceSink};
use serde::Deserialize;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

/// How to run the daemon loop.
#[derive(Debug, Clone, Default)]
pub struct DaemonOpts {
    /// Bind a control socket (`"127.0.0.1:0"` picks a free port). `None`
    /// runs headless — the deterministic mode CI byte-gates.
    pub listen: Option<String>,
    /// Stop once this many *total* epochs have completed (`None`: run until
    /// drained). A resumed daemon counts from its checkpointed epoch.
    pub epochs: Option<u64>,
    /// Artifact directory (`gauges.jsonl`, `report.json`, `status.json`,
    /// `endpoint`).
    pub out_dir: Option<PathBuf>,
    /// Write a checkpoint when the total epoch count reaches this value.
    pub checkpoint_at: Option<u64>,
    /// Where the checkpoint goes (required with `checkpoint_at`).
    pub checkpoint_path: Option<PathBuf>,
    /// Exit right after writing the scheduled checkpoint (simulating a
    /// suspension; a later `--resume` run continues the epoch stream).
    pub halt_at_checkpoint: bool,
    /// Tee gauges and trace events into a live `StreamSink` here.
    pub stream_dir: Option<PathBuf>,
    /// Wall-clock pause between epochs, ms (live demos; keep 0 for CI).
    pub throttle_ms: u64,
}

/// What a finished run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOutcome {
    /// Total completed epochs (including any resumed-from checkpoint).
    pub epochs: u64,
    /// Whether a checkpoint was written.
    pub checkpointed: bool,
    /// Whether the loop exited because of a drain request.
    pub drained: bool,
    /// Bound control-socket address, if listening.
    pub bound_addr: Option<String>,
}

#[derive(Deserialize)]
struct ScaleRequest {
    service: u32,
    multiplier: f64,
}

#[derive(Deserialize)]
struct CheckpointRequest {
    path: String,
}

/// Gauges into the byte-gated log, traces into the live stream.
struct TeeSink<'a> {
    log: GaugeLog,
    stream: &'a mut StreamSink,
}

impl TraceSink for TeeSink<'_> {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        self.stream.emit(ev);
    }

    fn next_sample_us(&self) -> u64 {
        u64::MAX
    }

    fn sample(&mut self, row: Row) {
        self.log.lines.push(row.to_json());
        self.stream.sample(row);
    }

    fn advance_sampler(&mut self) {}
}

/// Drive `daemon` to completion under `opts`.
///
/// # Errors
/// Socket, filesystem or checkpoint failures, as strings. Control-socket
/// request errors are reported to the client, never fatal to the daemon.
pub fn run_daemon(daemon: &mut Daemon, opts: &DaemonOpts) -> Result<DaemonOutcome, String> {
    let listener = match &opts.listen {
        Some(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("socket setup: {e}"))?;
            Some(l)
        }
        None => None,
    };
    let bound_addr = listener
        .as_ref()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .transpose()?
        .map(|a| a.to_string());

    let mut gauge_file = match &opts.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            if let Some(addr) = &bound_addr {
                std::fs::write(dir.join("endpoint"), addr)
                    .map_err(|e| format!("writing endpoint: {e}"))?;
            }
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("gauges.jsonl"))
                .map_err(|e| format!("opening gauges.jsonl: {e}"))?;
            Some(f)
        }
        None => None,
    };
    let mut stream = match &opts.stream_dir {
        Some(dir) => Some(
            StreamSink::create(dir, 0, StreamConfig::default())
                .map_err(|e| format!("creating stream dir: {e}"))?,
        ),
        None => None,
    };

    let mut checkpointed = false;
    let mut drained = false;
    loop {
        if let Some(l) = &listener {
            poll_control(l, daemon, opts.out_dir.as_deref());
        }
        if daemon.draining() {
            drained = true;
            break;
        }
        if let Some(target) = opts.epochs {
            if daemon.epoch() >= target {
                break;
            }
        }

        let lines = match stream.as_mut() {
            Some(s) => {
                let mut sink = TeeSink {
                    log: GaugeLog::new(),
                    stream: s,
                };
                daemon.step(&mut sink);
                sink.log.lines
            }
            None => {
                let mut sink = GaugeLog::new();
                daemon.step(&mut sink);
                sink.lines
            }
        };
        if let Some(f) = gauge_file.as_mut() {
            for line in &lines {
                writeln!(f, "{line}").map_err(|e| format!("writing gauges.jsonl: {e}"))?;
            }
            f.flush()
                .map_err(|e| format!("flushing gauges.jsonl: {e}"))?;
        }

        if opts.checkpoint_at == Some(daemon.epoch()) {
            let path = opts
                .checkpoint_path
                .as_ref()
                .ok_or("checkpoint_at set without a checkpoint path")?;
            checkpoint::save_checkpoint(daemon, path)?;
            checkpointed = true;
            if opts.halt_at_checkpoint {
                break;
            }
        }
        if opts.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
    }

    if let Some(dir) = &opts.out_dir {
        let report = serde_json::to_string_pretty(&daemon.report())
            .map_err(|e| format!("report encoding: {e}"))?;
        std::fs::write(dir.join("report.json"), report)
            .map_err(|e| format!("writing report.json: {e}"))?;
        let status = serde_json::to_string_pretty(&daemon.status())
            .map_err(|e| format!("status encoding: {e}"))?;
        std::fs::write(dir.join("status.json"), status)
            .map_err(|e| format!("writing status.json: {e}"))?;
    }
    if let Some(mut s) = stream {
        s.finish().map_err(|e| format!("finishing stream: {e}"))?;
    }
    Ok(DaemonOutcome {
        epochs: daemon.epoch(),
        checkpointed,
        drained,
        bound_addr,
    })
}

/// Handle every connection currently pending on the listener.
fn poll_control(listener: &TcpListener, daemon: &mut Daemon, out_dir: Option<&Path>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, daemon, out_dir),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

fn handle_connection(mut stream: TcpStream, daemon: &mut Daemon, out_dir: Option<&Path>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let (code, reply) = match read_request(&mut stream) {
        Ok((method, path, body)) => dispatch(daemon, out_dir, &method, &path, &body),
        Err(refusal) => refusal,
    };
    respond(&mut stream, code, &reply);
}

fn dispatch(
    daemon: &mut Daemon,
    out_dir: Option<&Path>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let err = |code: u16, msg: &str| (code, format!("{{\"error\":{}}}", quote_json(msg)));
    match (method, path) {
        ("GET", "/status") => match serde_json::to_string(&daemon.status()) {
            Ok(s) => (200, s),
            Err(e) => err(500, &e.to_string()),
        },
        ("GET", "/report") => match serde_json::to_string(&daemon.report()) {
            Ok(s) => (200, s),
            Err(e) => err(500, &e.to_string()),
        },
        ("POST", "/submit") => match serde_json::from_str::<PodSpec>(body) {
            Ok(pod) => match daemon.submit(&pod, &mut parva_obs::NullSink) {
                Ok(id) => (200, format!("{{\"id\":{id}}}")),
                Err(e) => err(409, &e),
            },
            Err(e) => err(400, &format!("bad pod spec: {e}")),
        },
        ("POST", "/scale") => match serde_json::from_str::<ScaleRequest>(body) {
            Ok(req) => match daemon.scale(req.service, req.multiplier) {
                Ok(()) => (200, "{\"ok\":true}".to_string()),
                Err(e) => err(409, &e),
            },
            Err(e) => err(400, &format!("bad scale request: {e}")),
        },
        ("POST", "/drain") => {
            daemon.drain();
            (200, "{\"ok\":true,\"draining\":true}".to_string())
        }
        ("POST", "/checkpoint") => match serde_json::from_str::<CheckpointRequest>(body) {
            Ok(req) => match checkpoint_file(out_dir, &req.path) {
                Ok(file) => match checkpoint::save_checkpoint(daemon, &file) {
                    Ok(()) => (
                        200,
                        format!(
                            "{{\"ok\":true,\"path\":{}}}",
                            quote_json(&file.display().to_string())
                        ),
                    ),
                    Err(e) => err(500, &e),
                },
                Err((code, msg)) => err(code, &msg),
            },
            Err(e) => err(400, &format!("bad checkpoint request: {e}")),
        },
        _ => err(404, &format!("no such endpoint: {method} {path}")),
    }
}

/// Where a `/checkpoint` request for `name` writes: `name` under the
/// daemon's `--out`. Only a bare file name is accepted; anything else is
/// refused with a 4xx status and the reason.
fn checkpoint_file(out_dir: Option<&Path>, name: &str) -> Result<PathBuf, (u16, String)> {
    let Some(dir) = out_dir else {
        return Err((
            409,
            "the daemon has no --out directory to checkpoint into".into(),
        ));
    };
    let reason = if Path::new(name).is_absolute() {
        "is absolute"
    } else if name.contains(['/', '\\']) {
        "has a path separator"
    } else if matches!(name, "" | "." | "..") {
        "is not a file name"
    } else {
        return Ok(dir.join(name));
    };
    Err((
        400,
        format!("checkpoint path '{name}' {reason}; send a bare file name, written under --out"),
    ))
}

fn quote_json(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"?\"".to_string())
}

/// Largest request head, and largest declared body, the socket accepts.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Read one request as (method, path, body), or the error response that
/// refuses it: 400 for a malformed or truncated request (an unparsable
/// `Content-Length` included), 413 for a declared body over
/// [`MAX_REQUEST_BYTES`] (refused before any of it is read).
fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), (u16, String)> {
    let malformed = || (400, "{\"error\":\"malformed request\"}".to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        let n = stream.read(&mut chunk).map_err(|_| malformed())?;
        if n == 0 {
            return Err(malformed());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(malformed());
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(malformed)?.to_string();
    let path = parts.next().ok_or_else(malformed)?.to_string();
    let declared = lines.find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length").then_some(v)
    });
    let content_length = match declared {
        Some(v) => v.trim().parse::<usize>().map_err(|_| malformed())?,
        None => 0,
    };
    if content_length > MAX_REQUEST_BYTES {
        return Err((
            413,
            format!("{{\"error\":\"request body over {MAX_REQUEST_BYTES} bytes\"}}"),
        ));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|_| malformed())?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, path, String::from_utf8_lossy(&body).to_string()))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, code: u16, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal blocking HTTP/1.1 client for `parvactl` and tests.
///
/// # Errors
/// Connection or protocol failures, as strings.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response: {raw:.60}"))?;
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoscalePolicy;
    use parva_deploy::ServiceSpec;
    use parva_perf::Model;
    use parva_serve::ArrivalProcess;

    fn boot() -> Daemon {
        let specs = vec![
            ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
            ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
        ];
        Daemon::new(
            &specs,
            ArrivalProcess::Poisson,
            11,
            500_000,
            AutoscalePolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn headless_run_writes_artifacts() {
        let dir = std::env::temp_dir().join("parvad-test-headless");
        let _ = std::fs::remove_dir_all(&dir);
        let mut daemon = boot();
        let outcome = run_daemon(
            &mut daemon,
            &DaemonOpts {
                epochs: Some(3),
                out_dir: Some(dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.epochs, 3);
        assert!(!outcome.checkpointed);
        let gauges = std::fs::read_to_string(dir.join("gauges.jsonl")).unwrap();
        assert_eq!(
            gauges
                .lines()
                .filter(|l| l.contains("parvad-epoch"))
                .count(),
            3
        );
        assert!(dir.join("report.json").exists());
        assert!(dir.join("status.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_and_resume_reproduces_the_uninterrupted_byte_stream() {
        let base = std::env::temp_dir().join("parvad-test-resume");
        let _ = std::fs::remove_dir_all(&base);
        let control_dir = base.join("control");
        let resumed_dir = base.join("resumed");
        let ckpt = base.join("ckpt.json");

        let mut control = boot();
        run_daemon(
            &mut control,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(control_dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();

        let mut first = boot();
        let outcome = run_daemon(
            &mut first,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(resumed_dir.clone()),
                checkpoint_at: Some(4),
                checkpoint_path: Some(ckpt.clone()),
                halt_at_checkpoint: true,
                ..DaemonOpts::default()
            },
        )
        .unwrap();
        assert!(outcome.checkpointed);
        assert_eq!(outcome.epochs, 4);
        drop(first);

        let mut resumed: Daemon = checkpoint::load_checkpoint(&ckpt).unwrap();
        run_daemon(
            &mut resumed,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(resumed_dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();

        for artifact in ["gauges.jsonl", "report.json", "status.json"] {
            let a = std::fs::read_to_string(control_dir.join(artifact)).unwrap();
            let b = std::fs::read_to_string(resumed_dir.join(artifact)).unwrap();
            assert_eq!(a, b, "{artifact} diverged across suspend/resume");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn control_socket_serves_the_full_lifecycle() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut daemon = boot();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            tx.send(listener.local_addr().unwrap().to_string()).unwrap();
            // Serve requests until a drain arrives, stepping in between so
            // submitted pods actually receive traffic.
            while !daemon.draining() {
                poll_control(&listener, &mut daemon, None);
                daemon.step(&mut parva_obs::NullSink);
            }
            daemon
        });
        let addr = rx.recv().unwrap();

        let (code, body) = http_request(&addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"services\""));

        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 60.0);
        let pod_json = serde_json::to_string(&pod).unwrap();
        let (code, body) = http_request(&addr, "POST", "/submit", Some(&pod_json)).unwrap();
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"id\":3"));
        // Duplicate admission conflicts.
        let (code, _) = http_request(&addr, "POST", "/submit", Some(&pod_json)).unwrap();
        assert_eq!(code, 409);

        let (code, _) = http_request(
            &addr,
            "POST",
            "/scale",
            Some("{\"service\":1,\"multiplier\":0.5}"),
        )
        .unwrap();
        assert_eq!(code, 200);

        let (code, body) = http_request(&addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("bert-qa"), "{body}");

        let (code, body) = http_request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(code, 404, "{body}");

        let (code, _) = http_request(&addr, "POST", "/drain", None).unwrap();
        assert_eq!(code, 200);
        let daemon = server.join().unwrap();
        assert!(daemon.draining());
        assert!(daemon.epoch() > 0);
    }

    #[test]
    fn checkpoint_endpoint_writes_only_bare_names_under_out() {
        use std::sync::mpsc;
        let base = std::env::temp_dir().join(format!("parvad-test-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let out = base.join("out");
        std::fs::create_dir_all(&out).unwrap();
        let outside = base.join("abs.json");
        let refused = [
            "../x.json",
            "/tmp/x.json",
            "a/b.json",
            "..",
            outside.to_str().unwrap(),
        ];
        let tmp_x_existed = Path::new("/tmp/x.json").exists();

        let (tx, rx) = mpsc::channel();
        let server_out = out.clone();
        let requests = refused.len() + 1;
        let server = std::thread::spawn(move || {
            let mut daemon = boot();
            for _ in 0..3 {
                daemon.step(&mut parva_obs::NullSink);
            }
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            tx.send(listener.local_addr().unwrap().to_string()).unwrap();
            for _ in 0..requests {
                handle_connection(listener.accept().unwrap().0, &mut daemon, Some(&server_out));
            }
            // One more request, to a daemon started without --out.
            handle_connection(listener.accept().unwrap().0, &mut daemon, None);
            daemon
        });
        let addr = rx.recv().unwrap();
        let post_checkpoint = |name: &str| {
            let body = format!("{{\"path\":{}}}", quote_json(name));
            http_request(&addr, "POST", "/checkpoint", Some(&body)).unwrap()
        };

        let (code, body) = post_checkpoint("ck.json");
        assert_eq!(code, 200, "{body}");
        for name in refused {
            let (code, body) = post_checkpoint(name);
            assert_eq!(code, 400, "{name}: {body}");
            assert!(body.contains("bare file name"), "{name}: {body}");
        }
        let (code, body) = post_checkpoint("ck.json");
        assert_eq!(code, 409, "{body}");
        assert!(body.contains("--out"), "{body}");
        let daemon = server.join().unwrap();

        // Only the bare name was written, and it resumes on the same epoch.
        let listing = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(listing(&base), ["out"]);
        assert_eq!(listing(&out), ["ck.json"]);
        assert_eq!(Path::new("/tmp/x.json").exists(), tmp_x_existed);
        let resumed: Daemon = checkpoint::load_checkpoint(&out.join("ck.json")).unwrap();
        assert_eq!(daemon.epoch(), 3);
        assert_eq!(resumed.epoch(), daemon.epoch());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn oversized_or_unparsable_length_is_refused_before_the_body_is_read() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut daemon = boot();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            tx.send(listener.local_addr().unwrap().to_string()).unwrap();
            // Serve exactly the three connections below.
            for _ in 0..3 {
                handle_connection(listener.accept().unwrap().0, &mut daemon, None);
            }
        });
        let addr = rx.recv().unwrap();
        // Send a request head declaring `length` and none of the body: the
        // daemon must answer from the head alone.
        let head_only = |length: &str| {
            let mut raw = TcpStream::connect(&addr).unwrap();
            raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            write!(
                raw,
                "POST /submit HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {length}\r\n\r\n"
            )
            .unwrap();
            let mut reply = String::new();
            raw.read_to_string(&mut reply).unwrap();
            reply
        };

        let reply = head_only("2147483648"); // 2 GiB
        assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
        let reply = head_only("99999999999999999999999");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");

        // The daemon keeps serving.
        let (code, body) = http_request(&addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200, "{body}");
        server.join().unwrap();
    }
}
