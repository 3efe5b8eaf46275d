//! `serve_mixed`: traffic over loopback to a `waco-cli serve` process, most
//! of it cache hits on a pre-warmed catalog and every eighth request a
//! fresh matrix.
//!
//! Chosen because the hits exercise the warm wire path (frame, JSON decode,
//! Matrix Market parse, fingerprint, lookup, encode) and bypass every
//! tuning layer, while the misses take the tuner mutex and append to the
//! journal beside them, so a change that trades reads for writes shows.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use waco_runtime::poll::{Interest, Poller};
use waco_schedule::{named, Kernel};
use waco_serve::cache::kernel_name;
use waco_serve::protocol::{encode_frame, read_frame, request_json, tune_response, Request};
use waco_serve::{Client, Fingerprint, Json, Tuner, TuningCache, WacoTuner, WacoTunerConfig};
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::gen::{Family, Rng64};
use waco_tensor::io::read_matrix_market;
use waco_tensor::CooMatrix;

use crate::inputs::{family_matrix, matrix_market, Zipf};
use crate::report::Report;
use crate::stats::{
    geomean, lateness, min_samples, nearest, unattributed, window_percentiles, window_rates,
    Samples,
};
use crate::{ms, Args};

/// Catalog size, seed and popularity skew. No traffic trace exists to take
/// them from: the skew is `waco-cli loadgen`'s default (`--zipf 1.1`), the
/// size twice its 24 default fingerprints so that the body sizes spread
/// over the whole 4–20 KB range (NOTES.md, "Traffic assumptions").
const CATALOG: usize = 48;
const CATALOG_SEED: u64 = 0x00ca_7a10;
const ZIPF_S: f64 = 1.1;
/// Catalog and fresh matrices have about 32–128 rows and request bodies of
/// 4–20 KB.
const MIN_ROWS: usize = 32;
const MAX_ROWS: usize = 128;
const MIN_BODY: usize = 4 << 10;
const MAX_BODY: usize = 20 << 10;
const SPMM_DENSE: usize = 32;
/// Requests per second of `--seconds` the closed-loop caller sends.
const CLOSED_PER_SECOND: f64 = 250.0;
/// The traced run's open-loop Poisson rate: `waco-cli loadgen`'s default
/// `--rps`, about a ninth of the saturation throughput measured when the
/// benchmark was defined (NOTES.md); frozen since. Near half of saturation,
/// head-of-line blocking behind the quadratic JSON decode moved the median
/// by up to 60% between runs on a 2-core host.
const OPEN_RATE: f64 = 40.0;
/// Every `MISS_EVERY`-th `serve_mixed` request carries a fresh matrix. An
/// assumed share, not a measured one; it decides how much of the reported
/// p95 is misses rather than large-body hits (NOTES.md, "Traffic
/// assumptions").
const MISS_EVERY: usize = 8;
/// The tail percentile the workload reports.
const TAIL_Q: f64 = 0.95;
/// The end-to-end metrics are read over `WINDOWS` consecutive windows of
/// the closed-loop phase (250 requests, about a second, each): the
/// latencies at the lower quartile of the windows' values, the rate at the
/// upper, that is from the quarter of the phase the host disturbed least.
/// On a shared 2-vCPU guest, time the hypervisor gives to other guests
/// (steal) stalls the server's thread hand-offs. It came in bursts that
/// spanned part of a run or all of it, and with the middle of five
/// windows it doubled the p50 of one run in five. A change to the program
/// moves every window alike, so the quartile still shows it.
const WINDOWS: usize = 15;
const WINDOW_Q: f64 = 0.25;
/// Set-ups per run; `setup_s` is the middle one.
const SETUP_REPEATS: usize = 5;
/// Requests kept in flight on the one connection that measures saturation.
const SATURATION_DEPTH: usize = 16;
/// How long a client waits on a silent server: for replies after the last
/// send, and in any one blocked read or write.
const GRACE: Duration = Duration::from_secs(5);
/// Requests the traced run replays through each layer in process.
const REPLAY: usize = 300;

/// One request the benchmark can send, encoded once.
struct Entry {
    fingerprint: Fingerprint,
    kernel: Kernel,
    dense: usize,
    body: String,
    frame: Vec<u8>,
    /// Simulated default-CSR time, for the served decisions' speed-up.
    default_s: f64,
}

impl Entry {
    fn new(m: CooMatrix, kernel: Kernel, sim: &Simulator) -> Result<Entry, String> {
        let dense = if kernel == Kernel::SpMV {
            0
        } else {
            SPMM_DENSE
        };
        let request = request_json("tune", kernel_name(kernel), dense, &matrix_market(&m));
        let space = sim.space_for(kernel, vec![m.nrows(), m.ncols()], dense);
        let default_s = sim
            .time_matrix(&m, &named::default_csr(&space), &space)
            .map_err(|e| format!("simulating the default of a catalog matrix: {e}"))?
            .seconds;
        Ok(Entry {
            fingerprint: Fingerprint::of_matrix(&m),
            kernel,
            dense,
            body: request.to_string(),
            frame: encode_frame(&request),
            default_s,
        })
    }
}

/// `count` seeded matrices of all families for both kernels. Row counts
/// follow a fixed scatter over 32–128 (so popularity and size are
/// decoupled the same way for every seed); a family whose matrix at that
/// size would make a body outside 4–20 KB is resized until it fits.
fn entries(count: usize, rng: &mut Rng64, sim: &Simulator) -> Result<Vec<Entry>, String> {
    (0..count)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            let kernel = if i % 2 == 0 {
                Kernel::SpMV
            } else {
                Kernel::SpMM
            };
            let mut n = MIN_ROWS + (i * 37) % (MAX_ROWS - MIN_ROWS + 1);
            let mut entry = Entry::new(family_matrix(family, n, rng), kernel, sim)?;
            for _ in 0..8 {
                n = match entry.body.len() {
                    b if b > MAX_BODY => n * 3 / 4,
                    b if b < MIN_BODY => n * 4 / 3,
                    _ => break,
                };
                entry = Entry::new(family_matrix(family, n, rng), kernel, sim)?;
            }
            Ok(entry)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

/// Builds `waco-cli` from the checkout's sources and returns its path.
fn server_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "waco-cli",
        ])
        .args(["--manifest-path", "Cargo.toml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building waco-cli failed ({status})"));
    }
    Ok(target_dir().join("release").join("waco-cli"))
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A running `waco-cli serve`, killed and reaped on drop.
struct ServerProc {
    child: Child,
    /// Held open so the server's farewell line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Starts the server with default settings on `cache` and waits for
    /// its `listening on ADDR` handshake.
    fn start(bin: &Path, cache: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--cache")
            .arg(cache)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr, Duration::from_secs(30)).map_err(|e| e.to_string())
    }

    fn stats(&self) -> Result<Json, String> {
        self.client()?.stats().map_err(|e| e.to_string())
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::report::peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful shutdown: the `shutdown` op, then wait for the drain.
    fn stop(mut self) -> Result<(), String> {
        self.client()?.shutdown().map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("server did not drain within 30 s".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Set-up: a fresh cache directory, the server started on it, the catalog
/// tuned once (each first reply is the reference decision for its entry),
/// then the server restarted on the warmed directory so its own latency
/// histogram covers only the measured traffic.
fn setup(bin: &Path, dir: &Path, catalog: &[Entry]) -> Result<(ServerProc, Vec<String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let server = ServerProc::start(bin, dir)?;
    let mut stream = connect(&server.addr)?;
    let mut refs = Vec::with_capacity(catalog.len());
    for entry in catalog {
        stream
            .write_all(&entry.frame)
            .map_err(|e| format!("pre-warming: {e}"))?;
        let reply = read_frame(&mut stream)
            .map_err(|e| format!("pre-warming: {e}"))?
            .ok_or("server closed the connection while pre-warming")?;
        match reply.get("decision") {
            Some(d) if reply.get("ok").and_then(Json::as_bool) == Some(true) => {
                refs.push(d.to_string())
            }
            _ => return Err(format!("pre-warm request failed: {reply}")),
        }
    }
    drop(stream);
    server.stop()?;
    Ok((ServerProc::start(bin, dir)?, refs))
}

// ---------------------------------------------------------------------------
// The generators
// ---------------------------------------------------------------------------

/// One scheduled request: when it is due (from the phase start) and which
/// pre-encoded frame it sends.
#[derive(Debug, Clone, Copy)]
struct Shot {
    due: Duration,
    frame: usize,
}

/// What happened to one request.
struct Outcome {
    late_ms: f64,
    /// Latency (from the due time in an open loop, from the send in a
    /// closed one) and reply body; `None` when no reply came.
    reply: Option<(f64, Vec<u8>)>,
}

/// A client connection: no Nagle delay, and reads and writes that give up
/// after `GRACE` so a wedged server fails the run instead of hanging it.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    s.set_nodelay(true)
        .and_then(|()| s.set_read_timeout(Some(GRACE)))
        .and_then(|()| s.set_write_timeout(Some(GRACE)))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// A Poisson arrival schedule at `rate` per second, frames drawn by `pick`.
fn poisson(
    rate: f64,
    count: usize,
    rng: &mut Rng64,
    mut pick: impl FnMut(usize, &mut Rng64) -> usize,
) -> Vec<Shot> {
    let mut t = 0.0;
    (0..count)
        .map(|i| {
            t += -(1.0 - rng.unit_f64()).ln() / rate;
            Shot {
                due: Duration::from_secs_f64(t),
                frame: pick(i, rng),
            }
        })
        .collect()
}

/// Sends `shots` open-loop over `conns` connections (round robin) from
/// this thread while one receiver thread collects replies. Each request is
/// timed from when it was due, not from when it was sent.
fn drive(
    addr: &str,
    conns: usize,
    shots: &[Shot],
    frames: &[&[u8]],
) -> Result<Vec<Outcome>, String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, String>>()?;
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let inflight: Arc<Vec<Mutex<VecDeque<usize>>>> =
        Arc::new((0..conns).map(|_| Mutex::new(VecDeque::new())).collect());
    let sent = Arc::new(AtomicUsize::new(0));
    let done_sending = Arc::new(AtomicBool::new(false));

    let start = Instant::now() + Duration::from_millis(20);
    let receiver = {
        let (inflight, sent, done_sending) = (inflight.clone(), sent.clone(), done_sending.clone());
        let total = shots.len();
        std::thread::spawn(move || receive(readers, &inflight, &sent, &done_sending, total))
    };

    let mut sent_at = Vec::with_capacity(shots.len());
    let mut streams = streams;
    let mut send_error = None;
    for (i, shot) in shots.iter().enumerate() {
        let due = start + shot.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let conn = i % conns;
        inflight[conn].lock().expect("in-flight lock").push_back(i);
        sent_at.push(Instant::now());
        sent.fetch_add(1, Ordering::SeqCst);
        if let Err(e) = streams[conn].write_all(frames[shot.frame]) {
            send_error = Some(format!("sending request {i}: {e}"));
            break;
        }
    }
    done_sending.store(true, Ordering::SeqCst);
    let replies = receiver
        .join()
        .map_err(|_| "the receiver thread panicked".to_string())??;
    drop(streams);
    if let Some(e) = send_error {
        return Err(e);
    }
    let mut outcomes: Vec<Outcome> = shots
        .iter()
        .zip(&sent_at)
        .map(|(shot, &sent)| Outcome {
            late_ms: lateness(ms(shot.due), ms(sent.saturating_duration_since(start))),
            reply: None,
        })
        .collect();
    for (i, at, body) in replies {
        outcomes[i].reply = Some((ms(at.saturating_duration_since(start + shots[i].due)), body));
    }
    Ok(outcomes)
}

/// Sends `shots` in order from one caller on one connection, each after
/// the previous reply (closed loop; due times are ignored): every request
/// meets an idle server, so its latency is its own cost.
fn drive_closed(addr: &str, shots: &[Shot], frames: &[&[u8]]) -> Result<Vec<Outcome>, String> {
    let mut stream = connect(addr)?;
    let mut outcomes = Vec::with_capacity(shots.len());
    let mut len = [0u8; 4];
    for shot in shots {
        let t = Instant::now();
        stream
            .write_all(frames[shot.frame])
            .map_err(|e| format!("sending: {e}"))?;
        let reply = stream.read_exact(&mut len).and_then(|()| {
            let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
            stream.read_exact(&mut body).map(|()| body)
        });
        let lat = ms(t.elapsed());
        match reply {
            Ok(body) => outcomes.push(Outcome {
                late_ms: 0.0,
                reply: Some((lat, body)),
            }),
            Err(e) => return Err(format!("reading a reply: {e}")),
        }
    }
    Ok(outcomes)
}

/// The receiver: reads replies off every connection as they arrive and
/// matches each to the oldest request in flight on its connection.
fn receive(
    readers: Vec<TcpStream>,
    inflight: &[Mutex<VecDeque<usize>>],
    sent: &AtomicUsize,
    done_sending: &AtomicBool,
    total: usize,
) -> Result<Vec<(usize, Instant, Vec<u8>)>, String> {
    let poller = Poller::new().map_err(|e| e.to_string())?;
    let mut readers = readers;
    for (token, r) in readers.iter().enumerate() {
        poller
            .add(r.as_raw_fd(), token as u64, Interest::READ)
            .map_err(|e| e.to_string())?;
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut open = vec![true; readers.len()];
    let mut replies = Vec::with_capacity(total);
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut stop_at: Option<Instant> = None;
    loop {
        if done_sending.load(Ordering::SeqCst) {
            let stop = *stop_at.get_or_insert_with(|| Instant::now() + GRACE);
            if replies.len() >= sent.load(Ordering::SeqCst) || Instant::now() >= stop {
                break;
            }
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        for ev in &events {
            let c = ev.token as usize;
            // One read per readiness event: the socket stays blocking (the
            // sender shares it), and a readable socket returns at once.
            // Level-triggered polling reports whatever is left next time.
            if open[c] {
                match readers[c].read(&mut chunk) {
                    Ok(0) => open[c] = false,
                    Ok(n) => bufs[c].extend_from_slice(&chunk[..n]),
                    Err(e)
                        if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {}
                    Err(_) => open[c] = false,
                }
            }
            let now = Instant::now();
            let mut used = 0;
            while bufs[c].len() - used >= 4 {
                let len = u32::from_be_bytes(bufs[c][used..used + 4].try_into().expect("4 bytes"))
                    as usize;
                if bufs[c].len() - used < 4 + len {
                    break;
                }
                let body = bufs[c][used + 4..used + 4 + len].to_vec();
                used += 4 + len;
                match inflight[c].lock().expect("in-flight lock").pop_front() {
                    Some(i) => replies.push((i, now, body)),
                    None => return Err("a reply arrived with no request in flight".into()),
                }
            }
            bufs[c].drain(..used);
            if !open[c] {
                let _ = poller.delete(readers[c].as_raw_fd());
            }
        }
    }
    for r in &mut readers {
        let _ = r.shutdown(std::net::Shutdown::Both);
    }
    Ok(replies)
}

// ---------------------------------------------------------------------------
// Checking and summarising a phase
// ---------------------------------------------------------------------------

/// What a reply must say.
enum Expect<'a> {
    /// A catalog entry: `cached: true` and exactly its reference decision.
    Hit(&'a str),
    /// A fresh matrix: a new decision for the requested kernel instance,
    /// served from cache only when an earlier entry shares its
    /// fingerprint (the mesh generator, for one, repeats itself).
    Miss {
        kernel: Kernel,
        dense: usize,
        may_be_cached: bool,
    },
}

#[derive(Default)]
struct Phase {
    all: Samples,
    /// Every latency in schedule order, for windowed percentiles.
    seq: Vec<f64>,
    hit: Samples,
    miss: Samples,
    late: Samples,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Replies served from cache.
    cached: u64,
    speedups: Vec<f64>,
    body_bytes: f64,
}

impl Phase {
    fn summarise<'r>(
        shots: &[Shot],
        outcomes: &[Outcome],
        entries: &[&Entry],
        expect: impl Fn(usize) -> Expect<'r>,
    ) -> Phase {
        let mut p = Phase::default();
        for (shot, out) in shots.iter().zip(outcomes) {
            p.attempted += 1;
            p.late.push(out.late_ms);
            p.body_bytes += entries[shot.frame].body.len() as f64;
            let is_miss = matches!(expect(shot.frame), Expect::Miss { .. });
            let verdict = out.reply.as_ref().map(|(lat, body)| {
                let reply = std::str::from_utf8(body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok());
                let ok = reply.as_ref().and_then(|r| check(r, &expect(shot.frame)));
                (*lat, ok)
            });
            let latency = match verdict {
                Some((lat, Some((kernel_seconds, cached)))) => {
                    p.cached += u64::from(cached);
                    p.speedups
                        .push(entries[shot.frame].default_s / kernel_seconds);
                    lat
                }
                Some((_, None)) => {
                    p.failed += 1;
                    p.wrong += 1;
                    f64::INFINITY
                }
                None => {
                    p.failed += 1;
                    f64::INFINITY
                }
            };
            p.all.push(latency);
            p.seq.push(latency);
            if is_miss {
                p.miss.push(latency);
            } else {
                p.hit.push(latency);
            }
        }
        p.body_bytes /= shots.len().max(1) as f64;
        p
    }

    fn fold_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.wrong += self.wrong;
    }
}

/// The served decision's simulated kernel time and whether it came from
/// cache, when the reply is what `expect` requires; `None` otherwise.
fn check(reply: &Json, expect: &Expect<'_>) -> Option<(f64, bool)> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let cached = reply.get("cached").and_then(Json::as_bool)?;
    let decision = reply.get("decision")?;
    let parsed = waco_serve::protocol::response_decision(reply)?;
    let good = match expect {
        Expect::Hit(reference) => cached && decision.to_string() == *reference,
        Expect::Miss {
            kernel,
            dense,
            may_be_cached,
        } => {
            (!cached || *may_be_cached) && parsed.kernel == *kernel && parsed.dense_extent == *dense
        }
    };
    (good && parsed.kernel_seconds > 0.0).then_some((parsed.kernel_seconds, cached))
}

/// A percentile that failures (recorded as infinite latency) have not
/// pushed past every limit.
fn finite(v: Result<f64, String>, what: &str) -> Result<f64, String> {
    let v = v.map_err(|e| format!("{what}: {e}"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{what}: too many failed requests to report it"))
    }
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// The run's scratch directory (server cache, journal copies), removed
/// when the run ends however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything set-up leaves behind. Fields drop in order: the server is
/// killed (if still running) before its directory is removed.
struct Bench {
    server: ServerProc,
    catalog: Vec<Entry>,
    /// Each catalog entry's reference decision (its first reply), as JSON.
    refs: Vec<String>,
    /// Popularity: catalog entry `i` has Zipf rank `i`.
    zipf: Zipf,
    rng: Rng64,
    conns: usize,
    dir: Scratch,
}

impl Bench {
    fn new(args: &Args, report: &mut Report) -> Result<Bench, String> {
        let bin = server_binary()?;
        let dir = Scratch(target_dir().join("perfbench-scratch").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )));
        let sim = Simulator::new(MachineConfig::xeon_like());
        // The catalog is part of the workload's definition and the same for
        // every seed; the seed drives the traffic over it.
        let catalog = entries(CATALOG, &mut Rng64::seed_from(CATALOG_SEED), &sim)?;

        let repeats = if args.trace { 1 } else { SETUP_REPEATS };
        let mut setups = Samples::new();
        let mut last: Option<(ServerProc, Vec<String>)> = None;
        for _ in 0..repeats {
            if let Some((server, _)) = last.take() {
                server.stop()?;
            }
            let t = Instant::now();
            last = Some(setup(&bin, &dir.0, &catalog)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let (server, refs) = last.expect("at least one set-up");
        if !args.trace {
            report.metric("setup_s", setups.middle(), "s");
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.note("setup.samples", Json::num(setups.len() as f64));
        // `ServeConfig::builder`'s default worker count, resolved on this
        // host the way the server resolves it.
        let workers = waco_runtime::ThreadPool::global().max_participants().min(4);
        report.note("server_workers", Json::num(workers as f64));
        report.note("generator_connections", Json::num(nproc as f64));
        report.note("generator_threads", Json::num(2.0));
        report.note("catalog", Json::num(CATALOG as f64));
        Ok(Bench {
            server,
            catalog,
            refs,
            zipf: Zipf::new(CATALOG, ZIPF_S),
            rng: Rng64::seed_from(args.seed ^ 0x7365_7276),
            conns: nproc,
            dir,
        })
    }

    /// A Poisson schedule of `count` requests at `rate`; request `i` sends
    /// entry `fresh(i)` when that names one, else a Zipf-popular entry.
    fn schedule(
        &mut self,
        rate: f64,
        count: usize,
        fresh: impl Fn(usize) -> Option<usize>,
    ) -> Vec<Shot> {
        let zipf = &self.zipf;
        poisson(rate, count, &mut self.rng, |i, rng| {
            fresh(i).unwrap_or_else(|| zipf.sample(rng))
        })
    }

    /// Sends `shots` over `entries`, open-loop on their schedule or in a
    /// closed loop, and checks every reply: catalog entries against their
    /// reference decisions, the rest as fresh tunes.
    fn phase(&self, shots: &[Shot], entries: &[&Entry], open: bool) -> Result<Phase, String> {
        let frames: Vec<&[u8]> = entries.iter().map(|e| e.frame.as_slice()).collect();
        let mut seen = std::collections::HashSet::new();
        let repeated: Vec<bool> = entries
            .iter()
            .map(|e| !seen.insert((e.fingerprint, e.kernel, e.dense)))
            .collect();
        let outcomes = if open {
            drive(&self.server.addr, self.conns, shots, &frames)?
        } else {
            drive_closed(&self.server.addr, shots, &frames)?
        };
        Ok(Phase::summarise(
            shots,
            &outcomes,
            entries,
            |f| match self.refs.get(f) {
                Some(reference) => Expect::Hit(reference),
                None => Expect::Miss {
                    kernel: entries[f].kernel,
                    dense: entries[f].dense,
                    may_be_cached: repeated[f],
                },
            },
        ))
    }

    /// Copies the server's journal as it stands, for the traced replay's
    /// lookups to see what the server saw when the phase began.
    fn snapshot_journal(&self) -> Result<(), String> {
        let journal = self.dir.0.join("tuning.journal");
        std::fs::copy(&journal, self.replay_journal())
            .map(drop)
            .map_err(|e| format!("copying {}: {e}", journal.display()))
    }

    fn replay_journal(&self) -> PathBuf {
        self.dir.0.join("replay.journal")
    }

    fn finish(self) -> Result<(), String> {
        self.server.stop()
    }
}

/// Saturation throughput: one connection keeps `SATURATION_DEPTH` catalog
/// requests in flight (a new one goes out as each reply comes back) for
/// `duration`; the middle of the checked replies per second over
/// `WINDOWS` equal slices of it. This is the rate at which the server stops
/// keeping up, where the backlog of an open loop would start to grow.
fn saturation(bench: &mut Bench, duration: Duration) -> Result<(f64, Phase), String> {
    let mut stream = connect(&bench.server.addr)?;
    let mut inflight = VecDeque::new();
    let mut p = Phase::default();
    let mut per_window = [0u64; WINDOWS];
    let window = duration / WINDOWS as u32;
    let start = Instant::now();
    loop {
        while inflight.len() < SATURATION_DEPTH && start.elapsed() < duration {
            let f = bench.zipf.sample(&mut bench.rng);
            stream
                .write_all(&bench.catalog[f].frame)
                .map_err(|e| format!("sending: {e}"))?;
            inflight.push_back(f);
            p.attempted += 1;
        }
        let Some(f) = inflight.pop_front() else { break };
        match read_frame(&mut stream) {
            Ok(Some(reply)) => {
                let w = (start.elapsed().as_nanos() / window.as_nanos().max(1)) as usize;
                if check(&reply, &Expect::Hit(&bench.refs[f])).is_none() {
                    p.failed += 1;
                    p.wrong += 1;
                } else if let Some(n) = per_window.get_mut(w) {
                    *n += 1;
                }
            }
            _ => {
                p.failed += 1 + inflight.len() as u64;
                break;
            }
        }
    }
    let mut rates = Samples::new();
    for n in per_window {
        rates.push(n as f64 / window.as_secs_f64());
    }
    Ok((rates.middle(), p))
}

/// The end-to-end run is one caller in a closed loop
/// (`CLOSED_PER_SECOND · --seconds` requests); the traced run offers the
/// same kind of traffic open-loop at a fixed Poisson rate, then replays it
/// layer by layer and measures saturation. Every `MISS_EVERY`-th request
/// carries a fresh matrix.
pub fn run_mixed(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut bench = Bench::new(args, report)?;
    let sim = Simulator::new(MachineConfig::xeon_like());
    let count = if args.trace {
        // Enough for a supported p95, and a p90 over the misses alone.
        ((OPEN_RATE * args.seconds) as usize)
            .max(min_samples(TAIL_Q))
            .max(min_samples(0.9) * MISS_EVERY)
    } else {
        ((CLOSED_PER_SECOND * args.seconds) as usize).max(min_samples(TAIL_Q) * WINDOWS)
    };
    let mut fresh_rng = Rng64::seed_from(args.seed ^ 0x6672_6573);
    let fresh = entries(count / MISS_EVERY + 1, &mut fresh_rng, &sim)?;
    // The closed loop ignores the schedule's due times.
    let shots = bench.schedule(OPEN_RATE, count, |i| {
        (i % MISS_EVERY == MISS_EVERY - 1).then_some(CATALOG + i / MISS_EVERY)
    });
    let entries: Vec<&Entry> = bench.catalog.iter().chain(&fresh).collect();
    bench.snapshot_journal()?;
    let before = bench.server.stats()?;
    let started = Instant::now();
    let mut p = bench.phase(&shots, &entries, args.trace)?;
    let phase_s = started.elapsed().as_secs_f64();
    let after = bench.server.stats()?;
    p.fold_into(report);
    report.note("miss_every", Json::num(MISS_EVERY as f64));
    report.note_samples("requests", &p.all, &[0.5, TAIL_Q]);
    if args.trace {
        report.note("open_loop_rate", Json::num(OPEN_RATE));
        report.note_samples("misses", &p.miss, &[0.5, 0.9]);
        let hit_p50 = finite(p.hit.median(), "hit p50")?;
        report.metric("serve.hit_p50_ms", hit_p50, "ms");
        let hit_p95 = finite(p.hit.percentile(TAIL_Q), "hit p95")?;
        report.metric("serve.hit_p95_ms", hit_p95, "ms");
        let miss_p50 = finite(p.miss.median(), "miss p50")?;
        report.metric("serve.miss_p50_ms", miss_p50, "ms");
        let miss_p90 = finite(p.miss.percentile(0.9), "miss p90")?;
        report.metric("serve.miss_p90_ms", miss_p90, "ms");
        trace(&bench, report, &shots, &entries, &mut p, [&before, &after])?;
        let (saturation, sat) = saturation(&mut bench, args.duration() / 3)?;
        sat.fold_into(report);
        report.metric("serve.saturation_rps", saturation, "1/s");
        report.metric("error_rate", report.error_rate(), "ratio");
        return bench.finish();
    }
    report.metric("peak_rss_mb", bench.server.peak_rss_mb()?, "MB");
    // Which population the p95 (`tail_ms`) falls in: the slowest hits,
    // the misses, or both.
    let note = |v: Result<f64, String>| v.map_or(Json::Null, Json::num);
    report.note("hits.p95_ms", note(p.hit.percentile(TAIL_Q)));
    report.note("misses.p10_ms", note(p.miss.percentile(0.1)));
    report.note("misses.p50_ms", note(p.miss.median()));
    let arr = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::num).collect());
    let p50s = window_percentiles(&p.seq, WINDOWS, 0.5)?;
    let tails = window_percentiles(&p.seq, WINDOWS, TAIL_Q)?;
    let rates = window_rates(&p.seq, WINDOWS)?;
    report.note("window.p50_ms", arr(&p50s));
    report.note("window.p95_ms", arr(&tails));
    report.note("window.rate_per_s", arr(&rates));
    report.note("phase.rate_per_s", Json::num(p.seq.len() as f64 / phase_s));
    let p50 = nearest(p50s, WINDOW_Q);
    report.metric("p50_ms", finite(Ok(p50), "p50")?, "ms");
    let tail = nearest(tails, WINDOW_Q);
    report.metric("tail_ms", finite(Ok(tail), "p95")?, "ms");
    report.metric("rate_per_s", nearest(rates, 1.0 - WINDOW_Q), "1/s");
    let speedup = geomean(&p.speedups).ok_or("no served decision")?;
    report.metric("speedup_x", speedup, "x");
    bench.finish()
}

/// The traced run's per-layer numbers: the server's own counters, then the
/// first `REPLAY` requests of the phase replayed in process through each
/// layer's public entry point, against the journal as the phase began.
fn trace(
    bench: &Bench,
    report: &mut Report,
    shots: &[Shot],
    entries: &[&Entry],
    p: &mut Phase,
    [before, after]: [&Json; 2],
) -> Result<(), String> {
    let num = |v: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let delta = |path: &[&str]| num(after, path) - num(before, path);
    report.metric(
        "serve.server_p50_ms",
        num(after, &["latency", "p50_ms"]),
        "ms",
    );
    report.metric(
        "serve.server_p99_ms",
        num(after, &["latency", "p99_ms"]),
        "ms",
    );
    report.metric(
        "serve.hit_rate",
        p.cached as f64 / p.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("serve.body_kb", p.body_bytes / 1024.0, "KB");
    report.metric("gen.late_p95_ms", p.late.percentile(TAIL_Q)?, "ms");
    report.metric(
        "serve.tune_calls",
        delta(&["server", "tune_calls"]),
        "count",
    );
    report.metric("serve.coalesced", delta(&["server", "coalesced"]), "count");

    let cache = TuningCache::open(bench.replay_journal(), 1024).map_err(|e| e.to_string())?;
    let mut tuner: Option<WacoTuner> = None;
    let mut hit_layers: [Samples; 6] = Default::default();
    let (mut tune, mut insert) = (Samples::new(), Samples::new());
    for shot in shots.iter().take(REPLAY) {
        let entry = entries[shot.frame];
        let mut layer = [0.0; 6];
        let t = Instant::now();
        let json = Json::parse(&entry.body).map_err(|e| e.to_string())?;
        layer[0] = ms(t.elapsed());
        let t = Instant::now();
        let req = Request::from_json(&json).map_err(|e| e.to_string())?;
        layer[1] = ms(t.elapsed());
        let Request::Tune {
            kernel,
            dense_extent,
            matrix,
        } = req
        else {
            return Err("replayed a request that is not a tune".into());
        };
        let t = Instant::now();
        let m = read_matrix_market(matrix.as_bytes()).map_err(|e| e.to_string())?;
        layer[2] = ms(t.elapsed());
        let t = Instant::now();
        let fp = Fingerprint::of_matrix(&m);
        layer[3] = ms(t.elapsed());
        let t = Instant::now();
        let found = cache.lookup(fp, kernel, dense_extent);
        layer[4] = ms(t.elapsed());
        let (decision, cached) = match found {
            Some(d) => (d, true),
            None => {
                let tuner = match &mut tuner {
                    Some(t) => t,
                    None => tuner.insert(replay_tuner(&bench.dir.0)?),
                };
                let t = Instant::now();
                let outcome = tuner
                    .tune(&m, kernel, dense_extent)
                    .map_err(|e| e.to_string())?;
                tune.push(ms(t.elapsed()));
                let d = waco_serve::Decision {
                    fingerprint: fp,
                    kernel,
                    dense_extent,
                    schedule: outcome.schedule,
                    kernel_seconds: outcome.kernel_seconds,
                    tuning_seconds: outcome.tuning_seconds,
                };
                let t = Instant::now();
                cache.insert(d.clone()).map_err(|e| e.to_string())?;
                insert.push(ms(t.elapsed()));
                (d, false)
            }
        };
        let t = Instant::now();
        std::hint::black_box(encode_frame(&tune_response(&decision, cached)));
        layer[5] = ms(t.elapsed());
        if cached {
            for (samples, v) in hit_layers.iter_mut().zip(layer) {
                samples.push(v);
            }
        }
    }
    // The warm request path: each layer's median over the replayed hits,
    // read against the client's hit p50.
    let names = [
        "serve.json_decode_ms",
        "serve.request_ms",
        "tensor.mtx_parse_ms",
        "serve.fingerprint_ms",
        "serve.lookup_ms",
        "serve.encode_ms",
    ];
    let mut times = Vec::new();
    for (name, samples) in names.into_iter().zip(&mut hit_layers) {
        let v = samples.median()?;
        report.metric(name, v, "ms");
        times.push(v);
    }
    let client_p50 = finite(p.hit.median(), "client hit p50")?;
    report.metric("serve.client_p50_ms", client_p50, "ms");
    report.metric(
        "serve.unattributed_ms",
        unattributed(client_p50, &times),
        "ms",
    );
    if !tune.is_empty() {
        report.metric("serve.tune_ms", tune.mean(), "ms");
        report.metric("serve.insert_ms", insert.mean(), "ms");
    }
    report.note("replay.hits", Json::num(hit_layers[0].len() as f64));
    report.note("replay.tunes", Json::num(tune.len() as f64));
    Ok(())
}

/// An in-process tuner configured like the server's, reading the server's
/// index snapshots, with both pipelines trained up front.
fn replay_tuner(dir: &Path) -> Result<WacoTuner, String> {
    let tuner = WacoTuner::new(WacoTunerConfig {
        index_cache: Some(dir.join("index")),
        ..WacoTunerConfig::default()
    });
    for (kernel, dense) in [(Kernel::SpMV, 0), (Kernel::SpMM, SPMM_DENSE)] {
        tuner.warm_up(kernel, dense).map_err(|e| e.to_string())?;
    }
    Ok(tuner)
}
