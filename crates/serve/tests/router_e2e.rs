//! Router end-to-end behaviour under pipelining and shard loss.
//!
//! The shards here are scripted frame echoes, not real servers: the router
//! forwards frames and re-orders responses without inspecting payloads, so a
//! fake shard that tags its replies is enough to observe exactly which shard
//! answered and in what order the client saw it.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use waco_serve::protocol::{read_frame, request_json, write_frame, MAX_FRAME_LEN};
use waco_serve::router::RouterConfigBuilder;
use waco_serve::{Client, Fingerprint, HashRing, Json, Router, RouterConfig};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::io::write_matrix_market;

const TIMEOUT: Duration = Duration::from_secs(30);

/// A shard that answers every well-framed request with `{"ok":true,
/// "shard":id}` after `delay`, until its listener is dropped at test end.
struct FakeShard {
    addr: SocketAddr,
    stop: mpsc::Sender<()>,
}

fn spawn_fake_shard(id: usize, delay: Duration) -> FakeShard {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        loop {
            if stopped.try_recv() != Err(mpsc::TryRecvError::Empty) {
                return;
            }
            match listener.accept() {
                Ok((mut sock, _)) => {
                    sock.set_nonblocking(false).unwrap();
                    while let Ok(Some(_)) = read_frame(&mut sock) {
                        std::thread::sleep(delay);
                        let reply =
                            Json::obj([("ok", Json::Bool(true)), ("shard", Json::num(id as f64))]);
                        if write_frame(&mut sock, &reply).is_err() {
                            break;
                        }
                        let _ = sock.flush();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return,
            }
        }
    });
    FakeShard { addr, stop }
}

/// A tune request whose matrix the `n`-shard ring routes to `target`.
fn request_routed_to(n: usize, target: usize) -> Json {
    let ring = HashRing::new(n);
    for i in 0..10_000u64 {
        let mut rng = Rng64::seed_from(0x70e2 + i);
        let m = gen::banded(30 + (i as usize % 11), 2 + (i as usize % 4), 0.85, &mut rng);
        if ring.route(Fingerprint::of_matrix(&m)) == target {
            let mut text = Vec::new();
            write_matrix_market(&mut text, &m).unwrap();
            return request_json("tune", "spmv", 0, &String::from_utf8(text).unwrap());
        }
    }
    panic!("no matrix found routing to shard {target} of {n}");
}

fn shard_of(reply: &Json) -> u64 {
    reply
        .get("shard")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("reply without a shard tag: {reply}"))
}

fn start_router(shards: &[SocketAddr]) -> Router {
    let mut b = RouterConfig::builder().addr("127.0.0.1:0");
    for s in shards {
        b = b.shard(s.to_string());
    }
    Router::start(b.build().unwrap()).unwrap()
}

/// An address that refuses connections: bound once, then dropped.
fn dead_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap()
}

/// A router over one dead shard, configured by `tweak`. The negative paths
/// below are all answered by the router itself, so no shard is ever dialed.
fn start_shardless_router(
    tweak: impl FnOnce(RouterConfigBuilder) -> RouterConfigBuilder,
) -> Router {
    let b = RouterConfig::builder()
        .addr("127.0.0.1:0")
        .shard(dead_addr().to_string());
    Router::start(tweak(b).build().unwrap()).unwrap()
}

fn raw_connect(router: &Router) -> TcpStream {
    let s = TcpStream::connect(router.local_addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s
}

fn read_error_reply(stream: &mut TcpStream) -> Json {
    let reply = read_frame(stream)
        .unwrap()
        .expect("router must answer with a frame, not a bare disconnect");
    assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(false));
    reply
}

fn error_text(reply: &Json) -> &str {
    reply.get("error").and_then(|v| v.as_str()).unwrap()
}

/// Asserts the peer closed the connection: the next read sees EOF.
fn assert_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    let n = stream
        .read(&mut byte)
        .expect("router must close the connection, not leave it hanging");
    assert_eq!(n, 0, "expected EOF, got a byte");
}

fn stop(router: Router) {
    router.begin_shutdown();
    router.wait();
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    // Shard 0 is slow, shard 1 instant. A slow-fast-slow pipeline must still
    // be answered slow-fast-slow: the fast reply may not overtake.
    let slow = spawn_fake_shard(0, Duration::from_millis(300));
    let fast = spawn_fake_shard(1, Duration::ZERO);
    let router = start_router(&[slow.addr, fast.addr]);

    let to_slow = request_routed_to(2, 0);
    let to_fast = request_routed_to(2, 1);
    let mut client = Client::connect(&router.local_addr().to_string(), TIMEOUT).unwrap();
    client.send(&to_slow).unwrap();
    client.send(&to_fast).unwrap();
    client.send(&to_slow).unwrap();

    let order: Vec<u64> = (0..3).map(|_| shard_of(&client.recv().unwrap())).collect();
    assert_eq!(
        order,
        vec![0, 1, 0],
        "responses must arrive in request order despite shard 1 replying first"
    );
    drop(client);

    router.begin_shutdown();
    router.wait();
    let _ = slow.stop.send(());
    let _ = fast.stop.send(());
}

#[test]
fn dead_primary_fails_over_to_ring_successor() {
    // Shard 0's address is bound once and dropped: connecting is refused.
    // Requests owned by shard 0 must be answered by shard 1, and the router
    // must account the detour.
    let live = spawn_fake_shard(1, Duration::ZERO);
    let router = start_router(&[dead_addr(), live.addr]);

    let to_dead = request_routed_to(2, 0);
    let mut client = Client::connect(&router.local_addr().to_string(), TIMEOUT).unwrap();
    client.send(&to_dead).unwrap();
    let reply = client.recv().unwrap();
    assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(shard_of(&reply), 1, "the live successor must answer");

    let stats = client.stats().unwrap();
    let router_stats = stats
        .get("router")
        .expect("stats must carry a router section");
    let failover = router_stats.get("failover").and_then(|v| v.as_u64());
    let shard_down = router_stats.get("shard_down").and_then(|v| v.as_u64());
    assert!(
        failover >= Some(1),
        "failover counter must record the detour"
    );
    assert!(
        shard_down >= Some(1),
        "shard_down must record the dead primary"
    );
    drop(client);

    router.begin_shutdown();
    router.wait();
    let _ = live.stop.send(());
}

#[test]
fn oversized_length_prefix_is_answered_then_closed() {
    let router = start_shardless_router(|b| b);
    let mut s = raw_connect(&router);
    s.write_all(&(MAX_FRAME_LEN + 7).to_be_bytes()).unwrap();
    let reply = read_error_reply(&mut s);
    assert!(error_text(&reply).contains("cap"), "unexpected: {reply}");
    assert_closed(&mut s);
    stop(router);
}

#[test]
fn malformed_body_is_answered_and_connection_stays_open() {
    let router = start_shardless_router(|b| b);
    let mut s = raw_connect(&router);
    let junk = b"{\"op\":\"stats\""; // cut before the closing brace
    s.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
    s.write_all(junk).unwrap();
    let reply = read_error_reply(&mut s);
    assert!(error_text(&reply).contains("JSON"), "unexpected: {reply}");

    // Framing is intact, so the same connection keeps serving.
    write_frame(&mut s, &Json::obj([("op", Json::str("stats"))])).unwrap();
    let stats = read_frame(&mut s).unwrap().unwrap();
    assert_eq!(stats.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert!(
        stats.get("router").is_some(),
        "stats must come from the router"
    );
    drop(s);
    stop(router);
}

/// The router parses every `tune`/`lookup` body on its reactor thread to
/// fingerprint it, so a size line declaring a huge `nnz` must come back as
/// an error frame, not abort the process.
#[test]
fn declared_nnz_bomb_is_answered_and_connection_stays_open() {
    let router = start_shardless_router(|b| b);
    let mut s = raw_connect(&router);
    for size in [
        "1 1 100000000000000",
        "1 1 18446744073709551615",
        // Declared dimensions: one entry, 10^14 rows or columns.
        "100000000000000 1 1\n1 1 1.0",
        "1 100000000000000 1\n1 1 1.0",
    ] {
        let body = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
        write_frame(&mut s, &request_json("lookup", "spmv", 0, &body)).unwrap();
        let reply = read_error_reply(&mut s);
        assert!(
            error_text(&reply).contains("expected"),
            "unexpected: {reply}"
        );
    }
    write_frame(&mut s, &Json::obj([("op", Json::str("stats"))])).unwrap();
    let stats = read_frame(&mut s).unwrap().unwrap();
    assert!(
        stats.get("router").is_some(),
        "stats must come from the router"
    );
    drop(s);
    stop(router);
}

#[test]
fn connections_over_the_cap_get_busy_then_close() {
    let router = start_shardless_router(|b| b.max_connections(1));
    // The first connection takes the only seat; a roundtrip proves the
    // router has accepted it before the second one arrives.
    let mut first = Client::connect(&router.local_addr().to_string(), TIMEOUT).unwrap();
    first.stats().unwrap();

    let mut second = raw_connect(&router);
    let reply = read_error_reply(&mut second);
    assert_eq!(reply.get("busy").and_then(|v| v.as_bool()), Some(true));
    assert!(
        error_text(&reply).contains("router busy"),
        "unexpected: {reply}"
    );
    assert_closed(&mut second);

    // The seated connection is unaffected.
    assert!(first.stats().is_ok());
    drop(first);
    stop(router);
}

#[test]
fn peer_idle_mid_frame_is_closed_after_the_timeout() {
    let timeout = Duration::from_millis(300);
    let router = start_shardless_router(|b| b.timeout_secs(timeout.as_secs_f64()));
    let mut s = raw_connect(&router);
    // Half a length prefix, then silence: a peer that died mid-frame.
    s.write_all(&[0, 0]).unwrap();
    let sent = Instant::now();
    assert_closed(&mut s);
    assert!(
        sent.elapsed() >= timeout,
        "closed after {:?}, before the {timeout:?} idle timeout",
        sent.elapsed()
    );
    stop(router);
}
