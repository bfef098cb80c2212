//! Connection lifecycle under churn and fd exhaustion: a server that
//! has finished many connections holds no more file descriptors than
//! before them, and an `accept` that fails for lack of descriptors is
//! counted and retried until the pending connection is served.
//!
//! Both tests count or exhaust this process's descriptor table, so they
//! live in their own test binary and take [`FD_TABLE`] to run one at a
//! time.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_obs::metrics::SERVER_SCOPE;
use xbar_obs::names;
use xbar_serve::{Client, Response, ServeConfig, Server, VictimRegistry};

/// Linux `EMFILE`: the per-process descriptor limit is reached.
const EMFILE: i32 = 24;

static FD_TABLE: Mutex<()> = Mutex::new(());

fn start_server() -> Server {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
        Activation::Identity,
    );
    let cfg = OracleConfig::ideal().with_access(OutputAccess::Raw);
    let mut registry = VictimRegistry::new();
    registry
        .insert("toy", Oracle::new(net, &cfg, 5).unwrap())
        .unwrap();
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", registry, config).unwrap()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn connection_churn_leaves_fd_count_flat() {
    let _fd_table = FD_TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start_server();
    let addr = server.local_addr();
    let before = open_fds();

    // 2,000 connect/hello/close cycles, 50 connections at a time so the
    // accept loop takes them in bursts.
    for _ in 0..40 {
        let clients: Vec<Client> = (0..50).map(|_| Client::connect(addr).unwrap()).collect();
        for (i, mut client) in clients.into_iter().enumerate() {
            let session = format!("churn-{i}");
            client.hello(&session, Some("toy"), Some(1), None).unwrap();
            client.close(&session).unwrap();
        }
    }

    // Handlers notice the hang-up asynchronously; give them time to exit.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > before + 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(after <= before + 8, "fds grew from {before} to {after}");
    server.shutdown();
}

#[test]
fn accept_retries_after_fd_exhaustion() {
    let _fd_table = FD_TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start_server();
    let addr = server.local_addr();

    // 1. Hold descriptors until the process limit is reached.
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => held.push(file),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "{e}");
                break;
            }
        }
    }

    // 2. Free exactly one descriptor for the client socket; the server's
    //    `accept` then has none left for its side. Its own polling
    //    `accept` may hold the freed slot for an instant, so retry.
    held.pop();
    let connect_deadline = Instant::now() + Duration::from_secs(5);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(e) if e.raw_os_error() == Some(EMFILE) && Instant::now() < connect_deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("connect: {e}"),
        }
    };
    std::thread::sleep(Duration::from_millis(100));

    // 3. Free the descriptors: the pending connection must be served.
    drop(held);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream)
        .write_all(b"{\"op\":\"hello\",\"session\":\"starved\",\"victim\":\"toy\",\"seed\":1}\n")
        .expect("send hello");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("no hello reply: the server stopped accepting");
    let response: Response = serde_json::from_str(reply.trim()).unwrap();
    assert!(response.ok, "{reply}");

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    let accept_errors = stats
        .get("victims")
        .and_then(|v| v.get(SERVER_SCOPE))
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(names::SERVE_ACCEPT_ERRORS));
    assert!(
        matches!(accept_errors, Some(serde::Value::U64(n)) if *n >= 1),
        "{accept_errors:?}"
    );
    server.shutdown();
}
