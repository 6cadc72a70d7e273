//! An inline-QASM request with a non-finite angle gets a typed
//! `bad_qasm` reply instead of tying up a worker: such an angle once sent
//! the compile into an endless eigensolver loop.

use paqoc_serve::{BindAddr, Client, Endpoint, Request, Response, ServeOptions, Server};
use std::time::Duration;

#[test]
fn inline_qasm_with_a_non_finite_angle_is_bad_qasm() {
    let server = Server::start(ServeOptions {
        addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("server start");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());

    // Behind a watchdog, so a regression fails instead of stalling CI.
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let mut client = Client::new(endpoint, Duration::from_secs(30));
        let mut req = Request::compile(1, "tenant-a", "unused");
        req.benchmark = None;
        req.qasm =
            Some("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(1/0) q[0];\ncx q[0],q[1];\n".into());
        let _ = tx.send(client.call(&req).expect("transport must not fail"));
    });
    let reply = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("no reply within 10 s");
    caller.join().expect("the caller exits after sending");
    match reply {
        Response::Error { kind, message } => {
            assert_eq!(kind, "bad_qasm", "{message}");
            assert!(message.contains("line 4"), "{message}");
            assert!(message.contains("not finite"), "{message}");
        }
        other => panic!("expected a bad_qasm error, got {other:?}"),
    }
    server.drain();
}
