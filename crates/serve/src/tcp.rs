//! TCP front for the daemon: a nonblocking acceptor loop that hands each
//! connection to its own thread running
//! [`serve_connection`] against a cloned
//! [`Handle`]. No per-connection state beyond the stream itself — all
//! serving state lives behind the handle.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::server::Handle;
use crate::wire::serve_connection;

/// Poll interval of the nonblocking accept loop. Accepting is the only
/// place the daemon polls; everything request-side is event-driven.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn handle_connection(mut stream: TcpStream, handle: &Handle) {
    // Connections inherit the listener's nonblocking flag on some
    // platforms; request handling wants plain blocking reads.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let mut serve = |request| handle.call(request);
    // Framing/transport failures are connection-local: log-free close.
    let _ = serve_connection(&mut stream, &mut serve);
}

/// Accepts connections until `stop` is set, spawning one thread per
/// connection. Returns when `stop` is observed; in-flight connection
/// threads finish their current request/reply and exit when their peers
/// close (they are not joined — the process-level daemon lives until
/// killed, and tests set `stop` with no connections open).
pub fn accept_loop(
    listener: &TcpListener,
    handle: &Handle,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let spawned = std::thread::Builder::new()
                    .name("hslb-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &handle));
                // Thread exhaustion: drop the connection; the peer sees a
                // close and retries. The acceptor itself must survive.
                if spawned.is_err() {
                    continue;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::protocol::{Body, Response};
    use crate::server::{Server, ServerOptions};
    use hslb_json::{FromJson, Json};

    fn call_over_tcp(stream: &mut TcpStream, request: &str) -> Response {
        write_frame(stream, request.as_bytes()).expect("request frame writes");
        let payload = read_frame(stream)
            .expect("reply frame reads")
            .expect("server replies before closing");
        let text = std::str::from_utf8(&payload).expect("replies are UTF-8");
        Response::from_json(&Json::parse(text).expect("replies are JSON")).expect("replies decode")
    }

    #[test]
    fn tcp_roundtrip_ping_and_stats() {
        let server = Server::start(ServerOptions::default());
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind succeeds");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &handle, &stop))
        };

        let mut stream = TcpStream::connect(addr).expect("connect to own listener");
        let pong = call_over_tcp(&mut stream, r#"{"op":"ping"}"#);
        assert_eq!(pong.body, Body::Pong);
        let stats = call_over_tcp(&mut stream, r#"{"op":"stats"}"#);
        match stats.body {
            Body::Stats { serve, .. } => assert_eq!(serve.queries, 2),
            other => panic!("expected stats, got {other:?}"),
        }
        drop(stream);

        stop.store(true, Ordering::SeqCst);
        acceptor
            .join()
            .expect("acceptor thread panicked")
            .expect("acceptor exits cleanly");
    }
}
