//! The live metrics plane: a tiny blocking HTTP/1.0 scrape endpoint per
//! party.
//!
//! Each party of an observable group runs one capped thread that accepts
//! scrape connections (`curl http://<addr>/metrics`), snapshots the
//! party's [`MetricsRegistry`](sintra_telemetry::MetricsRegistry)
//! *without pausing any writer* (counters are relaxed atomics) and
//! answers with the Prometheus-style text exposition rendered by
//! [`render_exposition`]. No HTTP library is involved: the server reads
//! one request head, writes one response, and closes; the thread polls
//! a nonblocking listener until a shutdown flag is set, so teardown
//! joins it deterministically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sintra_core::invariant::OrInvariant;
use sintra_telemetry::{render_exposition, Recorder};

/// Scrape endpoint settings for one party.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Address the scrape listener binds. Port 0 (the default) picks an
    /// ephemeral port per party; read the live addresses back from the
    /// group's `metrics_addrs()`.
    pub addr: SocketAddr,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }
}

/// One party's running scrape endpoint.
pub(crate) struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds the endpoint and starts its accept thread. `source` is the
    /// party's recorder — scrapes read
    /// [`Recorder::snapshot_metrics`] from it on every request.
    pub(crate) fn spawn(
        party: usize,
        config: &MetricsConfig,
        source: Arc<dyn Recorder>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name(format!("sintra-metrics-{party}"))
            .spawn(move || scrape_loop(party, listener, source, flag))
            .or_invariant("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The address scrapes should hit.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread; in-flight sockets
    /// close with the process-visible listener, so a scraper's next
    /// request fails cleanly instead of hanging.
    pub(crate) fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Poll-accept loop: wake every 5ms to observe the shutdown flag, serve
/// one request per connection inline (scrapes are rare and tiny — one
/// thread is the cap).
fn scrape_loop(
    party: usize,
    listener: TcpListener,
    source: Arc<dyn Recorder>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // A failing scrape must never take the endpoint down.
        let _ = serve_one(party, stream, &source);
    }
}

/// Reads one request head and writes one exposition response.
fn serve_one(
    party: usize,
    mut stream: TcpStream,
    source: &Arc<dyn Recorder>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // Read until the blank line ending the request head, bounded so a
    // hostile client cannot grow the buffer without limit.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or_default();
    let (status, body) = if request_line.starts_with("GET ") {
        let snap = source.snapshot_metrics().unwrap_or_default();
        let party_label = party.to_string();
        (
            "200 OK",
            render_exposition(&snap, &[("party", &party_label)]),
        )
    } else {
        ("405 Method Not Allowed", String::from("scrape with GET\n"))
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_telemetry::MetricsRegistry;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn scrape_returns_exposition_with_party_label() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter_add("atomic", "msgs_sent", 11);
        registry.gauge_set("link", "retransmit_queue_bytes", 123);
        let server = MetricsServer::spawn(7, &MetricsConfig::default(), registry.clone())
            .expect("bind scrape endpoint");
        let addr = server.addr();
        let response = scrape(addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("sintra_msgs_sent_total{party=\"7\",scope=\"atomic\"} 11"));
        assert!(
            response.contains("sintra_retransmit_queue_bytes{party=\"7\",scope=\"link\"} 123"),
            "gauges are rendered: {response}"
        );
        // Writers were never paused: counting continues and the next
        // scrape sees the new value.
        registry.counter_add("atomic", "msgs_sent", 1);
        let again = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(again.contains("sintra_msgs_sent_total{party=\"7\",scope=\"atomic\"} 12"));
        server.stop();
        assert!(
            TcpStream::connect(addr).is_err(),
            "stopped endpoint refuses connections"
        );
    }

    #[test]
    fn non_get_requests_are_rejected() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::spawn(0, &MetricsConfig::default(), registry)
            .expect("bind scrape endpoint");
        let response = scrape(server.addr(), "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.stop();
    }
}
