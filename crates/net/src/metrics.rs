//! The live metrics plane: a tiny blocking HTTP/1.0 scrape endpoint per
//! party.
//!
//! Each party of an observable group binds one scrape listener
//! (`curl http://<addr>/metrics`) when the group spawns and hands it to
//! its loop, which accepts from it nonblockingly in every socket sweep.
//! Each accepted scrape runs on a short-lived thread, under the same cap
//! as inbound handshakes: it snapshots the party's
//! [`MetricsRegistry`] *without pausing any writer* (counters are relaxed
//! atomics), answers with the Prometheus-style text exposition rendered
//! by [`render_exposition`] and closes. No HTTP library is involved: the
//! thread reads one request head, bounded by a 2 s read timeout, writes
//! one response, and ends. The listener closes when the loop stops.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use sintra_telemetry::{render_exposition, MetricsRegistry};

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

/// One party's scrape endpoint: its nonblocking listener and the
/// registry every scrape reads.
pub(crate) struct ScrapeListener {
    party: usize,
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
}

impl ScrapeListener {
    /// Binds the endpoint; nothing is accepted until the party's loop
    /// sweeps it.
    pub(crate) fn bind(
        party: usize,
        config: &MetricsConfig,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ScrapeListener> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(ScrapeListener {
            party,
            listener,
            registry,
        })
    }

    /// The address scrapes should hit.
    pub(crate) fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Takes one pending scrape, if any, as the work that answers it.
    pub(crate) fn accept(&self) -> Option<impl FnOnce() + Send + 'static> {
        let (stream, _) = self.listener.accept().ok()?;
        let (party, registry) = (self.party, Arc::clone(&self.registry));
        // A failing scrape must never take the endpoint down.
        Some(move || drop(serve_one(party, stream, &registry)))
    }
}

/// Reads one request head and writes one exposition response.
fn serve_one(
    party: usize,
    mut stream: TcpStream,
    registry: &MetricsRegistry,
) -> std::io::Result<()> {
    // Some platforms hand out accepted sockets nonblocking, like the
    // listener; the read timeout needs a blocking one.
    stream.set_nonblocking(false)?;
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
        let snap = registry.snapshot();
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
    use sintra_telemetry::Recorder;

    /// Sends `request` to the endpoint, lets it accept and answer on this
    /// thread, and returns the response.
    fn scrape(endpoint: &ScrapeListener, request: &str) -> String {
        let addr = endpoint.addr().expect("bound address");
        let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
        stream.write_all(request.as_bytes()).expect("send request");
        let serve = loop {
            match endpoint.accept() {
                Some(serve) => break serve,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        serve();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn scrape_returns_exposition_with_party_label() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter_add("atomic", "msgs_sent", 11);
        registry.gauge_set("link", "retransmit_queue_bytes", 123);
        let endpoint = ScrapeListener::bind(7, &MetricsConfig::default(), registry.clone())
            .expect("bind scrape endpoint");
        let response = scrape(&endpoint, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("sintra_msgs_sent_total{party=\"7\",scope=\"atomic\"} 11"));
        assert!(
            response.contains("sintra_retransmit_queue_bytes{party=\"7\",scope=\"link\"} 123"),
            "gauges are rendered: {response}"
        );
        // Writers were never paused: counting continues and the next
        // scrape sees the new value.
        registry.counter_add("atomic", "msgs_sent", 1);
        let again = scrape(&endpoint, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(again.contains("sintra_msgs_sent_total{party=\"7\",scope=\"atomic\"} 12"));
        let addr = endpoint.addr().expect("bound address");
        drop(endpoint);
        assert!(
            TcpStream::connect(addr).is_err(),
            "a dropped endpoint refuses connections"
        );
    }

    #[test]
    fn non_get_requests_are_rejected() {
        let registry = Arc::new(MetricsRegistry::new());
        let endpoint = ScrapeListener::bind(0, &MetricsConfig::default(), registry)
            .expect("bind scrape endpoint");
        let response = scrape(&endpoint, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }
}
