//! Streaming trace sink: continuous spill of [`TraceEvent`]s to rotating
//! per-party `.jsonl` files.
//!
//! The flight recorder keeps a bounded ring that is only externalized on
//! a stall or on demand — fine for wedged runs, useless for explaining a
//! *healthy-but-slow* one, because by the time anyone asks, the
//! interesting rounds have been evicted. A [`TraceStream`] fixes that:
//! the party's loop owns it and renders every event it emits as one JSON
//! line into the open segment's write buffer. Nothing is shared and
//! nothing waits: the buffer reaches the file when it fills, when the
//! loop calls [`TraceStream::flush`] before it parks, and when the
//! stream is dropped, so a server loop that owns its sink leaves a
//! complete trace behind on every exit path.
//!
//! Disk use is bounded: segments rotate at 8 MiB and only the newest 8
//! are kept. Each segment file starts with a header line carrying
//! [`TRACE_SCHEMA`] and the party index; every following line is one
//! [`TraceEvent::to_json`] object. (Files written before the sink moved
//! onto the loop may also hold `{"dropped":n}` markers; readers accept
//! them.) A write error stops the sink with one line on stderr.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use crate::trace::TraceEvent;

/// Schema tag written in every segment's header line.
pub const TRACE_SCHEMA: &str = "sintra-trace-v1";

/// Size at which the current segment closes and the next one opens; a
/// segment overshoots it by at most one line.
const ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Newest segments kept on disk; older ones are deleted at rotation.
const MAX_SEGMENTS: u64 = 8;

/// The canonical segment file name, shared with readers that glob for
/// `sintra-trace-*.jsonl`.
pub fn segment_file_name(party: usize, segment: u64) -> String {
    format!("sintra-trace-{party}-{segment:04}.jsonl")
}

/// One party's streaming sink: the open segment behind a write buffer,
/// its size, and its rotation. Dropping it flushes the tail.
#[derive(Debug)]
pub struct TraceStream {
    dir: PathBuf,
    party: usize,
    rotate_bytes: u64,
    max_segments: u64,
    segment: u64,
    bytes: u64,
    /// The open segment; `None` once a write failed and the sink stopped.
    file: Option<BufWriter<File>>,
    /// One line being rendered, reused for every event.
    line: String,
}

impl TraceStream {
    /// Creates the trace directory and opens the party's first segment.
    pub fn open(party: usize, dir: impl Into<PathBuf>) -> std::io::Result<TraceStream> {
        TraceStream::with_limits(party, dir.into(), ROTATE_BYTES, MAX_SEGMENTS)
    }

    fn with_limits(
        party: usize,
        dir: PathBuf,
        rotate_bytes: u64,
        max_segments: u64,
    ) -> std::io::Result<TraceStream> {
        std::fs::create_dir_all(&dir)?;
        let mut stream = TraceStream {
            dir,
            party,
            rotate_bytes,
            max_segments: max_segments.max(1),
            segment: 0,
            bytes: 0,
            file: None,
            line: String::with_capacity(256),
        };
        stream.file = Some(stream.open_segment()?);
        Ok(stream)
    }

    /// Appends one event as a JSON line to the write buffer, rotating
    /// when the segment has grown past its size.
    pub fn record(&mut self, event: &TraceEvent) {
        let Some(file) = &mut self.file else { return };
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        let written = file.write_all(self.line.as_bytes());
        self.bytes += self.line.len() as u64;
        let rotated = if written.is_ok() && self.bytes >= self.rotate_bytes {
            self.rotate()
        } else {
            written
        };
        self.stop_on(rotated);
    }

    /// Writes the buffered lines to the segment file; a no-op when the
    /// buffer is empty.
    pub fn flush(&mut self) {
        if let Some(file) = &mut self.file {
            let flushed = file.flush();
            self.stop_on(flushed);
        }
    }

    /// Closes the current segment, opens the next one and deletes the one
    /// that falls off the retention window.
    fn rotate(&mut self) -> std::io::Result<()> {
        if let Some(file) = &mut self.file {
            file.flush()?;
        }
        self.segment += 1;
        self.file = Some(self.open_segment()?);
        if self.segment >= self.max_segments {
            let stale = self.segment - self.max_segments;
            let _ = std::fs::remove_file(self.dir.join(segment_file_name(self.party, stale)));
        }
        Ok(())
    }

    /// Creates the current segment's file and writes its header line.
    fn open_segment(&mut self) -> std::io::Result<BufWriter<File>> {
        let path = self.dir.join(segment_file_name(self.party, self.segment));
        let mut file = BufWriter::new(File::create(path)?);
        let header = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"party\":{},\"segment\":{}}}\n",
            self.party, self.segment
        );
        file.write_all(header.as_bytes())?;
        self.bytes = header.len() as u64;
        Ok(file)
    }

    /// Stops the sink, with one line on stderr, when `result` failed.
    fn stop_on(&mut self, result: std::io::Result<()>) {
        if result.is_err() && self.file.take().is_some() {
            eprintln!(
                "sintra: party {} trace stream write failed; stopping the sink",
                self.party
            );
        }
    }
}

impl Drop for TraceStream {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sintra-stream-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ev(party: usize, seq: u64) -> TraceEvent {
        let mut e = TraceEvent::new(party, "atomic/ba/1", "abba")
            .phase("pre-vote")
            .round(seq)
            .caused_by(1, seq);
        e.time_us = 10 + seq;
        e
    }

    #[test]
    fn writes_header_then_events_and_flushes_on_drop() {
        let dir = temp_dir("basic");
        let path = dir.join(segment_file_name(3, 0));
        let mut stream = TraceStream::open(3, &dir).expect("open stream");
        for seq in 0..5 {
            stream.record(&ev(3, seq));
        }
        drop(stream);
        let body = std::fs::read_to_string(&path).expect("segment exists");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 6, "header + 5 events: {body}");
        assert_eq!(
            lines[0],
            format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"party\":3,\"segment\":0}}")
        );
        assert_eq!(
            lines[1],
            "{\"time_us\":10,\"party\":3,\"protocol\":\"atomic/ba/1\",\"family\":\"abba\",\"phase\":\"pre-vote\",\"round\":0,\"bytes\":0,\"cause\":[1,0]}"
        );
        for (i, line) in lines[1..].iter().enumerate() {
            assert_eq!(*line, ev(3, i as u64).to_json(), "line {i}");
            assert!(line.contains(&format!("\"round\":{i}")), "line {i}: {line}");
            assert!(line.contains("\"cause\":[1,"), "line {i}: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotates_segments_and_prunes_old_ones() {
        let dir = temp_dir("rotate");
        let mut stream = TraceStream::with_limits(0, dir.clone(), 256, 2).expect("open stream");
        for seq in 0..200 {
            stream.record(&ev(0, seq));
        }
        drop(stream);
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        segments.sort();
        assert_eq!(segments.len(), 2, "retention keeps two: {segments:?}");
        assert!(
            !dir.join(segment_file_name(0, 0)).exists(),
            "segment 0 pruned"
        );
        let mut last_line = None;
        for path in &segments {
            let body = std::fs::read_to_string(path).expect("segment readable");
            let mut lines = body.lines();
            assert!(lines.next().expect("header").contains(TRACE_SCHEMA));
            // A segment overshoots its size by at most one line.
            assert!(body.len() < 256 + 200, "{path:?} is {} bytes", body.len());
            for line in lines {
                last_line = Some(line.to_string());
            }
        }
        assert!(
            last_line.is_some_and(|line| line.contains("\"round\":199")),
            "the newest event is on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
