//! `request` frames keep-alive responses however the bytes arrive.

use std::io::{Read, Write};

use cisa_bench::request;

/// A peer that delivers one byte per read, so a response arrives split
/// at every possible boundary.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

impl Write for Trickle<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn request_frames_keep_alive_responses() {
    let mut peer = Trickle(
        b"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nnope!\
          HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}",
    );
    assert_eq!(request(&mut peer, "GET", "/missing", ""), 404);
    assert_eq!(request(&mut peer, "POST", "/v1/affinity", "{}"), 200);
    assert!(peer.0.is_empty(), "both bodies consumed");
}
