//! Helpers shared by the loopback server suites (`chaos`, `resilience`).

use std::io::Read;
use std::net::TcpStream;

/// One complete HTTP response read off a stream:
/// `(status, headers, body)`. `None` if the peer closed or stalled
/// before a complete response arrived.
pub fn read_reply(stream: &mut TcpStream) -> Option<(u16, String, String)> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8(raw[..head_end].to_vec()).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .and_then(|v| v.parse().ok())?;
    let mut body = raw[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => body.extend_from_slice(&buf[..n]),
        }
    }
    body.truncate(content_length);
    Some((status, head, String::from_utf8(body).ok()?))
}

/// The current value of the process-wide `cisa-obs` counter `name`.
pub fn counter(name: &str) -> u64 {
    cisa_obs::snapshot().counter(name)
}
