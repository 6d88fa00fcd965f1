//! A minimal keep-alive HTTP/1.1 client over one `TcpStream`: what the
//! closed-loop workload's callers are.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use les3_data::TokenId;

/// One connection to the server under test.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: its status and JSON body.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one prepared request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(request)?;
        let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(invalid("connection closed before a response head")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            match self.stream.read(&mut chunk)? {
                0 => return Err(invalid("connection closed mid-body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| invalid("response body is not UTF-8"))?;
        self.buf.drain(..head_end + length);
        Ok(Response { status, body })
    }
}

/// The JSON body of a `POST /knn` request.
pub fn knn_body(query: &[TokenId], k: usize) -> String {
    let tokens: Vec<String> = query.iter().map(|t| t.to_string()).collect();
    format!("{{\"query\":[{}],\"k\":{k}}}", tokens.join(","))
}

/// The bytes of a `POST /knn` request, head and body.
pub fn knn_request(query: &[TokenId], k: usize) -> Vec<u8> {
    let body = knn_body(query, k);
    format!(
        "POST /knn HTTP/1.1\r\nHost: les3-bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_net::http::{find_head_end, parse_head};
    use les3_net::wire::{decode_knn, QueryParam};

    #[test]
    fn prepared_request_parses_with_the_servers_own_parsers() {
        let raw = knn_request(&[3, 1, 2], 10);
        let end = find_head_end(&raw).expect("complete head");
        let head = parse_head(&raw[..end]).expect("valid head");
        assert_eq!((head.method.as_str(), head.path.as_str()), ("POST", "/knn"));
        assert_eq!(head.content_length, Some(raw.len() - end));
        assert!(head.keep_alive());
        let query = decode_knn(&raw[end..]).expect("valid body");
        assert_eq!(query.query, vec![3, 1, 2]);
        assert_eq!(query.param, QueryParam::Knn(10));
    }
}
