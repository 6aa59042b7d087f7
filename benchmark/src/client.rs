//! The benchmark's own TCP client: one connection, binary framing, many
//! requests in flight, replies matched to requests in order.
//!
//! `RemoteClient` allows one request in flight; the windowed closed loop
//! and the open loop need more, so they speak the wire protocol directly
//! through its public pieces: [`encode_frame`] on the way out, a
//! [`FrameDecoder`] on the way in. The server answers one connection in
//! request order, so the head of the in-flight queue is always the request
//! the next reply belongs to; an id that disagrees is a protocol error.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use vital::runtime::{ControlRequest, ControlResponse};
use vital::service::{
    encode_frame, FrameDecoder, RequestEnvelope, ResponseEnvelope, ServiceError, WireFormat,
    MAX_FRAME_BYTES,
};

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 64 * 1024;

/// One connection with `T` remembered per request in flight.
pub struct Pipeline<T> {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_id: u64,
    in_flight: VecDeque<(u64, T)>,
    frame: Vec<u8>,
    chunk: Vec<u8>,
}

impl<T> Pipeline<T> {
    /// Connects to `addr`. A blocking pipeline parks in [`Pipeline::poll`]
    /// until bytes arrive (closed loops); a non-blocking one returns at
    /// once (the open loop, which must get back to its schedule).
    pub fn connect(addr: &str, nonblocking: bool) -> std::io::Result<Pipeline<T>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(nonblocking)?;
        Ok(Pipeline {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            next_id: 1,
            in_flight: VecDeque::new(),
            frame: Vec::new(),
            chunk: vec![0; READ_CHUNK],
        })
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends one request and remembers `tag` until its reply arrives.
    pub fn send(&mut self, req: ControlRequest, tag: T) -> Result<(), ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        encode_frame(
            &RequestEnvelope { id, req },
            WireFormat::Binary,
            MAX_FRAME_BYTES,
            &mut self.frame,
        )?;
        let mut sent = 0;
        while sent < self.frame.len() {
            match self.stream.write(&self.frame[sent..]) {
                Ok(0) => return Err(ServiceError::Disconnected),
                Ok(n) => sent += n,
                // A full socket buffer on a non-blocking stream: the
                // server is reading, so this clears within microseconds.
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.in_flight.push_back((id, tag));
        Ok(())
    }

    /// Reads what the socket has (waiting for the first byte when
    /// blocking) and hands every complete reply, with the tag of the
    /// request it answers, to `on_reply`.
    pub fn poll(
        &mut self,
        mut on_reply: impl FnMut(T, ControlResponse),
    ) -> Result<(), ServiceError> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err(ServiceError::Disconnected),
            Ok(n) => self.decoder.extend(&self.chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => return Err(e.into()),
        }
        while let Some((reply, _)) = self.decoder.next_frame::<ResponseEnvelope>()? {
            let (id, tag) = self.in_flight.pop_front().ok_or_else(|| {
                ServiceError::Protocol(format!("reply {} answers no request", reply.id))
            })?;
            if reply.id != id {
                return Err(ServiceError::Protocol(format!(
                    "reply {} arrived where {id} was due: replies out of order",
                    reply.id
                )));
            }
            on_reply(tag, reply.resp);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use vital::service::read_frame;

    /// A peer that reads `n` requests and then answers them all at once,
    /// in the order `order` gives.
    fn peer(n: usize, order: fn(Vec<u64>) -> Vec<u64>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let ids: Vec<u64> = (0..n)
                .map(|_| {
                    let (env, _): (RequestEnvelope, _) =
                        read_frame(&mut stream, MAX_FRAME_BYTES).unwrap();
                    env.id
                })
                .collect();
            let mut wire = Vec::new();
            for id in order(ids) {
                let reply = ResponseEnvelope {
                    id,
                    resp: ControlResponse::Undeployed { tenant: id },
                };
                encode_frame(&reply, WireFormat::Binary, MAX_FRAME_BYTES, &mut wire).unwrap();
            }
            // Split mid-frame: the decoder must wait for the rest.
            let cut = wire.len() / 2 + 1;
            stream.write_all(&wire[..cut]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
            stream.write_all(&wire[cut..]).unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn pipelined_replies_are_matched_to_requests_in_order() {
        let (addr, handle) = peer(3, |ids| ids);
        let mut pipe: Pipeline<&str> = Pipeline::connect(&addr, false).unwrap();
        for tag in ["a", "b", "c"] {
            pipe.send(ControlRequest::Status, tag).unwrap();
        }
        assert_eq!(pipe.in_flight(), 3);
        let mut got = Vec::new();
        while pipe.in_flight() > 0 {
            pipe.poll(|tag, resp| got.push((tag, resp))).unwrap();
        }
        handle.join().unwrap();
        let tags: Vec<&str> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, ["a", "b", "c"]);
        assert_eq!(got[2].1, ControlResponse::Undeployed { tenant: 3 });
    }

    #[test]
    fn a_reply_out_of_order_is_a_protocol_error() {
        let (addr, handle) = peer(2, |ids| ids.into_iter().rev().collect());
        let mut pipe: Pipeline<()> = Pipeline::connect(&addr, false).unwrap();
        pipe.send(ControlRequest::Status, ()).unwrap();
        pipe.send(ControlRequest::Status, ()).unwrap();
        let err = loop {
            match pipe.poll(|(), _| {}) {
                Ok(()) if pipe.in_flight() > 0 => {}
                Ok(()) => panic!("swapped replies were accepted"),
                Err(e) => break e,
            }
        };
        handle.join().unwrap();
        assert!(matches!(err, ServiceError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn a_non_blocking_poll_returns_without_a_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut pipe: Pipeline<()> = Pipeline::connect(&addr, true).unwrap();
        let _peer = listener.accept().unwrap();
        pipe.send(ControlRequest::Status, ()).unwrap();
        let mut replies = 0;
        pipe.poll(|(), _| replies += 1).unwrap();
        assert_eq!((replies, pipe.in_flight()), (0, 1));
    }
}
