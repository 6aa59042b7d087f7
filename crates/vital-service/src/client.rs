//! A blocking TCP client speaking the `vitald` wire protocol.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;

use vital_runtime::{ControlRequest, ControlResponse};

use crate::error::ServiceError;
use crate::wire::{
    read_frame, write_frame, RequestEnvelope, ResponseEnvelope, WireFormat, MAX_FRAME_BYTES,
};

/// A connection to a remote `vitald`. One request is in flight at a time
/// (`&self` calls serialize on an internal lock); responses arrive in
/// request order per connection.
///
/// Frames go out in the compact binary encoding by default;
/// [`RemoteClient::connect_with`] selects [`WireFormat::Json`] for
/// interop with line tools (the server mirrors whichever format each
/// request arrived in).
pub struct RemoteClient {
    io: Mutex<Io>,
    format: WireFormat,
    next_id: std::sync::atomic::AtomicU64,
}

struct Io {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RemoteClient {
    /// Connects to a `vitald` at `addr` (e.g. `"127.0.0.1:7700"`) using
    /// the binary frame encoding.
    pub fn connect(addr: &str) -> std::io::Result<RemoteClient> {
        Self::connect_with(addr, WireFormat::Binary)
    }

    /// Connects with an explicit frame encoding. `WireFormat::Json`
    /// keeps the wire readable (and PR 5 compatible) at roughly 2× the
    /// bytes.
    pub fn connect_with(addr: &str, format: WireFormat) -> std::io::Result<RemoteClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(RemoteClient {
            io: Mutex::new(Io {
                writer,
                reader: BufReader::new(stream),
            }),
            format,
            next_id: std::sync::atomic::AtomicU64::new(1),
        })
    }

    /// Sends one request and waits for its answer. Service rejections
    /// (`Overloaded`, `Draining`, `Timeout`) arrive as
    /// [`ControlResponse::Err`] values, exactly like in-process calls;
    /// `Err` here means the transport itself failed.
    pub fn call(&self, req: ControlRequest) -> Result<ControlResponse, ServiceError> {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut io = self.io.lock().expect("client lock poisoned");
        write_frame(&mut io.writer, &RequestEnvelope { id, req }, self.format)?;
        let (reply, _): (ResponseEnvelope, WireFormat) =
            read_frame(&mut io.reader, MAX_FRAME_BYTES)?;
        if reply.id != id {
            return Err(ServiceError::Protocol(format!(
                "response id {} does not match request id {id}",
                reply.id
            )));
        }
        Ok(reply.resp)
    }
}
