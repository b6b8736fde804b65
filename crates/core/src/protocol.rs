//! Wire protocol for the serving daemon: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**, and every frame
//! carries a CRC32 trailer flagged in the length prefix:
//!
//! ```text
//! [ len|FRAME_FLAG_CRC: u32 LE ][ crc32(body): u32 LE ][ body: len bytes ]
//! body = [ tag: u8 ][ payload: len − 1 bytes ]
//! ```
//!
//! Bit 31 of the length prefix ([`FRAME_FLAG_CRC`]) is always set: the
//! four bytes after the prefix are an IEEE CRC32 of the body and the
//! decoder rejects any mismatch with a typed
//! [`ProtocolError::CrcMismatch`]. A prefix without the flag is refused
//! before another byte is read, so there is no unchecked way in: a flipped
//! bit anywhere in a frame — prefix, checksum or body — is *detected*,
//! never served as silently-wrong floats.
//! Frame bodies are capped at [`MAX_FRAME_LEN`] (far below bit 31, so the
//! flag can never collide with a legal length); a larger prefix is
//! rejected *before* any allocation, so a hostile client cannot make the
//! server reserve gigabytes with four bytes. Decoding is total: any byte
//! sequence either parses or returns a typed [`ProtocolError`] — never a
//! panic, never an unbounded read.
//!
//! The payload formats are deliberately primitive (little-endian integers
//! and raw f32 rows) so a client in any language is a page of code:
//!
//! | request            | payload                                    |
//! |--------------------|--------------------------------------------|
//! | `Lookup`           | `n: u32`, then `n × u32` item ids          |
//! | `LookupDeadline`   | `budget_micros: u64`, `n: u32`, `n × u32`  |
//! | `Ping`             | empty                                      |
//! | `Stats`            | empty                                      |
//! | `Health`           | empty — liveness probe, JSON response      |
//! | `Ready`            | empty — readiness probe, JSON response     |
//! | `ShardMap`         | empty — shard topology query, JSON response|
//! | `Reload`           | UTF-8 snapshot path (daemon-local, ≤ 4 KiB)|
//! | `Shutdown`         | empty                                      |
//!
//! | response status    | payload                                    |
//! |--------------------|--------------------------------------------|
//! | `Ok`               | empty — plain acknowledgement              |
//! | `OkRows`           | `n: u32`, `row_len: u32`, `n×row_len` f32  |
//! | `OkJson`           | UTF-8 JSON                                 |
//! | `Overloaded`       | empty — request was shed, retry later      |
//! | `BadRequest`       | UTF-8 message                              |
//! | `ServerError`      | UTF-8 message                              |
//! | `DeadlineExceeded` | `stage: u8` — where the deadline expired   |
//! | `WrongShard`       | `id u32, shard u32, of u32, start u64, n u64` |
//!
//! Rows and JSON successes carry **distinct status bytes** — the payload
//! is never sniffed to tell them apart, so a row count whose low byte
//! happens to equal `b'{'` decodes exactly like any other.
//!
//! `LookupDeadline` is the deadline-propagation path: the client states
//! how much of its latency budget remains (`budget_micros`, measured from
//! the moment the daemon decodes the frame) and every downstream stage —
//! admission, the batch queue, the rayon batch call — sheds the work with
//! a typed [`Response::DeadlineExceeded`] the moment the budget cannot be
//! met, instead of burning compute on a response the caller has already
//! abandoned. `Overloaded` and `DeadlineExceeded` both guarantee the
//! lookup was **not** served, but only `Overloaded` invites a retry.

use crate::artifact::crc32;
use crate::le;
use std::io::{self, Read, Write};

/// Bit set in the length prefix of every frame: the frame carries a CRC32
/// trailer between the prefix and the body. [`MAX_FRAME_LEN`] keeps legal
/// lengths far below this bit, so flag and length can never collide.
pub const FRAME_FLAG_CRC: u32 = 1 << 31;

/// Hard cap on a frame body. Large enough for a 4096-item lookup response
/// at d = 512 (4096 × 1024 × 4 B = 16 MiB), small enough that a hostile
/// length prefix cannot balloon server memory.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Cap on items in one lookup request; keeps a single client from queuing
/// an unbounded batch ahead of everyone else. This is the *protocol*
/// ceiling — a server whose rows are wide enough that this many rows would
/// overflow [`MAX_FRAME_LEN`] must also enforce
/// [`max_lookup_items_for_row_len`] and reject the excess as a bad request.
pub const MAX_LOOKUP_ITEMS: u32 = 65_536;

/// Cap on a reload request's snapshot path. Bounds every error/summary
/// message that echoes the path, so responses can never outgrow
/// [`MAX_FRAME_LEN`].
pub const MAX_RELOAD_PATH_LEN: usize = 4_096;

/// Bytes of a rows response body before the f32 payload: status tag,
/// `n: u32`, `row_len: u32`.
pub const ROWS_HEADER_LEN: usize = 9;

/// The largest lookup answerable in one frame when each row carries
/// `row_len` f32 values: `n` such that
/// `ROWS_HEADER_LEN + n × row_len × 4 ≤ MAX_FRAME_LEN`, further clamped to
/// [`MAX_LOOKUP_ITEMS`]. Servers must reject larger lookups up front
/// instead of building an unsendable response.
pub fn max_lookup_items_for_row_len(row_len: u32) -> u32 {
    let per_row = row_len as u64 * 4;
    if per_row == 0 {
        return MAX_LOOKUP_ITEMS;
    }
    let budget = MAX_FRAME_LEN as u64 - ROWS_HEADER_LEN as u64;
    (budget / per_row).min(MAX_LOOKUP_ITEMS as u64) as u32
}

/// Request opcodes (the first body byte of a request frame).
pub mod op {
    /// Batched condensed-service lookup.
    pub const LOOKUP: u8 = 0x01;
    /// Liveness probe; empty `Ok` response.
    pub const PING: u8 = 0x02;
    /// Daemon statistics as JSON.
    pub const STATS: u8 = 0x03;
    /// Hot-swap the serving snapshot from a daemon-local path.
    pub const RELOAD: u8 = 0x04;
    /// Graceful daemon shutdown.
    pub const SHUTDOWN: u8 = 0x05;
    /// Batched lookup with a deadline budget (`budget_micros: u64` before
    /// the id count).
    pub const LOOKUP_DL: u8 = 0x06;
    /// Liveness probe; JSON response (always answers while the process
    /// lives).
    pub const HEALTH: u8 = 0x07;
    /// Readiness probe; JSON response (`ready` is true only when the
    /// daemon can actually serve lookups right now).
    pub const READY: u8 = 0x08;
    /// Shard-topology query; JSON response describing the entity-range
    /// shard the current snapshot covers (the router's map source).
    pub const SHARD_MAP: u8 = 0x09;
}

/// Response statuses (the first body byte of a response frame).
pub mod status {
    /// Request served; empty payload (ping/shutdown acknowledgement).
    pub const OK: u8 = 0x00;
    /// Admission control shed the request — the queue was full. The
    /// request was **not** executed; retrying later is safe.
    pub const OVERLOADED: u8 = 0x01;
    /// The request frame was structurally invalid; payload is a message.
    pub const BAD_REQUEST: u8 = 0x02;
    /// The daemon failed to execute a valid request; payload is a message.
    pub const SERVER_ERROR: u8 = 0x03;
    /// Request served; payload is a rows header plus raw f32 rows.
    pub const OK_ROWS: u8 = 0x04;
    /// Request served; payload is UTF-8 JSON (stats, reload summaries).
    pub const OK_JSON: u8 = 0x05;
    /// The request's deadline budget expired before it could be served;
    /// payload is one stage byte ([`super::DeadlineStage`]). The request
    /// was **not** executed, but unlike `OVERLOADED` a retry is pointless —
    /// the caller's budget is already spent.
    pub const DEADLINE_EXCEEDED: u8 = 0x06;
    /// A lookup item falls outside the entity-range shard this daemon
    /// serves; payload is `id u32, shard_id u32, n_shards u32,
    /// row_start u64, n_rows u64` so the client can re-route. The request
    /// was **not** executed; retrying the same daemon cannot help.
    pub const WRONG_SHARD: u8 = 0x07;
}

/// Where in the serving pipeline a deadline budget ran out. Carried as the
/// single payload byte of a [`status::DEADLINE_EXCEEDED`] response and
/// counted per-stage in `BatchStats`, so an operator can tell "queue too
/// deep" (`Queued`) from "budget too small for one batch" (`Executing`)
/// from "client sent dead-on-arrival work" (`AtEnqueue`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Already expired when the daemon tried to enqueue it.
    AtEnqueue = 0,
    /// Expired while waiting in the batch queue.
    Queued = 1,
    /// Expired during (or by the end of) batch execution.
    Executing = 2,
}

impl DeadlineStage {
    /// Decode a stage byte; `None` for bytes no stage uses.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(DeadlineStage::AtEnqueue),
            1 => Some(DeadlineStage::Queued),
            2 => Some(DeadlineStage::Executing),
            _ => None,
        }
    }

    /// Human-readable stage name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineStage::AtEnqueue => "at-enqueue",
            DeadlineStage::Queued => "queued",
            DeadlineStage::Executing => "executing",
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up condensed service vectors for these item ids.
    Lookup(Vec<u32>),
    /// Look up with a latency budget: the daemon sheds the work with
    /// [`Response::DeadlineExceeded`] once `budget_micros` have elapsed
    /// from the moment it decoded this frame.
    LookupDeadline {
        /// Remaining client budget in microseconds, measured at decode.
        budget_micros: u64,
        /// Item ids to look up, same caps as `Lookup`.
        items: Vec<u32>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch daemon statistics.
    Stats,
    /// Liveness probe with a JSON body (uptime, restart counters).
    Health,
    /// Readiness probe: can the daemon serve a lookup *right now*?
    Ready,
    /// Shard-topology query: which entity range does the current snapshot
    /// cover? Answered with JSON so a router can build its shard map.
    ShardMap,
    /// Hot-swap the serving snapshot from this daemon-local path.
    Reload(String),
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Lookup result: one `row_len`-float vector per requested item, in
    /// request order.
    Rows { row_len: u32, rows: Vec<Vec<f32>> },
    /// Empty `Ok` (ping acknowledgement).
    Empty,
    /// `Ok` with a JSON payload (stats, reload summaries).
    Json(String),
    /// The request was shed by admission control.
    Overloaded,
    /// The request's deadline budget expired at this stage; it was not
    /// executed, and retrying cannot help.
    DeadlineExceeded(DeadlineStage),
    /// The request was malformed.
    BadRequest(String),
    /// The daemon failed internally.
    ServerError(String),
    /// A requested item id is outside the entity-range shard this daemon
    /// serves. Carries the offending id plus the daemon's shard identity
    /// and covered row range so the client can re-route the lookup.
    WrongShard {
        /// First requested id outside the shard range.
        id: u32,
        /// The daemon's shard index.
        shard_id: u32,
        /// Total shards the table was split into.
        n_shards: u32,
        /// Global id of the shard's first row.
        row_start: u64,
        /// Rows in the shard (covered ids are `[row_start, row_start + n_rows)`).
        n_rows: u64,
    },
}

/// Typed decode/transport errors. Every malformed input maps to one of
/// these; the daemon turns them into `BadRequest` responses and the client
/// into hard errors — neither side panics.
#[derive(Debug)]
pub enum ProtocolError {
    /// The body declared by the length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge { len: u32, max: u32 },
    /// A zero-length body (a frame must carry at least its tag byte).
    EmptyFrame,
    /// The stream ended inside a frame (header or body).
    Truncated { expected: usize, got: usize },
    /// An opcode byte no request uses.
    UnknownOpcode(u8),
    /// An unknown response status byte.
    UnknownStatus(u8),
    /// Structurally invalid payload for the tagged message.
    Malformed(&'static str),
    /// A lookup asked for more than [`MAX_LOOKUP_ITEMS`] items.
    TooManyItems { n: u32, max: u32 },
    /// A frame's CRC32 trailer disagreed with its body — the frame was
    /// corrupted in flight.
    CrcMismatch { expected: u32, got: u32 },
    /// Underlying socket error.
    Io(io::Error),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::EmptyFrame => write!(f, "empty frame body (missing tag byte)"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            ProtocolError::UnknownStatus(s) => write!(f, "unknown response status {s:#04x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::TooManyItems { n, max } => {
                write!(f, "lookup of {n} items exceeds the {max}-item cap")
            }
            ProtocolError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: trailer {expected:#010x}, body hashes to {got:#010x}"
                )
            }
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Split a little-endian `u32` off the front of `buf`.
fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    *buf = rest;
    Some(u32::from_le_bytes(*head))
}

/// Split a little-endian `u64` off the front of `buf`.
fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    let (head, rest) = buf.split_first_chunk::<8>()?;
    *buf = rest;
    Some(u64::from_le_bytes(*head))
}

/// Decode the shared tail of `Lookup` / `LookupDeadline`: `n: u32` then
/// `n × u32` ids, capped at [`MAX_LOOKUP_ITEMS`].
fn decode_lookup_items(payload: &mut &[u8]) -> Result<Vec<u32>, ProtocolError> {
    let n = take_u32(payload).ok_or(ProtocolError::Malformed(
        "lookup payload shorter than count",
    ))?;
    if n > MAX_LOOKUP_ITEMS {
        return Err(ProtocolError::TooManyItems {
            n,
            max: MAX_LOOKUP_ITEMS,
        });
    }
    if payload.len() != n as usize * 4 {
        return Err(ProtocolError::Malformed(
            "lookup id bytes disagree with the declared count",
        ));
    }
    Ok(le::to_vec(payload))
}

/// Decode a request body (tag + payload, no length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let (&opcode, mut payload) = body.split_first().ok_or(ProtocolError::EmptyFrame)?;
    match opcode {
        op::LOOKUP => Ok(Request::Lookup(decode_lookup_items(&mut payload)?)),
        op::LOOKUP_DL => {
            let budget_micros = take_u64(&mut payload).ok_or(ProtocolError::Malformed(
                "deadline lookup payload shorter than budget",
            ))?;
            let items = decode_lookup_items(&mut payload)?;
            Ok(Request::LookupDeadline {
                budget_micros,
                items,
            })
        }
        op::PING | op::STATS | op::SHUTDOWN | op::HEALTH | op::READY | op::SHARD_MAP => {
            if !payload.is_empty() {
                return Err(ProtocolError::Malformed(
                    "ping/stats/shutdown/health/ready/shard-map carry no payload",
                ));
            }
            Ok(match opcode {
                op::PING => Request::Ping,
                op::STATS => Request::Stats,
                op::HEALTH => Request::Health,
                op::READY => Request::Ready,
                op::SHARD_MAP => Request::ShardMap,
                _ => Request::Shutdown,
            })
        }
        op::RELOAD => {
            if payload.len() > MAX_RELOAD_PATH_LEN {
                return Err(ProtocolError::Malformed("reload path too long"));
            }
            let path = std::str::from_utf8(payload)
                .map_err(|_| ProtocolError::Malformed("reload path is not UTF-8"))?;
            if path.is_empty() {
                return Err(ProtocolError::Malformed("reload path is empty"));
            }
            Ok(Request::Reload(path.to_string()))
        }
        other => Err(ProtocolError::UnknownOpcode(other)),
    }
}

/// Encode a request into a full frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Lookup(items) => {
            let mut out = begin_frame(op::LOOKUP, 4 + items.len() * 4);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            le::extend(&mut out, items);
            seal_frame(out)
        }
        Request::LookupDeadline {
            budget_micros,
            items,
        } => {
            let mut out = begin_frame(op::LOOKUP_DL, 12 + items.len() * 4);
            out.extend_from_slice(&budget_micros.to_le_bytes());
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            le::extend(&mut out, items);
            seal_frame(out)
        }
        Request::Ping => tagged_frame(op::PING, &[]),
        Request::Stats => tagged_frame(op::STATS, &[]),
        Request::Health => tagged_frame(op::HEALTH, &[]),
        Request::Ready => tagged_frame(op::READY, &[]),
        Request::ShardMap => tagged_frame(op::SHARD_MAP, &[]),
        Request::Reload(path) => tagged_frame(op::RELOAD, path.as_bytes()),
        Request::Shutdown => tagged_frame(op::SHUTDOWN, &[]),
    }
}

/// Decode a response body (tag + payload, no length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    let (&tag, mut payload) = body.split_first().ok_or(ProtocolError::EmptyFrame)?;
    match tag {
        status::OK => {
            if !payload.is_empty() {
                return Err(ProtocolError::Malformed("plain ok carries no payload"));
            }
            Ok(Response::Empty)
        }
        status::OK_JSON => {
            let json = std::str::from_utf8(payload)
                .map_err(|_| ProtocolError::Malformed("JSON payload is not UTF-8"))?;
            Ok(Response::Json(json.to_string()))
        }
        status::OK_ROWS => {
            let n = take_u32(&mut payload)
                .ok_or(ProtocolError::Malformed("rows payload shorter than header"))?;
            let row_len = take_u32(&mut payload)
                .ok_or(ProtocolError::Malformed("rows payload shorter than header"))?;
            let expect = (n as usize)
                .checked_mul(row_len as usize)
                .and_then(|f| f.checked_mul(4))
                .ok_or(ProtocolError::Malformed("rows header overflows"))?;
            if payload.len() != expect {
                return Err(ProtocolError::Malformed(
                    "row bytes disagree with the declared shape",
                ));
            }
            // Zero-width rows carry no bytes to validate `n` against; they
            // are never produced (row_len = 2·dim ≥ 2) and a huge `n`
            // would otherwise allocate unboundedly — and `chunks_exact`
            // panics on a zero chunk size.
            if row_len == 0 && n > 0 {
                return Err(ProtocolError::Malformed("zero-width rows"));
            }
            if row_len == 0 {
                return Ok(Response::Rows {
                    row_len,
                    rows: Vec::new(),
                });
            }
            let rows = payload
                .chunks_exact(row_len as usize * 4)
                .map(le::to_vec)
                .collect();
            Ok(Response::Rows { row_len, rows })
        }
        status::OVERLOADED => {
            if !payload.is_empty() {
                return Err(ProtocolError::Malformed("overloaded carries no payload"));
            }
            Ok(Response::Overloaded)
        }
        status::DEADLINE_EXCEEDED => {
            let [stage] = payload else {
                return Err(ProtocolError::Malformed(
                    "deadline-exceeded carries exactly one stage byte",
                ));
            };
            let stage = DeadlineStage::from_byte(*stage)
                .ok_or(ProtocolError::Malformed("unknown deadline stage byte"))?;
            Ok(Response::DeadlineExceeded(stage))
        }
        status::WRONG_SHARD => {
            let id = take_u32(&mut payload);
            let shard_id = take_u32(&mut payload);
            let n_shards = take_u32(&mut payload);
            let row_start = take_u64(&mut payload);
            let n_rows = take_u64(&mut payload);
            match (id, shard_id, n_shards, row_start, n_rows) {
                (Some(id), Some(shard_id), Some(n_shards), Some(row_start), Some(n_rows))
                    if payload.is_empty() =>
                {
                    if n_shards == 0 || shard_id >= n_shards {
                        return Err(ProtocolError::Malformed(
                            "wrong-shard response declares an invalid shard",
                        ));
                    }
                    Ok(Response::WrongShard {
                        id,
                        shard_id,
                        n_shards,
                        row_start,
                        n_rows,
                    })
                }
                _ => Err(ProtocolError::Malformed(
                    "wrong-shard payload must be exactly id + shard + range",
                )),
            }
        }
        status::BAD_REQUEST | status::SERVER_ERROR => {
            let msg = std::str::from_utf8(payload)
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?
                .to_string();
            Ok(if tag == status::BAD_REQUEST {
                Response::BadRequest(msg)
            } else {
                Response::ServerError(msg)
            })
        }
        other => Err(ProtocolError::UnknownStatus(other)),
    }
}

/// Encode a response into a full frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Rows { row_len, rows } => {
            encode_rows_response(*row_len, rows.iter().map(Vec::as_slice))
        }
        Response::Empty => tagged_frame(status::OK, &[]),
        Response::Json(json) => tagged_frame(status::OK_JSON, json.as_bytes()),
        Response::Overloaded => tagged_frame(status::OVERLOADED, &[]),
        Response::DeadlineExceeded(stage) => {
            tagged_frame(status::DEADLINE_EXCEEDED, &[*stage as u8])
        }
        Response::BadRequest(msg) => tagged_frame(status::BAD_REQUEST, msg.as_bytes()),
        Response::ServerError(msg) => tagged_frame(status::SERVER_ERROR, msg.as_bytes()),
        Response::WrongShard {
            id,
            shard_id,
            n_shards,
            row_start,
            n_rows,
        } => {
            let mut out = begin_frame(status::WRONG_SHARD, 28);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&shard_id.to_le_bytes());
            out.extend_from_slice(&n_shards.to_le_bytes());
            out.extend_from_slice(&row_start.to_le_bytes());
            out.extend_from_slice(&n_rows.to_le_bytes());
            seal_frame(out)
        }
    }
}

/// Encode an `Ok` rows response directly from borrowed rows — the daemon's
/// hot path, which must not clone every served vector just to frame it.
/// Decodes identically to [`Response::Rows`].
pub fn encode_rows_response<'a>(
    row_len: u32,
    rows: impl ExactSizeIterator<Item = &'a [f32]>,
) -> Vec<u8> {
    let mut out = begin_frame(
        status::OK_ROWS,
        ROWS_HEADER_LEN - 1 + rows.len() * row_len as usize * 4,
    );
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&row_len.to_le_bytes());
    for row in rows {
        debug_assert_eq!(row.len(), row_len as usize);
        le::extend(&mut out, row);
    }
    seal_frame(out)
}

/// Bytes of a frame before its body: the CRC-flagged length prefix and
/// the CRC32 trailer.
const FRAME_PREFIX_LEN: usize = 8;

/// Start a frame whose body is `tag` plus `payload_len` further bytes:
/// the prefix is reserved (zeroed) and the caller appends the payload
/// right behind the tag, so the body is built where it will be sent from.
fn begin_frame(tag: u8, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_PREFIX_LEN + 1 + payload_len);
    out.resize(FRAME_PREFIX_LEN, 0);
    out.push(tag);
    out
}

/// A whole frame whose payload is one byte string.
fn tagged_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(tag, payload.len());
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// Finish a frame [`begin_frame`] started: checksum the body in place and
/// patch the reserved prefix with its CRC-flagged length and CRC32 trailer.
///
/// # Panics
/// If the body exceeds [`MAX_FRAME_LEN`] — a backstop, enforced in every
/// build: callers bound their payloads up front ([`MAX_LOOKUP_ITEMS`],
/// [`MAX_RELOAD_PATH_LEN`], [`max_lookup_items_for_row_len`]) so a frame
/// the peer would reject is a caller bug, not a runtime condition.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let (prefix, body) = out
        .split_first_chunk_mut::<FRAME_PREFIX_LEN>()
        .expect("begin_frame reserved the prefix");
    assert!(
        body.len() <= MAX_FRAME_LEN as usize,
        "frame body of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
        body.len()
    );
    prefix[..4].copy_from_slice(&(body.len() as u32 | FRAME_FLAG_CRC).to_le_bytes());
    prefix[4..].copy_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Read one frame body from `r`.
///
/// `Ok(None)` means the peer closed the connection cleanly *between*
/// frames (EOF at the first header byte); EOF anywhere else is a
/// [`ProtocolError::Truncated`]. A prefix without [`FRAME_FLAG_CRC`] is
/// refused before anything behind it is read, the length is validated
/// against [`MAX_FRAME_LEN`] before the body buffer is allocated, and a
/// frame whose CRC32 trailer disagrees with its body is rejected as
/// [`ProtocolError::CrcMismatch`] — corruption is detected, never decoded.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(ProtocolError::Truncated { expected: 4, got }),
    }
    let prefix = u32::from_le_bytes(header);
    if prefix & FRAME_FLAG_CRC == 0 {
        return Err(ProtocolError::Malformed(
            "length prefix lacks the CRC flag (unchecksummed frames are not accepted)",
        ));
    }
    let len = prefix & !FRAME_FLAG_CRC;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    let mut trailer = [0u8; 4];
    let got = read_exact_or_eof(r, &mut trailer)?;
    if got != 4 {
        return Err(ProtocolError::Truncated {
            expected: len as usize + 4,
            got,
        });
    }
    let expected = u32::from_le_bytes(trailer);
    let mut body = vec![0u8; len as usize];
    let got = read_exact_or_eof(r, &mut body)?;
    if got != body.len() {
        return Err(ProtocolError::Truncated {
            expected: len as usize,
            got,
        });
    }
    let actual = crc32(&body);
    if actual != expected {
        return Err(ProtocolError::CrcMismatch {
            expected,
            got: actual,
        });
    }
    Ok(Some(body))
}

/// Fill `buf`, returning how many bytes arrived before EOF. Interrupted
/// reads retry; other socket errors propagate.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(filled)
}

/// Write one already-framed message to `w` and flush it.
pub fn write_frame(w: &mut impl Write, framed: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(framed)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Lookup(vec![0, 1, u32::MAX]),
            Request::Lookup(vec![]),
            Request::LookupDeadline {
                budget_micros: 2_500,
                items: vec![7, 8, 9],
            },
            Request::LookupDeadline {
                budget_micros: u64::MAX,
                items: vec![],
            },
            Request::Ping,
            Request::Stats,
            Request::Health,
            Request::Ready,
            Request::ShardMap,
            Request::Reload("snapshots/serving.snap".into()),
            Request::Shutdown,
        ];
        for req in reqs {
            let framed = encode_request(&req);
            let body = read_frame(&mut &framed[..]).unwrap().unwrap();
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Rows {
                row_len: 2,
                rows: vec![vec![1.0, -2.5], vec![f32::MIN_POSITIVE, 0.0]],
            },
            Response::Rows {
                row_len: 4,
                rows: vec![],
            },
            Response::Empty,
            Response::Json("{\"qps\": 12.5}".into()),
            Response::Overloaded,
            Response::DeadlineExceeded(DeadlineStage::AtEnqueue),
            Response::DeadlineExceeded(DeadlineStage::Queued),
            Response::DeadlineExceeded(DeadlineStage::Executing),
            Response::BadRequest("no".into()),
            Response::ServerError("disk on fire".into()),
            Response::WrongShard {
                id: 9_999_999,
                shard_id: 2,
                n_shards: 8,
                row_start: 2_500_000,
                n_rows: 1_250_000,
            },
        ];
        for resp in resps {
            let framed = encode_response(&resp);
            let body = read_frame(&mut &framed[..]).unwrap().unwrap();
            assert_eq!(decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn frames_are_prefix_trailer_body_with_per_value_little_endian_payloads() {
        // The layout from the module docs, rebuilt value by value.
        let reference = |body: Vec<u8>| {
            let mut out = (body.len() as u32 | FRAME_FLAG_CRC).to_le_bytes().to_vec();
            out.extend_from_slice(&crc32(&body).to_le_bytes());
            out.extend(body);
            out
        };
        let rows = vec![vec![1.0f32, -2.5, f32::MIN_POSITIVE], vec![0.0, -0.0, 7e9]];
        let mut body = vec![status::OK_ROWS];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        for x in rows.iter().flatten() {
            body.extend_from_slice(&x.to_le_bytes());
        }
        let want = reference(body);
        assert_eq!(
            encode_rows_response(3, rows.iter().map(Vec::as_slice)),
            want
        );
        assert_eq!(encode_response(&Response::Rows { row_len: 3, rows }), want);

        let ids = [0u32, 0x0102_0304, u32::MAX];
        let mut body = vec![op::LOOKUP_DL];
        body.extend_from_slice(&2_500u64.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        for id in ids {
            body.extend_from_slice(&id.to_le_bytes());
        }
        let request = Request::LookupDeadline {
            budget_micros: 2_500,
            items: ids.to_vec(),
        };
        assert_eq!(encode_request(&request), reference(body));
        assert_eq!(
            encode_response(&Response::Json("{}".into())),
            reference(vec![status::OK_JSON, b'{', b'}'])
        );
        assert_eq!(encode_request(&Request::Ping), reference(vec![op::PING]));
    }

    #[test]
    fn malformed_wrong_shard_payloads_are_rejected() {
        let good = Response::WrongShard {
            id: 5,
            shard_id: 1,
            n_shards: 4,
            row_start: 100,
            n_rows: 50,
        };
        let framed = encode_response(&good);
        let body = read_frame(&mut &framed[..]).unwrap().unwrap();
        // Truncated at every prefix of the 28-byte payload.
        for cut in 1..body.len() {
            assert!(
                decode_response(&body[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage.
        let mut long = body.clone();
        long.push(0);
        assert!(decode_response(&long).is_err());
        // A shard id outside the declared shard count is nonsense.
        let bad = encode_response(&Response::WrongShard {
            id: 5,
            shard_id: 4,
            n_shards: 4,
            row_start: 0,
            n_rows: 1,
        });
        let bad_body = read_frame(&mut &bad[..]).unwrap().unwrap();
        assert!(decode_response(&bad_body).is_err());
    }

    #[test]
    fn rows_whose_count_low_byte_is_a_brace_still_decode_as_rows() {
        // Regression: the decoder once sniffed payload[0] == b'{' to tell
        // JSON from rows, misparsing any rows response with n % 256 == 123
        // (0x7B, the low byte of the little-endian count). Distinct status
        // bytes make the count irrelevant.
        for n in [123usize, 256 + 123] {
            let rows: Vec<Vec<f32>> = (0..n).map(|r| vec![r as f32, -(r as f32)]).collect();
            let resp = Response::Rows {
                row_len: 2,
                rows: rows.clone(),
            };
            let framed = encode_response(&resp);
            let body = read_frame(&mut &framed[..]).unwrap().unwrap();
            match decode_response(&body).unwrap() {
                Response::Rows { row_len, rows: got } => {
                    assert_eq!(row_len, 2);
                    assert_eq!(got, rows, "count {n} must round-trip as rows");
                }
                other => panic!("count {n}: expected rows, got {other:?}"),
            }
        }
        // And a JSON payload is JSON regardless of its first byte.
        let json = Response::Json("[1,2,3]".into());
        let framed = encode_response(&json);
        let body = read_frame(&mut &framed[..]).unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap(), json);
    }

    #[test]
    fn plain_ok_with_payload_is_malformed() {
        assert!(matches!(
            decode_response(&[status::OK, 1]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn zero_width_rows_with_nonzero_count_rejected() {
        // tag + n=5 + row_len=0, no row bytes: must not allocate n rows or
        // panic in chunking.
        let mut body = vec![status::OK_ROWS];
        body.extend_from_slice(&5u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_response(&body).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        // n = 0, row_len = 0 is degenerate but harmless.
        let mut body = vec![status::OK_ROWS];
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_response(&body).unwrap(),
            Response::Rows { rows, .. } if rows.is_empty()
        ));
    }

    #[test]
    fn item_cap_shrinks_with_row_width_so_responses_fit_one_frame() {
        // Narrow rows: the protocol cap dominates.
        assert_eq!(max_lookup_items_for_row_len(16), MAX_LOOKUP_ITEMS);
        // d = 512 ⇒ row_len = 1024 ⇒ 4 KiB/row: the frame cap dominates.
        let cap = max_lookup_items_for_row_len(1024);
        assert!(cap < MAX_LOOKUP_ITEMS);
        let worst = ROWS_HEADER_LEN as u64 + (cap as u64 + 1) * 1024 * 4;
        assert!(worst > MAX_FRAME_LEN as u64, "cap must be tight");
        let fits = ROWS_HEADER_LEN as u64 + cap as u64 * 1024 * 4;
        assert!(fits <= MAX_FRAME_LEN as u64, "cap-sized response must fit");
        // A cap-sized response really frames (no panic in `seal_frame`); frame
        // overhead is the 4-byte prefix plus the 4-byte CRC trailer.
        let row = vec![0.0f32; 1024];
        let framed = encode_rows_response(1024, (0..cap as usize).map(|_| row.as_slice()));
        assert!(framed.len() as u64 - 8 <= MAX_FRAME_LEN as u64);
    }

    #[test]
    fn overlong_reload_path_rejected() {
        let mut body = vec![op::RELOAD];
        body.extend(std::iter::repeat_n(b'p', MAX_RELOAD_PATH_LEN + 1));
        assert!(matches!(
            decode_request(&body).unwrap_err(),
            ProtocolError::Malformed("reload path too long")
        ));
        // Exactly at the cap is fine.
        let mut body = vec![op::RELOAD];
        body.extend(std::iter::repeat_n(b'p', MAX_RELOAD_PATH_LEN));
        assert!(decode_request(&body).is_ok());
    }

    #[test]
    fn eof_between_frames_is_clean_close() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn corrupted_frames_are_detected_not_decoded() {
        let framed = encode_request(&Request::Lookup(vec![10, 20, 30]));
        // Flip every bit of the whole frame, prefix included; each must be
        // a typed error. Bit 31 of the prefix clears the CRC flag, the
        // other prefix bits change the length (over the cap, past the end
        // of the stream, or short of the checksummed body), and everything
        // behind the prefix is under the checksum.
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut hurt = framed.clone();
                hurt[byte] ^= 1 << bit;
                let err = read_frame(&mut &hurt[..]).unwrap_err();
                let expected = match (byte, bit) {
                    (3, 7) => matches!(err, ProtocolError::Malformed(_)),
                    (0..=3, _) => matches!(
                        err,
                        ProtocolError::FrameTooLarge { .. }
                            | ProtocolError::Truncated { .. }
                            | ProtocolError::CrcMismatch { .. }
                    ),
                    _ => matches!(err, ProtocolError::CrcMismatch { .. }),
                };
                assert!(expected, "byte {byte} bit {bit}: got {err}");
            }
        }
    }

    #[test]
    fn frame_truncated_inside_trailer_is_truncated() {
        let framed = encode_request(&Request::Ping);
        for cut in 4..8 {
            assert!(matches!(
                read_frame(&mut &framed[..cut]).unwrap_err(),
                ProtocolError::Truncated { .. }
            ));
        }
    }

    #[test]
    fn unknown_deadline_stage_byte_is_malformed() {
        assert!(matches!(
            decode_response(&[status::DEADLINE_EXCEEDED, 3]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        assert!(matches!(
            decode_response(&[status::DEADLINE_EXCEEDED]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        assert!(matches!(
            decode_response(&[status::DEADLINE_EXCEEDED, 0, 0]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn deadline_lookup_shares_the_item_caps() {
        let mut body = vec![op::LOOKUP_DL];
        body.extend_from_slice(&1_000u64.to_le_bytes());
        body.extend_from_slice(&(MAX_LOOKUP_ITEMS + 1).to_le_bytes());
        assert!(matches!(
            decode_request(&body).unwrap_err(),
            ProtocolError::TooManyItems { .. }
        ));
        // Budget shorter than 8 bytes.
        assert!(matches!(
            decode_request(&[op::LOOKUP_DL, 1, 2, 3]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn eof_inside_header_or_body_is_truncated() {
        let framed = encode_request(&Request::Ping);
        for cut in 1..framed.len() {
            let err = read_frame(&mut &framed[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME_LEN + 1) | FRAME_FLAG_CRC)
            .to_le_bytes()
            .to_vec();
        bytes.push(op::PING);
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::FrameTooLarge { .. }
        ));
        // u32::MAX would be a 4 GiB allocation if the cap were missing.
        let bytes = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let bytes = FRAME_FLAG_CRC.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::EmptyFrame
        ));
    }

    #[test]
    fn garbage_opcodes_and_payloads_yield_typed_errors() {
        assert!(matches!(
            decode_request(&[0xEE]).unwrap_err(),
            ProtocolError::UnknownOpcode(0xEE)
        ));
        assert!(matches!(
            decode_request(&[]).unwrap_err(),
            ProtocolError::EmptyFrame
        ));
        // Lookup whose id bytes disagree with the count.
        let mut body = vec![op::LOOKUP];
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&7u32.to_le_bytes()); // one id, not three
        assert!(matches!(
            decode_request(&body).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        // Lookup count above the cap.
        let mut body = vec![op::LOOKUP];
        body.extend_from_slice(&(MAX_LOOKUP_ITEMS + 1).to_le_bytes());
        assert!(matches!(
            decode_request(&body).unwrap_err(),
            ProtocolError::TooManyItems { .. }
        ));
        // Ping with a payload.
        assert!(matches!(
            decode_request(&[op::PING, 1]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        // Reload with invalid UTF-8.
        assert!(matches!(
            decode_request(&[op::RELOAD, 0xFF, 0xFE]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }
}
