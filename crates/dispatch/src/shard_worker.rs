//! The shard-worker side of the wire protocol: a stateless process (or
//! thread, in tests) that connects back to the dispatcher, handshakes,
//! and runs each `Dispatch` frame through the job runner
//! ([`crate::exec::run_dispatched`]), sending every event it emits back
//! as the matching `Progress`/`Result`/`Failed` frame.
//!
//! Workers hold no job state of their own — every job arrives complete
//! (spec JSON, spec hash, optional model bytes) and leaves complete (the
//! result payload is the exact artifact-store encoding). That is what
//! makes SIGKILL recovery a pure dispatcher concern: re-sending the same
//! `Dispatch` frame to a fresh worker reproduces the same bytes.

use crate::dispatcher::{DispatchEvent, DispatchJob};
use crate::exec::{run_encoded, Emit};
use marioh_core::CancelToken;
use marioh_wire::{client_handshake, FrameReader, FrameWriter, Message, WireError};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type SharedWriter = Arc<Mutex<FrameWriter<TcpStream>>>;

/// Connects to a dispatcher at `addr` and serves jobs until it says
/// `Goodbye` (or the connection drops). This is the body of
/// `marioh shard-worker`.
///
/// # Errors
///
/// Connection or handshake failures; a clean `Goodbye` is `Ok`.
pub fn run(addr: &str, shard: usize) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr)?;
    serve(stream, shard)
}

/// Serves jobs over an already-connected stream. Split from [`run`] so
/// tests can drive a worker over a socket pair without a real process.
///
/// # Errors
///
/// Handshake or wire failures; a clean `Goodbye` or EOF is `Ok`.
pub fn serve(stream: TcpStream, shard: usize) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(Mutex::new(FrameWriter::new(stream)));
    let version = {
        let mut sink = writer.lock().expect("writer lock poisoned");
        client_handshake(&mut reader, &mut sink, vec![format!("shard={shard}")])?
    };
    // Wire v2 dispatchers understand pushed metrics snapshots; against a
    // v1 dispatcher the unknown frame would be a protocol error, so the
    // worker simply keeps them to itself.
    let metrics_shard = (version >= 2).then_some(shard as u64);
    let cancels: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::default();
    let mut jobs: Vec<JoinHandle<()>> = Vec::new();
    // On EOF or a read error the dispatcher went away — nothing left to
    // tell it, so the loop just ends.
    while let Ok(Some(frame)) = reader.read() {
        jobs.retain(|handle| !handle.is_finished());
        match frame.message {
            Message::Dispatch {
                job,
                spec_hash,
                spec_json,
                model,
            } => {
                // Worker-side fault site, one operation per Dispatch
                // received: `exit` scripts a crash loop, `stall` wedges
                // the serve loop (heartbeats stop, so the dispatcher's
                // timeout must catch it), `err` fails the job without
                // running it. Counters reset with the process — each
                // respawned incarnation counts from 1.
                match marioh_fault::hit(&format!("shard.{shard}")) {
                    Some(marioh_fault::Action::Exit) => {
                        std::process::exit(marioh_fault::EXIT_CODE);
                    }
                    Some(marioh_fault::Action::Stall(ms)) => marioh_fault::stall(ms),
                    Some(marioh_fault::Action::Err) => {
                        let _ = writer.lock().expect("writer lock poisoned").send(
                            frame.channel,
                            &Message::Failed {
                                job,
                                message: marioh_fault::io_error(&format!("shard.{shard}"))
                                    .to_string(),
                                cancelled: false,
                            },
                        );
                        continue;
                    }
                    _ => {}
                }
                let cancel = CancelToken::new();
                cancels
                    .lock()
                    .expect("cancel registry lock poisoned")
                    .insert(job, cancel.clone());
                let writer = Arc::clone(&writer);
                let cancels = Arc::clone(&cancels);
                let channel = frame.channel;
                let dispatched = DispatchJob {
                    id: job,
                    spec_hash,
                    spec_json,
                    model,
                    cancel,
                };
                jobs.push(std::thread::spawn(move || {
                    // Best-effort sends: if the dispatcher is gone, it
                    // re-dispatches to a replacement worker anyway.
                    let emit: Emit = {
                        let writer = Arc::clone(&writer);
                        Arc::new(move |event| {
                            let _ = writer
                                .lock()
                                .expect("writer lock poisoned")
                                .send(channel, &Message::from(event));
                        })
                    };
                    run_encoded(dispatched, emit);
                    // The job's final frame just went out; follow it with
                    // the freshest view of this worker's counters.
                    if let Some(shard) = metrics_shard {
                        push_snapshot(&writer, shard);
                    }
                    cancels
                        .lock()
                        .expect("cancel registry lock poisoned")
                        .remove(&job);
                }));
            }
            Message::Cancel { job } => {
                if let Some(token) = cancels
                    .lock()
                    .expect("cancel registry lock poisoned")
                    .get(&job)
                {
                    token.cancel();
                }
            }
            Message::Ping { token } => {
                let _ = writer
                    .lock()
                    .expect("writer lock poisoned")
                    .send(marioh_wire::CONTROL_CHANNEL, &Message::Pong { token });
                if let Some(shard) = metrics_shard {
                    push_snapshot(&writer, shard);
                }
            }
            Message::Goodbye { .. } => break,
            // The dispatcher only sends the frames above; anything else
            // (possible under future protocol versions) is ignored.
            _ => {}
        }
    }
    // Wind down: cancel whatever is still running, then wait for the job
    // threads so their final frames (best-effort by now) are flushed.
    for token in cancels
        .lock()
        .expect("cancel registry lock poisoned")
        .values()
    {
        token.cancel();
    }
    for handle in jobs {
        let _ = handle.join();
    }
    Ok(())
}

/// Pushes this process's metrics registry to the dispatcher as a
/// `MetricsSnapshot` frame on the control channel (wire v2+). Best
/// effort, like every other worker send: a lost snapshot only means the
/// dispatcher keeps a slightly staler view.
fn push_snapshot(writer: &SharedWriter, shard: u64) {
    let stats = marioh_obs::global().snapshot().encode();
    let _ = writer.lock().expect("writer lock poisoned").send(
        marioh_wire::CONTROL_CHANNEL,
        &Message::MetricsSnapshot { shard, stats },
    );
}

/// A runner event as the frame that carries it: the inverse of the
/// dispatcher's frame-to-event mapping.
impl From<DispatchEvent> for Message {
    fn from(event: DispatchEvent) -> Message {
        match event {
            DispatchEvent::Progress {
                job,
                rounds,
                committed,
                reused,
                rescored,
                trained,
                note,
            } => Message::Progress {
                job,
                rounds,
                committed,
                reused,
                rescored,
                trained,
                note,
            },
            DispatchEvent::Done {
                job,
                spec_hash,
                payload,
                model,
            } => Message::Result {
                job,
                spec_hash,
                payload,
                model,
            },
            DispatchEvent::Failed {
                job,
                message,
                cancelled,
            } => Message::Failed {
                job,
                message,
                cancelled,
            },
            DispatchEvent::ShardRespawned { shard, .. } => {
                unreachable!("shard {shard} respawned: a dispatcher-side event, never a frame")
            }
        }
    }
}
