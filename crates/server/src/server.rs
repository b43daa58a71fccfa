//! The TCP server: one [`ConcurrentStore`] served to many connections.
//!
//! Each connection runs on its own thread and owns one private
//! [`Session<AnyBackend>`] over a pinned store snapshot.  Queries
//! (`Prepare`/`Execute`/`Confidence`) run against that pinned image without
//! taking any store lock; before each query the connection compares its
//! pinned sequence number with the store's and, if writers have committed in
//! the meantime, swaps the newest snapshot into the same session
//! ([`Session::replace_backend`], so its counters keep accumulating) and
//! transparently re-prepares its registered plans.  Writes
//! (`Apply`/`Condition`/`Checkpoint`) go straight to the store's
//! group-commit committer, so concurrent connections' updates coalesce into
//! shared WAL batches.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use maybms::{AnyBackend, Prepared, Session, SessionBackend, UpdateExpr};
use ws_relational::RaExpr;

use crate::store::ConcurrentStore;
use crate::wire::{read_frame, write_frame, CountingStream, Request, Response, WIRE_VERSION};

/// Rows per [`Response::RowBatch`] frame.
const ROW_BATCH: usize = 256;

/// Serve `store` on `listener` until `stop` is raised (by a client
/// `Shutdown` verb or [`ServerHandle::shutdown`]).
///
/// Blocks the calling thread; connection handlers run on their own threads
/// and are joined before this returns.  Once `stop` is seen, the read half
/// of every live connection is shut down, so a handler blocked waiting for
/// an idle client's next request sees end-of-stream while responses still
/// in flight go out.  The store itself is *not* closed — the caller decides
/// when the committer stops.
pub fn serve(
    listener: TcpListener,
    store: ConcurrentStore<AnyBackend>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let addr = listener.local_addr()?;
    // Each handler beside a second handle on its stream, used to end the
    // handler's blocking read at shutdown.
    let mut workers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let peer = match stream.try_clone() {
            Ok(p) => p,
            Err(_) => continue,
        };
        // Reap the handlers of connections that already hung up, so the
        // list holds live connections rather than every one ever accepted.
        workers.retain(|(_, w)| !w.is_finished());
        let store = store.clone();
        let stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            // A connection error tears down that one connection only.
            let _ = handle_connection(stream, store, stop, addr);
        });
        workers.push((peer, worker));
    }
    for (peer, _) in &workers {
        // Fails only if the client already hung up, which ends the read too.
        let _ = peer.shutdown(Shutdown::Read);
    }
    for (_, w) in workers {
        let _ = w.join();
    }
    Ok(())
}

/// A running server: its address, its stop flag, and the accept thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<()>>>,
}

/// Bind `addr` (use port 0 for an ephemeral port) and serve `store` on a
/// background thread.
pub fn spawn(
    addr: impl ToSocketAddrs,
    store: ConcurrentStore<AnyBackend>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let serve_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("ws-server-accept".into())
        .spawn(move || serve(listener, store, serve_stop))?;
    Ok(ServerHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join it.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the blocking accept.
        let _ = TcpStream::connect(self.addr);
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| io::Error::other("the accept thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}

/// Per-connection state: the pinned read session and the registered plans.
struct Conn {
    store: ConcurrentStore<AnyBackend>,
    /// The one session of this connection, opened at the first query.
    session: Option<Session<AnyBackend>>,
    /// The store sequence number the session's snapshot was pinned at.
    pinned: u64,
    /// Plan handle → the lowered plan, the durable registration.
    plans: HashMap<u64, RaExpr>,
    /// Plan handle → the prepared form against the *current* snapshot.
    prepared: HashMap<u64, Prepared>,
    next_plan: u64,
}

impl Conn {
    /// Pin the newest snapshot if the committed sequence moved, re-preparing
    /// every registered plan against it.
    fn refresh(&mut self) -> Result<(), maybms::Error> {
        let tip = self.store.seq();
        if self.session.is_some() && self.pinned == tip {
            return Ok(());
        }
        let snapshot = self.store.snapshot();
        let backend = snapshot.backend.clone();
        let session = match &mut self.session {
            Some(session) => {
                session.replace_backend(backend);
                session
            }
            None => {
                let mut session = Session::new(backend);
                if let Some(observer) = self.store.observer() {
                    session.set_observer(Arc::clone(observer));
                }
                self.session.insert(session)
            }
        };
        self.prepared.clear();
        for (&id, plan) in &self.plans {
            self.prepared.insert(id, session.prepare(plan.clone())?);
        }
        // Only a fully re-prepared pin counts: a failure retries next time.
        self.pinned = snapshot.seq;
        Ok(())
    }

    /// The pinned session ([`Conn::refresh`] must have succeeded first).
    fn session(&mut self) -> &mut Session<AnyBackend> {
        self.session.as_mut().expect("session pinned by refresh")
    }
}

fn error_response(e: &maybms::Error) -> Response {
    Response::Error {
        inconsistent: e.is_inconsistent(),
        message: e.to_string(),
    }
}

fn storage_error_response(e: &impl std::fmt::Display) -> Response {
    Response::Error {
        inconsistent: false,
        message: e.to_string(),
    }
}

fn handle_connection(
    stream: TcpStream,
    store: ConcurrentStore<AnyBackend>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) -> io::Result<()> {
    // Responses are whole frames written at once; see `Client::connect`.
    stream.set_nodelay(true)?;
    let mut stream = CountingStream::new(stream);
    let mut conn = Conn {
        store,
        session: None,
        pinned: 0,
        plans: HashMap::new(),
        prepared: HashMap::new(),
        next_plan: 1,
    };
    loop {
        // The trace id from the frame header is echoed on every response
        // frame of this request, so a client (or a wire capture) can match
        // responses to in-flight requests.
        let (trace, payload) = match read_frame(&mut stream)? {
            Some(p) => p,
            None => return Ok(()), // clean hang-up
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = storage_error_response(&e).encode();
                write_frame(&mut stream, trace, &resp)?;
                continue;
            }
        };
        match request {
            Request::Hello { version } => {
                let resp = if version != WIRE_VERSION {
                    Response::Error {
                        inconsistent: false,
                        message: format!(
                            "wire version mismatch: client speaks {version}, server speaks {WIRE_VERSION}"
                        ),
                    }
                } else {
                    match conn.refresh() {
                        Ok(()) => Response::HelloOk {
                            version: WIRE_VERSION,
                            backend: conn.session().backend().backend_name().to_string(),
                            seq: conn.store.seq(),
                        },
                        Err(e) => error_response(&e),
                    }
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Prepare { plan } => {
                let resp = match conn.refresh() {
                    Ok(()) => match conn.session().prepare(plan.clone()) {
                        Ok(p) => {
                            let id = conn.next_plan;
                            conn.next_plan += 1;
                            let resp = Response::Prepared {
                                plan: id,
                                display: p.key().to_string(),
                                attrs: p.attrs().to_vec(),
                            };
                            conn.plans.insert(id, plan);
                            conn.prepared.insert(id, p);
                            resp
                        }
                        Err(e) => error_response(&e),
                    },
                    Err(e) => error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Execute { plan } => {
                let rows = match conn.refresh() {
                    Ok(()) => match conn.prepared.get(&plan).cloned() {
                        Some(p) => conn.session().execute(&p).map_err(|e| error_response(&e)),
                        None => Err(Response::Error {
                            inconsistent: false,
                            message: format!("unknown plan handle {plan}"),
                        }),
                    },
                    Err(e) => Err(error_response(&e)),
                };
                match rows {
                    // The owned rows move into frames of `ROW_BATCH`; an
                    // empty result is one `done` frame.
                    Ok(mut rows) => loop {
                        let batch = rows.by_ref().take(ROW_BATCH).collect();
                        let done = rows.len() == 0;
                        let resp = Response::RowBatch { rows: batch, done };
                        write_frame(&mut stream, trace, &resp.encode())?;
                        if done {
                            break;
                        }
                    },
                    Err(resp) => write_frame(&mut stream, trace, &resp.encode())?,
                }
            }
            Request::Confidence { plan } => {
                let resp = match conn.refresh() {
                    Ok(()) => match conn.prepared.get(&plan).cloned() {
                        Some(p) => match conn.session().confidence(&p) {
                            Ok(rows) => Response::Confidences { rows },
                            Err(e) => error_response(&e),
                        },
                        None => Response::Error {
                            inconsistent: false,
                            message: format!("unknown plan handle {plan}"),
                        },
                    },
                    Err(e) => error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Apply { update } => {
                let resp = apply_through_store(&conn.store, update);
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Condition { constraints } => {
                let resp = apply_through_store(&conn.store, UpdateExpr::condition(constraints));
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Checkpoint => {
                let resp = match conn.store.checkpoint() {
                    Ok(generation) => Response::Checkpointed { generation },
                    Err(e) => storage_error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Stats => {
                let resp = match conn.refresh() {
                    Ok(()) => {
                        let store = conn.store.stats();
                        Response::Stats {
                            summary: format!(
                                "{} snapshots-pinned={} commit-batches={} mean-batch={:.1} \
                                 wire-bytes-in={} wire-bytes-out={}",
                                conn.session().stats(),
                                store.snapshots_pinned,
                                store.commit_batches,
                                store.mean_batch(),
                                stream.bytes_in(),
                                stream.bytes_out(),
                            ),
                        }
                    }
                    Err(e) => error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Metrics => {
                let text = match conn.store.observer() {
                    Some(observer) => observer.metrics().snapshot().render_prometheus(),
                    None => String::new(),
                };
                let resp = Response::Metrics { text };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Close => {
                write_frame(&mut stream, trace, &Response::Bye.encode())?;
                return Ok(());
            }
            Request::Shutdown => {
                write_frame(&mut stream, trace, &Response::Bye.encode())?;
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so the flag is observed.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
        }
    }
}

/// Route one update through the committer and render the outcome.
fn apply_through_store(store: &ConcurrentStore<AnyBackend>, update: UpdateExpr) -> Response {
    match store.update(update) {
        Ok(mass) => Response::Applied {
            mass,
            seq: store.seq(),
        },
        Err(ws_storage::DurableError::Backend(e)) => error_response(&e),
        Err(ws_storage::DurableError::Storage(e)) => storage_error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::sync::mpsc;
    use std::time::Duration;
    use ws_core::wsd::example_census_wsd;
    use ws_storage::{MemVfs, SyncPolicy};

    #[test]
    fn shutdown_returns_with_an_idle_client_connected() {
        let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create(
            Box::new(MemVfs::new()),
            AnyBackend::Wsd(example_census_wsd()),
            SyncPolicy::EveryRecord,
        )
        .unwrap();
        let server = spawn("127.0.0.1:0", store.clone()).unwrap();
        // Connected (its handler is blocked waiting for the next request)
        // and never sends anything else.
        let idle = Client::connect(server.addr()).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let _ = done_tx.send(server.shutdown());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung while a client was connected and idle")
            .unwrap();
        stopper.join().unwrap();
        drop(idle);
        store.close().unwrap();
    }
}
