//! Tier-1 integration tests for the sharded network front end: real
//! sockets on 127.0.0.1, inside `cargo test -q`.
//!
//! The load-bearing assertion is **bit-exactness**: a frame corrected
//! over the wire must equal the same frame corrected through the
//! in-process [`Server`] path, byte for byte, for both gray8 and
//! yuv420 sessions — the network layer is transport, never transform.
//! The rest covers the protocol's operational promises: admission
//! rejection over the socket, malformed input (unknown tags, oversized
//! length prefixes) costing only its own connection, and graceful
//! shutdown preserving the frame conservation invariant — also against
//! peers that stop reading, vanish mid-frame or half-close after a
//! frame, and across the shards' idle waits.

use std::io::{Read, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameFormat};
use fisheye_core::post::PostStage;
use fisheye_core::Interpolator;
use fisheye_geom::{FisheyeLens, PerspectiveView};
use fisheye_serve::{
    wire, CameraFeed, Client, ClientEvent, Message, NetServer, NetServerConfig, Registry,
    ServedFrame, Server, ServerConfig, SessionConfig, SessionDesc, ShedReason,
};

fn lens() -> FisheyeLens {
    FisheyeLens::equidistant_fov(64, 48, 180.0)
}

fn view() -> PerspectiveView {
    PerspectiveView::centered(32, 24, 90.0)
}

fn desc(format: FrameFormat) -> SessionDesc<'static> {
    SessionDesc {
        lens: lens(),
        view: view(),
        source: (64, 48),
        format,
        interp: Interpolator::Bilinear,
        deadline_us: 0,
        backend: "serial",
    }
}

/// A gray8 session with a `w`×`h` nearest-neighbour view of the 64×48
/// source: small submits and large `FrameDone`s, so unread results
/// fill the loopback socket buffers.
fn wide_desc(w: u32, h: u32) -> SessionDesc<'static> {
    SessionDesc {
        view: PerspectiveView::centered(w, h, 90.0),
        interp: Interpolator::Nearest,
        ..desc(FrameFormat::Gray8)
    }
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        capacity: 64,
        // generous: these tests assert pixels, not latency
        frame_deadline: Duration::from_secs(5),
        threads: 1,
        ..ServerConfig::default()
    }
}

fn net_cfg() -> NetServerConfig {
    NetServerConfig {
        server: server_cfg(),
        shards: 2,
        ..NetServerConfig::default()
    }
}

fn session_cfg(d: &SessionDesc<'_>) -> SessionConfig {
    SessionConfig {
        lens: d.lens,
        view: d.view,
        source: d.source,
        format: d.format,
        backend: EngineSpec::Serial,
        interp: d.interp,
        post: PostStage::identity(),
        deadline: None,
        workload: fisheye_serve::Workload::Single,
    }
}

fn recv_done(client: &mut Client) -> (u64, Frame) {
    for _ in 0..200 {
        match client.recv(Duration::from_millis(100)).expect("recv") {
            Some(ClientEvent::FrameDone { seq, frame, .. }) => return (seq, frame),
            Some(other) => panic!("unexpected event {other:?}"),
            None => {}
        }
    }
    panic!("timed out waiting for a corrected frame");
}

/// Run `body` on its own thread and fail if it has not finished within
/// `limit`: a lost wake-up hangs a test instead of failing it.
fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("hung for {limit:?}: a wake-up was lost"),
    }
}

/// Wait until `srv`'s merged metrics satisfy `done`, failing after 30 s.
fn wait_for_metrics(srv: &NetServer, what: &str, done: impl Fn(&Registry) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = srv.metrics_snapshot();
        if done(&snap) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}:\n{}",
            snap.snapshot()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_bit_exact(wire_frame: &Frame, served: ServedFrame) {
    let served_planes = served.into_planes();
    let wire_planes = wire_frame.u8_planes().expect("byte frame");
    assert_eq!(served_planes.len(), wire_planes.len(), "plane count");
    for (i, (s, w)) in served_planes.iter().zip(wire_planes).enumerate() {
        assert_eq!(s.dims(), w.dims(), "plane {i} dims");
        assert!(s.pixels() == w.pixels(), "plane {i} bytes differ");
    }
}

fn end_to_end_matches_in_process(format: FrameFormat, frames: u64) {
    let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
    let d = desc(format);
    let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
    assert_ne!(client.session_id(), 0, "server assigns a session id");

    let reference = Server::new(server_cfg()).expect("server");
    let mut ref_session = reference.connect(session_cfg(&d)).expect("ref connect");

    let mut feed = CameraFeed::new(64, 48, 42);
    for seq in 0..frames {
        let frame = feed.next_frame_in(format);
        client.submit(seq, &frame).expect("submit");
        ref_session.submit_frame(Arc::clone(&frame));
        let expected = ref_session
            .pump_one()
            .expect("ref pump")
            .expect("ref frame");
        let (got_seq, got) = recv_done(&mut client);
        assert_eq!(got_seq, seq, "wire seq echoes the submit");
        assert_eq!(got.format(), format);
        assert_bit_exact(&got, expected.frame);
    }
    client.goodbye().expect("goodbye");
    srv.shutdown();
    assert_eq!(srv.active_sessions(), 0);
}

#[test]
fn gray8_sessions_are_bit_exact_over_the_socket() {
    end_to_end_matches_in_process(FrameFormat::Gray8, 4);
}

#[test]
fn yuv420_sessions_are_bit_exact_over_the_socket() {
    end_to_end_matches_in_process(FrameFormat::Yuv420, 4);
}

#[test]
fn over_capacity_connects_are_rejected_with_a_typed_shed() {
    let cfg = NetServerConfig {
        server: ServerConfig {
            capacity: 1,
            ..server_cfg()
        },
        shards: 2,
        ..NetServerConfig::default()
    };
    let mut srv = NetServer::bind("127.0.0.1:0", cfg).expect("bind");
    let d = desc(FrameFormat::Gray8);
    let _held = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("first connect");
    let refused = Client::connect(srv.addr(), &d, Duration::from_secs(10));
    match refused {
        Err(e) => assert!(e.is_rejected(), "want Rejected, got {e}"),
        Ok(_) => panic!("second session must be refused at capacity 1"),
    }
    srv.shutdown();
}

#[test]
fn malformed_bytes_kill_one_connection_never_the_shard() {
    let unknown_tag = [5u8, 0, 0, 0, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB];
    // a length prefix far past the body cap: refused before any
    // buffering, never an attempt to wait for 4 GiB
    let oversized = [0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0, 0, 0];
    for (what, garbage) in [
        ("unknown tag", &unknown_tag[..]),
        ("oversized", &oversized[..]),
    ] {
        let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");

        // a raw socket spraying garbage at the server
        let mut vandal = std::net::TcpStream::connect(srv.addr()).expect("dial");
        vandal.write_all(garbage).expect("send garbage");

        // the same shard must still serve a well-behaved session afterwards
        let d = desc(FrameFormat::Gray8);
        let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
        let mut feed = CameraFeed::new(64, 48, 7);
        let frame = feed.next_frame_in(FrameFormat::Gray8);
        client.submit(0, &frame).expect("submit");
        let (seq, _) = recv_done(&mut client);
        assert_eq!(seq, 0, "{what}");

        wait_for_metrics(&srv, what, |m| m.counter("serve.net.protocol_errors") >= 1);
        srv.shutdown();
        assert_conservation(&srv.metrics_snapshot());
    }
}

/// The conservation invariant over a registry snapshot: every
/// submitted frame is accounted as completed, dropped at the queue,
/// or shed (shutdown drain / internal failure). After a full drain,
/// nothing is pending, so the books must balance exactly.
fn assert_conservation(m: &Registry) {
    let submitted = m.counter("serve.frames.submitted");
    let accounted = m.counter("serve.frames.completed")
        + m.counter("serve.frames.dropped_oldest")
        + m.counter("serve.frames.dropped_newest")
        + m.counter("serve.frames.shed_shutdown")
        + m.counter("serve.frames.shed_internal");
    assert_eq!(
        submitted,
        accounted,
        "conservation: submitted != completed + dropped + shed\n{}",
        m.snapshot()
    );
}

#[test]
fn shutdown_drains_every_shard_and_conserves_frames() {
    let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
    let d = desc(FrameFormat::Gray8);
    let mut feed = CameraFeed::new(64, 48, 3);
    let mut clients = Vec::new();
    for _ in 0..6 {
        clients.push(Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect"));
    }
    // pile up work and shut down while much of it is still pending
    for round in 0..3u64 {
        let frame = feed.next_frame_in(FrameFormat::Gray8);
        for c in &mut clients {
            c.submit(round, &frame).expect("submit");
        }
    }
    // the shards ingest every submission before the drain begins
    wait_for_metrics(&srv, "18 submissions", |m| {
        m.counter("serve.frames.submitted") == 18
    });
    srv.shutdown();

    assert_eq!(srv.active_sessions(), 0, "every slot released");
    let snap = srv.metrics_snapshot();
    assert_conservation(&snap);

    // every client hears the end of its session: shed notices for
    // drained frames, then goodbye (or a clean EOF)
    for c in &mut clients {
        let mut saw_end = false;
        for _ in 0..50 {
            match c.recv(Duration::from_millis(50)) {
                Ok(Some(ClientEvent::Goodbye)) | Err(_) => {
                    saw_end = true;
                    break;
                }
                Ok(Some(ClientEvent::Shed { reason, .. })) => {
                    assert!(
                        matches!(reason, ShedReason::Shutdown | ShedReason::QueueRefused),
                        "unexpected shed reason {reason:?}"
                    );
                }
                Ok(Some(ClientEvent::FrameDone { .. })) | Ok(None) => {}
            }
        }
        assert!(saw_end, "client never saw the session end");
    }
}

#[test]
fn shed_pending_accounts_in_process_queues_deterministically() {
    let server = Server::new(server_cfg()).expect("server");
    let d = desc(FrameFormat::Gray8);
    let mut session = server.connect(session_cfg(&d)).expect("connect");
    let mut feed = CameraFeed::new(64, 48, 9);
    for _ in 0..3 {
        session.submit_frame(feed.next_frame_in(FrameFormat::Gray8));
    }
    let shed = session.shed_pending();
    assert_eq!(shed, vec![0, 1, 2], "every queued seq is reported shed");
    assert_eq!(session.pending(), 0);
    drop(session); // must not double-count an already-empty queue
    let m = server.metrics();
    assert_eq!(m.counter("serve.frames.shed_shutdown"), 3);
    assert_conservation(m);
}

#[test]
fn view_churn_over_the_socket_tracks_the_reference_path() {
    let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
    let d = desc(FrameFormat::Gray8);
    let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");

    let reference = Server::new(server_cfg()).expect("server");
    let mut ref_session = reference.connect(session_cfg(&d)).expect("ref connect");

    let mut feed = CameraFeed::new(64, 48, 11);
    for (seq, pan) in [0.0f64, 14.0, -14.0].into_iter().enumerate() {
        let v = view().look(pan, 0.0);
        client.set_view(v).expect("set_view");
        ref_session.set_view(v).expect("ref set_view");
        let frame = feed.next_frame_in(FrameFormat::Gray8);
        client.submit(seq as u64, &frame).expect("submit");
        ref_session.submit_frame(frame);
        let expected = ref_session
            .pump_one()
            .expect("ref pump")
            .expect("ref frame");
        let (_, got) = recv_done(&mut client);
        assert_bit_exact(&got, expected.frame);
    }
    srv.shutdown();
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    for idle_clients in [0, 2] {
        watchdog(Duration::from_secs(10), move || {
            let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
            let d = desc(FrameFormat::Gray8);
            let clients: Vec<Client> = (0..idle_clients)
                .map(|_| Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect"))
                .collect();
            let started = Instant::now();
            srv.shutdown();
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "shutdown with {idle_clients} idle clients took {took:?}"
            );
            assert_eq!(srv.active_sessions(), 0);
            drop(clients);
        });
    }
}

#[test]
fn a_client_arriving_after_the_shards_idle_is_served() {
    watchdog(Duration::from_secs(30), || {
        let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
        // long enough for every thread to block in its idle wait
        std::thread::sleep(Duration::from_millis(50));
        let d = desc(FrameFormat::Gray8);
        let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
        let reference = Server::new(server_cfg()).expect("server");
        let mut ref_session = reference.connect(session_cfg(&d)).expect("ref connect");
        let frame = CameraFeed::new(64, 48, 5).next_frame_in(FrameFormat::Gray8);
        client.submit(0, &frame).expect("submit");
        ref_session.submit_frame(frame);
        let expected = ref_session
            .pump_one()
            .expect("ref pump")
            .expect("ref frame");
        let (seq, got) = recv_done(&mut client);
        assert_eq!(seq, 0);
        assert_bit_exact(&got, expected.frame);
        srv.shutdown();
    });
}

#[test]
fn a_slow_reader_resumes_when_its_socket_drains() {
    watchdog(Duration::from_secs(60), || {
        let cfg = NetServerConfig {
            server: ServerConfig {
                queue_depth: 8,
                ..server_cfg()
            },
            // below one FrameDone: each result waits for the last to
            // leave, so unread results stall the session on writability
            max_write_buffer: 1024,
            ..net_cfg()
        };
        let mut srv = NetServer::bind("127.0.0.1:0", cfg).expect("bind");
        let d = wide_desc(1024, 768);
        let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
        let reference = Server::new(server_cfg()).expect("server");
        let mut ref_session = reference.connect(session_cfg(&d)).expect("ref connect");

        let mut feed = CameraFeed::new(64, 48, 13);
        let mut expected = Vec::new();
        for seq in 0..8u64 {
            let frame = feed.next_frame_in(FrameFormat::Gray8);
            client.submit(seq, &frame).expect("submit");
            ref_session.submit_frame(frame);
            let served = ref_session
                .pump_one()
                .expect("ref pump")
                .expect("ref frame");
            expected.push(served.frame);
        }
        for (seq, want) in expected.into_iter().enumerate() {
            let (got_seq, got) = recv_done(&mut client);
            assert_eq!(got_seq, seq as u64, "results arrive in submit order");
            assert_bit_exact(&got, want);
        }
        srv.shutdown();
        assert_conservation(&srv.metrics_snapshot());
    });
}

/// How a raw session walks away after its handshake.
#[derive(Clone, Copy, Debug)]
enum Departure {
    /// Send half a `SubmitFrame`, then close the socket.
    MidFrame,
    /// Send one whole `SubmitFrame`, then shut down the write half
    /// only (the peer could still read).
    HalfClose,
}

#[test]
fn a_disconnect_mid_frame_costs_only_its_own_connection() {
    for departure in [Departure::MidFrame, Departure::HalfClose] {
        watchdog(Duration::from_secs(30), move || {
            disconnect_costs_only_its_own_connection(departure)
        });
    }
}

fn disconnect_costs_only_its_own_connection(departure: Departure) {
    let mut srv = NetServer::bind("127.0.0.1:0", net_cfg()).expect("bind");
    let d = desc(FrameFormat::Gray8);

    // a raw session that is admitted, then leaves
    let mut raw = std::net::TcpStream::connect(srv.addr()).expect("dial");
    let mut out = Vec::new();
    Message::Hello {
        version: wire::WIRE_VERSION,
        session: 0,
    }
    .encode_into(&mut out)
    .expect("encode hello");
    Message::Connect(d)
        .encode_into(&mut out)
        .expect("encode connect");
    raw.write_all(&out).expect("handshake");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = Vec::new();
    while !matches!(
        wire::decode_frame(&reply),
        Ok(Some((Message::Hello { .. }, _)))
    ) {
        let mut chunk = [0u8; 256];
        let n = raw.read(&mut chunk).expect("server hello");
        assert!(n > 0, "server closed the raw session");
        reply.extend_from_slice(&chunk[..n]);
    }
    let frame = CameraFeed::new(64, 48, 17).next_frame_in(FrameFormat::Gray8);
    let mut submit = Vec::new();
    wire::encode_submit(0, &frame, &mut submit).expect("encode submit");
    // frames the raw session submitted: half a frame is no frame
    let raw_frames = match departure {
        Departure::MidFrame => {
            raw.write_all(&submit[..submit.len() / 2])
                .expect("half a frame");
            drop(raw);
            0
        }
        Departure::HalfClose => {
            raw.write_all(&submit).expect("one frame");
            raw.shutdown(std::net::Shutdown::Write).expect("half-close");
            1
        }
    };
    wait_for_metrics(&srv, "the closed raw connection", |m| {
        m.counter("serve.net.closed") >= 1
    });

    let mut client = Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
    client.submit(0, &frame).expect("submit");
    let (seq, _) = recv_done(&mut client);
    assert_eq!(seq, 0, "{departure:?}");
    assert_eq!(
        srv.active_sessions(),
        1,
        "{departure:?}: the departed session freed its slot"
    );
    srv.shutdown();
    let snap = srv.metrics_snapshot();
    assert_eq!(
        snap.counter("serve.frames.submitted"),
        raw_frames + 1,
        "{departure:?}"
    );
    assert_conservation(&snap);
}

#[test]
fn shutdown_force_closes_a_peer_that_stopped_reading() {
    watchdog(Duration::from_secs(60), || {
        let cfg = NetServerConfig {
            server: ServerConfig {
                queue_depth: 8,
                ..server_cfg()
            },
            ..net_cfg()
        };
        let mut srv = NetServer::bind("127.0.0.1:0", cfg).expect("bind");
        // 8 × 768 KB of results: more than Linux's default socket
        // buffers absorb, so the drain blocks on writability
        let d = wide_desc(1024, 768);
        let mut stalled =
            Client::connect(srv.addr(), &d, Duration::from_secs(10)).expect("connect");
        let mut feed = CameraFeed::new(64, 48, 19);
        for seq in 0..8u64 {
            stalled
                .submit(seq, &feed.next_frame_in(FrameFormat::Gray8))
                .expect("submit");
        }
        // every result is corrected before the drain begins
        wait_for_metrics(&srv, "8 corrected frames", |m| {
            m.counter("serve.frames.completed") == 8
        });
        let started = Instant::now();
        srv.shutdown();
        let took = started.elapsed();
        // the shard's drain deadline is 2 s
        assert!(
            took < Duration::from_secs(3),
            "shutdown waited {took:?} on a peer that never reads"
        );
        assert_eq!(srv.active_sessions(), 0);
        assert_conservation(&srv.metrics_snapshot());
        drop(stalled);
    });
}
