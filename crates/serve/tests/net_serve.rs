//! End-to-end tests of the TCP front-end: the bit-identity contract
//! through the socket path, the full mutation vocabulary over the wire,
//! the versioned handshake, quotas, and the stats endpoint.
//!
//! Every frame type these tests exercise is documented in
//! `docs/wire-protocol.md`; the raw-socket tests double as a check that
//! the documented handshake rules are what the server actually enforces.

use dataset::AttributeSchema;
use hdc_zsc::{ModelConfig, ModelFile, ZscModel};
use serve::net::wire::{self, Request, Response};
use serve::net::{frame, ClientConfig, NetClient, NetConfig, NetError, NetServer};
use serve::{DurabilityConfig, QueryServer, ServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tensor::Matrix;

const FEATURE_DIM: usize = 24;

fn fixture() -> (ZscModel, Vec<String>, Matrix, AttributeSchema) {
    let schema = AttributeSchema::cub200();
    let model = ZscModel::new(&ModelConfig::tiny().with_seed(11), &schema, FEATURE_DIM);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let class_attributes = Matrix::random_uniform(9, 312, 0.5, &mut rng).map(f32::abs);
    let labels: Vec<String> = (0..9).map(|c| format!("class{c}")).collect();
    (model, labels, class_attributes, schema)
}

fn start_stack(net_config: NetConfig) -> (Arc<QueryServer>, NetServer, AttributeSchema) {
    let (model, labels, class_attributes, schema) = fixture();
    let (server, net) = serve(model, labels, &class_attributes, &schema, net_config);
    (server, net, schema)
}

/// A top-4 server around `model` and its front-end.
fn serve(
    model: ZscModel,
    labels: Vec<String>,
    class_attributes: &Matrix,
    schema: &AttributeSchema,
    net_config: NetConfig,
) -> (Arc<QueryServer>, NetServer) {
    let config = ServerConfig {
        top_k: 4,
        ..ServerConfig::default()
    };
    let server =
        Arc::new(QueryServer::start(model, labels, class_attributes, config).expect("starts"));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), schema, net_config)
        .expect("front-end binds");
    (server, net)
}

fn client(net: &NetServer) -> NetClient {
    NetClient::connect(net.local_addr(), ClientConfig::default()).expect("client connects")
}

fn random_rows(count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Matrix::random_uniform(1, FEATURE_DIM, 1.0, &mut rng)
                .row(0)
                .to_vec()
        })
        .collect()
}

/// Every row of `matrix` as its own `Vec`.
fn rows_of(matrix: &Matrix) -> Vec<Vec<f32>> {
    (0..matrix.rows()).map(|r| matrix.row(r).to_vec()).collect()
}

/// Asserts every query in `queries` is answered at `version`,
/// bit-identical to `solo_topk` on the snapshot serving it.
fn assert_served_at(
    client: &mut NetClient,
    server: &QueryServer,
    version: u64,
    queries: &[Vec<f32>],
) {
    let snapshot = server.snapshot();
    assert_eq!(snapshot.version(), version);
    for q in queries {
        let (served_version, served) = client.query(q, None).expect("query served");
        assert_eq!(served_version, version);
        let expected = snapshot.solo_topk(q, 4);
        assert_eq!(served.len(), expected.len());
        for ((sl, ss), (el, es)) in served.iter().zip(&expected) {
            assert_eq!(sl, el);
            assert_eq!(ss.to_bits(), es.to_bits());
        }
    }
}

/// The headline contract: responses served through the socket are
/// bit-identical to [`serve::ModelSnapshot::solo_topk`] on the snapshot
/// version each response names.
#[test]
fn socket_responses_are_bit_identical_to_solo_scoring() {
    let (server, net, _schema) = start_stack(NetConfig::default());
    let mut client = client(&net);
    let welcome = client.welcome();
    assert_eq!(welcome.protocol, wire::PROTOCOL_VERSION);
    assert_eq!(welcome.feature_dim, FEATURE_DIM as u64);
    assert_eq!(welcome.attribute_dim, 312);
    assert_eq!(welcome.snapshot_version, 0);
    assert_eq!(welcome.classes, 9);

    let snapshot = server.snapshot();
    for q in random_rows(32, 41) {
        let (version, served) = client.query(&q, None).expect("query served");
        assert_eq!(version, 0);
        let expected = snapshot.solo_topk(&q, 4);
        assert_eq!(served.len(), expected.len());
        for ((sl, ss), (el, es)) in served.iter().zip(&expected) {
            assert_eq!(sl, el);
            assert_eq!(ss.to_bits(), es.to_bits(), "similarity bits for `{sl}`");
        }
        // `k` narrows to a bit-identical prefix.
        let (_, narrowed) = client.query(&q, Some(2)).expect("narrowed query served");
        assert_eq!(narrowed.len(), 2);
        for ((sl, ss), (el, es)) in narrowed.iter().zip(&expected) {
            assert_eq!(sl, el);
            assert_eq!(ss.to_bits(), es.to_bits());
        }
    }
    net.shutdown();
}

/// The whole mutation vocabulary — register, duplicate rejection, update,
/// unknown-class rejection, remove, width rejection — works over the wire
/// with typed codes, and queries reflect each published version
/// bit-identically.
#[test]
fn mutations_over_the_wire_publish_versions() {
    let (server, net, _schema) = start_stack(NetConfig::default());
    let mut client = client(&net);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let new_attr: Vec<f32> = Matrix::random_uniform(1, 312, 0.5, &mut rng)
        .map(f32::abs)
        .row(0)
        .to_vec();

    let version = client
        .register_class("netbird", &new_attr)
        .expect("registers over the wire");
    assert_eq!(version, 1);
    assert!(server.snapshot().memory().contains("netbird"));

    let err = client
        .register_class("netbird", &new_attr)
        .expect_err("duplicate rejected");
    assert!(err.is_rejection(wire::code::DUPLICATE_LABEL), "{err}");

    let err = client
        .update_class("missing", &new_attr)
        .expect_err("unknown class rejected");
    assert!(err.is_rejection(wire::code::UNKNOWN_CLASS), "{err}");

    let err = client
        .register_class("bad", &[1.0; 3])
        .expect_err("mis-sized row rejected");
    assert!(err.is_rejection(wire::code::ATTRIBUTE_WIDTH), "{err}");

    assert_eq!(
        client.update_class("netbird", &new_attr).expect("updates"),
        2
    );
    // Post-mutation queries name the new version and stay bit-identical.
    assert_served_at(&mut client, &server, 2, &random_rows(8, 43));
    assert_eq!(client.remove_class("netbird").expect("removes"), 3);
    assert!(!server.snapshot().memory().contains("netbird"));
    net.shutdown();
}

/// A full model swap shipped as a binary model file through the socket:
/// the new model serves the next queries, bit-identical to solo scoring
/// against the post-swap snapshot. A model file the server cannot decode
/// against its schema is a typed `checkpoint` rejection, and the
/// connection survives it.
#[test]
fn swap_model_over_the_wire_replaces_serving_state() {
    let (server, net, schema) = start_stack(NetConfig::default());
    let mut client = client(&net);
    let (_, labels, class_attributes, _) = fixture();
    let new_model = ZscModel::new(&ModelConfig::tiny().with_seed(77), &schema, FEATURE_DIM);
    let file = ModelFile::encode(&new_model, &schema);
    let version = client
        .swap_model(&file, labels, rows_of(&class_attributes))
        .expect("swaps over the wire");
    assert_eq!(version, 1);
    assert_served_at(&mut client, &server, 1, &random_rows(8, 47));
    let other = AttributeSchema::synthetic(3, 4);
    let foreign = ModelFile::encode(
        &ZscModel::new(&ModelConfig::tiny(), &other, FEATURE_DIM),
        &other,
    );
    let err = client
        .swap_model(&foreign, vec!["x".to_string()], vec![vec![1.0; 12]])
        .expect_err("a model for another schema is rejected");
    assert!(err.is_rejection(wire::code::CHECKPOINT), "{err}");
    assert_served_at(&mut client, &server, 1, &random_rows(2, 48));
    net.shutdown();
}

/// A model at the paper's shape (2048-d features to d = 1536) swaps in
/// over the wire: its model file fits one frame, and every query answered
/// at the new version is bit-identical to `solo_topk` on that snapshot.
#[test]
fn a_paper_shaped_model_swaps_over_the_wire() {
    let schema = AttributeSchema::cub200();
    let config = ModelConfig::paper_default();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6);
    let class_attributes = Matrix::random_uniform(20, 312, 0.5, &mut rng).map(f32::abs);
    let labels: Vec<String> = (0..20).map(|c| format!("class{c}")).collect();
    let model = ZscModel::new(&config.with_seed(1), &schema, 2048);
    let (server, net) = serve(
        model,
        labels.clone(),
        &class_attributes,
        &schema,
        NetConfig::default(),
    );
    let mut client = client(&net);
    let file = ModelFile::encode(&ZscModel::new(&config.with_seed(2), &schema, 2048), &schema);
    let len = file.bytes().len();
    assert!(
        len > 12_000_000 && len < frame::MAX_FRAME_LEN as usize,
        "{len} bytes"
    );
    let version = client
        .swap_model(&file, labels, rows_of(&class_attributes))
        .expect("a paper-shaped model swaps over the wire");
    assert_eq!(version, 1);
    let queries = rows_of(&Matrix::random_uniform(6, 2048, 1.0, &mut rng));
    assert_served_at(&mut client, &server, 1, &queries);
    net.shutdown();
}

/// Opens a raw socket to `net`, bypassing [`NetClient`].
fn raw_socket(net: &NetServer) -> TcpStream {
    let socket = TcpStream::connect(net.local_addr()).expect("connects");
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    socket
}

/// Writes `payload` as one frame and decodes the one response frame.
fn exchange(socket: &mut TcpStream, payload: &[u8]) -> Response {
    frame::write_frame(socket, payload).expect("writes");
    let payload = loop {
        match frame::read_frame(socket, Duration::from_secs(5)).expect("reads") {
            frame::ReadOutcome::Frame(payload) => break payload,
            frame::ReadOutcome::Idle => {}
            frame::ReadOutcome::Closed => panic!("closed before answering"),
        }
    };
    Response::decode(&payload).expect("decodes")
}

/// Handshake rules, pinned over a raw socket: a version mismatch — an
/// unknown version or a retired protocol, 1 or 2 — is a typed
/// `unsupported_protocol` rejection naming the supported version, and a
/// non-hello opener is `bad_request`.
#[test]
fn handshake_version_mismatch_is_rejected() {
    let (_server, net, _schema) = start_stack(NetConfig::default());
    for protocol in [99, 1, 2] {
        let mut socket = raw_socket(&net);
        match exchange(&mut socket, &Request::Hello { protocol }.encode()) {
            Response::Error { code, message } => {
                assert_eq!(code, wire::code::UNSUPPORTED_PROTOCOL);
                let numbers: Vec<u32> = message
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|token| token.parse().ok())
                    .collect();
                assert!(
                    numbers.contains(&wire::PROTOCOL_VERSION),
                    "names the supported version: {message}"
                );
            }
            other => panic!("expected an error, got {other:?}"),
        }
    }

    let mut socket = raw_socket(&net);
    match exchange(&mut socket, &Request::Stats.encode()) {
        Response::Error { code, .. } => assert_eq!(code, wire::code::BAD_REQUEST),
        other => panic!("expected an error, got {other:?}"),
    }
    net.shutdown();
}

/// Malformed queries over a raw socket: a binary row carrying a NaN and a
/// JSON `query` are `bad_request`, a wrong-width row is `feature_width`,
/// and the connection stays open through all three — the next valid
/// query is answered bit-identically to solo scoring.
#[test]
fn malformed_queries_are_typed_and_keep_the_connection() {
    let (server, net, _schema) = start_stack(NetConfig::default());
    let mut socket = raw_socket(&net);
    let hello = Request::Hello {
        protocol: wire::PROTOCOL_VERSION,
    };
    assert!(matches!(
        exchange(&mut socket, &hello.encode()),
        Response::Welcome { .. }
    ));
    let q = random_rows(1, 53).remove(0);
    let expected = server.snapshot().solo_topk(&q, 4);
    let assert_served = |response: Response| match response {
        Response::TopK {
            version, results, ..
        } => {
            assert_eq!(version, 0);
            assert_eq!(results.len(), expected.len());
            for (served, (label, sim)) in results.iter().zip(&expected) {
                assert_eq!(&served.label, label);
                assert_eq!(served.sim_bits, sim.to_bits());
            }
        }
        other => panic!("expected topk, got {other:?}"),
    };
    let assert_rejected = |response: Response, expected_code: &str| match response {
        Response::Error { code, .. } => assert_eq!(code, expected_code),
        other => panic!("expected `{expected_code}`, got {other:?}"),
    };

    let mut poisoned = q.clone();
    poisoned[3] = f32::NAN;
    let poisoned = Request::Query {
        features: poisoned,
        k: None,
    };
    assert_rejected(
        exchange(&mut socket, &poisoned.encode()),
        wire::code::BAD_REQUEST,
    );
    let query = Request::Query {
        features: q.clone(),
        k: None,
    };
    assert_served(exchange(&mut socket, &query.encode()));

    let narrow = Request::Query {
        features: q[..FEATURE_DIM - 1].to_vec(),
        k: None,
    };
    assert_rejected(
        exchange(&mut socket, &narrow.encode()),
        wire::code::FEATURE_WIDTH,
    );
    assert_rejected(
        exchange(
            &mut socket,
            b"{\"type\":\"query\",\"features\":[0.5],\"k\":1}",
        ),
        wire::code::BAD_REQUEST,
    );
    assert_served(exchange(&mut socket, &query.encode()));
    net.shutdown();
}

/// A connection quota closes the connection with a typed
/// `quota_exhausted` rejection after exactly the allowed number of
/// requests.
#[test]
fn connection_quota_is_enforced() {
    let (_server, net, _schema) = start_stack(NetConfig {
        connection_quota: 3,
        ..NetConfig::default()
    });
    let mut client = client(&net);
    let q = vec![0.5; FEATURE_DIM];
    for _ in 0..3 {
        client.query(&q, None).expect("within quota");
    }
    let err = client.query(&q, None).expect_err("over quota");
    assert!(err.is_rejection(wire::code::QUOTA_EXHAUSTED), "{err}");
    // The server closed the connection; the next call cannot succeed.
    assert!(client.query(&q, None).is_err());
    // A fresh connection gets a fresh quota.
    let mut fresh = NetClient::connect(net.local_addr(), ClientConfig::default())
        .expect("fresh client connects");
    fresh.query(&q, None).expect("fresh quota");
    net.shutdown();
}

/// The stats endpoint reports both the dispatcher's counters and the
/// front-end's own, consistent with what this connection just did.
#[test]
fn stats_endpoint_reports_both_planes() {
    let (_server, net, _schema) = start_stack(NetConfig::default());
    let mut client = client(&net);
    let q = vec![0.5; FEATURE_DIM];
    for _ in 0..5 {
        client.query(&q, None).expect("query served");
    }
    let stats = client.stats().expect("stats served");
    assert_eq!(stats.queries, 5);
    assert_eq!(stats.net_admitted, 5);
    assert_eq!(stats.net_overloaded, 0);
    assert!(stats.net_requests >= 6, "5 queries + this stats call");
    assert_eq!(stats.net_connections, 1);
    assert_eq!(stats.classes, 9);
    assert_eq!(stats.snapshot_version, 0);
    assert!(!stats.draining);
    let net_stats = net.stats();
    assert_eq!(net_stats.admitted, 5);
    assert_eq!(net_stats.connections, 1);
    net.shutdown();
}

/// After `shutdown`, new connections are not served and the listener
/// port is released; a request racing the drain gets a typed `draining`
/// rejection or a closed connection, never a hang.
#[test]
fn shutdown_drains_and_rejects_late_requests() {
    let (_server, net, _schema) = start_stack(NetConfig::default());
    let mut client = client(&net);
    let addr = net.local_addr();
    client
        .query(&[0.5; FEATURE_DIM], None)
        .expect("pre-drain query");
    net.shutdown();
    // The established connection is drained: the next request is either
    // answered with `draining` or the socket is already closed.
    match client.query(&[0.5; FEATURE_DIM], None) {
        Err(NetError::Rejected { code, .. }) => assert_eq!(code, wire::code::DRAINING),
        Err(_) => {}
        Ok(_) => panic!("post-drain query must not be served"),
    }
    // New connections are refused (or at best never handshaken).
    assert!(NetClient::connect(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            response_timeout: Duration::from_millis(500),
        }
    )
    .is_err());
}

/// Streamed observes and flushes work over the wire, on a plain and on a
/// durable server: versions advance only at publication boundaries,
/// unknown classes are typed rejections, the stats document carries the
/// streaming and WAL counters, and queries after the stream reflect the
/// published prototypes bit-identically.
#[test]
fn streamed_observes_over_the_wire() {
    let wal_dir = std::env::temp_dir().join(format!("zsc-net-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    for durable in [false, true] {
        streamed_observes_over_the_wire_on(durable.then_some(wal_dir.as_path()));
    }
    std::fs::remove_dir_all(&wal_dir).ok();
}

fn streamed_observes_over_the_wire_on(wal_dir: Option<&std::path::Path>) {
    let (model, labels, class_attributes, schema) = fixture();
    let config = ServerConfig {
        top_k: 4,
        publish_every: 3,
        ..ServerConfig::default()
    };
    let server = Arc::new(
        match wal_dir {
            None => QueryServer::start(model, labels, &class_attributes, config),
            Some(dir) => QueryServer::start_durable(
                model,
                labels,
                &class_attributes,
                &schema,
                config,
                DurabilityConfig::new(dir),
            ),
        }
        .expect("server starts"),
    );
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        &schema,
        NetConfig::default(),
    )
    .expect("front-end binds");
    let mut client = client(&net);
    let rows = random_rows(4, 53);

    // Below the publication boundary the version holds still…
    assert_eq!(client.observe("class1", &rows[0]).expect("observe"), 0);
    assert_eq!(client.observe("class2", &rows[1]).expect("observe"), 0);
    // …and the third observe publishes one snapshot carrying both classes.
    assert_eq!(client.observe("class1", &rows[2]).expect("observe"), 1);
    assert_eq!(server.snapshot().version(), 1);

    match client.observe("ghost", &rows[0]) {
        Err(NetError::Rejected { code, .. }) => assert_eq!(code, wire::code::UNKNOWN_CLASS),
        other => panic!("expected unknown_class rejection, got {other:?}"),
    }

    // An explicit flush publishes the partial batch; an idle flush holds.
    assert_eq!(client.observe("class3", &rows[3]).expect("observe"), 1);
    assert_eq!(client.flush().expect("flush"), 2);
    assert_eq!(client.flush().expect("idle flush"), 2);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.observes, 4);
    assert_eq!((stats.pending_classes, stats.since_publish), (0, 0));
    assert_eq!(stats.snapshot_version, 2);
    if wal_dir.is_some() {
        assert!(stats.wal_bytes > 0, "the durable server logged the stream");
    } else {
        assert_eq!((stats.wal_bytes, stats.records_since_compaction), (0, 0));
    }

    assert_served_at(&mut client, &server, 2, &random_rows(8, 59));
    net.shutdown();
}
