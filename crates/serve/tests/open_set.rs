//! Open-set serving tests: the calibrated rejection threshold as a live,
//! versioned control.
//!
//! Pins the four contracts the threshold verb adds to the serving layer:
//! a threshold set **over the wire** applies atomically mid-traffic (every
//! response's verdict presence matches the snapshot version that served
//! it), verdicts are **bit-consistent** with recomputing over
//! [`serve::ModelSnapshot::solo_topk`], clearing the threshold restores
//! verdict-free serving, and a durable server **recovers** its calibrated
//! threshold bit-exactly across a kill → WAL-replay cycle (including
//! through a compaction base).

use dataset::AttributeSchema;
use hdc_zsc::{ModelConfig, ZscModel};
use serve::net::{ClientConfig, NetClient, NetConfig, NetServer};
use serve::{DurabilityConfig, QueryServer, ServeError, ServerConfig, SyncPolicy, Verdict};
use std::path::PathBuf;
use std::sync::Arc;
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

/// The next representable `f32` above `sim` — the tightest threshold that
/// makes `sim` fall strictly below it.
fn next_above(sim: f32) -> f32 {
    assert!(sim.is_finite());
    if sim == 0.0 {
        f32::MIN_POSITIVE
    } else if sim > 0.0 {
        f32::from_bits(sim.to_bits() + 1)
    } else {
        f32::from_bits(sim.to_bits() - 1)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsc-open-set-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The full threshold lifecycle over the wire: no verdict before
/// calibration, `known` for a tie with the threshold (the rule is strict
/// less), `unknown` one ulp above the query's own similarity, and no
/// verdict again after the clear — each transition a versioned snapshot
/// publication.
#[test]
fn wire_threshold_lifecycle_drives_verdicts() {
    let (model, labels, class_attributes, schema) = fixture();
    let server = Arc::new(
        QueryServer::start(model, labels, &class_attributes, ServerConfig::default())
            .expect("server starts"),
    );
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        &schema,
        NetConfig::default(),
    )
    .expect("front-end binds");
    let mut client =
        NetClient::connect(net.local_addr(), ClientConfig::default()).expect("client connects");
    let q = &random_rows(1, 23)[0];

    let (version, served, verdict) = client.query_with_verdict(q, None).expect("query served");
    assert_eq!(version, 0);
    assert_eq!(verdict, None, "no threshold, no verdict");
    let top1 = served.first().expect("nine classes are registered").1;

    // A threshold equal to the query's own top-1 similarity: the tie
    // survives the strict-less rule.
    let set_version = client
        .set_threshold(Some(top1))
        .expect("threshold set over the wire");
    assert_eq!(set_version, 1);
    assert_eq!(
        server.snapshot().threshold().map(f32::to_bits),
        Some(top1.to_bits()),
        "threshold crossed the wire bit-exactly"
    );
    let (version, tied, verdict) = client.query_with_verdict(q, None).expect("query served");
    assert_eq!(version, 1);
    assert_eq!(verdict, Some(Verdict::Known));
    assert_eq!(tied[0].1.to_bits(), top1.to_bits());

    // `k = 0` empties the response, and an empty response is `unknown`
    // under a threshold — as `ModelSnapshot::verdict` rules on the solo
    // reference.
    let (_, empty, verdict) = client
        .query_with_verdict(q, Some(0))
        .expect("empty query served");
    assert!(empty.is_empty());
    assert_eq!(verdict, Some(Verdict::Unknown));
    let snapshot = server.snapshot();
    assert_eq!(snapshot.verdict(&snapshot.solo_topk(q, 0)), verdict);

    // One ulp above: the same query now falls strictly below.
    let set_version = client
        .set_threshold(Some(next_above(top1)))
        .expect("tighter threshold set");
    assert_eq!(set_version, 2);
    let (version, _, verdict) = client.query_with_verdict(q, None).expect("query served");
    assert_eq!(version, 2);
    assert_eq!(verdict, Some(Verdict::Unknown));

    // `k` narrows the response but cannot change the top-1 verdict.
    let (_, narrowed, verdict) = client
        .query_with_verdict(q, Some(1))
        .expect("narrowed query served");
    assert_eq!(narrowed.len(), 1);
    assert_eq!(verdict, Some(Verdict::Unknown));

    // Clearing restores verdict-free serving.
    let clear_version = client.set_threshold(None).expect("threshold cleared");
    assert_eq!(clear_version, 3);
    let (version, cleared, verdict) = client.query_with_verdict(q, None).expect("query served");
    assert_eq!(version, 3);
    assert_eq!(verdict, None);
    assert_eq!(cleared[0].1.to_bits(), top1.to_bits());

    // Non-finite thresholds are typed rejections, nothing published.
    let err = client
        .set_threshold(Some(f32::NAN))
        .expect_err("NaN threshold is rejected");
    assert!(matches!(
        err,
        serve::net::NetError::Rejected { ref code, .. } if code == "invalid_config"
    ));
    assert_eq!(server.snapshot().version(), 3);
    net.shutdown();
}

/// Every served verdict is bit-consistent with recomputing it from
/// [`serve::ModelSnapshot::solo_topk`] on the serving snapshot — and a
/// mid-range threshold splits a random query batch into both verdicts.
#[test]
fn verdicts_are_bit_consistent_with_solo_recomputation() {
    let (model, labels, class_attributes, _) = fixture();
    let server = QueryServer::start(model, labels, &class_attributes, ServerConfig::default())
        .expect("server starts");
    let queries = random_rows(32, 59);

    // Calibrate at runtime: a threshold strictly between two observed
    // top-1 similarities guarantees both verdicts occur, whatever exact
    // values this model produces.
    let mut sims: Vec<f32> = queries
        .iter()
        .map(|q| server.query(q).expect("uncalibrated query")[0].1)
        .collect();
    sims.sort_by(f32::total_cmp);
    let threshold = sims[sims.len() / 2];
    assert!(
        sims[0] < threshold && threshold <= sims[sims.len() - 1],
        "fixture similarities must straddle the median"
    );
    server.set_threshold(threshold).expect("threshold set");

    let snapshot = server.snapshot();
    let mut known = 0usize;
    let mut unknown = 0usize;
    let mut top1s = Vec::with_capacity(queries.len());
    for q in &queries {
        let (version, served, verdict) = server.query_with_verdict(q).expect("query served");
        assert_eq!(version, snapshot.version());
        top1s.push(served[0].1);
        let solo = snapshot.solo_topk(q, ServerConfig::default().top_k);
        let served_bits: Vec<(&str, u32)> = served
            .iter()
            .map(|(l, s)| (l.as_str(), s.to_bits()))
            .collect();
        let solo_bits: Vec<(&str, u32)> = solo
            .iter()
            .map(|(l, s)| (l.as_str(), s.to_bits()))
            .collect();
        assert_eq!(served_bits, solo_bits, "served top-k diverged from solo");
        assert_eq!(
            verdict,
            snapshot.verdict(&solo),
            "served verdict diverged from solo recomputation"
        );
        match verdict.expect("threshold is set") {
            Verdict::Known => known += 1,
            Verdict::Unknown => unknown += 1,
        }
    }
    assert!(known > 0, "median threshold must leave known queries");
    assert!(unknown > 0, "median threshold must reject some queries");
    // The metrics layer's reject rule (strictly below the threshold) and the
    // served verdicts agree; the median query sits exactly on the threshold.
    let report = metrics::rejection_report(&top1s, &vec![true; top1s.len()], threshold);
    assert_eq!(
        report.rejected, unknown,
        "the metrics-layer reject rule and the served verdicts must agree"
    );
}

/// Mid-traffic atomicity, version-traced over the wire: while reader
/// connections hammer queries, the threshold is set and then cleared; every
/// response must carry a verdict exactly when the version that served it is
/// the calibrated one — never a verdict from a version that had no
/// threshold, never a missing verdict from the calibrated version.
#[test]
fn wire_threshold_applies_atomically_mid_traffic() {
    let (model, labels, class_attributes, schema) = fixture();
    let server = Arc::new(
        QueryServer::start(model, labels, &class_attributes, ServerConfig::default())
            .expect("server starts"),
    );
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        &schema,
        NetConfig::default(),
    )
    .expect("front-end binds");
    let queries = random_rows(8, 101);

    let observed: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let mut client = NetClient::connect(net.local_addr(), ClientConfig::default())
                    .expect("reader connects");
                let queries = &queries;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..30 {
                        let q = &queries[(r * 7 + round) % queries.len()];
                        let (version, _, verdict) =
                            client.query_with_verdict(q, None).expect("query served");
                        seen.push((version, verdict.is_some()));
                    }
                    seen
                })
            })
            .collect();
        let mut writer =
            NetClient::connect(net.local_addr(), ClientConfig::default()).expect("writer connects");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let set_version = writer.set_threshold(Some(0.0)).expect("threshold set");
        assert_eq!(set_version, 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let clear_version = writer.set_threshold(None).expect("threshold cleared");
        assert_eq!(clear_version, 2);
        readers
            .into_iter()
            .flat_map(|handle| handle.join().expect("reader thread"))
            .collect()
    });
    for (version, has_verdict) in observed {
        assert_eq!(
            has_verdict,
            version == 1,
            "version {version} must carry a verdict iff it is the calibrated snapshot"
        );
    }
    net.shutdown();
}

/// Kill → recover preserves the calibrated threshold bit-exactly: from the
/// WAL record, from a compaction base that folded it in, and — after a
/// logged clear — as the absence of a threshold.
#[test]
fn recovery_preserves_the_calibrated_threshold() {
    let (model, labels, class_attributes, schema) = fixture();
    let dir = temp_dir("recover");
    let config = ServerConfig::default();
    let durability = || DurabilityConfig {
        dir: dir.clone(),
        sync: SyncPolicy::Always,
        compact_every: 0,
    };
    let threshold = 0.087_5f32;
    let extra_attr = vec![0.5; 312];
    {
        let server = QueryServer::start_durable(
            model,
            labels,
            &class_attributes,
            &schema,
            config,
            durability(),
        )
        .expect("durable server starts");
        server
            .register_class("extra", &extra_attr)
            .expect("registers");
        server.set_threshold(threshold).expect("threshold set");
        // Dropped without compaction: recovery must replay the threshold
        // from its WAL record.
    }
    let (server, report) =
        QueryServer::recover(&schema, config, durability()).expect("first recovery");
    assert_eq!(report.snapshot_version, 2);
    assert_eq!(report.replayed_records, 2);
    assert_eq!(
        server.snapshot().threshold().map(f32::to_bits),
        Some(threshold.to_bits()),
        "threshold replayed from the WAL"
    );
    let q = &random_rows(1, 3)[0];
    let (_, served, verdict) = server.query_with_verdict(q).expect("query served");
    assert_eq!(verdict, server.snapshot().verdict(&served));

    // Fold the threshold into a compaction base, mutate past it, kill.
    assert!(server.compact().expect("compacts"));
    server.remove_class("extra").expect("removes");
    drop(server);
    let (server, report) =
        QueryServer::recover(&schema, config, durability()).expect("second recovery");
    assert_eq!(report.replayed_records, 1, "only the post-base removal");
    assert_eq!(
        server.snapshot().threshold().map(f32::to_bits),
        Some(threshold.to_bits()),
        "threshold restored from the compaction base"
    );

    // A logged clear survives the next crash too.
    server.clear_threshold().expect("threshold cleared");
    drop(server);
    let (server, _) = QueryServer::recover(&schema, config, durability()).expect("third recovery");
    assert_eq!(server.snapshot().threshold(), None);
    let (_, _, verdict) = server.query_with_verdict(q).expect("query served");
    assert_eq!(verdict, None);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-process error path mirrors the wire one: non-finite thresholds
/// are [`ServeError::InvalidConfig`] and publish nothing.
#[test]
fn non_finite_thresholds_are_rejected() {
    let (model, labels, class_attributes, _) = fixture();
    let server = QueryServer::start(model, labels, &class_attributes, ServerConfig::default())
        .expect("server starts");
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert!(matches!(
            server.set_threshold(bad),
            Err(ServeError::InvalidConfig(_))
        ));
    }
    assert_eq!(server.snapshot().version(), 0);
}
