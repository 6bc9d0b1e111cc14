//! Shutdown-drain stress test: stopping the server under full load must
//! leave **no query unanswered and none hanging** — every submission either
//! receives its scored response (it was admitted before the stop) or a
//! typed [`ServeError::Draining`] rejection (it arrived after). The test
//! finishing at all is the liveness half of the contract: `stop` joins the
//! dispatcher only after the queue is drained, and a worker blocked forever
//! would hang the run (CI enforces an overall timeout).

use dataset::AttributeSchema;
use hdc_zsc::{ModelConfig, ZscModel};
use serve::{QueryServer, ServeError, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use tensor::Matrix;

const FEATURE_DIM: usize = 24;
const WORKERS: usize = 8;

#[test]
fn stop_under_load_answers_or_cleanly_rejects_every_query() {
    let schema = AttributeSchema::cub200();
    let model = ZscModel::new(&ModelConfig::tiny().with_seed(41), &schema, FEATURE_DIM);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43);
    let class_attributes = Matrix::random_uniform(6, 312, 0.5, &mut rng).map(f32::abs);
    let labels: Vec<String> = (0..6).map(|c| format!("class{c}")).collect();
    let server = QueryServer::start(
        model,
        labels,
        &class_attributes,
        ServerConfig {
            max_batch: 8,
            max_wait_us: 100,
            threads: 2,
            top_k: 3,
            shards: 3,
            routed: None,
            publish_every: 1,
        },
    )
    .expect("server starts");

    let answered = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let server = &server;
            let (answered, rejected) = (&answered, &rejected);
            scope.spawn(move || {
                let features = vec![0.1 + w as f32 * 0.05; FEATURE_DIM];
                // Hammer until the drain rejection arrives; every response
                // before it must be a genuine scored result.
                loop {
                    match server.query(&features) {
                        Ok(top) => {
                            assert_eq!(top.len(), 3, "worker {w} got a malformed response");
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::Draining) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        Err(other) => panic!(
                            "worker {w}: drained queries must be answered, not dropped \
                             (got {other})"
                        ),
                    }
                }
            });
        }
        // Let the workers build up real in-flight traffic, then pull the
        // plug from a thread that only holds `&self`.
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.stop();
    });

    // Every worker ran until the drain rejection: one rejection each, and
    // between them a healthy amount of answered traffic.
    assert_eq!(rejected.load(Ordering::SeqCst), WORKERS as u64);
    let answered = answered.load(Ordering::SeqCst);
    assert!(answered > 0, "the stop fired before any query was served");
    // The dispatcher's own ledger agrees: nothing admitted was dropped.
    assert_eq!(server.stats().queries, answered);

    // Stopped is sticky and stop is idempotent.
    assert!(matches!(
        server.query(&[0.5; FEATURE_DIM]),
        Err(ServeError::Draining)
    ));
    server.stop();
}

#[test]
fn stop_during_an_open_window_does_not_wait_it_out() {
    let schema = AttributeSchema::cub200();
    let model = ZscModel::new(&ModelConfig::tiny().with_seed(41), &schema, FEATURE_DIM);
    let class_attributes = Matrix::ones(4, 312);
    let labels: Vec<String> = (0..4).map(|c| format!("class{c}")).collect();
    let server = QueryServer::start(
        model,
        labels,
        &class_attributes,
        ServerConfig {
            max_batch: 8,
            // Five seconds: a dispatcher that sat the window out would
            // blow the bound below by a wide margin.
            max_wait_us: 5_000_000,
            threads: 1,
            top_k: 2,
            shards: 1,
            routed: None,
            publish_every: 1,
        },
    )
    .expect("server starts");

    std::thread::scope(|scope| {
        let queued = scope.spawn(|| server.query(&[0.3; FEATURE_DIM]));
        // The query is queued and its window open long before the stop.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let start = std::time::Instant::now();
        server.stop();
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_millis(2_500),
            "stop waited out the coalescing window ({took:?})"
        );
        let top = queued
            .join()
            .expect("query thread")
            .expect("the queued query is answered, not dropped");
        assert_eq!(top.len(), 2);
    });
    assert_eq!(server.stats().queries, 1);
}
