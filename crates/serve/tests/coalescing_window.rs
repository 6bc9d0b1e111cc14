//! The coalescing window is spent embedding: the dispatcher embeds the rows
//! it already holds and tops the batch up with rows that arrive before the
//! window closes. These tests pin what that must not change:
//!
//! * a top-up never crosses a snapshot publication — a query submitted
//!   after a mutation returned is served by that mutation's version (or a
//!   later one), never by the batch's older snapshot;
//! * top-ups form one batch, capped at `max_batch` and bounded by the
//!   window, and every answer is bit-identical to
//!   [`serve::ModelSnapshot::solo_topk`] on the snapshot that served it.
//!
//! The windows here are long (200 ms) so the interleavings do not depend on
//! scheduling: a row queued 20–50 ms after another lands inside its window.

use dataset::AttributeSchema;
use hdc_zsc::{ModelConfig, ZscModel};
use serve::{ModelSnapshot, QueryServer, ScoredLabel, ServerConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tensor::Matrix;

const FEATURE_DIM: usize = 24;
const CLASSES: usize = 6;
const TOP_K: usize = 3;
/// Long enough that every row a test sends lands inside the open window.
const WINDOW_US: u64 = 200_000;

fn model(seed: u64) -> ZscModel {
    ZscModel::new(
        &ModelConfig::tiny().with_seed(seed),
        &AttributeSchema::cub200(),
        FEATURE_DIM,
    )
}

fn class_set(seed: u64) -> (Vec<String>, Matrix) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let attributes = Matrix::random_uniform(CLASSES, 312, 0.5, &mut rng).map(f32::abs);
    let labels = (0..CLASSES).map(|c| format!("class{c}")).collect();
    (labels, attributes)
}

fn start(max_batch: usize) -> QueryServer {
    let (labels, attributes) = class_set(5);
    QueryServer::start(
        model(3),
        labels,
        &attributes,
        ServerConfig {
            max_batch,
            max_wait_us: WINDOW_US,
            threads: 2,
            top_k: TOP_K,
            shards: 2,
            routed: None,
            publish_every: 1,
        },
    )
    .expect("server starts")
}

fn rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Matrix::random_uniform(1, FEATURE_DIM, 1.0, &mut rng)
                .row(0)
                .to_vec()
        })
        .collect()
}

/// Labels plus raw similarity bits, so comparisons are bit-exact.
fn bits(top: &[ScoredLabel]) -> Vec<(String, u32)> {
    top.iter()
        .map(|(label, sim)| (label.clone(), sim.to_bits()))
        .collect()
}

fn assert_solo(snapshot: &ModelSnapshot, features: &[f32], served: &[ScoredLabel], what: &str) {
    assert_eq!(
        bits(served),
        bits(&snapshot.solo_topk(features, TOP_K)),
        "{what}: served answer differs from solo scoring on v{}",
        snapshot.version()
    );
}

/// q1 opens a window; while it is open the main thread publishes a new
/// snapshot through `mutate`, then sends q2. q2 must be served by the new
/// version, bit-identically to solo scoring there.
fn no_stale_snapshot_across_window(mutate: impl FnOnce(&QueryServer) -> Arc<ModelSnapshot>) {
    let server = start(16);
    let initial = server.snapshot();
    let [q1, q2]: [Vec<f32>; 2] = rows(2, 9).try_into().expect("two rows");
    let (first, published, second) = std::thread::scope(|scope| {
        let opener = scope.spawn(|| server.query_traced(&q1).expect("q1 served"));
        // q1 is queued and its window has opened well before this returns.
        std::thread::sleep(Duration::from_millis(50));
        let published = mutate(&server);
        let second = server.query_traced(&q2).expect("q2 served");
        (opener.join().expect("q1 thread"), published, second)
    });
    let versions: HashMap<u64, &ModelSnapshot> = [&initial, &published]
        .into_iter()
        .map(|s| (s.version(), s.as_ref()))
        .collect();

    let (v2, top2) = second;
    assert!(
        v2 >= published.version(),
        "q2 was submitted after v{} was published but served by v{v2}",
        published.version()
    );
    assert_solo(versions[&v2], &q2, &top2, "q2");
    let (v1, top1) = first;
    assert_solo(versions[&v1], &q1, &top1, "q1");
}

#[test]
fn register_during_open_window_is_visible_to_later_queries() {
    no_stale_snapshot_across_window(|server| {
        server
            .register_class("late", &vec![0.75; 312])
            .expect("class registers")
    });
}

#[test]
fn model_swap_during_open_window_is_visible_to_later_queries() {
    no_stale_snapshot_across_window(|server| {
        let (labels, attributes) = class_set(11);
        server
            .swap_model(model(17), labels, &attributes)
            .expect("model swaps")
    });
}

/// q1 opens a window, and 20 ms later five more rows arrive as one
/// `query_batch`. Returns every (row, answer) pair.
fn one_window_of_traffic(server: &QueryServer) -> Vec<(Vec<f32>, Vec<ScoredLabel>)> {
    let mut sent = rows(6, 21);
    let q1 = sent.remove(0);
    let (first, rest) = std::thread::scope(|scope| {
        let opener = scope.spawn(|| server.query(&q1).expect("q1 served"));
        std::thread::sleep(Duration::from_millis(20));
        let rest = server.query_batch(&sent).expect("batch served");
        (opener.join().expect("q1 thread"), rest)
    });
    std::iter::once((q1, first))
        .chain(sent.into_iter().zip(rest))
        .collect()
}

#[test]
fn top_ups_inside_the_window_form_one_batch() {
    let server = start(64);
    let snapshot = server.snapshot();
    for (i, (features, top)) in one_window_of_traffic(&server).iter().enumerate() {
        assert_solo(&snapshot, features, top, &format!("row {i}"));
    }
    let stats = server.stats();
    assert_eq!(stats.batches, 1, "{stats:?}");
    assert_eq!(stats.max_batch_observed, 6, "{stats:?}");
    assert_eq!(stats.queries, 6, "{stats:?}");

    // The window closed with the first batch: a later row opens a new one.
    let late = rows(1, 22).remove(0);
    let top = server.query(&late).expect("late row served");
    assert_solo(&snapshot, &late, &top, "late row");
    let stats = server.stats();
    assert_eq!(stats.batches, 2, "{stats:?}");
    assert_eq!(stats.max_batch_observed, 6, "{stats:?}");
}

#[test]
fn top_ups_stop_at_max_batch() {
    let server = start(4);
    let snapshot = server.snapshot();
    for (i, (features, top)) in one_window_of_traffic(&server).iter().enumerate() {
        assert_solo(&snapshot, features, top, &format!("row {i}"));
    }
    let stats = server.stats();
    assert_eq!(stats.queries, 6, "{stats:?}");
    assert_eq!(stats.max_batch_observed, 4, "{stats:?}");
    assert_eq!(stats.batches, 2, "{stats:?}");
}
