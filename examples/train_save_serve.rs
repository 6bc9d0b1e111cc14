//! Train once, serve many: the full deployment lifecycle.
//!
//! Trains the zero-shot classifier on a small synthetic dataset, saves the
//! exact trained model as a binary model file, reloads it, and puts a
//! micro-batching [`serve::QueryServer`] in front of the reloaded model to
//! answer concurrent queries.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example train_save_serve
//! ```

use dataset::{CubLikeDataset, DatasetConfig, SplitKind};
use hdc_zsc::{ModelConfig, ModelFile, Pipeline, TrainConfig};
use serve::{QueryServer, ServerConfig};

fn main() {
    // 1. Train. `run_returning_model` hands back the exact model behind the
    //    reported outcome — nothing is retrained.
    let mut config = DatasetConfig::tiny(7);
    config.num_classes = 24;
    config.images_per_class = 10;
    config.feature_dim = 128;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(
        ModelConfig::tiny().with_embedding_dim(128),
        TrainConfig::fast(),
    );
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 0);
    println!("trained: {}", outcome.zsc);

    // 2. Save it as a model file, named by its content, in a directory
    //    under the system temp dir.
    let dir = std::env::temp_dir().join("hdc_zsc_example_checkpoint");
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    let file = ModelFile::encode(&model, data.schema());
    file.save(&dir).expect("write model file");
    drop(model);
    println!("model file written to {}", dir.join(file.name()).display());

    // 3. Reload it — checksum, schema and dimension validation happen here —
    //    and serve the unseen classes through the engine's packed popcount
    //    path.
    let reloaded = ModelFile::load(&dir, file.name(), data.schema()).expect("reload model file");
    let split = data.split(SplitKind::Zs);
    let labels: Vec<String> = split
        .eval_classes()
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let class_attributes = data.class_attribute_matrix(split.eval_classes());
    let server = QueryServer::start(reloaded, labels, &class_attributes, ServerConfig::default())
        .expect("server starts");

    // 4. Concurrent callers: every evaluation image is submitted as its own
    //    query; the admission queue coalesces them into engine batches.
    let (eval_x, eval_labels) = data.features_and_labels(split.eval_classes());
    let mut correct = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..eval_x.rows())
            .map(|r| {
                let server = &server;
                let row = eval_x.row(r).to_vec();
                scope.spawn(move || server.query(&row).expect("query served"))
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let top = handle.join().expect("caller thread");
            let expected = format!("class{:03}", eval_labels[r]);
            if top[0].0 == expected {
                correct += 1;
            }
        }
    });
    let stats = server.stats();
    // Serving runs the binarized popcount path (sign of the embeddings
    // against sign of the class embeddings) — the paper's edge-deployment
    // representation — so its accuracy differs from the dense-cosine
    // evaluation above; what is guaranteed is bit-identity with scoring the
    // same query alone through the same packed memory.
    println!(
        "served {} queries in {} engine batches (mean batch {:.1}); top-1 {:.1}%",
        stats.queries,
        stats.batches,
        stats.mean_batch(),
        100.0 * correct as f32 / eval_x.rows() as f32
    );

    // 5. Serve-time hot swap: register one of the *training* classes through
    //    the live server — no restart, no queue drain; only the memory shard
    //    the class routes to is repacked, and the next batch can serve it.
    let extra = split.train_classes()[0];
    let extra_label = format!("class{extra:03}");
    let extra_attr = data.class_attribute_matrix(&[extra]);
    let snapshot = server
        .register_class(extra_label.clone(), extra_attr.row(0))
        .expect("class registers");
    println!(
        "registered {extra_label} live in snapshot v{} ({} classes servable)",
        snapshot.version(),
        snapshot.memory().len()
    );
    let (train_x, _) = data.features_and_labels(&[extra]);
    let top = server.query(train_x.row(0)).expect("query served");
    println!(
        "first query after the swap answered with top-1 {}",
        top[0].0
    );
}
