//! `serve_sim` rejects gate and shape flags the chosen tier never reads, so
//! a misconfigured CI step fails instead of passing without checking
//! anything.

use std::process::Command;

/// A shape small enough that an accepted run finishes in well under a
/// second.
const TINY: &str = "--dim 256 --classes 50 --batch 8 --batches 2";

const ROUTED: &[&str] = &["--index", "routed"];

/// Runs `serve_sim` on the tiny shape plus `extra`; returns whether it
/// exited successfully and its stderr.
fn serve_sim(extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(TINY.split(' '))
        .args(extra)
        .output()
        .expect("serve_sim runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn flags_the_tier_does_not_read_are_rejected() {
    // (tier selection, a flag only the other tier reads)
    let cases: &[(&[&str], &[&str])] = &[
        (&[], &["--max-candidate-fraction", "0.5"]),
        (&[], &["--clusters", "4"]),
        (&[], &["--nprobe", "2"]),
        (ROUTED, &["--min-speedup", "3.0"]),
    ];
    for (tier, flag) in cases {
        let args = [*tier, *flag].concat();
        let (ok, stderr) = serve_sim(&args);
        assert!(!ok, "serve_sim {args:?} must exit non-zero");
        assert!(
            stderr.contains(&format!("{} is not read by", flag[0])),
            "serve_sim {args:?}: {stderr}"
        );
    }
    // Control: each tier still accepts its own flags on the same shape.
    assert!(serve_sim(&["--min-speedup", "1.0"]).0);
    let routed_own = [
        ROUTED,
        &["--nprobe", "2", "--max-candidate-fraction", "1.0"],
    ]
    .concat();
    assert!(serve_sim(&routed_own).0);
}

#[test]
fn retired_flags_are_unknown_arguments() {
    for flag in [["--threads", "2"], ["--shards", "2"]] {
        let (ok, stderr) = serve_sim(&flag);
        assert!(!ok, "serve_sim {flag:?} must exit non-zero");
        assert!(
            stderr.contains(&format!("unknown argument {}", flag[0])),
            "serve_sim {flag:?}: {stderr}"
        );
    }
}
