//! The process-boundary durability drill of `zsc_serve`: one process
//! registers classes durably and exits hard without running destructors,
//! and a second process rebuilds the server from the WAL directory alone
//! and answers every recorded probe bit-identically.

use std::path::Path;
use std::process::{Command, Output};

fn zsc_serve(args: &[&str], dir: &Path) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_zsc_serve"))
        .args(["--quick", "--json"])
        .args(args)
        .arg("--wal-dir")
        .arg(dir.join("wal"))
        .output()
        .expect("zsc_serve runs");
    assert!(
        output.status.success(),
        "zsc_serve {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn kill_after_register_then_recover_answers_every_probe() {
    let dir = std::env::temp_dir().join(format!("zsc-drill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create drill dir");
    let checkpoint = dir.join("checkpoint.json");
    let checkpoint = checkpoint.to_str().expect("utf-8 temp path");

    zsc_serve(&["--checkpoint", checkpoint, "--kill-after-register"], &dir);
    let recovered = zsc_serve(&["--recover"], &dir);

    let report = String::from_utf8(recovered.stdout).expect("utf-8 report");
    assert!(report.contains("\"recovered\": true"), "{report}");
    assert!(report.contains("\"probes_checked\": 8"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}
