//! The `experiments` binary dispatches by name through the experiment
//! table and refuses a name the table does not hold.

use std::process::Command;

#[test]
fn experiments_binary_runs_e30_and_rejects_unknown_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e30")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("## E30"), "{text}");
    assert!(text.contains("varying"), "{text}");

    let bad = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e99")
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown experiment"));
}
