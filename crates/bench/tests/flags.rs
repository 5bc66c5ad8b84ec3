//! A figure driver given an argument it does not accept prints a usage
//! line and exits 2 instead of printing the default figure.

use std::process::Command;

#[test]
fn a_mistyped_flag_exits_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .arg("--write")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no figure may be printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"--write\""), "{err}");
    assert!(err.contains("[--quick] [--writes]"), "{err}");
}
