//! `aos ablate` rejects sweep points too large to allocate as a usage
//! error (exit 2, one `error:` line), before any machine is built.

use std::process::Command;

#[test]
fn huge_geometry_entries_exit_2() {
    for (flag, value) in [
        ("--bwb", "18446744073709551615"),
        ("--mcq", "18446744073709551615"),
        ("--bwb", "4294967296"),
        ("--bwb", "4097"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_aos"))
            .args(["ablate", "--scale", "0.002", flag, value])
            .output()
            .expect("the aos binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "aos ablate {flag} {value}: {out:?}"
        );
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(
            stderr.contains("entries must be between 1 and 4096"),
            "{stderr}"
        );
    }
}
