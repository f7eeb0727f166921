//! Shared by the integration tests that drive the `octopocs` and
//! `octopocsd` binaries as subprocesses.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The path of the `octopocs` crate's binary `name` (`octopocs` or
/// `octopocsd`), freshly built.
///
/// The first call in a test process runs `cargo build -p octopocs
/// --bins` into the target directory this test executable lives in,
/// adding `--release` when the test itself is a release build. Cargo
/// rebuilds only what changed, so a test never drives a binary older
/// than the source it was compiled with — `cargo test` on the root
/// package alone does not build another package's binaries.
pub fn bin(name: &str) -> PathBuf {
    static PROFILE_DIR: OnceLock<PathBuf> = OnceLock::new();
    PROFILE_DIR
        .get_or_init(|| {
            let exe = std::env::current_exe().expect("test exe path");
            // <target>/<profile>/deps/<test exe>
            let profile_dir = exe
                .parent()
                .and_then(Path::parent)
                .expect("test exe lives under <target>/<profile>/deps");
            let target_dir = profile_dir.parent().expect("target dir");
            let mut cargo = Command::new(env!("CARGO"));
            cargo
                .args(["build", "-q", "-p", "octopocs", "--bins", "--target-dir"])
                .arg(target_dir);
            if profile_dir.file_name() == Some("release".as_ref()) {
                cargo.arg("--release");
            }
            let status = cargo.status().expect("spawn cargo build");
            assert!(status.success(), "cargo build -p octopocs --bins failed");
            profile_dir.to_path_buf()
        })
        .join(name)
}
