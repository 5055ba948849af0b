//! Output hygiene for bench binaries: every machine-readable artifact
//! (`BENCH_*.json`) goes through one resolver instead of each binary
//! hardcoding a CWD-relative path.
//!
//! By default artifacts land in the current directory (unchanged
//! behavior for interactive runs). Set `PRISM_BENCH_OUT_DIR` to collect
//! them somewhere specific — CI does this to upload them as artifacts.

use std::path::{Path, PathBuf};

use prism_core::sim::json::Json;

/// Resolves the output path for a bench artifact: `$PRISM_BENCH_OUT_DIR/file`
/// when the variable is set (the directory is created if missing),
/// otherwise `file` in the current directory.
pub fn bench_out(file: &str) -> PathBuf {
    match std::env::var_os("PRISM_BENCH_OUT_DIR") {
        Some(dir) => {
            let dir = Path::new(&dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("could not create {}: {e}", dir.display());
            }
            dir.join(file)
        }
        None => PathBuf::from(file),
    }
}

/// Writes a bench JSON artifact to [`bench_out`]`(file)`, rendered
/// compactly by [`prism_core::sim::json`] with a final newline, and
/// reports the final path on stdout. Write failures are reported, not
/// fatal — the human-readable tables on stdout are the primary output.
pub fn write_bench_json(file: &str, json: &Json) {
    let path = bench_out(file);
    match std::fs::write(&path, format!("{json}\n")) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::bench_out;

    #[test]
    fn defaults_to_bare_file_name() {
        // The suite never sets the variable, so the default branch is
        // what every interactive `cargo run` exercises.
        if std::env::var_os("PRISM_BENCH_OUT_DIR").is_none() {
            assert_eq!(
                bench_out("BENCH_x.json"),
                std::path::Path::new("BENCH_x.json")
            );
        }
    }
}
