//! Helpers shared by the server's integration tests.

use std::path::{Path, PathBuf};

/// A per-process directory under the system temp dir that is removed on
/// drop, so test runs leave no state directories behind.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `$TMPDIR/svard-<tag>-<pid>`, emptied first in case a killed run left
    /// it behind. Whoever uses the path first creates the directory.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("svard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
