//! Private scratch directories for tests and examples.
//!
//! Test binaries run their tests in parallel, and several binaries can
//! run at once, so a fixed path under the system temp directory is
//! shared mutable state: one test's cleanup deletes another test's
//! file mid-use. A [`ScratchDir`] is unique to its process, its name
//! and its creation order, and it removes itself when dropped.
//!
//! # Examples
//!
//! ```
//! use aos_util::scratch::ScratchDir;
//!
//! let dir = ScratchDir::new("doc-example")?;
//! let path = dir.join("out.txt");
//! std::fs::write(&path, "hello")?;
//! assert_eq!(std::fs::read_to_string(&path)?, "hello");
//! let root = dir.path().to_path_buf();
//! drop(dir);
//! assert!(!root.exists(), "dropping the guard removes the directory");
//! # Ok::<(), std::io::Error>(())
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp directory named
/// `aos-<name>-<pid>-<counter>`, removed with its contents on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, empty directory for the caller named `name`
    /// (conventionally the test's name).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(name: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("aos-{name}-{}-{n}", std::process::id()));
        // A directory left by an earlier process with the same pid
        // (killed before its drop ran) must not leak into this one.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_gives_distinct_directories() {
        let a = ScratchDir::new("scratch-unit").expect("a");
        let b = ScratchDir::new("scratch-unit").expect("b");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        let name = a.path().file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.contains(&std::process::id().to_string()), "{name}");
    }

    #[test]
    fn drop_removes_contents() {
        let dir = ScratchDir::new("scratch-unit-drop").expect("dir");
        std::fs::create_dir_all(dir.join("nested")).expect("nested");
        std::fs::write(dir.join("nested/file"), b"x").expect("file");
        let root = dir.path().to_path_buf();
        drop(dir);
        assert!(!root.exists());
    }
}
