//! Self-cleaning scratch directories for tests, benches and examples.
//!
//! Every test, bench and example that materialises a corpus needs its
//! own directory. Naming one after the process id alone is not enough:
//! the test harness runs the tests of one binary on parallel threads of
//! the same process, so two tests sharing a tag would share (and delete)
//! each other's corpus. A [`TempDir`] is named from a tag, the process id
//! and a per-process counter, and removes itself on drop — including
//! when the owning test panics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes directories created by one process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under [`std::env::temp_dir`], deleted with
/// its contents when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<temp>/wm-<tag>-<pid>-<n>`, clearing any leftover of a
    /// crashed earlier process that happened to reuse the pid.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("wm-{tag}-{}-{n}", std::process::id()));
        match std::fs::remove_dir_all(&path) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a directory that cannot be removed is left behind
        // rather than turning a passing test into a panic.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("temp-test").unwrap();
        let b = TempDir::new("temp-test").unwrap();
        assert_ne!(a.path(), b.path(), "same tag, same process, distinct dirs");
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.path().join("file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(
            !kept.exists(),
            "drop removes the directory and its contents"
        );
        assert!(b.path().is_dir(), "dropping one leaves the other alone");
    }
}
