//! Crash-safe file installation shared by every crate that writes
//! artifacts (cache entries, report exports, checkpoints, profiles).
//!
//! The idiom is always the same: write the full payload to a uniquely
//! named temp file *in the destination directory* and `rename` it into
//! place. POSIX rename is atomic within a filesystem, so a reader — or
//! a process restarted after `kill -9` — either sees the previous
//! version of the file or the complete new one, never a truncated
//! intermediate.
//!
//! That guarantee covers a process crash only. [`write_atomic`] renames
//! without fsyncing the temp file or the parent directory: after a
//! `kill -9` the kernel still holds the data and the rename, but after
//! power loss or a kernel crash the rename may be lost, or land before
//! the data and leave an empty or truncated file.

use crate::error::{Result, SrapsError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence for temp-file names: threads writing the same
/// destination concurrently never collide on the temp path.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique temp path in the same directory as `path`. The name carries
/// the pid (processes sharing a directory) plus a process-wide counter
/// (threads racing the same destination) and a leading dot so partial
/// temp files from killed processes are recognizable litter, never
/// mistaken for real artifacts.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    dir.join(format!(".{file_name}.tmp.{}.{seq}", std::process::id()))
}

/// Write `bytes` to `path` atomically (temp file + rename in the same
/// directory). At worst, concurrent writers race identical-or-complete
/// payloads through `rename`; a killed writer leaves only a dot-prefixed
/// temp file behind, never a torn `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_sibling(path);
    std::fs::write(&tmp, bytes)
        .map_err(|e| SrapsError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        SrapsError::Io(format!("install {}: {e}", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_complete_and_replace_previous_content() {
        let dir = std::env::temp_dir().join(format!("sraps-fsio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.csv");
        write_atomic(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        write_atomic(&path, b"version-two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version-two");
        // No temp litter after successful installs.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_siblings_are_unique_and_hidden() {
        let path = Path::new("cache/abc.json");
        let a = temp_sibling(path);
        let b = temp_sibling(path);
        assert_ne!(a, b, "sequence must make concurrent temp names unique");
        assert!(a.file_name().unwrap().to_string_lossy().starts_with('.'));
        assert_eq!(a.parent(), Some(Path::new("cache")));
    }

    #[test]
    fn bare_file_names_write_into_the_current_directory() {
        let t = temp_sibling(Path::new("solo.json"));
        assert_eq!(t.parent(), Some(Path::new(".")));
    }
}
