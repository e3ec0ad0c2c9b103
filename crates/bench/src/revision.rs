//! The source revision a benchmark snapshot was produced from.
//!
//! `report --json` and `datapath` stamp it into `BENCH_report.json` as
//! `revision`, and `report --compare` prints both snapshots' stamps.
//! The stamp is the commit `HEAD` of the source checkout (the one whose
//! path the binary was compiled with) at the time the binary runs. It
//! does not see uncommitted edits, and it follows later commits in that
//! checkout, so it identifies the measured tree only when that tree is
//! committed and the binary was rebuilt from it. The commit is read
//! from the checkout's `.git` directory without running git (which
//! would search parent directories and may not be installed): `HEAD`,
//! then the loose ref it names, then `packed-refs`.

use std::fs;
use std::path::Path;

/// What a snapshot records when no commit can be read (a source tree
/// outside a git clone).
const UNKNOWN: &str = "unknown";

/// The commit the source checkout's `HEAD` names now, or `unknown`.
pub fn revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    revision_in(&root.join(".git"))
}

/// The commit `HEAD` of the git directory `git` names, or `unknown`.
fn revision_in(git: &Path) -> String {
    let read = |p: &Path| fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return UNKNOWN.into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        // A detached HEAD holds the commit itself.
        return head.into();
    };
    if let Some(commit) = read(&git.join(name)) {
        return commit.trim().into();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let mut parts = line.split_whitespace();
                let (commit, r) = (parts.next()?, parts.next()?);
                (r == name && parts.next().is_none()).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| UNKNOWN.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh, empty directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("genie-revision-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("refs/heads")).expect("scratch dir");
        dir
    }

    #[test]
    fn reads_detached_loose_and_packed_heads() {
        let git = scratch("heads");
        assert_eq!(revision_in(&git), UNKNOWN, "no HEAD");
        fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(revision_in(&git), "0123abcd", "detached");
        fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(revision_in(&git), UNKNOWN, "dangling ref");
        fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled\nfeed0001 refs/heads/other\nfeed0002 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(revision_in(&git), "feed0002", "packed");
        fs::write(git.join("refs/heads/main"), "beef0003\n").unwrap();
        assert_eq!(revision_in(&git), "beef0003", "loose ref wins");
        fs::remove_dir_all(&git).unwrap();
    }

    #[test]
    fn the_building_checkout_has_a_revision() {
        // Built from a clone the stamp is a commit id; from an export
        // of the sources it is `unknown`. Never empty either way.
        assert!(!revision().is_empty());
    }
}
