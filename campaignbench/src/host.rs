//! The host and run settings recorded with every result.

use popele_lab::sweep::json::Json;
use std::path::Path;

/// Host facts a timing depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Whether the CPU has AVX-512F (the lane and fused kernels use it).
    pub avx512f: bool,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the host. Each fact falls back to `"unknown"` when it
    /// cannot be read.
    #[must_use]
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|line| line.starts_with(key))
                .and_then(|line| line.split_once(':'))
                .map(|(_, value)| value.trim().to_string())
        };
        let avx512f = field("flags").is_some_and(|flags| flags.split(' ').any(|f| f == "avx512f"));
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: field("model name").unwrap_or_else(|| "unknown".into()),
            avx512f,
            rustc,
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The host facts plus the run settings, as a JSON object.
    #[must_use]
    pub fn to_json(&self, seed: u64, workers: usize, threads: usize) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::from_u64(self.nproc as u64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("avx512f".into(), Json::Bool(self.avx512f)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("seed".into(), Json::from_u64(seed)),
            ("workers".into(), Json::from_u64(workers as u64)),
            ("threads".into(), Json::from_u64(threads as u64)),
        ])
    }
}

/// The commit `HEAD` names in the git directory `git_dir`, read from its
/// files (no `git` process, so nothing outside the checkout is read).
#[must_use]
pub fn git_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_head_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("campaignbench-git-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(git_head(&dir), None);
    }
}
