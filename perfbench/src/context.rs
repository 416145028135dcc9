//! What a result was measured on: recorded with every result line.

use std::path::Path;

/// Run settings and machine facts printed beside the metrics.
#[derive(Debug, Clone)]
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cores: usize,
    pub workers: usize,
    pub engine_threads: usize,
    pub git_rev: String,
    pub src_fnv: String,
}

impl Context {
    /// Context of a run started from the checkout root `root`; `workers`
    /// is the server's worker pool (0 without a server) and
    /// `engine_threads` the `aiio-par` threads of the workload's
    /// diagnoses or store calls.
    pub fn new(
        root: &Path,
        workload: &str,
        (seed, seconds, trace): (u64, u64, bool),
        workers: usize,
        engine_threads: usize,
    ) -> Context {
        Context {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            cores: crate::nproc(),
            workers,
            engine_threads,
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            src_fnv: format!("{:016x}", source_fingerprint(root)),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\"workers\":{},\"engine_threads\":{},\"git_rev\":\"{}\",\"src_fnv\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.cores,
            self.workers,
            self.engine_threads,
            self.git_rev,
            self.src_fnv
        )
    }
}

/// The commit checked out at `root`, read from `.git` without running
/// git (a source tarball has no `.git` and reports `None`).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// FNV-1a-64 over the path and bytes of every Rust source and manifest
/// under `crates/` and `vendor/`, in sorted order: identifies the program
/// version even where no git metadata exists.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
