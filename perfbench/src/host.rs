//! Host fingerprint, resource gauges read from `/proc/self`, and the two
//! roofline probes (STREAM triad bandwidth, multiply-add throughput)
//! that `crossbar.roofline_frac` is measured against.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result was measured on: printed with every run.
pub struct Fingerprint {
    nproc: usize,
    cpu_model: String,
    profile: &'static str,
    rustc: String,
    commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and of the checkout in the
    /// current directory.
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc,
            commit: commit_id(),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" profile={} rustc=\"{}\" commit={}",
            self.nproc, self.cpu_model, self.profile, self.rustc, self.commit
        )
    }
}

/// The git commit of the checkout when `.git` is present; otherwise a
/// content hash of the sources the benchmark builds (`tree:<fnv64>`),
/// so exported checkouts are still told apart.
fn commit_id() -> String {
    if let Some(head) = git_head() {
        return head;
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("perfbench/src"), &mut files);
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree:{hash:016x}")
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Open file descriptors of this process.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set size, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set size since the process started (or since the last
/// [`reset_peak_rss`]), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets the peak resident set size to the current one (Linux
/// `clear_refs` code 5); a kernel that refuses leaves the peak as is.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Best-of-`reps` STREAM triad bandwidth (`a = b + s·c`) over
/// `threads` threads, GB/s, counting three 8-byte streams per element.
pub fn triad_gbs(elements: usize, threads: usize, reps: usize) -> f64 {
    let threads = threads.max(1);
    let chunk = elements.div_ceil(threads);
    let mut a = vec![0.0f64; elements];
    let b = vec![1.0f64; elements];
    let c = vec![2.0f64; elements];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&a);
    }
    (3 * 8 * elements) as f64 / best / 1e9
}

/// Best-of-`reps` multiply-add throughput over `threads` threads,
/// GMAC/s: 32 independent `x = x·a + b` chains per thread, the separate
/// multiply and add the crossbar kernel's dot product compiles to in
/// this build.
pub fn madd_gmacs(iters: usize, threads: usize, reps: usize) -> f64 {
    const LANES: usize = 32;
    let threads = threads.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    let a = black_box(0.999_999_9);
                    let b = black_box(1e-7);
                    let mut acc = black_box([1.0f64; LANES]);
                    for _ in 0..iters {
                        for x in &mut acc {
                            *x = *x * a + b;
                        }
                    }
                    black_box(acc);
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
    }
    (threads * iters * LANES) as f64 / best / 1e9
}

/// The host roofline: memory bandwidth and multiply-add peak.
#[derive(Clone, Copy)]
pub struct Roofline {
    pub triad_gbs: f64,
    pub madd_gmacs: f64,
}

impl Roofline {
    pub fn measure(threads: usize) -> Self {
        Roofline {
            triad_gbs: triad_gbs(1 << 22, threads, 5),
            madd_gmacs: madd_gmacs(1 << 22, threads, 5),
        }
    }

    /// Attainable GMAC/s for a kernel doing `macs` multiply-adds over
    /// `bytes` of compulsory memory traffic.
    pub fn attainable_gmacs(&self, macs: f64, bytes: f64) -> f64 {
        self.madd_gmacs.min(self.triad_gbs * macs / bytes)
    }
}
