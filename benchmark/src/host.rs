//! What the run needs to know about the machine and process it runs in:
//! the stamp written on every output, peak RSS, cache sizes, and the
//! benchmark's own STREAM triad.

use bnff_kernels::dispatch::active_isa;
use serde_json::Value;
use std::time::Instant;

/// Environment variables the crates under test read. They are recorded on
/// every output; see [`refuse_env_overrides`] for which may not be set.
pub const WATCHED_ENV: [&str; 3] = ["BNFF_THREADS", "BNFF_SIMD", "BNFF_TRACE"];

/// Refuses to run when the environment would override a pinned parameter.
///
/// Thread counts are pinned with `with_threads` / `kernel_threads` and the
/// trace period with `trace_every`, both of which take precedence over
/// `BNFF_THREADS` / `BNFF_TRACE`; the SIMD path has no such in-process pin,
/// so a `BNFF_SIMD` other than `auto` would silently change every timing.
pub fn refuse_env_overrides() -> Result<(), String> {
    match std::env::var("BNFF_SIMD") {
        Ok(v) if !v.trim().is_empty() && !v.trim().eq_ignore_ascii_case("auto") => {
            Err(format!("BNFF_SIMD={v} would override the pinned SIMD dispatch (auto); unset it"))
        }
        _ => Ok(()),
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(l2_bytes, llc_bytes)` of cpu0 as sysfs reports them; 0 when unreadable.
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0u64;
    let mut llc = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let bytes = parse_size(size.trim());
        if level == 2 {
            l2 = bytes;
        }
        if level > llc.0 {
            llc = (level, bytes);
        }
    }
    (l2, llc.1)
}

fn parse_size(text: &str) -> u64 {
    let (digits, scale) = match text.as_bytes().last() {
        Some(b'K') => (&text[..text.len() - 1], 1u64 << 10),
        Some(b'M') => (&text[..text.len() - 1], 1 << 20),
        Some(b'G') => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n * scale)
}

/// Peak resident set of this process so far (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The commit the working tree is at, read from `.git` without running git;
/// `unknown` in an exported checkout.
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_string(), |sha| sha.trim().to_string()),
        None => head,
    }
}

/// The stamp every output carries, so a number can be traced to the code,
/// host and settings that produced it.
pub fn stamp(workload: &str, seed: u64, seconds: f64, traced: bool, threads: &str) -> Value {
    let (l2, llc) = cache_sizes();
    let env = WATCHED_ENV
        .iter()
        .map(|name| {
            let value = std::env::var(name).map_or(Value::Null, Value::String);
            ((*name).to_string(), value)
        })
        .collect();
    Value::Object(vec![
        ("workload".to_string(), Value::String(workload.to_string())),
        ("seed".to_string(), Value::UInt(seed)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("traced".to_string(), Value::Bool(traced)),
        ("git_sha".to_string(), Value::String(git_sha())),
        ("isa".to_string(), Value::String(active_isa().to_string())),
        ("threads".to_string(), Value::String(threads.to_string())),
        ("nproc".to_string(), Value::UInt(nproc() as u64)),
        ("l2_bytes".to_string(), Value::UInt(l2)),
        ("llc_bytes".to_string(), Value::UInt(llc)),
        ("rustc".to_string(), Value::String(env!("BENCH_RUSTC_VERSION").to_string())),
        ("env".to_string(), Value::Object(env)),
    ])
}

/// Total footprint cap of the three triad arrays.
const TRIAD_CAP_BYTES: u64 = 1 << 30;

/// Result of [`stream_triad`].
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best-of-passes bandwidth, counting 3 × 4 bytes per element.
    pub gbps: f64,
    /// Bytes in each of the three arrays.
    pub array_bytes: u64,
}

/// STREAM triad `a[i] = b[i] + s·c[i]` on one thread (the pin of every
/// train workload, so this is the ceiling its sweeps can reach), over
/// arrays of four times the reported last-level cache each, capped so all
/// three fit in 1 GiB (with no cache size to go by, 64 MiB each).
pub fn stream_triad(llc_bytes: u64) -> Triad {
    let wanted = if llc_bytes == 0 { 64 << 20 } else { 4 * llc_bytes };
    let len = (wanted.min(TRIAD_CAP_BYTES / 3) / 4) as usize;
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut best = f64::INFINITY;
    // The first pass also faults `a` in, so it never wins the minimum.
    for _ in 0..4 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Triad { gbps: (3 * len * 4) as f64 / best / 1e9, array_bytes: (len * 4) as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K"), 4 << 20);
        assert_eq!(parse_size("260M"), 260 << 20);
        assert_eq!(parse_size("512"), 512);
        assert_eq!(parse_size("junk"), 0);
    }
}
