//! The process and host facts a result carries: peak memory, page faults,
//! the host fingerprint, and the environment the benchmark refuses.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Variables that change what is measured: `FuzzConfig::default` reads the
/// first two, and the third retunes the allocator the hot path depends on.
const REFUSED_ENV: [&str; 3] = ["OZZ_EXEC", "OZZ_MEMMODEL", "GLIBC_TUNABLES"];

/// The refused variables that are set.
pub fn refused_env() -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Puts glibc's allocator into the same state in every run: allocating
/// and freeing one untouched 16 MiB block (served by `mmap`) raises the
/// dynamic mmap threshold to 16 MiB and the heap trim threshold to 32 MiB.
///
/// Without it, whether each machine snapshot's ~0.5 MiB memory-table copy
/// lands on heap pages that the previous snapshot's free trimmed away
/// depends on heap layout, hence on the input seed: one campaign re-faults
/// the copy on every snapshot (~16 faults and a third of the speed per
/// MTI), the next does not. README.md records the measurements. Other
/// allocators ignore the block.
pub fn pin_malloc_thresholds() {
    let block: Vec<u8> = Vec::with_capacity(16 << 20);
    std::hint::black_box(block.as_ptr());
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is the 10th field.
    stat.rfind(')')
        .and_then(|p| stat[p + 1..].split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The commit checked out in `.git` under the working directory, if any.
fn git_head() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read_trimmed(Path::new(".git").join(reference)) {
        return id;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint as a JSON object: core count, CPU model, cache
/// sizes, kernel release and git HEAD, plus the caller's run settings.
pub fn fingerprint(settings: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0.. {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Some(size) = read_trimmed(format!("{dir}/size")) else {
            break;
        };
        let level = read_trimmed(format!("{dir}/level")).unwrap_or_default();
        let kind = read_trimmed(format!("{dir}/type")).unwrap_or_default();
        caches.push(json_str(&format!("L{level} {kind} {size}")));
    }
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let mut out = format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"caches\": [{}], \"kernel\": {}, \"git_head\": {}",
        json_str(&cpu),
        caches.join(", "),
        json_str(&kernel),
        json_str(&git_head())
    );
    for (k, v) in settings {
        let _ = write!(out, ", {}: {v}", json_str(k));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = minor_faults();
        let v = vec![1u8; 1 << 22];
        std::hint::black_box(&v);
        assert!(minor_faults() > before);
    }

    #[test]
    fn fingerprint_is_a_json_object() {
        let fp = fingerprint(&[("seed", "7".into())]);
        let v = crate::json::parse(&fp).expect("valid JSON");
        assert!(v.get("nproc").and_then(|n| n.as_f64()).is_some());
        assert_eq!(v.get("seed").and_then(|n| n.as_f64()), Some(7.0));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
