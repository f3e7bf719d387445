//! What the process cost and what machine it ran on, read from `/proc`.
//!
//! The server runs inside this process, so `/proc/self` covers the whole
//! system under test: event loops, the inference thread, the `lmmir-par`
//! workers and the load-generating clients.

use crate::json::{obj, Value};
use lmmir_tensor::linalg::gemm_reference;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` has been
/// 100 on every Linux ABI since 2.6; reading it properly needs `sysconf`,
/// which needs `unsafe` or a dependency.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process (all threads, including ones
/// that already exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("/proc/self/status", "VmHWM:") / 1024.0
}

fn status_kib(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Calibration figure: median ms of the naive reference gemm at 256³, the
/// same kernel and shape as the `tensor.gemm_reference_256_ms` probe. It
/// does not change when the optimised kernels do, so it scales numbers
/// taken on different boxes.
fn gemm_reference_256_ms() -> f64 {
    let side = 256;
    let a: Vec<f32> = (0..side * side)
        .map(|i| (i % 97) as f32 / 97.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..side * side)
        .map(|i| (i % 89) as f32 / 89.0 - 0.5)
        .collect();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let mut c = vec![0.0f32; side * side];
            let started = Instant::now();
            gemm_reference(side, side, side, black_box(&a), black_box(&b), &mut c);
            black_box(c);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

/// The machine context stored with every result, so that trajectories
/// taken on different boxes can be told apart and normalised.
pub fn fingerprint() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
    obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model", Value::from(cpu_model)),
        (
            "ram_mib",
            Value::from((status_kib("/proc/meminfo", "MemTotal:") / 1024.0).round()),
        ),
        (
            "lmmir_threads_env",
            std::env::var("LMMIR_THREADS").map_or(Value::Null, Value::from),
        ),
        ("par_threads", Value::from(lmmir_par::num_threads())),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "gemm_reference_256_ms",
            Value::from(gemm_reference_256_ms()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5, "VmHWM not read");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
        assert!(fingerprint().get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}
