//! What the benchmark asks of the host: one CPU to itself, the
//! process's CPU time and peak memory, and the provenance stamp every
//! record carries.

use std::process::Command;
use std::sync::OnceLock;

/// Linux reports process times in `USER_HZ` ticks, fixed at 100 for
/// every userland ABI; a window of seconds resolves to ~0.1 %.
const USER_HZ: f64 = 100.0;

/// Outcome of [`pin_to_one_cpu`].
#[derive(Debug, Clone)]
pub struct Pinning {
    /// Whether the process now runs on exactly one CPU.
    pub pinned: bool,
    /// `Cpus_allowed_list` after the attempt.
    pub cpus_allowed: String,
}

fn status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        Some(rest.trim().to_string())
    })
}

/// The CPUs named by a `Cpus_allowed_list` such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let mut ends = part.trim().splitn(2, '-').map(|e| e.parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(first)), None) => cpus.push(first),
            (Some(Ok(first)), Some(Ok(last))) => cpus.extend(first..=last),
            _ => {}
        }
    }
    cpus
}

/// Restricts this process to a single CPU of its allowed set. Must run
/// before any thread is spawned: threads inherit the mask.
///
/// Four parties are 21 threads; on a host with fewer cores than parties
/// throughput is bound by total CPU anyway, and spreading over two
/// vCPUs only doubles the exposure to hypervisor steal (PR 12's
/// bimodal 82–104 payloads/s). One core makes throughput exactly
/// `1 / cpu_per_payload`. The last CPU is chosen because CPU 0 takes
/// most interrupts.
pub fn pin_to_one_cpu() -> Pinning {
    let before = status_field("Cpus_allowed_list").unwrap_or_default();
    if let Some(cpu) = parse_cpu_list(&before).last() {
        let pid = std::process::id().to_string();
        let _ = Command::new("taskset")
            .args(["-cp", &cpu.to_string(), &pid])
            .output();
    }
    let cpus_allowed = status_field("Cpus_allowed_list").unwrap_or_default();
    let pinned = !cpus_allowed.is_empty() && !cpus_allowed.contains([',', '-']);
    if !pinned {
        eprintln!(
            "sintra-bench: WARNING could not pin to one CPU (allowed: {cpus_allowed:?}); \
             numbers are exposed to scheduler noise"
        );
    }
    Pinning {
        pinned,
        cpus_allowed,
    }
}

/// User + system CPU time of the whole process (all threads), in ms.
pub fn cpu_time_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (tick() + tick()) * 1000.0 / USER_HZ
}

/// Time the hypervisor ran something else while a CPU this process may
/// use had work to do (`steal` of `/proc/stat`), averaged over the
/// allowed CPUs, in ms. After pinning that is one CPU's steal exactly.
/// The allowed set is read once, on first use — after pinning.
pub fn steal_ms() -> f64 {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    let allowed = ALLOWED
        .get_or_init(|| parse_cpu_list(&status_field("Cpus_allowed_list").unwrap_or_default()));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut ticks = 0.0;
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let cpu = fields
            .next()
            .and_then(|label| label.strip_prefix("cpu")?.parse::<usize>().ok());
        if cpu.is_some_and(|cpu| allowed.contains(&cpu)) {
            // user nice system idle iowait irq softirq steal
            ticks += fields.nth(7).and_then(|f| f.parse().ok()).unwrap_or(0.0);
        }
    }
    ticks * 1000.0 / USER_HZ / allowed.len().max(1) as f64
}

/// Peak resident set (`VmHWM`) of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where and on what a record was measured. Two records are comparable
/// only if they agree on `pinned`.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpus_allowed: String,
    pub pinned: bool,
    pub git_commit: String,
    pub rustc: String,
}

fn git_commit() -> String {
    // The pipeline's checkout is not a git repository; then the commit
    // is honestly unknown.
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

impl Provenance {
    /// Collects the stamp; `nproc` is the parallelism seen before pinning.
    pub fn collect(pinning: &Pinning, nproc: usize) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            nproc,
            cpu_model,
            cpus_allowed: pinning.cpus_allowed.clone(),
            pinned: pinning.pinned,
            git_commit: git_commit(),
            rustc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), [0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time_ms();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_time_ms() >= before);
        assert!(steal_ms() >= 0.0);
    }
}
