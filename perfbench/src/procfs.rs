//! Read-only per-thread accounting from `/proc/self/task/<tid>`: CPU time
//! and run-queue wait (`schedstat`), context switches (`status`), and the
//! process's peak RSS. A file the kernel does not provide reads as `None`,
//! which the report prints as "not measured".
//!
//! Syscalls are not counted: the only per-thread syscall counters Linux
//! exposes, `syscr`/`syscw` in `io`, count `read(2)`/`write(2)`-family
//! calls, and the server's socket I/O goes through `recv`/`send`, which
//! neither counter sees.

use std::fs;

/// One thread's counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct TaskSample {
    pub tid: u32,
    /// `comm`, which the kernel truncates to 15 bytes.
    pub name: String,
    /// Time on a CPU, ns (`schedstat` field 1, or `stat` ticks as fallback).
    pub cpu_ns: Option<u64>,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub runq_wait_ns: Option<u64>,
    /// Voluntary plus involuntary context switches (`status`): each
    /// voluntary one is the thread going to sleep, e.g. in `epoll_wait`.
    pub ctx_switches: Option<u64>,
}

/// Clock ticks per second of `stat` times; Linux fixes USER_HZ at 100.
const TICKS_PER_S: u64 = 100;

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

/// `utime + stime` in ns from a `stat` line (fields 14 and 15, counted
/// after the parenthesised command name, which may itself hold spaces).
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000_000 / TICKS_PER_S)
}

fn parse_schedstat(s: &str) -> Option<(u64, u64)> {
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

fn parse_ctx_switches(s: &str) -> Option<u64> {
    let field = |key: &str| -> Option<u64> {
        s.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
    };
    Some(field("voluntary_ctxt_switches:")? + field("nonvoluntary_ctxt_switches:")?)
}

/// Samples one thread of this process.
pub fn task(tid: u32) -> TaskSample {
    let base = format!("/proc/self/task/{tid}");
    let name = read(&format!("{base}/comm"))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let sched = read(&format!("{base}/schedstat")).and_then(|s| parse_schedstat(&s));
    let cpu_ns = sched
        .map(|(run, _)| run)
        .or_else(|| read(&format!("{base}/stat")).and_then(|s| stat_cpu_ns(&s)));
    TaskSample {
        tid,
        name,
        cpu_ns,
        runq_wait_ns: sched.map(|(_, wait)| wait),
        ctx_switches: read(&format!("{base}/status")).and_then(|s| parse_ctx_switches(&s)),
    }
}

/// Samples every live thread of this process.
pub fn tasks() -> Vec<TaskSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<TaskSample> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .map(task)
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// The calling thread's id.
pub fn current_tid() -> Option<u32> {
    let stat = read("/proc/thread-self/stat")?;
    stat.split_whitespace().next()?.parse().ok()
}

/// CPU time of the whole process, exited threads included, in ns.
pub fn process_cpu_ns() -> Option<u64> {
    stat_cpu_ns(&read("/proc/self/stat")?)
}

/// `(all, steal)` CPU ticks of the whole machine from `/proc/stat`: steal
/// is time the hypervisor ran something else while a vCPU wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = read("/proc/stat")?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((f.iter().take(8).sum(), *f.get(7)?))
}

/// High-water resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Counter growth of a set of threads between two samples, matched by tid.
/// Threads present in only one sample are left out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub cpu_ns: Option<u64>,
    pub runq_wait_ns: Option<u64>,
    pub ctx_switches: Option<u64>,
}

pub fn delta(
    before: &[TaskSample],
    after: &[TaskSample],
    pick: impl Fn(&TaskSample) -> bool,
) -> Delta {
    let mut d = Delta {
        cpu_ns: Some(0),
        runq_wait_ns: Some(0),
        ctx_switches: Some(0),
    };
    let mut any = false;
    for a in after.iter().filter(|t| pick(t)) {
        let Some(b) = before.iter().find(|b| b.tid == a.tid) else {
            continue;
        };
        any = true;
        let sub = |x: Option<u64>, y: Option<u64>| Some(x?.saturating_sub(y?));
        let add = |acc: Option<u64>, x: Option<u64>| Some(acc? + x?);
        d.cpu_ns = add(d.cpu_ns, sub(a.cpu_ns, b.cpu_ns));
        d.runq_wait_ns = add(d.runq_wait_ns, sub(a.runq_wait_ns, b.runq_wait_ns));
        d.ctx_switches = add(d.ctx_switches, sub(a.ctx_switches, b.ctx_switches));
    }
    if any {
        d
    } else {
        Delta::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu_ns(line), Some(3_000_000_000));
    }

    #[test]
    fn parses_schedstat_and_status() {
        assert_eq!(parse_schedstat("5000 700 3\n"), Some((5000, 700)));
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t30\nnonvoluntary_ctxt_switches:\t12\n";
        assert_eq!(parse_ctx_switches(status), Some(42));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn delta_matches_threads_by_tid() {
        let t = |tid, name: &str, cpu, wait| TaskSample {
            tid,
            name: name.into(),
            cpu_ns: Some(cpu),
            runq_wait_ns: wait,
            ctx_switches: Some(cpu / 10),
        };
        let before = vec![
            t(1, "main", 100, Some(5)),
            t(2, "hc2l-serve-acce", 50, Some(1)),
        ];
        let after = vec![
            t(1, "main", 300, Some(9)),
            t(2, "hc2l-serve-acce", 250, Some(3)),
            t(3, "hc2l-serve-upda", 999, Some(9)),
        ];
        let d = delta(&before, &after, |t| t.name.starts_with("hc2l-serve"));
        assert_eq!(d.cpu_ns, Some(200));
        assert_eq!(d.runq_wait_ns, Some(2));
        assert_eq!(d.ctx_switches, Some(20));
        let missing = vec![t(2, "hc2l-serve-acce", 250, None)];
        let d = delta(&before, &missing, |_| true);
        assert_eq!(d.runq_wait_ns, None);
        assert_eq!(d.cpu_ns, Some(200));
    }

    #[test]
    fn reads_this_process() {
        // Present on Linux; elsewhere the readers degrade to None.
        if std::path::Path::new("/proc/self/task").exists() {
            let tid = current_tid().expect("thread-self stat");
            assert!(tasks().iter().any(|t| t.tid == tid));
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
