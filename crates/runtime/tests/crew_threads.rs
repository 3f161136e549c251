//! The crew's OS threads, counted from outside: a pool of `n` owns exactly
//! `n - 1` threads from its first multi-worker region until it is dropped, a
//! clone owns its own, and a one-thread pool owns none.
//!
//! And an idle crew sleeps: once its spin budget is spent the process's CPU
//! time stops growing.
//!
//! One test in a file of its own: both numbers are the whole process's
//! (`/proc/self/status`, `/proc/self/stat`), so no other test may run beside
//! it.

#![cfg(target_os = "linux")]

use moctopus_runtime::WorkerPool;

/// The process's thread count, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("status has Threads:");
    line["Threads:".len()..].trim().parse().expect("Threads: is a number")
}

/// `process_threads()`, once the kernel has caught up: a joined thread has
/// exited but may not have been reaped from the process's count yet.
fn settled_threads(want: usize) -> usize {
    for _ in 0..2_000 {
        if process_threads() == want {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    process_threads()
}

/// CPU time the process has used so far (user + system), in clock ticks.
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields 14 and 15, counted after the parenthesised command name.
    let fields: Vec<&str> =
        stat[stat.rfind(')').expect("comm is parenthesised") + 2..].split(' ').collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn crew_threads_live_from_first_use_until_drop() {
    let start = process_threads();

    let serial = WorkerPool::new(1);
    assert_eq!(serial.run(4, |w| w), vec![0, 1, 2, 3]);
    assert_eq!(process_threads(), start, "a one-thread pool never starts a thread");

    let pool = WorkerPool::new(4);
    assert_eq!(pool.run(1, |w| w), vec![0]);
    assert_eq!(process_threads(), start, "no thread before a region needs one");
    for _ in 0..100 {
        assert_eq!(pool.run(4, |w| w), vec![0, 1, 2, 3]);
        assert_eq!(pool.run(2, |w| w), vec![0, 1]);
    }
    assert_eq!(process_threads(), start + 3, "one crew, reused by every region");

    // A crew that may spin (no wider than the machine), left alone for half a
    // second: a worker that never parked would burn all of it — 50 ticks at
    // the usual 100 Hz — on its own.
    let fitting = WorkerPool::new(WorkerPool::available_parallelism().max(2));
    assert_eq!(fitting.run(2, |w| w), vec![0, 1]);
    let before = process_cpu_ticks();
    std::thread::sleep(std::time::Duration::from_millis(500));
    let burned = process_cpu_ticks() - before;
    assert!(burned <= 10, "idle crews burned {burned} ticks of CPU in 500 ms");
    drop(fitting);
    assert_eq!(settled_threads(start + 3), start + 3);

    let clone = pool.clone();
    assert_eq!(process_threads(), start + 3, "a clone starts its crew on demand");
    assert_eq!(clone.run(4, |w| w), vec![0, 1, 2, 3]);
    assert_eq!(process_threads(), start + 6, "a clone has a crew of its own");

    drop(pool);
    assert_eq!(settled_threads(start + 3), start + 3, "drop joins the crew");
    drop(clone);
    drop(serial);
    assert_eq!(settled_threads(start), start, "every crew thread is gone");
}
