//! The [`WorkerPool`] contract, from outside the crate: one crew serves every
//! region in worker-id order, workers borrow from the caller's stack, panics
//! — worker 0's included — reach the caller only after every sibling is done,
//! a clone has a crew of its own, and a busy crew never makes a region wait
//! for itself. (`crew_threads.rs` counts the OS threads; the unit tests in
//! `src/lib.rs` check the parking and spinning state only they can see.)

use moctopus_runtime::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

#[test]
fn ten_thousand_regions_reuse_one_crew() {
    let threads = 3;
    let pool = WorkerPool::new(threads);
    let mut crew_ids: Vec<Option<thread::ThreadId>> = vec![None; threads];
    for region in 0..10_000 {
        let width = [1, 2, threads][region % 3];
        let mut ctxs = vec![0usize; width];
        let out = pool.run_with(&mut ctxs, |worker, ctx| {
            *ctx = region + worker;
            (worker, thread::current().id())
        });
        assert_eq!(ctxs, (0..width).map(|w| region + w).collect::<Vec<_>>());
        for (worker, &(id, thread_id)) in out.iter().enumerate() {
            assert_eq!(id, worker, "outputs come back in worker-id order");
            let first = *crew_ids[worker].get_or_insert(thread_id);
            assert_eq!(thread_id, first, "worker {worker} changed threads at region {region}");
        }
    }
    assert_eq!(crew_ids[0], Some(thread::current().id()), "worker 0 is the caller");
    assert_ne!(crew_ids[1], crew_ids[2]);
}

#[test]
fn surplus_contexts_are_dealt_to_the_workers_there_are() {
    let pool = WorkerPool::new(2);
    let mut ctxs = vec![0usize; 5];
    let out = pool.run_with(&mut ctxs, |worker, ctx| {
        *ctx = worker * 10;
        thread::current().id()
    });
    assert_eq!(ctxs, vec![0, 10, 20, 30, 40]);
    assert_eq!(out[0], thread::current().id());
    assert!(out[2] == out[0] && out[4] == out[0] && out[3] == out[1] && out[1] != out[0]);
}

#[test]
fn panic_in_a_crew_worker_is_re_raised_with_its_payload_and_the_pool_survives() {
    let pool = WorkerPool::new(2);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.run(2, |w| {
            if w == 1 {
                panic!("worker boom");
            }
            w
        })
    }));
    let payload = caught.expect_err("the worker's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
    assert_eq!(pool.run(2, |w| w), vec![0, 1], "the pool serves the next region");
}

#[test]
fn panic_in_worker_0_waits_for_worker_1_before_unwinding() {
    let pool = WorkerPool::new(2);
    let (about_to_panic, panicking) = std::sync::mpsc::channel::<()>();
    let panicking = Mutex::new(panicking);
    let mut ctxs = [0u32; 2];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.run_with(&mut ctxs, |worker, ctx| {
            if worker == 0 {
                about_to_panic.send(()).expect("worker 1 is listening");
                panic!("caller boom");
            }
            // Worker 0 is unwinding by now; were the region to let go of
            // `ctxs` before this worker is done, the write below would
            // land in a dead borrow (and the assertion after it fail).
            panicking
                .lock()
                .expect("only worker 1 locks it")
                .recv()
                .expect("worker 0 announces its panic");
            thread::sleep(std::time::Duration::from_millis(50));
            *ctx = 7;
        })
    }));
    let payload = caught.expect_err("worker 0's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"));
    assert_eq!(ctxs, [0, 7], "worker 1 finished before the region unwound");
    assert_eq!(pool.run(2, |w| w), vec![0, 1]);
}

#[test]
fn a_clone_has_its_own_crew_and_runs_concurrently_with_the_original() {
    let original = WorkerPool::new(2);
    let clone = original.clone();
    assert_eq!(original, clone);
    // All four workers of the two pools meet at one barrier: neither
    // region can finish unless both are in flight at the same time.
    let barrier = std::sync::Barrier::new(4);
    let (ids_a, ids_b) = thread::scope(|scope| {
        let a = scope.spawn(|| {
            original.run(2, |_| {
                barrier.wait();
                thread::current().id()
            })
        });
        let b = clone.run(2, |_| {
            barrier.wait();
            thread::current().id()
        });
        (a.join().expect("the original's region finishes"), b)
    });
    assert_ne!(ids_a[1], ids_b[1], "each pool has its own crew worker");
}

#[test]
fn a_region_entered_while_the_crew_is_busy_runs_on_its_caller() {
    let pool = WorkerPool::new(2);
    let nested = pool.run(2, |outer| {
        let here = thread::current().id();
        let inner = pool.run(2, |w| (w, thread::current().id()));
        assert_eq!(inner, vec![(0, here), (1, here)], "outer worker {outer}");
        outer
    });
    assert_eq!(nested, vec![0, 1]);
}
