//! Cancellation unwinds quietly.
//!
//! A delivered cancel raises its [`ptdf::CancelError`] with
//! `std::panic::resume_unwind`, so the process-wide panic hook (which
//! prints `panicked at …` and a backtrace to stderr) never runs for it.
//! A deadlock found by the sentinel is a real failure and still goes
//! through the hook. The hook is process-global, so this check is its own
//! test binary with a single test.

use ptdf::{
    cancel, cancel_point, run, scope, spawn, yield_now, Config, DeadlockError, JoinError, Mutex,
    SchedKind,
};
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

fn hook_calls() -> usize {
    HOOK_CALLS.load(Ordering::SeqCst)
}

/// Works until cancelled at one of its explicit cancellation points.
fn spin() {
    loop {
        ptdf::work(1_000);
        cancel_point();
    }
}

#[test]
fn cancellation_does_not_run_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    for kind in [SchedKind::Df, SchedKind::Fifo, SchedKind::Ws] {
        run(Config::new(2, kind), || {
            // Blocked: parked on a held lock, evicted and woken to unwind.
            let m = Mutex::new(0u32);
            let gate = m.lock();
            let m1 = m.clone();
            let blocked = spawn(move || *m1.lock() += 1);
            yield_now();
            assert!(blocked.cancel(), "blocked thread exited early");
            drop(gate);
            assert!(matches!(blocked.try_join(), Err(JoinError::Canceled(_))));
            assert_eq!(*m.lock(), 0);

            // Running: delivered at an explicit cancellation point.
            let spinner = spawn(spin);
            ptdf::work(5_000);
            assert!(spinner.cancel(), "spinner exited early");
            assert!(matches!(spinner.try_join(), Err(JoinError::Canceled(_))));

            // `join` re-raises a cancelled child's error in the joiner,
            // for plain and scoped handles alike.
            let relay = spawn(|| {
                let child = spawn(spin);
                ptdf::work(5_000);
                child.cancel();
                child.join();
            });
            assert!(matches!(relay.try_join(), Err(JoinError::Canceled(_))));
            let scoped_relay = spawn(|| {
                scope(|s| {
                    let child = s.spawn(spin);
                    ptdf::work(5_000);
                    cancel(child.id());
                    child.join();
                })
            });
            assert!(matches!(
                scoped_relay.try_join(),
                Err(JoinError::Canceled(_))
            ));
        });
    }
    assert_eq!(hook_calls(), 0, "a cancellation ran the panic hook");

    // A sentinel deadlock still reaches the hook.
    run(Config::new(2, SchedKind::Df), || {
        let m = Mutex::new(());
        let h = spawn(move || {
            let _g1 = m.lock();
            let _g2 = m.lock(); // relock: a one-thread waits-for cycle
        });
        let payload = h
            .try_join()
            .expect_err("self-deadlock must unwind")
            .into_panic()
            .expect("a panic, not a cancel");
        assert!(payload.is::<DeadlockError>());
    });
    assert_eq!(hook_calls(), 1, "the deadlock panic must run the hook once");
    drop(std::panic::take_hook());
}
