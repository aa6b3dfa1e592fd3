//! The scripted chooser with an empty prefix *is* the natural schedule.
//!
//! Every decision point takes index 0 beyond a scripted prefix, and index 0
//! is by construction the natural choice; a scripted chooser also never
//! injects a fault. So running a workload under
//! `ScheduleOracle::scripted(vec![])` must reproduce the natural run
//! exactly — same [`ptdf::Report`] statistics, same trace — differing only
//! in that the scripted run carries its decision log. This pins the
//! explorer's root schedule to the one the paper's measurements use, under
//! every policy, for a sync storm and for an overloaded server cell.

use ptdf::{
    Barrier, Condvar, Config, Mutex, Report, RwLock, SchedKind, ScheduleOracle, Semaphore,
    SharedOracle, VirtTime,
};
use ptdf_server::{runtime_config, serve_with, ServerConfig};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

/// Every blocking primitive every round — mutex, semaphore, condvar,
/// barrier, rwlock and a timed lock — so grants, wake batches, dispatch
/// ties and timeouts all reach the chooser.
fn sync_storm() -> u64 {
    const THREADS: usize = 6;
    const ROUNDS: usize = 3;
    let counter = Mutex::new(0u64);
    let gate = Mutex::new(0usize);
    let cv = Condvar::new();
    let barrier = Barrier::new(THREADS);
    let sem = Semaphore::new((THREADS / 2) as i64);
    let table = RwLock::new(0u64);
    ptdf::scope(|s| {
        for t in 0..THREADS {
            let (counter, gate, cv) = (counter.clone(), gate.clone(), cv.clone());
            let (barrier, sem, table) = (barrier.clone(), sem.clone(), table.clone());
            s.spawn(move || {
                for r in 1..=ROUNDS {
                    sem.acquire();
                    *counter.lock() += 1;
                    ptdf::work(200);
                    sem.release();
                    if t % 2 == 0 {
                        *table.write() += 1;
                    } else {
                        let _ = *table.read();
                    }
                    if let Ok(mut g) = counter.lock_timeout(VirtTime::from_us(2)) {
                        *g += 1;
                        ptdf::work(3_000);
                    }
                    let mut g = gate.lock();
                    *g += 1;
                    if *g == THREADS * r {
                        cv.notify_all();
                    } else {
                        g = cv.wait_while(g, |a| *a < THREADS * r);
                    }
                    drop(g);
                    barrier.wait();
                }
            });
        }
    });
    let total = *counter.lock();
    let rows = *table.read();
    total + rows
}

/// Asserts the two runs are the same schedule: equal statistics and equal
/// traces once the scripted run's decision log is set aside. Returns that
/// log's length.
fn assert_same_run(
    what: &str,
    natural: &Report,
    scripted: &Report,
    oracle: &SharedOracle,
) -> usize {
    assert_eq!(natural.stats, scripted.stats, "{what}: stats differ");
    assert_eq!(natural.total_threads, scripted.total_threads, "{what}");
    assert_eq!(natural.steals, scripted.steals, "{what}");
    let nt = natural.trace.as_ref().expect("traced");
    let mut st = scripted.trace.clone().expect("traced");
    assert!(
        nt.decisions.is_empty(),
        "{what}: a natural run logs no decisions"
    );
    assert_eq!(st.decisions, oracle.borrow().decisions(), "{what}");
    assert!(
        st.decisions.iter().all(|d| d.chosen == 0),
        "{what}: an empty prefix takes index 0 everywhere"
    );
    st.decisions.clear();
    assert!(*nt == st, "{what}: traces differ");
    oracle.borrow().log().len()
}

#[test]
fn empty_script_reproduces_the_natural_sync_storm() {
    for kind in POLICIES {
        let cfg = Config::new(4, kind).with_trace();
        let (a, natural) = ptdf::run(cfg.clone(), sync_storm);
        let oracle = ScheduleOracle::scripted(Vec::new()).shared();
        let (b, scripted) = ptdf::run(cfg.with_oracle(oracle.clone()), sync_storm);
        assert_eq!(a, b, "{}", kind.name());
        let decisions = assert_same_run(kind.name(), &natural, &scripted, &oracle);
        assert!(
            decisions > 0,
            "{}: the storm reached no decision point",
            kind.name()
        );
    }
}

#[test]
fn empty_script_reproduces_the_natural_server_cell() {
    let cell = ServerConfig::quick(0xC0DE).overload_pct(200);
    for kind in POLICIES {
        let cfg = runtime_config(&cell, 4, kind).with_trace();
        let natural = serve_with(&cell, cfg.clone());
        let oracle = ScheduleOracle::scripted(Vec::new()).shared();
        let scripted = serve_with(&cell, cfg.with_oracle(oracle.clone()));
        assert_eq!(natural.stats, scripted.stats, "{}", kind.name());
        let decisions = assert_same_run(kind.name(), &natural.report, &scripted.report, &oracle);
        assert!(
            decisions > 0,
            "{}: the server reached no decision point",
            kind.name()
        );
    }
}

#[test]
fn last_builder_wins_between_oracle_and_seeds() {
    let oracle = ScheduleOracle::scripted(vec![1]).shared();
    let seeded = Config::new(2, SchedKind::Df)
        .with_oracle(oracle.clone())
        .with_perturbation(3)
        .with_chaos(4);
    assert_eq!(seeded.chooser.seeds(), (Some(3), Some(4)));
    let scripted = seeded.with_oracle(oracle);
    assert!(matches!(scripted.chooser, ptdf::Chooser::Scripted(_)));
    assert_eq!(scripted.chooser.seeds(), (None, None));
}
