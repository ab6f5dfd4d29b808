//! Tile pools under concurrent borrowers.
//!
//! A `vm-par` [`Vm`] borrows a pool of its width from a process-wide
//! spare list and hands it back when it drops. This file holds one test,
//! so that the spare list's counts are this test's alone: four threads
//! build, run and drop executors of mixed widths, every run must answer
//! with the sequential run's bits, none may hang, and afterwards the list
//! holds at most one pool per thread for each width.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use zpl_fusion::prelude::*;

const THREADS: usize = 4;
const ROUNDS: usize = 6;
const WIDTHS: [usize; 3] = [2, 3, 4];

#[test]
fn concurrent_borrowers_share_pools_without_crosstalk() {
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, bench.size_config, 64);
    let shared = Arc::new(SharedProgram::lower(&opt.scalarized, binding, None).unwrap());
    let bits = |o: &RunOutcome| o.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let want = bits(
        &shared
            .executor(ExecOpts::with_threads(1))
            .execute(&mut NoopObserver)
            .unwrap(),
    );

    let (tx, rx) = mpsc::channel();
    let mut borrowers = Vec::new();
    for t in 0..THREADS {
        let (shared, tx, want) = (Arc::clone(&shared), tx.clone(), want.clone());
        borrowers.push(thread::spawn(move || {
            for round in 0..ROUNDS {
                let threads = WIDTHS[(t + round) % WIDTHS.len()];
                let mut vm = shared.executor(ExecOpts::with_threads(threads));
                let out = vm.execute(&mut NoopObserver).unwrap();
                assert_eq!(
                    bits(&out),
                    want,
                    "thread {t}, round {round}, {threads} threads"
                );
                assert!(
                    !vm.tile_stats().is_empty(),
                    "{threads} threads: nothing fanned out"
                );
            }
            tx.send(t).unwrap();
        }));
    }
    drop(tx);
    for _ in 0..THREADS {
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a borrower failed or did not finish within two minutes");
    }
    for borrower in borrowers {
        borrower.join().expect("every borrower has finished");
    }
    for threads in WIDTHS {
        let idle = Vm::idle_pools(threads);
        assert!(
            (1..=THREADS).contains(&idle),
            "{idle} idle pools of {threads} threads after {THREADS} borrowers"
        );
    }
}
