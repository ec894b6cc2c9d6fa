//! Support for the Criterion wall-clock benchmarks.
//!
//! Criterion drives measurement from the harness thread, but every kernel
//! operation must run *inside* a V process. [`BenchClient`] bridges the
//! two: a long-lived client process executes batches of the operation under
//! test on request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel::{unbounded, Receiver, Sender};
use vkernel::{Domain, Ipc};
use vproto::LogicalHost;

/// A long-lived V process that runs `op` in batches on demand.
pub struct BenchClient {
    work_tx: Sender<u64>,
    done_rx: Receiver<()>,
}

impl BenchClient {
    /// Spawns the bench client on `host`; each batch request runs `op`
    /// the requested number of times.
    pub fn spawn<F>(domain: &Domain, host: LogicalHost, op: F) -> Self
    where
        F: Fn(&dyn Ipc) + Send + 'static,
    {
        let (work_tx, work_rx) = unbounded::<u64>();
        let (done_tx, done_rx) = unbounded::<()>();
        domain.spawn(host, "bench-client", move |ctx| {
            while let Ok(iters) = work_rx.recv() {
                for _ in 0..iters {
                    op(ctx);
                }
                if done_tx.send(()).is_err() {
                    break;
                }
            }
        });
        BenchClient { work_tx, done_rx }
    }

    /// Runs one batch of `iters` operations, blocking until complete.
    pub fn run(&self, iters: u64) {
        self.work_tx.send(iters).expect("bench client alive");
        self.done_rx.recv().expect("bench client finished batch");
    }

    /// Convenience for `Criterion::iter_custom`: time one batch.
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock benchmark times the batch on the wall clock"
    )]
    pub fn time_batch(&self, iters: u64) -> std::time::Duration {
        let t0 = std::time::Instant::now();
        self.run(iters);
        t0.elapsed()
    }
}
