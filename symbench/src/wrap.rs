//! Thin wrappers over the library's public traits. Each forwards every
//! trait method, the defaulted ones included, so wrapping never changes
//! behaviour; they only time or count. They are present in every run,
//! traced or not, so both runs execute the same code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dist::{DistError, Frame, Transport};
use queueing::{JobId, JobPool};
use serve::Placer;
use symbiosis::{RateModel, SymbiosisError, WorkloadRates};

/// Per-call latency log of a [`TimedPlacer`], shared with the caller
/// because `run_serve` takes ownership of the placer.
#[derive(Debug, Default)]
pub struct PlaceLog {
    /// Microseconds of each `place` call, in call order.
    pub micros: std::sync::Mutex<Vec<f64>>,
}

/// Times every [`Placer::place`] call.
pub struct TimedPlacer {
    pub inner: Box<dyn Placer>,
    pub log: Arc<PlaceLog>,
}

impl Placer for TimedPlacer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        queued: &mut JobPool,
        running: &[u32],
        free: usize,
        model: &dyn RateModel,
    ) -> Vec<JobId> {
        let start = Instant::now();
        let placed = self.inner.place(queued, running, free, model);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.log
            .micros
            .lock()
            .expect("place log lock is never held across a panic")
            .push(us);
        placed
    }
}

/// Counts every query against a rate model (the serve loop's ground
/// truth). Counting only: a statistic, so relaxed ordering suffices.
pub struct CountingModel<'a> {
    pub inner: &'a dyn RateModel,
    pub calls: AtomicU64,
}

impl<'a> CountingModel<'a> {
    pub fn new(inner: &'a dyn RateModel) -> Self {
        CountingModel {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    fn tick(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl RateModel for CountingModel<'_> {
    fn num_types(&self) -> usize {
        self.inner.num_types()
    }

    fn contexts(&self) -> usize {
        self.inner.contexts()
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.tick();
        self.inner.per_job_rate(counts, ty)
    }

    fn total_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.tick();
        self.inner.total_rate(counts, ty)
    }

    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        self.tick();
        self.inner.instantaneous_throughput(counts)
    }

    fn supports_partial(&self) -> bool {
        self.inner.supports_partial()
    }

    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        self.tick();
        self.inner.full_table()
    }
}

/// Wire accounting of one coordinator end. Statistics only (relaxed).
#[derive(Debug, Default)]
pub struct WireLog {
    pub recv_ns: AtomicU64,
    pub timeouts: AtomicU64,
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
}

/// Times `recv` and counts frames, bytes and timeouts on a coordinator
/// end. Byte counts re-encode the frame, so they are only taken when
/// `count_bytes` is set (the traced run).
pub struct TimedTransport<T: Transport> {
    pub inner: T,
    pub log: Arc<WireLog>,
    pub count_bytes: bool,
}

impl<T: Transport> TimedTransport<T> {
    fn frame_seen(&self, frame: &Frame) {
        self.log.frames.fetch_add(1, Ordering::Relaxed);
        if self.count_bytes {
            self.log
                .bytes
                .fetch_add(frame.encode().len() as u64, Ordering::Relaxed);
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        self.inner.send(frame)?;
        self.frame_seen(frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        let start = Instant::now();
        let got = self.inner.recv();
        self.log
            .recv_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match &got {
            Ok(frame) => self.frame_seen(frame),
            Err(DistError::Timeout(_)) => {
                self.log.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        got
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
