//! The benchmark's only host-clock reads.
//!
//! Every wall-time figure the benchmark reports comes from [`Stopwatch`],
//! so the one `Instant::now` below is the single site the determinism
//! lint has to allow. No reading ever flows into a simulated input.

use std::time::Instant;

/// Reads the host monotonic clock.
fn host_now() -> Instant {
    // flex-lint: allow(D1): the benchmark measures host time by definition; readings only feed reported timings, never a simulated input
    Instant::now()
}

/// A started host-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch(host_now())
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        host_now().duration_since(self.0).as_secs_f64()
    }

    /// Host milliseconds since [`Stopwatch::start`].
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// Runs `f` once and returns its result with the host milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.ms())
}
