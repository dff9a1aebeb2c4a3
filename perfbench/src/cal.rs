//! Host-speed calibration.
//!
//! The host's speed drifts between processes and within one, and the
//! guest cannot see why: it flips between a fast and a slow state for
//! tenths of a second to seconds at a time. Every timed operation is
//! therefore bracketed by a fixed calibration loop (fill a vector with
//! pseudo-random words, `sort_unstable` it, truncate it), and its cost
//! is reported relative to the loop: `raw / mean(loop times)`. Scaling
//! that ratio by [`NOMINAL_CAL_S`] gives *calibrated seconds*, which
//! cancel drift that slows the loop and the work alike.

use std::hint::black_box;
use std::time::Instant;

use aos_isa::Op;

/// Words the calibration loop sorts per round: small enough (32 KiB)
/// to stay in L1/L2 and not evict the simulator's working set.
const CAL_WORDS: usize = 4096;

/// Rounds per sample: about 0.25 ms in the reference host's fast state.
const CAL_ROUNDS: usize = 4;

/// The calibration loop's time in the reference host's fast state (see
/// `README.md`). Calibrated seconds are `raw / loop × NOMINAL_CAL_S`.
pub const NOMINAL_CAL_S: f64 = 250e-6;

/// Ops between two calibration samples inside a long operation.
pub const INNER_SAMPLE_OPS: u32 = 100_000;

/// The calibration loop plus every sample it has taken.
pub struct Cal {
    buf: Vec<u64>,
    /// Every loop time, in seconds.
    pub samples: Vec<f64>,
    /// Total seconds spent inside calibration loops.
    spent: f64,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds, calibration loops inside the operation excluded.
    pub raw_s: f64,
    /// Calibrated seconds.
    pub cal_s: f64,
    /// Calibrated seconds per raw second (the factor spans use).
    pub factor: f64,
}

impl Cal {
    pub fn new() -> Self {
        let mut cal = Self {
            buf: Vec::with_capacity(CAL_WORDS),
            samples: Vec::new(),
            spent: 0.0,
        };
        // Fault in the buffer and the code once.
        for _ in 0..4 {
            cal.sample();
        }
        cal.samples.clear();
        cal
    }

    /// Runs the loop once over the same input and records its time.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..CAL_ROUNDS {
            for _ in 0..CAL_WORDS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.buf.push(x);
            }
            self.buf.sort_unstable();
            black_box(&self.buf);
            self.buf.truncate(0);
        }
        let secs = start.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.spent += secs;
        secs
    }

    /// Times `f` between two calibration samples. Samples `f` takes
    /// itself (through [`Sampled`]) join the divisor, and their time
    /// is taken out of the raw figure.
    pub fn time<T>(&mut self, f: impl FnOnce(&mut Cal) -> T) -> (T, Timed) {
        self.sample();
        let first = self.samples.len() - 1;
        let spent = self.spent;
        let start = Instant::now();
        let out = f(self);
        let raw_s = start.elapsed().as_secs_f64() - (self.spent - spent);
        self.sample();
        let loops = &self.samples[first..];
        let mean = loops.iter().sum::<f64>() / loops.len() as f64;
        let factor = NOMINAL_CAL_S / mean;
        (
            out,
            Timed {
                raw_s,
                cal_s: raw_s * factor,
                factor,
            },
        )
    }

    /// The median loop time, in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.samples) * 1e6
    }
}

/// An op stream that takes a calibration sample every
/// [`INNER_SAMPLE_OPS`] ops, so operations lasting seconds are
/// normalized by the host speed they actually ran at.
pub struct Sampled<'a, I> {
    inner: I,
    cal: &'a mut Cal,
    left: u32,
}

impl<'a, I> Sampled<'a, I> {
    pub fn new(inner: I, cal: &'a mut Cal) -> Self {
        Self {
            inner,
            cal,
            left: INNER_SAMPLE_OPS,
        }
    }
}

impl<I: Iterator<Item = Op>> Iterator for Sampled<'_, I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.left -= 1;
        if self.left == 0 {
            self.left = INNER_SAMPLE_OPS;
            self.cal.sample();
        }
        self.inner.next()
    }
}
