//! RAII timing: [`Timer`] records a duration into a [`Histogram`] on
//! drop; [`time`] wraps a closure.

use crate::metrics::Histogram;
use std::time::Instant;

/// An RAII guard that records its lifetime (in nanoseconds) into a
/// histogram when dropped.
///
/// ```
/// let h = dve_obs::Histogram::new();
/// {
///     let _t = dve_obs::Timer::start(&h);
///     // ... timed work ...
/// }
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct Timer<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> Timer<'a> {
    /// Starts timing into `hist`.
    pub fn start(hist: &'a Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Stops now and records, returning the elapsed duration.
    pub fn stop(mut self) -> std::time::Duration {
        let elapsed = self.start.elapsed();
        self.hist.record_duration(elapsed);
        self.armed = false;
        elapsed
    }

    /// Drops the guard without recording anything.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}

/// Times `f` into `hist` and returns its result.
pub fn time<T>(hist: &Histogram, f: impl FnOnce() -> T) -> T {
    let _t = Timer::start(hist);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_on_drop() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        {
            let _t = Timer::start(&h);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.min().unwrap() >= 1_000_000, "recorded {:?}", h.min());
    }

    #[test]
    fn timer_stop_and_discard() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        let d = Timer::start(&h).stop();
        Timer::start(&h).discard();
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= u64::try_from(d.as_nanos()).unwrap_or(0) / 2);
    }

    #[test]
    fn time_returns_closure_result() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        let v = time(&h, || 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(h.count(), 1);
    }
}
