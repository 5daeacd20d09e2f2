//! What the machine did while the benchmark ran: memory high-water mark,
//! CPU time, hypervisor steal and a fixed calibration kernel — so a
//! shifted number can be told apart from a shifted machine.

use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads), milliseconds.
/// Read from `/proc/self/stat` in clock ticks (10 ms at the usual
/// `CLK_TCK` of 100), so it is meaningful over a pass, not over a query.
pub fn process_cpu_ms() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (f64, f64) {
    let stat = read("/proc/stat");
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().sum::<f64>(),
    )
}

/// Share of machine time the hypervisor gave to someone else, over a
/// window opened with [`StealWindow::open`].
pub struct StealWindow {
    start: (f64, f64),
}

impl StealWindow {
    pub fn open() -> StealWindow {
        StealWindow {
            start: cpu_jiffies(),
        }
    }

    pub fn share(&self) -> f64 {
        let (steal, total) = cpu_jiffies();
        let window = total - self.start.1;
        if window > 0.0 {
            (steal - self.start.0) / window
        } else {
            0.0
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// A fixed kernel — a dependent pointer chase through a 4 MiB cycle plus
/// a floating-point multiply-add chain — timed between passes. It runs
/// the same instructions on every commit, so its time moves only when
/// the machine does.
pub struct Calibration {
    next: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        // One cycle through all slots with a stride coprime to the
        // length: no allocation-order or RNG dependence.
        const LEN: usize = 1 << 20;
        const STRIDE: usize = 618_033; // odd => coprime to 2^20
        let mut next = vec![0u32; LEN];
        for (i, slot) in next.iter_mut().enumerate() {
            *slot = ((i + STRIDE) % LEN) as u32;
        }
        Calibration {
            next,
            samples_ms: Vec::new(),
        }
    }

    /// Run the kernel once and record its time.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..150_000 {
            at = self.next[at as usize];
        }
        let mut x = 1.0f64;
        for _ in 0..600_000 {
            x = x.mul_add(1.000_000_1, 1e-9);
        }
        std::hint::black_box((at, x));
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Median of the recorded samples (0 if none were taken).
    pub fn median_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.samples_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1.0);
        let window = StealWindow::open();
        let mut calib = Calibration::new();
        calib.sample();
        calib.sample();
        assert!(calib.median_ms() > 0.0);
        assert!((0.0..=1.0).contains(&window.share()));
        assert!(process_cpu_ms() >= 0.0);
    }
}
