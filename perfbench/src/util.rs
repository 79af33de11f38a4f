//! Small shared helpers: seed derivation, order statistics, child-process
//! resource usage and the metric list a run prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Derive an independent 64-bit seed for one consumer (`stream`) of the
/// run's seed (splitmix64 finalizer), so e.g. the fold split and the flag
/// sampling never share a stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `struct rusage` on Linux: two timevals (user, system), then 14 longs;
/// `ru_maxrss` (KiB) is the first long.
#[repr(C)]
struct Rusage([i64; 18]);

impl Rusage {
    fn cpu_seconds(&self) -> f64 {
        let tv = |i: usize| self.0[i] as f64 + self.0[i + 1] as f64 / 1e6;
        tv(0) + tv(2)
    }
}

/// CPU seconds (user + system) this process has used so far, over all its
/// threads.
pub fn cpu_seconds() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage([0; 18]);
    // SAFETY: RUSAGE_SELF (0) with a valid out-pointer.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc == 0 {
        ru.cpu_seconds()
    } else {
        0.0
    }
}

/// Wait for `pid` and return `(exit_status_ok, peak_rss_bytes)`. `std`'s
/// `Child::wait` drops the kernel's resource accounting, so this calls
/// `wait4(2)` directly; `ru_maxrss` is the child's high-water resident set.
pub fn wait_with_peak_rss(child: std::process::Child) -> std::io::Result<(bool, u64)> {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = Rusage([0; 18]);
    loop {
        // SAFETY: plain syscall wrapper with valid out-pointers; the child
        // handle is not used to wait again afterwards.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    std::mem::forget(child);
    // WIFEXITED && WEXITSTATUS == 0
    let ok = (status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0;
    Ok((ok, ru.0[4].max(0) as u64 * 1024))
}

/// Ordered `name -> (value, unit)` list that renders to the run's JSON.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, v, unit)) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
