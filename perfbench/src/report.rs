//! The metric catalog and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("find_p50_us", "us"),
    ("insert_p50_us", "us"),
    ("delete_p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A metric
/// of a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("workload.find_hit_ratio", "ratio"),
    ("workload.distinct_keys", "count"),
    ("workload.live_start", "count"),
    ("workload.live_end", "count"),
    ("types.hash_ns", "ns"),
    ("types.decode_ns", "ns"),
    ("types.encode_ns", "ns"),
    ("locks.grants_per_op", "1/op"),
    ("locks.rho_pair_ns", "ns"),
    ("locks.waits_per_kop", "1/kop"),
    ("locks.wait_ns_per_op", "ns/op"),
    ("locks.conversions_per_kop", "1/kop"),
    ("storage.reads_per_op", "1/op"),
    ("storage.read_ns", "ns"),
    ("storage.writes_per_op", "1/op"),
    ("storage.pages", "count"),
    ("storage.wal.commits_per_op", "1/op"),
    ("storage.backend.syncs_per_op", "1/op"),
    ("storage.backend.sync_p50_us", "us"),
    ("storage.backend.sync_p99_us", "us"),
    ("storage.write_amp", "ratio"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.cache.evictions_per_op", "1/op"),
    ("storage.wal.checkpoints_per_kop", "1/kop"),
    ("storage.recover_ms", "ms"),
    ("core.splits_per_kop", "1/kop"),
    ("core.wrong_bucket_per_kop", "1/kop"),
    ("core.insert_retries_per_kop", "1/kop"),
    ("core.dir_lookup_ns", "ns"),
    ("core.dir_depth", "count"),
    ("core.find_hit_ratio", "ratio"),
    ("core.find_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.delete_ns", "ns"),
    ("find.hash_ns", "ns"),
    ("find.dir_lookup_ns", "ns"),
    ("find.lock_ns", "ns"),
    ("find.page_read_ns", "ns"),
    ("find.decode_ns", "ns"),
    ("find.unattributed_ns", "ns"),
    ("dist.msgs_per_op", "1/op"),
    ("dist.request_p50_us", "us"),
    ("dist.bucket_op_p50_us", "us"),
    ("dist.recovery_hops_per_kop", "1/kop"),
    ("dist.retries_per_kop", "1/kop"),
    ("net.frame_bytes_per_op", "B/op"),
    ("net.delivery_p50_us", "us"),
    ("net.tcp.reconnects", "count"),
    ("net.tcp.shed", "count"),
    ("obs.traced_ops_per_s", "ops/s"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Metric values by name; only catalogued names are accepted.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set a metric (non-finite values read as 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer matched the model and every gate passed.
    pub correct: bool,
    /// Operations attempted after set-up (warm-up included).
    pub attempted: u64,
    /// Of those, operations that returned an error.
    pub failed: u64,
    /// All measured metrics.
    pub metrics: Metrics,
    /// Why the run is not correct, and other findings.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `catalog` metrics, in catalog order, with units.
    pub fn json(&self, catalog: &[(&str, &str)]) -> String {
        let body: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// A human-readable table of `catalog`.
    pub fn table(&self, catalog: &[(&str, &str)]) -> String {
        let mut s = String::new();
        for &(name, unit) in catalog {
            let v = self.metrics.get(name).unwrap_or(0.0);
            s.push_str(&format!("  {name:<34} {v:>16.4} {unit}\n"));
        }
        s
    }
}

/// Operation latencies in ns, in fixed log-linear buckets: exact below
/// 256 ns, then 128 buckets per power of two (each under 0.8% wide). Its
/// size is fixed, so the benchmark's memory does not grow with the number
/// of operations it times.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Hist::BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// Buckets per power of two, as a power of two.
    const SUB_BITS: u32 = 7;
    /// Largest recorded exponent; longer latencies (over a minute) are
    /// clamped into the top bucket.
    const MAX_EXP: u32 = 35;
    const BUCKETS: usize =
        (2 << Self::SUB_BITS) + ((Self::MAX_EXP - Self::SUB_BITS) << Self::SUB_BITS) as usize;

    fn index(ns: u64) -> usize {
        let v = ns.min((2 << Self::MAX_EXP) - 1);
        if v < 2 << Self::SUB_BITS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - Self::SUB_BITS)) as usize - (1 << Self::SUB_BITS);
        (2 << Self::SUB_BITS) + (((e - Self::SUB_BITS - 1) as usize) << Self::SUB_BITS) + sub
    }

    /// The first value of bucket `b` and the bucket's width.
    fn bounds(b: usize) -> (f64, f64) {
        let exact = 2 << Self::SUB_BITS;
        if b < exact {
            return (b as f64, 1.0);
        }
        let e = ((b - exact) >> Self::SUB_BITS) as u32 + Self::SUB_BITS + 1;
        let sub = ((b - exact) & ((1 << Self::SUB_BITS) - 1)) as u64;
        let width = 1u64 << (e - Self::SUB_BITS);
        (((1u64 << e) + sub * width) as f64, width as f64)
    }

    /// Count one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Add another histogram's counts.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Latencies counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q` quantile in ns, placed inside its bucket by
    /// its rank among the bucket's samples; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = Self::bounds(b);
                return Some(lo + width * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        None
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs`, interpolated between neighbouring values
/// (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmRSS` (resident now) or `VmHWM` (peak resident).
pub fn proc_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_quantiles_land_in_them() {
        for b in 0..Hist::BUCKETS - 1 {
            let (lo, w) = Hist::bounds(b);
            let (next, _) = Hist::bounds(b + 1);
            assert_eq!(lo + w, next, "bucket {b}");
            assert_eq!(Hist::index(lo as u64), b);
            assert_eq!(Hist::index((lo + w) as u64 - 1), b);
            assert!(w / lo.max(1.0) <= 1.0 / 128.0 || lo < 256.0);
        }
        assert_eq!(Hist::index(u64::MAX), Hist::BUCKETS - 1);
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), None);
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        for (q, want) in [(0.5, 5000.0), (0.99, 9900.0), (0.01, 100.0)] {
            let got = h.quantile(q).expect("nonempty");
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        let mut two = h.clone();
        two.merge(&h);
        assert_eq!(two.count(), 20_000);
        assert!((two.quantile(0.5).expect("nonempty") - 5000.0).abs() < 50.0);
    }
}
