//! Quality metrics from records, latency percentiles, peak memory, and
//! the result line.

use mm_engine::json::{self, ObjBuilder, Value};

/// Quality sums over a set of result records. They repeat exactly for a
/// given seed, so any change is real (and also fails the record check).
#[derive(Debug, Default)]
pub struct Quality {
    channel_width_sum: f64,
    param_bits_sum: f64,
    wires_sum: f64,
    log_speedups: Vec<f64>,
    critical_path_sum: f64,
}

impl Quality {
    /// Folds one record line in. `dcs` records contribute their width,
    /// parameterized bits, per-mode wires, speed-up and (timing jobs)
    /// critical paths; `mdr` records their width and wires; `pair`
    /// (combined) records the three legs' widths, DCS bits, mean wires
    /// and both DCS speed-ups.
    pub fn add(&mut self, record: &str) {
        let Ok(v) = json::parse(record) else { return };
        let Some(m) = v.get("metrics") else { return };
        let num = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let sum = |key: &str| {
            m.get(key)
                .and_then(Value::as_arr)
                .map_or(0.0, |a| a.iter().filter_map(Value::as_f64).sum())
        };
        let routing_bits = |key: &str| {
            m.get(key)
                .and_then(|c| c.get("routing_bits"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        match m.get("kind").and_then(Value::as_str) {
            Some("dcs") => {
                self.channel_width_sum += num("channel_width");
                self.param_bits_sum += num("param_bits");
                self.wires_sum += sum("wires");
                self.log_speedups.push(num("speedup").ln());
                self.critical_path_sum += sum("critical_paths");
            }
            Some("mdr") => {
                self.channel_width_sum += num("channel_width");
                self.wires_sum += sum("wires");
            }
            Some("pair") => {
                self.channel_width_sum +=
                    num("width_mdr") + num("width_edge") + num("width_wirelength");
                self.param_bits_sum += routing_bits("dcs_edge") + routing_bits("dcs_wirelength");
                self.wires_sum += num("wires_mdr") + num("wires_edge") + num("wires_wirelength");
                self.log_speedups.push(num("speedup_edge").ln());
                self.log_speedups.push(num("speedup_wirelength").ln());
            }
            _ => {}
        }
    }

    /// Appends the five quality metrics.
    pub fn emit(&self, out: &mut Metrics) {
        let geomean = if self.log_speedups.is_empty() {
            0.0
        } else {
            (self.log_speedups.iter().sum::<f64>() / self.log_speedups.len() as f64).exp()
        };
        out.push("channel_width_sum", self.channel_width_sum, "tracks");
        out.push("param_bits_sum", self.param_bits_sum, "bits");
        out.push("wires_sum", self.wires_sum, "wires");
        out.push("speedup_geomean", geomean, "x");
        out.push("critical_path_sum", self.critical_path_sum, "unit_delay");
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The benchmark's result line.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics = Value::Obj(
            self.0
                .iter()
                .map(|&(name, value, unit)| {
                    let v = ObjBuilder::new().field("value", value).field("unit", unit);
                    (name.to_string(), v.build())
                })
                .collect(),
        );
        ObjBuilder::new()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("metrics", metrics)
            .build()
            .to_json()
    }
}

/// The `q`-quantile of `samples` (nearest rank; `samples` need not be
/// sorted). `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The tail quantile `samples` support: 0.99 when at least ten samples
/// lie beyond it, else the highest quantile that keeps ten beyond it,
/// else (fewer than twenty samples) the maximum.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        1.0
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// The tail `samples` support, with its quantile (see
/// [`tail_quantile`]).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = tail_quantile(samples.len());
    (q, quantile(samples, q))
}

/// The median of `samples`: the mean of the two middle samples when
/// their count is even (so the median of two rounds is their mean).
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 {
        return quantile(samples, 0.5);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(n / 2).map_or(0.0, |hi| (s[n / 2 - 1] + hi) / 2.0)
}

/// Prints the set-up samples' median, first-half and second-half
/// medians and range on standard error.
pub fn print_setup(setup_s: &[f64]) {
    let (before, after) = setup_s.split_at(setup_s.len().div_ceil(2));
    eprintln!(
        "setup_s: median {:.4} of {} set-ups (before the measurement {:.4}, after {:.4}; range {:.4}-{:.4})",
        median(setup_s),
        setup_s.len(),
        median(before),
        median(after),
        quantile(setup_s, 0.0),
        quantile(setup_s, 1.0),
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(tail_quantile(5), 1.0);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(5000), 0.99);
    }

    #[test]
    fn quality_reads_every_record_kind() {
        let mut q = Quality::default();
        q.add(r#"{"name":"a","flow":"dcs","status":"ok","metrics":{"kind":"dcs","channel_width":8,"param_bits":10,"speedup":4,"wires":[1,2],"critical_paths":[3.5,1]}}"#);
        q.add(r#"{"name":"b","flow":"mdr","status":"ok","metrics":{"kind":"mdr","channel_width":6,"wires":[4,5]}}"#);
        q.add(r#"{"name":"c","flow":"pair","status":"ok","metrics":{"kind":"pair","width_mdr":1,"width_edge":2,"width_wirelength":3,"dcs_edge":{"routing_bits":7},"dcs_wirelength":{"routing_bits":9},"speedup_edge":1,"speedup_wirelength":16,"wires_mdr":0.5,"wires_edge":1,"wires_wirelength":1.5}}"#);
        let mut m = Metrics::default();
        q.emit(&mut m);
        let get = |n: &str| m.0.iter().find(|x| x.0 == n).unwrap().1;
        assert_eq!(get("channel_width_sum"), 20.0);
        assert_eq!(get("param_bits_sum"), 26.0);
        assert_eq!(get("wires_sum"), 15.0);
        assert!((get("speedup_geomean") - 4.0).abs() < 1e-12);
        assert_eq!(get("critical_path_sum"), 4.5);
    }
}
