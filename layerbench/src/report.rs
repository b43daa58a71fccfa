//! Metric names and units, percentiles with their sample-size check, the
//! pass/fail tally, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::inputs::Kind;

/// A percentile is printed only when at least this many samples lie beyond
/// it; p90 therefore needs 100 samples.
pub const MIN_BEYOND: usize = 10;

/// The end-to-end metrics (`--trace 0`), each workload reporting all of
/// them, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("exec_p50_us", "us"),
    ("exec_p90_us", "us"),
    ("conf_p50_us", "us"),
    ("conf_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relational.exec_us", "us"),
    ("session.db_exec_us", "us"),
    ("session.any_exec_us", "us"),
    ("session.prepare_us", "us"),
    ("session.any_over_db", "ratio"),
    ("conf.extract_us", "us"),
    ("conf.safe_us", "us"),
    ("conf.eval_us", "us"),
    ("conf.compile_us", "us"),
    ("conf.over_exec", "ratio"),
    ("conf.tier_safe", "count"),
    ("conf.tier_compiled", "count"),
    ("conf.tier_exact", "count"),
    ("uwsdt.exec_us", "us"),
    ("uwsdt.chase_s", "s"),
    ("core.exec_first_us", "us"),
    ("core.exec_growth", "ratio"),
    ("storage.durable_over_any", "ratio"),
    ("storage.wal_bytes_per_update", "B/update"),
    ("storage.syncs_per_update", "sync/update"),
    ("store.commit_us", "us"),
    ("store.mean_batch", "update/batch"),
    ("store.repin_us", "us"),
    ("store.repins_per_read", "repin/read"),
    ("wire.exec_us", "us"),
    ("wire.bytes_per_row", "B/row"),
    ("wire.over_session", "ratio"),
    ("obs.observed_over_plain", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a legal metric name: a letter or digit first, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The nearest-rank `p`-quantile of `samples`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a tail the sample cannot support
/// fails the run instead of being printed.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The middle value (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency samples per operation type plus the operations attempted and
/// failed.  A failed, refused or wrong-answer operation counts as failed and
/// contributes no latency sample; it is never skipped.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: BTreeMap<Kind, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, kind: Kind, latency: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            self.samples.entry(kind).or_default().push(micros(latency));
        } else {
            self.failed += 1;
        }
    }

    /// A consistency check counted as an attempted operation, without a
    /// latency sample.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Successful samples of one operation type.
    pub fn count(&self, kind: Kind) -> usize {
        self.samples.get(&kind).map_or(0, Vec::len)
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, samples) in other.samples {
            self.samples.entry(kind).or_default().extend(samples);
        }
    }

    /// The latency distribution of one operation type for the human-readable
    /// lines: every tenth percentile and the maximum, in ms.
    pub fn deciles(&self, kind: Kind) -> String {
        let mut sorted = self.samples.get(&kind).cloned().unwrap_or_default();
        if sorted.is_empty() {
            return "no samples".into();
        }
        sorted.sort_by(f64::total_cmp);
        let at = |q: usize| sorted[(q * (sorted.len() - 1)) / 10] / 1e3;
        let deciles: Vec<String> = (1..=10).map(|q| format!("{:.3}", at(q))).collect();
        format!("p10..max ms: {}", deciles.join(" "))
    }

    /// p50 and p90 of one operation type, in µs.
    pub fn latency(&self, kind: Kind) -> Result<(f64, f64), String> {
        let samples = self.samples.get(&kind).map_or(&[][..], Vec::as_slice);
        let context = |e: String| format!("{kind:?} latency: {e}");
        Ok((
            percentile(samples, 0.5).map_err(context)?,
            percentile(samples, 0.9).map_err(context)?,
        ))
    }
}

/// What one run reports: the operations attempted and failed, and the
/// metrics of one table ([`END_TO_END`] or [`PER_LAYER`]).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Check that the metrics are exactly `table`, each once and finite,
    /// and return `(name, value, unit)` in table order.
    pub fn checked(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not legal"));
            }
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            match values[..] {
                [value] if value.is_finite() => out.push((name, value, unit)),
                [value] => return Err(format!("metric {name} is not finite: {value}")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was reported twice")),
            }
        }
        if let Some((stray, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
        {
            return Err(format!("metric {stray} is not in the table"));
        }
        Ok(out)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let metrics: Vec<String> = self
            .checked(table)?
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The process's high-water resident memory (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_without_ten_samples_beyond_it_fails() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).is_err());
        assert_eq!(percentile(&samples, 0.5), Ok(50.0));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(90.0));
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());

        let mut tally = Tally::default();
        for _ in 0..99 {
            tally.record(Kind::Conf, Duration::from_micros(5), true);
        }
        assert!(tally.latency(Kind::Conf).is_err());
        assert!(tally.latency(Kind::Write).is_err());
    }

    #[test]
    fn every_metric_name_is_legal_unique_and_listed_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn failures_count_against_attempts_and_the_line_lists_the_table() {
        let mut tally = Tally::default();
        tally.record(Kind::Exec, Duration::from_micros(3), true);
        tally.record(Kind::Exec, Duration::from_micros(4), false);
        assert_eq!(
            (tally.attempted, tally.failed, tally.count(Kind::Exec)),
            (2, 1, 1)
        );

        let table = &[("a_s", "s"), ("b.ratio", "ratio")];
        let mut outcome = Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            ..Outcome::default()
        };
        outcome.set("a_s", 1.5);
        assert!(outcome.json(table).is_err(), "a missing metric must fail");
        outcome.set("b.ratio", 0.25);
        assert_eq!(
            outcome.json(table).unwrap(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"b.ratio\": {\"value\": 0.25, \"unit\": \"ratio\"}}}"
        );
        outcome.set("c", 1.0);
        assert!(outcome.json(table).is_err(), "a stray metric must fail");
    }
}
