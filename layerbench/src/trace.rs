//! Spans recorded from the benchmark's own code around each call into a
//! layer, kept in memory and summarized when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::inputs::Op;
use crate::report::median;

/// Whether request `i` of a traced replay runs inside a span: requests
/// alternate in pairs, so traced and untraced requests see the same mix and,
/// on a session whose state grows, the same state.
pub fn traced_turn(i: u64) -> bool {
    (i / 2) % 2 == 1
}

/// The span a replayed request runs in.
pub fn span_name(op: Op) -> &'static str {
    match op {
        Op::Exec(_) => "replay.exec",
        Op::Conf(_) => "replay.conf",
        Op::Write => "replay.write",
    }
}

/// One request of a traced replay and its wall time, span included.
#[derive(Clone, Copy, Debug)]
pub struct Replayed {
    pub op: Op,
    pub traced: bool,
    pub wall: Duration,
}

/// Untraced over traced throughput on the same request mix: each request
/// type's mean wall time per mode, weighted by how often the type occurs.
pub fn overhead(log: &[Replayed]) -> Result<f64, String> {
    let mut per_op: BTreeMap<Op, [(f64, u64); 2]> = BTreeMap::new();
    for r in log {
        let slot = &mut per_op.entry(r.op).or_default()[usize::from(r.traced)];
        slot.0 += r.wall.as_secs_f64();
        slot.1 += 1;
    }
    let (mut untraced, mut traced) = (0.0, 0.0);
    for [(u_sum, u_n), (t_sum, t_n)] in per_op.into_values() {
        if u_n > 0 && t_n > 0 {
            let weight = (u_n + t_n) as f64;
            untraced += weight * u_sum / u_n as f64;
            traced += weight * t_sum / t_n as f64;
        }
    }
    if untraced == 0.0 {
        return Err("the replay ran no request type both traced and untraced".into());
    }
    Ok(traced / untraced)
}

/// One finished span.  `parent` is 0 for a root span; `label` names the
/// query or operation the span served.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub label: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; `f` gets the span's id to parent child spans.
    pub fn span<T>(
        &self,
        parent: u64,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                label,
                start,
                end,
            });
        out
    }

    fn select(&self, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .iter()
            .filter(|s| keep(s))
            .map(Span::micros)
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.select(|s| s.name == name)
    }

    /// Durations (µs) of the spans called `name` that served `label`.
    pub fn durations_for(&self, name: &str, label: &str) -> Vec<f64> {
        self.select(|s| s.name == name && s.label == label)
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median(&self, name: &str) -> Result<f64, String> {
        let d = self.durations(name);
        if d.is_empty() {
            return Err(format!("no {name} span was recorded"));
        }
        Ok(median(&d))
    }

    /// Per span name: count, median, total and self time (the span's
    /// duration minus the time its child spans cover).
    pub fn summary(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_time.entry(s.parent).or_default() += s.end - s.start;
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = child_time.get(&s.id).copied().unwrap_or_default();
            let self_us = (s.end - s.start).saturating_sub(own).as_secs_f64() * 1e6;
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.micros());
            entry.1 += self_us;
        }
        let mut out = String::from(
            "# span                          count   median_us     total_ms      self_ms\n",
        );
        for (name, (durations, self_us)) in by_name {
            let total: f64 = durations.iter().sum();
            out.push_str(&format!(
                "# {name:<28} {:>7} {:>11.1} {:>12.1} {:>12.1}\n",
                durations.len(),
                median(&durations),
                total / 1e3,
                self_us / 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let tracer = Tracer::default();
        tracer.span(0, "outer", "", |id| {
            tracer.span(id, "inner", "x", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let outer = tracer.median("outer").unwrap();
        let inner = tracer.median("inner").unwrap();
        assert!(outer >= inner && inner >= 20_000.0);
        assert_eq!(tracer.durations_for("inner", "x").len(), 1);
        assert!(tracer.median("missing").is_err());
        let summary = tracer.summary();
        let self_ms: f64 = summary
            .lines()
            .find(|l| l.contains("outer"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(self_ms < 20.0, "{summary}");
    }
}
