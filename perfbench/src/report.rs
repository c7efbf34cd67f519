//! Metrics, output rows and the final result line.
//!
//! Every metric is a list of repetition values (setup repetitions, or
//! one-second slices of the measured window); the reported value is their
//! median. Each metric is printed as one JSON row carrying the row schema
//! (`rev`, `cores`, `seed`, workload, fleet shape, clock, `reps`,
//! `median`, `min`, `max`), and the last line of standard output is the
//! `{"correct", "attempted", "failed", "metrics"}` object.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time (or a count gathered in wall-clock windows).
    Wall,
    /// The simulator's virtual clock (Table II RTTs).
    Sim,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
        }
    }
}

/// One named metric and its repetition values.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub reps: Vec<f64>,
}

impl Metric {
    /// The reported value: the median of the repetitions (0 when the
    /// metric does not apply to the workload and has no repetitions).
    pub fn value(&self) -> f64 {
        median(&self.reps)
    }
}

/// The median of a sample (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    rbay_bench::percentile(&v, 0.5)
}

/// The `p`-quantile of an unsorted sample (0 for an empty sample).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    rbay_bench::percentile(&v, p)
}

/// Context stamped on every row.
#[derive(Debug, Clone)]
pub struct RowContext {
    pub rev: String,
    pub cores: usize,
    pub seed: u64,
    pub workload: String,
    pub fleet: String,
    pub trace: bool,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for `correct == false`.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Adds a metric from its repetition values.
    pub fn push(&mut self, name: &'static str, unit: &'static str, clock: Clock, reps: Vec<f64>) {
        self.metrics.push(Metric {
            name,
            unit,
            clock,
            reps,
        });
    }

    /// Adds a metric measured once.
    pub fn push1(&mut self, name: &'static str, unit: &'static str, clock: Clock, value: f64) {
        self.push(name, unit, clock, vec![value]);
    }

    /// Records a failed correctness check.
    pub fn violate(&mut self, why: String) {
        self.correct = false;
        self.violations.push(why);
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (never expected) print as 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// One row per metric, in the shared row schema.
pub fn rows(ctx: &RowContext, out: &Outcome) -> Vec<String> {
    out.metrics
        .iter()
        .map(|m| {
            let min = m.reps.iter().copied().fold(f64::INFINITY, f64::min);
            let max = m.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!(
                "{{\"row\":\"metric\",\"rev\":{},\"cores\":{},\"seed\":{},\"workload\":{},\
                 \"fleet\":{},\"clock\":\"{}\",\"trace\":{},\"name\":{},\"unit\":{},\"reps\":{},\
                 \"median\":{},\"min\":{},\"max\":{}}}",
                json_str(&ctx.rev),
                ctx.cores,
                ctx.seed,
                json_str(&ctx.workload),
                json_str(&ctx.fleet),
                m.clock.as_str(),
                u8::from(ctx.trace),
                json_str(m.name),
                json_str(m.unit),
                m.reps.len(),
                json_num(m.value()),
                json_num(if m.reps.is_empty() { 0.0 } else { min }),
                json_num(if m.reps.is_empty() { 0.0 } else { max }),
            )
        })
        .collect()
}

/// The final result line.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value()),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_order_and_non_finite() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[f64::NAN, 4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.push1("latency_ms", "ms", Clock::Wall, 1.5);
        assert_eq!(
            result_line(&o),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.5,"unit":"ms"}}}"#
        );
    }
}
