//! Run results: named metrics with units, failure accounting, and the
//! one-line JSON summary printed last on standard output.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and self-check violations, each described.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a correctness violation: it fails the run.
    pub fn error(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    pub fn merge_counts(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed();
        for e in &tally.errors {
            self.error(e.clone());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines, then the JSON summary as the last line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<44} {:>16} {}", m.name, fmt_num(m.value), m.unit);
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for e in self.errors.iter().take(20) {
            println!("error: {e}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Per-phase request accounting: every attempted operation ends either
/// ok or in exactly one failure class.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// Answered with a non-200 status (refused, shed, overloaded, …).
    pub non_ok: u64,
    /// Answered 200 with an output that differs from the oracle.
    pub mismatched: u64,
    /// Never answered: transport error, or still outstanding at the
    /// drain deadline.
    pub lost: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.non_ok + self.mismatched + self.lost
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.non_ok += other.non_ok;
        self.mismatched += other.mismatched;
        self.lost += other.lost;
        for e in &other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e.clone());
            }
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatched += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// Full-precision decimal for JSON (non-finite values become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn fmt_num(x: f64) -> String {
    if x.abs() >= 1e5 || (x != 0.0 && x.abs() < 1e-3) {
        format!("{x:.6e}")
    } else {
        format!("{x:.6}")
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
