//! The one-line JSON document a benchmark command prints.

use crate::workload::Seed;
use crate::Outcome;
use mmptcp::metrics::report::json_escape;

/// A named measurement with its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; `value` must be finite.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

fn object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Render an outcome. `f64`'s `Display` is the shortest text that parses
/// back to the same value, so every measured digit is kept.
pub fn outcome(workload: &str, seed: Seed, o: &Outcome) -> String {
    let seed = match seed {
        Seed::Pinned => "\"pinned\"".to_string(),
        Seed::Derived(n) => n.to_string(),
    };
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
         \"driver_threads\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"info\": {}, \"failures\": [{}]}}",
        crate::host::nproc(),
        o.threads,
        o.attempted,
        o.failures.len(),
        object(&o.metrics),
        object(&o.info),
        failures.join(", ")
    )
}
