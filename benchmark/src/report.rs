//! Metric names, units and the result line.
//!
//! The catalogue here is the code's side of `BENCHMARK.json`: a test keeps
//! the two in step, so a run can never print a metric the manifest does not
//! declare.

use dsm::ProtocolKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which a set of runs may worsen before it counts as
/// a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "ops/s", Better::Higher, 0.25),
    ("round_p50_us", "us", Better::Lower, 0.25),
    ("ctl_bytes_per_op", "B/op", Better::Lower, 0.02),
    ("msgs_per_op", "1/op", Better::Lower, 0.02),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// The per-protocol layer metrics (`dsm.<protocol>.<suffix>`).
pub const PER_PROTOCOL: [(&str, &str, Better); 11] = [
    ("ops_per_s", "ops/s", Better::Higher),
    ("write_ns", "ns", Better::Lower),
    ("read_ns", "ns", Better::Lower),
    ("settle_us", "us", Better::Lower),
    ("settle_ns_per_event", "ns", Better::Lower),
    ("handler_ns_per_event", "ns", Better::Lower),
    ("events_per_op", "1/op", Better::Lower),
    ("msgs_per_op", "1/op", Better::Lower),
    ("ctl_bytes_per_op", "B/op", Better::Lower),
    ("round_p50_us", "us", Better::Lower),
    ("round_p99_us", "us", Better::Lower),
];

/// The layer metrics that are not per protocol.
pub const PER_LAYER_SHARED: [(&str, &str, Better); 33] = [
    ("dsm.round_p99_us", "us", Better::Lower),
    ("dsm.clock.merge_ns", "ns", Better::Lower),
    ("dsm.clock.deliverable_ns", "ns", Better::Lower),
    ("dsm.clock.delta_encode_ns", "ns", Better::Lower),
    ("dsm.clock.delta_decode_ns", "ns", Better::Lower),
    ("dsm.clock.delta_bytes_ratio", "ratio", Better::Lower),
    ("dsm.recorder.record_ns", "ns", Better::Lower),
    ("dsm.control.charge_ns", "ns", Better::Lower),
    ("simnet.sim.ns_per_event", "ns", Better::Lower),
    ("simnet.sim.events_per_s", "1/s", Better::Higher),
    ("simnet.event.push_pop_ns", "ns", Better::Lower),
    ("simnet.pool.acquire_release_ns", "ns", Better::Lower),
    ("simnet.pool.hit_rate", "ratio", Better::Higher),
    ("simnet.channel.transmit_ns", "ns", Better::Lower),
    ("simnet.route.build_ms", "ms", Better::Lower),
    ("simnet.route.ns_per_hop", "ns", Better::Lower),
    ("simnet.route.forwarded_per_msg", "ratio", Better::Lower),
    ("simnet.chan.push_pop_ns", "ns", Better::Lower),
    ("simnet.chan.pingpong_us", "us", Better::Lower),
    ("simnet.chan.full_stalls_per_kop", "1/kop", Better::Lower),
    ("simnet.chan.mean_batch_len", "count", Better::Higher),
    ("simnet.threaded.sync_call_us", "us", Better::Lower),
    ("simnet.threaded.async_post_ns", "ns", Better::Lower),
    ("simnet.threaded.idle_settle_us", "us", Better::Lower),
    ("simnet.threaded.spawn_ms", "ms", Better::Lower),
    ("histories.spot.pram_ns_per_op", "ns", Better::Lower),
    ("histories.spot.causal_ns_per_op", "ns", Better::Lower),
    ("histories.check.exhaustive24_ms", "ms", Better::Lower),
    ("apps.scenario.generate_ns_per_op", "ns", Better::Lower),
    ("apps.scenario.cell_ms", "ms", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.attribution_gap_pct", "%", Better::Lower),
    ("bench.cpu_wait_share", "ratio", Better::Lower),
];

/// Name of a per-protocol layer metric.
pub fn protocol_metric(kind: ProtocolKind, suffix: &str) -> String {
    format!("dsm.{}.{suffix}", kind.name())
}

/// Every per-layer metric: name, unit, direction — the five protocols'
/// metrics first, in `ProtocolKind::ALL` order, then the shared ones.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, Better)> {
    let mut all = Vec::new();
    for kind in ProtocolKind::ALL {
        for (suffix, unit, better) in PER_PROTOCOL {
            all.push((protocol_metric(kind, suffix), unit, better));
        }
    }
    for (name, unit, better) in PER_LAYER_SHARED {
        all.push((name.to_owned(), unit, better));
    }
    all
}

/// Collects the metrics of a run, looking units up in the catalogue so a
/// name and its unit cannot drift apart.
pub struct Metrics {
    units: BTreeMap<String, &'static str>,
    values: Vec<Metric>,
}

impl Default for Metrics {
    fn default() -> Self {
        let mut units: BTreeMap<String, &'static str> = per_layer_catalogue()
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect();
        units.extend(END_TO_END.iter().map(|m| (m.0.to_owned(), m.1)));
        Metrics {
            units,
            values: Vec::new(),
        }
    }
}

impl Metrics {
    /// Add `value` under `name`. Panics on a name the catalogue does not
    /// hold: that is a bug in this program, not a condition of the run.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = *self
            .units
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.push(Metric {
            name: name.to_owned(),
            unit,
            // JSON has no NaN or infinity; a ratio over an empty phase is 0.
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// The collected metrics, in insertion order.
    pub fn into_vec(self) -> Vec<Metric> {
        self.values
    }
}

/// The one-line JSON result the contract asks for as the last line of
/// standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The value of `"key"` in one flat JSON object body, unquoted.
    fn field(object: &str, key: &str) -> Option<String> {
        let rest = &object[object.find(&format!("\"{key}\""))?..];
        let rest = rest[rest.find(':')? + 1..].trim_start();
        let value = match rest.strip_prefix('"') {
            Some(quoted) => &quoted[..quoted.find('"')?],
            None => rest[..rest.find([',', '\n']).unwrap_or(rest.len())].trim(),
        };
        Some(value.to_owned())
    }

    /// The objects of one top-level array of the manifest, as
    /// `[name, unit, better, bound]` (a missing field reads as `""`).
    fn manifest_entries(manifest: &str, section: &str) -> Vec<[String; 4]> {
        let start = manifest
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|object| {
                ["name", "unit", "better", "bound"].map(|k| field(object, k).unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        for (_, unit, _, bound) in END_TO_END {
            assert!(valid_unit(unit), "{unit}");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (name, unit, _) in per_layer_catalogue() {
            assert!(valid_unit(unit), "{unit}");
            names.push(name);
        }
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert_eq!(per_layer_catalogue().len(), 88);
    }

    #[test]
    fn the_manifest_declares_exactly_the_catalogue() {
        let manifest = manifest();
        let e2e: Vec<[String; 4]> = END_TO_END
            .iter()
            .map(|m| [m.0.into(), m.1.into(), m.2.word().into(), m.3.to_string()])
            .collect();
        assert_eq!(manifest_entries(&manifest, "end_to_end"), e2e);
        let layers: Vec<[String; 4]> = per_layer_catalogue()
            .into_iter()
            .map(|m| [m.0, m.1.into(), m.2.word().into(), String::new()])
            .collect();
        assert_eq!(manifest_entries(&manifest, "per_layer"), layers);
        let workloads: Vec<String> = manifest_entries(&manifest, "workloads")
            .into_iter()
            .map(|[name, ..]| name)
            .collect();
        let specs: Vec<&str> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn the_result_line_has_the_contract_shape() {
        let mut metrics = Metrics::default();
        metrics.put("ops_per_s", 1234.5);
        metrics.put("setup_s", f64::NAN);
        let line = result_line(true, 10, 0, &metrics.into_vec());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn an_undeclared_metric_is_refused() {
        Metrics::default().put("made.up", 1.0);
    }
}
