//! Metrics JSON dump.

use crate::json::write_str;
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Serializes a [`MetricsSnapshot`] as a JSON document, suitable for
/// dropping into `results/`.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_str(&mut out, name);
        let _ = write!(out, ": {value}");
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_str(&mut out, name);
        let _ = write!(out, ": {value}");
    }
    out.push_str("\n  },\n  \"series\": {");
    for (i, (name, points)) in snapshot.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_str(&mut out, name);
        out.push_str(": [");
        for (j, p) in points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{p}");
        }
        out.push(']');
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn metrics_json_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("dispatches").add(9);
        reg.gauge("depth").set(-3);
        reg.series("traj").extend(&[30, 20, 20]);
        let text = metrics_json(&reg.snapshot());
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("dispatches")
                .unwrap()
                .as_f64(),
            Some(9.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("depth").unwrap().as_f64(),
            Some(-3.0)
        );
        let traj = doc
            .get("series")
            .unwrap()
            .get("traj")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(traj.len(), 3);
    }
}
