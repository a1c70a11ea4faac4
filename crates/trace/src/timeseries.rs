//! Counter time-series sampling (flat CSV / JSON export).

use crate::counters::CounterSnapshot;
use std::collections::BTreeSet;

/// One sampled row: a counter snapshot at a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRow {
    /// Simulated cycle of the sample.
    pub cycle: u64,
    /// Counter values at that cycle.
    pub snapshot: CounterSnapshot,
}

/// A sequence of counter snapshots taken every N cycles.
///
/// The driver (e.g. `Soc::tick`) checks [`due`](CounterSeries::due)
/// and calls [`record`](CounterSeries::record); this struct only
/// stores and exports.
#[derive(Clone, Debug, Default)]
pub struct CounterSeries {
    every: u64,
    rows: Vec<SampleRow>,
}

impl CounterSeries {
    /// Creates a series sampling every `every` cycles (min 1).
    pub fn new(every: u64) -> Self {
        CounterSeries {
            every: every.max(1),
            rows: Vec::new(),
        }
    }

    /// The sampling period in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// True when `cycle` falls on the sampling grid.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.every)
    }

    /// Appends one sample.
    pub fn record(&mut self, cycle: u64, snapshot: CounterSnapshot) {
        self.rows.push(SampleRow { cycle, snapshot });
    }

    /// All samples in record order.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Union of counter names across all samples, sorted.
    fn columns(&self) -> Vec<String> {
        let mut names = BTreeSet::new();
        for row in &self.rows {
            for name in row.snapshot.names() {
                names.insert(name.to_string());
            }
        }
        names.into_iter().collect()
    }

    /// Renders `cycle,<counter...>` CSV. Counters missing from a given
    /// sample render as 0.
    pub fn to_csv(&self) -> String {
        let columns = self.columns();
        let mut out = String::from("cycle");
        for c in &columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.cycle.to_string());
            for c in &columns {
                out.push(',');
                out.push_str(&row.snapshot.get(c).to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Renders an array of flat JSON objects (`cycle` plus counters).
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let mut map = serde_json::Map::new();
                map.insert("cycle".to_string(), serde_json::Value::from(row.cycle));
                for (name, value) in row.snapshot.iter() {
                    map.insert(name.to_string(), serde_json::Value::from(value));
                }
                serde_json::Value::Object(map)
            })
            .collect();
        serde_json::Value::Array(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterRegistry;

    #[test]
    fn csv_has_union_columns() {
        let mut series = CounterSeries::new(100);
        assert!(series.due(0));
        assert!(!series.due(150));
        assert!(series.due(200));

        let mut reg = CounterRegistry::new();
        reg.add("a", 1);
        series.record(0, reg.capture());
        reg.add("b", 2);
        series.record(100, reg.capture());

        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cycle,a,b");
        assert_eq!(lines[1], "0,1,0");
        assert_eq!(lines[2], "100,1,2");
    }

    #[test]
    fn json_rows_parse_back() {
        let mut series = CounterSeries::new(10);
        let mut reg = CounterRegistry::new();
        reg.add("hits", 3);
        series.record(10, reg.capture());
        let text = serde_json::to_string(&series.to_json()).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = back.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["cycle"].as_u64(), Some(10));
        assert_eq!(rows[0]["hits"].as_u64(), Some(3));
    }

    #[test]
    fn zero_period_clamps_to_one() {
        let series = CounterSeries::new(0);
        assert_eq!(series.every(), 1);
        assert!(series.due(7));
    }
}
