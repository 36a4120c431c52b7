//! Deterministic time-series gauges: ordered key/value rows rendered as
//! JSONL or CSV.
//!
//! A [`Row`] preserves insertion order, so exports are byte-stable: the
//! same run always produces the same file. Rows may be heterogeneous
//! (serve ticks next to fleet intervals); the CSV exporter uses the
//! union of keys in first-appearance order and leaves absent cells
//! empty.

use crate::trace::ArgValue;

/// One gauge sample: an ordered list of `(key, value)` fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, ArgValue)>,
}

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new() -> Self {
        Row { fields: Vec::new() }
    }

    /// Append an unsigned-integer field.
    #[must_use]
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.fields.push((key, ArgValue::U64(v)));
        self
    }

    /// Append a float field.
    #[must_use]
    pub fn f64(mut self, key: &'static str, v: f64) -> Self {
        self.fields.push((key, ArgValue::F64(v)));
        self
    }

    /// Append a string field.
    #[must_use]
    pub fn str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.fields.push((key, ArgValue::Str(v.into())));
        self
    }

    /// Append a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &'static str, v: bool) -> Self {
        self.fields.push((key, ArgValue::Bool(v)));
        self
    }

    /// Prefix the row with a stable run identifier (`"run"` column) so
    /// rows from concatenated multi-run streams (sweeps, shard
    /// directories) stay attributable. Sinks stamp this at sample time,
    /// which keeps the batch and streaming exports byte-equivalent.
    #[must_use]
    pub fn with_run(mut self, run_id: &str) -> Self {
        self.fields
            .insert(0, ("run", ArgValue::Str(run_id.to_string())));
        self
    }

    /// The ordered fields.
    #[must_use]
    pub fn fields(&self) -> &[(&'static str, ArgValue)] {
        &self.fields
    }

    /// Look up a field by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&ArgValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Render as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`to_json`](Self::to_json)'s object to `out`.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::escape_into(out, k);
            out.push_str("\":");
            v.write_json(out);
        }
        out.push('}');
    }
}

/// An append-only log of gauge rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsLog {
    rows: Vec<Row>,
}

impl MetricsLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        MetricsLog::default()
    }

    /// Append a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The recorded rows.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// One JSON object per line, trailing newline when non-empty.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            row.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// CSV with a header of all keys in first-appearance order; cells
    /// absent from a row render empty.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut keys: Vec<&'static str> = Vec::new();
        for row in &self.rows {
            for (k, _) in row.fields() {
                if !keys.contains(k) {
                    keys.push(k);
                }
            }
        }
        let mut out = keys.join(",");
        out.push('\n');
        for row in &self.rows {
            for (i, key) in keys.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(v) = row.get(key) {
                    out.push_str(&v.to_csv());
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_preserves_field_order() {
        let mut log = MetricsLog::new();
        log.push(Row::new().f64("t_ms", 100.0).u64("queue_depth", 3));
        log.push(Row::new().f64("t_ms", 200.0).u64("queue_depth", 0));
        assert_eq!(
            log.to_jsonl(),
            "{\"t_ms\":100.0,\"queue_depth\":3}\n{\"t_ms\":200.0,\"queue_depth\":0}\n"
        );
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn csv_unions_heterogeneous_rows() {
        let mut log = MetricsLog::new();
        log.push(Row::new().u64("a", 1).u64("b", 2));
        log.push(Row::new().u64("a", 3).str("c", "x"));
        assert_eq!(log.to_csv(), "a,b,c\n1,2,\n3,,x\n");
    }

    #[test]
    fn empty_log_renders_empty_jsonl_and_bare_csv_header() {
        let log = MetricsLog::new();
        assert_eq!(log.to_jsonl(), "");
        assert_eq!(log.to_csv(), "\n");
        assert!(log.is_empty());
    }

    #[test]
    fn with_run_prefixes_the_row() {
        let row = Row::new()
            .str("kind", "tick")
            .u64("n", 1)
            .with_run("demo@7");
        assert_eq!(
            row.to_json(),
            "{\"run\":\"demo@7\",\"kind\":\"tick\",\"n\":1}"
        );
        let mut log = MetricsLog::new();
        log.push(row);
        assert!(log.to_csv().starts_with("run,kind,n\n"));
    }

    #[test]
    fn rows_render_every_value_kind() {
        let row = Row::new()
            .f64("t_ms", 0.5)
            .u64("n", 7)
            .str("svc", "bert-qa")
            .bool("ok", true);
        assert_eq!(
            row.to_json(),
            "{\"t_ms\":0.5,\"n\":7,\"svc\":\"bert-qa\",\"ok\":true}"
        );
        assert!(matches!(row.get("n"), Some(ArgValue::U64(7))));
        assert!(row.get("missing").is_none());
    }
}
