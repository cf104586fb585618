//! Minimal structured logging: one `key=value` line per event.
//!
//! The serve binary's operational output (startup config dump, access
//! lines, shutdown summary) is machine-parseable logfmt rather than free
//! prose: `ts=<unix_ms> component=bnff_serve event=access method=POST …`.
//! Formatting is pure (`kv_line`) so tests assert on exact strings; the
//! emitting wrapper ([`log_event`]) stamps wall-clock time and writes one
//! line to stderr (stdout stays reserved for program results).

use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Quotes a value when it contains logfmt-hostile characters.
fn format_value(v: &str) -> String {
    if !v.is_empty() && v.chars().all(|c| c.is_ascii_graphic() && c != '"' && c != '=') {
        v.to_string()
    } else {
        format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"))
    }
}

/// Formats one structured log line: `ts=<ts> component=<c> event=<e> k=v…`.
pub(crate) fn kv_line(
    ts_ms: u64,
    component: &str,
    event: &str,
    fields: &[(&str, String)],
) -> String {
    let mut line =
        format!("ts={ts_ms} component={} event={}", format_value(component), format_value(event));
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(&format_value(value));
    }
    line
}

/// Emits one structured event line to stderr, stamped with `now_ms`.
pub fn log_event(component: &str, event: &str, fields: &[(&str, String)]) {
    eprintln!("{}", kv_line(now_ms(), component, event, fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_logfmt() {
        let line = kv_line(
            1700000000000,
            "bnff_serve",
            "access",
            &[
                ("method", "POST".to_string()),
                ("path", "/v1/infer".to_string()),
                ("status", "200".to_string()),
                ("micros", "1234".to_string()),
                ("request_id", "42".to_string()),
            ],
        );
        assert_eq!(
            line,
            "ts=1700000000000 component=bnff_serve event=access method=POST \
             path=/v1/infer status=200 micros=1234 request_id=42"
        );
    }

    #[test]
    fn hostile_values_are_quoted() {
        let line = kv_line(1, "c", "e", &[("msg", "two words \"quoted\"".to_string())]);
        assert!(line.ends_with("msg=\"two words \\\"quoted\\\"\""));
        let line = kv_line(1, "c", "e", &[("empty", String::new())]);
        assert!(line.ends_with("empty=\"\""));
        let line = kv_line(1, "c", "e", &[("kv", "a=b".to_string())]);
        assert!(line.ends_with("kv=\"a=b\""));
    }

    #[test]
    fn clock_is_sane() {
        // 2020-01-01 in ms; anything modern is far past it.
        assert!(now_ms() > 1_577_836_800_000);
    }
}
