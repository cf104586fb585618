//! # bnff-bench — figure regeneration
//!
//! The `figures` binary (`src/bin/figures.rs`) regenerates every table and
//! figure of the paper from the analytical machine model at the paper's
//! scale. This library only hosts the small table-printing helpers its
//! drivers share. Every
//! *measured* number lives in the standalone `benchmark/` package at the
//! repo root (see `BENCHMARK.json`).
//!
//! ## Example
//!
//! ```rust
//! use bnff_bench::{ms, pct, print_table};
//!
//! assert_eq!(pct(0.257), "25.7%");
//! assert_eq!(ms(0.0123), "12.3 ms");
//! print_table("speedups", &["model", "bnff"], &[vec!["densenet121".into(), pct(0.24)]]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Renders rows as a fixed-width text table with the given headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats seconds as milliseconds with one decimal.
pub fn ms(value: f64) -> String {
    format!("{:.1} ms", value * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.257), "25.7%");
        assert_eq!(ms(0.0123), "12.3 ms");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
