//! # ng-bench — the benchmark harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p ng-bench --release --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_params` | Table I (application hyper-parameters) |
//! | `fig05_breakdown` | Fig. 5 (kernel-level cycle breakdown) |
//! | `fig08_ops` | Fig. 8 (op-level encoding breakdown) |
//! | `table2_utilization` | Table II (GPU utilizations) |
//! | `headline_gaps` | Section I/III performance gaps |
//! | `fig12_speedup` | Fig. 12 (end-to-end NGPC speedups + Amdahl) |
//! | `fig13_kernels` | Fig. 13 (kernel speedups + Timeloop check) |
//! | `fig14_pixels` | Fig. 14 (pixels vs FPS budgets) |
//! | `fig15_area_power` | Fig. 15 (area/power vs RTX 3090) |
//! | `table3_bandwidth` | Table III (NGPC bandwidth/access time) |
//!
//! `bench_dse` is the tracked perf harness of the `dse` pipeline: it
//! times the guided search and each preset's sweep, and reads each
//! factor table's build time (the model layers) from the `ng-obs`
//! spans of its traced runs, into `BENCH_dse.json`.

use std::fmt::Display;

/// Print `== title ==` and a fixed-width text table with a header rule
/// ([`ng_dse::report::render_table`]).
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    let heads: Vec<String> = headers.iter().map(ToString::to_string).collect();
    let heads: Vec<&str> = heads.iter().map(String::as_str).collect();
    let cells: Vec<Vec<String>> =
        rows.iter().map(|row| row.iter().map(ToString::to_string).collect()).collect();
    print!("\n== {title} ==\n{}", ng_dse::report::render_table(&heads, &cells));
}

/// Format a ratio as `12.34x`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Format a paper-vs-measured pair with relative error.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    let err = if paper != 0.0 { 100.0 * (measured - paper) / paper } else { 0.0 };
    format!("{measured:.2} (paper {paper:.2}, {err:+.1}%)")
}

/// Published reference values used across the figure binaries.
pub mod paper {
    /// Fig. 12 average speedups per encoding for NGPC-8/16/32/64.
    pub const FIG12_AVG: [(&str, [f64; 4]); 3] = [
        ("multi resolution hashgrid", [12.94, 20.85, 33.73, 39.04]),
        ("multi resolution densegrid", [9.05, 14.22, 22.57, 26.22]),
        ("low resolution densegrid", [9.37, 14.66, 22.97, 26.4]),
    ];
    /// Fig. 13 NGPC-64 kernel speedups (encoding, mlp) per encoding.
    pub const FIG13_NGPC64: [(&str, f64, f64); 3] = [
        ("multi resolution hashgrid", 246.0, 1232.0),
        ("multi resolution densegrid", 379.0, 1070.0),
        ("low resolution densegrid", 2353.0, 1451.0),
    ];
    /// Fig. 15 area/power percentages for NGPC-8/16/32/64.
    pub const FIG15_AREA_PCT: [f64; 4] = [4.52, 9.04, 18.01, 36.18];
    /// Fig. 15 power percentages.
    pub const FIG15_POWER_PCT: [f64; 4] = [2.75, 5.51, 11.03, 22.06];
    /// Section III FHD hashgrid frame times (NeRF, NSDF, GIA, NVR), ms.
    pub const FHD_MS: [f64; 4] = [231.0, 27.87, 2.12, 6.32];
    /// Section III average encoding+MLP fractions per encoding (%).
    pub const ENC_MLP_AVG_PCT: [(f64, f64); 3] = [(40.24, 32.12), (24.63, 35.37), (24.15, 35.37)];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(2.0), "2.00x");
        assert_eq!(pct(12.345), "12.35%");
        assert!(vs_paper(10.0, 10.0).contains("+0.0%"));
        assert!(vs_paper(11.0, 10.0).contains("+10.0%"));
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn paper_constants_sane() {
        assert_eq!(paper::FIG12_AVG.len(), 3);
        assert!(paper::FIG15_AREA_PCT[3] > paper::FIG15_AREA_PCT[0]);
    }
}
