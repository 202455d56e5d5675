//! Compact terminal reporting for sweeps. The report writers take any
//! [`Write`] and return its errors, so `dse` can stop quietly when the
//! reader of its stdout goes away.

use std::io::{self, Write};

use crate::pareto::Constraints;
use crate::spec::{encoding_slug, DesignPoint, SweepSpec, AXES};
use crate::sweep::{
    apps_in_report_order, arch_frontier, ArchPoint, EvaluatedPoint, Frontiers, SweepOutcome,
    SweepStats,
};

/// Render a fixed-width table: header row, rule, data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(widths.len()) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = String::new();
    out.push_str(&line(&head));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// A frontier-table row: the design's cells (config .. lanes/fifo),
/// then its speedup, area and power.
fn design_row(d: &DesignPoint, speedup: f64, area_pct: f64, power_pct: f64) -> Vec<String> {
    vec![
        format!("NGPC-{}", d.nfp_units),
        encoding_slug(d.encoding).to_string(),
        format!("{:.2}", d.clock_ghz),
        format!("{}K/{}", d.grid_sram_kb, d.grid_sram_banks),
        format!("{}x{}/{}e", d.mac_rows, d.mac_cols, d.encoding_engines),
        format!("{}l/{}f", d.lanes_per_engine, d.input_fifo_depth),
        format!("{speedup:.2}x"),
        format!("{area_pct:.2}%"),
        format!("{power_pct:.2}%"),
    ]
}

fn arch_row(a: &ArchPoint) -> Vec<String> {
    design_row(&a.point(), a.avg_speedup, a.area_pct_of_gpu, a.power_pct_of_gpu)
}

const ARCH_HEADERS: [&str; 9] = [
    "config",
    "encoding",
    "GHz",
    "sram/banks",
    "macs/eng",
    "lanes/fifo",
    "avg x",
    "area %",
    "power %",
];

/// The cross-app-average frontier as a table (top `limit` rows by
/// ascending area).
pub fn frontier_table(frontier: &[ArchPoint], limit: usize) -> String {
    let rows: Vec<Vec<String>> = frontier.iter().take(limit).map(arch_row).collect();
    let mut out = render_table(&ARCH_HEADERS, &rows);
    if frontier.len() > limit {
        out.push_str(&format!("... {} more frontier points\n", frontier.len() - limit));
    }
    out
}

fn point_row(p: &EvaluatedPoint) -> Vec<String> {
    let mut row = design_row(&p.point, p.speedup, p.area_pct_of_gpu, p.power_pct_of_gpu);
    row.push(if p.plateaued { "yes" } else { "no" }.to_string());
    row
}

const POINT_HEADERS: [&str; 10] = [
    "config",
    "encoding",
    "GHz",
    "sram/banks",
    "macs/eng",
    "lanes/fifo",
    "speedup",
    "area %",
    "power %",
    "plateau",
];

/// One app's frontier as a table.
pub fn per_app_table(points: &[EvaluatedPoint], limit: usize) -> String {
    let rows: Vec<Vec<String>> = points.iter().take(limit).map(point_row).collect();
    let mut out = render_table(&POINT_HEADERS, &rows);
    if points.len() > limit {
        out.push_str(&format!("... {} more frontier points\n", points.len() - limit));
    }
    out
}

/// Describe configured constraints, or "none".
pub fn describe_constraints(c: &Constraints) -> String {
    if !c.is_constrained() {
        return "none".to_string();
    }
    let mut parts = Vec::new();
    if let Some(b) = c.max_area_pct {
        parts.push(format!("area ≤ {b}%"));
    }
    if let Some(b) = c.max_power_pct {
        parts.push(format!("power ≤ {b}%"));
    }
    if let Some(b) = c.min_speedup {
        parts.push(format!("speedup ≥ {b}x"));
    }
    parts.join(", ")
}

/// The full terminal report of a sweep: spec/run summary (with the
/// spec's constraints), the cross-app frontier, and each per-app
/// frontier in `frontiers`.
pub fn write_report(
    out: &mut impl Write,
    spec: &SweepSpec,
    stats: &SweepStats,
    frontiers: &Frontiers,
    top: usize,
) -> io::Result<()> {
    let axes: Vec<String> =
        AXES.iter().map(|a| format!("{} {}", a.field.len(spec), a.label)).collect();
    writeln!(out, "sweep `{}`: {} points ({})", spec.name, stats.total_points, axes.join(" x "))?;
    writeln!(
        out,
        "evaluation: {} points on {} threads in {:.1} ms ({:.0} points/sec)",
        stats.evaluated,
        stats.threads,
        stats.wall.as_secs_f64() * 1e3,
        stats.points_per_sec(),
    )?;
    writeln!(out, "constraints: {}", describe_constraints(&spec.constraints))?;
    writeln!(
        out,
        "\ncross-app-average Pareto frontier ({} of {} architectures):",
        frontiers.cross_app.len(),
        frontiers.archs,
    )?;
    write!(out, "{}", frontier_table(&frontiers.cross_app, top))?;
    for (app, f) in &frontiers.per_app {
        writeln!(out, "\n{app} Pareto frontier ({} points):", f.len())?;
        write!(out, "{}", per_app_table(f, top))?;
    }
    Ok(())
}

/// [`write_report`] of a held outcome to stdout, folding it first under
/// `constraints` (which the reported spec carries in place of its own),
/// and the constrained cross-app frontier it printed. Kept only for the
/// benchmark's replay (see [`SweepOutcome`]).
///
/// # Panics
///
/// If stdout cannot be written, as `println!` does.
pub fn print_report(
    outcome: &SweepOutcome,
    constraints: &Constraints,
    top: usize,
    per_app: bool,
) -> Vec<ArchPoint> {
    let archs = outcome.cross_app();
    let per_app = if per_app {
        apps_in_report_order(&outcome.spec)
            .map(|(app, _)| (app, outcome.per_app_frontier(app, constraints)))
            .collect()
    } else {
        Vec::new()
    };
    let frontiers =
        Frontiers { archs: archs.len(), cross_app: arch_frontier(&archs, constraints), per_app };
    let spec = SweepSpec { constraints: *constraints, ..outcome.spec.clone() };
    write_report(&mut io::stdout().lock(), &spec, &outcome.stats, &frontiers, top)
        .expect("failed printing to stdout");
    frontiers.cross_app
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepEngine;

    fn quick_frontier() -> Vec<ArchPoint> {
        let spec = SweepSpec::quick();
        SweepEngine::new().run(&spec, false).unwrap().frontiers.cross_app
    }

    #[test]
    fn tables_render_aligned() {
        let frontier = quick_frontier();
        let table = frontier_table(&frontier, 10);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 3, "header, rule, at least one row");
        assert_eq!(lines[0].len(), lines[2].len(), "fixed-width rows");
        assert!(lines[0].contains("avg x"));
    }

    #[test]
    fn truncation_is_reported() {
        let frontier = quick_frontier();
        assert!(frontier.len() > 1);
        let table = frontier_table(&frontier, 1);
        assert!(table.contains("more frontier points"));
    }

    #[test]
    fn constraints_description() {
        assert_eq!(describe_constraints(&Constraints::NONE), "none");
        let c =
            Constraints { max_area_pct: Some(3.0), max_power_pct: Some(5.0), min_speedup: None };
        assert_eq!(describe_constraints(&c), "area ≤ 3%, power ≤ 5%");
    }
}
