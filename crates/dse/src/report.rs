//! Compact terminal reporting for sweep outcomes.

use ng_neural::apps::AppKind;

use crate::pareto::Constraints;
use crate::spec::encoding_slug;
use crate::sweep::{arch_frontier, ArchPoint, EvaluatedPoint, SweepOutcome};

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

fn arch_row(a: &ArchPoint) -> Vec<String> {
    vec![
        format!("NGPC-{}", a.nfp_units),
        encoding_slug(a.encoding).to_string(),
        format!("{:.2}", a.clock_ghz),
        format!("{}K/{}", a.grid_sram_kb, a.grid_sram_banks),
        format!("{}x{}/{}e", a.mac_rows, a.mac_cols, a.encoding_engines),
        format!("{}l/{}f", a.lanes_per_engine, a.input_fifo_depth),
        format!("{:.2}x", a.avg_speedup),
        format!("{:.2}%", a.area_pct_of_gpu),
        format!("{:.2}%", a.power_pct_of_gpu),
    ]
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
    let d = &p.point;
    vec![
        format!("NGPC-{}", d.nfp_units),
        encoding_slug(d.encoding).to_string(),
        format!("{:.2}", d.clock_ghz),
        format!("{}K/{}", d.grid_sram_kb, d.grid_sram_banks),
        format!("{}x{}/{}e", d.mac_rows, d.mac_cols, d.encoding_engines),
        format!("{}l/{}f", d.lanes_per_engine, d.input_fifo_depth),
        format!("{:.2}x", p.speedup),
        format!("{:.2}%", p.area_pct_of_gpu),
        format!("{:.2}%", p.power_pct_of_gpu),
        if p.plateaued { "yes".to_string() } else { "no".to_string() },
    ]
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

/// The terminal report of a guided search: space/budget summary and the
/// recovered frontier (filtered through `constraints`).
pub fn print_search_report(
    outcome: &crate::search::SearchOutcome,
    constraints: &Constraints,
    top: usize,
) {
    let stats = &outcome.stats;
    println!(
        "guided search `{}` ({}): {} of {} points evaluated ({:.2}% of the space, budget {}){}",
        outcome.spec.name,
        outcome.search.strategy.slug(),
        stats.evaluations,
        stats.space_points,
        100.0 * stats.budget_fraction_used(),
        stats.budget,
        if stats.exhaustive { " — budget covers the space: exhaustive scan" } else { "" },
    );
    println!(
        "visited {} of {} architectures in {} round(s), {:.1} ms",
        stats.archs_visited,
        stats.space_archs,
        stats.rounds,
        stats.wall.as_secs_f64() * 1e3,
    );
    println!("constraints: {}", describe_constraints(constraints));
    let shown: Vec<ArchPoint> =
        outcome.frontier.iter().filter(|a| constraints.admits(&a.objectives())).copied().collect();
    println!("\nrecovered cross-app Pareto frontier ({} architectures):", shown.len());
    print!("{}", frontier_table(&shown, top));
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

/// The full terminal report: spec/run summary, cross-app frontier, and
/// (optionally) per-app frontiers. Folds the outcome once and returns
/// the constrained cross-app frontier it printed, for callers to reuse.
pub fn print_report(
    outcome: &SweepOutcome,
    constraints: &Constraints,
    top: usize,
    per_app: bool,
) -> Vec<ArchPoint> {
    let spec = &outcome.spec;
    let stats = &outcome.stats;
    println!(
        "sweep `{}`: {} points ({} apps x {} encodings x {} resolutions x {} nfp x {} clocks x {} srams x {} banks x {} engines x {} mac-rows x {} mac-cols x {} lanes x {} fifos)",
        spec.name,
        stats.total_points,
        spec.apps.len(),
        spec.encodings.len(),
        spec.pixels.len(),
        spec.nfp_units.len(),
        spec.clock_ghz.len(),
        spec.grid_sram_kb.len(),
        spec.grid_sram_banks.len(),
        spec.encoding_engines.len(),
        spec.mac_rows.len(),
        spec.mac_cols.len(),
        spec.lanes_per_engine.len(),
        spec.input_fifo_depth.len(),
    );
    println!(
        "evaluation: {} points on {} threads in {:.1} ms ({:.0} points/sec)",
        stats.evaluated,
        stats.threads,
        stats.wall.as_secs_f64() * 1e3,
        stats.points_per_sec(),
    );
    println!("constraints: {}", describe_constraints(constraints));

    let archs = outcome.cross_app();
    let frontier = arch_frontier(&archs, constraints);
    println!(
        "\ncross-app-average Pareto frontier ({} of {} architectures):",
        frontier.len(),
        archs.len(),
    );
    print!("{}", frontier_table(&frontier, top));

    if per_app {
        for app in AppKind::ALL {
            if !spec.apps.contains(&app) {
                continue;
            }
            let f = outcome.per_app_frontier(app, constraints);
            println!("\n{app} Pareto frontier ({} points):", f.len());
            print!("{}", per_app_table(&f, top));
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    #[test]
    fn tables_render_aligned() {
        let outcome = SweepEngine::new().run(&SweepSpec::quick()).unwrap();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
        let table = frontier_table(&frontier, 10);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 3, "header, rule, at least one row");
        assert_eq!(lines[0].len(), lines[2].len(), "fixed-width rows");
        assert!(lines[0].contains("avg x"));
    }

    #[test]
    fn truncation_is_reported() {
        let outcome = SweepEngine::new().run(&SweepSpec::quick()).unwrap();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
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
