//! End-to-end checks of `dse --map-search`: off-mode byte-identity (the
//! plain CSV never moves) and the cross-validation agreement gate.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn dse(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (stdout, out.status.success())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ng-dse-mapsearch-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn off_mode_csv_is_untouched_and_mapped_csv_only_appends_columns() {
    let dir = tmpdir("offmode");
    fs::create_dir_all(&dir).unwrap();
    let plain_csv = dir.join("plain.csv").display().to_string();
    let mapped_csv = dir.join("mapped.csv").display().to_string();

    let (out, ok) = dse(&["--preset", "quick", "--csv", &plain_csv, "--quiet"]);
    assert!(ok, "plain run failed:\n{out}");
    assert!(!out.contains("map-search:"), "no headline without --map-search:\n{out}");
    let (out, ok) = dse(&["--preset", "quick", "--csv", &mapped_csv, "--map-search", "--quiet"]);
    assert!(ok, "mapped run failed:\n{out}");

    let plain = fs::read_to_string(dir.join("plain.csv")).unwrap();
    let mapped = fs::read_to_string(dir.join("mapped.csv")).unwrap();
    assert_ne!(plain, mapped);
    for (p, m) in plain.lines().zip(mapped.lines()) {
        assert!(
            m.starts_with(p),
            "every mapped row must extend its plain row:\n plain: {p}\nmapped: {m}"
        );
        assert_eq!(m[p.len()..].split(',').count() - 1, 5, "five appended columns: {m}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn agreement_gate_passes_on_the_quick_preset() {
    let (out, ok) = dse(&["--preset", "quick", "--check-map-agreement", "--quiet"]);
    assert!(ok, "--check-map-agreement must pass inside the band:\n{out}");
    assert!(out.contains("max disagreement"), "headline printed:\n{out}");
}
