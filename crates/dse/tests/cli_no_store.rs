//! End-to-end CLI check that `dse` keeps no point store: a default run
//! writes only the files it is asked for, and the removed store flags
//! are usage errors.

use std::path::Path;
use std::process::Command;

fn dse_in(cwd: &Path, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("dse runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn entries(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn default_run_writes_no_store() {
    let dir = std::env::temp_dir().join(format!("ng-dse-cli-no-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (out, err, code) = dse_in(&dir, &["--preset", "quick", "--quiet", "--csv", "a.csv"]);
    assert_eq!(code, Some(0), "default run failed:\n{out}\n{err}");
    assert_eq!(entries(&dir), vec!["a.csv"], "a default run writes only what it was asked to");

    for args in [
        vec!["--preset", "quick", "--cache-dir", "d"],
        vec!["--preset", "quick", "--cache-stats"],
        vec!["--search", "--preset", "quick", "--cache-dir", "d"],
    ] {
        let (out, err, code) = dse_in(&dir, &args);
        assert_eq!(code, Some(2), "{args:?} must exit 2:\nstdout:\n{out}\nstderr:\n{err}");
        assert!(err.contains("--cache-"), "{args:?}: the message names the flag: {err}");
    }
    assert_eq!(entries(&dir), vec!["a.csv"], "a rejected invocation writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
