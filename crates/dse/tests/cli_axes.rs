//! Every axis of [`ng_dse::spec::AXES`] on `dse`'s surfaces: `--help`
//! names its flag, and the flag sets that axis, and no other, in the
//! spec block `--json` writes.

use std::process::Command;

use ng_dse::spec::AXES;

/// Per axis, in `AXES` order: its key, two values as a flag's list, and
/// the JSON spec block's array of them. Numbers print with `{:?}`, so
/// the clock's `2` prints as `2.0`.
const SAMPLES: [(&str, &str, &str); 12] = [
    ("apps", "gia,nvr", r#"["gia","nvr"]"#),
    ("encodings", "lowres,densegrid", r#"["lowres","densegrid"]"#),
    ("pixels", "921600,8294400", "[921600, 8294400]"),
    ("nfp_units", "8,16", "[8, 16]"),
    ("clock_ghz", "0.5,2", "[0.5, 2.0]"),
    ("grid_sram_kb", "256,512", "[256, 512]"),
    ("grid_sram_banks", "2,4", "[2, 4]"),
    ("encoding_engines", "8,32", "[8, 32]"),
    ("mac_rows", "32,128", "[32, 128]"),
    ("mac_cols", "32,128", "[32, 128]"),
    ("lanes_per_engine", "1,2", "[1, 2]"),
    ("input_fifo_depth", "2,8", "[2, 8]"),
];

fn dse(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dse")).args(args).output().expect("dse runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {err}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// The spec block of the JSON `dse --preset quick --json` writes with
/// `flags`.
fn spec_block(flags: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("ng-dse-cli-axes-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("UTF-8 temp path");
    dse(&[&["--preset", "quick", "--quiet", "--json", path_arg][..], flags].concat());
    let json = std::fs::read_to_string(&path).expect("the JSON was written");
    std::fs::remove_file(&path).expect("the JSON is removable");
    json.lines().find(|l| l.starts_with("\"spec\":")).expect("a spec block").to_string()
}

#[test]
fn help_names_every_axis_flag() {
    let help = dse(&["--help"]);
    for axis in &AXES {
        assert!(help.contains(&format!("\n    {} LIST ", axis.flag)), "{}: {help}", axis.flag);
    }
}

#[test]
fn each_flag_sets_its_own_axis_of_the_json_spec_block() {
    let keys: Vec<&str> = AXES.iter().map(|a| a.key).collect();
    assert_eq!(keys, SAMPLES.map(|(key, ..)| key), "SAMPLES lists every axis in order");
    let quick = spec_block(&[]);
    for (axis, (key, list, array)) in AXES.iter().zip(SAMPLES) {
        // `quick`'s block with this axis's array replaced.
        let start = quick.find(&format!("\"{key}\":")).expect("the key is in the block");
        let end = start + quick[start..].find(']').expect("the array closes") + 1;
        let want = format!("{}\"{key}\":{array}{}", &quick[..start], &quick[end..]);
        assert_eq!(spec_block(&[axis.flag, list]), want, "{}", axis.flag);
    }
}
