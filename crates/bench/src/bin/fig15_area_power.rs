//! Regenerates paper Fig. 15: NGPC area and power normalized to the
//! RTX 3090, for scaling factors 8/16/32/64, with the per-component
//! 45 nm budgets behind them.

use ng_bench::{paper, print_table, vs_paper};
use ng_hw::ngpc_area_power;
use ngpc::NgpcConfig;

fn main() {
    let rows: Vec<Vec<String>> = NgpcConfig::SCALING_FACTORS
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let r = ngpc_area_power(n);
            vec![
                format!("NGPC-{n}"),
                vs_paper(r.area_pct_of_gpu, paper::FIG15_AREA_PCT[i]),
                vs_paper(r.power_pct_of_gpu, paper::FIG15_POWER_PCT[i]),
            ]
        })
        .collect();
    print_table(
        "Fig. 15: NGPC vs RTX 3090 (7 nm scaled)",
        &["config", "area % of die", "power % of TDP"],
        &rows,
    );

    let r = ngpc_area_power(8);
    print_table(
        "one NFP at 45 nm (component budgets)",
        &["component", "area mm^2", "power W"],
        &[
            vec![
                "grid SRAMs (16 x 1 MB)".to_string(),
                format!("{:.2}", r.nfp.grid_srams.area_mm2_45),
                format!("{:.2}", r.nfp.grid_srams.watts_45),
            ],
            vec![
                "MLP engine (64x64 MACs + SRAMs)".to_string(),
                format!("{:.2}", r.nfp.mlp_engine.area_mm2_45),
                format!("{:.2}", r.nfp.mlp_engine.watts_45),
            ],
            vec![
                "encoding datapaths (16 engines)".to_string(),
                format!("{:.2}", r.nfp.encoding_logic.area_mm2_45),
                format!("{:.2}", r.nfp.encoding_logic.watts_45),
            ],
            vec![
                "NFP total (w/ integration overhead)".to_string(),
                format!("{:.2}", r.nfp.area_mm2_45),
                format!("{:.2}", r.nfp.watts_45),
            ],
            vec![
                "NFP total at 7 nm".to_string(),
                format!("{:.2}", r.nfp.area_mm2_7),
                format!("{:.2}", r.nfp.watts_7),
            ],
        ],
    );
}
