//! Regenerates the paper's Section I/III headline numbers: FHD frame
//! times, the 4k@60 performance gaps (1.51x–55.50x), and the AR/VR power
//! gap (2–4 orders of magnitude).

use ng_bench::{paper, print_table, times, vs_paper};
use ng_gpu::gap::{ar_vr_power_gap_oom, performance_gap, RenderTarget};
use ng_gpu::{frame_time_ms, rtx3090};
use ng_neural::apps::{AppKind, EncodingKind};

fn main() {
    let hg = EncodingKind::MultiResHashGrid;
    let fhd = ng_gpu::calibrate::FHD_PIXELS;

    let rows: Vec<Vec<String>> = AppKind::ALL
        .iter()
        .zip(paper::FHD_MS)
        .map(|(&app, p)| vec![app.name().to_string(), vs_paper(frame_time_ms(app, hg, fhd), p)])
        .collect();
    print_table("FHD (1920x1080) frame time, hashgrid [ms]", &["app", "time vs paper"], &rows);

    let target = RenderTarget::UHD4K_60;
    let rows: Vec<Vec<String>> = AppKind::ALL
        .iter()
        .map(|&app| {
            let g = performance_gap(app, hg, target);
            let verdict = if g <= 1.0 { "meets target".to_string() } else { times(g) };
            vec![app.name().to_string(), verdict]
        })
        .collect();
    print_table(
        "4k @ 60 FPS performance gap (paper: 55.50x / 6.68x / meets / 1.51x)",
        &["app", "gap"],
        &rows,
    );

    let gpu = rtx3090();
    let rows: Vec<Vec<String>> = AppKind::ALL
        .iter()
        .map(|&app| {
            let oom = ar_vr_power_gap_oom(&gpu, app, hg, target, 1.0);
            vec![app.name().to_string(), format!("{oom:.1} OOM")]
        })
        .collect();
    print_table(
        "AR/VR power gap at a 1 W headset budget (paper: ~2-4 OOM)",
        &["app", "gap"],
        &rows,
    );
}
