//! Drive the functional NFP hardware model directly: configure a fused
//! NFP for a trained NSDF, validate bit-exactness against the software
//! reference, record the Fig. 10-c command stream, and show what fusion
//! and batch overlap buy.
//!
//! Run with: `cargo run --release --example accelerator_pipeline`

use neural_graphics_hw::prelude::*;
use ng_neural::apps::nsdf::NsdfModel;
use ng_neural::data::sdf::SdfShape;
use ng_neural::encoding::Encoding;
use ngpc::cluster::Ngpc;
use ngpc::engine::FusedNfp;
use ngpc::sched::{frame_stream, overlapped_makespan_ms, serial_makespan_ms};

fn main() {
    // A lightly trained model (the hardware doesn't care how good it is).
    let shape = SdfShape::centered_sphere(0.3);
    let mut model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 3);
    let cfg = TrainConfig { steps: 50, batch_size: 512, ..TrainConfig::default() };
    Trainer::new(cfg).train_nsdf(&mut model, move |p| shape.distance(p), 0.25);

    // 1. One fused NFP: functional equivalence.
    let table = std::sync::Arc::new(model.field().encoding.params().to_vec());
    let mut nfp = FusedNfp::from_field_shared(NfpConfig::default(), model.field(), &table)
        .expect("configures");
    let probe = [0.41f32, 0.52, 0.63];
    let hw = nfp.query(&probe).expect("query");
    let sw = model.field().forward(&probe).expect("query");
    assert_eq!(hw, sw);
    println!("NFP output == software reference (bit-exact): {:?}", hw);

    // 2. A batch through an 8-NFP cluster.
    let mut queries = Vec::new();
    for i in 0..4096 {
        let t = i as f32 / 4096.0;
        queries.extend_from_slice(&[t, (t * 7.0).fract(), (t * 13.0).fract()]);
    }
    let mut cluster = Ngpc::new(NgpcConfig::with_units(8), model.field()).expect("builds");
    let (_, stats) = cluster.run_batch(&queries).expect("runs");
    println!(
        "cluster batch: {} queries, makespan {} cycles, {} KiB of DRAM traffic avoided by fusion",
        stats.queries,
        stats.makespan_cycles,
        stats.dram_bytes_saved / 1024
    );

    // 3. The programming model: record and validate a frame's commands.
    let table_bytes = model.field().encoding.footprint_bytes(2) as u64;
    let stream = frame_stream(
        AppKind::Nsdf,
        EncodingKind::MultiResDenseGrid,
        table_bytes,
        2_073_600 * 6, // FHD x 6 sphere-trace steps
        32,
    );
    stream.validate().expect("well-formed command stream");
    println!(
        "command stream: {} commands, {} queries dispatched",
        stream.commands().len(),
        stream.dispatched_queries()
    );

    // 4. Batch overlap (Fig. 10-b): NGPC stage vs fused-GPU stage.
    let (ngpc_ms, gpu_ms, batches) = (0.9f64, 0.7f64, 32);
    println!(
        "overlap: serial {:.1} ms vs pipelined {:.1} ms over {batches} batches",
        serial_makespan_ms(batches, ngpc_ms, gpu_ms),
        overlapped_makespan_ms(batches, ngpc_ms, gpu_ms),
    );

    // 5. Fusion ablation on the engine cycle model.
    let fused = nfp.batch_time_ns(100_000);
    let unfused = nfp.batch_time_unfused_ns(100_000, 936.2);
    println!(
        "fusion ablation (100k queries): fused {:.1} us vs unfused {:.1} us ({:.2}x)",
        fused / 1e3,
        unfused / 1e3,
        unfused / fused
    );
}
