//! Ablation studies over the NFP design choices the paper fixes:
//!
//! 1. **Grid SRAM capacity** — the paper sizes it at 1 MB so (most of) a
//!    level's table is resident; smaller SRAMs stream in multiple passes.
//! 2. **SRAM banking** — 2^d banks serve all corners of a cell per cycle;
//!    fewer banks serialise the corner burst.
//! 3. **Engine fusion** — the encoding -> MLP round trip through DRAM
//!    that fusion removes.
//! 4. **MAC array geometry** — 64x64 exactly fits the 64-wide Table I
//!    layers; smaller arrays tile, larger ones idle.
//! 5. **Batch overlap** — the Fig. 10-b pipelining of NGPC work against
//!    the GPU's fused rest-kernels.

use ng_bench::print_table;
use ng_neural::apps::nsdf::NsdfModel;
use ng_neural::apps::EncodingKind;
use ng_neural::encoding::Encoding;
use ng_timeloop::arch::PeArray;
use ng_timeloop::energy::EnergyTable;
use ng_timeloop::evaluate_mlp;
use ngpc::engine::FusedNfp;
use ngpc::sched::{overlapped_makespan_ms, serial_makespan_ms};
use ngpc::NfpConfig;

const BATCH: u64 = 100_000;

fn sram_capacity_ablation() {
    // The dense 3D grid's finest levels are the largest tables.
    let model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 5);
    let table = std::sync::Arc::new(model.field().encoding.params().to_vec());
    let mut rows = Vec::new();
    for kb in [128usize, 256, 512, 1024, 2048, 4096] {
        let cfg = NfpConfig { grid_sram_bytes: kb * 1024, ..NfpConfig::default() };
        let nfp = FusedNfp::from_field_shared(cfg, model.field(), &table).expect("configures");
        rows.push(vec![format!("{kb} KiB"), format!("{:.0} us", nfp.batch_time_ns(BATCH) / 1e3)]);
    }
    print_table(
        "ablation 1: grid SRAM capacity (NSDF densegrid, 100k queries)",
        &["SRAM per engine", "batch latency"],
        &rows,
    );
}

fn banking_ablation() {
    // Measure the per-query corner-burst cost directly on one engine:
    // eight 3D-cell corners hit one bank 8x when unbanked, but spread
    // across 2^d banks when fully banked.
    use ngpc::engine::EncodingEngine;
    let model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 5);
    let grid = &model.field().encoding;
    let table = std::sync::Arc::new(grid.params().to_vec());
    let mut rows = Vec::new();
    let queries = 512;
    for banks in [1u32, 2, 4, 8, 16] {
        let mut engine = EncodingEngine::new(NfpConfig::PAPER.grid_sram_bytes, banks);
        engine.configure_shared(grid, &table, 3).expect("configures");
        let mut out = vec![0.0f32; 2];
        for i in 0..queries {
            let t = i as f32 / queries as f32;
            engine
                .encode_into(&[t, (t * 3.31).fract(), (t * 7.77).fract()], &mut out)
                .expect("encodes");
        }
        rows.push(vec![
            format!("{banks}"),
            format!("{:.2}", engine.busy_cycles() as f64 / queries as f64),
            format!("{}", engine.sram_stats().bank_conflict_cycles),
        ]);
    }
    print_table(
        "ablation 2: grid SRAM banks (512 queries, 8 corners per 3D cell)",
        &["banks", "cycles/query", "total conflict cycles"],
        &rows,
    );
}

fn fusion_ablation() {
    let mut rows = Vec::new();
    for enc in EncodingKind::ALL {
        let model = NsdfModel::new(enc, 5);
        let table = std::sync::Arc::new(model.field().encoding.params().to_vec());
        let nfp = FusedNfp::from_field_shared(NfpConfig::default(), model.field(), &table)
            .expect("configures");
        let fused = nfp.batch_time_ns(BATCH);
        let unfused = nfp.batch_time_unfused_ns(BATCH, 936.2);
        rows.push(vec![
            enc.abbrev().to_string(),
            format!("{:.0} us", fused / 1e3),
            format!("{:.0} us", unfused / 1e3),
            format!("{:.2}x", unfused / fused),
        ]);
    }
    print_table(
        "ablation 3: engine fusion (100k queries)",
        &["encoding", "fused", "unfused (+DRAM round trip)", "gain"],
        &rows,
    );
}

fn mac_array_ablation() {
    // Timeloop-lite view: cycles for the NSDF MLP over a batch on
    // different array geometries.
    let mut rows = Vec::new();
    for (r, c) in [(16u32, 16u32), (32, 32), (64, 64), (128, 128)] {
        let arch = PeArray { rows: r, cols: c, ..PeArray::nfp_mlp_engine() };
        let eval = evaluate_mlp(&arch, &EnergyTable::default(), BATCH, 32, 64, 4, 1);
        let util = eval.macs as f64 / (eval.cycles as f64 * arch.pes() as f64);
        rows.push(vec![
            format!("{r}x{c}"),
            format!("{}", eval.cycles),
            format!("{:.1}%", 100.0 * util),
            format!("{:.1} uJ", eval.energy_uj),
        ]);
    }
    print_table(
        "ablation 4: MAC array geometry (NSDF MLP, 100k queries)",
        &["array", "cycles", "PE utilization", "energy"],
        &rows,
    );
    println!(
        "64x64 is the knee: smaller arrays multiply cycles, larger ones\n\
         idle on 64-wide layers — the paper's sizing."
    );
}

fn overlap_ablation() {
    let mut rows = Vec::new();
    for batches in [1u64, 4, 16, 64] {
        let (ngpc_ms, rest_ms) = (0.9f64, 0.7f64);
        let serial = serial_makespan_ms(batches, ngpc_ms, rest_ms);
        let over = overlapped_makespan_ms(batches, ngpc_ms, rest_ms);
        rows.push(vec![
            format!("{batches}"),
            format!("{serial:.2} ms"),
            format!("{over:.2} ms"),
            format!("{:.2}x", serial / over),
        ]);
    }
    print_table(
        "ablation 5: batch overlap (Fig. 10-b; stages 0.9 / 0.7 ms)",
        &["batches", "serial", "overlapped", "gain"],
        &rows,
    );
}

fn main() {
    sram_capacity_ablation();
    banking_ablation();
    fusion_ablation();
    mac_array_ablation();
    overlap_ablation();
}
