//! Cross-crate functional equivalence: the NFP hardware model must
//! produce bit-identical results to the `ng-neural` software reference
//! for every Table I configuration, including after training.

use neural_graphics_hw::prelude::*;
use ng_neural::apps::gia::GiaModel;
use ng_neural::apps::nsdf::NsdfModel;
use ng_neural::apps::nvr::NvrModel;
use ng_neural::apps::FieldModel;
use ng_neural::data::procedural::ProceduralImage;
use ng_neural::data::sdf::SdfShape;
use ng_neural::encoding::Encoding;
use ngpc::engine::FusedNfp;
use std::sync::Arc;

/// A paper NFP configured for `field`, with its own copy of the grid.
fn nfp(field: &FieldModel) -> FusedNfp {
    let table = Arc::new(field.encoding.params().to_vec());
    FusedNfp::from_field_shared(NfpConfig::default(), field, &table).unwrap()
}

fn probe_points(dim: usize, n: usize) -> Vec<Vec<f32>> {
    let mut rng = ng_neural::math::Pcg32::new(0xE0);
    (0..n).map(|_| (0..dim).map(|_| rng.next_f32()).collect()).collect()
}

#[test]
fn nsdf_equivalence_all_encodings() {
    for enc in EncodingKind::ALL {
        let model = NsdfModel::new(enc, 31);
        let mut nfp = nfp(model.field());
        for p in probe_points(3, 25) {
            assert_eq!(
                nfp.query(&p).unwrap(),
                model.field().forward(&p).unwrap(),
                "{enc} diverged at {p:?}"
            );
        }
    }
}

#[test]
fn gia_equivalence_all_encodings() {
    for enc in EncodingKind::ALL {
        let model = GiaModel::new(enc, 17);
        let mut nfp = nfp(model.field());
        for p in probe_points(2, 25) {
            assert_eq!(nfp.query(&p).unwrap(), model.field().forward(&p).unwrap(), "{enc}");
        }
    }
}

#[test]
fn nvr_equivalence_all_encodings() {
    for enc in EncodingKind::ALL {
        let model = NvrModel::new(enc, 23);
        let mut nfp = nfp(model.field());
        for p in probe_points(3, 25) {
            assert_eq!(nfp.query(&p).unwrap(), model.field().forward(&p).unwrap(), "{enc}");
        }
    }
}

#[test]
fn equivalence_survives_training() {
    // Train a model, reconfigure the NFP with the trained tables, and
    // re-check equivalence — guards against stale-table bugs.
    let shape = SdfShape::centered_sphere(0.27);
    let mut model = NsdfModel::new(EncodingKind::MultiResDenseGrid, 9);
    let cfg = TrainConfig { steps: 30, batch_size: 256, ..TrainConfig::default() };
    Trainer::new(cfg).train_nsdf(&mut model, move |p| shape.distance(p), 0.2);
    let mut nfp = nfp(model.field());
    for p in probe_points(3, 40) {
        assert_eq!(nfp.query(&p).unwrap(), model.field().forward(&p).unwrap());
    }
}

#[test]
fn cluster_equivalence_matches_single_nfp() {
    use ngpc::cluster::Ngpc;
    let model = NsdfModel::new(EncodingKind::LowResDenseGrid, 4);
    let mut cluster = Ngpc::new(NgpcConfig::with_units(8), model.field()).unwrap();
    let mut flat = Vec::new();
    let probes = probe_points(3, 100);
    for p in &probes {
        flat.extend_from_slice(p);
    }
    let (out, _) = cluster.run_batch(&flat).unwrap();
    for (i, p) in probes.iter().enumerate() {
        assert_eq!(out[i], model.field().forward(p).unwrap()[0], "query {i}");
    }
}

#[test]
fn trained_gia_on_hardware_reconstructs_image() {
    // The full story: train in software, deploy on the modelled
    // accelerator, verify reconstruction quality through the hardware
    // path.
    let image = ProceduralImage::new(5);
    let mut model = GiaModel::new(EncodingKind::MultiResHashGrid, 77);
    let cfg = TrainConfig { steps: 120, batch_size: 1024, ..TrainConfig::default() };
    Trainer::new(cfg).train_gia(&mut model, &image);
    let mut nfp = nfp(model.field());
    let mut err = 0.0f64;
    let n = 24;
    for i in 0..n {
        for j in 0..n {
            let (u, v) = ((i as f32 + 0.5) / n as f32, (j as f32 + 0.5) / n as f32);
            let mut raw = nfp.query(&[u, v]).unwrap();
            model.decode().apply(&mut raw);
            let truth = image.color_at(u, v);
            err += ((raw[0] - truth.x).powi(2)
                + (raw[1] - truth.y).powi(2)
                + (raw[2] - truth.z).powi(2)) as f64;
        }
    }
    let mse = err / (3 * n * n) as f64;
    let psnr = 10.0 * (1.0 / mse).log10();
    assert!(psnr > 20.0, "hardware-path reconstruction PSNR {psnr:.1} dB");
}
