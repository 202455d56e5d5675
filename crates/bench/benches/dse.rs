//! Criterion benches of the design-space explorer: sweep throughput
//! (points/sec through the full emulator path) and streaming frontier
//! extraction on large objective clouds.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ng_dse::{Constraints, Objectives, StreamingFrontier, SweepEngine, SweepSpec};

fn bench_sweep_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse_sweep");
    let spec = SweepSpec::quick();
    group.throughput(Throughput::Elements(spec.point_count() as u64));
    group.bench_function("quick_preset", |b| {
        let engine = SweepEngine::new();
        b.iter(|| engine.run(&spec, &Constraints::NONE, false).expect("valid spec").stats)
    });
    let paper = SweepSpec::paper();
    group.throughput(Throughput::Elements(paper.point_count() as u64));
    group.sample_size(10);
    group.bench_function("paper_preset_1440pts", |b| {
        let engine = SweepEngine::new();
        b.iter(|| engine.run(&paper, &Constraints::NONE, false).expect("valid spec").stats)
    });
    group.finish();
}

fn bench_pareto_extraction(c: &mut Criterion) {
    // A synthetic cloud with a realistically small frontier: random
    // trade-off shells plus noise.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let cloud: Vec<Objectives> = (0..10_000)
        .map(|_| {
            let (a, b, n) = (next(), next(), next());
            Objectives {
                speedup: 100.0 * a * b + n,
                area_pct: 50.0 * a + n,
                power_pct: 50.0 * b + n,
            }
        })
        .collect();
    let mut group = c.benchmark_group("dse_pareto");
    group.throughput(Throughput::Elements(cloud.len() as u64));
    group.bench_function("frontier_10k_points", |b| {
        b.iter(|| {
            let mut frontier = StreamingFrontier::new();
            for &o in &cloud {
                frontier.insert(o, ());
            }
            frontier.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_throughput, bench_pareto_extraction);
criterion_main!(benches);
