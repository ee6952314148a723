//! Criterion bench: Figure 3 surface generation and one simulated anchor.

use criterion::{criterion_group, criterion_main, Criterion};
use hycap::{ModelExponents, Scenario};
use std::hint::black_box;

fn bench_surface(c: &mut Criterion) {
    c.bench_function("fig3_phase_surface_201x201", |b| {
        b.iter(|| hycap::phase_surface(black_box(0.0), 201, 201))
    });
}

fn bench_anchor(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_anchor");
    group.sample_size(10);
    group.bench_function("alpha25_k70", |b| {
        let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.7, 0.0).unwrap();
        b.iter(|| {
            Scenario::builder(exps, 256)
                .scheme_b_cells(2)
                .seed(2)
                .build()
                .measure(60)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_surface, bench_anchor);
criterion_main!(benches);
