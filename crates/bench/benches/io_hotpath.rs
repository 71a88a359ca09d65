//! `.hgr` I/O throughput: parse and write of the full-size ISPD98-like
//! ibm01 and ibm10 profiles, reported in MB/s of `.hgr` text.
//!
//! Parsing is the first layer of every `hypart partition` run and of
//! every daemon upload, and it includes building the CSR hypergraph, so
//! the parse figures also cover the builder's pin deduplication (ibm10
//! has a net of several thousand pins). Before/after numbers are in
//! DESIGN.md's I/O paragraph.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hypart_benchgen::ispd98_like;
use hypart_hypergraph::io::hgr;

fn bench_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("io_hotpath");
    for index in [1, 10] {
        let h = ispd98_like(index, 1.0, 1);
        let mut text = Vec::new();
        hgr::write(&h, &mut text).expect("writing to memory cannot fail");
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(format!("parse_ibm{index:02}"), |b| {
            b.iter(|| hgr::read(black_box(&text[..])).expect("round trip parses"))
        });
        group.bench_function(format!("write_ibm{index:02}"), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(text.len());
                hgr::write(black_box(&h), &mut out).expect("writing to memory cannot fail");
                out
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_io
}
criterion_main!(benches);
