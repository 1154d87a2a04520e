//! Per-layer figures timed from outside: each one times calls into one
//! layer's public functions, in this process, after the wire run. Every
//! timing is the median over several blocks of calls.

use std::hint::black_box;
use std::time::Instant;

use hc2l_oracle::{SharedOracle, WeightUpdate};
use hc2l_serve::{
    write_request, write_response, FrameDecoder, Request, Response, ServeState, UpdateOutcome,
};

use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Tracer, ROOT};

/// Blocks per timing; the median block is reported.
const BLOCKS: usize = 9;

pub type Metric = (&'static str, f64, &'static str);

/// Seeded uniform pairs.
pub fn pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect()
}

/// Times `per_block` calls of `f` (given the call index) in each of
/// [`BLOCKS`] blocks; returns the median ns per call.
fn ns_per_call(
    tracer: &mut Tracer,
    span: &'static str,
    per_block: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut per_call = Vec::with_capacity(BLOCKS);
    for b in 0..BLOCKS {
        let id = tracer.begin(span, ROOT, b as u64);
        let t = Instant::now();
        for i in 0..per_block {
            f(b * per_block + i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_block as f64);
        tracer.end(id);
    }
    median(&per_call)
}

/// `kernels.*`: the label scan through `SharedOracle`.
pub fn kernels(
    oracle: &SharedOracle,
    row_len: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let n = oracle.num_vertices();
    let per_block = 20_000;
    let ps = pairs(n, per_block * BLOCKS, seed ^ 0x6b65_726e);
    let point = ns_per_call(tracer, "kernels.point", per_block, |i| {
        let (s, t) = ps[i];
        black_box(oracle.distance(black_box(s), black_box(t)));
    });
    let rows = 40;
    let targets: Vec<u32> = pairs(n, row_len, seed ^ 0x726f_7773)
        .iter()
        .map(|p| p.1)
        .collect();
    let mut out = Vec::with_capacity(row_len);
    let row = ns_per_call(tracer, "kernels.row", rows, |i| {
        oracle.one_to_many_into(black_box(ps[i].0), black_box(&targets), &mut out);
        black_box(&out);
    }) / row_len as f64;
    let sample = &ps[..10_000];
    let hubs: usize = sample
        .iter()
        .map(|&(s, t)| oracle.distance_with_stats(s, t).1.hubs_scanned)
        .sum();
    vec![
        ("kernels.point_ns", point, "ns"),
        ("kernels.row_ns_per_distance", row, "ns"),
        (
            "kernels.hubs_per_query",
            hubs as f64 / sample.len() as f64,
            "count",
        ),
    ]
}

/// `server.*`: `ServeState`'s miss, hit and execute paths on a fresh state
/// over the same index, with the workload's cache size.
pub fn server(oracle: &SharedOracle, cache: usize, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let n = oracle.num_vertices();
    let per_block = 20_000;
    let state = ServeState::new(oracle.clone(), 1, cache);
    let fresh = pairs(n, per_block * BLOCKS * 3, seed ^ 0x6d69_7373);
    let (a, rest) = fresh.split_at(per_block * BLOCKS);
    let (b, c) = rest.split_at(per_block * BLOCKS);
    let miss = ns_per_call(tracer, "server.miss", per_block, |i| {
        black_box(state.distance(a[i].0, a[i].1));
    });
    state.set_latency_recording(false);
    let miss_norec = ns_per_call(tracer, "server.miss_norec", per_block, |i| {
        black_box(state.distance(b[i].0, b[i].1));
    });
    state.set_latency_recording(true);
    let hot = &a[..1024];
    for &(s, t) in hot {
        state.distance(s, t);
    }
    let hit = ns_per_call(tracer, "server.hit", per_block, |i| {
        let (s, t) = hot[i % hot.len()];
        black_box(state.distance(s, t));
    });
    let mut buf = Vec::new();
    let execute = ns_per_call(tracer, "server.execute", per_block, |i| {
        black_box(state.execute(&Request::Distance(c[i].0, c[i].1), &mut buf));
    });
    vec![
        ("server.miss_ns", miss, "ns"),
        ("server.miss_norec_ns", miss_norec, "ns"),
        ("server.hit_ns", hit, "ns"),
        ("server.execute_ns", execute, "ns"),
    ]
}

/// `protocol.*`: encode and decode of one request frame plus its response
/// frame, per frame kind, through the public codec.
pub fn protocol(n: usize, row_len: usize, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let ps = pairs(n, row_len.max(100), seed ^ 0x7072_6f74);
    let kinds: [(&'static str, &'static str, Request, Response); 3] = [
        (
            "protocol.encode_ns.distance",
            "protocol.decode_ns.distance",
            Request::Distance(ps[0].0, ps[0].1),
            Response::Distance(12_345),
        ),
        (
            "protocol.encode_ns.one_to_many",
            "protocol.decode_ns.one_to_many",
            Request::OneToMany {
                source: ps[0].0,
                targets: ps[..row_len].iter().map(|p| p.1).collect(),
            },
            Response::Distances((0..row_len as u64).map(|d| d * 97).collect()),
        ),
        (
            "protocol.encode_ns.update_weights",
            "protocol.decode_ns.update_weights",
            Request::UpdateWeights(
                ps[..100]
                    .iter()
                    .map(|&(u, v)| WeightUpdate::new(u, v, 77))
                    .collect(),
            ),
            Response::Updated(UpdateOutcome {
                strategy_tag: 2,
                applied: 100,
                rejected: 0,
                micros: 81_000,
                epoch: 3,
            }),
        ),
    ];
    let mut out = Vec::new();
    let per_block = 2_000;
    for (enc_name, dec_name, req, resp) in kinds {
        let mut frame = Vec::new();
        let enc = ns_per_call(tracer, "protocol.encode", per_block, |_| {
            frame.clear();
            write_request(&mut frame, black_box(&req)).expect("encode to memory");
            write_response(&mut frame, black_box(&resp)).expect("encode to memory");
        });
        let split = {
            let mut r = Vec::new();
            write_request(&mut r, &req).expect("encode to memory");
            r.len()
        };
        let dec = ns_per_call(tracer, "protocol.decode", per_block, |_| {
            let mut d = FrameDecoder::new();
            d.feed(&frame[..split]);
            black_box(d.next_request().expect("valid frame"));
            d.feed(&frame[split..]);
            black_box(d.next_response().expect("valid frame"));
        });
        out.push((enc_name, enc, "ns"));
        out.push((dec_name, dec, "ns"));
    }
    out
}
