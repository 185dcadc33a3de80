//! Wall-clock benchmark of the live whale-dsps runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path livebench/Cargo.toml -- \
//!     --workload bcast_direct --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each round runs a closed-loop `sat` phase (throughput) and an
//! open-loop `paced` phase (latency from each tuple's due time) through
//! `whale_dsps::run_topology`, and checks every sink delivery. The last
//! stdout line is the result object; the line before it carries
//! provenance and the ungated detail. `--trace 1` instead reports the
//! per-layer metrics and writes the recorded spans to
//! `livebench/out/trace-<workload>-seed<seed>.json`. See
//! `livebench/README.md` for the workloads and the metric map.

mod harness;
mod layers;
mod ops;
mod probe;
mod workload;

use harness::{run_phase, Phase, PhaseResult, Tally};
use layers::LayerTimes;
use probe::peak_rss_mb;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use whale_sim::stats::{mean, percentile};
use whale_sim::JsonValue as Json;
use workload::Workload;

/// Source tuples per closed-loop (`sat`) phase.
const SAT_TUPLES: usize = 60_000;
/// Source tuples per open-loop (`paced`) phase.
const PACED_TUPLES: usize = 15_000;
/// The open-loop schedule, in source tuples per second: below half of
/// the slowest workload's saturated rate.
const PACED_RATE: f64 = 50_000.0;
/// Rounds measured even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;
/// `latency_p50_us` is this percentile, over rounds, of each `paced`
/// round's p50. Interference from other tenants of a shared host only
/// ever adds latency, and it comes in episodes that can cover most of a
/// run, doubling the median round; the quieter rounds still move with
/// any change to the program, since a slower path slows every round.
const LATENCY_ROUND_PERCENTILE: f64 = 10.0;

/// A JSON object from `(key, value)` pairs, in order.
fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn floats(v: &[f64]) -> Json {
    Json::Array(v.iter().map(|&x| Json::Float(x)).collect())
}

fn f64s(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The same seed always yields the same `sat` and `paced` inputs: one
/// generator, the first [`SAT_TUPLES`] records then the next
/// [`PACED_TUPLES`], each phase numbered from id 0.
fn phases(w: Workload, seed: u64) -> (Phase, Phase) {
    let mut all = w.generate(seed, SAT_TUPLES + PACED_TUPLES);
    let mut paced = all.split_off(SAT_TUPLES);
    for (i, t) in paced.iter_mut().enumerate() {
        t.id = i as u64;
    }
    (
        Phase::new(w, all, None),
        Phase::new(w, paced, Some(PACED_RATE)),
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &Args) -> Json {
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let config = a.workload.config();
    obj([
        ("workload", Json::str(a.workload.name())),
        ("seed", Json::UInt(a.seed)),
        ("seconds", Json::UInt(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("commit", Json::str(commit)),
        ("sat_tuples", Json::UInt(SAT_TUPLES as u64)),
        ("paced_tuples", Json::UInt(PACED_TUPLES as u64)),
        ("paced_rate_tps", Json::Float(PACED_RATE)),
        ("machines", Json::UInt(workload::MACHINES as u64)),
        ("sinks", Json::UInt(workload::SINKS as u64)),
        ("fabric", Json::str(a.workload.fabric_name())),
        ("shards", Json::UInt(config.shards as u64)),
        (
            "d_star",
            config
                .multicast_d_star
                .map_or(Json::Null, |d| Json::UInt(d as u64)),
        ),
        ("acker", Json::Bool(config.ack.is_some())),
        ("log", Json::Bool(config.log.is_some())),
    ])
}

fn tally_json(t: &Tally) -> Json {
    obj([
        ("expected", Json::UInt(t.expected)),
        ("missing", Json::UInt(t.missing)),
        ("duplicate", Json::UInt(t.duplicate)),
        ("misrouted", Json::UInt(t.misrouted)),
        ("tuples_failed", Json::UInt(t.tuples_failed)),
        ("accounting", Json::UInt(t.accounting)),
        ("unclean_expected", Json::UInt(t.unclean_expected)),
        ("failed_frac", Json::Float(failed_frac(t))),
    ])
}

fn failed_frac(t: &Tally) -> f64 {
    t.failed() as f64 / t.expected.max(1) as f64
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
    )
}

/// Print the detail line and the result line; the exit code reports the
/// correctness gate.
fn finish(detail: Json, tally: &Tally, metrics: Vec<(String, Json)>) -> ExitCode {
    let correct = tally.failed() == 0;
    println!("{}", detail.to_json_string());
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(tally.expected.max(1))),
        ("failed", Json::UInt(tally.failed())),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", result.to_json_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate failed: {tally:?}");
        ExitCode::FAILURE
    }
}

/// Run measured rounds of `round` until `seconds` have passed (and at
/// least [`MIN_ROUNDS`]).
fn rounds<T>(seconds: u64, mut round: impl FnMut() -> T) -> Vec<T> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || Instant::now() < deadline {
        out.push(round());
    }
    out
}

fn p50_us(r: &PhaseResult) -> f64 {
    percentile(&f64s(&r.latency_ns), 50.0) / 1e3
}

fn p99_us(ns: &[u64]) -> f64 {
    percentile(&f64s(ns), 99.0) / 1e3
}

/// The untraced run: the end-to-end metrics.
fn untraced(a: &Args) -> ExitCode {
    let w = a.workload;
    let (sat, paced) = phases(w, a.seed);
    let mut tally = Tally::default();
    // Warm-up: checked, not measured.
    tally.add(&run_phase(w, &sat, false).tally);
    let measured = rounds(a.seconds, || {
        (run_phase(w, &sat, false), run_phase(w, &paced, false))
    });
    let (baseline_tps, baseline_tally) = layers::baseline(w, &sat);
    tally.add(&baseline_tally);

    let mut tps = Vec::new();
    let mut p50 = Vec::new();
    let mut setups = Vec::new();
    let mut teardown_ms = Vec::new();
    let mut latency = Vec::new();
    let mut lag = Vec::new();
    for (s, p) in &measured {
        tally.add(&s.tally);
        tally.add(&p.tally);
        tps.push(s.throughput(SAT_TUPLES));
        p50.push(p50_us(p));
        setups.extend([s.setup_s, p.setup_s]);
        teardown_ms.push(s.teardown_s * 1e3);
        latency.extend_from_slice(&p.latency_ns);
        lag.extend_from_slice(&p.lag_ns);
    }
    let detail = obj([
        ("provenance", provenance(a)),
        ("rounds", Json::UInt(measured.len() as u64)),
        ("throughput_tps_rounds", floats(&tps)),
        ("baseline.single_thread_tps", Json::Float(baseline_tps)),
        ("latency_p50_us_rounds", floats(&p50)),
        ("latency_p99_us", Json::Float(p99_us(&latency))),
        ("latency_samples", Json::UInt(latency.len() as u64)),
        ("gen.lag_p99_us", Json::Float(p99_us(&lag))),
        ("setup_s_samples", floats(&setups)),
        ("runtime.teardown_ms", Json::Float(median(&teardown_ms))),
        ("gate", tally_json(&tally)),
    ]);
    let metrics = vec![
        metric("throughput_tps", median(&tps), "1/s"),
        metric(
            "latency_p50_us",
            percentile(&p50, LATENCY_ROUND_PERCENTILE),
            "us",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("delivered_frac", 1.0 - failed_frac(&tally), "frac"),
    ];
    finish(detail, &tally, metrics)
}

/// Per-tuple layer costs summed over everything one source tuple pays,
/// in ns: the numerator of `trace.layer_sum_ratio`.
fn layer_sum_ns(t: &LayerTimes, traced: &PhaseResult, pull_ns: f64, exec_ns: f64) -> f64 {
    let r = &traced.report;
    let per = |x: u64| x as f64 / r.spout_emitted.max(1) as f64;
    let deliveries: u64 = traced.per_instance.iter().sum();
    let relay_forward = mean(&f64s(&r.relay_forward_ns));
    let routed = if r.relay_d_star > 0 { 0.0 } else { t.route_ns };
    // Eager sinks materialize inside their own execute span; lazy sinks
    // leave the view parse of each received frame outside it.
    let decode = if r.tuples_materialized > 0 {
        0.0
    } else {
        t.view_key_ns * per(r.fabric_messages)
    };
    let acked = if r.tuples_acked > 0 {
        t.init_ack_ns
    } else {
        0.0
    };
    pull_ns
        + routed
        + (t.encode_ns + t.acquire_share_ns) * per(r.frames_encoded)
        + t.send_ns * per(r.fabric_messages)
        + decode
        + exec_ns * per(deliveries)
        + relay_forward * per(r.relay_forwards)
        + acked
        + t.append_ns * per(r.log_appended_records)
}

fn span_summary(spans: &[u64]) -> Json {
    let s = f64s(spans);
    let step = (s.len() / 4096).max(1);
    obj([
        ("count", Json::UInt(s.len() as u64)),
        ("mean_ns", Json::Float(mean(&s))),
        ("p50_ns", Json::Float(percentile(&s, 50.0))),
        ("p90_ns", Json::Float(percentile(&s, 90.0))),
        ("p99_ns", Json::Float(percentile(&s, 99.0))),
        ("max_ns", Json::Float(percentile(&s, 100.0))),
        (
            "sample_ns",
            Json::Array(spans.iter().step_by(step).map(|&x| Json::UInt(x)).collect()),
        ),
    ])
}

/// The traced run: the per-layer metrics.
fn traced(a: &Args) -> ExitCode {
    let w = a.workload;
    let (sat, paced) = phases(w, a.seed);
    let times = layers::time_layers(w, &sat.tuples);
    let mut baseline = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..3 {
        let (tps, t) = layers::baseline(w, &sat);
        baseline.push(tps);
        tally.add(&t);
    }
    tally.add(&run_phase(w, &sat, false).tally);
    let measured = rounds(a.seconds, || {
        (
            run_phase(w, &sat, false),
            run_phase(w, &sat, true),
            run_phase(w, &paced, true),
        )
    });

    let mut untraced_tps = Vec::new();
    let mut traced_tps = Vec::new();
    let mut cpu_us = Vec::new();
    let mut teardown_ms = Vec::new();
    let mut lag_p99 = Vec::new();
    let mut skew = Vec::new();
    let mut pull = Vec::new();
    let mut exec = Vec::new();
    let mut forward_p50 = Vec::new();
    let mut hit_rate = Vec::new();
    let (mut pull_spans, mut exec_spans) = (Vec::new(), Vec::new());
    for (u, t, p) in &measured {
        for r in [u, t, p] {
            tally.add(&r.tally);
        }
        untraced_tps.push(u.throughput(SAT_TUPLES));
        traced_tps.push(t.throughput(SAT_TUPLES));
        cpu_us.push(u.cpu_s * 1e6 / SAT_TUPLES as f64);
        teardown_ms.extend([u.teardown_s * 1e3, t.teardown_s * 1e3]);
        lag_p99.push(p99_us(&p.lag_ns));
        let hottest = t.per_instance.iter().copied().max().unwrap_or(0);
        skew.push(hottest as f64 / mean(&f64s(&t.per_instance)));
        pull.push(mean(&f64s(&t.pull_ns)));
        exec.push(mean(&f64s(&t.exec_ns)));
        forward_p50.push(percentile(&f64s(&t.report.relay_forward_ns), 50.0));
        hit_rate.push(t.report.pool_hit_rate);
        pull_spans.extend_from_slice(&t.pull_ns);
        exec_spans.extend_from_slice(&t.exec_ns);
    }
    // Counters come from the traced `sat` phase closest to the median
    // traced throughput.
    let traced_median = median(&traced_tps);
    let (_, mid, _) = measured
        .iter()
        .min_by(|x, y| {
            let d = |r: &PhaseResult| (r.throughput(SAT_TUPLES) - traced_median).abs();
            d(&x.1).total_cmp(&d(&y.1))
        })
        .expect("at least one round");
    let r = &mid.report;
    let (pull_ns, exec_ns) = (median(&pull), median(&exec));
    let per_tuple_ns = 1e9 / mid.throughput(SAT_TUPLES);
    let layer_sum = layer_sum_ns(&times, mid, pull_ns, exec_ns);

    let model = layers::model_vs_measured(w, &times);
    let model_json = Json::Array(
        model
            .iter()
            .map(|(name, measured, term, predicted)| {
                obj([
                    ("metric", Json::str(*name)),
                    ("measured_ns", Json::Float(*measured)),
                    ("cost_model", Json::str(*term)),
                    ("model_ns", predicted.map_or(Json::Null, Json::Float)),
                    (
                        "model_over_measured",
                        predicted.map_or(Json::Null, |p| Json::Float(p / measured)),
                    ),
                ])
            })
            .collect(),
    );

    let metrics = vec![
        metric("gen.lag_p99_us", median(&lag_p99), "us"),
        metric("spout.pull_ns", pull_ns, "ns"),
        metric("codec.encode_ns", times.encode_ns, "ns"),
        metric("codec.view_key_ns", times.view_key_ns, "ns"),
        metric("codec.materialize_ns", times.materialize_ns, "ns"),
        metric("pool.acquire_share_ns", times.acquire_share_ns, "ns"),
        metric("pool.hit_rate", median(&hit_rate), "frac"),
        metric("grouping.route_ns", times.route_ns, "ns"),
        metric("grouping.max_over_mean", median(&skew), "ratio"),
        metric("fabric.send_ns", times.send_ns, "ns"),
        metric("fabric.handoff_p50_us", times.handoff_p50_us, "us"),
        metric("fabric.messages", r.fabric_messages as f64, "count"),
        metric(
            "fabric.bytes",
            (r.copied_bytes + r.shared_bytes) as f64,
            "B",
        ),
        metric("fabric.mean_batch_size", r.mean_batch_size, "count"),
        metric("fabric.send_retries", r.send_retries as f64, "count"),
        metric("relay.forwards", r.relay_forwards as f64, "count"),
        metric("relay.forward_p50_ns", median(&forward_p50), "ns"),
        metric("multicast.build_us", times.build_us, "us"),
        metric("acker.init_ack_ns", times.init_ack_ns, "ns"),
        metric("ack.acked", r.tuples_acked as f64, "count"),
        metric("ack.replayed", r.tuples_replayed as f64, "count"),
        metric("log.append_ns", times.append_ns, "ns"),
        metric("log.appended_bytes", r.log_appended_bytes as f64, "B"),
        metric("log.retained_bytes", r.log_retained_bytes as f64, "B"),
        metric("sink.execute_ns", exec_ns, "ns"),
        metric("runtime.teardown_ms", median(&teardown_ms), "ms"),
        metric(
            "runtime.cross_shard_msgs",
            r.cross_shard_msgs as f64,
            "count",
        ),
        metric(
            "runtime.tuples_materialized",
            r.tuples_materialized as f64,
            "count",
        ),
        metric(
            "runtime.wire_tuples_lazy",
            r.wire_tuples_lazy as f64,
            "count",
        ),
        metric("runtime.dropped_frames", r.dropped_frames as f64, "count"),
        metric("process.cpu_us_per_tuple", median(&cpu_us), "us"),
        metric("process.peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("trace.layer_sum_ratio", layer_sum / per_tuple_ns, "ratio"),
        metric(
            "trace.overhead",
            traced_median / median(&untraced_tps),
            "ratio",
        ),
        metric("baseline.single_thread_tps", median(&baseline), "1/s"),
    ];

    let detail = obj([
        ("provenance", provenance(a)),
        ("rounds", Json::UInt(measured.len() as u64)),
        ("model_vs_measured", model_json),
        ("layer_sum_ns_per_tuple", Json::Float(layer_sum)),
        ("measured_ns_per_tuple", Json::Float(per_tuple_ns)),
        ("gate", tally_json(&tally)),
    ]);
    let trace_file = obj([
        ("detail", detail.clone()),
        ("metrics", Json::Object(metrics.clone())),
        ("spans.spout_pull", span_summary(&pull_spans)),
        ("spans.sink_execute", span_summary(&exec_spans)),
    ]);
    write_trace(a, &trace_file);
    finish(detail, &tally, metrics)
}

/// Write the traced run's spans and summaries under `livebench/out/`.
fn write_trace(a: &Args, trace: &Json) {
    let dir = std::path::Path::new("livebench/out");
    let path = dir.join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace.to_json_string()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: livebench --workload <bcast_direct|bcast_tree_ring|keyed_acked_log> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    ops::epoch();
    if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    }
}
