//! End-to-end benchmark of the `ibox serve` daemon: `/fit`, `/replay` and
//! `/traces/<id>/append` over loopback, with per-layer numbers from a
//! separate traced run.
//!
//! ```text
//! python3 perfbench/run.py --workload <replay-bulk|replay-engine|fit-ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds the `ibox` CLI and this binary, then runs it with
//! `--ibox <path>` and `--out .bench_run`. One run:
//!
//! 1. generates the workload's inputs from the seed ([`plan`]);
//! 2. sets a daemon up five times (fresh model dir, ephemeral loopback
//!    port, `IBOX_TRACE=off`, default workers): spawn, wait for
//!    `/healthz`, register the set-up models through `/fit`;
//! 3. has every worker of the last daemon serve the set-up fits, then
//!    drives it for `--seconds` from one closed-loop client on one
//!    keep-alive connection ([`load`]), and on until `/replay`,
//!    `/fit` and `/traces/<id>/append` have 100 samples each, so every
//!    reported p90 has ten samples beyond it; then fetches every model
//!    it replayed, scrapes `GET /metrics`, reads the daemon's `VmHWM`,
//!    and sets four more daemons up. `setup_s` is the median of the nine
//!    set-ups;
//! 4. checks every output ([`checks`]); any mismatch fails the run;
//! 5. with `--trace 1`, replays the same request stream through the
//!    public function of every layer in-process ([`traced`]) and reports
//!    the per-layer metrics instead of the end-to-end ones.
//!
//! The last line of stdout is the result object; the line before it is a
//! stamp with host facts (cores, CPU model, `rustc -V`, git revision), a
//! host speed probe taken before and after the window, and each metric's
//! sample count and quartiles. Both are also written to
//! `<out>/result-<workload>-<seed>-trace<t>.json`; the traced run's spans
//! go to `<out>/trace-<workload>-<seed>.json` (Chrome trace-event JSON).

mod alloc;
mod checks;
mod daemon;
mod load;
mod plan;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use serde::Value;

use crate::load::LoadRun;
use crate::plan::{Plan, Workload};
use crate::stats::{quantile, spread};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ibox: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: ibox-perfbench --workload <replay-bulk|replay-engine|fit-ingest> \
                     --seed <n> --seconds <s> --trace <0|1> --ibox <path> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}\n{USAGE}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}\n{USAGE}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        ibox: PathBuf::from(get("--ibox")?),
        out: PathBuf::from(map.get("--out").map_or(".bench_run", String::as_str)),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The samples it summarizes, when it is an order statistic.
    samples: Vec<f64>,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: &[f64]) -> Metric {
    Metric { name: name.to_string(), value, unit, samples: samples.to_vec() }
}

/// The end-to-end metrics of an untraced run. Fails when an operation has
/// too few samples for its p90.
fn end_to_end(run: &LoadRun, replay_records: &[u64], ks_max: f64) -> Result<Vec<Metric>, String> {
    let lat = |c: &str| run.latency.get(c).cloned().unwrap_or_default();
    for class in load::P90_CLASSES {
        let n = lat(class).len();
        if n < load::MIN_P90_SAMPLES {
            return Err(format!(
                "{class}: {n} samples in {:.1} s, fewer than the {} a p90 needs",
                run.window_s,
                load::MIN_P90_SAMPLES
            ));
        }
    }
    let (replay, fit, append) = (lat("replay"), lat("fit"), lat("append"));
    let replay_s: f64 = run.replays.iter().map(|r| r.ms).sum::<f64>() / 1e3;
    let records: u64 = replay_records.iter().sum();
    let session_rates: Vec<f64> =
        run.sessions.iter().map(|s| s.trace.len() as f64 / (s.ms / 1e3)).collect();
    let ok = (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64;
    Ok(vec![
        metric("replay_p50_ms", quantile(&replay, 0.5), "ms", &replay),
        metric("replay_p90_ms", quantile(&replay, 0.9), "ms", &replay),
        metric("replay_records_per_s", records as f64 / replay_s, "records/s", &[]),
        metric("fit_p50_ms", quantile(&fit, 0.5), "ms", &fit),
        metric("fit_p90_ms", quantile(&fit, 0.9), "ms", &fit),
        metric("append_p50_ms", quantile(&append, 0.5), "ms", &append),
        metric("append_p90_ms", quantile(&append, 0.9), "ms", &append),
        metric("ingest_records_per_s", quantile(&session_rates, 0.5), "records/s", &session_rates),
        metric("setup_s", quantile(&run.setup_s, 0.5), "s", &run.setup_s),
        metric("server_rss_mb", run.rss_mb, "MB", &[]),
        metric("replay_ks_max", ks_max, "ks", &[]),
        metric("ok_share", ok, "share", &[]),
    ])
}

/// Median replay latency per request kind (protocol, fidelity, stages).
fn replay_kinds(run: &LoadRun) -> String {
    let mut kinds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &run.replays {
        let stages = r.req.path.as_ref().map_or(1, ibox_sim::PathSpec::len);
        let key =
            format!("{} {} {stages}-stage {}s", r.req.protocol, r.req.fidelity, r.req.duration_s);
        kinds.entry(key).or_default().push(r.ms);
    }
    let mut out = String::from("replay latency by kind\n");
    for (k, xs) in kinds {
        out.push_str(&format!("  {k:<32} n={:<4} p50={:.3} ms\n", xs.len(), quantile(&xs, 0.5)));
    }
    out
}

/// Exact counters derived from the daemon's `GET /metrics`. Both engines
/// count `sim.packets_sent`; only the packet engine counts events.
fn counter_metrics(run: &LoadRun) -> Vec<Metric> {
    let c = |name: &str| run.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fills = c("fitcache.hit") + c("fitcache.miss") + c("fitcache.disk_hit");
    vec![
        metric(
            "sim.events_per_packet",
            ratio(c("sim.events_processed"), c("sim.packets_sent")),
            "events",
            &[],
        ),
        metric(
            "fluid.episodes_per_replay",
            ratio(c("fluid.episodes"), c("serve.requests.replay")),
            "episodes",
            &[],
        ),
        metric(
            "fidelity.fallback_share",
            ratio(c("fidelity.fallback"), run.fast_replays as f64),
            "share",
            &[],
        ),
        metric("fitcache.hit_ratio", ratio(c("fitcache.hit"), fills), "share", &[]),
        metric("serve.shed", c("serve.shed"), "count", &[]),
        metric("serve.parse_errors", c("serve.parse_errors"), "count", &[]),
        metric("registry.evicted", c("registry.evicted"), "count", &[]),
    ]
}

/// First line of a command's stdout, if it runs.
fn command_line(program: &str, args: &[&str]) -> Value {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => Value::Str(
            String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or("").trim().to_string(),
        ),
        _ => Value::Null,
    }
}

/// Median time of five runs of a fixed integer loop, ms. It is stamped
/// before and after the measured window, not reported: on a shared host a
/// run can be slow because the host is, and this tells the two apart.
fn host_probe_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15_u64;
            for _ in 0..std::hint::black_box(10_000_000) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    quantile(&times, 0.5)
}

fn host_facts() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .map_or(Value::Null, Value::Str);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc)),
        ("cpu".into(), cpu),
        ("rustc".into(), command_line("rustc", &["-V"])),
        ("git_rev".into(), command_line("git", &["rev-parse", "HEAD"])),
    ])
}

fn stamp(
    args: &Args,
    run: &LoadRun,
    ops: usize,
    probe_ms: [f64; 2],
    metrics: &[Metric],
    counters: &[Metric],
) -> Value {
    let per_metric = metrics
        .iter()
        .map(|m| {
            let (n, q1, q2, q3) = spread(&m.samples);
            let mut fields = vec![("value".to_string(), Value::F64(m.value))];
            if n > 0 {
                fields.push(("samples".into(), Value::U64(n as u64)));
                fields.push(("q1".into(), Value::F64(q1)));
                fields.push(("median".into(), Value::F64(q2)));
                fields.push(("q3".into(), Value::F64(q3)));
            }
            (m.name.clone(), Value::Object(fields))
        })
        .collect();
    let counters =
        counters.iter().map(|m| (m.name.clone(), Value::F64(m.value))).collect::<Vec<_>>();
    Value::Object(vec![(
        "stamp".into(),
        Value::Object(vec![
            ("host".into(), host_facts()),
            (
                "run".into(),
                Value::Object(vec![
                    ("workload".into(), Value::Str(args.workload.name().into())),
                    ("seed".into(), Value::U64(args.seed)),
                    ("seconds".into(), Value::F64(args.seconds)),
                    ("window_s".into(), Value::F64(run.window_s)),
                    (
                        "host_probe_ms".into(),
                        Value::Object(vec![
                            ("before".into(), Value::F64(probe_ms[0])),
                            ("after".into(), Value::F64(probe_ms[1])),
                        ]),
                    ),
                    ("trace".into(), Value::Bool(args.trace)),
                    ("requests".into(), Value::U64(ops as u64)),
                ]),
            ),
            ("metrics".into(), Value::Object(per_metric)),
            ("counters".into(), Value::Object(counters)),
        ]),
    )])
}

fn result(correct: bool, run: &LoadRun, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(run.attempted)),
        ("failed".into(), Value::U64(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let (n, q1, _, q3) = spread(&m.samples);
        let spread = if n > 0 { format!("n={n} q1={q1:.4} q3={q3:.4}") } else { String::new() };
        out.push_str(&format!("  {:<28} {:>14.4} {:<10} {spread}\n", m.name, m.value, m.unit));
    }
    out
}

fn run(args: &Args, run_dir: &Path) -> Result<bool, String> {
    let name = args.workload.name();
    let t0 = Instant::now();
    let mut plan = Plan::new(args.workload, args.seed);
    eprintln!("inputs generated in {:.2} s", t0.elapsed().as_secs_f64());
    let probe_before = host_probe_ms();
    let t0 = Instant::now();
    let (load, ops) = load::run(&args.ibox, &run_dir.join("daemons"), &mut plan, args.seconds)?;
    eprintln!("set-up and measured window done in {:.2} s", t0.elapsed().as_secs_f64());
    let probe_ms = [probe_before, host_probe_ms()];
    eprintln!("host probe: {:.3} ms before, {:.3} ms after", probe_ms[0], probe_ms[1]);
    let t0 = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checked = checks::verify(&load, threads);
    eprintln!("outputs checked in {:.2} s", t0.elapsed().as_secs_f64());
    for (_, label, ks) in &checked.ks {
        eprintln!("KS probe {label}: {ks:.4}");
    }
    let mut mismatches = load.mismatches.clone();
    mismatches.extend(checked.mismatches);

    eprint!("{}", replay_kinds(&load));
    let e2e = end_to_end(&load, &checked.replay_records, checked.ks_max)?;
    let mut counters = counter_metrics(&load);
    let title = format!(
        "{name} seed {} — end to end ({ops} requests in {:.1} s)",
        args.seed, load.window_s
    );
    eprint!("{}", table(&title, &e2e));
    eprint!("{}", table("daemon counters", &counters));

    let reported = if args.trace {
        let untraced_p50: BTreeMap<&'static str, f64> =
            load.latency.iter().map(|(c, xs)| (*c, quantile(xs, 0.5))).collect();
        let traced = traced::run(
            &format!("perfbench {name} seed {}", args.seed),
            &mut Plan::new(args.workload, args.seed),
            ops,
            &untraced_p50,
            &run_dir.join("traced"),
            args.out.join(format!("trace-{name}-{}.json", args.seed)),
            Duration::from_secs_f64((2.0 * args.seconds).max(20.0)),
        )?;
        eprintln!("\n{name} seed {} — traced layers\n{}", args.seed, traced.table);
        eprintln!("spans written to {}", traced.trace_file.display());
        mismatches.extend(traced.mismatches);
        let mut layer: Vec<Metric> = traced
            .metrics
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit, samples: Vec::new() })
            .collect();
        // With `--trace 1` the counters are reported metrics, not stamp facts.
        layer.append(&mut counters);
        layer
    } else {
        e2e
    };

    for m in &mismatches {
        eprintln!("MISMATCH: {m}");
    }
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number: the run was too short to measure it", bad.name));
    }
    let correct = mismatches.is_empty();
    let stamp = stamp(args, &load, ops, probe_ms, &reported, &counters);
    let result = result(correct, &load, &reported);
    let stamp_json = serde_json::to_string(&stamp).expect("stamp serializes");
    let result_json = serde_json::to_string(&result).expect("result serializes");
    let file =
        args.out.join(format!("result-{name}-{}-trace{}.json", args.seed, u8::from(args.trace)));
    std::fs::write(&file, format!("{stamp_json}\n{result_json}\n"))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{stamp_json}");
    println!("{result_json}");
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let run_dir =
        args.out.join(format!("run-{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    daemon::clean(&run_dir);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
