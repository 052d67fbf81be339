//! The untraced run: set up a daemon [`SETUPS_BEFORE`] times, have every
//! worker of the last one serve the set-up fits, drive it with the
//! workload's request stream for the measured window, collect what the
//! output checks and the counter metrics need, then set up
//! [`SETUPS_AFTER`] more daemons.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use ibox::{FitCacheKey, ModelArtifact};
use ibox_trace::FlowTrace;
use serde::Value;

use crate::daemon::{self, Client, Daemon};
use crate::plan::{Op, Plan, ReplayReq, Target, CHUNK_RECORDS, REFIT_CHUNKS};
use crate::stats::digest;

/// Set-ups before the measured window (the last one serves the window).
pub const SETUPS_BEFORE: usize = 5;
/// Set-ups after the measured window. `setup_s` is the median of all
/// set-ups; taking them at both ends of the run keeps a short slow spell
/// of the host from setting the whole figure.
pub const SETUPS_AFTER: usize = 4;
/// Samples an operation needs before its p90 is reported: ten beyond it.
pub const MIN_P90_SAMPLES: usize = 100;
/// Operation classes with a reported p90.
pub const P90_CLASSES: [&str; 3] = ["replay", "fit", "append"];
/// The measured window runs at least `--seconds`, and on past it until
/// every class in [`P90_CLASSES`] has [`MIN_P90_SAMPLES`] samples, up to
/// this many times `--seconds`.
const MAX_WINDOW_FACTOR: f64 = 3.0;

/// A `/replay` that answered 200.
pub struct ReplayDone {
    /// The request.
    pub req: ReplayReq,
    /// The model id the request named.
    pub model: String,
    /// Digest of the response body.
    pub digest: u64,
    /// Client latency, ms.
    pub ms: f64,
}

/// A streaming session that finalized.
pub struct SessionDone {
    /// The finalized version id (`<session>-v<fit_seq>`).
    pub version: String,
    /// Every record the session received.
    pub trace: FlowTrace,
    /// Client time in the session's appends and its finalize, ms.
    pub ms: f64,
}

/// Everything the untraced run measured and fetched.
pub struct LoadRun {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Registered ids of the set-up models.
    pub seed_ids: Vec<String>,
    /// Client latencies (ms) by operation class.
    pub latency: BTreeMap<&'static str, Vec<f64>>,
    /// Successful replays, for the byte-identity check.
    pub replays: Vec<ReplayDone>,
    /// Finalized sessions, for the one-shot check.
    pub sessions: Vec<SessionDone>,
    /// Requests sent in the window.
    pub attempted: u64,
    /// Requests answered non-2xx (503 sheds included) or lost in transport.
    pub failed: u64,
    /// Output mismatches found while the run went on.
    pub mismatches: Vec<String>,
    /// Artifacts fetched with `GET /models/<id>` after the window.
    pub artifacts: HashMap<String, ModelArtifact>,
    /// The daemon's counters from `GET /metrics` after the window.
    pub counters: BTreeMap<String, u64>,
    /// The daemon's `VmHWM` at the end of the run, MB.
    pub rss_mb: f64,
    /// Flow- or hybrid-fidelity replays sent.
    pub fast_replays: u64,
}

fn field_str<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    match v.get(name) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn parse_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("reply is not utf-8: {e}"))?;
    serde_json::parse_value(text).map_err(|e| format!("reply is not json: {e}"))
}

/// Spawn a daemon over `dir` and register the set-up models through
/// `/fit`, checking each id. Returns the daemon, the client that
/// registered them, and the seconds from spawn to the last registration.
fn set_up(
    ibox: &Path,
    dir: &Path,
    setup: &[(Vec<u8>, String)],
) -> Result<(Daemon, Client, f64), String> {
    daemon::settle();
    let t0 = Instant::now();
    let d = Daemon::spawn(ibox, dir)?;
    d.wait_healthy()?;
    let mut client = Client::new(&d.addr);
    for (body, id) in setup {
        register(&mut client, body, id)?;
    }
    Ok((d, client, t0.elapsed().as_secs_f64()))
}

/// Whether every class in [`P90_CLASSES`] has [`MIN_P90_SAMPLES`] samples.
fn enough_samples(latency: &BTreeMap<&'static str, Vec<f64>>) -> bool {
    P90_CLASSES.iter().all(|c| latency.get(c).map_or(0, Vec::len) >= MIN_P90_SAMPLES)
}

/// Fit one set-up model and check its id; returns the id.
fn register(client: &mut Client, body: &[u8], expected: &str) -> Result<String, String> {
    match client.call("POST", "/fit", body).0 {
        Ok((200, reply)) => {
            let v = parse_json(&reply)?;
            match field_str(&v, "model") {
                Some(id) if id == expected => Ok(id.to_string()),
                other => Err(format!("set-up fit answered {other:?}, expected {expected}")),
            }
        }
        Ok((status, reply)) => {
            Err(format!("set-up fit failed: {status} {}", String::from_utf8_lossy(&reply)))
        }
        Err(e) => Err(format!("set-up fit failed: {e}")),
    }
}

/// The untraced run, with its daemons' model dirs under `dir` (removed
/// once the last daemon has stopped). Returns the run and the number of
/// requests sent in the measured window.
pub fn run(
    ibox: &Path,
    dir: &Path,
    plan: &mut Plan,
    seconds: f64,
) -> Result<(LoadRun, usize), String> {
    let setup: Vec<(Vec<u8>, String)> = plan
        .seed_models()
        .iter()
        .map(|m| {
            let op = Op::Fit { kind: m.kind.clone(), trace: m.trace.clone() };
            (op.request(&[]).1, FitCacheKey::for_fit(&m.kind, &m.trace).id())
        })
        .collect();
    let seed_ids: Vec<String> = setup.iter().map(|(_, id)| id.clone()).collect();

    // The measured window starts on the last set-up's connection.
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..SETUPS_BEFORE {
        let (d, client, s) = set_up(ibox, &dir.join(format!("daemon{k}")), &setup)?;
        setup_s.push(s);
        if k + 1 < SETUPS_BEFORE {
            drop(client);
            d.stop()?;
        } else {
            last = Some((d, client));
        }
    }
    let (daemon, mut client) = last.expect("the last set-up keeps its daemon");

    // Every worker of the daemon (one per core by default) serves the
    // set-up fits before the window, not only the one that registered
    // them: each worker's allocator grows on its first large request, and
    // a worker that had not served one answered 11 MB replays ~35% slower
    // on some runs, which put the replay p50 between the two workers. The
    // connections stay open together, so each is taken by another worker.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut warm = Vec::new();
    for _ in 1..workers {
        let mut other = Client::new(&daemon.addr);
        for (body, id) in &setup {
            register(&mut other, body, id)?;
        }
        warm.push(other);
    }
    drop(warm);

    let mut run = LoadRun {
        setup_s,
        window_s: 0.0,
        seed_ids,
        latency: BTreeMap::new(),
        replays: Vec::new(),
        sessions: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        artifacts: HashMap::new(),
        counters: BTreeMap::new(),
        rss_mb: 0.0,
        fast_replays: 0,
    };
    let mut session_ms: HashMap<String, f64> = HashMap::new();
    daemon::settle();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cap = start + Duration::from_secs_f64(seconds * MAX_WINDOW_FACTOR);
    let mut ops = 0usize;
    loop {
        let now = Instant::now();
        if now >= cap || (now >= deadline && enough_samples(&run.latency)) {
            break;
        }
        let op = plan.next_op();
        ops += 1;
        let (path, body) = op.request(&run.seed_ids);
        let expected_fit = match &op {
            Op::Fit { kind, trace } => FitCacheKey::for_fit(kind, trace).id(),
            _ => String::new(),
        };
        let (reply, ms) = client.call("POST", &path, &body);
        drop(body);
        run.attempted += 1;
        let reply = match reply {
            Ok((status, reply)) if (200..300).contains(&status) => reply,
            _ => {
                run.failed += 1;
                continue;
            }
        };
        run.latency.entry(op.class()).or_default().push(ms);
        match op {
            Op::Fit { .. } => match parse_json(&reply) {
                Ok(v) if field_str(&v, "model") == Some(expected_fit.as_str()) => {}
                other => run.mismatches.push(format!(
                    "fit answered {:?}, expected id {expected_fit}",
                    other.map(|v| serde_json::to_string(&v).unwrap_or_default())
                )),
            },
            Op::Replay(req) => {
                let model = match &req.target {
                    Target::Seed(i) => run.seed_ids[*i].clone(),
                    Target::Session(id) => id.clone(),
                };
                if req.fidelity != ibox::Fidelity::Packet {
                    run.fast_replays += 1;
                }
                run.replays.push(ReplayDone { req, model, digest: digest(&reply), ms });
            }
            Op::Append { session, offset, records, .. } => {
                *session_ms.entry(session.clone()).or_default() += ms;
                let chunks = offset / CHUNK_RECORDS as u64 + 1;
                let want_version = chunks
                    .is_multiple_of(REFIT_CHUNKS)
                    .then(|| format!("{session}-v{}", chunks / REFIT_CHUNKS));
                let next = offset + records.len() as u64;
                let ok = parse_json(&reply).is_ok_and(|v| {
                    field_str(&v, "outcome") == Some("accepted")
                        && v.get("next_offset").and_then(Value::as_f64) == Some(next as f64)
                        && field_str(&v, "version").map(str::to_string) == want_version
                });
                if !ok {
                    run.mismatches.push(format!(
                        "append to {session} at {offset} answered {}",
                        String::from_utf8_lossy(&reply)
                    ));
                }
            }
            Op::Finalize { session, trace } => {
                let ms = session_ms.remove(&session).unwrap_or(0.0) + ms;
                let v = parse_json(&reply).ok();
                let version = v.as_ref().and_then(|v| field_str(v, "version")).unwrap_or("");
                let records = v.as_ref().and_then(|v| field_str(v, "records"));
                if records != Some(trace.len().to_string().as_str())
                    || !version.starts_with(&format!("{session}-v"))
                {
                    run.mismatches.push(format!(
                        "finalize of {session} answered {}",
                        String::from_utf8_lossy(&reply)
                    ));
                    continue;
                }
                run.sessions.push(SessionDone { version: version.to_string(), trace, ms });
            }
        }
    }

    run.window_s = start.elapsed().as_secs_f64();

    // Everything below is outside the measured window.
    let mut wanted: Vec<String> = run.seed_ids.clone();
    wanted.extend(run.replays.iter().map(|r| r.model.clone()));
    wanted.extend(run.sessions.iter().map(|s| s.version.clone()));
    wanted.sort();
    wanted.dedup();
    for id in wanted {
        match client.call("GET", &format!("/models/{id}"), b"").0 {
            Ok((200, body)) => {
                let text = String::from_utf8_lossy(&body);
                let artifact = ModelArtifact::parse(&text, Path::new(&id))
                    .map_err(|e| format!("artifact {id}: {e}"))?;
                run.artifacts.insert(id, artifact);
            }
            other => return Err(format!("GET /models/{id}: {:?}", other.map(|(s, _)| s))),
        }
    }
    run.counters = match client.call("GET", "/metrics", b"").0 {
        Ok((200, body)) => counters(&parse_json(&body)?),
        other => return Err(format!("GET /metrics: {:?}", other.map(|(s, _)| s))),
    };
    run.rss_mb = daemon.peak_rss_mb()?;
    drop(client);
    daemon.stop()?;
    for k in SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER {
        let (d, client, s) = set_up(ibox, &dir.join(format!("daemon{k}")), &setup)?;
        run.setup_s.push(s);
        drop(client);
        d.stop()?;
    }
    daemon::clean(dir);
    Ok((run, ops))
}

/// The `counters` object of a `/metrics` snapshot.
fn counters(snapshot: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(fields) = snapshot.get("counters").and_then(Value::as_object) {
        for (name, v) in fields {
            if let Some(x) = v.as_f64() {
                out.insert(name.clone(), x as u64);
            }
        }
    }
    out
}
