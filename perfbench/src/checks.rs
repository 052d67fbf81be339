//! Output checks, run after the measured window:
//!
//! * every `/replay` body is byte-identical to what this process computes
//!   from the model's `GET /models/<id>` artifact (`simulate_with`, then
//!   `serde_json::to_string`) — the rule that online replay matches
//!   offline replay;
//! * every finalized ingest version is byte-identical (fitted model JSON),
//!   records the digest of, and replays byte-identically to a one-shot fit
//!   of the same records;
//! * probe replies at flow or hybrid fidelity are compared with the packet
//!   engine on the same model, protocol, path and seed: the largest KS
//!   distance between their delay distributions is `replay_ks_max`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ibox::{fit_model, Fidelity, FittedModel, ModelArtifact, ModelKind, ReplayOpts};
use ibox_sim::{PathSpec, SimTime};
use ibox_stats::ks_two_sample;
use ibox_trace::FlowTrace;

use crate::load::LoadRun;
use crate::stats::digest;

/// What the checks found.
pub struct Checked {
    /// One line per mismatch; empty when every output was right.
    pub mismatches: Vec<String>,
    /// Records in each successful replay's body, in request order.
    pub replay_records: Vec<u64>,
    /// Largest probe KS distance (0 when the run had no probe).
    pub ks_max: f64,
    /// Each probe's KS distance, labelled, in request order.
    pub ks: Vec<(usize, String, f64)>,
}

fn replay(
    model: &FittedModel,
    protocol: &str,
    seconds: u64,
    seed: u64,
    fidelity: Fidelity,
    path: Option<PathSpec>,
) -> FlowTrace {
    let opts = ReplayOpts { batch_streams: true, fidelity, path };
    model.simulate_with(protocol, SimTime::from_secs(seconds), seed, opts)
}

fn body_digest(trace: &FlowTrace) -> u64 {
    digest(serde_json::to_string(trace).expect("trace serializes").as_bytes())
}

fn delays_ms(trace: &FlowTrace) -> Vec<f64> {
    trace.delivered().filter_map(|r| r.delay_ms()).collect()
}

/// Outcome of one check item.
enum Outcome {
    Replay { index: usize, records: u64, ks: Option<f64> },
    Session,
}

fn check_replay(run: &LoadRun, index: usize) -> Result<Outcome, String> {
    let done = &run.replays[index];
    let r = &done.req;
    let artifact = run
        .artifacts
        .get(&done.model)
        .ok_or_else(|| format!("no artifact fetched for {}", done.model))?;
    let trace =
        replay(&artifact.model, r.protocol, r.duration_s, r.seed, r.fidelity, r.path.clone());
    if body_digest(&trace) != done.digest {
        return Err(format!(
            "replay {index} ({} {} {} seed {}) differs from the offline replay of {}",
            r.protocol, r.fidelity, r.duration_s, r.seed, done.model
        ));
    }
    let ks = (r.probe && r.fidelity != Fidelity::Packet).then(|| {
        let packet = replay(
            &artifact.model,
            r.protocol,
            r.duration_s,
            r.seed,
            Fidelity::Packet,
            r.path.clone(),
        );
        ks_two_sample(&delays_ms(&packet), &delays_ms(&trace)).statistic
    });
    Ok(Outcome::Replay { index, records: trace.len() as u64, ks })
}

fn check_session(run: &LoadRun, index: usize) -> Result<Outcome, String> {
    let done = &run.sessions[index];
    let served = run
        .artifacts
        .get(&done.version)
        .ok_or_else(|| format!("no artifact fetched for {}", done.version))?;
    let kind = ModelKind::IBoxNet;
    let oneshot = ModelArtifact::new(&kind, fit_model(&kind, &done.trace));
    let model_json = |a: &ModelArtifact| serde_json::to_string(&a.model).expect("model serializes");
    if model_json(served) != model_json(&oneshot) {
        return Err(format!(
            "{} is not byte-identical to a one-shot fit of its {} records",
            done.version,
            done.trace.len()
        ));
    }
    if served.trace_digest.as_deref() != Some(done.trace.digest().as_str()) {
        return Err(format!(
            "{} records trace digest {:?}, expected {}",
            done.version,
            served.trace_digest,
            done.trace.digest()
        ));
    }
    let a = replay(&served.model, "cubic", 5, 7, Fidelity::Flow, None);
    let b = replay(&oneshot.model, "cubic", 5, 7, Fidelity::Flow, None);
    if body_digest(&a) != body_digest(&b) {
        return Err(format!(
            "{} does not replay like a one-shot fit of its {} records",
            done.version,
            done.trace.len()
        ));
    }
    Ok(Outcome::Session)
}

/// Run every check on `threads` worker threads.
pub fn verify(run: &LoadRun, threads: usize) -> Checked {
    let items = run.replays.len() + run.sessions.len();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(items));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                let outcome = if i < run.replays.len() {
                    check_replay(run, i)
                } else {
                    check_session(run, i - run.replays.len())
                };
                results.lock().expect("check results lock").push(outcome);
            });
        }
    });
    let mut checked = Checked {
        mismatches: Vec::new(),
        replay_records: vec![0; run.replays.len()],
        ks_max: 0.0,
        ks: Vec::new(),
    };
    for outcome in results.into_inner().expect("check results lock") {
        match outcome {
            Ok(Outcome::Replay { index, records, ks }) => {
                checked.replay_records[index] = records;
                if let Some(ks) = ks {
                    checked.ks_max = checked.ks_max.max(ks);
                    let r = &run.replays[index].req;
                    let stages = r.path.as_ref().map_or(1, PathSpec::len);
                    let label = format!("{} {} {stages}-stage", r.protocol, r.fidelity);
                    checked.ks.push((index, label, ks));
                }
            }
            Ok(Outcome::Session) => {}
            Err(e) => checked.mismatches.push(e),
        }
    }
    checked.mismatches.sort();
    checked.ks.sort_by_key(|k| k.0);
    checked
}
