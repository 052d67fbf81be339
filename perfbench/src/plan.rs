//! The workloads: what each one generates from the seed, and the request
//! sequence its client sends.
//!
//! Every workload is a closed loop of *rounds*. A round is a short fixed
//! pattern of requests; the seed picks replay seeds, trace windows and
//! rotation phases, never the shape of the pattern, so two seeds give
//! request streams with the same mix and size distribution.
//!
//! Each workload sends all three timed operations (`/replay`, `/fit`,
//! `/traces/<id>/append`) so that every end-to-end metric exists on every
//! workload; the workload decides which one carries the load:
//!
//! * `replay-bulk` — a 30 s flow-fidelity replay of an ethernet model
//!   (~130k records, ~11 MB of JSON) per round, then two small fits and
//!   three 500-record appends in the background.
//! * `replay-engine` — a fixed 6-request cycle of ~1 MB replies over the
//!   packet, hybrid and flow engines, 1- to 3-stage paths and one IBoxML
//!   replay per round, then a background block of six small fits and six
//!   appends.
//! * `fit-ingest` — an inline-trace fit of 0.3–9 MB per round, then an
//!   8-chunk streaming session, its finalize, and one bare-id replay of
//!   the finalized model.
//!
//! A round's requests always follow the same requests, so that each
//! timed class is one fixed mix: a request's latency depends on what ran
//! before it (the first request after a large reply pays for the daemon
//! re-faulting that reply's memory). `replay-bulk` sends its background
//! after every replay: with one background block per four replays, the
//! two replays after each block ran ~25% slower than the other two on
//! some runs, which put the replay p50 between two groups.
//! `replay-engine` sends its background as one block per cycle, since
//! each cycle position there is a fixed request kind anyway.
//!
//! Replies whose fidelity differs from the packet engine carry a fixed,
//! seed-independent probe set at the head of each stream; the KS distance
//! of those replies to the packet engine is `replay_ks_max`.

use std::collections::VecDeque;

use ibox::{Fidelity, IBoxMlSpec, ModelKind};
use ibox_sim::{PathConfig, PathSpec, PathStage, SimTime};
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

/// Records per streaming chunk.
pub const CHUNK_RECORDS: usize = 500;
/// The daemon's `--refit-chunks` cadence: every 4th accepted chunk refits.
pub const REFIT_CHUNKS: u64 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk flow-fidelity replays: the codec and socket write path.
    ReplayBulk,
    /// Packet, hybrid, flow and IBoxML engines on ~1 MB replies.
    ReplayEngine,
    /// Inline fits and streaming ingest: the decode and write path.
    FitIngest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::ReplayBulk, Workload::ReplayEngine, Workload::FitIngest];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayBulk => "replay-bulk",
            Workload::ReplayEngine => "replay-engine",
            Workload::FitIngest => "fit-ingest",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, seedable, deterministic generator.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_1B0C_0000_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A model registered through `/fit` during set-up.
pub struct SeedModel {
    /// Model kind to fit.
    pub kind: ModelKind,
    /// Its training trace, sent inline.
    pub trace: FlowTrace,
}

/// Which registered model a replay names.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// The `i`-th set-up model (by its content-addressed fit id).
    Seed(usize),
    /// An ingest session's bare id (resolves to its newest version).
    Session(String),
}

/// One `/replay` request.
#[derive(Debug, Clone)]
pub struct ReplayReq {
    /// The model replayed.
    pub target: Target,
    /// Congestion-control protocol.
    pub protocol: &'static str,
    /// Replay horizon, seconds.
    pub duration_s: u64,
    /// Replay seed.
    pub seed: u64,
    /// Replay engine.
    pub fidelity: Fidelity,
    /// Optional composed path replacing the model's fitted one.
    pub path: Option<PathSpec>,
    /// Whether this reply enters `replay_ks_max`.
    pub probe: bool,
}

/// One request of the stream.
pub enum Op {
    /// `POST /fit` with `"wait": true` and an inline trace.
    Fit {
        /// Model kind.
        kind: ModelKind,
        /// Training trace.
        trace: FlowTrace,
    },
    /// `POST /replay`.
    Replay(ReplayReq),
    /// `POST /traces/<session>/append`.
    Append {
        /// Session id.
        session: String,
        /// Offset of the chunk's first record.
        offset: u64,
        /// The chunk.
        records: Vec<PacketRecord>,
        /// Kind and metadata, sent with a session's first chunk.
        create: Option<(ModelKind, FlowMeta)>,
    },
    /// `POST /traces/<session>/finalize`.
    Finalize {
        /// Session id.
        session: String,
        /// Every record the session received, for the one-shot check.
        trace: FlowTrace,
    },
}

impl Op {
    /// The operation class a metric is kept for.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Fit { .. } => "fit",
            Op::Replay(_) => "replay",
            Op::Append { .. } => "append",
            Op::Finalize { .. } => "finalize",
        }
    }

    /// The request path and JSON body. `seed_ids` maps [`Target::Seed`]
    /// indices to the registered ids.
    pub fn request(&self, seed_ids: &[String]) -> (String, Vec<u8>) {
        match self {
            Op::Fit { kind, trace } => {
                let body = format!(
                    r#"{{"model":{},"wait":true,"trace":{}}}"#,
                    to_json(kind),
                    to_json(trace),
                );
                ("/fit".to_string(), body.into_bytes())
            }
            Op::Replay(r) => {
                let model = match &r.target {
                    Target::Seed(i) => seed_ids[*i].clone(),
                    Target::Session(id) => id.clone(),
                };
                let mut body = format!(
                    r#"{{"model":"{model}","protocol":"{}","duration_s":{},"seed":{},"fidelity":"{}""#,
                    r.protocol,
                    r.duration_s,
                    r.seed,
                    r.fidelity.as_str()
                );
                if let Some(path) = &r.path {
                    body.push_str(&format!(r#","path":{}"#, to_json(path)));
                }
                body.push('}');
                ("/replay".to_string(), body.into_bytes())
            }
            Op::Append { session, offset, records, create } => {
                let mut body = format!(r#"{{"offset":{offset},"records":{}"#, to_json(records));
                if let Some((kind, meta)) = create {
                    body.push_str(&format!(
                        r#","model":{},"meta":{}"#,
                        to_json(kind),
                        to_json(meta)
                    ));
                }
                body.push('}');
                (format!("/traces/{session}/append"), body.into_bytes())
            }
            Op::Finalize { session, .. } => (format!("/traces/{session}/finalize"), b"{}".to_vec()),
        }
    }
}

fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("request fields serialize")
}

/// Protocols with a fluid law whose packet-engine replay is cheap enough
/// to serve as the KS reference (BBR's packet engine is ~100x slower).
const KS_PROTOCOLS: [&str; 3] = ["cubic", "reno", "vegas"];
/// `replay-bulk` rotates over every protocol whose flow replay is ~11 MB.
const BULK_PROTOCOLS: [&str; 4] = ["cubic", "reno", "vegas", "bbr"];
/// Testbed profiles the `fit-ingest` traces rotate over.
const INGEST_PROFILES: [Profile; 5] = [
    Profile::Ethernet,
    Profile::IndiaCellular,
    Profile::Wifi,
    Profile::TokenBucketWifi,
    Profile::CellularHandover,
];
/// `fit-ingest` fit-trace lengths span 10 to 30 s (bodies of ~0.3 to
/// ~9 MB).
const FIT_SECONDS: (f64, f64) = (10.0, 30.0);
/// Length of the base traces fit windows are cut from, seconds.
const BASE_SECONDS: u64 = 40;
/// Chunks per streaming session. With a refit every [`REFIT_CHUNKS`]
/// chunks, a quarter of the appends refit (half of them over 4, half over
/// 8 chunks), so the append p90 falls inside the 8-chunk refits rather
/// than on the edge between two groups.
const SESSION_CHUNKS: usize = 8;
/// Records in a background fit trace: 500 to 5000 (~35 to ~350 KB).
const BG_FIT_RECORDS: (f64, f64) = (500.0, 5000.0);
/// Golden-ratio step of the low-discrepancy size and length sequences.
const GOLDEN: f64 = 0.618_033_988_749_895;

/// Generate a testbed trace of `profile` (instance `instance`) running
/// cubic for `seconds`.
fn testbed_trace(profile: Profile, instance: u64, seconds: u64) -> FlowTrace {
    let d = SimTime::from_secs(seconds);
    run_protocol(&profile.sample(instance, d), "cubic", d, instance)
}

/// `n` consecutive records of `base` from a seeded start, rebased.
fn record_window(base: &FlowTrace, n: usize, rng: &mut Rng, meta: FlowMeta) -> FlowTrace {
    let recs = base.records();
    let start = rng.below((recs.len() - n) as u64) as usize;
    rebase(&recs[start..start + n], meta)
}

fn rebase(recs: &[PacketRecord], meta: FlowMeta) -> FlowTrace {
    let t0 = recs.first().map_or(0, |r| r.send_ns);
    let s0 = recs.first().map_or(0, |r| r.seq);
    let records = recs
        .iter()
        .map(|r| PacketRecord {
            seq: r.seq - s0,
            send_ns: r.send_ns - t0,
            size: r.size,
            recv_ns: r.recv_ns.map(|x| x - t0),
        })
        .collect();
    FlowTrace::from_records(meta, records)
}

/// A constant-rate FIFO stage.
fn stage(mbps: f64, delay_ms: u64, buffer_bytes: u64) -> PathStage {
    PathStage::new(PathConfig::simple(mbps * 1e6, SimTime::from_millis(delay_ms), buffer_bytes))
}

/// The small IBoxML model of `replay-engine` (its artifact is ~270 KB).
fn small_ml() -> ModelKind {
    ModelKind::IBoxMl(IBoxMlSpec {
        hidden_sizes: vec![32, 32],
        epochs: 2,
        lr: 5e-3,
        tbptt: 32,
        with_cross_traffic: false,
        seed: 5,
    })
}

/// A streaming session being cut into chunks.
struct Session {
    id: String,
    trace: FlowTrace,
    sent: usize,
}

/// A workload's inputs and its (unbounded) request stream.
pub struct Plan {
    workload: Workload,
    seed: u64,
    rng: Rng,
    seed_models: Vec<SeedModel>,
    /// Traces fits and sessions are cut from.
    bases: Vec<FlowTrace>,
    queue: VecDeque<Op>,
    round: u64,
    phase: u64,
    sessions: u64,
    /// Background fits sent so far (indexes the size sequence).
    bg_fits: u64,
    bg: Option<Session>,
    paths: [PathSpec; 2],
}

impl Plan {
    /// The inputs of `workload` for `seed`: set-up models and base traces
    /// are fixed per workload; the request stream is drawn from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let phase = rng.below(60);
        let cellular = testbed_trace(Profile::IndiaCellular, 1, 30);
        let (seed_models, bases) = match workload {
            Workload::ReplayBulk => (
                vec![SeedModel {
                    kind: ModelKind::IBoxNet,
                    trace: testbed_trace(Profile::Ethernet, 3, 30),
                }],
                vec![testbed_trace(Profile::IndiaCellular, 2, 30)],
            ),
            Workload::ReplayEngine => (
                vec![
                    SeedModel { kind: ModelKind::IBoxNet, trace: cellular },
                    SeedModel {
                        kind: ModelKind::IBoxNet,
                        trace: testbed_trace(Profile::CellularHandover, 1, 30),
                    },
                    SeedModel {
                        kind: small_ml(),
                        trace: testbed_trace(Profile::IndiaCellular, 1, 5),
                    },
                ],
                vec![testbed_trace(Profile::IndiaCellular, 2, 30)],
            ),
            Workload::FitIngest => (
                vec![SeedModel { kind: ModelKind::IBoxNet, trace: cellular }],
                INGEST_PROFILES
                    .iter()
                    .map(|&p| {
                        testbed_trace(p, if p == Profile::Ethernet { 3 } else { 1 }, BASE_SECONDS)
                    })
                    .collect(),
            ),
        };
        let mut plan = Plan {
            workload,
            seed,
            rng,
            seed_models,
            bases,
            queue: VecDeque::new(),
            round: 0,
            phase,
            sessions: 0,
            bg_fits: 0,
            bg: None,
            paths: [
                PathSpec::from_stages(vec![
                    stage(12.0, 10, 150_000),
                    stage(20.0, 15, 200_000),
                    stage(8.0, 5, 120_000),
                ]),
                PathSpec::from_stages(vec![stage(10.0, 10, 150_000), stage(25.0, 20, 250_000)]),
            ],
        };
        plan.push_probes();
        plan
    }

    /// The models to register during set-up, in [`Target::Seed`] order.
    pub fn seed_models(&self) -> &[SeedModel] {
        &self.seed_models
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> Op {
        if self.queue.is_empty() {
            self.push_round();
            self.round += 1;
        }
        self.queue.pop_front().expect("a round pushes at least one request")
    }

    /// The fixed KS probe set: seed-independent replays at the head of the
    /// stream (`replay-engine` marks its first three cycles instead).
    fn push_probes(&mut self) {
        let fidelities = match self.workload {
            Workload::ReplayBulk => [Fidelity::Flow; 3],
            Workload::ReplayEngine => return,
            Workload::FitIngest => [Fidelity::Flow, Fidelity::Hybrid, Fidelity::Flow],
        };
        for (k, (protocol, fidelity)) in KS_PROTOCOLS.into_iter().zip(fidelities).enumerate() {
            self.queue.push_back(Op::Replay(ReplayReq {
                target: Target::Seed(0),
                protocol,
                duration_s: 30,
                seed: 1001 + k as u64,
                fidelity,
                path: None,
                probe: true,
            }));
        }
    }

    fn push_round(&mut self) {
        match self.workload {
            Workload::ReplayBulk => {
                let protocol = BULK_PROTOCOLS[((self.phase + self.round) % 4) as usize];
                let seed = self.rng.next_u64() >> 1;
                self.queue.push_back(Op::Replay(ReplayReq {
                    target: Target::Seed(0),
                    protocol,
                    duration_s: 30,
                    seed,
                    fidelity: Fidelity::Flow,
                    path: None,
                    probe: false,
                }));
                // Replies here are ~10x slower than in `replay-engine`: more
                // background per replay keeps the fit and append samples
                // comparable in number.
                self.push_background(2, 3);
            }
            Workload::ReplayEngine => {
                self.push_cycle(self.round);
                self.push_background(6, 6);
            }
            Workload::FitIngest => {
                self.push_ingest_fit();
                self.push_ingest_session();
            }
        }
    }

    /// Queue one `replay-engine` cycle. The first three cycles are the
    /// probe set: fixed seeds, one per KS protocol, with their hybrid and
    /// flow replies marked as probes. Requests 1/2 and 3/4 share a seed, so
    /// each pair is a packet reply and its fast-path counterpart.
    fn push_cycle(&mut self, cycle: u64) {
        let probe = cycle < KS_PROTOCOLS.len() as u64;
        let protocol = if probe {
            KS_PROTOCOLS[cycle as usize]
        } else {
            KS_PROTOCOLS[((self.phase + cycle) % 3) as usize]
        };
        let mut seed = |k: u64| if probe { 2001 + 4 * cycle + k } else { self.rng.next_u64() >> 1 };
        let (s1, s2, s3, s4) = (seed(0), seed(1), seed(2), seed(3));
        let replay = |target, duration_s, seed, fidelity, path: Option<&PathSpec>, probe| {
            Op::Replay(ReplayReq {
                target,
                protocol,
                duration_s,
                seed,
                fidelity,
                path: path.cloned(),
                probe,
            })
        };
        let [three, two] = &self.paths;
        let ops = [
            replay(Target::Seed(0), 30, s1, Fidelity::Packet, None, false),
            replay(Target::Seed(0), 30, s1, Fidelity::Hybrid, None, probe),
            replay(Target::Seed(1), 16, s2, Fidelity::Packet, Some(three), false),
            replay(Target::Seed(1), 16, s2, Fidelity::Flow, Some(three), probe),
            replay(Target::Seed(0), 16, s3, Fidelity::Packet, Some(two), false),
            replay(Target::Seed(2), 20, s4, Fidelity::Packet, None, false),
        ];
        self.queue.extend(ops);
    }

    fn fresh_session_id(&mut self, prefix: &str) -> String {
        self.sessions += 1;
        format!("{prefix}{:x}x{}", self.seed, self.sessions)
    }

    /// A point of the golden-ratio sequence at step `k`, from the seeded
    /// phase, scaled into `range`: every run covers the range evenly.
    fn spread(&self, k: u64, range: (f64, f64)) -> f64 {
        let u = (k as f64 * GOLDEN + self.phase as f64 / 60.0).fract();
        range.0 + (range.1 - range.0) * u
    }

    /// A background block of the replay workloads: `fits` small fits, then
    /// `appends` appends; a background session finalizes after
    /// [`SESSION_CHUNKS`] chunks. Fit sizes spread evenly over
    /// [`BG_FIT_RECORDS`], so the fit quantiles are set by the size mix
    /// rather than by stalls.
    fn push_background(&mut self, fits: usize, appends: usize) {
        for _ in 0..fits {
            let run = format!("bgfit-{:x}-{}", self.seed, self.bg_fits);
            let meta = FlowMeta::new("india-cellular", "cubic", run);
            let n = self.spread(self.bg_fits, BG_FIT_RECORDS) as usize;
            self.bg_fits += 1;
            let trace = record_window(&self.bases[0], n, &mut self.rng, meta);
            self.queue.push_back(Op::Fit { kind: ModelKind::IBoxNet, trace });
        }
        for _ in 0..appends {
            if self.bg.is_none() {
                let id = self.fresh_session_id("bg");
                let meta = FlowMeta::new("india-cellular", "cubic", id.clone());
                let n = SESSION_CHUNKS * CHUNK_RECORDS;
                let trace = record_window(&self.bases[0], n, &mut self.rng, meta);
                self.bg = Some(Session { id, trace, sent: 0 });
            }
            let session = self.bg.as_mut().expect("created above");
            self.queue.push_back(next_chunk(session));
            if session.sent == session.trace.len() {
                let done = self.bg.take().expect("present");
                self.queue.push_back(Op::Finalize { session: done.id, trace: done.trace });
            }
        }
    }

    /// `fit-ingest`: one inline fit, rotating profile and kind. Each
    /// profile's lengths follow a golden-ratio sequence over [`FIT_SECONDS`]
    /// from a seeded start, so every run covers the range evenly; a fit of
    /// `s` seconds takes the base trace's average record count for `s`
    /// seconds from a seeded offset, so body sizes do not depend on the
    /// seed.
    fn push_ingest_fit(&mut self) {
        let r = self.round;
        let profile = (r % 5) as usize;
        let kind = ModelKind::all()[(r % 4) as usize].clone();
        let seconds = self.spread(r / 5, FIT_SECONDS);
        let base = &self.bases[profile];
        let n = (base.len() as f64 * seconds / BASE_SECONDS as f64) as usize;
        let meta = FlowMeta::new(
            INGEST_PROFILES[profile].name(),
            "cubic",
            format!("fit-{:x}-{r}", self.seed),
        );
        let trace = record_window(base, n, &mut self.rng, meta);
        self.queue.push_back(Op::Fit { kind, trace });
    }

    /// `fit-ingest`: a whole streaming session, its finalize, and one
    /// bare-id flow replay of the finalized model.
    fn push_ingest_session(&mut self) {
        let profile = ((self.round + 2) % 5) as usize;
        let id = self.fresh_session_id("ing");
        let meta = FlowMeta::new(INGEST_PROFILES[profile].name(), "cubic", id.clone());
        let trace = record_window(
            &self.bases[profile],
            SESSION_CHUNKS * CHUNK_RECORDS,
            &mut self.rng,
            meta,
        );
        let mut session = Session { id: id.clone(), trace, sent: 0 };
        while session.sent < session.trace.len() {
            self.queue.push_back(next_chunk(&mut session));
        }
        self.queue.push_back(Op::Finalize { session: id.clone(), trace: session.trace });
        let protocol = KS_PROTOCOLS[((self.phase + self.round) % 3) as usize];
        self.queue.push_back(Op::Replay(ReplayReq {
            target: Target::Session(id),
            protocol,
            duration_s: 5,
            seed: self.rng.next_u64() >> 1,
            fidelity: Fidelity::Flow,
            path: None,
            probe: false,
        }));
    }
}

/// The session's next chunk (the first one creates the session).
fn next_chunk(session: &mut Session) -> Op {
    let recs = session.trace.records();
    let end = (session.sent + CHUNK_RECORDS).min(recs.len());
    let create = (session.sent == 0).then(|| (ModelKind::IBoxNet, session.trace.meta.clone()));
    let op = Op::Append {
        session: session.id.clone(),
        offset: session.sent as u64,
        records: recs[session.sent..end].to_vec(),
        create,
    };
    session.sent = end;
    op
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(plan: &mut Plan, n: usize) -> Vec<&'static str> {
        (0..n).map(|_| plan.next_op().class()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Plan::new(Workload::FitIngest, 7);
        let mut b = Plan::new(Workload::FitIngest, 7);
        for _ in 0..40 {
            let (pa, ba) = a.next_op().request(&["m".to_string()]);
            let (pb, bb) = b.next_op().request(&["m".to_string()]);
            assert_eq!(pa, pb);
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn every_workload_sends_every_timed_operation() {
        for w in Workload::ALL {
            let mut plan = Plan::new(w, 3);
            let seen = classes(&mut plan, 80);
            for class in ["replay", "fit", "append", "finalize"] {
                assert!(seen.contains(&class), "{} never sends {class}", w.name());
            }
        }
    }

    #[test]
    fn replay_workloads_repeat_one_round_shape() {
        let mut plan = Plan::new(Workload::ReplayEngine, 1);
        let seen = classes(&mut plan, 18);
        assert_eq!(&seen[..6], &["replay"; 6]);
        assert_eq!(&seen[6..12], &["fit"; 6]);
        assert_eq!(&seen[12..18], &["append"; 6]);
        let mut plan = Plan::new(Workload::ReplayBulk, 1);
        // Three probe replays, then rounds of one replay and its background.
        let seen = classes(&mut plan, 15);
        assert_eq!(&seen[..4], &["replay"; 4]);
        assert_eq!(&seen[4..9], &["fit", "fit", "append", "append", "append"]);
        assert_eq!(&seen[9..15], &["replay", "fit", "fit", "append", "append", "append"]);
    }
}
