//! The traced run: per-layer numbers from outside the program.
//!
//! The same request stream the daemon served is replayed in-process.
//! Each request is parsed with `http::parse_request`, executed twice —
//! once by `routes::handle` on an `App` (the real handler, timed as a
//! whole) and once as the sequence of public layer calls the route makes,
//! each wrapped in a span on a second, identical state — and the route's
//! response is written to a loopback socket with `Response::write_to`.
//! The two executions must produce the same response bytes.
//!
//! A layer's self time is its span minus its child spans; `route.glue` is
//! the route's time minus the layer calls' time. Allocation counts come
//! from the benchmark's counting global allocator. Spans are kept in
//! memory and written at the end in the `ibox_obs::trace` event format,
//! as Chrome trace-event JSON that loads in Perfetto.

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ibox::{fit_model, FitCache, FitCacheKey, FittedModel, ModelArtifact, ModelKind, ReplayOpts};
use ibox_ingest::{FinalizeOutput, IngestConfig, SessionStore};
use ibox_obs::trace::{derive_id, to_chrome_json, TraceEvent, TracePhase};
use ibox_serve::{
    routes, split_version, App, AppOptions, HttpLimits, ModelRegistry, Request, Response,
};
use ibox_sim::{PathSpec, SimTime};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};
use serde::{Deserialize, Serialize, Value};

use crate::alloc;
use crate::plan::{Op, Plan, REFIT_CHUNKS};
use crate::stats::{digest, quantile};

const READ: &str = "serve.http.read";
const DECODE: &str = "trace.decode";
const KEY: &str = "core.cache.key";
const FILL: &str = "core.cache.fill";
const FIT: &str = "core.fit";
const GET: &str = "serve.registry.get";
const PUT: &str = "serve.registry.put";
const PACKET: &str = "sim.packet";
const FLUID: &str = "sim.fluid";
const ML: &str = "ml.infer";
const ENCODE: &str = "trace.encode";
const APPEND: &str = "ingest.append";
const FINALIZE: &str = "ingest.finalize";
const WRITE: &str = "serve.http.write";
const ROUTE: &str = "route";
const GLUE: &str = "route.glue";

/// Every layer with a span, in the order a request crosses them.
pub const LAYERS: [&str; 14] =
    [READ, DECODE, KEY, FILL, FIT, GET, PUT, PACKET, FLUID, ML, ENCODE, APPEND, FINALIZE, WRITE];
/// Operation classes with an `unattributed_share`.
pub const OPS: [&str; 3] = ["replay", "fit", "append"];

/// One closed span's accounting.
struct SpanStat {
    name: &'static str,
    self_ns: u64,
    self_allocs: u64,
    self_bytes: u64,
}

struct Frame {
    name: &'static str,
    span: u64,
    t0: Instant,
    allocs0: (u64, u64),
    children: u64,
    child_ns: u64,
    child_allocs: (u64, u64),
}

/// Records nested spans as `ibox_obs::trace` events plus self-time and
/// self-allocation accounting.
struct Recorder {
    epoch: Instant,
    root: u64,
    roots: u64,
    events: Vec<TraceEvent>,
    stack: Vec<Frame>,
    spans: Vec<SpanStat>,
}

impl Recorder {
    fn new(trace_id: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            root: trace_id,
            roots: 0,
            // Reserved up front so the recorder's own pushes do not show up
            // as allocations inside the spans it measures.
            events: Vec::with_capacity(1 << 18),
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(1 << 17),
        }
    }

    fn begin(&mut self, name: &'static str) {
        let parent = match self.stack.last_mut() {
            Some(f) => {
                f.children += 1;
                (f.span, f.children)
            }
            None => {
                self.roots += 1;
                (self.root, self.roots)
            }
        };
        let span = derive_id(parent.0, parent.1);
        let now = Instant::now();
        self.events.push(TraceEvent {
            t_ns: (now - self.epoch).as_nanos() as u64,
            lane: 0,
            span,
            parent: parent.0,
            phase: TracePhase::Begin,
            name: name.to_string(),
            value: 0.0,
        });
        let allocs0 = alloc::snapshot();
        self.stack.push(Frame {
            name,
            span,
            t0: Instant::now(),
            allocs0,
            children: 0,
            child_ns: 0,
            child_allocs: (0, 0),
        });
    }

    /// Close the innermost span; returns its duration, ns.
    fn end(&mut self) -> u64 {
        let allocs = alloc::snapshot();
        let f = self.stack.pop().expect("end matches a begin");
        let dur = f.t0.elapsed().as_nanos() as u64;
        let total = (allocs.0 - f.allocs0.0, allocs.1 - f.allocs0.1);
        self.events.push(TraceEvent {
            t_ns: (Instant::now() - self.epoch).as_nanos() as u64,
            lane: 0,
            span: f.span,
            parent: 0,
            phase: TracePhase::End,
            name: String::new(),
            value: 0.0,
        });
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
            p.child_allocs.0 += total.0;
            p.child_allocs.1 += total.1;
        }
        self.spans.push(SpanStat {
            name: f.name,
            self_ns: dur.saturating_sub(f.child_ns),
            self_allocs: total.0.saturating_sub(f.child_allocs.0),
            self_bytes: total.1.saturating_sub(f.child_allocs.1),
        });
        dur
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// The layer state the decomposed route runs on: the same three stores
/// an `App` holds.
struct Layers {
    cache: FitCache,
    registry: ModelRegistry,
    ingest: SessionStore,
}

/// Work counts that are not times.
#[derive(Default)]
struct Counts {
    encoded_bytes: u64,
    encoded_records: u64,
    written_bytes: u64,
    writes: u64,
}

fn object_response(fields: &[(&str, &str)]) -> Response {
    let value = Value::Object(
        fields.iter().map(|(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect(),
    );
    Response::json(200, serde_json::to_string(&value).expect("object body serializes"))
}

fn body(req: &Request) -> Result<Value, String> {
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    serde_json::parse_value(text).map_err(|e| e.to_string())
}

fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, String> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some).map_err(|e| format!("field {name}: {e}")),
    }
}

fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, String> {
    field(v, name)?.ok_or_else(|| format!("missing field {name}"))
}

/// `FitCache::fit_path_model_keyed`, one layer call at a time.
fn fit_keyed(
    rec: &mut Recorder,
    layers: &Layers,
    kind: &ModelKind,
    train: &FlowTrace,
) -> FittedModel {
    let key = rec.span(KEY, || FitCacheKey::for_fit(kind, train));
    rec.begin(FILL);
    let model = layers
        .cache
        .get_or_insert_with(&key.id(), || rec.span(FIT, || fit_model(kind, train)))
        .expect("fitted models round-trip through the cache");
    rec.end();
    model
}

/// The route's `fit_session_version`.
fn session_version(
    rec: &mut Recorder,
    layers: &Layers,
    id: &str,
    out: &FinalizeOutput,
) -> Result<String, String> {
    let model = fit_keyed(rec, layers, &out.kind, &out.trace);
    let parent = (out.fit_seq > 1).then(|| format!("{id}-v{}", out.fit_seq - 1));
    let trace_digest = rec.span(KEY, || out.trace.digest());
    rec.span(PUT, || {
        let artifact =
            ModelArtifact::new(&out.kind, model).with_lineage(parent, trace_digest, out.fit_seq);
        layers.registry.put_version(id, &artifact)
    })
    .map_err(|e| e.to_string())
}

fn decomposed_fit(rec: &mut Recorder, layers: &Layers, req: &Request) -> Result<Response, String> {
    rec.begin(DECODE);
    let parsed = body(req).and_then(|v| {
        let kind: ModelKind = field(&v, "model")?.unwrap_or(ModelKind::IBoxNet);
        let _wait: bool = field(&v, "wait")?.unwrap_or(false);
        let trace = v.get("trace").ok_or("fit without an inline trace")?;
        let train = FlowTrace::from_value(trace).map_err(|e| e.to_string())?;
        Ok((kind, train))
    });
    rec.end();
    let (kind, train) = parsed?;
    let id = rec.span(KEY, || FitCacheKey::for_fit(&kind, &train).id());
    if !rec.span(GET, || layers.registry.contains(&id)) {
        let model = fit_keyed(rec, layers, &kind, &train);
        rec.span(PUT, || layers.registry.put(&id, &ModelArtifact::new(&kind, model)))
            .map_err(|e| e.to_string())?;
    }
    Ok(object_response(&[("model", &id), ("status", "ready")]))
}

fn decomposed_replay(
    rec: &mut Recorder,
    layers: &Layers,
    counts: &mut Counts,
    req: &Request,
) -> Result<Response, String> {
    rec.begin(DECODE);
    let parsed = body(req).and_then(|v| {
        let model: String = required(&v, "model")?;
        let protocol: String = required(&v, "protocol")?;
        let duration_s: f64 = field(&v, "duration_s")?.unwrap_or(30.0);
        let seed: u64 = field(&v, "seed")?.unwrap_or(1);
        let fidelity: ibox::Fidelity = field(&v, "fidelity")?.unwrap_or_default();
        let path: Option<PathSpec> = field(&v, "path")?;
        Ok((model, protocol, SimTime::from_secs_f64(duration_s), seed, fidelity, path))
    });
    rec.end();
    let (model_id, protocol, duration, seed, fidelity, path) = parsed?;

    rec.begin(GET);
    let resolved = if split_version(&model_id).is_some() {
        model_id.clone()
    } else {
        layers.registry.latest_version(&model_id).unwrap_or_else(|| model_id.clone())
    };
    let pin = layers.registry.pin(&resolved);
    let artifact = layers.registry.get(&resolved);
    rec.end();
    let artifact = artifact.map_err(|e| e.to_string())?;

    let engine = if fidelity == ibox::Fidelity::Packet { PACKET } else { FLUID };
    let trace = match &artifact.model {
        FittedModel::IBoxMl(m) => {
            rec.begin(ML);
            let pattern = rec.span(engine, || {
                m.driver.simulate_fidelity_over(&protocol, duration, seed, fidelity, path.as_ref())
            });
            let trace = m.ml.predict_trace_sampled(&pattern, ml_sample_seed(seed));
            rec.end();
            trace
        }
        model => rec.span(engine, || {
            let opts = ReplayOpts { batch_streams: true, fidelity, path };
            model.simulate_with(&protocol, duration, seed, opts)
        }),
    };
    let json = rec.span(ENCODE, || serde_json::to_string(&trace)).map_err(|e| e.to_string())?;
    counts.encoded_bytes += json.len() as u64;
    counts.encoded_records += trace.len() as u64;
    drop(pin);
    Ok(Response::json(200, json))
}

/// `FittedIBoxMl::simulate_with`'s sampling seed (SplitMix64 of the
/// replay seed), so the ML stage can be timed apart from its driver.
fn ml_sample_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn decomposed_append(
    rec: &mut Recorder,
    layers: &Layers,
    id: &str,
    req: &Request,
) -> Result<Response, String> {
    rec.begin(DECODE);
    let parsed = body(req).and_then(|v| {
        let offset: u64 = required(&v, "offset")?;
        let records: Vec<PacketRecord> = required(&v, "records")?;
        let kind: Option<ModelKind> = field(&v, "model")?;
        let meta: Option<FlowMeta> = field(&v, "meta")?;
        Ok((offset, records, kind, meta))
    });
    rec.end();
    let (offset, records, kind, meta) = parsed?;
    let res = rec
        .span(APPEND, || layers.ingest.append(id, kind, meta, offset, records))
        .map_err(|e| e.to_string())?;
    let version = if res.refit_due {
        let out = rec.span(FINALIZE, || layers.ingest.snapshot(id)).map_err(|e| e.to_string())?;
        Some(session_version(rec, layers, id, &out)?)
    } else {
        None
    };
    let mut fields = vec![
        ("session".to_string(), Value::Str(id.to_string())),
        ("outcome".to_string(), Value::Str(res.outcome.as_str().to_string())),
        ("next_offset".to_string(), Value::U64(res.next_offset)),
        ("chunks".to_string(), Value::U64(res.chunks)),
        ("buffered".to_string(), Value::U64(res.buffered as u64)),
    ];
    if let Some(wm) = &res.watermark {
        fields.push(("watermark".to_string(), wm.to_value()));
    }
    if let Some(v) = version {
        fields.push(("version".to_string(), Value::Str(v)));
    }
    let json = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
    Ok(Response::json(200, json))
}

fn decomposed_finalize(rec: &mut Recorder, layers: &Layers, id: &str) -> Result<Response, String> {
    let out = rec.span(FINALIZE, || layers.ingest.finalize(id)).map_err(|e| e.to_string())?;
    let version = session_version(rec, layers, id, &out)?;
    let records = out.trace.len().to_string();
    let fit_seq = out.fit_seq.to_string();
    Ok(object_response(&[
        ("model", id),
        ("version", &version),
        ("fit_seq", &fit_seq),
        ("records", &records),
        ("status", "ready"),
    ]))
}

/// The layer calls `routes::handle` makes for `req`, each in its span.
fn decomposed(
    rec: &mut Recorder,
    layers: &Layers,
    counts: &mut Counts,
    req: &Request,
) -> Result<Response, String> {
    let p = req.path.as_str();
    match p {
        "/fit" => decomposed_fit(rec, layers, req),
        "/replay" => decomposed_replay(rec, layers, counts, req),
        _ => {
            let id = p.strip_prefix("/traces/").ok_or_else(|| format!("unexpected path {p}"))?;
            if let Some(id) = id.strip_suffix("/append") {
                decomposed_append(rec, layers, id, req)
            } else if let Some(id) = id.strip_suffix("/finalize") {
                decomposed_finalize(rec, layers, id)
            } else {
                Err(format!("unexpected path {p}"))
            }
        }
    }
}

/// One request's traced time and its layers' self times.
struct ReqStat {
    class: &'static str,
    /// Parse + route + write, ns.
    total_ns: u64,
    glue_ns: i64,
    /// Self ns per layer (read and write included).
    layers: BTreeMap<&'static str, u64>,
}

/// The per-layer result of a traced run.
pub struct Traced {
    /// `(name, value, unit)` for every layer metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable breakdown.
    pub table: String,
    /// Where the Chrome trace was written.
    pub trace_file: std::path::PathBuf,
    /// Requests whose decomposed response differed from the route's.
    pub mismatches: Vec<String>,
}

/// A loopback socket whose peer drains and discards everything written.
struct Sink {
    stream: TcpStream,
    drain: std::thread::JoinHandle<()>,
}

impl Sink {
    fn open() -> Result<Sink, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let drain = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let mut buf = vec![0u8; 1 << 16];
            while matches!(peer.read(&mut buf), Ok(k) if k > 0) {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Sink { stream, drain })
    }

    fn close(self) {
        drop(self.stream);
        let _ = self.drain.join();
    }
}

struct Harness {
    app: Arc<App>,
    layers: Layers,
    rec: Recorder,
    counts: Counts,
    sink: Sink,
    reqs: Vec<ReqStat>,
    mismatches: Vec<String>,
}

impl Harness {
    /// Trace one request end to end.
    fn request(
        &mut self,
        index: usize,
        class: &'static str,
        path: &str,
        body: &[u8],
    ) -> Result<(), String> {
        let mut wire = format!(
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let first_span = self.rec.spans.len();
        self.rec.begin(match class {
            "replay" => "request.replay",
            "fit" => "request.fit",
            "append" => "request.append",
            "finalize" => "request.finalize",
            _ => "request.setup",
        });
        let req = self
            .rec
            .span(READ, || {
                ibox_serve::http::parse_request(
                    &mut BufReader::new(&wire[..]),
                    &HttpLimits::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        drop(wire);
        // Alternate which execution runs first so warm caches favour
        // neither side of `route.glue`.
        let (route_resp, route_ns, layered) = if index.is_multiple_of(2) {
            let layered = decomposed(&mut self.rec, &self.layers, &mut self.counts, &req);
            self.rec.begin(ROUTE);
            let resp = routes::handle(&self.app, &req);
            let ns = self.rec.end();
            (resp, ns, layered)
        } else {
            self.rec.begin(ROUTE);
            let resp = routes::handle(&self.app, &req);
            let ns = self.rec.end();
            (resp, ns, decomposed(&mut self.rec, &self.layers, &mut self.counts, &req))
        };
        match layered {
            Ok(resp) if resp.status == route_resp.status && digest(&resp.body) == digest(&route_resp.body) => {}
            Ok(resp) => self.mismatches.push(format!(
                "request {index} ({path}): layer calls answered {} ({} bytes), the route {} ({} bytes)",
                resp.status,
                resp.body.len(),
                route_resp.status,
                route_resp.body.len()
            )),
            Err(e) => self.mismatches.push(format!("request {index} ({path}): {e}")),
        }
        let mut sink = Counting { inner: &mut self.sink.stream, bytes: 0 };
        self.rec.span(WRITE, || route_resp.write_to(&mut sink)).map_err(|e| e.to_string())?;
        self.counts.writes += 1;
        self.counts.written_bytes += sink.bytes;
        self.rec.end();
        let mut stat =
            ReqStat { class, total_ns: 0, glue_ns: route_ns as i64, layers: BTreeMap::new() };
        for s in &self.rec.spans[first_span..] {
            match s.name {
                name if name == ROUTE || name.starts_with("request.") => {}
                name => {
                    *stat.layers.entry(name).or_default() += s.self_ns;
                    if name != READ && name != WRITE {
                        stat.glue_ns -= s.self_ns as i64;
                    }
                }
            }
        }
        stat.total_ns = route_ns
            + stat.layers.get(READ).copied().unwrap_or(0)
            + stat.layers.get(WRITE).copied().unwrap_or(0);
        self.reqs.push(stat);
        Ok(())
    }
}

/// A writer that counts the bytes passing through it.
struct Counting<'a> {
    inner: &'a mut TcpStream,
    bytes: u64,
}

impl std::io::Write for Counting<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Replay `ops` requests of `plan` (a fresh plan with the untraced run's
/// seed) through the traced harness, stopping early at `budget`, and
/// aggregate the per-layer metrics. `untraced_p50` holds the untraced
/// client medians (ms) by operation class.
pub fn run(
    title: &str,
    plan: &mut Plan,
    ops: usize,
    untraced_p50: &BTreeMap<&'static str, f64>,
    work_dir: &Path,
    trace_file: std::path::PathBuf,
    budget: std::time::Duration,
) -> Result<Traced, String> {
    let (route_dir, layer_dir) = (work_dir.join("route"), work_dir.join("layers"));
    let ingest = IngestConfig { refit_every_chunks: REFIT_CHUNKS, ..IngestConfig::default() };
    let opts = AppOptions { ingest: ingest.clone(), ..AppOptions::default() };
    let stop = Arc::new(AtomicBool::new(false));
    let app = Arc::new(App::with_options(route_dir, 2, 2, stop, opts)?);
    let layers = Layers {
        cache: FitCache::with_dir(&layer_dir)?,
        registry: ModelRegistry::open(&layer_dir)?,
        ingest: SessionStore::open(&layer_dir, ingest).map_err(|e| e.to_string())?,
    };
    let mut h = Harness {
        app,
        layers,
        rec: Recorder::new(ibox_obs::trace::next_trace_id()),
        counts: Counts::default(),
        sink: Sink::open()?,
        reqs: Vec::new(),
        mismatches: Vec::new(),
    };

    // Set-up models go through the harness too (they appear in the Chrome
    // trace) but not into the per-layer numbers.
    let mut seed_ids = Vec::new();
    for (i, m) in plan.seed_models().iter().enumerate() {
        let (path, body) = Op::Fit { kind: m.kind.clone(), trace: m.trace.clone() }.request(&[]);
        h.request(i, "setup", &path, &body)?;
        seed_ids.push(FitCacheKey::for_fit(&m.kind, &m.trace).id());
    }
    h.reqs.clear();
    h.rec.spans.clear();
    h.counts = Counts::default();

    let deadline = Instant::now() + budget;
    for i in 0..ops {
        if Instant::now() > deadline {
            break;
        }
        let op = plan.next_op();
        let (path, body) = op.request(&seed_ids);
        h.request(i, op.class(), &path, &body)?;
    }
    let Harness { rec, counts, sink, reqs, mismatches, .. } = h;
    sink.close();
    std::fs::write(&trace_file, to_chrome_json(rec.root, title, &rec.events))
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    let (metrics, table) = aggregate(&rec.spans, &reqs, &counts, untraced_p50);
    Ok(Traced { metrics, table, trace_file, mismatches })
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Per-layer metrics and the human-readable tables.
fn aggregate(
    spans: &[SpanStat],
    reqs: &[ReqStat],
    counts: &Counts,
    untraced_p50: &BTreeMap<&'static str, f64>,
) -> (Vec<(String, f64, &'static str)>, String) {
    let mut metrics = Vec::new();
    let mut table = format!(
        "{:<20} {:>7} {:>12} {:>7} {:>12} {:>12}\n",
        "layer", "calls", "self p50 ms", "share", "allocs/call", "bytes/call"
    );
    let total_ns: f64 = reqs.iter().map(|r| r.total_ns as f64).sum();
    for layer in LAYERS {
        let calls: Vec<&SpanStat> = spans.iter().filter(|s| s.name == layer).collect();
        let selfs: Vec<f64> = calls.iter().map(|s| ms(s.self_ns as f64)).collect();
        let n = calls.len() as f64;
        let p50 = if calls.is_empty() { 0.0 } else { quantile(&selfs, 0.5) };
        let per_call = |f: fn(&SpanStat) -> u64| {
            if calls.is_empty() {
                0.0
            } else {
                calls.iter().map(|s| f(s) as f64).sum::<f64>() / n
            }
        };
        let allocs = per_call(|s| s.self_allocs);
        let bytes = per_call(|s| s.self_bytes);
        // Share of the traced time of the requests that cross this layer.
        let (mut mine, mut theirs) = (0.0, 0.0);
        for r in reqs {
            if let Some(&ns) = r.layers.get(layer) {
                mine += ns as f64;
                theirs += r.total_ns as f64;
            }
        }
        let share = if theirs > 0.0 { mine / theirs } else { 0.0 };
        table.push_str(&format!(
            "{layer:<20} {n:>7} {p50:>12.4} {share:>7.3} {allocs:>12.1} {bytes:>12.0}\n"
        ));
        metrics.push((format!("{layer}.calls"), n, "count"));
        metrics.push((format!("{layer}.ms_p50"), p50, "ms"));
        metrics.push((format!("{layer}.share"), share, "share"));
        metrics.push((format!("{layer}.allocs_per_call"), allocs, "allocs"));
        metrics.push((format!("{layer}.alloc_bytes_per_call"), bytes, "B"));
    }
    let glue: Vec<f64> = reqs.iter().map(|r| ms(r.glue_ns as f64)).collect();
    let glue_p50 = if glue.is_empty() { 0.0 } else { quantile(&glue, 0.5) };
    let glue_share = if total_ns > 0.0 {
        reqs.iter().map(|r| r.glue_ns as f64).sum::<f64>() / total_ns
    } else {
        0.0
    };
    table.push_str(&format!(
        "{GLUE:<20} {:>7} {glue_p50:>12.4} {glue_share:>7.3} {:>12} {:>12}\n",
        reqs.len(),
        "-",
        "-"
    ));
    metrics.push((format!("{GLUE}.calls"), reqs.len() as f64, "count"));
    metrics.push((format!("{GLUE}.ms_p50"), glue_p50, "ms"));
    metrics.push((format!("{GLUE}.share"), glue_share, "share"));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.push((
        format!("{ENCODE}.bytes_per_record"),
        ratio(counts.encoded_bytes, counts.encoded_records),
        "B",
    ));
    metrics.push((
        format!("{WRITE}.bytes_per_req"),
        ratio(counts.written_bytes, counts.writes),
        "B",
    ));

    // Per operation: each layer's median self time per request (0 where a
    // request skips the layer) and its share of the operation's traced
    // time; the medians' sum against the untraced client median.
    let classes = ["replay", "fit", "append", "finalize"];
    table.push_str(&format!(
        "\nper operation: median self ms per request (share of traced time)\n{:<20}",
        "layer"
    ));
    for c in classes {
        table.push_str(&format!(" {c:>19}"));
    }
    table.push('\n');
    let mut sums = [0.0f64; 4];
    let rows: Vec<&str> = LAYERS.iter().copied().chain([GLUE]).collect();
    for layer in rows {
        table.push_str(&format!("{layer:<20}"));
        for (k, c) in classes.iter().enumerate() {
            let of: Vec<&ReqStat> = reqs.iter().filter(|r| r.class == *c).collect();
            let per: Vec<f64> = of
                .iter()
                .map(|r| {
                    if layer == GLUE {
                        ms(r.glue_ns as f64)
                    } else {
                        ms(r.layers.get(layer).copied().unwrap_or(0) as f64)
                    }
                })
                .collect();
            let total: f64 = of.iter().map(|r| ms(r.total_ns as f64)).sum();
            let med = if per.is_empty() { 0.0 } else { quantile(&per, 0.5) };
            let share = if total > 0.0 { per.iter().sum::<f64>() / total } else { 0.0 };
            sums[k] += med;
            table.push_str(&format!(" {med:>11.3} ({share:>5.3})"));
        }
        table.push('\n');
    }
    table.push_str(&format!("{:<20}", "sum of medians"));
    for s in sums {
        table.push_str(&format!(" {s:>19.3}"));
    }
    table.push_str(&format!("\n{:<20}", "untraced p50"));
    for (k, c) in classes.iter().enumerate() {
        let p50 = untraced_p50.get(c).copied().unwrap_or(f64::NAN);
        table.push_str(&format!(" {p50:>19.3}"));
        if OPS.contains(c) {
            let unattributed = if p50 > 0.0 { 1.0 - sums[k] / p50 } else { 0.0 };
            metrics.push((format!("{c}.unattributed_share"), unattributed, "share"));
        }
    }
    table.push('\n');
    for c in OPS {
        let v =
            metrics.iter().find(|m| m.0 == format!("{c}.unattributed_share")).map_or(0.0, |m| m.1);
        table.push_str(&format!("unattributed share of {c}: {v:.3}\n"));
    }
    (metrics, table)
}
