//! Spans recorded by the benchmark around its own calls into each layer,
//! kept in memory and written as JSONL at the end, plus the in-process
//! replay that times the serving layers one public call at a time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use airchitect::model::CaseStudy;
use airchitect::persist;
use airchitect_nn::quant::QuantizedNetwork;
use airchitect_serve::batch::{execute, execute_fast, Outcome};
use airchitect_serve::cache::{CachedResponse, LruCache};
use airchitect_serve::fallback::Oracle;
use airchitect_serve::http::{try_parse, write_response, Parsed, Response};
use airchitect_serve::reload::ModelHub;
use airchitect_serve::router::parse_recommend;

use crate::stats::median;
use crate::workload::{Kind, RequestStream, Workload, COLD_MIX};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or stage name.
    pub name: &'static str,
    /// Request id (stream index) or 0 for spans outside a request.
    pub id: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span log. Durations are kept for every span so the layer
/// statistics are exact; at most `cap` spans are kept for the JSONL file.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            cap,
            durations: BTreeMap::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index when it was kept.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        self.durations
            .entry(name)
            .or_default()
            .push(end_ns.saturating_sub(start_ns));
        (self.spans.len() < self.cap).then(|| {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            });
            self.spans.len() - 1
        })
    }

    /// Opens a span that children can name as their parent; finish it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        let start_ns = self.ns(Instant::now());
        let index = self.record(name, id, None, start_ns, start_ns);
        Open {
            name,
            index,
            start_ns,
        }
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        let end_ns = self.ns(Instant::now());
        if let Some(i) = open.index {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(d) = self.durations.get_mut(open.name).and_then(|d| d.last_mut()) {
            *d = end_ns - open.start_ns;
        }
    }

    /// Runs `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let (a, b) = (self.ns(start), self.ns(end));
        self.record(name, id, parent, a, b);
        out
    }

    /// Every duration recorded under `name`, ns.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// The `q`-quantile of the durations recorded under `name`, ns.
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        let mut d = self.durations(name).to_vec();
        if d.is_empty() {
            return f64::NAN;
        }
        d.sort_unstable();
        let rank = ((q * d.len() as f64).ceil() as usize).clamp(1, d.len());
        d[rank - 1] as f64
    }

    /// Median duration under `name`, ns.
    pub fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.durations(name).iter().map(|&v| v as f64).collect();
        median(&d).unwrap_or(f64::NAN)
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span opened with [`Tracer::open`]. Spans of one name must be closed
/// in the order they were opened.
pub struct Open {
    name: &'static str,
    /// Its index in the kept spans, the parent of its children.
    pub index: Option<usize>,
    start_ns: u64,
}

/// The layers a replayed request passes through, in order.
pub const REQUEST_LAYERS: [&str; 7] = [
    "http.try_parse",
    "router.parse_recommend",
    "cache.get",
    "batch.execute_fast",
    "batch.execute",
    "cache.put",
    "http.write_response",
];

/// Replays the first `n` requests of the stream through the public layer
/// functions, each a child of one `replay.request` span, in the order the
/// server calls them. Top-1 misses take `execute_fast`, ranked ones
/// `execute`; the cache has the server's capacity.
pub fn replay(tracer: &mut Tracer, workload: Workload, seed: u64, n: usize, hub: &ModelHub) {
    let mut cache = LruCache::new(crate::run::CACHE_CAPACITY);
    let generation = hub.generation();
    let models: Vec<_> = CaseStudy::ALL.iter().map(|&c| hub.get(c)).collect();
    let mut bytes = Vec::with_capacity(512);
    for (id, request) in RequestStream::new(workload, seed).take(n).enumerate() {
        let id = id as u64;
        bytes.clear();
        request.write_http(&mut bytes);
        let root = tracer.open("replay.request", id);
        let parent = root.index;
        let response = replay_one(
            tracer,
            id,
            parent,
            &bytes,
            request.kind,
            &mut cache,
            generation,
            &models,
        );
        if let Some(response) = response {
            let mut out = Vec::with_capacity(256);
            tracer
                .time("http.write_response", id, parent, || {
                    write_response(&mut out, &response, true)
                })
                .expect("writing into a Vec cannot fail");
        }
        tracer.close(root);
    }
}

/// One replayed request up to its response; `None` if a layer refused it
/// (the generated streams never produce such requests).
#[allow(clippy::too_many_arguments)]
fn replay_one(
    tracer: &mut Tracer,
    id: u64,
    parent: Option<usize>,
    bytes: &[u8],
    kind: Kind,
    cache: &mut LruCache,
    generation: u64,
    models: &[Option<std::sync::Arc<airchitect_serve::reload::LoadedModel>>],
) -> Option<Response> {
    let Ok(Parsed::Complete { request, .. }) =
        tracer.time("http.try_parse", id, parent, || try_parse(bytes))
    else {
        return None;
    };
    let case = kind.case();
    let parsed = tracer
        .time("router.parse_recommend", id, parent, || {
            parse_recommend(case, &request.body)
        })
        .ok()?;
    if let Some(cached) = tracer.time("cache.get", id, parent, || {
        cache.get(&parsed.cache_key, generation)
    }) {
        return Some(Response::json(
            200,
            format!("{{\"cached\":true,{}", cached.body_tail),
        ));
    }
    let model = models[crate::run::slot(case)].as_deref()?;
    let outcome = if parsed.topk == 0 {
        tracer.time("batch.execute_fast", id, parent, || {
            execute_fast(model, &parsed.query)
        })
    } else {
        tracer.time("batch.execute", id, parent, || {
            execute(model, &parsed.query, parsed.topk)
        })
    };
    let Outcome::Ok { body_tail, .. } = outcome else {
        return None;
    };
    let body = format!("{{\"cached\":false,{body_tail}");
    let key = parsed.cache_key;
    tracer.time("cache.put", id, parent, || {
        cache.put(
            key,
            CachedResponse {
                body_tail,
                generation,
            },
        )
    });
    Some(Response::json(200, body))
}

/// Per-call costs of the inference paths, the fallback oracle, reload,
/// model load and int8 compilation, timed on a probe set drawn from the
/// cold mix (the same for every workload, so these layer numbers compare
/// across workloads).
pub fn probe_layers(
    tracer: &mut Tracer,
    seed: u64,
    per_kind: usize,
    hub: &ModelHub,
    paths: &[&Path],
) {
    let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
    let oracle = Oracle::new();
    for (id, request) in RequestStream::new(Workload::ServeCold, seed).enumerate() {
        if counts.len() == COLD_MIX.len() && counts.values().all(|&c| c >= per_kind) {
            break;
        }
        let seen = counts.entry(request.kind).or_default();
        if *seen >= per_kind {
            continue;
        }
        *seen += 1;
        let id = id as u64;
        let case = request.kind.case();
        let (Ok(parsed), Some(model)) = (
            parse_recommend(case, request.body.as_bytes()),
            hub.get(case),
        ) else {
            continue;
        };
        let (fast, slow) = match request.kind {
            Kind::Cs1Top1 => ("batch.execute_fast.cs1", "batch.execute.cs1"),
            Kind::Cs2Top1 => ("batch.execute_fast.cs2", "batch.execute.cs2"),
            Kind::Cs3Top1 => ("batch.execute_fast.cs3", "batch.execute.cs3"),
            Kind::Cs1Top8 => {
                tracer.time("batch.execute_topk8.cs1", id, None, || {
                    execute(&model, &parsed.query, 8)
                });
                continue;
            }
        };
        tracer.time(fast, id, None, || execute_fast(&model, &parsed.query));
        tracer.time(slow, id, None, || execute(&model, &parsed.query, 0));
        if request.kind == Kind::Cs1Top1 {
            tracer.time("fallback.oracle.cs1", id, None, || {
                oracle.answer(&parsed.query, 0)
            });
        }
    }
    for _ in 0..5 {
        tracer.time("reload", 0, None, || {
            hub.reload().expect("model files are intact")
        });
        let loaded = tracer.time("persist.load", 0, None, || {
            paths
                .iter()
                .map(|p| persist::load(p).expect("model files are intact"))
                .collect::<Vec<_>>()
        });
        tracer.time("quant.compile", 0, None, || {
            loaded
                .iter()
                .map(|m| QuantizedNetwork::from_network(m.network()).is_ok())
                .collect::<Vec<_>>()
        });
    }
}
