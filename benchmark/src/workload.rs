//! The serving workloads: which requests each sends, at which rates, and
//! why. A request stream is a pure function of `(workload, seed)`; the
//! server only ever sees the rendered HTTP bytes.

use airchitect::model::CaseStudy;
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CS1 top-1 over 256 Zipf(1.1) keys: the cache answers nearly all.
    ServeHot,
    /// Every key unique, mixed case studies and a ranked slice.
    ServeCold,
    /// `ServeHot` plus hot reloads and a shadow oracle.
    ServeChurn,
}

/// Offered rates in requests per second, calibrated once on a 2-core box
/// and never adapted during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// The fixed `low` phase.
    pub low: f64,
    /// The fixed `high` phase.
    pub high: f64,
    /// Lower end of the `max_rps` bisection bracket.
    pub probe_lo: f64,
    /// Upper end of the `max_rps` bisection bracket.
    pub probe_hi: f64,
    /// Windowed p99 a bisection probe must stay within, µs.
    pub p99_limit_us: f64,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeChurn,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The calibrated rates.
    pub fn rates(self) -> Rates {
        let hot = Rates {
            low: 2_000.0,
            high: 20_000.0,
            probe_lo: 20_000.0,
            probe_hi: 320_000.0,
            p99_limit_us: 5_000.0,
        };
        match self {
            Workload::ServeHot => hot,
            // Each reload holds one event loop for about 20 ms, twice a
            // second, so no rate keeps p99 within 5 ms here; the limit is
            // one a reload stall fits in, leaving `max_rps` a measure of
            // the read path under reloads.
            Workload::ServeChurn => Rates {
                p99_limit_us: 50_000.0,
                ..hot
            },
            Workload::ServeCold => Rates {
                low: 1_000.0,
                high: 3_000.0,
                probe_lo: 4_000.0,
                probe_hi: 64_000.0,
                p99_limit_us: 5_000.0,
            },
        }
    }

    /// Whether the mix repeats keys (and so is answered from the cache).
    pub fn is_hot(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeChurn)
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// CS1 array shape + dataflow, top-1.
    Cs1Top1,
    /// CS2 buffer split, top-1.
    Cs2Top1,
    /// CS3 schedule, top-1.
    Cs3Top1,
    /// CS1 ranked list of 8.
    Cs1Top8,
}

impl Kind {
    /// The route it is sent to.
    pub fn path(self) -> &'static str {
        match self {
            Kind::Cs1Top1 | Kind::Cs1Top8 => "/v1/recommend/array",
            Kind::Cs2Top1 => "/v1/recommend/buffers",
            Kind::Cs3Top1 => "/v1/recommend/schedule",
        }
    }

    /// The case study answering it.
    pub fn case(self) -> CaseStudy {
        match self {
            Kind::Cs1Top1 | Kind::Cs1Top8 => CaseStudy::ArrayDataflow,
            Kind::Cs2Top1 => CaseStudy::BufferSizing,
            Kind::Cs3Top1 => CaseStudy::MultiArrayScheduling,
        }
    }
}

/// Share of each kind in `ServeCold`, in eighths: 4 CS1, 2 CS2, 1 CS3,
/// 1 ranked CS1.
pub const COLD_MIX: [(Kind, f64); 4] = [
    (Kind::Cs1Top1, 0.5),
    (Kind::Cs2Top1, 0.25),
    (Kind::Cs3Top1, 0.125),
    (Kind::Cs1Top8, 0.125),
];

/// Distinct keys of the hot mixes.
pub const HOT_KEYS: usize = 256;
/// Zipf exponent of the hot key popularity.
pub const ZIPF_S: f64 = 1.1;

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What it asks for.
    pub kind: Kind,
    /// The hot key it repeats, if any.
    pub key: Option<u32>,
    /// The JSON body.
    pub body: String,
}

impl Request {
    /// Appends the request as HTTP/1.1 bytes (keep-alive is the default).
    pub fn write_http(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"POST ");
        out.extend_from_slice(self.kind.path().as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\nContent-Length: ");
        out.extend_from_slice(self.body.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(self.body.as_bytes());
    }
}

/// The deterministic request stream of one workload and seed.
pub struct RequestStream {
    workload: Workload,
    rng: StdRng,
    sampler: CnnWorkloadSampler,
    hot_bodies: Vec<String>,
    zipf_cdf: Vec<f64>,
    index: u64,
}

const KEYS_SALT: u64 = 0x6b65_7973;
const STREAM_SALT: u64 = 0x7374_7265_616d;

fn cs1_body(wl: &GemmWorkload, budget_log2: u32, topk: usize) -> String {
    let mut body = format!(
        "{{\"m\":{},\"n\":{},\"k\":{},\"mac_budget\":{}",
        wl.m(),
        wl.n(),
        wl.k(),
        1u64 << budget_log2
    );
    if topk > 0 {
        body.push_str(&format!(",\"topk\":{topk}"));
    }
    body.push('}');
    body
}

/// A dimension unique to stream index `i` for the first 2^22 requests:
/// multiplication by an odd constant is a bijection modulo a power of two.
fn unique_dim(i: u64) -> u64 {
    64 + (i.wrapping_mul(0x9E37_79B9) & ((1 << 22) - 1))
}

fn with_m(wl: &GemmWorkload, m: u64) -> GemmWorkload {
    GemmWorkload::new(m, wl.n(), wl.k()).expect("dims are positive")
}

impl RequestStream {
    /// The stream for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let sampler = CnnWorkloadSampler::new();
        let mut hot_bodies = Vec::new();
        let mut zipf_cdf = Vec::new();
        if workload.is_hot() {
            let mut rng = StdRng::seed_from_u64(seed ^ KEYS_SALT);
            while hot_bodies.len() < HOT_KEYS {
                let body = cs1_body(&sampler.sample(&mut rng), rng.random_range(10..=18), 0);
                if !hot_bodies.contains(&body) {
                    hot_bodies.push(body);
                }
            }
            let weights: Vec<f64> = (1..=HOT_KEYS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            zipf_cdf = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
        }
        Self {
            workload,
            rng: StdRng::seed_from_u64(seed ^ STREAM_SALT),
            sampler,
            hot_bodies,
            zipf_cdf,
            index: 0,
        }
    }

    /// Index the next request will have.
    pub fn position(&self) -> u64 {
        self.index
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let i = self.index;
        self.index += 1;
        if self.workload.is_hot() {
            let u: f64 = self.rng.random();
            let key = self.zipf_cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
            return Some(Request {
                kind: Kind::Cs1Top1,
                key: Some(key as u32),
                body: self.hot_bodies[key].clone(),
            });
        }
        let rng = &mut self.rng;
        let kind = match rng.random_range(0..8u32) {
            0..=3 => Kind::Cs1Top1,
            4..=5 => Kind::Cs2Top1,
            6 => Kind::Cs3Top1,
            _ => Kind::Cs1Top8,
        };
        let wl = with_m(&self.sampler.sample(rng), unique_dim(i));
        let body = match kind {
            Kind::Cs1Top1 | Kind::Cs1Top8 => cs1_body(
                &wl,
                rng.random_range(10..=18),
                if kind == Kind::Cs1Top8 { 8 } else { 0 },
            ),
            Kind::Cs2Top1 => format!(
                "{{\"m\":{},\"n\":{},\"k\":{},\"rows\":{},\"cols\":{},\"dataflow\":\"{}\",\"bandwidth\":{},\"limit_kb\":{}}}",
                wl.m(),
                wl.n(),
                wl.k(),
                1u64 << rng.random_range(2..=9u32),
                1u64 << rng.random_range(2..=9u32),
                ["os", "ws", "is"][rng.random_range(0..3usize)],
                rng.random_range(1..=100u64),
                rng.random_range(300..=3000u64),
            ),
            Kind::Cs3Top1 => {
                let mut wls = vec![wl];
                wls.extend(self.sampler.sample_many(3, rng));
                let items: Vec<String> = wls
                    .iter()
                    .map(|w| format!("{{\"m\":{},\"n\":{},\"k\":{}}}", w.m(), w.n(), w.k()))
                    .collect();
                format!("{{\"workloads\":[{}]}}", items.join(","))
            }
        };
        Some(Request {
            kind,
            key: None,
            body,
        })
    }
}
