//! Output correctness: every 200 the server sent is checked against the
//! answer computed in-process from the same model files.
//!
//! A top-1 request may be answered by the int8 bypass or by the f32 batch
//! path depending on timing, so either reference is accepted. The `cached`
//! flag and the model `generation` are stripped before hashing, so a cached
//! answer must equal the uncached one and a reload of identical files
//! changes nothing.

use std::collections::HashMap;

use airchitect_serve::batch::{execute, execute_fast, Outcome};
use airchitect_serve::reload::ModelHub;
use airchitect_serve::router::parse_recommend;

use crate::workload::{RequestStream, Workload};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Removes `"<field>":<value>,` from a flat JSON object text.
fn strip_field(text: &str, field: &str) -> String {
    let Some(at) = text.find(field) else {
        return text.to_string();
    };
    let rest = &text[at + field.len()..];
    let end = rest.find(',').map_or(rest.len(), |i| i + 1);
    format!("{}{}", &text[..at], &rest[end..])
}

/// Hash of a 200 body with the volatile `cached` and `generation` fields
/// removed; never 0, which marks "no answer".
pub fn response_hash(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    let text = strip_field(&strip_field(&text, "\"cached\":"), "\"generation\":");
    fnv1a(text.bytes()).max(1)
}

fn outcome_hash(outcome: Outcome) -> Option<u64> {
    match outcome {
        Outcome::Ok { body_tail, .. } => Some(response_hash(
            format!("{{\"cached\":false,{body_tail}").as_bytes(),
        )),
        Outcome::Err { .. } => None,
    }
}

/// What the check found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Answers compared.
    pub checked: u64,
    /// Answers matching neither reference.
    pub wrong: u64,
    /// The first wrong request body, for the report.
    pub first_wrong: Option<String>,
}

/// Regenerates the request stream of `workload` and `seed` and checks every
/// recorded answer hash (`outcomes[i]` is the hash of request `i`'s 200,
/// or 0 when it had none) against references from the models in `hub`.
pub fn check(workload: Workload, seed: u64, outcomes: &[u64], hub: &ModelHub) -> Verdict {
    let mut verdict = Verdict::default();
    // Hot keys repeat, so their references are computed once:
    // (int8 answer, f32 answer once it was needed).
    let mut memo: HashMap<u32, (Option<u64>, Option<Option<u64>>)> = HashMap::new();
    for (request, &observed) in RequestStream::new(workload, seed).zip(outcomes) {
        if observed == 0 {
            continue;
        }
        verdict.checked += 1;
        let case = request.kind.case();
        let ok = match (
            parse_recommend(case, request.body.as_bytes()),
            hub.get(case),
        ) {
            (Ok(parsed), Some(model)) => {
                let fast = || outcome_hash(execute_fast(&model, &parsed.query));
                let slow = || outcome_hash(execute(&model, &parsed.query, parsed.topk));
                if parsed.topk > 0 {
                    slow() == Some(observed)
                } else if let Some(key) = request.key {
                    let refs = memo.entry(key).or_insert_with(|| (fast(), None));
                    refs.0 == Some(observed) || *refs.1.get_or_insert_with(slow) == Some(observed)
                } else {
                    fast() == Some(observed) || slow() == Some(observed)
                }
            }
            _ => false,
        };
        if !ok {
            verdict.wrong += 1;
            verdict.first_wrong.get_or_insert(request.body);
        }
    }
    verdict
}
