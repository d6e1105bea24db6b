//! Deterministic request sampling.
//!
//! Sampling hashes the request's canonical cache key (FNV-1a folded through
//! a splitmix64 finalizer, the same construction as the cluster router's
//! ring) and admits the request when the hash lands under the configured
//! parts-per-million threshold. The decision is a pure function of the
//! query bytes, so replicas sample consistently, reruns are reproducible,
//! and a hot query is either always or never sampled at a given rate.

/// Denominator of the sampling rate: decisions are made in parts per
/// million.
pub const PPM: u64 = 1_000_000;

/// Convert a `0.0..=1.0` sampling rate to parts per million.
pub fn rate_to_ppm(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * PPM as f64).round() as u32
}

/// 64-bit hash of a canonical query key: FNV-1a over the bytes, then a
/// splitmix64 finalizer to spread the low bits the modulo below consumes.
pub fn hash_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic sampling decision for a canonical query key.
pub fn sampled(key: &[u8], rate_ppm: u32) -> bool {
    if rate_ppm == 0 {
        return false;
    }
    if u64::from(rate_ppm) >= PPM {
        return true;
    }
    hash_key(key) % PPM < u64::from(rate_ppm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        assert!(!sampled(b"anything", 0));
        assert!(sampled(b"anything", PPM as u32));
        let rate = rate_to_ppm(0.25);
        let mut hits = 0;
        for i in 0..10_000u32 {
            let key = i.to_le_bytes();
            let first = sampled(&key, rate);
            assert_eq!(first, sampled(&key, rate));
            hits += usize::from(first);
        }
        // 25% ± generous slack; the hash is fixed so this is deterministic.
        assert!((1_700..=3_300).contains(&hits), "hits={hits}");
    }
}
