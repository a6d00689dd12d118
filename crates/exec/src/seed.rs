//! Seed splitting: one independent RNG stream per task index.
//!
//! Parallel random-pattern generation must not depend on which worker thread
//! runs which task, so a single master seed is *split* into per-task seeds by
//! a strong 64-bit mix (the SplitMix64 finalizer, applied twice over the
//! seed/stream combination). Each task then seeds its own generator from its
//! split seed — the stream assignment is a pure function of `(seed, index)`.

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of stream `stream` from the master `seed`.
///
/// The mapping is a pure function: the same `(seed, stream)` pair always
/// yields the same split seed, regardless of thread count or call order.
/// Distinct streams of one master seed are decorrelated by two rounds of the
/// SplitMix64 finalizer over the golden-ratio-weighted stream index.
#[must_use]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let z = seed ^ mix(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_deterministic_and_stream_sensitive() {
        assert_eq!(split_seed(42, 0), split_seed(42, 0));
        assert_ne!(split_seed(42, 0), split_seed(42, 1));
        assert_ne!(split_seed(42, 0), split_seed(43, 0));
        // Stream 0 is not the identity on the master seed.
        assert_ne!(split_seed(42, 0), 42);
    }

    #[test]
    fn neighbouring_streams_share_no_obvious_structure() {
        let a = split_seed(7, 100);
        let b = split_seed(7, 101);
        // Avalanche: roughly half the bits should differ.
        let differing = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "only {differing} bits differ"
        );
    }
}
