//! SplitMix64, the one seeded-RNG helper of the stack: span ids, retry
//! jitter, fault masks, cache-hit sampling, trajectory batch seeds and the
//! load generator all draw from it, so each stream depends only on its seed.

/// The SplitMix64 increment, the odd integer nearest 2⁶⁴/φ; also a good
/// multiplier for spreading a small index over 64 bits.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijective mix in which every input bit
/// affects every output bit. For values derived from a counter or seed.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Advances a SplitMix64 state by one step and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_pinned() {
        let stream = |seed: u64| {
            let mut state = seed;
            [splitmix64(&mut state), splitmix64(&mut state), splitmix64(&mut state)]
        };
        assert_eq!(
            stream(0),
            [16_294_208_416_658_607_535, 7_960_286_522_194_355_700, 487_617_019_471_545_679]
        );
        assert_eq!(
            stream(42),
            [13_679_457_532_755_275_413, 2_949_826_092_126_892_291, 5_139_283_748_462_763_858]
        );
    }

    #[test]
    fn stepping_is_the_finalizer_of_the_advanced_state() {
        let mut state = 7;
        let first = splitmix64(&mut state);
        assert_eq!(state, 7 + GOLDEN_GAMMA);
        assert_eq!(first, mix64(7 + GOLDEN_GAMMA));
        assert_eq!(mix64(0), 0, "the finalizer fixes zero");
    }
}
