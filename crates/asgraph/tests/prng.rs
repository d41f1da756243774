//! Pins the vendored PRNG stream. Every generated world, fault plan
//! and sampled adopter set descends from `StdRng::seed_from_u64`, so a
//! change to that stream moves every number the experiments print —
//! not only within their qualitative regimes (at n = 1,000 the
//! `random29` adopter set once read 0.952 at θ = 5% and reads 0.202
//! on the current stream). The vendored crate's own tests do not run
//! under `cargo test` at the workspace root; this one does, so a PRNG
//! swap has to be a deliberate act.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn first_four(seed: u64) -> [u64; 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    [(); 4].map(|_| rng.next_u64())
}

#[test]
fn std_rng_stream_is_frozen() {
    assert_eq!(
        first_four(42),
        [
            0xd076_4d4f_4476_689f,
            0x519e_4174_576f_3791,
            0xfbe0_7cfb_0c24_ed8c,
            0xb37d_9f60_0cd8_35b8,
        ]
    );
    assert_eq!(
        first_four(7),
        [
            0x0e2c_1a00_2aae_913d,
            0x2c0f_c8dd_fa4e_9e14,
            0xb7b3_11b3_b0d4_5872,
            0x6d5d_9f6a_6318_013c,
        ]
    );
}
