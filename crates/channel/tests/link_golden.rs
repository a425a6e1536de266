//! Golden hashes of `LinkChannel::transmit`'s output, bit for bit.
//!
//! Every combination of the link's stages runs on one link per case:
//! flat and multipath delay profiles; time-varying, static and no
//! fading; CFO on and off; AWGN on and off. Each link takes an empty
//! frame, a 1-sample frame, a frame whose length is a multiple of
//! neither the CFO's 64-sample anchor blocks nor the 80-sample fading
//! updates, then three more frames in a row, so the fading state, the
//! CFO phase and the RNG carry across calls. The output's `f64` bit
//! patterns, call by call, are hashed (FNV-1a) against values taken
//! from the staged implementation that ran fading, CFO, the power
//! measurement and AWGN as four passes over the frame. A change to any
//! output bit, the noise stream or the RNG's draw order fails here.

use carpool_channel::fading::DelayProfile;
use carpool_channel::link::LinkChannel;
use carpool_phy::math::Complex64;

/// Frame lengths of the calls each link makes, in order.
const CALLS: [usize; 6] = [0, 1, 1999, 250, 250, 333];

/// A test signal with a varying envelope, so multipath, CFO and the
/// power measurement all see more than a constant modulus.
fn frame(len: usize, offset: usize) -> Vec<Complex64> {
    (offset..offset + len)
        .map(|k| {
            let k = k as f64;
            Complex64::cis(k * 0.11).scale(0.6 + 0.4 * (k * 0.013).sin())
        })
        .collect()
}

/// FNV-1a over the bit patterns of every output, with each call's length
/// folded in ahead of its samples.
fn hash_calls(link: &mut LinkChannel) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let mut offset = 0;
    for len in CALLS {
        let out = link.transmit(&frame(len, offset));
        assert_eq!(out.len(), len);
        eat(len as u64);
        for s in out {
            eat(s.re.to_bits());
            eat(s.im.to_bits());
        }
        offset += len;
    }
    h
}

#[derive(Debug, Clone, Copy)]
enum Fading {
    TimeVarying,
    Static,
    None,
}

/// The link of one case; the seed differs per case.
fn link(multipath: bool, fading: Fading, cfo: bool, awgn: bool, seed: u64) -> LinkChannel {
    let mut b = LinkChannel::builder();
    b.seed(seed);
    if multipath {
        b.profile(DelayProfile::exponential(5, 0.5));
    }
    match fading {
        // A short coherence time and a Rician first tap: the taps move
        // every update and the line-of-sight path is drawn.
        Fading::TimeVarying => {
            b.coherence_time(2e-4).rician_k(4.0);
        }
        Fading::Static => {
            b.static_fading();
        }
        Fading::None => {}
    }
    if cfo {
        // 40 kHz turns the phase through several wraps of (-pi, pi]
        // over the six calls.
        b.cfo_hz(40_000.0);
    }
    if awgn {
        b.snr_db(18.0);
    }
    b.build()
}

/// Expected hash per case, in the order [`cases`] walks them. Without
/// fading the profile is unused, so those cases of the two profiles
/// share their hashes.
const GOLDEN: [u64; 24] = [
    0xddbc_20a1_c775_a21f,
    0x5ba9_4f76_063f_7b44,
    0xb074_770c_bd64_025d,
    0x24ad_44cb_1bad_1a75,
    0xd618_5d2a_e06c_bbfc,
    0x1bef_5fe6_85d2_b219,
    0x97ed_32d8_0efb_dfe0,
    0x7249_478a_3c32_1e89,
    0x39c0_b67d_4b8b_b94f,
    0xe5a1_89d7_2114_42b0,
    0x5268_eb6d_4101_c465,
    0x8119_b6d8_f16a_2196,
    0x9017_0cb6_c1fa_15ea,
    0x272e_03f2_b60e_4478,
    0xd677_d8a5_abf2_14ea,
    0x0efa_3028_7721_3f45,
    0x60bb_6f48_a882_37be,
    0xe52a_7985_51f3_f278,
    0x529a_e133_f9e6_f551,
    0xe186_7a33_bef7_66ce,
    0x39c0_b67d_4b8b_b94f,
    0xa4e0_cabe_e124_03c1,
    0x5268_eb6d_4101_c465,
    0xbc93_045a_f9e0_702f,
];

/// Every case: profile, fading, CFO and AWGN, outermost first.
fn cases() -> Vec<(bool, Fading, bool, bool)> {
    let mut out = Vec::new();
    for multipath in [false, true] {
        for fading in [Fading::TimeVarying, Fading::Static, Fading::None] {
            for cfo in [false, true] {
                for awgn in [false, true] {
                    out.push((multipath, fading, cfo, awgn));
                }
            }
        }
    }
    out
}

#[test]
fn transmit_output_matches_the_golden_hashes() {
    let mut got = Vec::new();
    for (i, (multipath, fading, cfo, awgn)) in cases().into_iter().enumerate() {
        let mut link = link(multipath, fading, cfo, awgn, 1_000 + i as u64);
        got.push(hash_calls(&mut link));
    }
    let rendered: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(got, GOLDEN, "hashes: [{}]", rendered.join(", "));
}
