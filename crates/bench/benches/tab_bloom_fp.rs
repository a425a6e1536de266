//! Section 4.1 analysis — A-HDR false positives and header overhead.
//!
//! Paper: with the optimal h = (48/N) ln 2, the false positive ratio
//! spans 0.31%–5.59% for 4–8 receivers; the implementation fixes h = 4;
//! the A-HDR costs 12.5% of listing eight 48-bit MAC addresses.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::banner;
use carpool_bloom::analysis::{
    ahdr_overhead_vs_explicit, false_positive_ratio, measure_false_positive_ratio,
    optimal_false_positive_ratio, optimal_hash_count,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner("§4.1", "coded Bloom filter false positive analysis");
    println!(
        "{:>4} {:>10} {:>14} {:>14} {:>14}",
        "N", "opt h", "r_FP @ opt h", "r_FP @ h=4", "measured h=4"
    );
    let mut rng = StdRng::seed_from_u64(11);
    for n in 1..=8usize {
        let measured = measure_false_positive_ratio(4, n, 30_000, &mut rng);
        println!(
            "{n:>4} {:>10.2} {:>13.2}% {:>13.2}% {:>13.2}%",
            optimal_hash_count(n),
            optimal_false_positive_ratio(n) * 100.0,
            false_positive_ratio(4, n) * 100.0,
            measured * 100.0
        );
    }
    println!();
    println!(
        "A-HDR overhead vs explicit 8 x 48-bit addresses: {:.1}% (paper: 12.5%)",
        ahdr_overhead_vs_explicit(8) * 100.0
    );
    println!("paper: r_FP ranges 0.31% (N=4) to 5.59% (N=8) at the optimal h");

    let low = optimal_false_positive_ratio(4);
    let high = optimal_false_positive_ratio(8);
    assert!((low - 0.0031).abs() < 0.0005);
    assert!((high - 0.0559).abs() < 0.001);
}
