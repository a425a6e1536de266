//! Fig. 1 — Traffic statistics in public WLANs.
//!
//! (a) concurrent downlink requests: active STAs per AP over 300 s,
//!     library trace mean 7.63;
//! (b) frame-size CDF of the SIGCOMM and library traces;
//! (c) downlink traffic-volume ratio of the three traces.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::banner;
use carpool_traffic::activity::{ActivityProcess, LIBRARY_MEAN_ACTIVE};
use carpool_traffic::framesize::FrameSizeDistribution;
use carpool_traffic::stats::{empirical_cdf, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);

    banner(
        "Fig 1(a)",
        "concurrent downlink requests (active STAs per AP)",
    );
    let series = ActivityProcess::library().sample_series(300, &mut rng);
    let mean = series.iter().sum::<usize>() as f64 / series.len() as f64;
    println!("paper: fluctuates ~2..14, mean 7.63 over 300 s");
    print!("measured series (1 sample / 10 s):");
    for v in series.iter().step_by(10) {
        print!(" {v}");
    }
    println!();
    println!("measured mean over 300 s: {mean:.2} (target {LIBRARY_MEAN_ACTIVE})");

    banner("Fig 1(b)", "frame size CDF (SIGCOMM vs library)");
    let thresholds = [100usize, 200, 300, 600, 1000, 1400, 1500];
    println!("{:>10} {:>10} {:>10}", "bytes", "SIGCOMM", "Library");
    let mut rng2 = StdRng::seed_from_u64(2);
    let sig: Vec<usize> = (0..100_000)
        .map(|_| FrameSizeDistribution::sigcomm().sample(&mut rng2))
        .collect();
    let lib: Vec<usize> = (0..100_000)
        .map(|_| FrameSizeDistribution::library().sample(&mut rng2))
        .collect();
    let sig_cdf = empirical_cdf(&sig, &thresholds);
    let lib_cdf = empirical_cdf(&lib, &thresholds);
    for ((t, s), l) in thresholds.iter().zip(sig_cdf).zip(lib_cdf) {
        println!("{t:>10} {s:>10.3} {l:>10.3}");
    }
    println!("paper anchors: >50% (SIGCOMM) and >90% (library) below 300 B");

    banner("Fig 1(c)", "ratio of downlink traffic volume");
    println!("{:>12} {:>10}", "trace", "downlink");
    for t in Trace::ALL {
        println!("{:>12} {:>9.1}%", t.name(), t.downlink_ratio() * 100.0);
    }
    println!("paper: 80% / 83.4% / 89.2%");
}
