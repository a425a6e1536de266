//! Section 8 — energy consumption analysis.
//!
//! Paper: with the E-MiLi device power model (TX 1.71 W, RX 1.66 W,
//! idle 1.22 W), Bloom false positives cost at most 5.59% extra RX time
//! (8 receivers), hence at most 5.59% x 5% = 0.28% extra node energy for
//! typical clients — while aggregation lets non-addressed Carpool nodes
//! idle through foreign subframes, saving energy overall.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool::energy::{
    compare_energy, energy_overhead_bound, false_positive_rx_overhead, psm_savings,
    DevicePowerModel, PSM_SLEEP_W,
};
use carpool_bench::{banner, run_mac, voip_config};
use carpool_mac::protocol::Protocol;

fn main() {
    banner("§8 (analysis)", "A-HDR false-positive energy bounds");
    println!(
        "{:>4} {:>16} {:>22}",
        "N", "extra RX time", "extra node energy"
    );
    for n in [4usize, 6, 8] {
        println!(
            "{n:>4} {:>15.2}% {:>21.3}%",
            false_positive_rx_overhead(n, 4) * 100.0,
            energy_overhead_bound(n, 4, 0.90) * 100.0
        );
    }
    println!("paper: ≤5.59% extra RX, ≤0.28% extra node energy at N=8");

    banner(
        "§8 (simulation)",
        "mean client power in the 30-STA VoIP scenario (E-MiLi model)",
    );
    let model = DevicePowerModel::E_MILI;
    let carpool = run_mac(voip_config(Protocol::Carpool, 30, 7));
    let legacy = run_mac(voip_config(Protocol::Dot11, 30, 7));
    let avg = |report: &carpool_mac::SimReport| {
        let shares = &report.sta_airtime;
        let sum: f64 = shares.iter().map(|s| model.mean_power_w(s)).sum();
        sum / shares.len() as f64
    };
    let p_carpool = avg(&carpool);
    let p_dot11 = avg(&legacy);
    println!("mean client power, 802.11 : {p_dot11:.3} W");
    println!("mean client power, Carpool: {p_carpool:.3} W");
    let (b, c, change) = compare_energy(&model, &legacy.sta_airtime[0], &carpool.sta_airtime[0]);
    println!(
        "client 0 energy over {:.0} s: 802.11 {b:.1} J vs Carpool {c:.1} J ({:+.1}%)",
        carpool.duration_s,
        change * 100.0
    );
    let psm = |report: &carpool_mac::SimReport| {
        let shares = &report.sta_airtime;
        shares
            .iter()
            .map(|s| psm_savings(&model, s, PSM_SLEEP_W))
            .sum::<f64>()
            / shares.len() as f64
    };
    println!(
        "potential PSM savings: 802.11 {:.0}%, Carpool {:.0}% (Carpool nodes idle more)",
        psm(&legacy) * 100.0,
        psm(&carpool) * 100.0
    );
    println!("paper: Carpool nodes idle more (A-HDR early drop) and can enter PSM sooner");
    assert!(
        p_carpool <= p_dot11 * 1.01,
        "Carpool should not cost more power"
    );
    assert!(psm(&carpool) >= psm(&legacy) - 0.01, "Carpool PSM upside");
}
