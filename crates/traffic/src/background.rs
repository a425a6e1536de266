//! Uplink/downlink background traffic matched to the SIGCOMM'08 trace.
//!
//! Paper Section 7.2.2: "We inject UDP/TCP traffic according to
//! SIGCOMM'08 trace, where the average inter-packet arrival times for
//! TCP and UDP are 47 ms and 88 ms, respectively. The frame size
//! distribution of the SIGCOMM'08 trace is depicted in Fig. 1(b)."
//!
//! Arrivals are Poisson at the published mean rates; frame sizes come
//! from the SIGCOMM CDF ([`crate::framesize`]).

use crate::framesize::FrameSizeDistribution;
use crate::voip::{exponential, Arrival};
use rand::Rng;

/// Mean TCP inter-packet arrival time in the SIGCOMM'08 trace.
pub(crate) const TCP_INTERARRIVAL_S: f64 = 0.047;
/// Mean UDP inter-packet arrival time in the SIGCOMM'08 trace.
pub(crate) const UDP_INTERARRIVAL_S: f64 = 0.088;

/// Transport protocol of a background flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP-like stream (47 ms mean inter-arrival).
    Tcp,
    /// UDP-like stream (88 ms mean inter-arrival).
    Udp,
}

impl Transport {
    /// Mean inter-arrival time of this transport in the trace.
    fn mean_interarrival(&self) -> f64 {
        match self {
            Transport::Tcp => TCP_INTERARRIVAL_S,
            Transport::Udp => UDP_INTERARRIVAL_S,
        }
    }
}

/// A Poisson background source with trace-matched frame sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundSource {
    transport: Transport,
    sizes: FrameSizeDistribution,
    rate_scale: f64,
}

impl BackgroundSource {
    /// A source matching the SIGCOMM'08 statistics for `transport`.
    pub fn new(transport: Transport) -> BackgroundSource {
        BackgroundSource {
            transport,
            sizes: FrameSizeDistribution::sigcomm(),
            rate_scale: 1.0,
        }
    }

    /// Scales the arrival rate (1.0 = trace level; >1 = busier).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_rate_scale(mut self, scale: f64) -> BackgroundSource {
        assert!(scale > 0.0, "rate scale must be positive");
        self.rate_scale = scale;
        self
    }

    /// The transport this source emulates.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Mean offered load in bit/s.
    pub fn mean_rate_bps(&self) -> f64 {
        self.sizes.mean() * 8.0 * self.rate_scale / self.transport.mean_interarrival()
    }

    /// Generates all arrivals in `[0, duration)`.
    pub fn generate<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Vec<Arrival> {
        let mean = self.transport.mean_interarrival() / self.rate_scale;
        let mut arrivals = Vec::new();
        let mut t = exponential(mean, rng);
        while t < duration {
            arrivals.push(Arrival {
                time: t,
                bytes: self.sizes.sample(rng),
            });
            t += exponential(mean, rng);
        }
        arrivals
    }
}

/// Merges several arrival streams into one time-ordered stream, tagging
/// each arrival with its source index.
#[cfg(test)]
fn merge_streams(streams: &[Vec<Arrival>]) -> Vec<(usize, Arrival)> {
    let mut merged: Vec<(usize, Arrival)> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, s)| s.iter().map(move |a| (k, *a)))
        .collect();
    // total_cmp orders finite times identically to partial_cmp and is total.
    merged.sort_by(|a, b| a.1.time.total_cmp(&b.1.time));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interarrival_means_match_trace() {
        let mut rng = StdRng::seed_from_u64(6);
        for (transport, mean) in [
            (Transport::Tcp, TCP_INTERARRIVAL_S),
            (Transport::Udp, UDP_INTERARRIVAL_S),
        ] {
            let arrivals = BackgroundSource::new(transport).generate(2_000.0, &mut rng);
            let measured = 2_000.0 / arrivals.len() as f64;
            assert!(
                (measured - mean).abs() < mean * 0.05,
                "{transport:?}: {measured}"
            );
        }
    }

    #[test]
    fn tcp_is_busier_than_udp() {
        let tcp = BackgroundSource::new(Transport::Tcp);
        let udp = BackgroundSource::new(Transport::Udp);
        assert!(tcp.mean_rate_bps() > udp.mean_rate_bps());
    }

    #[test]
    fn rate_scale_multiplies_arrivals() {
        let mut rng = StdRng::seed_from_u64(10);
        let base = BackgroundSource::new(Transport::Udp)
            .generate(1_000.0, &mut rng)
            .len() as f64;
        let scaled = BackgroundSource::new(Transport::Udp)
            .with_rate_scale(3.0)
            .generate(1_000.0, &mut rng)
            .len() as f64;
        assert!((scaled / base - 3.0).abs() < 0.3, "ratio {}", scaled / base);
    }

    #[test]
    fn arrivals_sorted_and_sized_from_cdf() {
        let mut rng = StdRng::seed_from_u64(12);
        let arrivals = BackgroundSource::new(Transport::Tcp).generate(100.0, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(arrivals.iter().all(|a| (40..=1500).contains(&a.bytes)));
    }

    #[test]
    fn merge_is_globally_ordered() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = BackgroundSource::new(Transport::Tcp).generate(50.0, &mut rng);
        let b = BackgroundSource::new(Transport::Udp).generate(50.0, &mut rng);
        let merged = merge_streams(&[a.clone(), b.clone()]);
        assert_eq!(merged.len(), a.len() + b.len());
        for w in merged.windows(2) {
            assert!(w[0].1.time <= w[1].1.time);
        }
    }

    #[test]
    fn empty_duration_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(BackgroundSource::new(Transport::Udp)
            .generate(0.0, &mut rng)
            .is_empty());
    }
}
