//! Aggregate trace statistics (paper Fig. 1(c) and Section 2).

/// Published downlink traffic-volume ratios of the three traces
/// (paper Fig. 1(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trace {
    /// SIGCOMM 2004 hotspot trace.
    Sigcomm04,
    /// SIGCOMM 2008 trace.
    Sigcomm08,
    /// The paper's campus library measurement (IEEE 802.11n WLAN).
    Library,
}

impl Trace {
    /// All traces cited by the paper.
    pub const ALL: [Trace; 3] = [Trace::Sigcomm04, Trace::Sigcomm08, Trace::Library];

    /// Fraction of traffic volume that is downlink.
    pub fn downlink_ratio(&self) -> f64 {
        match self {
            Trace::Sigcomm04 => 0.80,
            Trace::Sigcomm08 => 0.834,
            Trace::Library => 0.892,
        }
    }

    /// Human-readable trace name.
    pub fn name(&self) -> &'static str {
        match self {
            Trace::Sigcomm04 => "SIGCOMM'04",
            Trace::Sigcomm08 => "SIGCOMM'08",
            Trace::Library => "Library",
        }
    }
}

/// Direction of a traffic volume sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// AP to station.
    Downlink,
    /// Station to AP.
    Uplink,
}

/// Accumulates directional volume statistics from arrival streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VolumeStats {
    downlink_bytes: u64,
    uplink_bytes: u64,
    downlink_frames: u64,
    uplink_frames: u64,
}

impl VolumeStats {
    /// An empty accumulator.
    pub fn new() -> VolumeStats {
        VolumeStats::default()
    }

    /// Records one frame.
    pub fn record(&mut self, direction: Direction, bytes: usize) {
        match direction {
            Direction::Downlink => {
                self.downlink_bytes += bytes as u64;
                self.downlink_frames += 1;
            }
            Direction::Uplink => {
                self.uplink_bytes += bytes as u64;
                self.uplink_frames += 1;
            }
        }
    }

    /// Downlink share of total volume (0.5 when empty).
    pub fn downlink_ratio(&self) -> f64 {
        let total = self.downlink_bytes + self.uplink_bytes;
        if total == 0 {
            return 0.5;
        }
        self.downlink_bytes as f64 / total as f64
    }
}

/// Empirical CDF evaluation over a sample set.
///
/// Returns, for each threshold, the fraction of samples `<= threshold`.
pub fn empirical_cdf(samples: &[usize], thresholds: &[usize]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![0.0; thresholds.len()];
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    thresholds
        .iter()
        .map(|&t| {
            let idx = sorted.partition_point(|&s| s <= t);
            idx as f64 / sorted.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_downlink_ratios() {
        assert_eq!(Trace::Sigcomm04.downlink_ratio(), 0.80);
        assert_eq!(Trace::Sigcomm08.downlink_ratio(), 0.834);
        assert_eq!(Trace::Library.downlink_ratio(), 0.892);
    }

    #[test]
    fn downlink_is_about_four_times_uplink() {
        // The paper's summary: "downlink traffic volume is about four
        // times larger than uplink traffic volume".
        for t in Trace::ALL {
            let r = t.downlink_ratio();
            let ratio = r / (1.0 - r);
            assert!(ratio > 3.0, "{}: {ratio}", t.name());
        }
    }

    #[test]
    fn volume_accumulation() {
        let mut v = VolumeStats::new();
        v.record(Direction::Downlink, 800);
        v.record(Direction::Downlink, 200);
        v.record(Direction::Uplink, 250);
        assert!((v.downlink_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(
            v,
            VolumeStats {
                downlink_bytes: 1000,
                uplink_bytes: 250,
                downlink_frames: 2,
                uplink_frames: 1,
            }
        );
    }

    #[test]
    fn empty_stats_are_neutral() {
        assert_eq!(VolumeStats::new().downlink_ratio(), 0.5);
    }

    #[test]
    fn empirical_cdf_basics() {
        let samples = [100, 200, 300, 400];
        let cdf = empirical_cdf(&samples, &[99, 100, 250, 400, 1000]);
        assert_eq!(cdf, vec![0.0, 0.25, 0.5, 1.0, 1.0]);
        assert_eq!(empirical_cdf(&[], &[1]), vec![0.0]);
    }
}
