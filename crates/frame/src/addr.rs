//! MAC addressing.

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use carpool_frame::addr::MacAddress;
///
/// let sta = MacAddress::new([0x02, 0, 0, 0, 0, 0x2A]);
/// assert_eq!(sta.to_string(), "02:00:00:00:00:2a");
/// assert_eq!(MacAddress::station(42), sta);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddress([u8; 6]);

impl MacAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddress = MacAddress([0xFF; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> MacAddress {
        MacAddress(octets)
    }

    /// A locally-administered address for simulated station `id`
    /// (`02:00:00:00:hh:ll`).
    pub fn station(id: u16) -> MacAddress {
        let [hi, lo] = id.to_be_bytes();
        MacAddress([0x02, 0, 0, 0, hi, lo])
    }

    /// A locally-administered address for simulated AP `id`
    /// (`02:AP:00:00:hh:ll`).
    pub fn access_point(id: u16) -> MacAddress {
        let [hi, lo] = id.to_be_bytes();
        MacAddress([0x02, 0xA9, 0, 0, hi, lo])
    }

    /// The raw octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Byte-slice view (for hashing into the A-HDR Bloom filter).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for MacAddress {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 6]> for MacAddress {
    fn from(octets: [u8; 6]) -> MacAddress {
        MacAddress(octets)
    }
}

impl std::fmt::Display for MacAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_addresses_are_distinct() {
        let set: std::collections::BTreeSet<MacAddress> =
            (0..1000).map(MacAddress::station).collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn ap_and_station_namespaces_disjoint() {
        for id in 0..100 {
            assert_ne!(MacAddress::station(id), MacAddress::access_point(id));
        }
    }

    #[test]
    fn display_format() {
        let a = MacAddress::new([0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]);
        assert_eq!(a.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn conversion_round_trip() {
        let raw = [1, 2, 3, 4, 5, 6];
        let a: MacAddress = raw.into();
        assert_eq!(a.octets(), raw);
        assert_eq!(a.as_ref(), &raw);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(MacAddress::station(1) < MacAddress::station(2));
    }
}
