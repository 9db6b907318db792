//! Packet header fields and their values.
//!
//! NetKAT treats a packet as a record of named numeric fields. Two fields are
//! special: [`Field::Switch`] and [`Field::Port`] locate the packet in the
//! network and are the fields rewritten by link traversal. The remaining
//! fields model ordinary protocol headers, plus two *virtual* fields used by
//! the event-driven runtime of the paper's Section 4: [`Field::Tag`] (the
//! configuration ID stamped on ingress) and [`Field::Digest`] (the bitset of
//! events the packet has heard about).

use std::fmt;

/// A numeric field value.
///
/// All NetKAT fields are numeric; host addresses, ports, protocol numbers,
/// tags and digests are all encoded as `u64`.
pub type Value = u64;

/// A packet header field.
///
/// The `Ord` instance fixes the global test order used by the FDD compiler:
/// tests on smaller fields appear closer to the root of a diagram.
///
/// # Examples
///
/// ```
/// use netkat::Field;
/// assert!(Field::Switch < Field::Port);
/// assert_eq!(Field::Custom(3).to_string(), "custom3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Field {
    /// The switch at which the packet currently resides (`sw` in the paper).
    Switch,
    /// The port at which the packet currently resides (`pt` in the paper).
    Port,
    /// Ethernet source address.
    EthSrc,
    /// Ethernet destination address.
    EthDst,
    /// Ethernet type.
    EthType,
    /// VLAN identifier.
    Vlan,
    /// IP protocol number.
    IpProto,
    /// IP source address (`ip_src` in the paper's examples).
    IpSrc,
    /// IP destination address (`ip_dst` in the paper's examples).
    IpDst,
    /// TCP/UDP source port.
    TcpSrc,
    /// TCP/UDP destination port.
    TcpDst,
    /// Configuration tag: the ID of the event-set whose configuration
    /// processes this packet (assigned at ingress, Section 4.1).
    Tag,
    /// Event digest: a bitset of the events this packet has heard about
    /// (Section 4.2). Only manipulated by the runtime, never by programs.
    Digest,
    /// An additional user-defined field, for programs that need headers not
    /// listed above.
    Custom(u8),
}

impl Field {
    /// All non-custom fields, in test order.
    pub const ALL: [Field; 13] = [
        Field::Switch,
        Field::Port,
        Field::EthSrc,
        Field::EthDst,
        Field::EthType,
        Field::Vlan,
        Field::IpProto,
        Field::IpSrc,
        Field::IpDst,
        Field::TcpSrc,
        Field::TcpDst,
        Field::Tag,
        Field::Digest,
    ];

    /// Returns `true` for the location fields `Switch` and `Port`.
    ///
    /// Location fields are handled specially by the global compiler: they are
    /// constrained by link traversal rather than matched like headers.
    pub fn is_location(self) -> bool {
        matches!(self, Field::Switch | Field::Port)
    }

    /// Returns `true` for the virtual runtime fields `Tag` and `Digest`.
    ///
    /// Virtual fields are stripped before a trace is checked against an
    /// abstract configuration, since configurations in the paper's semantics
    /// do not mention them.
    pub fn is_virtual(self) -> bool {
        matches!(self, Field::Tag | Field::Digest)
    }

    /// Parses a field from its concrete-syntax name.
    ///
    /// Returns `None` for unknown names. `customN` parses to
    /// [`Field::Custom`]`(N)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use netkat::Field;
    /// assert_eq!(Field::parse("ip_dst"), Some(Field::IpDst));
    /// assert_eq!(Field::parse("custom7"), Some(Field::Custom(7)));
    /// assert_eq!(Field::parse("nonsense"), None);
    /// ```
    pub fn parse(name: &str) -> Option<Field> {
        let f = match name {
            "sw" | "switch" => Field::Switch,
            "pt" | "port" => Field::Port,
            "eth_src" => Field::EthSrc,
            "eth_dst" => Field::EthDst,
            "eth_type" => Field::EthType,
            "vlan" => Field::Vlan,
            "ip_proto" => Field::IpProto,
            "ip_src" => Field::IpSrc,
            "ip_dst" => Field::IpDst,
            "tcp_src" => Field::TcpSrc,
            "tcp_dst" => Field::TcpDst,
            "tag" => Field::Tag,
            "digest" => Field::Digest,
            _ => {
                let n = name.strip_prefix("custom")?.parse::<u8>().ok()?;
                return Some(Field::Custom(n));
            }
        };
        Some(f)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Switch => write!(f, "sw"),
            Field::Port => write!(f, "pt"),
            Field::EthSrc => write!(f, "eth_src"),
            Field::EthDst => write!(f, "eth_dst"),
            Field::EthType => write!(f, "eth_type"),
            Field::Vlan => write!(f, "vlan"),
            Field::IpProto => write!(f, "ip_proto"),
            Field::IpSrc => write!(f, "ip_src"),
            Field::IpDst => write!(f, "ip_dst"),
            Field::TcpSrc => write!(f, "tcp_src"),
            Field::TcpDst => write!(f, "tcp_dst"),
            Field::Tag => write!(f, "tag"),
            Field::Digest => write!(f, "digest"),
            Field::Custom(n) => write!(f, "custom{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for f in Field::ALL {
            assert_eq!(Field::parse(&f.to_string()), Some(f), "field {f:?}");
        }
        for n in [0u8, 1, 42, 255] {
            let f = Field::Custom(n);
            assert_eq!(Field::parse(&f.to_string()), Some(f));
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(Field::parse("switch"), Some(Field::Switch));
        assert_eq!(Field::parse("port"), Some(Field::Port));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Field::parse(""), None);
        assert_eq!(Field::parse("custom"), None);
        assert_eq!(Field::parse("custom999"), None);
        assert_eq!(Field::parse("ipdst"), None);
    }

    #[test]
    fn location_and_virtual_classification() {
        assert!(Field::Switch.is_location());
        assert!(Field::Port.is_location());
        assert!(!Field::IpDst.is_location());
        assert!(Field::Tag.is_virtual());
        assert!(Field::Digest.is_virtual());
        assert!(!Field::IpDst.is_virtual());
    }

    #[test]
    fn test_order_puts_location_first() {
        let mut all = Field::ALL.to_vec();
        all.sort();
        assert_eq!(all[0], Field::Switch);
        assert_eq!(all[1], Field::Port);
    }
}
