//! Engine event log: what happened to an injected packet, for tests and
//! debugging.

use inet::Addr;
use obs::TimeoutCause;

use crate::topology::RouterId;

/// One step in a packet's walk through the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Packet arrived at a router with the given remaining TTL (before
    /// decrement).
    Arrived {
        /// The router reached.
        at: RouterId,
        /// TTL on arrival.
        ttl: u8,
    },
    /// Router forwarded the packet toward the next hop.
    Forwarded {
        /// The forwarding router.
        from: RouterId,
        /// The chosen next hop.
        to: RouterId,
    },
    /// TTL reached zero at this router.
    TtlExpired {
        /// Where the packet died.
        at: RouterId,
    },
    /// Packet was delivered (destination address owned here, or final
    /// subnet reached).
    Delivered {
        /// The delivering router.
        at: RouterId,
    },
    /// A reply packet was emitted with this source address.
    Replied {
        /// The responding router.
        from: RouterId,
        /// The reply's source address.
        src: Addr,
    },
    /// The walk ended silently.
    Dropped {
        /// Why nothing came back.
        reason: TimeoutCause,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        assert_eq!(
            Event::Dropped { reason: TimeoutCause::NoRoute },
            Event::Dropped { reason: TimeoutCause::NoRoute }
        );
        assert_ne!(
            Event::Dropped { reason: TimeoutCause::NoRoute },
            Event::Dropped { reason: TimeoutCause::Filtered }
        );
    }
}
