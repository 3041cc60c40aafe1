//! Node ids and wire-size accounting.
//!
//! The paper's notion of "efficiency" is about **control information**: how
//! much protocol metadata a process must carry and propagate about variables
//! it does not replicate. To make that measurable, every payload carried by
//! the simulator implements [`WireSize`], which splits its serialized size
//! into *data bytes* (the application value being written) and *control
//! bytes* (timestamps, vector clocks, dependency summaries, sequence
//! numbers...). The statistics module aggregates both per link and per node.
//!
//! Payloads travel by value: a delivery event owns its payload, and a
//! fan-out's receivers share one queue entry that stores the payload once
//! and clones it per receiver as they come due (see [`crate::event`]). A
//! payload that a fan-out sends to many receivers should therefore be
//! cheap to clone — the protocols keep their vector-clock stamps and
//! record batches behind an `Arc`, so a clone is a reference-count bump.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated node (both the MCS process and its application
/// process live on one node). Dense, zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Size-on-the-wire accounting for a message payload.
///
/// Implementations report how many bytes of the encoded message are
/// application data versus protocol control information. The simulator does
/// not actually serialize payloads; the numbers are the protocol's own
/// accounting of what it *would* send, which is exactly the quantity the
/// paper reasons about.
pub trait WireSize {
    /// Bytes of application data (e.g. the written value).
    fn data_bytes(&self) -> usize;

    /// Bytes of protocol control information (timestamps, clocks,
    /// dependency metadata, sequence numbers, variable ids...).
    fn control_bytes(&self) -> usize;

    /// Total bytes on the wire.
    fn total_bytes(&self) -> usize {
        self.data_bytes() + self.control_bytes()
    }
}

/// A trivial payload with explicit sizes, for tests that only care about
/// volume.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct RawPayload {
    /// Declared data bytes.
    pub data: usize,
    /// Declared control bytes.
    pub control: usize,
}

#[cfg(test)]
impl RawPayload {
    /// A payload of `data` data bytes and `control` control bytes.
    pub(crate) fn new(data: usize, control: usize) -> Self {
        RawPayload { data, control }
    }
}

#[cfg(test)]
impl WireSize for RawPayload {
    fn data_bytes(&self) -> usize {
        self.data
    }
    fn control_bytes(&self) -> usize {
        self.control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(NodeId::from(3), NodeId(3));
    }

    #[test]
    fn raw_payload_wire_size() {
        let p = RawPayload::new(10, 32);
        assert_eq!(p.data_bytes(), 10);
        assert_eq!(p.control_bytes(), 32);
        assert_eq!(p.total_bytes(), 42);
    }

    #[test]
    fn node_id_ordering_is_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(NodeId(10) > NodeId(2));
    }
}
