//! Server statistics: always-on relaxed atomics plus a JSON snapshot.
//!
//! These are the *authoritative* counters the acceptance gate reconciles
//! against client-observed outcomes (every submitted frame gets exactly
//! one terminal response, and `accepted + shed + refusals` must cover
//! every SUBMIT seen). They are the server's one ledger, always on:
//! observability features do not change them.

use csfma_obs::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets of the admission queue-depth histogram (depth `0..15`,
/// deeper clamps into the last bucket).
pub const QUEUE_DEPTH_BUCKETS: usize = 16;

/// Process-lifetime counters of one [`Server`](crate::Server). All
/// increments are relaxed — the numbers are monotonic totals, not a
/// synchronization protocol.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// SUBMIT frames admitted past the admission gate.
    pub accepted: AtomicU64,
    /// SUBMIT frames refused with a SHED response.
    pub shed: AtomicU64,
    /// Requests cut off by their deadline at a chunk boundary.
    pub deadline: AtomicU64,
    /// Engine-level retries after a contained evaluation panic.
    pub retries: AtomicU64,
    /// Rows quarantined (NaN-poisoned) by the robust ladder.
    pub quarantined_rows: AtomicU64,
    /// RESULT frames sent.
    pub results: AtomicU64,
    /// ERROR frames answering an *admitted* SUBMIT (SV003: parse or
    /// compile refusals, containment failure). Part of the ledger:
    /// `accepted == results + deadline + errors` after drain.
    pub errors: AtomicU64,
    /// ERROR frames sent before admission: undecodable bytes (SV001 /
    /// SV002), response-typed frames, and SUBMITs refused while
    /// draining (SV006). Outside the admission ledger by construction.
    pub refusals: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connection handlers that panicked and were contained.
    pub panics_contained: AtomicU64,
    /// Frames throttled by the per-connection rate limit: each one was
    /// delayed until the token bucket refilled, then handled. The
    /// connection stays open.
    pub rate_limited: AtomicU64,
    /// Admission-queue depth observed at each SUBMIT.
    pub queue_depth: [AtomicU64; QUEUE_DEPTH_BUCKETS],
}

/// A plain-value copy of [`ServeStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::accepted`].
    pub accepted: u64,
    /// See [`ServeStats::shed`].
    pub shed: u64,
    /// See [`ServeStats::deadline`].
    pub deadline: u64,
    /// See [`ServeStats::retries`].
    pub retries: u64,
    /// See [`ServeStats::quarantined_rows`].
    pub quarantined_rows: u64,
    /// See [`ServeStats::results`].
    pub results: u64,
    /// See [`ServeStats::errors`].
    pub errors: u64,
    /// See [`ServeStats::refusals`].
    pub refusals: u64,
    /// See [`ServeStats::connections`].
    pub connections: u64,
    /// See [`ServeStats::panics_contained`].
    pub panics_contained: u64,
    /// See [`ServeStats::rate_limited`].
    pub rate_limited: u64,
    /// See [`ServeStats::queue_depth`].
    pub queue_depth: [u64; QUEUE_DEPTH_BUCKETS],
}

impl ServeStats {
    /// Record the admission-queue depth observed at one SUBMIT.
    pub fn record_queue_depth(&self, depth: usize) {
        self.queue_depth[depth.min(QUEUE_DEPTH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut queue_depth = [0u64; QUEUE_DEPTH_BUCKETS];
        for (o, b) in queue_depth.iter_mut().zip(self.queue_depth.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline: self.deadline.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined_rows: self.quarantined_rows.load(Ordering::Relaxed),
            results: self.results.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            queue_depth,
        }
    }
}

impl StatsSnapshot {
    /// Render as a JSON object: every counter, then `queue_depth`.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("accepted", self.accepted.into()),
            ("shed", self.shed.into()),
            ("deadline", self.deadline.into()),
            ("retries", self.retries.into()),
            ("quarantined_rows", self.quarantined_rows.into()),
            ("results", self.results.into()),
            ("errors", self.errors.into()),
            ("refusals", self.refusals.into()),
            ("connections", self.connections.into()),
            ("panics_contained", self.panics_contained.into()),
            ("rate_limited", self.rate_limited.into()),
            ("queue_depth", Json::arr(self.queue_depth)),
        ])
        .to_string()
    }

    /// Parse a STATS document ([`StatsSnapshot::to_json`]'s shape).
    /// `None` if it is not JSON or lacks a counter.
    pub fn from_json(s: &str) -> Option<StatsSnapshot> {
        let doc = Json::parse(s).ok()?;
        let field = |name: &str| doc.get(name).and_then(Json::as_u64);
        let mut queue_depth = [0u64; QUEUE_DEPTH_BUCKETS];
        let buckets = doc.get("queue_depth").and_then(Json::as_arr)?;
        for (o, b) in queue_depth.iter_mut().zip(buckets) {
            *o = b.as_u64()?;
        }
        Some(StatsSnapshot {
            accepted: field("accepted")?,
            shed: field("shed")?,
            deadline: field("deadline")?,
            retries: field("retries")?,
            quarantined_rows: field("quarantined_rows")?,
            results: field("results")?,
            errors: field("errors")?,
            refusals: field("refusals")?,
            connections: field("connections")?,
            panics_contained: field("panics_contained")?,
            rate_limited: field("rate_limited")?,
            queue_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trips() {
        let st = ServeStats::default();
        st.accepted.fetch_add(17, Ordering::Relaxed);
        st.shed.fetch_add(3, Ordering::Relaxed);
        st.quarantined_rows.fetch_add(9, Ordering::Relaxed);
        st.record_queue_depth(0);
        st.record_queue_depth(2);
        st.record_queue_depth(999); // clamps into the last bucket
        let snap = st.snapshot();
        assert_eq!(snap.queue_depth[0], 1);
        assert_eq!(snap.queue_depth[2], 1);
        assert_eq!(snap.queue_depth[QUEUE_DEPTH_BUCKETS - 1], 1);
        let json = snap.to_json();
        assert_eq!(StatsSnapshot::from_json(&json), Some(snap));
    }

    #[test]
    fn u64_max_counters_round_trip_exactly() {
        let snap = StatsSnapshot {
            accepted: u64::MAX,
            shed: u64::MAX,
            deadline: u64::MAX,
            retries: u64::MAX,
            quarantined_rows: u64::MAX,
            results: u64::MAX,
            errors: u64::MAX,
            refusals: u64::MAX,
            connections: u64::MAX,
            panics_contained: u64::MAX,
            rate_limited: u64::MAX,
            queue_depth: [u64::MAX; QUEUE_DEPTH_BUCKETS],
        };
        assert_eq!(StatsSnapshot::from_json(&snap.to_json()), Some(snap));
    }
}
