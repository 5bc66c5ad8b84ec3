//! A work-conserving FIFO queue: one server, per-request service time.
//!
//! Models the centralized entities whose serialization the paper singles
//! out: HDFS's namenode ("a centralized namenode is responsible to maintain
//! both chunk layout and directory structure metadata", §II-B) and
//! BlobSeer's version manager ("the assignment of versions is the only step
//! in the writing process where concurrent requests are serialized",
//! §III-A.4). Under N concurrent clients the queueing delay of this server
//! is what bends the scaling curves.
//!
//! It models a node's disk too. The paper's workloads are large sequential
//! block transfers (64 MB), for which a rate server is accurate: the
//! service time is one block at the drain rate, and seeks and reordering
//! are ignored. What matters for the figures is the queueing: when HDFS's
//! placement lands several blocks on one datanode, their readers serialize
//! on its queue (Fig. 4), while BlobSeer's round-robin keeps queues short.

use crate::time::{SimDuration, SimTime};

/// A single-threaded server processing requests FIFO.
#[derive(Clone, Debug)]
pub struct FifoServer {
    service_time: SimDuration,
    busy_until: SimTime,
    served: u64,
    total_queue_delay: SimDuration,
}

impl FifoServer {
    /// A server taking `service_time` per request.
    pub fn new(service_time: SimDuration) -> Self {
        Self {
            service_time,
            busy_until: SimTime::ZERO,
            served: 0,
            total_queue_delay: SimDuration::ZERO,
        }
    }

    /// Enqueues one request at `now` with the default service time; returns
    /// the completion instant.
    pub fn submit(&mut self, now: SimTime) -> SimTime {
        self.submit_with(now, self.service_time)
    }

    /// Enqueues one request at `now` with an explicit service time; returns
    /// the completion instant.
    pub fn submit_with(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        self.total_queue_delay += start - now;
        self.busy_until = start + service;
        self.served += 1;
        self.busy_until
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean queueing delay (excludes service) across all requests so far.
    pub fn mean_queue_delay(&self) -> SimDuration {
        match self.total_queue_delay.as_nanos().checked_div(self.served) {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_serialize() {
        let mut s = FifoServer::new(SimDuration::from_millis(10));
        let a = s.submit(SimTime::ZERO);
        let b = s.submit(SimTime::ZERO);
        let c = s.submit(SimTime::ZERO);
        assert_eq!(a.as_millis(), 10);
        assert_eq!(b.as_millis(), 20);
        assert_eq!(c.as_millis(), 30);
        assert_eq!(s.served(), 3);
        // Queue delays: 0, 10, 20 → mean 10 ms.
        assert_eq!(s.mean_queue_delay().as_millis(), 10);
    }

    #[test]
    fn idle_server_has_no_queueing() {
        let mut s = FifoServer::new(SimDuration::from_millis(10));
        s.submit(SimTime::ZERO);
        let b = s.submit(SimTime::from_nanos(50_000_000));
        assert_eq!(b.as_millis(), 60);
        assert_eq!(s.mean_queue_delay(), SimDuration::ZERO);
    }

    #[test]
    fn explicit_service_time() {
        let mut s = FifoServer::new(SimDuration::from_millis(1));
        let t = s.submit_with(SimTime::ZERO, SimDuration::from_secs(2));
        assert_eq!(t.as_millis(), 2000);
    }
}
