//! The flight recorder: a bounded ring of recent engine events, dumped
//! as JSON when something goes wrong.
//!
//! The recorder is a black box in the aviation sense: it runs only at
//! [`MetricsLevel::Full`](crate::MetricsLevel::Full), keeps the last `capacity` events in a ring, and is
//! dumped next to the violation report when an online checker fails or a
//! bench panics — giving the queue-depth / dispatch-key / checker history
//! leading *into* the failure, which the final `Stats` cannot show.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One recorded engine event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Simulated time of the dispatch, in microseconds.
    pub t_us: u64,
    /// The event's packed tiebreak sequence (entity id and counter).
    pub seq: u64,
    /// What happened (`"inject"`, `"arrive"`, `"checker"`, ...).
    pub kind: &'static str,
    /// The entity concerned: switch/host id, or checker node index.
    pub node: u64,
    /// Event-queue depth after the dispatch (or checker live nodes).
    pub depth: u64,
}

struct Ring {
    cap: usize,
    /// Total events ever recorded (so a dump can say how many were lost).
    recorded: u64,
    buf: VecDeque<FlightEvent>,
}

/// A shared, bounded ring of recent [`FlightEvent`]s.
///
/// Handles are cheap clones of one shared ring, so the engine, the online
/// checker, and a bench's panic guard can all hold one. Recording takes a
/// mutex; the recorder is only wired in at
/// [`MetricsLevel::Full`](crate::MetricsLevel::Full), where the run has
/// already opted into profiling overhead.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Ring>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.inner.lock().unwrap();
        f.debug_struct("FlightRecorder")
            .field("capacity", &ring.cap)
            .field("recorded", &ring.recorded)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Mutex::new(Ring {
                cap,
                recorded: 0,
                buf: VecDeque::with_capacity(cap),
            })),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, ev: FlightEvent) {
        let mut ring = self.inner.lock().unwrap();
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
        }
        ring.recorded += 1;
        ring.buf.push_back(ev);
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON dump of the retained tail: an object with the total recorded
    /// count, the retained count, and the events oldest-first.
    pub fn dump_json(&self) -> String {
        let ring = self.inner.lock().unwrap();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"recorded\": {},\n  \"retained\": {},\n  \"events\": [",
            ring.recorded,
            ring.buf.len()
        );
        for (i, ev) in ring.buf.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"t_us\": {}, \"seq\": {}, \"kind\": \"{}\", \"node\": {}, \"depth\": {}}}",
                ev.t_us, ev.seq, ev.kind, ev.node, ev.depth
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`dump_json`](FlightRecorder::dump_json) to `path`.
    pub fn dump_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> FlightEvent {
        FlightEvent { t_us: t, seq: t, kind: "arrive", node: 1, depth: t }
    }

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::new(3);
        for t in 0..5 {
            fr.record(ev(t));
        }
        assert_eq!(fr.recorded(), 5);
        assert_eq!(fr.len(), 3);
        let dump = fr.dump_json();
        assert!(!dump.contains("\"t_us\": 1,"));
        assert!(dump.contains("\"t_us\": 2,"));
        assert!(dump.contains("\"t_us\": 4,"));
        assert!(dump.contains("\"recorded\": 5"));
    }

    #[test]
    fn handles_share_one_ring() {
        let fr = FlightRecorder::new(8);
        let other = fr.clone();
        other.record(ev(7));
        assert_eq!(fr.len(), 1);
        assert!(!fr.is_empty());
    }
}
