//! The cluster's one future-event list and its order key.
//!
//! Every event carries its *lane*: lane 0 is the client (programs,
//! processes, the cache, EMC) and data server `i` is lane `i + 1`. Events
//! pop in ascending `(time, lane, seq)`, where `seq` is the scheduling
//! order:
//!
//! - `lane` puts, at any instant, every client event ahead of every server
//!   event. An EMC tick at `t` therefore samples the disks before the
//!   server events at `t` change them, as the paper's once-per-slot
//!   sampling reads them;
//! - events of one lane at one instant pop in the order they were
//!   scheduled.
//!
//! docs/PERF.md "Why `lane` stays" gives the checks that need it.

use crate::engine::Ev;
use crate::server::SEv;
use dualpar_sim::{EventQueue, SimTime};

/// One engine event; a server event names its server, and so its lane.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// An event in the client lane.
    Client(Ev),
    /// An event in a data server's lane.
    Server(SEv),
}

// Every event is stored inline in the heap and moved on each sift.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

impl From<Ev> for Event {
    fn from(ev: Ev) -> Self {
        Event::Client(ev)
    }
}

impl From<SEv> for Event {
    fn from(ev: SEv) -> Self {
        Event::Server(ev)
    }
}

/// The cluster's future-event list: one [`EventQueue`] ordered by the key
/// in the module doc.
#[derive(Default)]
pub(crate) struct EventList {
    queue: EventQueue<Event>,
}

impl EventList {
    /// The time of the last popped event.
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events pending in every lane, superseded ones included.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at `at` in its lane.
    pub(crate) fn schedule(&mut self, at: SimTime, event: impl Into<Event>) {
        let event = event.into();
        let lane = match &event {
            Event::Client(_) => 0,
            Event::Server(ev) => u64::from(ev.server()) + 1,
        };
        self.queue.schedule_ranked(at, lane, event);
    }

    /// Pop the next event in key order.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }
}
