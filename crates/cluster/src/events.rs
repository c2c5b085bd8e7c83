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
use dualpar_sim::{EventId, EventQueue, SimTime};

/// One engine event, tagged with its lane.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// An event in the client lane.
    Client(Ev),
    /// An event of data server `.0`.
    Server(u32, SEv),
}

impl From<Ev> for Event {
    fn from(ev: Ev) -> Self {
        Event::Client(ev)
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
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events pending in every lane.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at `at` in its lane.
    pub fn schedule(&mut self, at: SimTime, event: impl Into<Event>) -> EventId {
        let event = event.into();
        let lane = match event {
            Event::Client(_) => 0,
            Event::Server(server, _) => u64::from(server) + 1,
        };
        self.queue.schedule_ranked(at, lane, event)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pop the next event in key order.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }
}
