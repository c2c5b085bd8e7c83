//! The cluster's one future-event list and its order key.
//!
//! Every event carries its *lane*: lane 0 is the client (programs,
//! processes, the cache, EMC) and data server `i` is lane `i + 1`. Events
//! pop in ascending `(time, lane, window, class, src, seq)`:
//!
//! - `lane` puts, at any instant, every client event (an EMC tick among
//!   them) ahead of every server event;
//! - `window` numbers the exchange windows described below: an event
//!   carries the number of the window it was scheduled in;
//! - `class` is 0 for an event a lane schedules for itself and 1 for a
//!   message from another lane (a request to a server, an ack to the
//!   client);
//! - `src` is the sending lane of a message;
//! - `seq` is the scheduling order.
//!
//! The engine once kept one queue per lane, each popped in `(time, seq)`
//! order, and stepped them through conservative windows, delivering the
//! messages sent in a window at its barrier. Between EMC ticks the lanes
//! share no state and talk only through messages that take at least the
//! network latency to arrive, so this key reproduces that engine's event
//! order lane by lane: a lane's own events of window `w` before the
//! messages sent to it in `w`, those in sender order, and everything of
//! window `w` before anything scheduled in `w + 1`. A window opens at the
//! first event at or past the end of the previous one, at time `gn`:
//!
//! 1. at an EMC tick's instant it holds the client events at `gn` (the
//!    tick reads every server's disk, and the server events at that
//!    instant follow in the next window);
//! 2. with no server event pending it holds client events before the next
//!    tick, up to and including the first one that sends a request;
//! 3. otherwise it holds every event before `min(gn + net_latency,
//!    next_tick)`. No message sent inside it can arrive before then.
//!
//! docs/PERF.md "One event list" gives the argument in full.

use crate::engine::Ev;
use crate::server::{SEv, SubReq};
use dualpar_sim::{EventId, EventQueue, SimDuration, SimTime, SlabKey};

/// One engine event, tagged with its lane.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// An event in the client lane.
    Client(Ev),
    /// An event of data server `.0`.
    Server(u32, SEv),
}

/// The open exchange window (rules 1–3 of the module doc).
#[derive(Debug, Clone, Copy)]
enum Window {
    /// Rule 1: the client events at a tick's instant.
    Tick(SimTime),
    /// Rules 2 and 3: the events before `horizon`; a `run_ahead` window
    /// is also closed by the first request it sends.
    Until { horizon: SimTime, run_ahead: bool },
}

// The rank packs `(lane, window, class, src)` into one u64, most
// significant first: 16 bits of lane, 31 of window, 1 of class and 16 of
// src. `Cluster::new` caps the server count so lanes fit, and the event
// budget keeps the window count (at most one per event) below 2^31.
const LANE_SHIFT: u32 = 48;
const WINDOW_SHIFT: u32 = 17;
const CLASS_SHIFT: u32 = 16;
const WINDOW_LIMIT: u64 = 1 << (LANE_SHIFT - WINDOW_SHIFT);
/// Largest server count whose lanes fit the rank.
pub(crate) const MAX_SERVERS: u32 = u16::MAX as u32;

const OWN: u64 = 0;
const MESSAGE: u64 = 1;
const CLIENT_LANE: u64 = 0;

fn server_lane(server: u32) -> u64 {
    server as u64 + 1
}

/// The cluster's future-event list: one [`EventQueue`] ordered by the key
/// in the module doc.
pub(crate) struct EventList {
    queue: EventQueue<Event>,
    /// The network latency, which bounds a window's length.
    lookahead: SimDuration,
    window: u64,
    open: Option<Window>,
    /// The pending EMC tick's time.
    next_tick: Option<SimTime>,
    /// Server-lane events scheduled and not yet popped (server events are
    /// never cancelled).
    server_pending: usize,
}

impl EventList {
    pub fn new(lookahead: SimDuration) -> Self {
        EventList {
            queue: EventQueue::new(),
            lookahead,
            window: 0,
            open: None,
            next_tick: None,
            server_pending: 0,
        }
    }

    fn rank(&self, lane: u64, class: u64, src: u64) -> u64 {
        (lane << LANE_SHIFT) | (self.window << WINDOW_SHIFT) | (class << CLASS_SHIFT) | src
    }

    /// The time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events pending in every lane.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Schedule a client event from the client itself.
    pub fn schedule(&mut self, at: SimTime, ev: Ev) -> EventId {
        let rank = self.rank(CLIENT_LANE, OWN, 0);
        self.queue.schedule_ranked(at, rank, Event::Client(ev))
    }

    /// Schedule the next EMC tick (at most one is pending).
    pub fn schedule_tick(&mut self, at: SimTime) {
        self.schedule(at, Ev::EmcTick);
        self.next_tick = Some(at);
    }

    /// Cancel a client event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Schedule one of `server`'s own events.
    pub fn schedule_server(&mut self, at: SimTime, server: u32, ev: SEv) {
        let rank = self.rank(server_lane(server), OWN, 0);
        self.server_pending += 1;
        self.queue.schedule_ranked(at, rank, Event::Server(server, ev));
    }

    /// Send a request from the client; it arrives at `server` at `at`.
    pub fn request(&mut self, at: SimTime, server: u32, sub: SubReq) {
        let rank = self.rank(server_lane(server), MESSAGE, CLIENT_LANE);
        self.server_pending += 1;
        self.queue
            .schedule_ranked(at, rank, Event::Server(server, SEv::Recv(sub)));
        if let Some(Window::Until { run_ahead: true, .. }) = self.open {
            self.open = None;
        }
    }

    /// Send an ack from `server`; it reaches the client at `at`.
    pub fn ack(&mut self, at: SimTime, server: u32, group: SlabKey) {
        let rank = self.rank(CLIENT_LANE, MESSAGE, server_lane(server));
        self.queue
            .schedule_ranked(at, rank, Event::Client(Ev::SubDone { group }));
    }

    /// Pop the next event in key order, opening a new window if the open
    /// one does not hold it.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (now, event) = self.queue.pop()?;
        let client = match event {
            Event::Client(_) => true,
            Event::Server(..) => {
                self.server_pending -= 1;
                false
            }
        };
        let held = match self.open {
            Some(Window::Tick(at)) => client && now == at,
            Some(Window::Until { horizon, .. }) => now < horizon,
            None => false,
        };
        if !held {
            self.window += 1;
            assert!(self.window < WINDOW_LIMIT, "exchange-window budget exceeded");
            let tick = self.next_tick.unwrap_or(SimTime::MAX);
            self.open = Some(if tick == now {
                Window::Tick(now)
            } else if client && self.server_pending == 0 {
                Window::Until { horizon: tick, run_ahead: true }
            } else {
                let horizon = now.saturating_add(self.lookahead).min(tick);
                Window::Until { horizon, run_ahead: false }
            });
        }
        if let Event::Client(Ev::EmcTick) = event {
            self.next_tick = None;
        }
        Some((now, event))
    }

    /// Pop the open window's remaining server events, dropping its client
    /// events, once the run is over. The windowed engine ran every
    /// server's share of a window before the client's, and those events
    /// move `sim_end`, `disk_bytes` and `events_processed`.
    pub fn pop_window_rest(&mut self) -> Option<(SimTime, Event)> {
        let Some(Window::Until { horizon, run_ahead: false }) = self.open else {
            return None;
        };
        while let Some((now, event)) = self.queue.pop() {
            if now >= horizon {
                break;
            }
            if let Event::Server(..) = event {
                self.server_pending -= 1;
                return Some((now, event));
            }
        }
        self.open = None;
        None
    }
}
