//! Spans recorded around the calls this package makes into each layer.
//!
//! Nothing inside the simulator is instrumented: the spans sit at the
//! layer boundaries reachable from outside — `NetworkSim::step_cycle`
//! and, through [`TimedEndpoint`], the `Endpoint` callbacks the network
//! makes into the workload layer. Spans stay in memory and are
//! summarised after the repetition ends.

use network::{Endpoint, NodeCtx, TxnCompletion};
use router::Packet;
use simcore::Tick;
use std::time::Instant;

/// One recorded interval. Nesting is fixed by the names: `run` contains
/// every `network.step_cycle` and `network.report`, and a step contains
/// the endpoint callbacks summed in [`EndpointTime`].
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of one traced repetition.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(capacity: usize) -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Host time spent in one endpoint's callbacks.
///
/// The callbacks run once per node per cycle — millions of child spans
/// per repetition — so they are summed where they happen instead of
/// logged one by one; their parent is always the enclosing
/// `network.step_cycle` span.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointTime {
    pub on_cycle_ns: u64,
    pub on_cycle_calls: u64,
    pub on_delivered_ns: u64,
    pub on_delivered_calls: u64,
}

impl EndpointTime {
    pub fn merge(&mut self, other: &EndpointTime) {
        self.on_cycle_ns += other.on_cycle_ns;
        self.on_cycle_calls += other.on_cycle_calls;
        self.on_delivered_ns += other.on_delivered_ns;
        self.on_delivered_calls += other.on_delivered_calls;
    }
}

/// Delegates to `E` and times each callback.
pub struct TimedEndpoint<E> {
    pub inner: E,
    pub time: EndpointTime,
}

impl<E> TimedEndpoint<E> {
    pub fn new(inner: E) -> Self {
        TimedEndpoint {
            inner,
            time: EndpointTime::default(),
        }
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        let start = Instant::now();
        self.inner.on_cycle(ctx);
        self.time.on_cycle_ns += start.elapsed().as_nanos() as u64;
        self.time.on_cycle_calls += 1;
    }

    fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion> {
        let start = Instant::now();
        let completion = self.inner.on_delivered(packet, now);
        self.time.on_delivered_ns += start.elapsed().as_nanos() as u64;
        self.time.on_delivered_calls += 1;
        completion
    }
}
