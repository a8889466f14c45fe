//! The names and units of everything the benchmark reports. They are the
//! ones `BENCHMARK.json` lists; `tests/smoke.rs` holds the two together.

pub const WORKLOADS: [&str; 4] = [
    "ring4k_stream",
    "rgg100k_churn",
    "lowerbound_line129",
    "timed_open_2k",
];

/// One reported value: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// (name, unit) of every end-to-end metric, reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metrics of one run, from their values in that order.
pub fn end_to_end(values: [f64; 4]) -> Vec<Metric> {
    let named = END_TO_END.iter().zip(values);
    named
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

/// (name, unit) of every per-layer metric. A traced run prints all of them;
/// one that reads 0 belongs to a layer the workload does not call.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("sim.engine.wall_ns_per_event", "ns"),
    ("sim.engine.self_ns_per_event", "ns"),
    ("sim.engine.build_ns", "ns"),
    ("sim.engine.peak_queued_events", "count"),
    ("sim.engine.slice_p50_us", "us"),
    ("sim.engine.slice_p99_us", "us"),
    ("sim.engine.slice_max_us", "us"),
    ("sim.engine.record_ns_per_event", "ns"),
    ("sim.shard.wall_ns_per_event", "ns"),
    ("sim.shard.cpu_ns_per_event", "ns"),
    ("sim.shard.build_ns", "ns"),
    ("sim.shard.k1_wall_ns_per_event", "ns"),
    ("sim.shard.ring4k_k1_wall_ns_per_event", "ns"),
    ("sim.shard.ring4k_k2_wall_ns_per_event", "ns"),
    ("sim.calendar.hold_ns_per_op_12k", "ns"),
    ("sim.calendar.hold_ns_per_op_300k", "ns"),
    ("sim.heap_ref.hold_ns_per_op_12k", "ns"),
    ("sim.heap_ref.hold_ns_per_op_300k", "ns"),
    ("sim.observer.busy_ns_per_event", "ns"),
    ("sim.observer.probes", "count"),
    ("clocks.source.calls_per_event", "count"),
    ("clocks.source.ns_per_call", "ns"),
    ("clocks.source.busy_share", "ratio"),
    ("clocks.source.live_segments_max", "count"),
    ("net.delay.calls_per_event", "count"),
    ("net.delay.ns_per_call", "ns"),
    ("net.topology.build_ns", "ns"),
    ("dynamic.topology.build_ns", "ns"),
    ("dynamic.topology.build_ns_per_change", "ns"),
    ("dynamic.topology.mib_per_change", "MiB"),
    ("dynamic.topology.edge_changes", "count"),
    ("algorithms.node.on_start_ns", "ns"),
    ("algorithms.node.on_message_ns_per_call", "ns"),
    ("algorithms.node.on_timer_ns_per_call", "ns"),
    ("algorithms.node.on_topology_change_calls", "count"),
    ("algorithms.node.busy_share", "ratio"),
    ("core.main_theorem.wall_ns_per_round", "ns"),
    ("core.add_skew.apply_ns", "ns"),
    ("core.retiming.apply_ns", "ns"),
    ("core.retiming.validate_ns", "ns"),
    ("core.replay.ns_per_event", "ns"),
    ("timed.service.advance_ns_per_seal", "ns"),
    ("timed.snapshot.seal_ns", "ns"),
    ("timed.marzullo.intersect_ns", "ns"),
    ("timed.wire.roundtrip_ns_per_frame", "ns"),
    ("timed.server.closed_loop_req_per_s", "1/s"),
    ("timed.client.closed_rtt_p50_us", "us"),
    ("timed.server.seals_per_s", "1/s"),
    ("timed.server.bytes_out_per_req", "count"),
    ("timed.server.errors", "count"),
    ("timed.server.first_answer_us", "us"),
    ("timed.client.p99_us", "us"),
    ("timed.client.p999_us", "us"),
    ("timed.client.max_us", "us"),
    ("timed.client.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer values of one traced run, all 0 until set.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    /// # Panics
    ///
    /// Panics on a name that is not in [`PER_LAYER`] (a typo in this crate).
    pub fn set(&mut self, name: &str, value: f64) {
        let at = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[at] = value;
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(self.0)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    }
}
