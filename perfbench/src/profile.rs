//! The traced pass: a replica of `mmptcp::experiment::run` built from public
//! APIs, with a span around each call into a layer and a timing decorator on
//! every transport agent. It must reproduce the untraced run exactly (the
//! fidelity guard below); its spans split the run's time across the layers.

use crate::json::Metric;
use crate::workload::{run_entries, Expected, Seed, Workload};
use crate::Outcome;
use mmptcp::metrics::trace::TraceConfig;
use mmptcp::metrics::{loss_report, overall_utilisation, tier_utilisation, FlowMetrics};
use mmptcp::netsim::{
    Addr, Agent, AgentCtx, AgentEvent, FlowId, Network, PathPolicy, QueueConfig, Signal, SimRng,
    SimTime, Simulator,
};
use mmptcp::results::ConservationAudit;
use mmptcp::topology::{BuiltTopology, LinkTier};
use mmptcp::transport::{
    D2tcpSender, DupAckPolicy, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, RepFlowConfig,
    RepFlowSender, TcpSender, TransportConfig, TransportReceiver,
};
use mmptcp::workload::{incast_workload, paper_workload, FlowClass, FlowSpec, Workload as Flows};
use mmptcp::{ExperimentConfig, ExperimentResults, Protocol, TopologySpec, WorkloadSpec};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::time::Instant;

/// Largest share of the traced wall time the span accounting may miss.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

// --- Agent timing -----------------------------------------------------------

/// Time and work inside transport agents, split by role and event kind.
#[derive(Default, Clone, Copy)]
struct AgentTally {
    /// Nanoseconds and calls, indexed by `slot`.
    ns: [u64; 4],
    calls: [u64; 4],
    /// Packets agents handed to their NIC.
    pkts_sent: u64,
}

const SENDER_PKT: usize = 0;
const SENDER_OTHER: usize = 1;
const RECEIVER_PKT: usize = 2;
const RECEIVER_OTHER: usize = 3;

impl AgentTally {
    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

thread_local! {
    static TALLY: RefCell<AgentTally> = RefCell::new(AgentTally::default());
}

fn agent_ns() -> u64 {
    TALLY.with(|t| t.borrow().total_ns())
}

/// Times every activation of the agent it wraps; behaviour is unchanged.
struct Timed {
    inner: Box<dyn Agent>,
    sender: bool,
}

impl Agent for Timed {
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        let packet = matches!(event, AgentEvent::Packet(_));
        let slot = match (self.sender, packet) {
            (true, true) => SENDER_PKT,
            (true, false) => SENDER_OTHER,
            (false, true) => RECEIVER_PKT,
            (false, false) => RECEIVER_OTHER,
        };
        let before = ctx.pending_sends();
        let t = Instant::now();
        self.inner.handle(ctx, event);
        let ns = t.elapsed().as_nanos() as u64;
        let sent = (ctx.pending_sends() - before) as u64;
        TALLY.with(|tally| {
            let mut tally = tally.borrow_mut();
            tally.ns[slot] += ns;
            tally.calls[slot] += 1;
            tally.pkts_sent += sent;
        });
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

// --- Spans ------------------------------------------------------------------

/// One timed call into a layer.
struct Span {
    name: &'static str,
    /// Nanoseconds since the pass started.
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// Index of the config this span belongs to (`None` for pass-level spans).
    run: Option<usize>,
    /// Agent time accumulated while the span was open.
    agent_ns: u64,
}

/// The pass's spans, kept in memory and written out when the pass ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, run: Option<usize>) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            run,
            agent_ns: 0,
        });
        self.open.push((self.spans.len() - 1, agent_ns()));
    }

    fn exit(&mut self) {
        let (i, agent0) = self.open.pop().expect("exit matches an enter");
        let end = self.now();
        let span = &mut self.spans[i];
        span.end = end;
        span.agent_ns = agent_ns() - agent0;
    }

    /// Time `f` as a span named `name`.
    fn span<T>(&mut self, name: &'static str, run: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.enter(name, run);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span name: duration minus child spans minus the agent
    /// time that ran directly inside it (agents are accounted separately).
    fn self_times(&self) -> HashMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_agent = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
                child_agent[p] += s.agent_ns;
            }
        }
        let mut out = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own_agent = s.agent_ns - child_agent[i];
            let own = (s.end - s.start).saturating_sub(child_ns[i] + own_agent);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    fn write_csv(&self, path: &str) -> Result<(), String> {
        let err = |e: std::io::Error| format!("write {path}: {e}");
        let file = std::fs::File::create(path).map_err(err)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "id,name,start_ns,end_ns,parent,run,agent_ns").map_err(err)?;
        let opt = |x: Option<usize>| x.map_or(String::new(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{i},{},{},{},{},{},{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.run),
                s.agent_ns
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)
    }
}

/// Engine state sampled at every progress tick, and per-run totals.
#[derive(Default)]
struct EngineTally {
    calendar_peak: usize,
    in_flight_peak: usize,
    fluid_flows_peak: usize,
    fluid_bytes: u64,
    app_bytes: u64,
    redundant_bytes: u64,
    signals: u64,
    flows: u64,
}

// --- Replica of mmptcp::experiment::run --------------------------------------

fn base_port_for(flow_id: u64) -> u16 {
    20_000 + ((flow_id.wrapping_mul(257)) % 30_000) as u16
}

fn dst_port_for(flow_id: u64) -> u16 {
    5_000 + (flow_id % 1_000) as u16
}

fn build_sender(
    protocol: Protocol,
    transport: TransportConfig,
    topo: &BuiltTopology,
    spec: &FlowSpec,
) -> Box<dyn Agent> {
    let flow = FlowId(spec.id);
    let (src, dst) = (spec.src, spec.dst);
    let (sport, dport) = (base_port_for(spec.id), dst_port_for(spec.id));
    match protocol {
        Protocol::Tcp => Box::new(TcpSender::new(
            transport, flow, src, dst, sport, dport, spec.size,
        )),
        Protocol::Dctcp => {
            let cfg = TransportConfig {
                ecn: true,
                ..transport
            };
            Box::new(TcpSender::new(cfg, flow, src, dst, sport, dport, spec.size))
        }
        Protocol::D2tcp => Box::new(D2tcpSender::new(
            transport,
            flow,
            src,
            dst,
            sport,
            dport,
            spec.size,
            spec.deadline,
        )),
        Protocol::Mptcp { subflows } => {
            let cfg = MptcpConfig {
                transport,
                num_subflows: subflows.max(1),
                ..MptcpConfig::default()
            };
            Box::new(MptcpSender::new(
                cfg, flow, src, dst, sport, dport, spec.size,
            ))
        }
        Protocol::PacketScatter => {
            let paths = topo.path_count(src, dst);
            let cfg = MmptcpConfig {
                transport,
                dupack: DupAckPolicy::topology_adaptive(paths as u32),
                ..MmptcpConfig::packet_scatter_only()
            };
            Box::new(MmptcpSender::new(
                cfg, flow, src, dst, sport, dport, spec.size,
            ))
        }
        Protocol::RepFlow {
            threshold,
            syn_only,
        } => {
            let cfg = RepFlowConfig {
                transport,
                replication_threshold: threshold,
                syn_only,
            };
            let paths = topo.path_count(src, dst);
            Box::new(RepFlowSender::new(
                cfg, flow, src, dst, sport, dport, spec.size, paths,
            ))
        }
        Protocol::Mmptcp {
            subflows,
            switch,
            dupack,
        } => {
            let dupack = dupack.unwrap_or_else(|| {
                DupAckPolicy::topology_adaptive(topo.path_count(src, dst) as u32)
            });
            let cfg = MmptcpConfig {
                transport,
                num_subflows: subflows,
                switch,
                dupack,
                coupled: true,
                reorder_undo: true,
            };
            Box::new(MmptcpSender::new(
                cfg, flow, src, dst, sport, dport, spec.size,
            ))
        }
    }
}

fn ensure_ecn_marking(config: &mut ExperimentConfig) {
    let ecn = |p: Option<Protocol>| matches!(p, Some(Protocol::Dctcp) | Some(Protocol::D2tcp));
    if !ecn(Some(config.protocol)) && !ecn(config.long_protocol) {
        return;
    }
    let set = |q: &mut QueueConfig| {
        if q.ecn_threshold_packets.is_none() {
            q.ecn_threshold_packets = Some(20);
        }
    };
    match &mut config.topology {
        TopologySpec::FatTree(c) | TopologySpec::MultiHomedFatTree(c) => set(&mut c.queue),
        TopologySpec::Vl2(c) => set(&mut c.queue),
        TopologySpec::Dumbbell(c) => set(&mut c.queue),
        TopologySpec::Parallel(c) => set(&mut c.queue),
    }
}

fn generate_workload(spec: &WorkloadSpec, hosts: &[Addr], rng: &mut SimRng) -> Flows {
    match spec {
        WorkloadSpec::Paper(cfg) => paper_workload(hosts, cfg, rng),
        WorkloadSpec::Incast {
            fan_in,
            bytes,
            start,
        } => incast_workload(hosts, *fan_in, *bytes, *start),
        WorkloadSpec::Custom(flows) => Flows {
            flows: flows.clone(),
        },
    }
}

/// One experiment, step for step as `mmptcp::experiment::run` does it, with
/// each layer call inside a span.
fn traced_run(
    mut config: ExperimentConfig,
    run: usize,
    tr: &mut Tracer,
    eng: &mut EngineTally,
) -> ExperimentResults {
    assert_eq!(
        config.trace,
        TraceConfig::Off,
        "the replica covers untraced runs only"
    );
    let id = Some(run);
    tr.enter("experiment.run", id);
    ensure_ecn_marking(&mut config);
    let mut topo = tr.span("topology.build", id, || config.topology.build());
    if config.path_policy != PathPolicy::FlowHash {
        for sw in topo.network.switches_mut() {
            sw.set_path_policy(config.path_policy);
        }
    }
    let host_addrs: Vec<Addr> = (0..topo.host_count() as u32).map(Addr).collect();
    let workload = tr.span("workload.gen", id, || {
        let mut wl_rng = SimRng::new(config.seed).fork(0xBEEF);
        generate_workload(&config.workload, &host_addrs, &mut wl_rng)
    });
    assert!(!workload.flows.is_empty(), "workload generated no flows");
    let name = format!("{} on {}", config.protocol.name(), topo.name);

    tr.enter("experiment.install", id);
    let BuiltTopology {
        network,
        name: topo_name,
        hosts,
        link_tiers,
        path_model,
    } = topo;
    let meta = BuiltTopology {
        network: Network::new(),
        name: topo_name,
        hosts: hosts.clone(),
        link_tiers: link_tiers.clone(),
        path_model: path_model.clone(),
    };
    let mut sim = Simulator::new(network, config.seed);
    sim.set_fluid_threshold(config.engine.fluid_threshold());
    let mut short_ids = HashSet::new();
    let mut long_ids = HashSet::new();
    let mut bounded_ids = HashSet::new();
    for spec in &workload.flows {
        let flow = FlowId(spec.id);
        match spec.class {
            FlowClass::Short => short_ids.insert(flow),
            FlowClass::Long => long_ids.insert(flow),
        };
        if spec.size.is_some() {
            bounded_ids.insert(flow);
        }
        let protocol = match spec.class {
            FlowClass::Long => config.long_protocol.unwrap_or(config.protocol),
            FlowClass::Short => config.protocol,
        };
        let sender = Timed {
            inner: build_sender(protocol, config.transport, &meta, spec),
            sender: true,
        };
        let receiver = Timed {
            inner: Box::new(TransportReceiver::new(flow)),
            sender: false,
        };
        let (src_node, dst_node) = (hosts[spec.src.index()], hosts[spec.dst.index()]);
        sim.register_agent(src_node, flow, Box::new(sender));
        sim.register_agent(dst_node, flow, Box::new(receiver));
        sim.schedule_flow_start(spec.start, src_node, flow);
    }
    tr.exit();

    tr.enter("experiment.loop", id);
    let mut metrics = FlowMetrics::new();
    let cap = SimTime::ZERO + config.max_sim_time;
    let mut completed: HashSet<FlowId> = HashSet::new();
    let tick = config.progress_interval;
    loop {
        let next = (sim.now() + tick).min(cap);
        tr.span("netsim.run_until", id, || sim.run_until(next));
        eng.calendar_peak = eng.calendar_peak.max(sim.pending_events());
        eng.in_flight_peak = eng.in_flight_peak.max(sim.in_flight_packets());
        eng.fluid_flows_peak = eng.fluid_flows_peak.max(sim.fluid_flows_active());
        let signals = sim.drain_signals();
        for s in &signals {
            if let Signal::FlowCompleted { flow, .. } = s {
                completed.insert(*flow);
            }
        }
        eng.signals += signals.len() as u64;
        tr.span("metrics.ingest", id, || metrics.ingest(signals.iter()));
        let all_done = bounded_ids.iter().all(|f| completed.contains(f));
        if all_done || sim.now() >= cap || sim.pending_events() == 0 {
            break;
        }
    }
    let all_short_completed = short_ids
        .iter()
        .filter(|f| bounded_ids.contains(f))
        .all(|f| completed.contains(f));
    tr.exit();

    tr.enter("experiment.finalize", id);
    sim.finalize();
    let final_signals = sim.drain_signals();
    eng.signals += final_signals.len() as u64;
    tr.span("metrics.ingest", id, || {
        metrics.ingest(final_signals.iter())
    });
    let elapsed = sim.now() - SimTime::ZERO;
    let counters = sim.counters();
    let in_flight_at_end = sim.in_flight_packets() as u64;
    let fluid_delivered_bytes = sim.fluid_delivered_bytes();
    let network = std::mem::replace(sim.network_mut(), Network::new());
    let backlog_at_end: u64 = network.links().iter().map(|l| l.backlog() as u64).sum();
    let no_route: u64 = network
        .nodes()
        .iter()
        .filter_map(|n| n.as_switch())
        .map(|s| s.stats().no_route)
        .sum();
    let audit = ConservationAudit {
        in_flight_at_end,
        backlog_at_end,
        no_route,
        fluid_delivered_bytes,
    };
    let loss = loss_report(&network);
    let overall = overall_utilisation(&network, elapsed);
    let full_topo = BuiltTopology {
        network,
        name: meta.name.clone(),
        hosts,
        link_tiers,
        path_model,
    };
    let core_utilisation = tier_utilisation(&full_topo, LinkTier::AggregationCore, elapsed);
    tr.span("experiment.teardown", id, || drop((sim, full_topo)));
    tr.exit();

    let records = metrics.sorted_records();
    eng.fluid_bytes += fluid_delivered_bytes;
    eng.app_bytes += records.iter().map(|(_, r)| r.bytes).sum::<u64>();
    eng.redundant_bytes += records.iter().map(|(_, r)| r.redundant_bytes).sum::<u64>();
    eng.flows += workload.flows.len() as u64;
    let results = ExperimentResults {
        name,
        protocol: config.protocol,
        seed: config.seed,
        elapsed,
        flows: workload.flows,
        short_ids,
        long_ids,
        metrics,
        loss,
        core_utilisation,
        overall_utilisation: overall,
        counters,
        audit,
        all_short_completed,
        goodput_horizon: config.goodput_horizon,
        trace: None,
    };
    tr.exit();
    results
}

// --- The traced benchmark command --------------------------------------------

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Untraced reference pass (one config at a time through `mmptcp::run`),
/// then the traced replica; the replica must reproduce every run's counters
/// and report entry byte for byte.
pub fn trace(w: Workload, seed: Seed, out_dir: &str) -> Result<Outcome, String> {
    let configs = w.inputs(seed).swap_remove(0);
    let expected = Expected::load(w, seed)?;

    let t = Instant::now();
    let mut config_walls = Vec::new();
    let mut reference = Vec::new();
    for (label, cfg) in &configs {
        let t = Instant::now();
        let r = mmptcp::run(cfg.clone());
        config_walls.push(t.elapsed().as_secs_f64());
        reference.push((label.clone(), r));
    }
    let ref_doc = w.report(&reference).to_json();
    let untraced_wall = t.elapsed().as_secs_f64();
    let ref_entries = run_entries(&ref_doc)?;
    let failures = expected.check(&reference, &ref_entries);
    let ref_counters: Vec<_> = reference.iter().map(|(_, r)| r.counters).collect();
    drop(reference);

    TALLY.with(|t| *t.borrow_mut() = AgentTally::default());
    let mut eng = EngineTally::default();
    let mut tr = Tracer::new();
    let t = Instant::now();
    tr.enter("pass", None);
    let mut results = Vec::new();
    for (i, (label, cfg)) in configs.iter().enumerate() {
        results.push((label.clone(), traced_run(cfg.clone(), i, &mut tr, &mut eng)));
    }
    let doc = tr.span("metrics.report", None, || w.report(&results).to_json());
    tr.exit();
    let traced_wall = t.elapsed().as_secs_f64();

    let entries = run_entries(&doc)?;
    for (i, (label, r)) in results.iter().enumerate() {
        if r.counters != ref_counters[i] || entries[i] != ref_entries[i] {
            return Err(format!(
                "fidelity guard: the traced replica diverged from the untraced run on '{label}' \
                 (counters {:?} vs {:?})",
                r.counters, ref_counters[i]
            ));
        }
    }

    let tally = TALLY.with(|t| *t.borrow());
    let selfs = tr.self_times();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let gap_s = self_of("pass") + self_of("experiment.run");
    let accounted = selfs.values().sum::<f64>() + tally.total_ns() as f64 * 1e-9;
    let miss = (accounted - traced_wall).abs() / traced_wall;
    if miss > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "span accounting: layer self times plus gaps ({accounted:.4} s) miss the traced \
             wall time ({traced_wall:.4} s) by {:.1}%",
            miss * 100.0
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let seed_tag = match seed {
        Seed::Pinned => "pinned".to_string(),
        Seed::Derived(n) => n.to_string(),
    };
    tr.write_csv(&format!("{out_dir}/{}-seed{seed_tag}-spans.csv", w.name()))?;

    let sum = |f: fn(&mmptcp::netsim::SimCounters) -> u64| {
        results.iter().map(|(_, r)| f(&r.counters)).sum::<u64>()
    };
    let events = sum(|c| c.events_processed);
    let engine_self = self_of("netsim.run_until");
    let secs = |slot: usize| tally.ns[slot] as f64 * 1e-9;
    let per_call = |slot: usize| share(tally.ns[slot], tally.calls[slot]);
    let metrics = vec![
        Metric::new("netsim.engine_self_s", engine_self, "s"),
        Metric::new("netsim.events", events as f64, "count"),
        Metric::new(
            "netsim.ns_per_event",
            engine_self * 1e9 / events as f64,
            "ns",
        ),
        Metric::new("netsim.events_per_s", events as f64 / untraced_wall, "1/s"),
        Metric::new("netsim.forwarded", sum(|c| c.forwarded) as f64, "count"),
        Metric::new(
            "netsim.delivered",
            sum(|c| c.delivered_to_hosts) as f64,
            "count",
        ),
        Metric::new("netsim.dropped", sum(|c| c.dropped) as f64, "count"),
        Metric::new("netsim.calendar_peak", eng.calendar_peak as f64, "count"),
        Metric::new("netsim.in_flight_peak", eng.in_flight_peak as f64, "count"),
        Metric::new(
            "netsim.fluid_flows_peak",
            eng.fluid_flows_peak as f64,
            "count",
        ),
        Metric::new(
            "netsim.fluid_byte_share",
            share(eng.fluid_bytes, eng.app_bytes),
            "ratio",
        ),
        Metric::new("transport.sender_pkt_s", secs(SENDER_PKT), "s"),
        Metric::new(
            "transport.sender_pkt_calls",
            tally.calls[SENDER_PKT] as f64,
            "count",
        ),
        Metric::new("transport.sender_ns_per_pkt", per_call(SENDER_PKT), "ns"),
        Metric::new("transport.sender_other_s", secs(SENDER_OTHER), "s"),
        Metric::new(
            "transport.sender_other_calls",
            tally.calls[SENDER_OTHER] as f64,
            "count",
        ),
        Metric::new("transport.receiver_pkt_s", secs(RECEIVER_PKT), "s"),
        Metric::new(
            "transport.receiver_ns_per_pkt",
            per_call(RECEIVER_PKT),
            "ns",
        ),
        Metric::new("transport.receiver_other_s", secs(RECEIVER_OTHER), "s"),
        Metric::new("transport.pkts_sent", tally.pkts_sent as f64, "count"),
        Metric::new(
            "transport.redundant_byte_share",
            share(eng.redundant_bytes, eng.app_bytes + eng.redundant_bytes),
            "ratio",
        ),
        Metric::new("topology.build_s", self_of("topology.build"), "s"),
        Metric::new("workload.gen_s", self_of("workload.gen"), "s"),
        Metric::new("workload.flows", eng.flows as f64, "count"),
        Metric::new("experiment.install_s", self_of("experiment.install"), "s"),
        Metric::new("experiment.loop_s", self_of("experiment.loop"), "s"),
        Metric::new("experiment.finalize_s", self_of("experiment.finalize"), "s"),
        Metric::new("experiment.teardown_s", self_of("experiment.teardown"), "s"),
        Metric::new("metrics.ingest_s", self_of("metrics.ingest"), "s"),
        Metric::new("metrics.signals", eng.signals as f64, "count"),
        Metric::new("metrics.report_s", self_of("metrics.report"), "s"),
        Metric::new("driver.config_wall_sum_s", config_walls.iter().sum(), "s"),
        Metric::new(
            "driver.config_wall_max_s",
            config_walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        Metric::new("trace.overhead_ratio", traced_wall / untraced_wall, "ratio"),
        Metric::new("trace.gap_s", gap_s, "s"),
    ];
    let info = vec![
        Metric::new("traced_wall_s", traced_wall, "s"),
        Metric::new("untraced_wall_s", untraced_wall, "s"),
        Metric::new("accounting_miss", miss, "ratio"),
        Metric::new("spans", tr.spans.len() as f64, "count"),
    ];
    Ok(Outcome {
        threads: 1,
        attempted: configs.len(),
        failures,
        metrics,
        info,
    })
}
