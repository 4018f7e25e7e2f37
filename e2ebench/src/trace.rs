//! The traced run's per-layer measurements: spans the harness records
//! around its own calls into each layer's public functions, on the
//! workload's own inputs. Nothing here runs in an untraced invocation.

use crate::inputs::explicit_job;
use crate::stats::{mean, median, sample_us};
use crate::workloads::Phase;
use rfid_core::{
    covering_schedule_with, make_scheduler, AlgorithmKind, McsOptions, SchedulerRegistry,
};
use rfid_delta::{apply_ops, canonical_json, parse_key_hex};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment, Scenario};
use rfid_serve::codec::scan_key_frame;
use rfid_serve::protocol::{decode_frame, encode_frame};
use rfid_serve::{
    CanonicalJob, HashRing, JobSpec, Request, Response, Router, RouterConfig, ScenarioDelta,
    ScheduleReply, ServeConfig, Server, Service, TcpClient, Workload, PROTOCOL_VERSION,
};
use std::time::Instant;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    pub fn count(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }
}

pub fn find(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Solve-lib's layers, from the spans of the traced loop itself.
pub fn solve_spans(traced: &Phase, algos: &[AlgorithmKind]) -> Vec<Metric> {
    let spans: Vec<[f64; 4]> = traced.solves.iter().filter_map(|s| s.spans).collect();
    let column = |i: usize| median(&spans.iter().map(|s| s[i]).collect::<Vec<_>>());
    let mut metrics = vec![
        Metric::new("model.generate_ms", column(0), "ms"),
        Metric::new("model.coverage_ms", column(1), "ms"),
        Metric::new("model.graph_ms", column(2), "ms"),
    ];
    for (a, kind) in algos.iter().enumerate() {
        let of = |f: &dyn Fn(&crate::workloads::Solve) -> Option<f64>| -> Vec<f64> {
            traced
                .solves
                .iter()
                .filter(|s| s.algo == a)
                .filter_map(f)
                .collect()
        };
        let label = kind.label();
        metrics.push(Metric::new(
            format!("core.schedule_ms.{label}"),
            median(&of(&|s| s.spans.map(|sp| sp[3]))),
            "ms",
        ));
        metrics.push(Metric::count(
            format!("core.slots.{label}"),
            mean(&of(&|s| Some(s.slots))),
        ));
        if *kind == AlgorithmKind::LocalGreedy {
            metrics.push(Metric::count(
                format!("core.fallback_slots.{label}"),
                mean(&of(&|s| Some(s.fallback_slots))),
            ));
        }
    }
    // The blocking path of one operation is its four spans in sequence.
    let blocking: f64 = (0..4).map(column).sum();
    metrics.push(Metric::new("trace.blocking_sum_ms", blocking, "ms"));
    metrics
}

/// Model and core layers replayed on `inputs`: generate, coverage, graph,
/// and a covering schedule by each of Algorithm 2 and GHC.
pub fn model_core(inputs: &[(Scenario, u64)]) -> Vec<Metric> {
    let algos = [AlgorithmKind::LocalGreedy, AlgorithmKind::HillClimbing];
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut generate, mut coverage, mut graph) = (Vec::new(), Vec::new(), Vec::new());
    let mut schedule = [Vec::new(), Vec::new()];
    let mut slots = [Vec::new(), Vec::new()];
    let mut fallback = Vec::new();
    for (scenario, seed) in inputs {
        let t = Instant::now();
        let d = scenario.generate(*seed);
        generate.push(ms(t));
        let t = Instant::now();
        let cov = Coverage::build(&d);
        coverage.push(ms(t));
        let t = Instant::now();
        let g = interference_graph(&d);
        graph.push(ms(t));
        for (a, kind) in algos.iter().enumerate() {
            let mut scheduler = make_scheduler(*kind, 0);
            let t = Instant::now();
            let run = covering_schedule_with(&d, &cov, &g, scheduler.as_mut(), &McsOptions::new())
                .expect("replayed solve");
            schedule[a].push(ms(t));
            slots[a].push(run.schedule.size() as f64);
            if *kind == AlgorithmKind::LocalGreedy {
                fallback.push(run.schedule.fallback_slots() as f64);
            }
        }
    }
    let mut metrics = vec![
        Metric::new("model.generate_ms", median(&generate), "ms"),
        Metric::new("model.coverage_ms", median(&coverage), "ms"),
        Metric::new("model.graph_ms", median(&graph), "ms"),
    ];
    for (a, kind) in algos.iter().enumerate() {
        let label = kind.label();
        metrics.push(Metric::new(
            format!("core.schedule_ms.{label}"),
            median(&schedule[a]),
            "ms",
        ));
        metrics.push(Metric::count(
            format!("core.slots.{label}"),
            mean(&slots[a]),
        ));
    }
    metrics.push(Metric::count(
        "core.fallback_slots.alg2-central",
        mean(&fallback),
    ));
    metrics
}

/// Serve layers on replies `server` holds in its cache: the `Hello` round
/// trip, the in-process key probe, the key-frame scan, the reply frame's
/// encode, decode and size, and the canonical render of the outcome.
pub fn serve_layers(server: &Server, replies: &[ScheduleReply]) -> Vec<Metric> {
    let n = replies.len();
    let mut hello = TcpClient::connect(&server.addr().to_string()).expect("connect for Hello");
    let hello_us = sample_us(50, 2_000, 200.0, |_| {
        hello.hello().expect("Hello round trip");
    });
    let service = server.service();
    let by_key_us = sample_us(50, 5_000, 100.0, |i| {
        service
            .request_by_key(&replies[i % n].key, &[])
            .expect("replayed key is cached");
    });
    let key_frames: Vec<String> = replies
        .iter()
        .map(|r| {
            encode_frame(&Request::Key {
                key: r.key.clone(),
                ops: None,
                request_id: None,
                v: Some(PROTOCOL_VERSION),
            })
        })
        .collect();
    let scan_us = sample_us(50, 5_000, 50.0, |i| {
        std::hint::black_box(scan_key_frame(&key_frames[i % n]).expect("key frame scans"));
    });
    let responses: Vec<Response> = replies
        .iter()
        .map(|r| Response::Schedule {
            key: r.key.clone(),
            cached: true,
            payload: r.payload.to_string(),
        })
        .collect();
    let encode_us = sample_us(20, 2_000, 150.0, |i| {
        std::hint::black_box(encode_frame(&responses[i % n]));
    });
    let frames: Vec<String> = responses.iter().map(encode_frame).collect();
    let decode_us = sample_us(10, 2_000, 300.0, |i| {
        std::hint::black_box(decode_frame::<Response>(&frames[i % n]).expect("reply decodes"));
    });
    let outcomes: Vec<_> = replies
        .iter()
        .map(|r| r.outcome().expect("payload decodes"))
        .collect();
    let render_us = sample_us(10, 2_000, 150.0, |i| {
        std::hint::black_box(canonical_json(&outcomes[i % n]));
    });
    let bytes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    vec![
        Metric::new("reactor.hello_rtt_us", median(&hello_us), "us"),
        Metric::new("service.request_by_key_us", median(&by_key_us), "us"),
        Metric::new("codec.scan_key_us", median(&scan_us), "us"),
        Metric::new("protocol.encode_reply_us", median(&encode_us), "us"),
        Metric::new("protocol.decode_reply_us", median(&decode_us), "us"),
        Metric::new("protocol.reply_bytes", median(&bytes), "bytes"),
        Metric::new("codec.render_us", median(&render_us), "us"),
    ]
}

/// Index of the daemon that owns `key` on the router's ring.
fn owner_of(servers: &[Server], key: &str) -> usize {
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    HashRing::new(&addrs).shard_of(parse_key_hex(key).expect("content key is hex"))
}

/// Median of (routed key round trip − direct key round trip to the owning
/// daemon), same key, alternating, in microseconds.
fn router_hop(router: &Router, servers: &[Server], replies: &[ScheduleReply]) -> f64 {
    let mut routed = TcpClient::connect(&router.addr().to_string()).expect("connect to router");
    let mut direct: Vec<TcpClient> = servers
        .iter()
        .map(|s| TcpClient::connect(&s.addr().to_string()).expect("connect to daemon"))
        .collect();
    let owners: Vec<usize> = replies.iter().map(|r| owner_of(servers, &r.key)).collect();
    let mut hops = Vec::new();
    let start = Instant::now();
    while hops.len() < 40 || (start.elapsed().as_secs_f64() < 0.5 && hops.len() < 2_000) {
        let i = hops.len() % replies.len();
        let t = Instant::now();
        routed
            .schedule_by_key(&replies[i].key, &[])
            .expect("routed key hit");
        let via_router = t.elapsed().as_secs_f64();
        let t = Instant::now();
        direct[owners[i]]
            .schedule_by_key(&replies[i].key, &[])
            .expect("direct key hit");
        hops.push((via_router - t.elapsed().as_secs_f64()) * 1e6);
    }
    median(&hops)
}

/// [`router_hop`] on a probe fleet of two daemons and a router that
/// `jobs` are first solved through.
pub fn probe_router_hop(jobs: &[(JobSpec, u64)]) -> f64 {
    let servers: Vec<Server> = (0..2)
        .map(|_| Server::start("127.0.0.1:0", ServeConfig::default()).expect("probe daemon"))
        .collect();
    let router = Router::start(
        "127.0.0.1:0",
        RouterConfig {
            shards: servers.iter().map(|s| s.addr().to_string()).collect(),
            conns_per_shard: 1,
            ..RouterConfig::default()
        },
    )
    .expect("probe router");
    let replies: Vec<ScheduleReply> = {
        let mut c = TcpClient::connect(&router.addr().to_string()).expect("connect to router");
        jobs.iter()
            .map(|(job, _)| c.schedule(job, None).expect("probe solve"))
            .collect()
    };
    let hop = router_hop(&router, &servers, &replies);
    router.shutdown();
    for s in servers {
        s.shutdown();
    }
    hop
}

/// Delta layers on edit chains (canonical base, op lists): the op applier,
/// canonicalisation of each patched job, and the in-process delta solve
/// of the same chain.
pub fn delta_layers(chains: &[(Deployment, Vec<Vec<ScenarioDelta>>)]) -> Vec<Metric> {
    let registry = SchedulerRegistry::global();
    let (mut apply_us, mut canonical_us) = (Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (base, chain) in chains {
        let mut current = base.clone();
        for ops in chain {
            let t = Instant::now();
            let patched = apply_ops(&current, ops).expect("generated ops apply");
            apply_us.push(us(t));
            let job = explicit_job(patched.deployment, AlgorithmKind::HillClimbing);
            let t = Instant::now();
            let canonical = CanonicalJob::new(&job, &registry).expect("patched job canonicalises");
            canonical_us.push(us(t));
            match canonical.spec.workload {
                Workload::Explicit { deployment } => current = deployment,
                Workload::Generated { .. } => unreachable!("explicit jobs stay explicit"),
            }
        }
    }
    let service = Service::start(ServeConfig::default()).expect("in-process service");
    let mut delta_ms = Vec::new();
    for (base, chain) in chains {
        let mut head = service
            .schedule(
                &explicit_job(base.clone(), AlgorithmKind::HillClimbing),
                None,
            )
            .expect("base solve")
            .key;
        for ops in chain {
            let t = Instant::now();
            head = service
                .schedule_delta(&head, ops, None, None)
                .expect("delta solve")
                .key;
            delta_ms.push(us(t) / 1e3);
        }
    }
    service.shutdown(true);
    vec![
        Metric::new("delta.apply_us", median(&apply_us), "us"),
        Metric::new("codec.canonical_job_us", median(&canonical_us), "us"),
        Metric::new("service.schedule_delta_ms", median(&delta_ms), "ms"),
    ]
}
