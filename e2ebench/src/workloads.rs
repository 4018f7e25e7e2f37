//! The two closed-loop workloads. Each sets up, runs a timed phase that
//! calls only the program's public functions, and checks every output
//! with the harness's own verifier and byte-identity rules afterwards.

use crate::inputs::{self, explicit_job, generated_job, mix, paper_density, EditState, Rng};
use crate::stats::{cpu_seconds, mean};
use crate::trace::{self, Metric};
use crate::verify::verify;
use rfid_core::{covering_schedule_with, make_scheduler, AlgorithmKind, McsOptions};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment, Scenario};
use rfid_serve::protocol::CODE_BASE_MISS;
use rfid_serve::{
    BuiltClient, ClientBuilder, ClientError, JobSpec, ScenarioDelta, ScheduleReply, ServeClient,
    ServeConfig, Server, TcpClient,
};
use std::time::Instant;

/// Readers in each solve-lib deployment.
const SOLVE_READERS: usize = 5_000;
/// Readers in each edit-stream deployment (4 800 tags at paper density).
const EDIT_READERS: usize = 200;
/// Edit sessions, taken in turn over one connection. With one connection
/// the daemon stores specs in the same order in every run, so its
/// base-misses fall on the same edit steps whatever the seed.
const EDIT_SESSIONS: usize = 5;
/// Edit steps per round. The daemon's spec store holds 1 024 specs and
/// clears itself whole when full; a base upload or a full-frame recovery
/// stores one spec and a delta edit two (derived and canonical key). With
/// 5 sessions that clear comes every 514 steps, and every session but the
/// one whose edit cleared the store then meets a base-miss: counted from
/// the first edit, each 514 steps hold exactly four. A round is two such
/// cycles, longer than a 15-second phase on the reference host, so a run
/// makes one round whatever the host's speed that hour; runs attempt whole
/// rounds on one daemon, so the failed share is exactly 8/1 028.
const ROUND_EDITS: u64 = 1_028;
/// Solve-lib alternates these, one per operation; a round is one of each.
const SOLVE_ALGOS: [AlgorithmKind; 2] = [AlgorithmKind::LocalGreedy, AlgorithmKind::HillClimbing];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SolveLib,
    EditStream,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "solve-lib" => Some(Kind::SolveLib),
            "edit-stream" => Some(Kind::EditStream),
            _ => None,
        }
    }
}

/// Failed operations by cause.
#[derive(Debug, Default, Clone, Copy)]
pub struct Causes {
    pub transport: u64,
    pub remote: u64,
    pub verifier: u64,
    pub zero_yield: u64,
}

impl Causes {
    pub fn total(&self) -> u64 {
        self.transport + self.remote + self.verifier + self.zero_yield
    }

    fn client_error(&mut self, e: &ClientError) {
        eprintln!("request failed: {e}");
        match e {
            ClientError::Remote(_) => self.remote += 1,
            _ => self.transport += 1,
        }
    }

    pub fn add(&mut self, other: Causes) {
        self.transport += other.transport;
        self.remote += other.remote;
        self.verifier += other.verifier;
        self.zero_yield += other.zero_yield;
    }
}

/// One solve-lib operation as the traced loop saw it.
pub struct Solve {
    pub algo: usize,
    pub slots: f64,
    pub fallback_slots: f64,
    /// generate, coverage, graph, schedule (ms); traced loops only.
    pub spans: Option<[f64; 4]>,
}

/// The tail percentile of every workload, over the whole timed phase: the
/// highest that held steady on the served workloads (see the README).
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Equal parts a timed phase is split into; each timing metric is the
/// median of its per-window values, so host noise that hits one or two
/// windows of a run does not move it.
pub const WINDOWS: usize = 5;

/// One window of a timed phase.
#[derive(Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    /// Operations that returned an output (failed checks included).
    pub completed: u64,
    pub seconds: f64,
    pub cpu_s: f64,
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub causes: Causes,
    /// `false` once any output fails a check.
    pub correct: bool,
    /// Slot counts of the distinct schedules received.
    pub slot_counts: Vec<f64>,
    /// Cache hit and miss deltas over the phase.
    pub cache: (u64, u64),
    pub solves: Vec<Solve>,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            correct: true,
            windows: (0..WINDOWS).map(|_| Window::default()).collect(),
            ..Phase::default()
        }
    }

    /// Records one operation that started `at` seconds into a phase of
    /// `seconds`.
    fn record(&mut self, at: f64, seconds: f64, latency_ms: f64, completed: bool) {
        let w = ((at / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1);
        self.record_in(w, latency_ms, completed);
    }

    fn record_in(&mut self, w: usize, latency_ms: f64, completed: bool) {
        self.latencies_ms.push(latency_ms);
        self.windows[w].latencies_ms.push(latency_ms);
        self.windows[w].completed += u64::from(completed);
        self.attempted += 1;
    }

    fn wrong(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.correct = false;
    }
}

pub trait Bench {
    /// Runs the closed loop for `seconds` of timed phase.
    fn run(&mut self, seconds: f64, traced: bool) -> Phase;
    /// Verifies what the phase received; fills `slot_counts`.
    fn check(&mut self, phase: &mut Phase);
    /// Replays the workload's inputs through each layer's public calls.
    fn replay(&mut self, traced: &Phase) -> Vec<Metric>;
}

pub fn setup(kind: Kind, seed: u64) -> Box<dyn Bench> {
    match kind {
        Kind::SolveLib => Box::new(SolveLib::new(seed)),
        Kind::EditStream => Box::new(Edit::new(seed)),
    }
}

/// An in-process daemon on a loopback port, shut down when dropped.
struct Daemon(Option<Server>);

impl std::ops::Deref for Daemon {
    type Target = Server;

    fn deref(&self) -> &Server {
        self.0.as_ref().expect("daemon runs until dropped")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

fn daemon() -> Daemon {
    Daemon(Some(
        Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind a loopback daemon"),
    ))
}

fn client(addr: String) -> BuiltClient {
    ClientBuilder::new()
        .addr(addr)
        .build()
        .expect("connect to an in-process daemon")
}

fn cache_counts(server: &Server) -> (u64, u64) {
    let stats = server.service().stats();
    (stats.cache_hits, stats.cache_misses)
}

// ---------------------------------------------------------------- solve-lib

struct SolveLib {
    seed: u64,
    scenario: Scenario,
    next_op: u64,
}

impl SolveLib {
    fn new(seed: u64) -> Self {
        let scenario = paper_density(SOLVE_READERS);
        // Warm-up: two solves per algorithm, so page faults and the thread
        // pool's start land in set-up rather than in the first operations.
        for round in 0..2 {
            let d = scenario.generate(mix(seed, u64::MAX - round));
            let (coverage, graph) = (Coverage::build(&d), interference_graph(&d));
            for kind in SOLVE_ALGOS {
                let mut scheduler = make_scheduler(kind, 0);
                let options = McsOptions::new();
                let _ = covering_schedule_with(&d, &coverage, &graph, scheduler.as_mut(), &options);
            }
        }
        SolveLib {
            seed,
            scenario,
            next_op: 0,
        }
    }
}

impl Bench for SolveLib {
    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let mut phase = Phase::new();
        let mut i = 0usize;
        // The phase clock runs only while an operation does; verification
        // happens outside it.
        let mut clock = 0.0;
        // Whole rounds only, so the failed share is exactly one half.
        while clock < seconds || !i.is_multiple_of(SOLVE_ALGOS.len()) {
            let algo = i % SOLVE_ALGOS.len();
            let op_seed = mix(self.seed, self.next_op);
            self.next_op += 1;
            i += 1;
            let mut scheduler = make_scheduler(SOLVE_ALGOS[algo], 0);
            let options = McsOptions::new();
            let stamp = || traced.then(Instant::now);
            let cpu0 = cpu_seconds();
            let t0 = Instant::now();
            let d = self.scenario.generate(op_seed);
            let t1 = stamp();
            let coverage = Coverage::build(&d);
            let t2 = stamp();
            let graph = interference_graph(&d);
            let t3 = stamp();
            let run = covering_schedule_with(&d, &coverage, &graph, scheduler.as_mut(), &options);
            let t4 = Instant::now();
            let cpu = cpu_seconds() - cpu0;
            let elapsed = (t4 - t0).as_secs_f64();
            phase.record(clock, seconds, elapsed * 1e3, run.is_ok());
            let w = ((clock / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1);
            phase.windows[w].seconds += elapsed;
            phase.windows[w].cpu_s += cpu;
            clock += elapsed;
            let spans = match (t1, t2, t3) {
                (Some(t1), Some(t2), Some(t3)) => {
                    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                    Some([ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)])
                }
                _ => None,
            };
            // Verification runs outside the timed phase's clock.
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("solve failed: {e}");
                    phase.causes.remote += 1;
                    continue;
                }
            };
            let schedule = &run.schedule;
            let verdict = verify(&d, schedule, true);
            if verdict.violations > 0 {
                phase.causes.verifier += 1;
                phase.wrong(format!(
                    "{}: {:?}",
                    SOLVE_ALGOS[algo].label(),
                    verdict.messages
                ));
            } else if verdict.zero_yield_slots > 0 {
                phase.causes.zero_yield += 1;
            }
            phase.slot_counts.push(schedule.size() as f64);
            phase.solves.push(Solve {
                algo,
                slots: schedule.size() as f64,
                fallback_slots: schedule.fallback_slots() as f64,
                spans,
            });
        }
        phase
    }

    fn check(&mut self, _phase: &mut Phase) {
        // Every solve was verified as it completed.
    }

    fn replay(&mut self, traced: &Phase) -> Vec<Metric> {
        let mut metrics = trace::solve_spans(traced, &SOLVE_ALGOS);
        // Off solve-lib's path, the serve layers are measured on a
        // paper-scale probe: an n = 5 000 reply takes seconds to decode.
        let probe = probe_jobs(self.seed, 8);
        let server = daemon();
        let mut c = client(server.addr().to_string());
        let replies: Vec<ScheduleReply> = probe
            .iter()
            .map(|(job, _)| c.schedule(job, None).expect("probe solve"))
            .collect();
        let before = cache_counts(&server);
        metrics.extend(trace::serve_layers(&server, &replies));
        let after = cache_counts(&server);
        metrics.push(Metric::count("cache.hits", (after.0 - before.0) as f64));
        metrics.push(Metric::count("cache.misses", (after.1 - before.1) as f64));
        metrics.push(Metric::new(
            "router.hop_us",
            trace::probe_router_hop(&probe),
            "us",
        ));
        metrics.extend(trace::delta_layers(&probe_chains(self.seed, &probe)));
        drop(c);
        drop(server);
        metrics
    }
}

// ------------------------------------------------------ probes of solve-lib

/// Probe jobs of the paper's §VI scenario: GHC jobs over `count` seeds,
/// with their seeds.
fn probe_jobs(seed: u64, count: usize) -> Vec<(JobSpec, u64)> {
    (0..count as u64)
        .map(|j| {
            let s = mix(seed, 1_000 + j);
            (
                generated_job(paper_density(50), s, AlgorithmKind::HillClimbing),
                s,
            )
        })
        .collect()
}

/// Short edit chains on canonical copies of probe deployments.
fn probe_chains(seed: u64, probe: &[(JobSpec, u64)]) -> Vec<(Deployment, Vec<Vec<ScenarioDelta>>)> {
    probe
        .iter()
        .take(2)
        .map(|(_, s)| {
            let base = inputs::canonical(&paper_density(50).generate(*s));
            let mut state = EditState::new(&base);
            let mut rng = Rng::new(mix(seed, 3_000 + s));
            let chain = (0..8).map(|_| state.next_ops(&mut rng)).collect();
            (base, chain)
        })
        .collect()
}

// -------------------------------------------------------------- edit-stream

/// Every edit a session sent: its ops and, when it succeeded, the reply.
type EditLog = Vec<(Vec<ScenarioDelta>, Option<ScheduleReply>)>;

struct Session {
    base: Deployment,
    state: EditState,
    rng: Rng,
    head: String,
    log: EditLog,
    alive: bool,
}

struct Edit {
    seed: u64,
    sessions: Vec<Session>,
    /// Edit steps taken on the daemon; session `steps % EDIT_SESSIONS`
    /// edits next.
    steps: u64,
    // Declared before the daemon, so the connection closes first.
    client: BuiltClient,
    server: Daemon,
}

/// Whether `e` is the service's structured answer to a delta whose base it
/// no longer holds.
fn is_base_miss(e: &ClientError) -> bool {
    matches!(e, ClientError::Remote(e) if e.code == CODE_BASE_MISS && e.message.starts_with("base-miss"))
}

impl Edit {
    /// Starts the daemon and uploads one base deployment per session.
    fn new(seed: u64) -> Self {
        let server = daemon();
        let mut client = client(server.addr().to_string());
        let sessions = (0..EDIT_SESSIONS as u64)
            .map(|k| {
                let base =
                    inputs::canonical(&paper_density(EDIT_READERS).generate(mix(seed, 2_000 + k)));
                let reply = client
                    .schedule(
                        &explicit_job(base.clone(), AlgorithmKind::HillClimbing),
                        None,
                    )
                    .expect("base upload");
                Session {
                    state: EditState::new(&base),
                    base,
                    rng: Rng::new(mix(seed, 6_000 + k)),
                    head: reply.key,
                    log: Vec::new(),
                    alive: true,
                }
            })
            .collect();
        Edit {
            seed,
            sessions,
            steps: 0,
            client,
            server,
        }
    }

    /// One edit step of the next live session: a delta frame on the
    /// session's head. On a base-miss the edit counts as a remote failure
    /// and the session re-sends the edited deployment (the harness's own
    /// copy) as a full frame, whose reply becomes the new head. Returns
    /// whether the session got its schedule, and the failures.
    fn step(&mut self) -> (bool, Causes) {
        let mut causes = Causes::default();
        let k = (self.steps % EDIT_SESSIONS as u64) as usize;
        self.steps += 1;
        let session = &mut self.sessions[k];
        if !session.alive {
            return (false, causes);
        }
        let ops = session.state.next_ops(&mut session.rng);
        let reply = match self.client.schedule_delta(&session.head, &ops, None, None) {
            Err(e) if is_base_miss(&e) => {
                causes.remote += 1;
                let job = explicit_job(session.state.deployment(), AlgorithmKind::HillClimbing);
                self.client.schedule(&job, None)
            }
            other => other,
        };
        match reply {
            Ok(reply) => {
                session.head = reply.key.clone();
                session.log.push((ops, Some(reply)));
                (true, causes)
            }
            Err(e) => {
                // Without a reply the chain's head is lost; the session
                // ends here.
                if causes.total() == 0 {
                    causes.client_error(&e);
                } else {
                    eprintln!("full-frame recovery failed: {e}");
                }
                session.log.push((ops, None));
                session.alive = false;
                (false, causes)
            }
        }
    }
}

impl Bench for Edit {
    fn run(&mut self, seconds: f64, _traced: bool) -> Phase {
        let mut phase = Phase::new();
        let before = cache_counts(&self.server);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        // (end of the step in seconds, process CPU then, latency ms,
        // completed) per edit step.
        let mut steps = Vec::new();
        while start.elapsed().as_secs_f64() < seconds || self.steps % ROUND_EDITS != 0 {
            let t = Instant::now();
            let (completed, causes) = self.step();
            let latency = t.elapsed().as_secs_f64() * 1e3;
            if causes.total() > 0 {
                eprintln!("edit step {}: base-miss", self.steps - 1);
            }
            phase.causes.add(causes);
            steps.push((
                start.elapsed().as_secs_f64(),
                cpu_seconds(),
                latency,
                completed,
            ));
        }
        let after = cache_counts(&self.server);
        phase.cache = (after.0 - before.0, after.1 - before.1);
        // Windows of equal step counts, since the phase ends on a round
        // boundary rather than at a fixed time.
        let per = steps.len().div_ceil(WINDOWS);
        let (mut t_prev, mut cpu_prev) = (0.0, cpu0);
        for (w, chunk) in steps.chunks(per).enumerate() {
            for &(_, _, latency, completed) in chunk {
                phase.record_in(w, latency, completed);
            }
            let &(t_end, cpu_end, _, _) = chunk.last().expect("chunks are not empty");
            phase.windows[w].seconds = t_end - t_prev;
            phase.windows[w].cpu_s = cpu_end - cpu_prev;
            (t_prev, cpu_prev) = (t_end, cpu_end);
        }
        phase
    }

    /// Verifies every logged edit against the harness's own copy of the
    /// deployment, then re-sends each session's first and last edited
    /// deployments as full frames to a fresh daemon, which solves them
    /// cold; each must return the edit reply's exact payload bytes.
    fn check(&mut self, phase: &mut Phase) {
        let mut resend: Vec<(Deployment, ScheduleReply)> = Vec::new();
        for session in &mut self.sessions {
            let mut current = session.base.clone();
            let log = std::mem::take(&mut session.log);
            let last_ok = log.iter().rposition(|(_, r)| r.is_some());
            for (i, (ops, reply)) in log.into_iter().enumerate() {
                current = match inputs::apply_ops(&current, &ops) {
                    Ok(d) => d,
                    Err(e) => {
                        phase.wrong(e);
                        break;
                    }
                };
                let Some(reply) = reply else { break };
                let outcome = match reply.outcome() {
                    Ok(o) => o,
                    Err(e) => {
                        phase.causes.verifier += 1;
                        phase.wrong(format!("edit reply does not decode: {e}"));
                        continue;
                    }
                };
                let verdict = verify(&current, &outcome.schedule, true);
                if verdict.violations > 0 {
                    phase.causes.verifier += 1;
                    phase.wrong(format!("edit {i}: {:?}", verdict.messages));
                } else if verdict.zero_yield_slots > 0 {
                    phase.causes.zero_yield += 1;
                }
                phase.slot_counts.push(outcome.schedule.size() as f64);
                if i == 0 || Some(i) == last_ok {
                    resend.push((current.clone(), reply));
                }
            }
        }
        let fresh = daemon();
        let mut c = client(fresh.addr().to_string());
        for (d, reply) in resend {
            match c.schedule(&explicit_job(d, AlgorithmKind::HillClimbing), None) {
                Ok(full) if full.payload == reply.payload => {}
                Ok(_) => {
                    phase.causes.verifier += 1;
                    phase.wrong("a full-frame re-send differs from its edit reply".into());
                }
                Err(e) => {
                    phase.causes.verifier += 1;
                    phase.wrong(format!("full-frame re-send failed: {e}"));
                }
            }
        }
        drop(c);
        drop(fresh);
    }

    fn replay(&mut self, traced: &Phase) -> Vec<Metric> {
        let bases: Vec<(Scenario, u64)> = (0..EDIT_SESSIONS as u64)
            .map(|k| (paper_density(EDIT_READERS), mix(self.seed, 2_000 + k)))
            .collect();
        let mut metrics = trace::model_core(&bases);
        // Fresh chains from each session's base, drawn by the same
        // generator the timed phase used.
        let chains: Vec<(Deployment, Vec<Vec<ScenarioDelta>>)> = self
            .sessions
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let mut state = EditState::new(&s.base);
                let mut rng = Rng::new(mix(self.seed, 7_000 + k as u64));
                (
                    s.base.clone(),
                    (0..6).map(|_| state.next_ops(&mut rng)).collect(),
                )
            })
            .collect();
        let delta = trace::delta_layers(&chains);
        // Key probes address the sessions' latest heads, which the
        // daemon's cache still holds.
        let heads: Vec<ScheduleReply> = {
            let mut c =
                TcpClient::connect(&self.server.addr().to_string()).expect("connect to the daemon");
            self.sessions
                .iter()
                .map(|s| {
                    c.schedule_by_key(&s.head, &[])
                        .expect("session head is cached")
                })
                .collect()
        };
        let layers = trace::serve_layers(&self.server, &heads);
        let blocking_ms = trace::find(&layers, "reactor.hello_rtt_us") / 1e3
            + trace::find(&delta, "service.schedule_delta_ms")
            + trace::find(&layers, "protocol.encode_reply_us") / 1e3
            + trace::find(&layers, "protocol.decode_reply_us") / 1e3;
        let sample: Vec<(JobSpec, u64)> = chains
            .iter()
            .take(2)
            .map(|(d, _)| (explicit_job(d.clone(), AlgorithmKind::HillClimbing), 0))
            .collect();
        metrics.extend(layers);
        metrics.extend(delta);
        metrics.push(Metric::new(
            "router.hop_us",
            trace::probe_router_hop(&sample),
            "us",
        ));
        metrics.push(Metric::count("cache.hits", traced.cache.0 as f64));
        metrics.push(Metric::count("cache.misses", traced.cache.1 as f64));
        metrics.push(Metric::new("trace.blocking_sum_ms", blocking_ms, "ms"));
        metrics
    }
}

/// Mean slot count, for `slots_per_schedule`.
pub fn mean_slots(phase: &Phase) -> f64 {
    mean(&phase.slot_counts)
}
